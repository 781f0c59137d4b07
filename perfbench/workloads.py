"""Job pools and seeded job lists for the three benchmark workloads.

Every workload draws its job list from a finite pool, so every job the
benchmark can ever run has an output digest recorded in `golden.json`.
The seed picks which pool entries run and in what order.  A list draws a
fixed number of jobs from each stratum, and only among jobs of about equal
cost, so that lists from different seeds cost about the same.

A job is a plain dict and this module imports nothing from `exporamsey`:
the parent process builds and checks job lists without loading the
program under test.

    key      pool identity, used for the golden digest lookup
    kind     "cli" (exporamsey.cli.main(argv)) or "lib" (library call)
    argv     CLI arguments; "{work}" stands for the pass's work directory
    lib      library job name and arguments (kind "lib")
    group    closure workload: jobs of one group share one hypergraph
    role     what the job's independent check needs to know
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

WORKLOADS = ("closure", "census", "search")

# --- closure: exponentiation closures and the colouring pipeline ----------

# Each list holds groups of four jobs on one closure: closure, a k=2 solve, a
# CNF export and a check of a seeded colouring.  Closures of distinct cost
# appear in every list; the seed draws among closures of one shape, the
# export's k, the colouring and the order.

# Single-root seed sets take compare's same-root fast path.
_SINGLE = [((r,), d) for r in (2, 3, 5, 6, 7, 10, 11, 12, 13) for d in (2, 3)]
_SINGLE += [((2, 4), 2), ((3, 9), 2)]
# Cheap multi-root closures, and one that costs more than a consecutive pair.
_MULTI = [((2, 3), 2), ((3, 5), 2), ((2, 3, 5), 2), ((2, 3, 5, 7), 2)]
# Consecutive pairs at depth 3 share one closure shape (260 vertices, 1012
# edges) and cost; 7 is left out, as (7, 8) is cheaper.  A vertex budget of
# 200 truncates the same closures at the same cost.  These make up the
# middle of every list, so that both the median and the 90th percentile
# job fall among jobs of one kind.
_CONSECUTIVE = [((n, n + 1), 3) for n in (5, 6, 8, 9, 10, 11, 12)]
_TRUNCATED = [((n, n + 1), 3) for n in (5, 6, 8, 9, 10)]
_TRUNCATE_AT = 200


def _closure_group(seeds, depth, budget, k_export, variant):
    flags = [] if budget is None else ["--vertex-budget", str(budget)]
    src = ["--seeds", ",".join(map(str, seeds)), "--depth", str(depth)]
    gid = "closure " + " ".join(flags + src)
    specs = [
        ("closure", ["closure"]),
        ("solve", ["color", "solve", "--k", "2"]),
        ("export", ["color", "export-cnf", "--k", str(k_export)]),
        ("check", ["color", "check"]),
    ]
    jobs = []
    for role, cmd in specs:
        argv = flags + cmd + src
        extra = {}
        if role == "check":
            path = "{work}/coloring_%d.json" % variant
            argv = argv + ["--coloring", path]
            extra = {"variant": variant, "coloring": path}
        if role == "export":
            extra = {"k": k_export}
        jobs.append(dict(key="cli " + " ".join(argv), kind="cli", argv=argv,
                         group=gid, role=role, **extra))
    return jobs


def _closure_strata():
    """Strata of closures (seeds, depth, vertex budget)."""
    strata = [([(s, d, None) for s, d in _SINGLE], 3)]
    strata += [([(s, d, None)], 1) for s, d in _MULTI]
    strata += [([(s, d, None) for s, d in _CONSECUTIVE], 13),
               ([(s, d, _TRUNCATE_AT) for s, d in _TRUNCATED], 5)]
    return strata


# --- census: explicit-integer arithmetic, triple enumeration, rule counts --

_BATCHES = 64
_ENUM_BOUNDS = (10 ** 8, 2 * 10 ** 8, 3 * 10 ** 8)
_CLI_ENUM_BOUNDS = (10 ** 6, 10 ** 7, 10 ** 8, 10 ** 9)
_RULES = [
    ("n % 2", 2), ("ilog2(n) % 3", 3), ("(n / 7) % 2", 2),
    ("if(n % 3 == 0, 1, 0)", 2), ("ilog2(ilog2(n)) % 2", 2),
    ("(n * n + 1) % 3", 3), ("n % 5", 5), ("ipow(n % 4, 2) % 3", 3),
]
_RULE_BOUNDS = ("1000000,100000000", "100000000,1000000000", "10000000000",
                "10000,1000000,10000000000")


def tower_batch(batch: int):
    """Inputs of one tower batch, shaped like acceptance criterion 7."""
    rng = random.Random(f"tower-batch-{batch}")
    norm = [rng.randrange(2, 10 ** 18) for _ in range(100)]
    # perfect powers, so that normalize's root extraction succeeds too
    norm += [rng.randrange(2, 10 ** 4) ** rng.randrange(2, 5) for _ in range(30)]
    pows = []
    while len(pows) < 50:
        a, b = rng.randrange(2, 10 ** 6), rng.randrange(2, 60)
        if a ** b <= 10 ** 18:
            pows.append((a, b))
    cmps = [(rng.randrange(2, 10 ** 18), rng.randrange(2, 10 ** 18)) for _ in range(100)]
    return norm, pows, cmps


def _census_strata():
    batches = [dict(key=f"lib tower-batch {b}", kind="lib", lib=["tower_batch", b],
                    role="tower") for b in range(_BATCHES)]
    strata = [(batches, 72)]
    for n in _ENUM_BOUNDS:
        strata.append(([dict(key=f"lib enumerate_triples {n}", kind="lib",
                             lib=["enumerate_triples", n], role="enum", n=n)], 1))
    for n, fmt in itertools.product(_CLI_ENUM_BOUNDS, ("json", "csv")):
        argv = ["--format", fmt, "triples", "enum", "--max", str(n)]
        strata.append(([dict(key="cli " + " ".join(argv), kind="cli", argv=argv,
                             role="cli-enum", n=n, fmt=fmt)], 1))
    # the seed draws the output format, except for the mid-sized counts that
    # hold the 90th percentile, where json and csv differ too much in cost
    counts = [(rule, k, _RULE_BOUNDS[0], ("json", "csv")) for rule, k in _RULES]
    counts += [(rule, k, _RULE_BOUNDS[1], (("json", "csv")[i % 2],))
               for i, (rule, k) in enumerate(_RULES)]
    counts += [(*_RULES[0], _RULE_BOUNDS[2], ("json", "csv")),
               (*_RULES[1], _RULE_BOUNDS[3], ("json", "csv"))]
    for rule, k, bounds, formats in counts:
        slot = []
        for fmt in formats:
            argv = ["--format", fmt, "color", "rule-count", "--rule", rule,
                    "--k", str(k), "--max", bounds]
            slot.append(dict(key="cli " + " ".join(argv), kind="cli", argv=argv,
                             role="rule-count", bounds=[int(b) for b in bounds.split(",")],
                             fmt=fmt, k=k))
        strata.append((slot, 1))
    return strata


# --- search: budgeted k=3 solving, seed/IP* probes, greedy constructions ---

K3_SIZES = range(40, 47)

_SPECS = ["residue:2:1", "residue:3:1", "residue:3:0", "rule:n % 3",
          "rule:(n / 2) % 2", "complement:residue:5:0", "rule:ilog2(n) % 2"]


def _search_strata():
    def cli(argv, role="plain", **extra):
        return dict(key="cli " + " ".join(argv), kind="cli", argv=argv, role=role, **extra)

    solves = [cli(["color", "solve", "--k", "3", "--hypergraph", "{work}/k3_%d.json" % n],
                  role="k3", n=n) for n in K3_SIZES]
    probes = []
    for spec in _SPECS:
        for kind, m, hi in (("additive", 3, 120), ("additive", 4, 160),
                            ("multiplicative", 2, 400), ("multiplicative", 3, 2000)):
            probes.append(cli(["ip", "ip-star", "--kind", kind, "--m", str(m),
                               "--lo", "1", "--hi", str(hi), "--spec", spec]))
        for kind, m, hi in (("additive", 4, 90), ("multiplicative", 3, 3000)):
            probes.append(cli(["--search-budget", "20000", "ip", "find-seed", "--kind", kind,
                               "--m", str(m), "--lo", "1", "--hi", str(hi), "--spec", spec]))
    progressions = []
    for spec in _SPECS:
        progressions.append(cli(["ip", "gp", "--length", "4", "--lo", "1", "--hi", "3000",
                                 "--spec", spec]))
        progressions.append(cli(["ip", "powerprog", "--length", "3", "--lo", "2",
                                 "--hi", "40000", "--spec", spec]))
    greedy = []
    for spec in _SPECS:
        for cmd in ("fe1", "fe2"):
            greedy.append(cli(["greedy", cmd, "--spec", spec, "--depth", "2",
                               "--lo", "2", "--hi", "400"]))
        greedy.append(cli(["greedy", "verify", "--spec", spec, "--x", "3,5,7",
                           "--y", "3,5,7", "--depth", "2"]))
    fegen = []
    carriers = {"fegen1": ",".join(str(i) for i in range(1, 17)),
                "fegen2": ",".join(str(i) for i in range(3, 19, 2))}
    for spec in _SPECS:
        for cmd, f in (("fegen1", "constant:3"), ("fegen1", "max-fe1"),
                       ("fegen2", "constant:2"), ("fegen2", "constant:3")):
            fegen.append(cli(["greedy", cmd, "--spec", spec, "--y", carriers[cmd],
                              "--f", f, "--steps", "3", "--budget", "3000"]))
    # Every job runs in every list (the k=3 solves twice); the seed sets the
    # order.  Most jobs here are small and of unequal cost, so drawing among
    # them would move the median job from seed to seed.
    return [([job], 2) for job in solves] + [([job], 1) for job in probes + progressions
                                              + greedy + fegen]


# --- job lists ---------------------------------------------------------------
#
# A stratum is (slot, times): the list draws `times` members of the slot, with
# replacement.  Members of one slot cost about the same, so lists from
# different seeds cost about the same too.


def _strata(workload):
    return {"closure": _closure_strata, "census": _census_strata,
            "search": _search_strata}[workload]()


def job_list(workload: str, seed: int) -> list[dict]:
    """The seeded job list: draws from every stratum, then shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    items = [rng.choice(slot) for slot, times in _strata(workload) for _ in range(times)]
    if workload == "closure":  # items are closures; each becomes a job group
        items = [_closure_group(*graph, rng.choice((2, 3)), rng.randrange(2))
                 for graph in items]
    rng.shuffle(items)
    return [job for group in items for job in group] if workload == "closure" else items


def pool(workload: str) -> list[dict]:
    """Every job the workload can draw, each key once."""
    if workload == "closure":
        jobs = []
        for slot, _ in _strata(workload):
            for graph in slot:
                jobs += _closure_group(*graph, 2, 0)
                jobs += [j for j in _closure_group(*graph, 3, 1) if j["role"] in ("export", "check")]
    else:
        jobs = [job for slot, _ in _strata(workload) for job in slot]
    seen = {}
    for job in jobs:
        seen.setdefault(job["key"], job)
    return list(seen.values())


def list_digest(jobs: list[dict]) -> str:
    return hashlib.sha256(json.dumps([j["key"] for j in jobs]).encode()).hexdigest()
