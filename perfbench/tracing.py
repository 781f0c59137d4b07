"""Per-layer tracing from outside the program.

`Tracer.install` wraps public functions of the exporamsey modules by
rebinding the name in every module that holds it (and, for methods, the
class attribute).  Each wrapped call pushes a frame; on return its self time
is its duration minus the time its traced children took.

Most functions record one span per call: name, start, end, parent span and
job id.  The hot per-call functions (compare, normalize, power, fe1/fe2,
SetSpec.contains, ColorRule.color and the steps of iter_int_triples) are
counted and timed in aggregate under their parent frame instead.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# (module, attribute, layer name, one span per call?)
TARGETS = [
    ("tower", "compare", "tower.compare", False),
    ("tower", "sorted_forms", "tower.sorted_forms", True),
    ("tower", "normalize", "tower.normalize", False),
    ("tower", "power", "tower.power", False),
    ("structures", "fe1", "structures.fe1", False),
    ("structures", "fe2", "structures.fe2", False),
    ("triples", "exp_closure", "triples.exp_closure", True),
    ("triples", "triples_within", "triples.triples_within", True),
    ("triples", "enumerate_triples", "triples.enumerate_triples", True),
    ("coloring", "export_dimacs", "coloring.export_dimacs", True),
    ("coloring", "check_coloring", "coloring.check_coloring", True),
    ("coloring", "count_mono_triples", "coloring.count_mono_triples", True),
    ("ipsets", "find_fs_seed", "ipsets.seed_search", True),
    ("ipsets", "find_fp_seed", "ipsets.seed_search", True),
    ("ipsets", "is_ip_star_window", "ipsets.is_ip_star_window", True),
    ("greedy", "greedy_fe1", "greedy.greedy_fe", True),
    ("greedy", "greedy_fe2", "greedy.greedy_fe", True),
    ("greedy", "search_fegen1", "greedy.search_fegen", True),
    ("greedy", "search_fegen2", "greedy.search_fegen", True),
    ("greedy", "verify_fecor", "greedy.verify", True),
]
# (module, class, method, layer name); always aggregated
METHOD_TARGETS = [
    ("ipsets", "SetSpec", "contains", "ipsets.contains"),
    ("rules", "ColorRule", "color", "rules.color"),
]

# The per-layer metrics, in BENCHMARK.json order: name -> unit.
LAYER_METRICS = {
    "tower.compare.calls": "count",
    "tower.compare.self_s": "s",
    "tower.sorted_forms.self_s": "s",
    "tower.normalize.calls": "count",
    "tower.normalize.self_s": "s",
    "tower.power.calls": "count",
    "structures.fe1.self_s": "s",
    "structures.fe2.self_s": "s",
    "triples.exp_closure.self_s": "s",
    "triples.triples_within.self_s": "s",
    "triples.triples_within.hit_ratio": "ratio",
    "triples.enumerate_triples.self_s": "s",
    "triples.iter_int_triples.self_s": "s",
    "coloring.solve_k2.self_s": "s",
    "coloring.solve_k3.self_s": "s",
    "coloring.export_dimacs.self_s": "s",
    "coloring.check_coloring.self_s": "s",
    "coloring.count_mono_triples.self_s": "s",
    "rules.color.calls": "count",
    "rules.color.self_s": "s",
    "ipsets.contains.calls": "count",
    "ipsets.contains.self_s": "s",
    "ipsets.seed_search.self_s": "s",
    "ipsets.seed_search.examined": "count",
    "ipsets.is_ip_star_window.self_s": "s",
    "greedy.greedy_fe.self_s": "s",
    "greedy.search_fegen.self_s": "s",
    "greedy.search_fegen.explored": "count",
    "greedy.verify.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _evaluable(root: int, exp: int, cap: int) -> bool:
    bl = root.bit_length()
    if exp * bl <= cap:
        return True
    if exp * (bl - 1) + 1 > cap:
        return False
    return (root ** exp).bit_length() <= cap


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []  # frames: [span id, child seconds]
        self.spans = []  # (id, name, start, end, parent id, job id)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()
        self.job_id = None
        self._next_id = 0

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, record_span, post=None):
        clock, stack = self.clock, self.stack
        self_s, calls = self.self_s, self.calls

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self_s[name] += t1 - t0 - frame[1]
                calls[name] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += t1 - t0
                if record_span:
                    self.spans.append((span_id, name, t0, t1, parent and parent[0],
                                       self.job_id))
            if post is not None:
                t2 = clock()
                post(result, args, kwargs)
                if parent is not None:
                    parent[1] += clock() - t2  # the post hook is nobody's self time
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_generator(self, name, fn):
        """Charge only the time spent inside the generator's steps."""
        clock, stack, self_s = self.clock, self.stack, self.self_s

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            self.calls[name] += 1
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    dt = clock() - t0
                    self_s[name] += dt
                    if stack:
                        stack[-1][1] += dt
                    return
                dt = clock() - t0
                self_s[name] += dt
                if stack:
                    stack[-1][1] += dt
                yield item

        return wrapper

    def _solve(self, fn):
        by_k = {}

        def wrapper(h, k, *args, **kwargs):
            inner = by_k.get(k)
            if inner is None:
                inner = by_k[k] = self._timed(f"coloring.solve_k{k}", fn, True)
            return inner(h, k, *args, **kwargs)

        return wrapper

    def _post_hook(self, name):
        if name == "ipsets.seed_search":
            return lambda res, a, kw: self.count("ipsets.seed_search.examined", res.examined)
        if name == "greedy.search_fegen":
            return lambda res, a, kw: self.count("greedy.search_fegen.explored", res.explored)
        if name == "triples.triples_within":
            return self._hit_ratio
        return None

    def _hit_ratio(self, result, args, kwargs):
        verts = set(args[0])
        caps = args[1] if len(args) > 1 else kwargs.get("caps")
        cap = caps.value_bit_cap if caps is not None else 4096
        evaluable = sum(_evaluable(v.root, v.exponent, cap) for v in verts)
        self.count("triples_within.edges", len(result))
        self.count("triples_within.attempts", len(verts) * evaluable)

    def count(self, name, n=1):
        self.counters[name] += n

    def wrap_cli(self, main):
        return self._timed("cli.main", main, True)

    # -- installation ------------------------------------------------------

    def install(self, ex):
        modules = [ex] + [getattr(ex, m) for m in
                          ("tower", "structures", "triples", "coloring", "rules",
                           "ipsets", "greedy", "cli")]

        def rebind(original, wrapper):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

        for mod_name, attr, name, record_span in TARGETS:
            original = getattr(getattr(ex, mod_name), attr)
            rebind(original, self._timed(name, original, record_span, self._post_hook(name)))
        original = ex.triples.iter_int_triples
        rebind(original, self._timed_generator("triples.iter_int_triples", original))
        original = ex.coloring.solve_colorability
        rebind(original, self._solve(original))
        for mod_name, cls_name, method, name in METHOD_TARGETS:
            cls = getattr(getattr(ex, mod_name), cls_name)
            setattr(cls, method, self._timed(name, getattr(cls, method), False))

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self time, call counts and counters of this pass."""
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counters": dict(self.counters)}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)


def layer_metrics(summary: dict, traced_wall: float, overhead: float) -> dict:
    """The per-layer metric values of one traced pass.

    traced_wall is the pass's measured job time; overhead is how much longer
    the traced pass took than the untraced ones, in reference seconds.
    """
    self_s, calls, counters = summary["self_s"], summary["calls"], summary["counters"]
    attempts = counters.get("triples_within.attempts", 0)
    values = {}
    for metric in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if field == "self_s":
            values[metric] = self_s.get(layer, 0.0)
        elif field == "calls":
            values[metric] = calls.get(layer, 0)
        else:
            values[metric] = counters.get(metric, 0)
    values["triples.triples_within.hit_ratio"] = (
        counters.get("triples_within.edges", 0) / attempts if attempts else 0.0)
    values["trace.overhead_s"] = overhead
    values["trace.unattributed_s"] = traced_wall - sum(self_s.values())
    return values
