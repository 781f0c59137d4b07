"""Independent output checks.  Imports nothing from exporamsey.

Each check takes a job, its output text and a context of data it may need
(the group's parsed closure record, the pass's work directory) and returns
an error string, or None when the output passes.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import os

import workloads


@functools.lru_cache(maxsize=None)
def triple_count(n: int) -> int:
    """Number of (a, b) with a, b >= 2 and a**b <= n, by a plain double loop."""
    count, a = 0, 2
    while a * a <= n:
        v = a * a
        while v <= n:
            count += 1
            v *= a
        a += 1
    return count


def _log2_key(root: int, exp: int) -> float:
    """log2(log2(root**exp)), which orders huge powers without building them."""
    return math.log2(exp) + math.log2(math.log2(root))


def check_closure(rec) -> str | None:
    verts = [(int(v["root"]), int(v["exp"]), None if v["value"] is None else int(v["value"]))
             for v in rec["vertices"]]
    for r, e, v in verts:
        if v is not None and v != r ** e:
            return f"vertex value {v} != {r}^{e}"
    for (r1, e1, v1), (r2, e2, v2) in zip(verts, verts[1:]):
        if v1 is not None and v2 is not None:
            ascending = v1 < v2
        elif r1 == r2:
            ascending = e1 < e2
        else:
            k1, k2 = _log2_key(r1, e1), _log2_key(r2, e2)
            if abs(k1 - k2) < 1e-9 * max(k1, k2):
                return f"cannot order {r1}^{e1} and {r2}^{e2} independently"
            ascending = k1 < k2
        if not ascending:
            return f"vertices not strictly ascending at {r1}^{e1}, {r2}^{e2}"
    for a, b, c in rec["edges"]:
        (ra, ea, _), (_, _, vb), (rc, ec, _) = verts[a], verts[b], verts[c]
        if vb is None or ra != rc or ec != ea * vb:
            return f"edge {(a, b, c)} is not an exponential triple"
    return None


def _labels(rec) -> list[str]:
    return [v["value"] if v["value"] is not None else f"{v['root']}^{v['exp']}"
            for v in rec["vertices"]]


def _mono_edges(edges, colors) -> list[list[int]]:
    return [list(e) for e in edges if len({colors[i] for i in e}) == 1]


def check_coloring(rec, coloring: dict, k: int) -> str | None:
    labels = _labels(rec)
    if coloring.get("k") != k or set(coloring["colors"]) != set(labels):
        return "coloring does not cover the vertices with k cells"
    colors = [coloring["colors"][lab] for lab in labels]
    if any(not 0 <= c < k for c in colors):
        return "color out of range"
    if _mono_edges(rec["edges"], colors):
        return "SAT colouring leaves a monochromatic edge"
    return None


def check_cnf(rec, text: str, k: int) -> str | None:
    nv, ne = len(rec["vertices"]), len(rec["edges"])
    header = [line for line in text.splitlines() if line.startswith("p cnf ")]
    if k == 2:
        want = (nv, 2 * ne)
    else:
        want = (nv * k, nv * (1 + k * (k - 1) // 2) + ne * k)
    clauses = sum(1 for line in text.splitlines() if line and line[0] not in "cp")
    if header != [f"p cnf {want[0]} {want[1]}"] or clauses != want[1]:
        return f"CNF header {header} / {clauses} clauses, expected {want}"
    return None


def check_tower(batch: int, text: str) -> str | None:
    norm, pows, cmps = workloads.tower_batch(batch)
    lines = text.splitlines()
    if len(lines) != len(norm) + len(pows) + len(cmps):
        return "tower batch result has the wrong length"
    for n, line in zip(norm, lines):
        _, root, exp, value = line.split()
        if int(root) ** int(exp) != n or int(value) != n or int(root) < 2:
            return f"normalize({n}) gave {root}^{exp}"
    for (a, b), line in zip(pows, lines[len(norm):]):
        if int(line.split()[1]) != a ** b:
            return f"power({a}, {b}) gave {line}"
    for (x, y), line in zip(cmps, lines[len(norm) + len(pows):]):
        if int(line.split()[1]) != (x > y) - (x < y):
            return f"compare({x}, {y}) gave {line}"
    return None


def check_enum(n: int, text: str) -> str | None:
    rows = [list(map(int, line.split())) for line in text.splitlines()]
    if len(rows) != triple_count(n):
        return f"{len(rows)} triples up to {n}, double loop counts {triple_count(n)}"
    for ra, ea, rb, eb, rc, ec in rows:
        if ra != rc or ec != ea * rb ** eb or rc ** ec > n:
            return "enumerated triple is not a**b = c <= n"
    return None


def check_cli_enum(job, text: str) -> str | None:
    n = job["n"]
    if job["fmt"] == "csv":
        rows = [tuple(map(int, r)) for r in list(csv.reader(io.StringIO(text)))[1:]]
    else:
        rows = [(int(t["a"]), int(t["b"]), int(t["c"])) for t in json.loads(text)]
    if len(rows) != triple_count(n):
        return f"{len(rows)} triples up to {n}, double loop counts {triple_count(n)}"
    if any(a ** b != c or c > n for a, b, c in rows):
        return "listed triple is not a**b = c <= n"
    return None


def check_rule_count(job, text: str) -> str | None:
    k = job["k"]
    if job["fmt"] == "csv":
        cells = {}
        for n, cell, count in list(csv.reader(io.StringIO(text)))[1:]:
            cells.setdefault(int(n), {})[cell] = int(count)
        per_bound = [(n, sum(c[str(i)] for i in range(k)) + c["rainbow"]) for n, c in cells.items()]
    else:
        per_bound = []
        for c in json.loads(text)["counts"]:
            total = sum(c["per_cell"].values()) + c["rainbow"]
            if total != c["triples"]:
                return "rule-count cells plus rainbow differ from its triple count"
            per_bound.append((int(c["N"]), total))
    if [n for n, _ in per_bound] != job["bounds"]:
        return "rule-count bounds differ from the request"
    for n, total in per_bound:
        if total != triple_count(n):
            return f"rule-count cells plus rainbow {total} != {triple_count(n)} triples up to {n}"
    return None


def check_job(job, text: str, ctx: dict) -> str | None:
    """Independent check of one output; an unreadable output is an error too."""
    try:
        return _check(job, text, ctx)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _check(job, text: str, ctx: dict) -> str | None:
    """Dispatch on the job's role; ctx carries the last closure record and its group."""
    role = job.get("role")
    if role == "closure":
        rec = json.loads(text)
        ctx["group"], ctx["closure"] = job["group"], rec
        return check_closure(rec)
    if role in ("solve", "export", "check") and ctx.get("group") != job["group"]:
        return "no closure record of this group to check against"
    if role == "solve":
        out = json.loads(text)
        if out["status"] == "SAT":
            return check_coloring(ctx["closure"], out["coloring"], 2)
        return None
    if role == "export":
        return check_cnf(ctx["closure"], text, job["k"])
    if role == "check":
        rec = ctx["closure"]
        want = []
        if rec["edges"]:
            colors = [hashlib.sha256(f"{job['variant']}:{lab}".encode()).digest()[0] % 2
                      for lab in _labels(rec)]
            want = _mono_edges(rec["edges"], colors)
        out = json.loads(text)
        if out["monochromatic_edges"] != want or out["count"] != len(want):
            return "check reports other monochromatic edges than an independent recount"
        return None
    if role == "k3":
        with open(os.path.join(ctx["work"], "k3_%d.json" % job["n"]), encoding="utf-8") as fh:
            rec = json.load(fh)
        out = json.loads(text)
        return check_coloring(rec, out["coloring"], 3) if out["status"] == "SAT" else None
    if role == "tower":
        return check_tower(job["lib"][1], text)
    if role == "enum":
        return check_enum(job["n"], text)
    if role == "cli-enum":
        return check_cli_enum(job, text)
    if role == "rule-count":
        return check_rule_count(job, text)
    return None
