"""One pass of a workload in a fresh process: set up, run every job, report.

    python3 perfbench/worker.py --workload W --seed S --work DIR --result FILE
        [--jobs N] [--trace] [--keep-outputs] [--setup-only] [--pool] [--deadline T]

Set-up is timed from before `import exporamsey` to the end of building the
pass's inputs.  Jobs then run one at a time (a closed loop with one client).
Each job is timed on its own; digesting its output and writing files for
the checks happen outside that time.  A job is stopped by SIGALRM when it
exceeds its time limit or the pass deadline.  The result file holds one
record per job plus the pass's set-up time and peak RSS.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402

JOB_LIMIT_S = 30.0
PROBE_EVERY_S = 0.25

_VERTEX = re.compile(r'"root": "(\d+)",\s*"exp": "(\d+)",\s*"value": (?:null|"(\d+)")')


class JobTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so no handler swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def import_program():
    """Import exporamsey from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import exporamsey
    if not os.path.abspath(exporamsey.__file__).startswith(src + os.sep):
        raise ImportError(f"exporamsey imported from {exporamsey.__file__}, not {src}")
    import exporamsey.cli
    return exporamsey


def coloring_labels(closure_output: str) -> list[str]:
    """Vertex labels of a closure record, read with a regex, not a JSON parse."""
    return [v or f"{r}^{e}" for r, e, v in _VERTEX.findall(closure_output)]


def seeded_coloring(labels, variant: int) -> dict:
    colors = {lab: hashlib.sha256(f"{variant}:{lab}".encode()).digest()[0] % 2 for lab in labels}
    return {"k": 2, "colors": colors}


# --- library jobs: (timed call, untimed canonical text) ---------------------


def _tower_batch(ex, batch):
    norm, pows, cmps = workloads.tower_batch(batch)
    tower = ex.tower

    def call():
        forms = [tower.normalize(n) for n in norm]
        values = [tower.evaluate(f) for f in forms]
        powered = [tower.evaluate(tower.power(tower.normalize(a), tower.normalize(b)))
                   for a, b in pows]
        signs = [tower.compare(tower.normalize(x), tower.normalize(y)) for x, y in cmps]
        return forms, values, powered, signs

    def canon(res):
        forms, values, powered, signs = res
        lines = [f"n {f.root} {f.exponent} {v}" for f, v in zip(forms, values)]
        lines += [f"p {v}" for v in powered]
        lines += [f"c {s}" for s in signs]
        return "\n".join(lines) + "\n"

    return call, canon


def _enumerate_triples(ex, n):
    def call():
        return ex.triples.enumerate_triples(n)

    def canon(res):
        return "".join(f"{t.a.root} {t.a.exponent} {t.b.root} {t.b.exponent} "
                       f"{t.c.root} {t.c.exponent}\n" for t in res)

    return call, canon


LIB_JOBS = {"tower_batch": _tower_batch, "enumerate_triples": _enumerate_triples}


# --- set-up --------------------------------------------------------------------


def build_inputs(ex, jobs, work):
    """Pre-made inputs: k=3 hypergraph records cut from exp_closure({2}, 4)."""
    sizes = sorted({j["n"] for j in jobs if j.get("role") == "k3"})
    if sizes:
        full = ex.triples.exp_closure([2], 4)
        for n in sizes:
            sub = ex.triples.sub_hypergraph(full, range(n))
            with open(os.path.join(work, "k3_%d.json" % n), "w", encoding="utf-8") as fh:
                json.dump(ex.triples.hypergraph_record(sub), fh)


# --- the pass ------------------------------------------------------------------


def run_job(ex, job, work, main):
    """Run one job; returns (seconds, exit code, output text, error text)."""
    if job["kind"] == "cli":
        argv = [a.replace("{work}", work) for a in job["argv"]]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()
    name, *args = job["lib"]
    call, canon = LIB_JOBS[name](ex, *args)
    t0 = time.perf_counter()
    res = call()
    dt = time.perf_counter() - t0
    return dt, 0, canon(res), ""


def run_pass(opts):
    setup_probe = sorted(speed.probe() for _ in range(3))[1]
    t_setup = time.perf_counter()
    ex = import_program()
    jobs = (workloads.pool(opts.workload) if opts.pool
            else workloads.job_list(opts.workload, opts.seed))
    if opts.jobs:
        jobs = jobs[: opts.jobs]
    work = os.path.abspath(opts.work)
    os.makedirs(work, exist_ok=True)
    build_inputs(ex, jobs, work)
    setup_s = time.perf_counter() - t_setup
    result = {"setup_s": setup_s, "setup_probe_s": setup_probe,
              "list_digest": workloads.list_digest(jobs), "jobs": [], "probes": []}
    if opts.setup_only:
        return result

    tracer = None
    main = ex.cli.main
    if opts.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(ex)
        main = tracer.wrap_cli(main)

    signal.signal(signal.SIGALRM, _on_alarm)
    closure_out = {}
    last_probe = float("-inf")
    for i, job in enumerate(jobs):
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            last_probe = time.perf_counter()
            result["probes"].append((last_probe, speed.probe()))
        rec = {"key": job["key"], "t": time.perf_counter()}
        remaining = opts.deadline - time.time()
        if remaining <= 0:
            rec.update(error="pass deadline reached before the job started")
            result["jobs"].append(rec)
            continue
        if job.get("role") == "check":
            labels = coloring_labels(closure_out.get(job["group"], ""))
            with open(job["coloring"].replace("{work}", work), "w", encoding="utf-8") as fh:
                json.dump(seeded_coloring(labels, job["variant"]), fh)
        if tracer:
            tracer.job_id = i
        signal.setitimer(signal.ITIMER_REAL, min(JOB_LIMIT_S, remaining))
        try:
            dt, rc, out, err = run_job(ex, job, work, main)
        except JobTimeout:
            rec.update(error="time limit exceeded")
            result["jobs"].append(rec)
            continue
        except Exception as exc:  # a job's crash is a failed job, not a failed pass
            rec.update(error=f"{type(exc).__name__}: {exc}")
            result["jobs"].append(rec)
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if job.get("role") == "closure":
            closure_out = {job["group"]: out}
        rec.update(s=dt, rc=rc, sha256=hashlib.sha256(out.encode()).hexdigest(),
                   bytes=len(out), stderr=err[-500:])
        if tracer:
            tracer.count("cli.output_bytes", len(out) if job["kind"] == "cli" else 0)
        if opts.keep_outputs:
            with open(os.path.join(work, "out_%d.txt" % i), "w", encoding="utf-8") as fh:
                fh.write(out)
        del out
        result["jobs"].append(rec)
    result["probes"].append((time.perf_counter(), speed.probe()))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        result["trace"] = tracer.summary()
        tracer.write_spans(os.path.join(work, "spans.json"))
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--jobs", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--keep-outputs", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--pool", action="store_true", help="run every pool job once")
    p.add_argument("--deadline", type=float, default=float("inf"))
    opts = p.parse_args(argv)
    result = run_pass(opts)
    with open(opts.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
