"""exporamsey benchmark: seeded job lists, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {closure,census,search,all} --seed N
        --seconds S --trace {0,1} [--jobs N]
    python3 perfbench/run.py --record-golden

Each pass runs the workload's whole job list in a fresh worker process
(`worker.py`), one job at a time.  Passes repeat until `--seconds` is used
up; the end-to-end metrics are medians over passes (per-job percentiles
pool every job of every pass).  Every job's output digest and exit code
must match `golden.json`, recorded from the seed commit, and the first
pass's outputs also go through the independent checks in `checks.py`.

With `--trace 1` the run alternates untraced and traced passes and reports
the per-layer metrics of `tracing.LAYER_METRICS` instead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN = os.path.join(HERE, "golden.json")
WORK = os.path.join(HERE, ".work")
SETUP_SAMPLES = 5
PROBE_WINDOW_S = 1.0
# A pass that overruns this is stopped; the run must end within 180 s.
RUN_DEADLINE_S = 150.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms",
             "job_p90_ms": "ms", "peak_rss_mb": "MB"}


class HarnessError(Exception):
    """The benchmark itself cannot run (no program, worker crash)."""


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    def __init__(self, workload, seed, jobs=0, use_pool=False, deadline_s=RUN_DEADLINE_S):
        self.workload, self.seed = workload, seed
        self.jobs = workloads.pool(workload) if use_pool else workloads.job_list(workload, seed)
        if jobs:
            self.jobs = self.jobs[:jobs]
        self.job_count, self.use_pool, self.deadline_s = jobs, use_pool, deadline_s
        self.work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
        self.start = time.monotonic()
        self.attempted = self.failed = 0
        self.errors = []

    def worker(self, *flags):
        """One worker process; returns its result record."""
        os.makedirs(self.work, exist_ok=True)
        result_file = os.path.join(self.work, "result.json")
        deadline = time.time() + self.deadline_s - (time.monotonic() - self.start)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--work", self.work, "--result", result_file,
               "--jobs", str(self.job_count), "--deadline", repr(deadline), *flags]
        if self.use_pool:
            cmd.append("--pool")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.time() + 10))
        except subprocess.TimeoutExpired as exc:
            raise HarnessError("worker overran the run deadline") from exc
        if proc.returncode != 0:
            raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        with open(result_file, encoding="utf-8") as fh:
            return json.load(fh)

    def judge(self, result, golden, independent):
        """Count failures of one pass; run the independent checks if asked."""
        ctx = {"work": self.work}
        for i, (job, rec) in enumerate(zip(self.jobs, result["jobs"])):
            self.attempted += 1
            error = rec.get("error")
            want = golden.get(job["key"])
            if error is None and want is None:
                error = "no golden digest for this job"
            elif error is None and (rec["sha256"], rec["rc"]) != (want["sha256"], want["rc"]):
                error = f"output digest or exit code {rec['rc']} differs from the golden record"
            if error is None and independent:
                path = os.path.join(self.work, "out_%d.txt" % i)
                with open(path, encoding="utf-8") as fh:
                    error = checks.check_job(job, fh.read(), ctx)
                os.remove(path)
            if error is not None:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(f"{job['key']}: {error}")

    def time_left(self, seconds, last_pass_s):
        return time.monotonic() - self.start + last_pass_s <= seconds

    def setup_samples(self, passes):
        """Pass results plus set-up-only runs, SETUP_SAMPLES of them at least."""
        samples = list(passes)
        while len(samples) < SETUP_SAMPLES:
            samples.append(self.worker("--setup-only"))
        return samples


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def reference_times(result):
    """Each job's time in reference seconds (None for a failed job).

    The scale is the mean of the speed probes taken within PROBE_WINDOW_S of
    the job's middle (at least the two nearest), see speed.py.
    """
    probes = result["probes"]
    times = []
    for rec in result["jobs"]:
        if "s" not in rec:
            times.append(None)
            continue
        mid = rec["t"] + rec["s"] / 2
        near = [d for t, d in probes if abs(t - mid) <= PROBE_WINDOW_S]
        if len(near) < 2:
            near = [d for _, d in sorted(probes, key=lambda td: abs(td[0] - mid))[:2]]
        times.append(rec["s"] * speed.REFERENCE_S / statistics.mean(near))
    return times


def list_wall(passes):
    """Each job's median over the passes, summed.

    One slow pass or a burst of contention moves this less than it moves the
    total of a single pass.
    """
    per_job = zip(*(reference_times(p) for p in passes))
    return sum(statistics.median(t for t in times if t is not None)
               for times in per_job if any(t is not None for t in times))


def measure(workload, seed, seconds, trace, jobs):
    """Run one workload; returns (result line, summary lines)."""
    golden = load_golden()[workload]
    run = Run(workload, seed, jobs)
    run.worker("--setup-only")  # warm-up: byte-compiles and proves the program imports
    run.start = time.monotonic()
    untraced, traced = [], []
    while True:
        first = not untraced
        t0 = time.monotonic()
        result = run.worker(*(["--keep-outputs"] if first else []))
        run.judge(result, golden, independent=first)
        untraced.append(result)
        if trace:
            result = run.worker("--trace")
            run.judge(result, golden, independent=False)
            traced.append(result)
        if not run.time_left(seconds, time.monotonic() - t0):
            break
    raw_walls = [sum(rec.get("s", 0.0) for rec in p["jobs"]) for p in untraced]
    lines = [f"workload {workload} seed {seed}: {len(run.jobs)} jobs, job list sha256 "
             f"{workloads.list_digest(run.jobs)}",
             f"passes {len(untraced)} untraced, {len(traced)} traced; attempted "
             f"{run.attempted}, failed {run.failed} "
             f"(failed_frac {run.failed / max(1, run.attempted):.4f})"]
    lines += [f"  FAILED {e}" for e in run.errors]
    lines.append("  measured pass walls (s): " + " ".join(f"{w:.3f}" for w in raw_walls))
    if trace:
        untraced_wall = list_wall(untraced)
        per_pass = [tracing.layer_metrics(p["trace"], sum(rec.get("s", 0.0) for rec in p["jobs"]),
                                          list_wall([p]) - untraced_wall)
                    for p in traced]
        metrics = {name: {"value": statistics.median(v[name] for v in per_pass), "unit": unit}
                   for name, unit in tracing.LAYER_METRICS.items()}
        total = sum(v["value"] for k, v in metrics.items()
                    if k.endswith(".self_s") and not k.startswith("trace."))
        for name, m in metrics.items():
            share = f" ({m['value'] / total:6.1%} of self time)" if (
                name.endswith(".self_s") and not name.startswith("trace.") and total) else ""
            lines.append(f"  {name:38s} {m['value']:14.6g} {m['unit']}{share}")
    else:
        job_ms = [t * 1000 for p in untraced for t in reference_times(p) if t is not None]
        setups = [(p["setup_s"], p["setup_probe_s"]) for p in run.setup_samples(untraced)]
        values = {"setup_s": statistics.median(s * speed.REFERENCE_S / d for s, d in setups),
                  "wall_s": list_wall(untraced),
                  "job_p50_ms": statistics.median(job_ms) if job_ms else 0.0,
                  "job_p90_ms": percentile(job_ms, 0.9) if job_ms else 0.0,
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        lines.append(f"  job samples {len(job_ms)}; times in reference seconds (speed.py)")
        lines += [f"  {name:12s} {m['value']:12.6g} {m['unit']}" for name, m in metrics.items()]
    if traced:
        shutil.move(os.path.join(run.work, "spans.json"),
                    os.path.join(WORK, f"spans-{workload}-{seed}.json"))
    shutil.rmtree(run.work, ignore_errors=True)
    line = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}
    return line, lines


def record_golden():
    """Run every pool job once, check every output, and write golden.json."""
    golden = {}
    for workload in workloads.WORKLOADS:
        run = Run(workload, 0, use_pool=True, deadline_s=3600.0)
        result = run.worker("--keep-outputs")
        entries = {}
        errors = []
        ctx = {"work": run.work}
        for i, (job, rec) in enumerate(zip(run.jobs, result["jobs"])):
            error = rec.get("error")
            if error is None:
                with open(os.path.join(run.work, "out_%d.txt" % i), encoding="utf-8") as fh:
                    error = checks.check_job(job, fh.read(), ctx)
            if error is not None:
                errors.append(f"{job['key']}: rc {rec.get('rc')} {rec.get('stderr')} {error}")
            entries[job["key"]] = {"sha256": rec.get("sha256"), "rc": rec.get("rc"),
                                   "ms": round(rec.get("s", 0) * 1000, 1)}
        if errors:
            raise HarnessError("\n".join(errors))
        golden[workload] = entries
        shutil.rmtree(run.work, ignore_errors=True)
        print(f"{workload}: {len(entries)} pool jobs, {sum(e['ms'] for e in entries.values()) / 1000:.1f} s",
              flush=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, default=0, help="run only the first N jobs (smoke tests)")
    p.add_argument("--record-golden", action="store_true")
    opts = p.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "exporamsey")):
        print(f"error: no program source at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if opts.record_golden:
            record_golden()
            return 0
        if opts.workload is None:
            p.error("--workload is required")
        names = workloads.WORKLOADS if opts.workload == "all" else (opts.workload,)
        for name in names:
            line, lines = measure(name, opts.seed, opts.seconds, opts.trace, opts.jobs)
            print("\n".join(lines), flush=True)
            print(json.dumps(line), flush=True)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
