"""coupledwave benchmark: CLI jobs as fresh processes, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the program is taken from ``src`` next to this
directory.  The seed makes the inputs (``workloads.py``), written before any
timing starts.  One untimed cut-down job warms the caches; then jobs run
one at a time, each a fresh ``job.py`` process, until ``--seconds`` have
passed (at least MIN_JOBS jobs, or MIN_TRACE_PAIRS pairs when traced).

``--trace 0`` prints the end-to-end metrics (medians over the jobs of the
run).  ``--trace 1`` alternates untraced and traced jobs and prints the
per-layer metrics of the traced ones, the tracing overhead and the time no
layer accounts for.  Every job's outputs are checked; the last line of
stdout is the JSON result.  Exit code 2 means the benchmark could not run
at all (for instance, no program to run), and then no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

MIN_JOBS = 3
# traced runs alternate untraced and traced jobs; two pairs keep a fine-mesh
# traced run near --seconds
MIN_TRACE_PAIRS = 2
JOB_TIMEOUT_S = 120
# the highest percentile with at least ten level samples beyond it on every workload
LEVEL_PERCENTILE = 90
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# printed in the table but left out of the result line: fail_rate is 0 when
# all is well, and the pooled level median flips between the two speeds of
# the shared host (its spread over ten seeds exceeded the largest bound)
UNGATED = ("fail_rate", "level_ms_p50")
UNITS = {
    "wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "level_ms_p50": "ms",
    "level_ms_p90": "ms", "peak_rss_mb": "MB", "fail_rate": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "quick"), default="full",
                        help="quick runs the cut-down instances of the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coupledwave", "cli.py")):
        print(f"error: no coupledwave program under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.scale, workloads)
    bench.warm_up()

    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}, "
          f"{'traced' if args.trace else 'untraced'}")
    print("threads: " + thread_environment())
    jobs = bench.run_for(args.seconds, alternate_trace=bool(args.trace))
    good = [j for j in jobs if not j["problems"]]
    for j in jobs:
        if j["problems"]:
            print(f"job {j['index']} FAILED: " + "; ".join(j["problems"]))
    untraced = [j for j in good if not j["traced"]]
    traced = [j for j in good if j["traced"]]
    if not untraced or (args.trace and not traced):
        print("error: no job of a kind the metrics need succeeded", file=sys.stderr)
        return 2

    e2e = end_to_end(untraced)
    e2e["fail_rate"] = (len(jobs) - len(good)) / len(jobs)
    print(f"{len(jobs)} jobs, {len(untraced)} untraced used for end-to-end metrics")
    for name, value in e2e.items():
        print(f"  {name:<14} {value:12.6g} {UNITS[name]}")
    if args.trace:
        result = per_layer(traced, untraced)
        for name, value in result.items():
            print(f"  {name:<34} {value:14.6g}")
        reported = result
    else:
        reported = {k: v for k, v in e2e.items() if k not in UNGATED}
    units = {**UNITS, **metrics.UNITS}
    print(json.dumps({
        "correct": len(good) == len(jobs),
        "attempted": len(jobs),
        "failed": len(jobs) - len(good),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }))
    return 0


def thread_environment() -> str:
    env = ", ".join(f"{k}={os.environ.get(k, 'unset')}" for k in THREAD_ENV)
    return f"{len(os.sched_getaffinity(0))} usable cpus, {env} (inherited unchanged by every job)"


class Bench:
    """Inputs, job launching and output checks for one workload and seed."""

    def __init__(self, workload: str, seed: int, scale: str, workloads):
        self.workload = workload
        self.workloads = workloads
        self.workdir = os.path.join(WORK, f"{workload}-{seed}-{scale}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.config = workloads.write_inputs(workload, seed, self.workdir, scale)
        self.warm_config = workloads.write_inputs(
            workload, seed, os.path.join(self.workdir, "warm"), "quick")
        path = os.path.join(HERE, "reference.json")
        with open(path, encoding="utf-8") as fh:
            refs = json.load(fh)
        self.reference = refs.get(workload) if scale == "full" else None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.first_digest = None

    def warm_up(self) -> None:
        """One untimed cut-down job, so that no timed job pays for compiling bytecode."""
        self.launch(self.warm_config, traced=False, index=-1)

    def run_for(self, seconds: float, alternate_trace: bool) -> list:
        jobs = []
        start = time.monotonic()
        minimum = 2 * MIN_TRACE_PAIRS if alternate_trace else MIN_JOBS
        while len(jobs) < minimum or time.monotonic() - start < seconds:
            traced = alternate_trace and len(jobs) % 2 == 1
            job = self.launch(self.config, traced, len(jobs))
            job["problems"] = self.check(job)
            jobs.append(job)
            print(f"job {job['index']}{' traced' if traced else ''}: wall {job['wall_s']:.4f} s, "
                  f"cpu {job['cpu_s']:.4f} s" + (" FAILED" if job["problems"] else ""))
        return jobs

    def launch(self, config: str, traced: bool, index: int) -> dict:
        """Run one job process to completion; returns its timings and paths."""
        jobdir = os.path.dirname(config)
        outdir = os.path.join(jobdir, "out")
        shutil.rmtree(outdir, ignore_errors=True)
        record = os.path.join(jobdir, "record.json")
        if os.path.exists(record):
            os.remove(record)
        cmd = [sys.executable, os.path.join(HERE, "job.py"), "--trace", str(int(traced)),
               "--record", record, "--", "--config", os.path.basename(config),
               "--out-dir", "out"]
        with open(os.path.join(jobdir, "job.log"), "wb") as log:
            launch = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=jobdir, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            status, usage = _wait(proc, JOB_TIMEOUT_S)
            wall = time.monotonic() - launch
        return {
            "index": index, "traced": traced, "launch": launch, "wall_s": wall,
            "exit_code": status, "outdir": outdir, "record": record,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }

    def check(self, job: dict) -> list:
        if job["exit_code"] != 0:
            return [f"exit code {job['exit_code']}"]
        problems = self.workloads.check_outputs(self.workload, job["outdir"], self.reference)
        if problems:
            return problems
        digest = self.workloads.digest(job["outdir"], self.workload)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            return ["output bytes differ from the first job of this run"]
        try:
            with open(job["record"], encoding="utf-8") as fh:
                job["data"] = json.load(fh)
            job["timeline"] = metrics.timeline(job["data"], job["launch"])
            job["peak_rss_mb"] = job["data"]["peak_rss_kb"] / 1024.0
        except (OSError, ValueError, KeyError) as exc:
            return [f"job record unusable: {exc}"]
        return []


def _wait(proc, timeout: float):
    """Reap proc with its resource usage, killing it after ``timeout`` seconds."""

    def kill(_signum, _frame):
        proc.kill()

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def end_to_end(jobs: list) -> dict:
    """Medians over jobs; level percentiles over the levels of all jobs."""
    lines = [j["timeline"] for j in jobs]
    levels = np.concatenate([t["levels"] for t in lines])
    return {
        "wall_s": statistics.median(j["wall_s"] for j in jobs),
        "setup_s": statistics.median(t["setup_s"] for t in lines),
        "steps_per_s": statistics.median(t["steps"] / t["stepping_s"] for t in lines),
        "level_ms_p50": 1e3 * float(np.percentile(levels, 50)),
        "level_ms_p90": 1e3 * float(np.percentile(levels, LEVEL_PERCENTILE)),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
    }


def per_layer(traced: list, untraced: list) -> dict:
    """Medians over traced jobs of each layer metric, plus process and tracing totals.

    The tracing overhead is the median over pairs of a traced job's wall time
    minus that of the untraced job just before it: neighbours see the same
    phase of a shared host more often than the run's two medians do.
    """
    per_job = [metrics.layers(j["data"], j["wall_s"]) for j in traced]
    out = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
    before = {j["index"] + 1: j["wall_s"] for j in untraced}
    pairs = [j["wall_s"] - before[j["index"]] for j in traced if j["index"] in before]
    out["process.wall_s"] = statistics.median(j["wall_s"] for j in untraced)
    out["process.cpu_s"] = statistics.median(j["cpu_s"] for j in untraced)
    out["trace.wall_s"] = statistics.median(j["wall_s"] for j in traced)
    out["trace.overhead_s"] = (statistics.median(pairs) if pairs
                               else out["trace.wall_s"] - out["process.wall_s"])
    return out


if __name__ == "__main__":
    sys.exit(main())
