"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Runs the cut-down instance of every workload in BENCHMARK.json, untraced and
traced, and asserts that each run prints every metric BENCHMARK.json names,
with its unit, and no failed job.  Then it corrupts the outputs of those
runs in several ways and asserts that the output checks catch each one.
Takes about a minute; exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
SEED = 7


def run_quick(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace), "--scale", "quick"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode == 0, f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}"
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(result: dict, wanted: list, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {result}"
    assert result["attempted"] >= run.MIN_JOBS, label
    names = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    assert set(got) == set(names), f"{label}: metrics {sorted(set(got) ^ set(names))} mismatch"
    for name, unit in names.items():
        assert got[name]["unit"] == unit, f"{label}: {name} unit {got[name]['unit']} != {unit}"
        assert isinstance(got[name]["value"], (int, float)), f"{label}: {name} not a number"


def corruptions(workload: str) -> dict:
    """name -> function(outdir) that damages a copy of good outputs."""

    def edit_json(key, value):
        def apply(outdir):
            path = os.path.join(outdir, "summary.json")
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            data[key] = value
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        return apply

    def remove(name):
        return lambda outdir: os.remove(os.path.join(outdir, name))

    def truncate(name):
        def apply(outdir):
            with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
                fh.write("not,a\nvalid")
        return apply

    if workload == "mms-ladder":
        def flatten(outdir):
            path = os.path.join(outdir, "convergence.csv")
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            cols = lines[-1].split(",")
            cols[3] = lines[-2].split(",")[3]  # last level no better than the one before
            lines[-1] = ",".join(cols)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        return {"missing table": remove("convergence.csv"),
                "unparsable table": truncate("convergence.csv"),
                "error ratio below 1.7": flatten}
    return {
        "missing energy.csv": remove("energy.csv"),
        "unparsable summary": truncate("summary.json"),
        "identity residual over budget": edit_json("max_identity_residual", 1e-3),
        "not monotone": edit_json("monotone", False),
        "no decay fit": edit_json("fitted_gamma", None),
    }


def check_injections(workload: str, workloads) -> None:
    good = os.path.join(run.WORK, f"{workload}-{SEED}-quick", "out")
    assert workloads.check_outputs(workload, good, None) == [], f"{workload}: good outputs rejected"
    scratch = os.path.join(run.WORK, "selftest", workload)
    for name, damage in corruptions(workload).items():
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(good, scratch)
        damage(scratch)
        problems = workloads.check_outputs(workload, scratch, None)
        assert problems, f"{workload}: injected '{name}' not caught"
        print(f"  {workload}: injected {name!r} caught: {problems[0]}")

    # values that drift from the reference beyond its tolerance
    outputs = workloads.read_outputs(workload, good)
    reference = workloads.reference_values(workload, outputs)
    assert workloads.check_outputs(workload, good, reference) == []
    key = next(iter(reference))
    drifted = dict(reference)
    value = drifted[key]
    drifted[key] = ([value[0] * (1 + 1e-5)] + value[1:]) if isinstance(value, list) else value * (1 + 1e-5)
    assert workloads.check_outputs(workload, good, drifted), f"{workload}: drift not caught"
    print(f"  {workload}: injected drift in {key!r} caught")

    # byte-identical reruns and exit codes, through the same check the runs use
    bench = run.Bench(workload, SEED, "quick", workloads)
    job = bench.launch(bench.config, traced=False, index=0)
    assert bench.check(job) == [], f"{workload}: clean job rejected"
    path = os.path.join(job["outdir"], workloads.output_files(workload)[0])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert bench.check(job), f"{workload}: changed output bytes not caught"
    assert bench.check(dict(job, exit_code=2)), f"{workload}: nonzero exit not caught"
    print(f"  {workload}: changed bytes and nonzero exit caught")


def main() -> int:
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, run.SRC)
    import workloads

    for w in spec["workloads"]:
        name = w["name"]
        check_result(run_quick(name, 0), spec["end_to_end"], f"{name} untraced")
        print(f"{name}: untraced run prints all {len(spec['end_to_end'])} end-to-end metrics")
        check_result(run_quick(name, 1), spec["per_layer"], f"{name} traced")
        print(f"{name}: traced run prints all {len(spec['per_layer'])} per-layer metrics")
        check_injections(name, workloads)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
