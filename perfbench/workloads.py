"""Workload inputs and output checks.

Each workload is one coupledwave CLI config.  ``--seed`` drives only the
vertex jitter of the ``fine-mesh`` input mesh; the other two workloads have
fixed inputs, so their outputs are also compared with values recorded at the
benchmark's baseline commit (``reference.json``).

``scale="quick"`` gives the cut-down instances the self-test runs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

from coupledwave import mesh as cw_mesh

PHYSICS = "c = 1.0\neps_u = 0.5\neps_v = 0.25\nalpha = 1.0\n"

# the reason for each workload is given in BENCHMARK.json
WORKLOADS = ("fine-mesh", "long-decay", "mms-ladder")

# relative tolerance against the baseline commit's outputs
REFERENCE_RTOL = 1e-6
# rows of energy.csv kept in reference.json
REFERENCE_ROW_STRIDE = 100
# criterion 1: identity residual budget relative to max(E0, 1)
IDENTITY_BUDGET = 1e-10
# criterion 4: smallest acceptable error ratio between consecutive MMS levels
MMS_MIN_RATIO = 1.7
JITTER = 0.15


def _sizes(scale: str) -> dict:
    if scale == "full":
        return {"fine_n": 128, "fine_T": 1.0, "decay_n": 16, "decay_T": 5.0, "mms_levels": 5}
    return {"fine_n": 16, "fine_T": 0.2, "decay_n": 4, "decay_T": 0.5, "mms_levels": 3}


def jittered_square(n: int, seed: int) -> cw_mesh.Mesh:
    """Unit square with n cells per side, interior vertices moved by U(-0.15 h, 0.15 h)."""
    base = cw_mesh.generate_unit_square(n)
    rng = np.random.default_rng(seed)
    vertices = base.vertices.copy()
    interior = ~base.boundary_flags
    vertices[interior] += rng.uniform(-JITTER / n, JITTER / n, size=(int(interior.sum()), 2))
    h = float(cw_mesh.cell_diameters(vertices, base.cells).max())
    jittered = cw_mesh.Mesh(2, vertices, base.cells.copy(), base.boundary_flags.copy(), h)
    cw_mesh.validate(jittered)
    return jittered


def write_inputs(workload: str, seed: int, workdir: str, scale: str = "full") -> str:
    """Write the job's config (and mesh file) into workdir; return the config path."""
    s = _sizes(scale)
    os.makedirs(workdir, exist_ok=True)
    if workload == "fine-mesh":
        cw_mesh.write_mesh(jittered_square(s["fine_n"], seed), os.path.join(workdir, "mesh.txt"))
        text = ("mode = simulate\ndomain = file:mesh.txt\n" + PHYSICS
                + f"k = 0.01\nT = {s['fine_T']!r}\ninitial = sine\n")
    elif workload == "long-decay":
        text = (f"mode = decay-study\ndomain = square\nn_per_side = {s['decay_n']}\n" + PHYSICS
                + f"k = 0.001\nT = {s['decay_T']!r}\ninitial = sine\n"
                + "lyapunov_n_weight = 2.0\nlyapunov_beta = 0.1\n")
    elif workload == "mms-ladder":
        text = ("mode = convergence\ncase = separable-decay\ndomain = square\nn_per_side = 4\n"
                + f"levels = {s['mms_levels']}\n" + PHYSICS + "k = 0.04\nT = 1.0\n")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path = os.path.join(workdir, "job.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def output_files(workload: str) -> tuple:
    if workload == "mms-ladder":
        return ("convergence.csv",)
    return ("energy.csv", "summary.json")


def digest(outdir: str, workload: str) -> str:
    """Hash of every output file, for the byte-identical rerun check."""
    h = hashlib.sha256()
    for name in output_files(workload):
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _read_csv(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def read_outputs(workload: str, outdir: str) -> dict:
    """Parse a job's output files; raises OSError or ValueError when unusable."""
    if workload == "mms-ladder":
        rows = _read_csv(os.path.join(outdir, "convergence.csv"))
        if not rows:
            raise ValueError("convergence.csv has no rows")
        return {"errors": [r["error"] for r in rows]}
    rows = _read_csv(os.path.join(outdir, "energy.csv"))
    if not rows:
        raise ValueError("energy.csv has no rows")
    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    if not isinstance(summary, dict):
        raise ValueError("summary.json is not an object")
    return {"E": [r["E"] for r in rows], "lyapunov": [r["lyapunov"] for r in rows],
            "summary": summary}


def reference_values(workload: str, outputs: dict) -> dict:
    """The subset of outputs kept in reference.json."""
    if workload == "mms-ladder":
        return {"errors": outputs["errors"]}
    stride = REFERENCE_ROW_STRIDE
    summary = outputs["summary"]
    return {
        "final_energy": summary["final_energy"],
        "fitted_gamma": summary["fitted_gamma"],
        "fit_residual": summary["fit_residual"],
        "E_every_100": outputs["E"][::stride] + outputs["E"][-1:],
        "lyapunov_every_100": outputs["lyapunov"][::stride] + outputs["lyapunov"][-1:],
    }


def check_outputs(workload: str, outdir: str, reference: dict | None) -> list:
    """Problems with one job's outputs; an empty list means the job passed."""
    try:
        out = read_outputs(workload, outdir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"missing or unparsable output: {exc}"]
    problems = []
    if workload == "mms-ladder":
        errors = out["errors"]
        for level, (a, b) in enumerate(zip(errors, errors[1:]), start=1):
            if not (b > 0.0 and a / b >= MMS_MIN_RATIO):
                problems.append(f"MMS error ratio at level {level} is {a / b if b else math.inf:.3f}"
                                f" < {MMS_MIN_RATIO}")
    else:
        summary = out["summary"]
        budget = IDENTITY_BUDGET * max(out["E"][0], 1.0)
        residual = summary.get("max_identity_residual")
        if not isinstance(residual, (int, float)) or not residual <= budget:
            problems.append(f"max_identity_residual {residual!r} exceeds {budget:.3g}")
        if summary.get("monotone") is not True:
            problems.append("energy is not monotone")
        if summary.get("fitted_gamma") is None:
            problems.append("decay fit missing")
    if reference is not None and not problems:
        problems += _compare(reference_values(workload, out), reference)
    return problems


def _compare(got: dict, want: dict) -> list:
    problems = []
    for key, ref in want.items():
        value = got.get(key)
        refs = ref if isinstance(ref, list) else [ref]
        values = value if isinstance(value, list) else [value]
        if len(values) != len(refs):
            problems.append(f"{key}: {len(values)} values, reference has {len(refs)}")
            continue
        for i, (v, r) in enumerate(zip(values, refs)):
            if v is None or not abs(v - r) <= REFERENCE_RTOL * abs(r):
                problems.append(f"{key}[{i}] = {v!r} differs from reference {r!r}")
                break
    return problems
