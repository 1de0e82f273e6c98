"""Turn the records of job.py into end-to-end and per-layer metrics.

A job's timeline is split by the level stamps of every scheme run: set-up is
the time from the previous run's last level (or process start) to the end
of the startup level, and each later stamp closes one time level (sources,
step and observer).  Per-layer numbers are span self times: a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

from collections import defaultdict

# layer time metric -> span names whose self times it sums
LAYER_SPANS = {
    "mesh.read_s": ("mesh.read",),
    "mesh.validate_s": ("mesh.validate",),
    "mesh.generate_s": ("mesh.generate",),
    "mesh.refine_s": ("mesh.refine",),
    "assembly.mass_s": ("assembly.mass",),
    "assembly.stiffness_s": ("assembly.stiffness",),
    "assembly.load_matrix_s": ("assembly.load_matrix",),
    "scheme.operator_s": ("scheme.operator",),
    "scheme.initialize_s": ("scheme.initialize",),
    "scheme.step_self_s": ("scheme.step",),
    "scheme.sources_s": ("scheme.sources",),
    "sparse_linalg.solve_s": ("sparse_linalg.solve", "sparse_linalg.cg"),
    "energy.tracker_s": ("energy.tracker",),
    "energy.fit_s": ("energy.fit",),
    "mms.error_observer_s": ("mms.error_observer",),
    "config.parse_s": ("config.parse",),
    "cli.import_s": ("cli.import",),
}
# layer count metric -> (span names, whether to count calls or sum their extra)
LAYER_COUNTS = {
    "mesh.cells": (("mesh.read", "mesh.generate", "mesh.refine"), "extra"),
    "assembly.calls": (("assembly.mass", "assembly.stiffness", "assembly.load_matrix"), "calls"),
    "assembly.nnz": (("assembly.mass", "assembly.stiffness", "assembly.load_matrix"), "extra"),
    "scheme.steps": (("scheme.step",), "calls"),
    "sparse_linalg.solves": (("sparse_linalg.solve",), "calls"),
    "energy.tracker_calls": (("energy.tracker",), "calls"),
    "mms.levels": (("mms.level",), "calls"),
}
UNITS = {
    **{name: "s" for name in LAYER_SPANS},
    **{name: "count" for name in LAYER_COUNTS},
    "cli.output_s": "s",
    "sparse_linalg.cg_iterations": "count",
    "sparse_linalg.cg_iterations_max": "count",
    "sparse_linalg.us_per_iteration": "us",
    "sparse_linalg.spmv_gb_computed": "GB",
    "trace.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "process.wall_s": "s",
    "process.cpu_s": "s",
}
_FLOAT_BYTES = 8


def timeline(record: dict, launch: float) -> dict:
    """Set-up, stepping time, step count and level latencies of one job."""
    prev_end = launch
    setup = stepping = 0.0
    steps = 0
    levels = []
    for stamps in record["runs"]:
        if not stamps:
            raise ValueError("a scheme run recorded no levels")
        setup += stamps[0] - prev_end
        stepping += stamps[-1] - stamps[0]
        steps += len(stamps) - 1
        levels += [b - a for a, b in zip(stamps, stamps[1:])]
        prev_end = stamps[-1]
    if steps == 0:
        raise ValueError("the job recorded no scheme runs")
    return {"setup_s": setup, "stepping_s": stepping, "steps": steps, "levels": levels}


def _self_times(spans: list) -> list:
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _extra in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - cov for (_n, start, end, _p, _e), cov in zip(spans, covered)]


def layers(record: dict, wall: float) -> dict:
    """Per-layer metrics of one traced job whose process took ``wall`` seconds."""
    spans = record["spans"]
    own = _self_times(spans)
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    extra_sum = defaultdict(int)
    for span, self_time in zip(spans, own):
        name, extra = span[0], span[4]
        self_by_name[name] += self_time
        calls[name] += 1
        if isinstance(extra, int):
            extra_sum[name] += extra

    out = {metric: sum(self_by_name[n] for n in names) for metric, names in LAYER_SPANS.items()}
    out["cli.output_s"] = _output_time(spans)
    for metric, (names, how) in LAYER_COUNTS.items():
        table = calls if how == "calls" else extra_sum
        out[metric] = sum(table[n] for n in names)

    cg = [s for s in spans if s[0] == "sparse_linalg.cg" and s[4]]
    iterations = [s[4]["iterations"] for s in cg]
    cg_time = sum(s[2] - s[1] for s in cg)
    out["sparse_linalg.cg_iterations"] = sum(iterations)
    out["sparse_linalg.cg_iterations_max"] = max(iterations, default=0)
    out["sparse_linalg.us_per_iteration"] = 1e6 * cg_time / max(sum(iterations), 1)
    out["sparse_linalg.spmv_gb_computed"] = sum(_spmv_bytes(s[4]) for s in cg) / 1e9

    attributed = sum(out[m] for m in LAYER_SPANS) + out["cli.output_s"]
    out["trace.unattributed_s"] = wall - attributed
    return out


def _spmv_bytes(extra: dict) -> int:
    """Bytes the CSR SpMVs of one CG call move, counted, not measured.

    One y = A x reads the values and column indices of every nonzero and the
    row pointer, and reads x and writes y once each.
    """
    if "nnz" not in extra:
        return 0
    n, nnz, index = extra["n"], extra["nnz"], extra["index_bytes"]
    per_spmv = nnz * (_FLOAT_BYTES + index) + (n + 1) * index + 2 * n * _FLOAT_BYTES
    return extra["iterations"] * per_spmv


def _output_time(spans: list) -> float:
    """From the last scheme run's return to run_cli's return, minus traced calls in between."""
    roots = [s for s in spans if s[0] == "cli.run_cli"]
    runs = [s for s in spans if s[0] == "scheme.run"]
    if not roots or not runs:
        return 0.0
    last = max(s[2] for s in runs)
    inside = sum(
        s[2] - s[1] for s in spans
        if s[1] >= last and s[3] >= 0 and spans[s[3]][1] < last
    )
    return roots[0][2] - last - inside
