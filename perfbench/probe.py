"""Timestamps and spans recorded inside one coupledwave CLI process.

The recorder replaces module attributes with timing wrappers.  It patches the
name each caller actually looks up, so ``scheme.run`` is wrapped for the CLI
and ``mms.run`` separately for the MMS harness, which imported it by name.

Two levels of recording:

* level probe (always on): the observer passed to every ``run`` call is
  wrapped, and each return is stamped.  The observer sees the startup state
  and then every stepped level, so these stamps split the process timeline
  into set-up and per-level intervals.  Cost: one clock read per level.
* full trace (``trace=True``): spans (name, start, end, parent) around the
  public calls of every layer, plus counts (cells, nnz, CG iterations).

All times come from ``time.monotonic``, which on Linux reads
CLOCK_MONOTONIC and so is comparable with the parent benchmark process.
This module imports nothing heavy, so it can be loaded before the program.
"""

from __future__ import annotations

import inspect
import json
import time

clock = time.monotonic


class Recorder:
    def __init__(self, trace: bool):
        self.trace = trace
        self.runs = []  # per scheme run, the observer return stamps
        self.spans = []  # [name, start, end, parent index, extra]
        self._stack = [-1]

    # -- spans --------------------------------------------------------------

    def open_span(self, name: str) -> list:
        span = [name, clock(), 0.0, self._stack[-1], None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close_span(self, span: list, extra=None) -> None:
        span[2] = clock()
        span[4] = extra
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """A wrapper recording one span per call; ``count(result, args)`` adds extra data."""

        def wrapper(*args, **kwargs):
            span = self.open_span(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close_span(span, count(result, args) if count and result is not None else None)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if callable(original):
            setattr(module, attr, make(original))

    def install(self, modules: dict) -> None:
        """Patch the program's modules (name -> module object)."""
        for name in ("scheme", "mms"):
            self._patch(modules[name], "run", self._wrap_run)
        if not self.trace:
            return
        cli, mesh, assembly = modules["cli"], modules["mesh"], modules["assembly"]
        scheme, sparse, mms = modules["scheme"], modules["sparse_linalg"], modules["mms"]
        cells = lambda result, args: int(result.n_cells)  # noqa: E731
        nnz = lambda result, args: int(result.nnz)  # noqa: E731
        plan = [
            (cli, "parse_config", "config.parse", None),
            (cli, "fit_decay_rate", "energy.fit", None),
            (mesh, "read_mesh", "mesh.read", cells),
            (mesh, "validate", "mesh.validate", None),
            (mesh, "generate_unit_square", "mesh.generate", cells),
            (mesh, "generate_unit_interval", "mesh.generate", cells),
            (mms, "refine_uniform", "mesh.refine", cells),
            (assembly, "assemble_mass", "assembly.mass", nnz),
            (assembly, "assemble_stiffness", "assembly.stiffness", nnz),
            (assembly, "load_matrix", "assembly.load_matrix", nnz),
            (scheme, "BlockOperator", "scheme.operator", None),
            (scheme, "initialize", "scheme.initialize", None),
            (scheme, "step", "scheme.step", None),
            (scheme, "solve_spd", "sparse_linalg.solve", None),
            (sparse, "cg_jacobi", "sparse_linalg.cg", _cg_counts),
            (mms, "measure_error", "mms.level", None),
        ]
        for module, attr, span_name, count in plan:
            self._patch(module, attr, lambda fn, n=span_name, c=count: self.wrap(n, fn, c))

    def _wrap_run(self, run):
        signature = inspect.signature(run)
        recorder = self

        def wrapped_run(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            stamps = []
            recorder.runs.append(stamps)
            observer = bound.arguments.get("observer")
            if observer is not None:
                if recorder.trace:
                    observer = recorder.wrap(_observer_span(observer), observer)
                inner = observer

                def observer(state):
                    inner(state)
                    stamps.append(clock())

                bound.arguments["observer"] = observer
            sources = bound.arguments.get("sources")
            if sources is not None and recorder.trace:
                bound.arguments["sources"] = recorder.wrap("scheme.sources", sources)
            if not recorder.trace:
                return run(*bound.args, **bound.kwargs)
            span = recorder.open_span("scheme.run")
            try:
                return run(*bound.args, **bound.kwargs)
            finally:
                recorder.close_span(span)

        return wrapped_run

    # -- output -------------------------------------------------------------

    def dump(self, path: str, **fields) -> None:
        data = dict(fields, runs=self.runs, spans=self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _observer_span(observer) -> str:
    module = type(observer).__module__.rsplit(".", 1)[-1]
    return {"energy": "energy.tracker", "mms": "mms.error_observer"}.get(module, "observer")


def _cg_counts(result, args) -> dict:
    """Iterations and the CSR sizes needed to count SpMV bytes."""
    matrix = args[0]
    extra = {"iterations": int(result[1]), "n": int(matrix.shape[0])}
    if hasattr(matrix, "indices"):
        extra["nnz"] = int(matrix.nnz)
        extra["index_bytes"] = int(matrix.indices.itemsize)
    return extra
