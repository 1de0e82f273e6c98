"""Command-line driver: config in, CSV/JSON out.

Exit codes: 0 success, 1 configuration problem (bad arguments, unparsable or
inconsistent config, bad mesh data), 2 solver failure, 3 I/O failure.  All
diagnostics go to stderr; CSV numeric fields carry 17 significant digits so
repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import assembly, mesh, mms, scheme
from .config import ConfigError, RunConfig, parse_config
from .energy import EnergyTracker, InsufficientDataError, fit_decay_rate
from .sparse_linalg import SolverFailure

_EXIT_CONFIG = 1
_EXIT_SOLVER = 2
_EXIT_IO = 3

# EnergyRecord fields, in energy.csv column order
ENERGY_COLUMNS = ("n", "t", "E", "kinetic_u", "kinetic_v", "elastic_u", "elastic_v",
                  "coupling", "dE", "identity_residual", "lyapunov")
ENERGY_HEADER = ",".join(ENERGY_COLUMNS)
TABLE_HEADER = "level,h,k,error,order"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


def run_cli(argv) -> int:
    """Run one configured job; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="coupledwave",
        description="Coupled damped wave solver: simulation, decay, and convergence studies.",
    )
    parser.add_argument("--config", required=True, help="path to a key=value config file")
    parser.add_argument("--out-dir", default=None, help="directory for output files")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its diagnostic; fold its exit into ours
        return 0 if exc.code == 0 else _EXIT_CONFIG

    try:
        text = _read_text(args.config)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return _EXIT_IO
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return _EXIT_CONFIG

    try:
        domain = _build_domain(cfg)
    except OSError as exc:
        print(f"error: cannot read mesh file: {exc}", file=sys.stderr)
        return _EXIT_IO
    except (mesh.MeshError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG

    try:
        if cfg.mode == "convergence":
            return _run_convergence(cfg, domain, args)
        return _run_simulation(cfg, domain, args)
    except (assembly.AssemblyError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except SolverFailure as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return _EXIT_SOLVER
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return _EXIT_IO


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _build_domain(cfg: RunConfig) -> mesh.Mesh:
    if cfg.domain == "square":
        return mesh.generate_unit_square(cfg.n_per_side)
    if cfg.domain == "interval":
        return mesh.generate_unit_interval(cfg.n_per_side)
    return mesh.read_mesh(cfg.domain.removeprefix("file:"))


def _out_path(args, name: str) -> str:
    if args.out_dir is None:
        return name
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _run_simulation(cfg: RunConfig, domain: mesh.Mesh, args) -> int:
    mass = assembly.assemble_mass(domain)
    stiffness = assembly.assemble_stiffness(domain)
    tracker = EnergyTracker(mass, stiffness, cfg.scheme_params, cfg.lyapunov_params)
    scheme.run(domain, mass, stiffness, cfg.scheme_params, scheme.initial_preset(cfg.initial),
               config=cfg.solver_config, observer=tracker)

    try:
        fit = fit_decay_rate(tracker.records, cfg.fit_window)
    except InsufficientDataError as exc:
        if cfg.mode == "decay-study":
            raise ConfigError(f"decay fit impossible: {exc}") from exc
        fit = None

    energy_path = _out_path(args, cfg.out_energy)
    _write_energy_csv(energy_path, tracker)
    summary = {
        "final_energy": tracker.records[-1].E,
        "fitted_gamma": fit.gamma if fit else None,
        "fit_residual": fit.residual if fit else None,
        "max_identity_residual": tracker.max_identity_residual,
        "monotone": tracker.is_monotone(),
    }
    summary_path = _out_path(args, cfg.out_summary)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    if not args.quiet:
        print(f"wrote {energy_path} ({len(tracker.records)} levels)")
        print(f"wrote {summary_path}")
        if fit is not None:
            print(f"final energy {summary['final_energy']:.6e}, "
                  f"gamma {fit.gamma:.6f} (rms {fit.residual:.4f})")
        else:
            print(f"final energy {summary['final_energy']:.6e}, no decay fit")
    return 0


def _write_energy_csv(path: str, tracker: EnergyTracker) -> None:
    rows = [ENERGY_HEADER]
    for rec in tracker.records:
        rows.append(",".join(_fmt(getattr(rec, name)) for name in ENERGY_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def _run_convergence(cfg: RunConfig, domain: mesh.Mesh, args) -> int:
    report = mms.convergence_study(
        cfg.case, domain, cfg.k, cfg.levels, cfg.scheme_params, cfg.solver_config
    )
    table_path = _out_path(args, cfg.out_table)
    rows = [TABLE_HEADER]
    for rec, order in zip(report.levels, report.local_orders()):
        rows.append(",".join([
            str(rec.level), _fmt(rec.h), _fmt(rec.k), _fmt(rec.error), _fmt(order),
        ]))
    with open(table_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    if not args.quiet:
        print(f"wrote {table_path} ({len(report.levels)} levels)")
        print(f"fitted order {report.fitted_order:.4f}")
    return 0
