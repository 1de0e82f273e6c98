"""Sweep damping coefficients and tabulate fitted energy decay rates.

Example:
    python3 scripts/decay_study.py --n 8 --k 0.01 --T 10 --eps 0.1 0.25 0.5 1.0
"""

import argparse
import sys

from coupledwave import assembly, energy, mesh, scheme
from coupledwave.sparse_linalg import SolverConfig


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=8, help="squares per side")
    ap.add_argument("--k", type=float, default=0.01, help="time step")
    ap.add_argument("--T", type=float, default=10.0, help="final time")
    ap.add_argument("--alpha", type=float, default=1.0, help="coupling coefficient")
    ap.add_argument("--c", type=float, default=1.0, help="wave speed")
    ap.add_argument("--eps", type=float, nargs="+", default=[0.1, 0.25, 0.5, 1.0],
                    help="damping values applied to both fields")
    ap.add_argument("--window", type=float, default=0.5, help="trailing fit fraction")
    ap.add_argument("--out", default=None, help="optional CSV output path")
    args = ap.parse_args(argv)

    m = mesh.generate_unit_square(args.n)
    mass = assembly.assemble_mass(m)
    stiffness = assembly.assemble_stiffness(m)
    solver = SolverConfig(rel_tol=1e-13)

    rows = [("eps", "gamma", "rms_residual", "E_first", "E_last")]
    print(f"{'eps':>8} {'gamma':>12} {'rms':>10} {'E(T)/E(0)':>12}")
    for eps in args.eps:
        params = scheme.SchemeParams.from_final_time(
            c=args.c, eps_u=eps, eps_v=eps, alpha=args.alpha, k=args.k, T=args.T
        )
        tracker = energy.EnergyTracker(mass, stiffness, params)
        scheme.run(m, mass, stiffness, params, scheme.initial_preset("sine"),
                   config=solver, observer=tracker)
        fit = energy.fit_decay_rate(tracker.records, args.window)
        first, last = tracker.records[0].E, tracker.records[-1].E
        rows.append((eps, fit.gamma, fit.residual, first, last))
        print(f"{eps:8.3f} {fit.gamma:12.6f} {fit.residual:10.4f} {last / first:12.3e}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(",".join(str(x) for x in row) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
