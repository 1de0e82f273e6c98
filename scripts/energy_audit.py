"""Audit the discrete energy identity along one damped run.

Prints, for a handful of evenly spaced steps, the energy drop E^{n+1} - E^n
next to the seven dissipation terms that must account for it, then the worst
identity residual over the whole trajectory.

Example:
    python3 scripts/energy_audit.py --n 8 --k 0.02 --T 2 --eps-u 0.5 --eps-v 0.25
"""

import argparse
import sys

from coupledwave import assembly, energy, mesh, scheme
from coupledwave.sparse_linalg import SolverConfig


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=8, help="squares per side")
    ap.add_argument("--k", type=float, default=0.02, help="time step")
    ap.add_argument("--T", type=float, default=2.0, help="final time")
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--eps-u", type=float, default=0.5)
    ap.add_argument("--eps-v", type=float, default=0.25)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--initial", default="sine",
                    choices=("zero", "sine", "sine-opposed"))
    ap.add_argument("--rows", type=int, default=10, help="steps to print")
    args = ap.parse_args(argv)

    m = mesh.generate_unit_square(args.n)
    params = scheme.SchemeParams.from_final_time(
        c=args.c, eps_u=args.eps_u, eps_v=args.eps_v,
        alpha=args.alpha, k=args.k, T=args.T,
    )
    mass, stiffness = assembly.assemble_mass(m), assembly.assemble_stiffness(m)
    tracker = energy.EnergyTracker(mass, stiffness, params)
    scheme.run(m, mass, stiffness, params, scheme.initial_preset(args.initial, 2),
               config=SolverConfig(rel_tol=1e-13), observer=tracker)

    # records[0] is the starting level; breakdowns exist from records[1] on
    steps = tracker.records[1:]
    stride = max(1, len(steps) // max(1, args.rows))
    print(f"{'n':>5} {'t':>8} {'E':>12} {'dE':>13} {'friction_u':>12} "
          f"{'friction_v':>12} {'coupling':>12} {'residual':>10}")
    for rec, de, res in zip(steps, tracker.dE[1:], tracker.identity_residuals[1:]):
        if (rec.n - 1) % stride and rec is not steps[-1]:
            continue
        d = rec.dissipation
        print(f"{rec.n:5d} {rec.t:8.3f} {rec.E:12.6e} {de:13.6e} "
              f"{d.friction_u:12.4e} {d.friction_v:12.4e} "
              f"{d.coupling_difference:12.4e} {res:10.2e}")

    print(f"\nmax identity residual: {tracker.max_identity_residual:.3e}")
    print(f"monotone decay: {tracker.is_monotone()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
