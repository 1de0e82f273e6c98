"""Acceptance gate: every release-blocking property at its stated tolerance.

Each test prints one `[acceptance] criterion N (...): PASS|FAIL` line directly
to the terminal (bypassing capture) and then asserts, so a plain pytest run
shows the verdict per criterion.  Trajectory-producing runs use a solver
tolerance of 1e-14 to keep iteration noise far below the tightest budget;
the criteria pin mesh, parameters, and tolerances but not the stopping rule.
"""

import math

import numpy as np
import pytest

from coupledwave import assembly as asm
from coupledwave import energy as en
from coupledwave import mesh as msh
from coupledwave import mms, scheme
from coupledwave.cli import run_cli
from coupledwave.sparse_linalg import SolverConfig

import oracles

SOLVER = SolverConfig(rel_tol=1e-14)
DAMPING_GRID = ((0.0, 0.0), (0.5, 0.0), (0.5, 0.25))

# regression baseline recorded on the first acceptance run of criterion 3;
# the fitted rate has no published reference value
GAMMA_BASELINE = 0.7122337862843986


@pytest.fixture
def report(capfd):
    def _report(num: int, name: str, ok: bool, detail: str = ""):
        tail = f" ({detail})" if detail else ""
        with capfd.disabled():
            print(f"[acceptance] criterion {num} ({name}): "
                  f"{'PASS' if ok else 'FAIL'}{tail}", flush=True)

    return _report


@pytest.fixture(scope="module")
def square8():
    m = msh.generate_unit_square(8)
    return m, asm.assemble_mass(m), asm.assemble_stiffness(m)


def damped_params(eps_u, eps_v, k=0.01, T=2.0):
    return scheme.SchemeParams(
        c=1.0, eps_u=eps_u, eps_v=eps_v, alpha=1.0, k=k, T=T
    )


@pytest.fixture(scope="module")
def damping_runs(square8):
    """The criterion-1 trio: tracker plus full state history per damping pair."""
    m, mass, stiff = square8
    out = {}
    for eps_u, eps_v in DAMPING_GRID:
        p = damped_params(eps_u, eps_v)
        tracker = en.EnergyTracker(mass, stiff, p)
        states = []

        def observer(s, tracker=tracker, states=states):
            tracker(s)
            states.append(s)

        scheme.run(m, mass, stiff, p, scheme.initial_preset("sine"),
                   config=SOLVER, observer=observer)
        out[(eps_u, eps_v)] = (p, tracker, states)
    return out


@pytest.fixture(scope="module")
def long_decay_run(square8):
    m, mass, stiff = square8
    p = damped_params(0.5, 0.5, k=0.01, T=10.0)
    tracker = en.EnergyTracker(mass, stiff, p)
    scheme.run(m, mass, stiff, p, scheme.initial_preset("sine"),
               config=SOLVER, observer=tracker)
    return p, tracker


def test_criterion_1_dissipation_identity(damping_runs, report):
    worst = 0.0
    for (eps_u, eps_v), (p, tracker, _) in damping_runs.items():
        tol = 1e-10 * max(tracker.records[0].E, 1.0)
        worst = max(worst, tracker.max_identity_residual / tol)
    ok = worst <= 1.0
    report(1, "dissipation identity", ok, f"worst residual at {worst:.2e} of budget")
    assert ok


def test_criterion_2_monotone_decay(square8, damping_runs, report):
    ok = True
    for (eps_u, eps_v), (p, tracker, _) in damping_runs.items():
        energies = [r.E for r in tracker.records]
        slack = 1e-12 * max(energies[0], 1.0)
        ok = ok and all(b <= a + slack for a, b in zip(energies, energies[1:]))
    # the trivial rest state must pass with E identically zero
    m, mass, stiff = square8
    p = damped_params(0.5, 0.25)
    tracker = en.EnergyTracker(mass, stiff, p)
    scheme.run(m, mass, stiff, p, scheme.initial_preset("zero"),
               config=SOLVER, observer=tracker)
    zero_ok = all(r.E == 0.0 for r in tracker.records)
    ok = ok and zero_ok
    report(2, "monotone decay", ok, f"zero-energy run E==0: {zero_ok}")
    assert ok


def test_criterion_3_exponential_decay(long_decay_run, report):
    p, tracker = long_decay_run
    fit = en.fit_decay_rate(tracker.records, window=0.5)
    e_first, e_last = tracker.records[0].E, tracker.records[-1].E
    bound = math.exp(-fit.gamma * p.T / 2.0)
    checks = {
        "gamma positive": fit.gamma > 0.0,
        "rms residual": fit.residual <= 0.05,
        "decay factor": e_last / e_first <= bound,
        "regression baseline": abs(fit.gamma - GAMMA_BASELINE) <= 1e-6 * GAMMA_BASELINE,
    }
    ok = all(checks.values())
    report(3, "exponential decay", ok,
           f"gamma={fit.gamma:.6f}, rms={fit.residual:.4f}, "
           f"E(T)/E(0)={e_last / e_first:.2e} vs bound {bound:.2e}")
    assert ok, checks


def test_criterion_4_convergence_order(report):
    p = scheme.SchemeParams(
        c=1.0, eps_u=0.5, eps_v=0.25, alpha=1.0, k=0.1, T=1.0
    )
    rep = mms.convergence_study(
        "separable-decay", msh.generate_unit_square(4), 0.1, 4, p, SOLVER
    )
    errors = [r.error for r in rep.levels]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    ok = rep.fitted_order >= 0.9 and all(r >= 1.7 for r in ratios)
    report(4, "convergence order", ok,
           f"order={rep.fitted_order:.3f}, ratios=" + ",".join(f"{r:.2f}" for r in ratios))
    assert ok, (rep.fitted_order, ratios)


def test_criterion_5_element_oracles(report):
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        tri = oracles.random_triangle(rng)
        seg = oracles.random_segment(rng)
        for coords, oracle, build in (
            (tri, oracles.mass_oracle, asm.element_mass),
            (tri, oracles.stiffness_oracle, asm.element_stiffness),
            (seg, oracles.mass_oracle, asm.element_mass),
            (seg, oracles.stiffness_oracle, asm.element_stiffness),
        ):
            ref = oracle(coords)
            diff = np.abs(build(coords) - ref).max() / np.abs(ref).max()
            worst = max(worst, diff)
    ok = worst <= 1e-13
    report(5, "element oracles", ok, f"worst relative deviation {worst:.2e}")
    assert ok


def test_criterion_6_block_wellposedness(square8, damping_runs, report):
    m, mass, stiff = square8
    rng = np.random.default_rng(99)
    symmetric = True
    positive = True
    for eps_u, eps_v in DAMPING_GRID:
        op = scheme.BlockOperator(mass, stiff, damped_params(eps_u, eps_v))
        symmetric = symmetric and (op.matrix - op.matrix.T).nnz == 0
        for _ in range(100):
            x = rng.standard_normal(op.matrix.shape[0])
            positive = positive and float(x @ (op.matrix @ x)) > 0.0
    # every damping run above completed all its CG solves within budget
    converged = all(
        len(tracker.records) == p.M_steps for p, tracker, _ in damping_runs.values()
    )
    ok = symmetric and positive and converged
    report(6, "block well-posedness", ok,
           f"symmetric={symmetric}, positive={positive}, cg converged={converged}")
    assert ok


def test_criterion_7_identity_sensitivity(square8, damping_runs, report):
    m, mass, stiff = square8
    p, _, states = damping_runs[(0.5, 0.25)]
    prev, cur = states[10], states[11]
    u_bumped = cur.u_curr.copy()
    u_bumped[len(u_bumped) // 2] += 1e-3
    bumped = scheme.State(cur.n, cur.u_prev, u_bumped, cur.v_prev, cur.v_curr)
    residuals = []
    for last in (cur, bumped):
        tracker = en.EnergyTracker(mass, stiff, p)
        tracker(prev)
        tracker(last)
        residuals.append(tracker.records[1].identity_residual)
    clean, broken = residuals
    ok = broken > 1e-6 and clean <= 1e-10 * max(en.energy(states[0], mass, stiff, p).E, 1.0)
    report(7, "identity sensitivity", ok,
           f"clean residual {clean:.2e}, perturbed {broken:.2e}")
    assert ok


def test_criterion_8_byte_identical_output(tmp_path, report):
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(
        "mode = simulate\ndomain = square\nn_per_side = 4\n"
        "k = 0.01\nT = 0.5\neps_u = 0.5\neps_v = 0.25\ninitial = sine\n"
        "rel_tol = 1e-14\n"
    )
    payloads = []
    for d in ("first", "second"):
        code = run_cli(["--config", str(cfg_path), "--out-dir", str(tmp_path / d), "--quiet"])
        assert code == 0
        payloads.append(
            ((tmp_path / d / "energy.csv").read_bytes(),
             (tmp_path / d / "summary.json").read_bytes())
        )
    ok = payloads[0] == payloads[1]
    report(8, "byte-identical output", ok,
           f"{len(payloads[0][0])} CSV bytes compared")
    assert ok
