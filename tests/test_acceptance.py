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
        tol = 1e-10 * max(tracker.table["E"][0], 1.0)
        worst = max(worst, tracker.max_identity_residual / tol)
    ok = worst <= 1.0
    report(1, "dissipation identity", ok, f"worst residual at {worst:.2e} of budget")
    assert ok


def test_criterion_2_monotone_decay(square8, damping_runs, report):
    ok = True
    for (eps_u, eps_v), (p, tracker, _) in damping_runs.items():
        energies = tracker.table["E"].tolist()
        slack = 1e-12 * max(energies[0], 1.0)
        ok = ok and all(b <= a + slack for a, b in zip(energies, energies[1:]))
    # the trivial rest state must pass with E identically zero
    m, mass, stiff = square8
    p = damped_params(0.5, 0.25)
    tracker = en.EnergyTracker(mass, stiff, p)
    scheme.run(m, mass, stiff, p, scheme.initial_preset("zero"),
               config=SOLVER, observer=tracker)
    zero_ok = bool((tracker.table["E"] == 0.0).all())
    ok = ok and zero_ok
    report(2, "monotone decay", ok, f"zero-energy run E==0: {zero_ok}")
    assert ok


def test_criterion_3_exponential_decay(long_decay_run, report):
    p, tracker = long_decay_run
    fit = en.fit_decay_rate(tracker.table, window=0.5)
    e_first, e_last = tracker.table["E"][[0, -1]].tolist()
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
        len(tracker.table) == p.M_steps for p, tracker, _ in damping_runs.values()
    )
    ok = symmetric and positive and converged
    report(6, "block well-posedness", ok,
           f"symmetric={symmetric}, positive={positive}, cg converged={converged}")
    assert ok


def test_criterion_7_identity_sensitivity(square8, damping_runs, report):
    m, mass, stiff = square8
    p, reference, states = damping_runs[(0.5, 0.25)]
    prev, cur = states[10], states[11]
    u_bumped = cur.u_curr.copy()
    u_bumped[len(u_bumped) // 2] += 1e-3
    bumped = scheme.State(cur.n, cur.u_prev, u_bumped, cur.v_prev, cur.v_curr)
    residuals = []
    for last in (cur, bumped):
        tracker = en.EnergyTracker(mass, stiff, p)
        tracker(prev)
        tracker(last)
        residuals.append(tracker.table["identity_residual"][1])
    clean, broken = residuals
    ok = broken > 1e-6 and clean <= 1e-10 * max(reference.table["E"][0], 1.0)
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


def rayleigh_quotient_of_sine(m, mass, stiff):
    """lam_h of the interpolated sine mode, K phi = lam_h M phi in the Rayleigh sense."""
    phi = scheme.sine_mode(m.vertices[~m.boundary_flags])
    return float(phi @ (stiff @ phi)) / float(phi @ (mass @ phi))


def test_criterion_9_modal_decay_rate(square8, long_decay_run, report):
    # (a) sine-opposed data excite the u - v mode of the sine alone, so the
    # fitted rate is that mode's modal rate
    relative = {}
    opposed = damped_params(0.5, 0.5, k=0.01, T=10.0)
    for m in (msh.generate_unit_interval(16), square8[0]):
        mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
        tracker = en.EnergyTracker(mass, stiff, opposed)
        scheme.run(m, mass, stiff, opposed, scheme.initial_preset("sine-opposed"),
                   config=SOLVER, observer=tracker)
        gamma = en.fit_decay_rate(tracker.table, window=0.5).gamma
        lam = rayleigh_quotient_of_sine(m, mass, stiff)
        expected = oracles.modal_rate(lam, opposed, (1.0, -1.0))
        relative[m.dim] = abs(gamma - expected) / expected
    # (b) sine data excite both modes: criterion 3's rate lies between them
    p, tracker = long_decay_run
    lam = rayleigh_quotient_of_sine(*square8)
    slow, fast = (oracles.modal_rate(lam, p, fields) for fields in ((1.0, 1.0), (1.0, -1.0)))
    gamma = en.fit_decay_rate(tracker.table, window=0.5).gamma
    # (c) the slowest rate over the whole 1D spectrum, lam_j = (6/h^2)
    # (1 - cos j pi h) / (2 + cos j pi h), does not degrade with h
    worst = {}
    for eps_v in (0.25, 0.0):
        rates = []
        for n in (16, 64, 256, 1024):
            cos = np.cos(np.arange(1, n) * np.pi / n)
            spectrum = 6.0 * n * n * (1.0 - cos) / (2.0 + cos)
            rates.append(oracles.modal_rate(spectrum, damped_params(0.5, eps_v)).min())
        worst[eps_v] = (max(rates) - min(rates)) / min(rates)
    checks = {
        "single mode": max(relative.values()) <= 2e-3,
        "between modes": slow < gamma < fast,
        "uniform in h": max(worst.values()) <= 1e-3,
    }
    ok = all(checks.values())
    report(9, "modal decay rate", ok,
           f"fit vs modal 1d {relative[1]:.1e}, 2d {relative[2]:.1e}; "
           f"{slow:.4f} < gamma={gamma:.6f} < {fast:.4f}; "
           f"worst-mode spread {max(worst.values()):.1e}")
    assert ok, checks


def test_criterion_10_first_order_in_the_asymptotic_range(report):
    # criterion 4's 2D ladder is pre-asymptotic; on the uniform interval the
    # exact modal recurrence of oracles.mms_error_1d gives the error of every
    # level, so the measured ladder is checked against it where it runs and
    # the oracle alone reaches the levels where first order shows
    p = scheme.SchemeParams(c=1.0, eps_u=0.5, eps_v=0.25, alpha=1.0, k=0.1, T=1.0)
    case = mms.build_case("separable-decay-1d", p)
    rep = mms.convergence_study(
        "separable-decay-1d", msh.generate_unit_interval(4), 0.1, 6, p, SOLVER
    )
    exact = [oracles.mms_error_1d(4 * 2**j, 0.1 / 2**j, p, case) for j in range(11)]
    deviation = max(abs(r.error - e) / e for r, e in zip(rep.levels, exact))
    orders = [math.log2(a / b) for a, b in zip(exact[8:], exact[9:])]
    ok = deviation <= 1e-6 and all(abs(o - 1.0) <= 0.01 for o in orders)
    report(10, "first order, 1D oracle", ok,
           f"levels 0-5 within {deviation:.1e} of the oracle; oracle orders at levels 9-10 "
           + ", ".join(f"{o:.4f}" for o in orders))
    assert ok, (deviation, orders)


def test_criterion_11_lyapunov_contraction(report):
    # the energy method's functional L = N_weight E + beta (u.M du + v.M dv)
    # over the closed-form 1D spectrum lam_j = kappa_j / mu_j: with both
    # fields damped every mode contracts L at a rate sigma > 0 uniform in h,
    # and L stays within fixed multiples of E; expected holds sigma at n = 1024
    weights = en.LyapunovParams(N_weight=2.0, beta=0.1)
    steps = (0.04, 0.01, 0.0025, 6.25e-4)
    expected = {0.25: (0.4825, 0.1980, 0.1246, 0.1061),
                0.0: (0.3282, 0.0086, -0.0728, -0.0932)}
    sigma, lower, upper = {}, math.inf, -math.inf
    for eps_v, rates in expected.items():
        for k, rate in zip(steps, rates):
            p = damped_params(0.5, eps_v, k=k)
            for n in (16, 64, 256, 1024):
                h = 1.0 / n
                cos = np.cos(np.arange(1, n) * np.pi * h)
                lam = ((2.0 - 2.0 * cos) / h) / (h * (4.0 + 2.0 * cos) / 6.0)
                s, low, high = oracles.lyapunov_contraction(lam, p, weights)
                sigma[eps_v, k, n] = s.min()
                if eps_v:
                    lower, upper = min(lower, low.min()), max(upper, high.max())
    pinned = max(abs(sigma[eps_v, k, 1024] - rate) for eps_v, rates in expected.items()
                 for k, rate in zip(steps, rates))
    # the coarsest mesh is furthest off: 1.2e-3 above n = 1024 at k = 0.04
    spread = max(abs(sigma[eps_v, k, n] - sigma[eps_v, k, 1024])
                 for eps_v, k, n in sigma)
    # the program's own column: a 1D run's per-step rates
    # (L_n - L_{n+1}) / (k L_n) are at least the oracle's sigma
    m = msh.generate_unit_interval(64)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    margin, ratio = math.inf, []
    for k in steps[:3]:
        p = damped_params(0.5, 0.25, k=k, T=1.0)
        tracker = en.EnergyTracker(mass, stiff, p, weights)
        scheme.run(m, mass, stiff, p, scheme.initial_preset("sine"), config=SOLVER,
                   observer=tracker)
        L, E = tracker.table["lyapunov"], tracker.table["E"]
        rates = (L[:-1] - L[1:]) / (k * L[:-1])
        margin = min(margin, rates.min() - sigma[0.25, k, 64])
        ratio += [(E / L).min(), (E / L).max()]
    checks = {
        "sigma as pinned": pinned <= 1e-4,
        "uniform in h": spread <= 1.5e-3,
        "damped sigma positive": min(v for (eps_v, _, _), v in sigma.items() if eps_v) > 0.0,
        "L/E bounds": 1.968 <= lower and upper <= 2.032,
        "run contracts at sigma": margin >= 0.0,
        "run within the bounds": 1.0 / upper <= min(ratio) and max(ratio) <= 1.0 / lower,
    }
    ok = all(checks.values())
    report(11, "Lyapunov contraction", ok,
           "damped sigma " + ", ".join(f"{sigma[0.25, k, 1024]:.3f}" for k in steps)
           + "; one field undamped " + ", ".join(f"{sigma[0.0, k, 1024]:.3f}" for k in steps)
           + f"; L/E in [{lower:.3f}, {upper:.3f}]; run rates exceed sigma by {margin:.3f}")
    assert ok, checks
