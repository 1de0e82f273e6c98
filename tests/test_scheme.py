import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import oracles

from coupledwave import assembly as asm
from coupledwave import mesh as msh
from coupledwave import scheme, sparse_linalg
from coupledwave.sparse_linalg import SolverConfig, SolverFailure, solve_spd

# criterion 6's damping grid plus equal nonzero damping
DAMPINGS = ((0.0, 0.0), (0.5, 0.0), (0.5, 0.25), (0.5, 0.5))


def params_for(k=0.1, T=1.0, **kw):
    defaults = dict(c=1.0, eps_u=0.0, eps_v=0.0, alpha=1.0)
    defaults.update(kw)
    return scheme.SchemeParams(k=k, T=T, **defaults)


def matrices(m):
    return asm.assemble_mass(m), asm.assemble_stiffness(m)


def test_params_validation():
    with pytest.raises(ValueError, match="wave speed"):
        params_for(c=0.0)
    with pytest.raises(ValueError, match="damping"):
        params_for(eps_u=-0.1)
    with pytest.raises(ValueError, match="coupling"):
        params_for(alpha=0.0)
    with pytest.raises(ValueError, match="time step"):
        params_for(k=-0.1)
    with pytest.raises(ValueError, match="time grid"):
        params_for(k=0.3, T=1.0)


def test_from_final_time_counts_steps():
    p = params_for(k=0.01, T=2.0)
    assert p.M_steps == 200
    assert p.M_steps * p.k == pytest.approx(p.T, rel=1e-15)


def test_block_operator_exactly_symmetric_and_positive(rng):
    m = msh.generate_unit_square(4)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    op = scheme.BlockOperator(mass, stiff, params_for(eps_u=0.5, eps_v=0.25))
    A = op.matrix
    assert A.shape == (2 * mass.shape[0], 2 * mass.shape[0])
    assert (A - A.T).nnz == 0
    for _ in range(100):
        x = rng.standard_normal(A.shape[0])
        assert x @ (A @ x) > 0.0


@pytest.mark.parametrize("eps_u,eps_v", DAMPINGS)
def test_rotated_decoupled_matrix_equals_coupled_matrix(rng, eps_u, eps_v):
    m = msh.generate_unit_square(8)
    mass, stiff = matrices(m)
    op = scheme.BlockOperator(mass, stiff, params_for(k=0.01, T=2.0, eps_u=eps_u, eps_v=eps_v))
    rotate = sp.kron(op.rotation, sp.identity(mass.shape[0]), format="csr")
    for _ in range(10):
        x = rng.standard_normal(op.matrix.shape[0])
        want = op.matrix @ x
        got = rotate @ (op.decoupled @ (rotate.T @ x))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("eps_u,eps_v", DAMPINGS)
def test_decoupled_blocks_symmetric_with_positive_diagonal(eps_u, eps_v):
    m = msh.generate_unit_square(8)
    mass, stiff = matrices(m)
    op = scheme.BlockOperator(mass, stiff, params_for(k=0.01, T=2.0, eps_u=eps_u, eps_v=eps_v))
    n = mass.shape[0]
    assert op.decoupled[:n, n:].nnz == 0 and op.decoupled[n:, :n].nnz == 0
    for block in (op.decoupled[:n, :n], op.decoupled[n:, n:]):
        assert (block - block.T).nnz == 0
        assert (block.diagonal() > 0.0).all()


def test_block_operator_rejects_overflowing_stiffness():
    # c^2 is finite, but c^2 K is not on a fine 1D mesh
    m = msh.generate_unit_interval(1000)
    p = params_for(c=1.3e154, k=0.01, T=0.1)
    with pytest.raises(ValueError, match=r"^c = 1.3e\+154 .*not finite"):
        scheme.BlockOperator(*matrices(m), p)


def test_warm_started_step_meets_rule_on_coupled_matrix():
    m = msh.generate_unit_square(6)
    p = params_for(k=0.05, T=0.5, eps_u=0.5, eps_v=0.25)
    mass, stiff = matrices(m)
    op = scheme.BlockOperator(mass, stiff, p, SolverConfig(rel_tol=1e-8))
    state = scheme.initialize(m, p, *scheme.initial_preset("sine-opposed"))
    for _ in range(4):
        new = scheme.step(state, op)
        b = np.concatenate([
            mass @ ((2.0 * s_curr - s_prev) / p.k**2 + (eps / p.k) * s_curr)
            for s_prev, s_curr, eps in ((state.u_prev, state.u_curr, p.eps_u),
                                        (state.v_prev, state.v_curr, p.eps_v))
        ])
        x = np.concatenate([new.u_curr, new.v_curr])
        assert np.linalg.norm(b - op.matrix @ x) <= 1e-8 * np.linalg.norm(b)
        state = new


def test_cg_and_cholesky_steps_agree():
    m = msh.generate_unit_square(6)
    p = params_for(k=0.05, T=0.5, eps_u=0.5, eps_v=0.25)
    mass, stiff = matrices(m)
    state = scheme.initialize(m, p, *scheme.initial_preset("sine-opposed"))
    cg = scheme.step(state, scheme.BlockOperator(mass, stiff, p, SolverConfig(rel_tol=1e-14)))
    chol = scheme.step(state, scheme.BlockOperator(mass, stiff, p, SolverConfig(method="cholesky")))
    scale = max(np.abs(chol.u_curr).max(), np.abs(chol.v_curr).max())
    assert np.abs(cg.u_curr - chol.u_curr).max() <= 1e-10 * scale
    assert np.abs(cg.v_curr - chol.v_curr).max() <= 1e-10 * scale


@pytest.mark.parametrize("method,coupled_built", [("cg", False), ("cholesky", True)])
def test_only_cholesky_builds_coupled_matrix(monkeypatch, method, coupled_built):
    built = []
    make = scheme.BlockOperator

    def capture(*args):
        built.append(make(*args))
        return built[-1]

    monkeypatch.setattr(scheme, "BlockOperator", capture)
    m = msh.generate_unit_square(4)
    scheme.run(m, *matrices(m), params_for(k=0.1, T=0.5, eps_u=0.5),
               scheme.initial_preset("sine"), config=SolverConfig(method=method))
    assert len(built) == 1
    assert ("matrix" in built[0].__dict__) is coupled_built


def test_initialize_startup_levels():
    m = msh.generate_unit_interval(4)
    p = params_for(k=0.25, T=1.0)
    u0 = lambda pts: pts[:, 0] * (1.0 - pts[:, 0])
    u1 = lambda pts: np.ones(len(pts))
    zero = lambda pts: np.zeros(len(pts))
    state = scheme.initialize(m, p, u0, u1, zero, zero)
    assert state.n == 1
    np.testing.assert_array_equal(state.u_prev, asm.interpolate(m, u0))
    np.testing.assert_array_equal(state.u_curr, state.u_prev + 0.25)
    assert (state.v_curr == 0.0).all()


def test_step_matches_two_by_two_cramer_solve():
    # single interior vertex: the block system is 2x2 and solvable by hand
    m = msh.generate_unit_square(2)
    p = params_for(k=0.1, T=1.0)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    op = scheme.BlockOperator(mass, stiff, p, SolverConfig(rel_tol=1e-15))
    one = np.ones(1)
    state = scheme.State(1, one, one, np.zeros(1), np.zeros(1))
    out = scheme.step(state, op)

    m_val, k_val = mass[0, 0], stiff[0, 0]
    assert (m_val, k_val) == (pytest.approx(0.125, rel=1e-15), pytest.approx(4.0, rel=1e-15))
    a = m_val / p.k**2 + p.c**2 * k_val + p.alpha * m_val  # 16.625
    g = p.alpha * m_val  # 0.125
    b_u = m_val * (2.0 - 1.0) / p.k**2  # 12.5
    det = a * a - g * g
    np.testing.assert_allclose(out.u_curr, [a * b_u / det], rtol=1e-13)
    np.testing.assert_allclose(out.v_curr, [g * b_u / det], rtol=1e-13)
    assert out.n == 2


def test_zero_state_stays_zero():
    m = msh.generate_unit_square(3)
    p = params_for(k=0.1, T=0.5)
    final = scheme.run(m, *matrices(m), p, scheme.initial_preset("zero"))
    assert (final.u_curr == 0.0).all()
    assert (final.v_curr == 0.0).all()
    assert final.n == p.M_steps


def test_exchange_symmetry_of_fields():
    # swapping (u0, u1, eps_u) with (v0, v1, eps_v) must swap the solution
    m = msh.generate_unit_square(4)
    fwd = params_for(k=0.05, T=0.5, eps_u=0.5, eps_v=0.125)
    bwd = params_for(k=0.05, T=0.5, eps_u=0.125, eps_v=0.5)
    mode, zero, anti, _ = scheme.initial_preset("sine-opposed")
    a = scheme.run(m, *matrices(m), fwd, (mode, zero, anti, zero))
    b = scheme.run(m, *matrices(m), bwd, (anti, zero, mode, zero))
    scale = np.abs(a.u_curr).max()
    assert np.abs(a.u_curr - b.v_curr).max() < 1e-12 * scale
    assert np.abs(a.v_curr - b.u_curr).max() < 1e-12 * scale


def test_identical_fields_stay_identical():
    # with equal damping and identical data the coupling term vanishes, so
    # both fields follow the same decoupled wave equation
    m = msh.generate_unit_interval(8)
    p = params_for(k=0.05, T=0.5, eps_u=0.25, eps_v=0.25, alpha=3.0)
    mode, zero, _, _ = scheme.initial_preset("sine")
    final = scheme.run(m, *matrices(m), p, (mode, zero, mode, zero))
    scale = np.abs(final.u_curr).max()
    assert np.abs(final.u_curr - final.v_curr).max() < 1e-12 * scale


def test_step_is_deterministic():
    m = msh.generate_unit_square(3)
    p = params_for(k=0.1, T=1.0, eps_u=0.5)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    op = scheme.BlockOperator(mass, stiff, p)
    state = scheme.initialize(m, p, *scheme.initial_preset("sine"))
    a = scheme.step(state, op)
    b = scheme.step(state, op)
    np.testing.assert_array_equal(a.u_curr, b.u_curr)
    np.testing.assert_array_equal(a.v_curr, b.v_curr)


def test_run_observer_sees_every_level():
    m = msh.generate_unit_interval(6)
    p = params_for(k=0.1, T=1.0)
    seen = []
    scheme.run(m, *matrices(m), p, scheme.initial_preset("sine"),
               observer=lambda s: seen.append(s.n))
    assert seen == list(range(1, p.M_steps + 1))


def test_run_reports_failing_step(projected_start):
    m = msh.generate_unit_square(4)
    p = params_for(k=0.001, T=0.01)
    cfg = SolverConfig(rel_tol=1e-14, max_iter=1)
    with pytest.raises(SolverFailure, match="advancing to level 2"):
        scheme.run(m, *matrices(m), p, scheme.initial_preset("sine"), config=cfg)


def test_sources_receive_target_time():
    m = msh.generate_unit_interval(6)
    p = params_for(k=0.25, T=1.0)
    times = []

    def sources(t):
        times.append(t)
        return None, None

    scheme.run(m, *matrices(m), p, scheme.initial_preset("zero"), sources=sources)
    np.testing.assert_allclose(times, [0.5, 0.75, 1.0])


def test_initial_preset_names():
    for name in ("zero", "sine", "sine-opposed"):
        fields = scheme.initial_preset(name)
        assert len(fields) == 4
    with pytest.raises(ValueError, match="unknown initial preset"):
        scheme.initial_preset("gaussian")
    mode = scheme.initial_preset("sine")[0]
    np.testing.assert_allclose(
        mode(np.array([[0.0], [0.5], [1.0]])), [0.0, 1.0, 0.0], atol=1e-15
    )
    opposed = scheme.initial_preset("sine-opposed")
    pts = np.array([[0.25, 0.75]])
    assert opposed[2](pts) == -opposed[0](pts)


def recording_solves(monkeypatch):
    """Record (b, x0, inv_diag) of every solve the scheme starts."""
    calls = []
    solve = scheme.solve_spd

    def record(A, b, config=None, x0=None, inv_diag=None):
        calls.append((b, x0, inv_diag))
        return solve(A, b, config, x0=x0, inv_diag=inv_diag)

    monkeypatch.setattr(scheme, "solve_spd", record)
    return calls


def test_projected_guess_is_no_worse_than_extrapolation(monkeypatch, projected_start):
    m = oracles.jittered_square(10, seed=3)
    p = params_for(k=0.02, T=0.4, eps_u=0.5, eps_v=0.25)
    mass, stiff = matrices(m)
    op = scheme.BlockOperator(mass, stiff, p, SolverConfig(rel_tol=1e-14))
    calls = recording_solves(monkeypatch)
    states = [scheme.initialize(m, p, *scheme.initial_preset("sine-opposed"))]
    for _ in range(8):
        states.append(scheme.step(states[-1], op))
    q = op.rotation
    projected = 0
    for state, (b, x0, _) in zip(states, calls):
        extrapolated = np.concatenate(scheme._rotate(
            q.T, 2.0 * state.u_curr - state.u_prev, 2.0 * state.v_curr - state.v_prev))
        exact = solve_spd(op.decoupled, b, SolverConfig(method="cholesky"))

        def a_error(x):
            e = x - exact
            return float(e @ (op.decoupled @ e))

        assert a_error(x0) <= a_error(extrapolated)
        projected += not np.array_equal(x0, extrapolated)
    # the first two solves have fewer than two stored pairs; every later one projects
    assert projected == len(calls) - 2


def test_rest_state_never_builds_a_nan_guess(monkeypatch, projected_start):
    m = msh.generate_unit_square(4)
    p = params_for(k=0.1, T=0.6)
    mass, stiff = matrices(m)
    op = scheme.BlockOperator(mass, stiff, p)
    calls = recording_solves(monkeypatch)
    state = scheme.initialize(m, p, *scheme.initial_preset("zero"))
    for _ in range(4):
        state = scheme.step(state, op)
        assert (state.u_curr == 0.0).all() and (state.v_curr == 0.0).all()
    assert len(calls) == 4
    assert all(np.isfinite(x0).all() for _, x0, _ in calls)
    # G is zero here, so the projection declines
    assert op.projected_guess(state, np.ones(op.decoupled.shape[0])) is None


@pytest.mark.parametrize("overflow", ["gram", "guess"])
def test_projection_falls_back_on_overflow(overflow):
    # "gram": the Gram products of a huge history overflow; "guess": G is finite
    # and well conditioned, but the combination of two nearly parallel
    # solutions that a huge right-hand side needs does not fit in a float
    m = msh.generate_unit_square(4)
    p = params_for(k=0.1, T=0.6)
    op = scheme.BlockOperator(*matrices(m), p)
    n = op.decoupled.shape[0]
    rng = np.random.default_rng(0)
    state = scheme.initialize(m, p, *scheme.initial_preset("sine"))
    older = rng.standard_normal(n)
    newer = older + 1e-4 * rng.standard_normal(n)
    b = 1e305 * (op.decoupled @ rng.standard_normal(n))
    if overflow == "gram":
        older, newer, b = 1e200 * older, -0.5e200 * older, np.ones(n)
    op.record(older, op.decoupled @ older, state)
    op.record(newer, op.decoupled @ newer, state)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert op.projected_guess(state, b) is None


def test_projection_declines_nearly_parallel_solutions():
    # sin^2 of their angle is about 1e-14: det G is positive but below
    # GRAM_TOL g11 g22, where G's own error would dominate its inverse
    m = msh.generate_unit_square(4)
    p = params_for(k=0.1, T=0.6)
    op = scheme.BlockOperator(*matrices(m), p)
    state = scheme.initialize(m, p, *scheme.initial_preset("sine"))
    x, y = np.random.default_rng(2).standard_normal((2, op.decoupled.shape[0]))
    for v in (x, x + 1e-7 * y):
        op.record(v, op.decoupled @ v, state)
    assert op.projected_guess(state, np.ones(op.decoupled.shape[0])) is None


def test_projection_applies_only_to_the_state_it_recorded(projected_start):
    m = msh.generate_unit_square(4)
    p = params_for(k=0.1, T=1.0, eps_u=0.5)
    op = scheme.BlockOperator(*matrices(m), p)
    state = scheme.initialize(m, p, *scheme.initial_preset("sine"))
    for _ in range(3):
        state = scheme.step(state, op)
    b = np.ones(op.decoupled.shape[0])
    assert op.projected_guess(state, b) is not None
    copy = scheme.State(state.n, state.u_prev, state.u_curr, state.v_prev, state.v_curr)
    assert op.projected_guess(copy, b) is None


def test_runs_in_one_process_do_not_share_history(projected_start):
    square, interval = msh.generate_unit_square(5), msh.generate_unit_interval(9)
    p = params_for(k=0.05, T=0.5, eps_u=0.5, eps_v=0.25)
    preset = scheme.initial_preset("sine-opposed")

    def final(m):
        return scheme.run(m, *matrices(m), p, preset)

    first, other, again = final(square), final(interval), final(square)
    for a, b in ((first, again), (other, final(interval))):
        np.testing.assert_array_equal(a.u_curr, b.u_curr)
        np.testing.assert_array_equal(a.v_curr, b.v_curr)


def test_inverse_diagonal_computed_once_per_run(monkeypatch):
    m = msh.generate_unit_square(4)
    p = params_for(k=0.1, T=0.8, eps_u=0.5)
    calls = recording_solves(monkeypatch)
    diagonals = []
    make = scheme.BlockOperator

    def counting(*args):
        op = make(*args)
        decoupled = op.decoupled
        original = decoupled.diagonal

        def diagonal(*a, **kw):
            diagonals.append(1)
            return original(*a, **kw)

        decoupled.diagonal = diagonal
        return op

    monkeypatch.setattr(scheme, "BlockOperator", counting)
    scheme.run(m, *matrices(m), p, scheme.initial_preset("sine"))
    assert len(calls) == p.M_steps - 1
    inv_diag = calls[0][2]
    assert inv_diag is not None and all(c[2] is inv_diag for c in calls)
    assert len(diagonals) == 1


def counting_iterations(monkeypatch):
    """Record the iteration count of every CG solve."""
    iterations = []
    cg = sparse_linalg.cg_jacobi

    def counted(*args, **kwargs):
        x, it, res = cg(*args, **kwargs)
        iterations.append(it)
        return x, it, res

    monkeypatch.setattr(sparse_linalg, "cg_jacobi", counted)
    return iterations


def square16():
    m = msh.generate_unit_square(16)
    return m, params_for(k=0.01, T=0.2, eps_u=0.5, eps_v=0.25), *matrices(m)


def test_dense_start_matches_cholesky_without_iterating(monkeypatch):
    m, p, mass, stiff = square16()
    op = scheme.BlockOperator(mass, stiff, p, SolverConfig(rel_tol=1e-12))
    check = scheme.BlockOperator(mass, stiff, p, SolverConfig(method="cholesky"))
    assert op.n_field == 225 and op.inverse is not None and check.inverse is None
    iterations = counting_iterations(monkeypatch)
    state = scheme.initialize(m, p, *scheme.initial_preset("sine-opposed"))
    for _ in range(p.M_steps - 1):
        new, expected = scheme.step(state, op), scheme.step(state, check)
        np.testing.assert_allclose(new.u_curr, expected.u_curr, rtol=0, atol=1e-13)
        np.testing.assert_allclose(new.v_curr, expected.v_curr, rtol=0, atol=1e-13)
        state = new
    # CG computed b - A x0 on every solve and found nothing to do
    assert iterations == [0] * (p.M_steps - 1)
    assert op._history == []


def test_dense_start_only_within_its_bound(monkeypatch):
    m, p, mass, stiff = square16()
    monkeypatch.setattr(scheme, "DENSE_START_MAX_N", 225)
    dense = scheme.BlockOperator(mass, stiff, p)
    assert dense.inverse is not None
    assert scheme.solver_start(225, SolverConfig()) == "dense inverse (2 blocks of N = 225)"
    monkeypatch.setattr(scheme, "DENSE_START_MAX_N", 224)
    op = scheme.BlockOperator(mass, stiff, p)
    assert op.inverse is None
    assert scheme.solver_start(225, SolverConfig()) == "projected (2 blocks of N = 225)"
    calls = recording_solves(monkeypatch)
    states = [scheme.initialize(m, p, *scheme.initial_preset("sine-opposed"))]
    for _ in range(4):
        states.append(scheme.step(states[-1], op))
    q = op.rotation
    for state, (b, x0, _) in zip(states[2:4], calls[2:]):
        extrapolated = np.concatenate(scheme._rotate(
            q.T, 2.0 * state.u_curr - state.u_prev, 2.0 * state.v_curr - state.v_prev))
        # the projection over the recorded history, neither extrapolated nor dense
        assert not np.array_equal(x0, extrapolated)
        assert not np.array_equal(x0, dense.dense_guess(b))
    assert op.projected_guess(states[-1], calls[-1][0]) is not None


def test_dense_start_short_of_tolerance_still_iterates(monkeypatch):
    m, p, mass, stiff = square16()
    start = scheme.initialize(m, p, *scheme.initial_preset("sine"))
    expected = scheme.step(start, scheme.BlockOperator(
        mass, stiff, p, SolverConfig(method="cholesky")))
    iterations = counting_iterations(monkeypatch)

    def scaled_start(config):
        op = scheme.BlockOperator(mass, stiff, p, config)
        op.inverse = (1.0 + 1e-6) * op.inverse  # a start 1e-6 off in relative residual
        return op

    new = scheme.step(start, scaled_start(SolverConfig(rel_tol=1e-12)))
    assert iterations[-1] > 0
    np.testing.assert_allclose(new.u_curr, expected.u_curr, rtol=0, atol=1e-11)
    np.testing.assert_allclose(new.v_curr, expected.v_curr, rtol=0, atol=1e-11)
    with pytest.raises(SolverFailure, match="in 1 iterations"):
        scheme.step(start, scaled_start(SolverConfig(rel_tol=1e-12, max_iter=1)))
