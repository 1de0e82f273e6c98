import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles

from coupledwave import assembly as asm
from coupledwave import energy as en
from coupledwave import mesh as msh
from coupledwave import mms, scheme, sparse_linalg
from coupledwave.sparse_linalg import SolverConfig, SolverFailure, solve_spd

# criterion 6's damping grid plus equal nonzero damping
DAMPINGS = ((0.0, 0.0), (0.5, 0.0), (0.5, 0.25), (0.5, 0.5))


def params_for(k=0.1, T=1.0, **kw):
    defaults = dict(c=1.0, eps_u=0.0, eps_v=0.0, alpha=1.0)
    defaults.update(kw)
    return scheme.SchemeParams(k=k, T=T, **defaults)


def matrices(m):
    return asm.assemble_mass(m), asm.assemble_stiffness(m)


def decoupled(op):
    """The rotated system blockdiag(A_1, A_2) of ``op`` as one 2N x 2N matrix."""
    return sp.block_diag(op.blocks, format="csr")


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
        got = rotate @ (decoupled(op) @ (rotate.T @ x))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("eps_u,eps_v", DAMPINGS)
def test_decoupled_blocks_symmetric_with_positive_diagonal(eps_u, eps_v):
    m = msh.generate_unit_square(8)
    mass, stiff = matrices(m)
    op = scheme.BlockOperator(mass, stiff, params_for(k=0.01, T=2.0, eps_u=eps_u, eps_v=eps_v))
    n, A = mass.shape[0], decoupled(op)
    assert A[:n, n:].nnz == 0 and A[n:, :n].nnz == 0
    for block in op.blocks:
        assert (block - block.T).nnz == 0
        assert (block.diagonal() > 0.0).all()


# the structured square's K holds explicit zeros, which the pattern keeps
@pytest.mark.parametrize("kind", ["square", "interval", "structured"])
def test_decoupled_is_scipys_block_diagonal_bitwise(kind):
    m = {"square": lambda: oracles.jittered_square(32, seed=7),
         "interval": lambda: msh.generate_unit_interval(200),
         "structured": lambda: msh.generate_unit_square(8)}[kind]()
    mass, stiff = matrices(m)
    p = params_for(k=0.01, T=2.0, eps_u=0.5, eps_v=0.25)
    op = scheme.BlockOperator(mass, stiff, p)
    lam, _ = np.linalg.eigh([[p.eps_u / p.k, -p.alpha], [-p.alpha, p.eps_v / p.k]])
    shared = (1.0 / (p.k * p.k) + p.alpha) * mass + p.c**2 * stiff
    for got, want in zip(op.blocks, [shared + lam_i * mass for lam_i in lam], strict=True):
        assert type(got) is type(want) and got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# the range SchemeParams admits: eps/k from 0 (both, one, equal) to 1e12, alpha 1e-6 to 1e6
EIGH_DIAGONALS = (0.0, *np.geomspace(1e-3, 1e12, 9))
EIGH_ALPHAS = np.geomspace(1e-6, 1e6, 20)


def test_closed_form_rotation_matches_lapack():
    eps = np.finfo(float).eps
    bitwise = 0
    for a in EIGH_DIAGONALS:
        for c in EIGH_DIAGONALS:
            for alpha in EIGH_ALPHAS:
                matrix = np.array([[a, -alpha], [-alpha, c]])
                lam, q = scheme._eigh_2x2(a, -alpha, c)
                want_lam, want_q = np.linalg.eigh(matrix)
                bitwise += lam.tobytes() == want_lam.tobytes() and q.tobytes() == want_q.tobytes()
                norm = np.abs(lam).max()
                assert lam[0] <= lam[1]
                assert np.abs(lam - want_lam).max() <= 4 * np.spacing(norm), (a, alpha, c)
                assert np.abs(q.T @ q - np.eye(2)).max() <= 4 * eps
                assert abs((q.T @ matrix @ q)[0, 1]) <= 4 * eps * norm
                # a column is fixed up to sign only as far as the eigenvalue gap allows
                for got, want in zip(q.T, want_q.T):
                    sign = 1.0 if got @ want >= 0.0 else -1.0
                    assert (np.abs(got - sign * want).max() * (lam[1] - lam[0])
                            <= 4 * eps * norm), (a, alpha, c)
    # LAPACK's eigh takes the same DLAEV2 steps: 1669 of the 2000 agree bitwise
    # with numpy 2.4's OpenBLAS, where a naive closed form matched 75
    assert bitwise >= 1500, bitwise


def test_block_operator_rejects_matrices_of_two_patterns():
    mass, stiff = matrices(msh.generate_unit_square(8))
    stiff.eliminate_zeros()  # 289 -> 217 entries
    assert (mass.nnz, stiff.nnz) == (289, 217)
    with pytest.raises(ValueError, match="do not share one sparsity pattern"):
        scheme.BlockOperator(mass, stiff, params_for(k=0.01, T=2.0))


def test_blocks_and_stiffness_index_the_mass_matrixs_arrays():
    # one copy of the sparsity pattern: K is re-pointed at M's arrays, both
    # blocks are built on them, and K's products are unchanged
    m = oracles.jittered_square(8, seed=3)
    mass, stiff = matrices(m)
    x = np.random.default_rng(0).standard_normal(mass.shape[0])
    before = stiff @ x
    op = scheme.BlockOperator(mass, stiff, params_for(k=0.01, T=2.0, eps_u=0.5, eps_v=0.25))
    for matrix in (stiff, *op.blocks):
        assert np.shares_memory(matrix.indices, mass.indices)
        assert np.shares_memory(matrix.indptr, mass.indptr)
    assert (stiff @ x).tobytes() == before.tobytes()


def test_block_operator_build_peaks_under_one_and_a_half_times_what_it_keeps():
    # N = 16129: the scipy sums and block arrays built on the way peaked at 3.8x
    mass, stiff = matrices(oracles.jittered_square(128, seed=3))
    p = params_for(k=0.01, T=2.0, eps_u=0.5, eps_v=0.25)
    _, peak, kept = oracles.traced_memory(scheme.BlockOperator, mass, stiff, p)
    assert peak < 1.5 * kept, peak / kept


def test_block_operator_rejects_overflowing_stiffness():
    # c^2 is finite, but c^2 K is not on a fine 1D mesh
    m = msh.generate_unit_interval(1000)
    p = params_for(c=1.3e154, k=0.01, T=0.1)
    with pytest.raises(ValueError, match=r"^c = 1.3e\+154 .*not finite"):
        scheme.BlockOperator(*matrices(m), p)


def coupled_residual(op, state, new):
    """(||b - A x||, ||b||) of the step from ``state`` to ``new`` on the coupled matrix."""
    p, mass = op.params, op.mass
    b = np.concatenate([
        mass @ ((2.0 * s_curr - s_prev) / p.k**2 + (eps / p.k) * s_curr)
        for s_prev, s_curr, eps in ((state.u_prev, state.u_curr, p.eps_u),
                                    (state.v_prev, state.v_curr, p.eps_v))
    ])
    x = np.concatenate([new.u_curr, new.v_curr])
    return np.linalg.norm(b - op.matrix @ x), np.linalg.norm(b)


def test_warm_started_step_meets_rule_on_coupled_matrix():
    m = msh.generate_unit_square(6)
    p = params_for(k=0.05, T=0.5, eps_u=0.5, eps_v=0.25)
    mass, stiff = matrices(m)
    op = scheme.BlockOperator(mass, stiff, p, SolverConfig(rel_tol=1e-8))
    state = scheme.initialize(m, p, *scheme.initial_preset("sine-opposed"))
    for _ in range(4):
        new = scheme.step(state, op)
        residual, b_norm = coupled_residual(op, state, new)
        assert residual <= 1e-8 * b_norm
        state = new


def test_block_solves_keep_the_coupled_rule_at_their_own_counts(monkeypatch):
    # block 1 stops at ||r_1||^2 <= tau^2 / 2 and block 2 at tau^2 - ||r_1||^2,
    # so the coupled rule holds although the blocks take different counts: the
    # worst step reads 0.993 tau, where stopping each block at tau read 1.106 tau
    m = msh.generate_unit_square(24)
    p = params_for(k=0.01, T=1.0, eps_u=0.5, eps_v=0.25)
    mass, stiff = matrices(m)
    op = scheme.BlockOperator(mass, stiff, p)
    assert op.inverse is None and op.config.rel_tol == 1e-12
    iterations = counting_iterations(monkeypatch)
    state = scheme.initialize(m, p, *scheme.initial_preset("sine"))
    for _ in range(p.M_steps - 1):
        new = scheme.step(state, op)
        residual, b_norm = coupled_residual(op, state, new)
        assert residual <= 1e-12 * b_norm
        state = new
    first, second = iterations[0::2], iterations[1::2]
    assert (first[0], second[0]) == (7, 9) and sum(first) < sum(second)
    # a budget that block 1 meets on the first step but block 2 does not
    with pytest.raises(SolverFailure, match=r"^advancing to level 2 \(t = 0.02\) failed: "
                                            r"conjugate gradient .* in 8 iterations"):
        scheme.run(m, mass, stiff, p, scheme.initial_preset("sine"),
                   config=SolverConfig(max_iter=8))


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

    def record(A, b, config=None, x0=None, inv_diag=None, residual=None):
        calls.append((b, x0, inv_diag))
        return solve(A, b, config, x0=x0, inv_diag=inv_diag, residual=residual)

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
        exact = solve_spd(op.blocks, b, SolverConfig(method="cholesky"))

        def a_error(x):
            e = x - exact
            return float(e @ (decoupled(op) @ e))

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
    # every recorded A x is the zero right-hand side's r = 0
    assert len(op._history) == 3 and not any(ax.any() for _, ax in op._history)
    # G is zero here, so the projection declines, and d . A d = 0 stops the line search
    assert op.projected_guess(state, np.ones(2 * op.n_field)) is None


@pytest.mark.parametrize("overflow", ["gram", "guess", "line"])
def test_projection_falls_back_on_overflow(overflow):
    # "gram": the Gram products of a huge history overflow, and so does the
    # line search's d . A d; "guess": G is finite and well conditioned, but the
    # combination of two nearly parallel solutions that a huge right-hand side
    # needs does not fit in a float; "line": G declines over three nearly
    # parallel solutions and the line search's step t d overflows
    m = msh.generate_unit_square(4)
    p = params_for(k=0.1, T=0.6)
    op = scheme.BlockOperator(*matrices(m), p)
    A = decoupled(op)
    n = A.shape[0]
    rng = np.random.default_rng(0)
    state = scheme.initialize(m, p, *scheme.initial_preset("sine"))
    older = rng.standard_normal(n)
    newer = older + 1e-4 * rng.standard_normal(n)
    b = 1e305 * (A @ rng.standard_normal(n))
    history = (older, newer)
    if overflow == "gram":
        history, b = (1e200 * older, -0.5e200 * older), np.ones(n)
    elif overflow == "line":
        history = (older, older + 1e-8 * newer, older + 2e-8 * newer)
    for x in history:
        op.record(x, A @ x, state)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert op.projected_guess(state, b) is None


def decaying_history(op, state, count):
    """Record ``count`` exact solves (x, A x), 0.9^j x + 1e-6 j^2 z for j = 0, 1, ...

    One decaying direction, with an offset small enough that d stays within
    an A-angle of about 1e-4 of x_n, so the projection declines.
    """
    A = decoupled(op)
    x, z = np.random.default_rng(2).standard_normal((2, A.shape[0]))
    for j in range(count):
        v = 0.9**j * x + 1e-6 * j * j * z
        op.record(v, A @ v, state)
    return [v for v, _ in op._history]


def next_right_hand_side(op, xs):
    """A x for an x that continues the recorded decay, off its line by 1e-9."""
    A = decoupled(op)
    w = np.random.default_rng(3).standard_normal(A.shape[0])
    return A @ (0.9 * xs[0] + 1e-9 * w)


def gram_declines(A, x, d):
    """Whether det G <= GRAM_TOL g11 g22 for G = [x, d]^T A [x, d], from explicit products."""
    g11, g12, g22 = x @ (A @ x), x @ (A @ d), d @ (A @ d)
    return g11 * g22 - g12 * g12 <= scheme.GRAM_TOL * g11 * g22


def line_search_step(op, xs, d, b):
    """t d with b - A (x_n + t d) orthogonal to d, from explicit products."""
    A = decoupled(op)
    return (d @ (b - A @ xs[0])) / (d @ (A @ d)) * d


def assert_line_search(op, xs, d, b, x0):
    # A d from the recorded products carries their rounding, eps ||A x||
    # (about 1e-14 of the step here)
    step = line_search_step(op, xs, d, b)
    np.testing.assert_allclose(x0 - xs[0], step, rtol=0, atol=1e-10 * np.abs(step).max())
    # the start's residual is orthogonal to d at the rounding level
    assert abs(d @ (b - decoupled(op) @ x0)) <= 1e-14 * np.linalg.norm(d) * np.linalg.norm(b)


def test_projection_declines_nearly_parallel_solutions():
    # over two solves d = x_n - x_{n-1}, within an A-angle of about 1e-5 of
    # x_n: det G is positive but below GRAM_TOL g11 g22, so the projection
    # declines and the line search along d answers
    m = msh.generate_unit_square(4)
    p = params_for(k=0.1, T=0.6)
    op = scheme.BlockOperator(*matrices(m), p)
    state = scheme.initialize(m, p, *scheme.initial_preset("sine"))
    xs = decaying_history(op, state, 2)
    d = xs[0] - xs[1]
    assert gram_declines(decoupled(op), xs[0], d)
    b = next_right_hand_side(op, xs)
    assert_line_search(op, xs, d, b, op.projected_guess(state, b))


def test_line_search_takes_the_second_order_step_over_three_solves():
    m = msh.generate_unit_square(4)
    p = params_for(k=0.1, T=0.6)
    op = scheme.BlockOperator(*matrices(m), p)
    state = scheme.initialize(m, p, *scheme.initial_preset("sine"))
    xs = decaying_history(op, state, 4)  # the oldest of four drops out
    assert len(xs) == 3
    d = 2.0 * xs[0] - 3.0 * xs[1] + xs[2]
    assert gram_declines(decoupled(op), xs[0], d)
    b = next_right_hand_side(op, xs)
    x0 = op.projected_guess(state, b)
    assert_line_search(op, xs, d, b, x0)
    # which is not the line along x_n - x_{n-1}
    first = line_search_step(op, xs, xs[0] - xs[1], b)
    assert np.abs(x0 - xs[0] - first).max() > 1e-6 * np.abs(first).max()


def test_projection_over_two_solves_spans_the_last_two_solutions():
    # span{x_n, x_n - x_{n-1}} = span{x_n, x_{n-1}}: the start is the Galerkin
    # solution over the last two solutions, taken here by a dense 2 x 2 solve
    m = msh.generate_unit_square(4)
    p = params_for(k=0.1, T=0.6)
    op = scheme.BlockOperator(*matrices(m), p)
    A = decoupled(op)
    state = scheme.initialize(m, p, *scheme.initial_preset("sine"))
    rng = np.random.default_rng(4)
    older = rng.standard_normal(A.shape[0])
    newer = older + 0.1 * rng.standard_normal(A.shape[0])
    for x in (older, newer):
        op.record(x, A @ x, state)
    b = A @ rng.standard_normal(A.shape[0])
    X = np.column_stack([newer, older])
    expected = X @ np.linalg.solve(X.T @ (A @ X), X.T @ b)
    x0 = op.projected_guess(state, b)
    np.testing.assert_allclose(x0, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


def test_projection_is_no_worse_than_line_search_or_quadratic_extrapolation(
        monkeypatch, projected_start):
    # over three solves span{x_n, d} holds the line x_n + t d, and x_n + d
    # with it, so the start's A-norm error is at most either one's
    m = oracles.jittered_square(10, seed=3)
    p = params_for(k=0.02, T=0.4, eps_u=0.5, eps_v=0.25)
    op = scheme.BlockOperator(*matrices(m), p, SolverConfig(rel_tol=1e-14))
    A = decoupled(op)
    starts = []
    projected_guess = scheme.BlockOperator.projected_guess

    def spy(self, state, b):
        x0 = projected_guess(self, state, b)
        if len(self._history) == 3:
            starts.append(([x for x, _ in self._history], b, x0))
        return x0

    monkeypatch.setattr(scheme.BlockOperator, "projected_guess", spy)
    state = scheme.initialize(m, p, *scheme.initial_preset("sine-opposed"))
    for _ in range(10):
        state = scheme.step(state, op)
    assert len(starts) == 7
    for (x1, x2, x3), b, x0 in starts:
        exact = solve_spd(A, b, SolverConfig(method="cholesky"))

        def a_error(x):
            e = x - exact
            return float(e @ (A @ e))

        d = 2.0 * x1 - 3.0 * x2 + x3
        line = x1 + (d @ (b - A @ x1)) / (d @ (A @ d)) * d
        assert a_error(x0) <= a_error(line)
        assert a_error(x0) <= a_error(x1 + d)


def test_recorded_product_is_the_operator_applied_to_the_solution(monkeypatch, projected_start):
    # A x is recorded as b - r from CG's final residual, with no product taken;
    # on a fine-mesh-sized system it equals the product to rounding
    m = oracles.jittered_square(128, seed=5)
    p = params_for(k=0.01, T=0.05, eps_u=0.5, eps_v=0.25)
    op = scheme.BlockOperator(*matrices(m), p)
    calls = recording_solves(monkeypatch)
    state = scheme.initialize(m, p, *scheme.initial_preset("sine"))
    for _ in range(3):
        state = scheme.step(state, op)
    assert len(op._history) == 3
    A = decoupled(op)
    for (b, _, _), (x, ax) in zip(reversed(calls), op._history):
        assert np.linalg.norm(ax - A @ x) <= 1e-14 * np.linalg.norm(b)


def test_projection_applies_only_to_the_state_it_recorded(projected_start):
    m = msh.generate_unit_square(4)
    p = params_for(k=0.1, T=1.0, eps_u=0.5)
    op = scheme.BlockOperator(*matrices(m), p)
    state = scheme.initialize(m, p, *scheme.initial_preset("sine"))
    for _ in range(3):
        state = scheme.step(state, op)
    b = np.ones(2 * op.n_field)
    assert len(op._history) == 3 and op.projected_guess(state, b) is not None
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
    inverses = []
    jacobi_inverse = scheme.jacobi_inverse

    def counting(A):
        inverses.append(jacobi_inverse(A))
        return inverses[-1]

    # the operator computes one per block as it is built, and every solve reuses them
    monkeypatch.setattr(scheme, "jacobi_inverse", counting)
    scheme.run(m, *matrices(m), p, scheme.initial_preset("sine"))
    assert len(calls) == p.M_steps - 1
    assert len(inverses) == 2 and all(c[2][0] is inverses[0] and c[2][1] is inverses[1]
                                      for c in calls)


def counting_iterations(monkeypatch):
    """Record the iteration count of every CG solve, two per step: block 1, then block 2."""
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
    # CG computed b - A x0 on both blocks of every solve and found nothing to do
    assert iterations == [0] * (2 * (p.M_steps - 1))
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


def test_dense_start_that_is_not_finite_is_a_value_error():
    # the inverses and b are finite but their product overflows: the step
    # rejects the start, with no extrapolated start standing in for it
    m = msh.generate_unit_square(4)
    p = params_for(k=0.1, T=0.6)
    op = scheme.BlockOperator(*matrices(m), p)
    op.inverse = np.full_like(op.inverse, 1e308)
    state = scheme.initialize(m, p, *scheme.initial_preset("sine"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="the initial guess is not finite"):
            scheme.step(state, op)
    assert op._history == []


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


def test_line_search_keeps_a_single_mode_run_inside_criterion_one():
    # one discrete mode excited: the earlier solves' residuals lie along it.
    # Recording b instead of A x = b - r biased t along that mode and took the
    # identity residual to 1.4 times criterion 1's budget; it reads 6.3e-4 of it
    m = msh.generate_unit_interval(1024)
    mass, stiff = matrices(m)
    p = scheme.SchemeParams(c=3.0, eps_u=0.1, eps_v=0.1, alpha=5.0, k=5e-4, T=0.2)
    tracker = en.EnergyTracker(mass, stiff, p)
    scheme.run(m, mass, stiff, p, scheme.initial_preset("sine-opposed"), observer=tracker)
    budget = 1e-10 * max(tracker.table["E"][0], 1.0)
    assert tracker.max_identity_residual <= 1e-3 * budget


def test_line_search_start_beats_extrapolation_where_the_projection_declines(monkeypatch):
    # the 1D manufactured solution is one discrete mode of the uniform interval
    # times e^{-t}, so d is nearly parallel to x_n and most solves decline the
    # projection
    declined = []
    projected_guess = scheme.BlockOperator.projected_guess

    def spy(op, state, b):
        x0 = projected_guess(op, state, b)
        if len(op._history) == 3:
            (x1, _), (x2, _), (x3, _) = op._history
            d = 2.0 * x1 - 3.0 * x2 + x3
            if gram_declines(decoupled(op), x1, d):
                declined.append((decoupled(op), b, x0, d, 2.0 * x1 - x2))
        return x0

    monkeypatch.setattr(scheme.BlockOperator, "projected_guess", spy)
    p = params_for(k=0.005, T=0.1, eps_u=0.5, eps_v=0.25)
    mms.measure_error(mms.build_case("separable-decay-1d", p), msh.generate_unit_interval(512), p)
    assert len(declined) >= 10
    solve = spla.splu(declined[0][0].tocsc()).solve
    for A, b, x0, d, extrapolated in declined:
        exact = solve(b)

        def a_error(x):
            e = x - exact
            return float(e @ (A @ e))

        assert a_error(x0) <= a_error(extrapolated)
        # the start is the line search: its residual is orthogonal to d
        assert abs(d @ (b - A @ x0)) <= 1e-12 * np.linalg.norm(d) * np.linalg.norm(b)


@pytest.mark.parametrize("route", ["projection", "line-search"])
def test_projected_start_keeps_cg_iterations_down(monkeypatch, route):
    # total block products (CG iterations over both blocks) with the start onto
    # span{x_n, d}; one CG over both blocks took 617 and 1067 iterations of two
    # products each, and the earlier start (a projection over x_n, x_{n-1} with
    # a separate line search) 677 and 1067
    iterations = counting_iterations(monkeypatch)
    if route == "projection":
        p, bound = params_for(k=0.01, T=1.0, eps_u=0.5, eps_v=0.25), 1234
        m = msh.generate_unit_square(24)
        scheme.run(m, *matrices(m), p, scheme.initial_preset("sine-opposed"))
    else:
        p, bound = params_for(k=0.005, T=1.0, eps_u=0.5, eps_v=0.25), 2134
        mms.measure_error(mms.build_case("separable-decay-1d", p),
                          msh.generate_unit_interval(512), p)
    assert len(iterations) == 2 * (p.M_steps - 1)
    assert sum(iterations) <= bound
