import numpy as np
import pytest

from coupledwave import assembly as asm
from coupledwave import mesh as msh
from coupledwave import scheme
from coupledwave.sparse_linalg import SolverConfig, SolverFailure


def params_for(k=0.1, T=1.0, **kw):
    defaults = dict(c=1.0, eps_u=0.0, eps_v=0.0, alpha=1.0)
    defaults.update(kw)
    return scheme.SchemeParams.from_final_time(k=k, T=T, **defaults)


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
        scheme.SchemeParams(c=1, eps_u=0, eps_v=0, alpha=1, k=0.1, T=2.0, M_steps=19)


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
    op = scheme.BlockOperator(mass, stiff, p)
    one = np.ones(1)
    state = scheme.State(1, one, one, np.zeros(1), np.zeros(1))
    out = scheme.step(state, op, mass, p, SolverConfig(rel_tol=1e-15))

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
    a = scheme.step(state, op, mass, p)
    b = scheme.step(state, op, mass, p)
    np.testing.assert_array_equal(a.u_curr, b.u_curr)
    np.testing.assert_array_equal(a.v_curr, b.v_curr)


def test_run_observer_sees_every_level():
    m = msh.generate_unit_interval(6)
    p = params_for(k=0.1, T=1.0)
    seen = []
    scheme.run(m, *matrices(m), p, scheme.initial_preset("sine"),
               observer=lambda s: seen.append(s.n))
    assert seen == list(range(1, p.M_steps + 1))


def test_run_reports_failing_step():
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
