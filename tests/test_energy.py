import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from coupledwave import assembly as asm
from coupledwave import energy as en
from coupledwave import mesh as msh
from coupledwave import scheme
from coupledwave.sparse_linalg import SolverConfig


@pytest.fixture(scope="module")
def square2():
    m = msh.generate_unit_square(2)
    return m, asm.assemble_mass(m), asm.assemble_stiffness(m)


def dyadic_params(**kw):
    defaults = dict(c=1.0, eps_u=0.0, eps_v=0.0, alpha=1.0, k=0.5, T=1.0)
    defaults.update(kw)
    return scheme.SchemeParams(**defaults)


def test_energy_frozen_single_dof_example(square2):
    # M = [[1/8]], K = [[4]]: static u = 1, v = 0 gives
    # E = 0 + 0 + 2 + 0 + 1/16 (all dyadic, so equality is exact)
    _, mass, stiff = square2
    one = np.ones(1)
    state = scheme.State(1, one, one, np.zeros(1), np.zeros(1))
    rec = en.energy(state, mass, stiff, dyadic_params())
    assert rec.E == pytest.approx(2.0625, rel=1e-14)
    assert (rec.kinetic_u, rec.kinetic_v) == (0.0, 0.0)
    assert (rec.elastic_u, rec.elastic_v) == (2.0, 0.0)
    assert rec.coupling == pytest.approx(0.0625, rel=1e-14)
    assert rec.n == 1 and rec.t == 0.5


def test_lyapunov_frozen_single_dof_example(square2):
    # u: 1 -> 1.5 over k = 1/2, v = 0: E = 1/16 + 4.5 + 9/64,
    # cross term = (du, u_new)_M = 1.5/8
    _, mass, stiff = square2
    state = scheme.State(1, np.ones(1), np.array([1.5]), np.zeros(1), np.zeros(1))
    p = dyadic_params()
    rec = en.energy(state, mass, stiff, p)
    assert rec.E == pytest.approx(4.703125, rel=1e-14)
    # doubling beta adds one more copy of the cross term (0.1875)
    for beta, expected in ((1.0, 47.21875), (2.0, 47.40625)):
        tracker = en.EnergyTracker(mass, stiff, p, en.LyapunovParams(N_weight=10.0, beta=beta))
        tracker(state)
        assert [r.lyapunov for r in tracker.records] == [pytest.approx(expected, rel=1e-14)]


def test_lyapunov_params_validation():
    with pytest.raises(ValueError, match="positive"):
        en.LyapunovParams(N_weight=0.0, beta=1.0)
    with pytest.raises(ValueError, match="positive"):
        en.LyapunovParams(N_weight=5.0, beta=0.0)


def test_energy_equals_component_sum_along_run():
    m = msh.generate_unit_square(4)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    p = scheme.SchemeParams(c=1, eps_u=0.5, eps_v=0.25, alpha=1, k=0.05, T=0.5)
    tracker = en.EnergyTracker(mass, stiff, p)
    scheme.run(m, mass, stiff, p, scheme.initial_preset("sine"), observer=tracker)
    for rec in tracker.records:
        parts = rec.kinetic_u + rec.kinetic_v + rec.elastic_u + rec.elastic_v + rec.coupling
        assert rec.E >= 0.0
        assert abs(rec.E - parts) <= 1e-13 * max(rec.E, 1.0)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
def test_energy_is_quadratic_in_the_state(scale):
    m = msh.generate_unit_interval(5)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    p = dyadic_params(eps_u=0.5)
    rng = np.random.default_rng(11)
    vecs = [rng.standard_normal(m.n_interior) for _ in range(4)]
    base = en.energy(scheme.State(1, *vecs), mass, stiff, p)
    scaled = en.energy(scheme.State(1, *(scale * v for v in vecs)), mass, stiff, p)
    assert scaled.E == pytest.approx(scale**2 * base.E, rel=1e-12)


def test_dissipation_terms_nonpositive_and_identity_tight():
    m = msh.generate_unit_square(4)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    p = scheme.SchemeParams(c=1, eps_u=0.5, eps_v=0.25, alpha=1, k=0.05, T=0.5)
    tracker = en.EnergyTracker(mass, stiff, p)
    from coupledwave.sparse_linalg import SolverConfig

    scheme.run(
        m, mass, stiff, p, scheme.initial_preset("sine"),
        config=SolverConfig(rel_tol=1e-14), observer=tracker,
    )
    assert tracker.max_identity_residual <= 1e-10 * max(tracker.records[0].E, 1.0)
    assert tracker.is_monotone()
    # the sign structure of each summand, step by step
    for rec in tracker.records[1:]:
        bd = rec.dissipation
        for name in (
            "second_difference_u", "second_difference_v",
            "gradient_difference_u", "gradient_difference_v",
            "friction_u", "friction_v", "coupling_difference",
        ):
            assert getattr(bd, name) <= 0.0
        assert bd.total <= 0.0


def step_residual(mass, stiff, p, prev, cur):
    """Identity residual a fresh tracker records for the step from prev to cur."""
    tracker = en.EnergyTracker(mass, stiff, p)
    tracker(prev)
    tracker(cur)
    return tracker.records[1].identity_residual


def test_identity_residual_detects_perturbation(square2):
    # hand-build a consistent triple on the single-dof mesh, then break it
    m, mass, stiff = square2
    p = scheme.SchemeParams(c=1, eps_u=0.0, eps_v=0.0, alpha=1, k=0.01, T=2.0)
    from coupledwave.sparse_linalg import SolverConfig

    op = scheme.BlockOperator(mass, stiff, p, SolverConfig(rel_tol=1e-15))
    s1 = scheme.State(1, np.ones(1), np.ones(1), np.zeros(1), np.zeros(1))
    s2 = scheme.step(s1, op)
    bumped = scheme.State(2, s2.u_prev, s2.u_curr + 1e-3, s2.v_prev, s2.v_curr)
    clean, broken = (step_residual(mass, stiff, p, s1, s) for s in (s2, bumped))
    assert clean < 1e-12
    assert broken > 1e-6


def test_tracker_rejects_non_consecutive_states(square2):
    m, mass, stiff = square2
    p = dyadic_params()
    tracker = en.EnergyTracker(mass, stiff, p)
    tracker(scheme.State(1, np.ones(1), np.ones(1), np.zeros(1), np.zeros(1)))
    with pytest.raises(ValueError, match="consecutive"):
        tracker(scheme.State(3, np.ones(1), np.ones(1), np.zeros(1), np.zeros(1)))
    # the next level continues u but not v
    with pytest.raises(ValueError, match="consecutive"):
        tracker(scheme.State(2, np.ones(1), np.ones(1), np.ones(1), np.zeros(1)))
    # the one level that continues both is accepted
    tracker(scheme.State(2, np.ones(1), np.ones(1), np.zeros(1), np.zeros(1)))
    assert [r.n for r in tracker.records] == [1, 2]


@pytest.mark.parametrize("eps_u,eps_v", [(0.0, 0.0), (0.5, 0.25)])
def test_dissipation_terms_match_the_two_state_oracle(eps_u, eps_v):
    m = oracles.jittered_square(8, seed=5)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    p = scheme.SchemeParams(c=1.0, eps_u=eps_u, eps_v=eps_v, alpha=1.0, k=0.02, T=0.4)
    states = []
    tracker = en.EnergyTracker(mass, stiff, p)

    def observe(state):
        states.append(state)
        tracker(state)

    scheme.run(m, mass, stiff, p, scheme.initial_preset("sine"), observer=observe)
    tol = 1e-13 * max(tracker.records[0].E, 1.0)
    for old, new, rec in zip(states, states[1:], tracker.records[1:]):
        for name, expected in oracles.dissipation_terms(old, new, mass, stiff, p).items():
            assert abs(getattr(rec.dissipation, name) - expected) <= tol, (rec.n, name)


def test_identity_residual_is_the_solve_residual_on_the_projected_start(projected_start):
    # |r . dx| with r = b - A x on the coupled matrix and dx the step's increment
    m = msh.generate_unit_square(8)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    p = scheme.SchemeParams(c=1.0, eps_u=0.5, eps_v=0.25, alpha=1.0, k=0.01, T=0.3)
    op = scheme.BlockOperator(mass, stiff, p, SolverConfig(rel_tol=1e-4))
    tracker = en.EnergyTracker(mass, stiff, p)
    state = scheme.initialize(m, p, *scheme.initial_preset("sine"))
    tracker(state)
    k = p.k
    expected = []
    while state.n < p.M_steps:
        new = scheme.step(state, op)
        tracker(new)
        b = np.concatenate([
            mass @ ((2.0 * state.u_curr - state.u_prev) / (k * k) + (p.eps_u / k) * state.u_curr),
            mass @ ((2.0 * state.v_curr - state.v_prev) / (k * k) + (p.eps_v / k) * state.v_curr),
        ])
        x = np.concatenate([new.u_curr, new.v_curr])
        dx = x - np.concatenate([state.u_curr, state.v_curr])
        expected.append(abs(float((b - op.matrix @ x) @ dx)))
        state = new
    scale = max(tracker.records[0].E, 1.0)
    residuals = [r.identity_residual for r in tracker.records[1:]]
    # the solver term is far above rounding, so the match is not trivial
    assert max(residuals) > 1e-6 * scale
    for got, want in zip(residuals, expected):
        assert abs(got - want) <= 1e-13 * scale


class CountingMatrix:
    """A matrix that counts the products taken with it."""

    def __init__(self, matrix):
        self.matrix, self.products = matrix, 0

    def __matmul__(self, x):
        self.products += 1
        return self.matrix @ x


def test_tracker_takes_five_products_per_level():
    m = msh.generate_unit_square(6)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    p = scheme.SchemeParams(c=1.0, eps_u=0.5, eps_v=0.25, alpha=1.0, k=0.05, T=0.5)
    counted = CountingMatrix(mass), CountingMatrix(stiff)
    tracker = en.EnergyTracker(*counted, p, en.LyapunovParams(N_weight=2.0, beta=0.5))
    reference = en.EnergyTracker(mass, stiff, p, en.LyapunovParams(N_weight=2.0, beta=0.5))
    scheme.run(m, mass, stiff, p, scheme.initial_preset("sine"),
               observer=lambda state: (tracker(state), reference(state)))
    assert (counted[0].products, counted[1].products) == (3 * p.M_steps, 2 * p.M_steps)
    assert tracker.records == reference.records


def test_tracker_layout():
    m = msh.generate_unit_interval(6)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    p = scheme.SchemeParams(c=1, eps_u=0, eps_v=0, alpha=1, k=0.1, T=1.0)
    tracker = en.EnergyTracker(mass, stiff, p, en.LyapunovParams(2.0, 0.125))
    scheme.run(m, mass, stiff, p, scheme.initial_preset("sine"), observer=tracker)
    assert len(tracker.records) == p.M_steps
    first = tracker.records[0]
    assert first.dE == 0.0 and first.identity_residual == 0.0
    assert first.dissipation is None
    assert all(r.dissipation is not None for r in tracker.records[1:])
    assert [r.n for r in tracker.records] == list(range(1, p.M_steps + 1))
    assert tracker.max_identity_residual == max(r.identity_residual for r in tracker.records)
    for i in range(1, len(tracker.records)):
        assert tracker.records[i].dE == tracker.records[i].E - tracker.records[i - 1].E

    # without Lyapunov parameters the tracked value falls back to E itself
    plain = en.EnergyTracker(mass, stiff, p)
    scheme.run(m, mass, stiff, p, scheme.initial_preset("sine"), observer=plain)
    assert [r.lyapunov for r in plain.records] == [r.E for r in plain.records]


def synthetic_records(energies, dt=0.1):
    return [
        en.EnergyRecord(n=i + 1, t=(i + 1) * dt, E=e,
                        kinetic_u=0, kinetic_v=0, elastic_u=e, elastic_v=0, coupling=0,
                        dE=0, identity_residual=0, lyapunov=e)
        for i, e in enumerate(energies)
    ]


def test_fit_constant_energy_has_zero_rate():
    fit = en.fit_decay_rate(synthetic_records([5.0] * 10))
    assert fit.gamma == pytest.approx(0.0, abs=1e-14)
    assert fit.residual == pytest.approx(0.0, abs=1e-14)
    assert fit.log_C == pytest.approx(np.log(5.0), rel=1e-12)


def test_fit_recovers_exact_exponential():
    t = np.arange(1, 41) * 0.1
    fit = en.fit_decay_rate(synthetic_records(7.0 * np.exp(-2.0 * t)))
    assert fit.gamma == pytest.approx(2.0, rel=1e-12)
    assert fit.log_C == pytest.approx(np.log(7.0), rel=1e-10)
    assert fit.residual < 1e-13
    # default window is the trailing half of the 40 records
    assert fit.window == (21, 40)


def test_fit_excludes_zero_energy_records():
    energies = [np.exp(-t) for t in np.arange(10) * 0.1]
    energies[7] = 0.0
    fit = en.fit_decay_rate(synthetic_records(energies), window=1.0)
    assert fit.gamma == pytest.approx(1.0, rel=1e-10)


def test_fit_insufficient_data():
    with pytest.raises(en.InsufficientDataError):
        en.fit_decay_rate([])
    with pytest.raises(en.InsufficientDataError):
        en.fit_decay_rate(synthetic_records([1.0, 0.9]))
    with pytest.raises(en.InsufficientDataError):
        en.fit_decay_rate(synthetic_records([0.0] * 12))
    with pytest.raises(ValueError, match="window"):
        en.fit_decay_rate(synthetic_records([1.0] * 12), window=0.0)


def test_dense_start_keeps_identity_at_rounding_floor_at_loose_tolerance(monkeypatch):
    # the residual is |r . dx| plus rounding; the dense start leaves r at
    # rounding level whatever rel_tol allows, so the identity stays exact
    m = msh.generate_unit_square(16)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    p = scheme.SchemeParams(c=1.0, eps_u=0.5, eps_v=0.25, alpha=1.0, k=0.01, T=0.5)
    loose = SolverConfig(rel_tol=1e-4)

    def max_residual():
        tracker = en.EnergyTracker(mass, stiff, p)
        scheme.run(m, mass, stiff, p, scheme.initial_preset("sine"), config=loose,
                   observer=tracker)
        return tracker.max_identity_residual, tracker.records[0].E

    residual, e0 = max_residual()
    assert residual <= 1e-13 * max(e0, 1.0)
    # the projected start at the same tolerance stops where rel_tol lets it
    monkeypatch.setattr(scheme, "DENSE_START_MAX_N", 0)
    assert max_residual()[0] > 1e-6 * max(e0, 1.0)
