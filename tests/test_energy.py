from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from coupledwave import assembly as asm
from coupledwave import cli
from coupledwave import energy as en
from coupledwave import mesh as msh
from coupledwave import mms, scheme
from coupledwave.sparse_linalg import SolverConfig


@pytest.fixture(scope="module")
def square2():
    m = msh.generate_unit_square(2)
    return m, asm.assemble_mass(m), asm.assemble_stiffness(m)


def dyadic_params(**kw):
    defaults = dict(c=1.0, eps_u=0.0, eps_v=0.0, alpha=1.0, k=0.5, T=1.0)
    defaults.update(kw)
    return scheme.SchemeParams(**defaults)


def level_row(state, mass, stiff, p, lyapunov=None):
    """The table row a fresh tracker makes of one state's level pair."""
    tracker = en.EnergyTracker(mass, stiff, p, lyapunov)
    tracker(state)
    return tracker.table[0]


def test_energy_frozen_single_dof_example(square2):
    # M = [[1/8]], K = [[4]]: static u = 1, v = 0 gives
    # E = 0 + 0 + 2 + 0 + 1/16 (all dyadic, so equality is exact)
    _, mass, stiff = square2
    one = np.ones(1)
    state = scheme.State(1, one, one, np.zeros(1), np.zeros(1))
    row = level_row(state, mass, stiff, dyadic_params())
    assert row["E"] == pytest.approx(2.0625, rel=1e-14)
    assert (row["kinetic_u"], row["kinetic_v"]) == (0.0, 0.0)
    assert (row["elastic_u"], row["elastic_v"]) == (2.0, 0.0)
    assert row["coupling"] == pytest.approx(0.0625, rel=1e-14)
    assert row["n"] == 1 and row["t"] == 0.5


def test_lyapunov_frozen_single_dof_example(square2):
    # u: 1 -> 1.5 over k = 1/2, v = 0: E = 1/16 + 4.5 + 9/64,
    # cross term = (du, u_new)_M = 1.5/8
    _, mass, stiff = square2
    state = scheme.State(1, np.ones(1), np.array([1.5]), np.zeros(1), np.zeros(1))
    p = dyadic_params()
    assert level_row(state, mass, stiff, p)["E"] == pytest.approx(4.703125, rel=1e-14)
    # doubling beta adds one more copy of the cross term (0.1875)
    for beta, expected in ((1.0, 47.21875), (2.0, 47.40625)):
        row = level_row(state, mass, stiff, p, en.LyapunovParams(N_weight=10.0, beta=beta))
        assert row["lyapunov"] == pytest.approx(expected, rel=1e-14)


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
    for row in tracker.table:
        parts = (row["kinetic_u"] + row["kinetic_v"] + row["elastic_u"] + row["elastic_v"]
                 + row["coupling"])
        assert row["E"] >= 0.0
        assert abs(row["E"] - parts) <= 1e-13 * max(row["E"], 1.0)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
def test_energy_is_quadratic_in_the_state(scale):
    m = msh.generate_unit_interval(5)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    p = dyadic_params(eps_u=0.5)
    rng = np.random.default_rng(11)
    vecs = [rng.standard_normal(m.n_interior) for _ in range(4)]
    base = level_row(scheme.State(1, *vecs), mass, stiff, p)
    scaled = level_row(scheme.State(1, *(scale * v for v in vecs)), mass, stiff, p)
    assert scaled["E"] == pytest.approx(scale**2 * base["E"], rel=1e-12)


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
    table = tracker.table
    assert tracker.max_identity_residual <= 1e-10 * max(table["E"][0], 1.0)
    assert tracker.is_monotone()
    # the sign structure of each summand, step by step
    for row in table[1:]:
        terms = [row[name] for name in en.DISSIPATION_FIELDS]
        assert all(term <= 0.0 for term in terms)
        assert sum(terms) <= 0.0


def step_residual(mass, stiff, p, prev, cur):
    """Identity residual a fresh tracker records for the step from prev to cur."""
    tracker = en.EnergyTracker(mass, stiff, p)
    tracker(prev)
    tracker(cur)
    return tracker.table["identity_residual"][1]


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
    assert tracker.table["n"].tolist() == [1, 2]


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
    table = tracker.table
    tol = 1e-13 * max(table["E"][0], 1.0)
    for old, new, row in zip(states, states[1:], table[1:]):
        for name, expected in oracles.dissipation_terms(old, new, mass, stiff, p).items():
            assert abs(row[name] - expected) <= tol, (row["n"], name)


def test_identity_residual_is_the_solve_residual_on_the_projected_start(projected_start):
    # |r . dx| with r = b - A x on the coupled matrix and dx the step's increment
    m = msh.generate_unit_square(8)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    p = scheme.SchemeParams(c=1.0, eps_u=0.5, eps_v=0.25, alpha=1.0, k=0.01, T=0.3)
    op = scheme.BlockOperator(mass, stiff, p, SolverConfig(rel_tol=1e-4))
    tracker = en.EnergyTracker(mass, stiff, p)
    # sine-opposed, not sine: from the line-search start the sine run's solves
    # end far below rel_tol (identity residuals near 2e-8), these at it
    state = scheme.initialize(m, p, *scheme.initial_preset("sine-opposed"))
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
    scale = max(tracker.table["E"][0], 1.0)
    residuals = tracker.table["identity_residual"][1:]
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

    def __getattr__(self, name):  # shape, data
        return getattr(self.matrix, name)


def rows_per_block(monkeypatch, rows, n_field):
    """Set the block budget so that a tracker on N = n_field takes ``rows`` levels at once."""
    monkeypatch.setattr(en, "BLOCK_BYTES", rows * 80 * n_field)


def sine_run(n):
    """(mass, stiffness, params, states) of a 10-level sine run on the n x n square."""
    m = msh.generate_unit_square(n)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    p = scheme.SchemeParams(c=1.0, eps_u=0.5, eps_v=0.25, alpha=1.0, k=0.05, T=0.5)
    states = []
    scheme.run(m, mass, stiff, p, scheme.initial_preset("sine"), observer=states.append)
    return mass, stiff, p, states


def test_tracker_takes_five_products_per_block(monkeypatch):
    mass, stiff, p, states = sine_run(6)
    rows_per_block(monkeypatch, 3, mass.shape[0])
    counted = CountingMatrix(mass), CountingMatrix(stiff)
    tracker = en.EnergyTracker(*counted, p, en.LyapunovParams(N_weight=2.0, beta=0.5))
    for state in states:
        tracker(state)
    # 10 levels in blocks of 3, 3, 3 and 1, the last taken at level M_steps
    # before the table is read
    assert (counted[0].products, counted[1].products) == (3 * 4, 2 * 4)
    assert len(tracker.table) == p.M_steps


_LYAPUNOV = en.LyapunovParams(N_weight=2.0, beta=0.5)


@pytest.mark.parametrize("lyapunov,rows,n", [
    *(pytest.param(lyapunov, rows, 6, id=f"{tag}-{rows}")
      for tag, lyapunov in (("None", None), ("lyapunov1", _LYAPUNOV))
      for rows in (1, 3, 4, 1000)),
    # N = 8281 > sparse_linalg.DOT_CHUNK: every row dot comes in two pieces
    pytest.param(_LYAPUNOV, 3, 92, id="lyapunov1-3-N8281"),
])
def test_blocked_tracker_equals_per_level_arithmetic_bitwise(monkeypatch, lyapunov, rows, n):
    # 10 levels in blocks of one row, of 3 (the last block holds one), of 4
    # (the last holds two), and one block larger than the run
    m = oracles.jittered_square(n, seed=3)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    p = scheme.SchemeParams(c=1.3, eps_u=0.5, eps_v=0.25, alpha=2.0, k=0.05, T=0.5)
    rows_per_block(monkeypatch, rows, mass.shape[0])
    tracker = en.EnergyTracker(mass, stiff, p, lyapunov)
    states = []

    def observe(state):
        states.append(state)
        tracker(state)

    scheme.run(m, mass, stiff, p, scheme.initial_preset("sine-opposed"), observer=observe)
    # every column's bits, the first row's NaN dissipation terms included
    expected = oracles.per_level_table(states, mass, stiff, p, lyapunov)
    assert tracker.table.tobytes() == expected.tobytes()


# N = 225, and N = 8281 > sparse_linalg.DOT_CHUNK, whose dots come in two pieces
@pytest.mark.parametrize("n", [16, 92])
def test_energy_terms_of_1d_fields_are_the_one_row_floats(n):
    m = oracles.jittered_square(n, seed=3)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    fields = np.random.default_rng(n).standard_normal((4, mass.shape[0]))
    terms, parts = en.energy_terms(*fields, mass, stiff, 0.05, 1.69, 2.0)
    rows, row_parts = en.energy_terms(*fields[:, None], mass, stiff, 0.05, 1.69, 2.0)
    assert all(type(part) is float for part in parts)
    assert parts == [row_part.item() for row_part in row_parts]
    for (weight, a, pa), (row_weight, row_a, row_pa) in zip(terms, rows):
        assert weight == row_weight and a.ndim == pa.ndim == 1
        assert a.tobytes() == row_a.tobytes() and pa.tobytes() == row_pa.tobytes()


def test_records_read_mid_run_are_complete_and_exact(monkeypatch):
    mass, stiff, p, states = sine_run(6)
    rows_per_block(monkeypatch, 4, mass.shape[0])
    tracker = en.EnergyTracker(mass, stiff, p)
    seen = {}
    for state in states:
        tracker(state)
        if state.n in (2, 5, 6):  # reads that end blocks of 2, 3 and 1 levels early
            seen[state.n] = tracker.table.tobytes()
    expected = oracles.per_level_table(states, mass, stiff, p)
    assert seen == {n: expected[:n].tobytes() for n in (2, 5, 6)}
    assert tracker.table.tobytes() == expected.tobytes()


def test_energy_error_surfaces_at_its_own_level(monkeypatch, square2):
    # a level whose energy may overflow is not left pending, so its error
    # comes before anything a later step could raise; it ends a block of
    # several pending levels, whose rows before it are kept complete
    _, mass, stiff = square2
    p = dyadic_params(k=0.25, T=2.0)
    rows_per_block(monkeypatch, 8, mass.shape[0])
    tracker = en.EnergyTracker(mass, stiff, p)
    zero, u = np.zeros(1), [np.array([x]) for x in (0.0, 1.0, 0.5, 0.25, 1e200)]
    states = [scheme.State(n, u[n - 1], u[n], zero, zero) for n in range(1, 5)]
    for state in states[:3]:
        tracker(state)
    with pytest.raises(ValueError, match="energy inf at level 4 is not finite"):
        tracker(states[3])
    expected = oracles.per_level_table(states[:3], mass, stiff, p)
    assert tracker.table["n"].tolist() == [1, 2, 3]
    assert tracker.table.tobytes() == expected.tobytes()


def test_tracker_layout():
    m = msh.generate_unit_interval(6)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    p = scheme.SchemeParams(c=1, eps_u=0, eps_v=0, alpha=1, k=0.1, T=1.0)
    tracker = en.EnergyTracker(mass, stiff, p, en.LyapunovParams(2.0, 0.125))
    scheme.run(m, mass, stiff, p, scheme.initial_preset("sine"), observer=tracker)
    table = tracker.table
    assert len(table) == p.M_steps
    assert table["dE"][0] == 0.0 and table["identity_residual"][0] == 0.0
    # no step produced the first level: its dissipation terms alone are NaN
    nan = np.isnan([table[name] for name in en.DISSIPATION_FIELDS])
    assert nan[:, 0].all() and not nan[:, 1:].any()
    assert table["n"].tolist() == list(range(1, p.M_steps + 1))
    assert tracker.max_identity_residual == table["identity_residual"].max()
    for i in range(1, len(table)):
        assert table["dE"][i] == table["E"][i] - table["E"][i - 1]

    # without Lyapunov parameters the tracked value falls back to E itself
    plain = en.EnergyTracker(mass, stiff, p)
    scheme.run(m, mass, stiff, p, scheme.initial_preset("sine"), observer=plain)
    assert plain.table["lyapunov"].tolist() == plain.table["E"].tolist()


def test_table_columns_have_one_owner(square2):
    # energy.csv's header, the dissipation columns and the oracle's terms all
    # follow the table's dtype
    _, mass, stiff = square2
    names = en.TABLE_DTYPE.names
    assert cli.ENERGY_HEADER == ",".join(names[:11])
    assert en.DISSIPATION_FIELDS == names[11:]
    old = scheme.State(1, np.zeros(1), np.ones(1), np.zeros(1), np.zeros(1))
    new = scheme.State(2, np.ones(1), np.ones(1), np.zeros(1), np.zeros(1))
    terms = oracles.dissipation_terms(old, new, mass, stiff, dyadic_params())
    assert tuple(terms) == en.DISSIPATION_FIELDS
    assert en.TABLE_DTYPE["n"] == np.int64
    assert all(en.TABLE_DTYPE[name] == np.float64 for name in names[1:])


def test_empty_tracker_says_it_observed_no_levels(square2):
    _, mass, stiff = square2
    tracker = en.EnergyTracker(mass, stiff, dyadic_params())
    with pytest.raises(ValueError, match="the tracker has observed no levels"):
        tracker.max_identity_residual
    with pytest.raises(ValueError, match="the tracker has observed no levels"):
        tracker.is_monotone()
    assert len(tracker.table) == 0


def test_tracker_retains_under_400_bytes_per_level():
    # the long-decay mesh, N = 225: 1015 levels in 35 blocks of 29 rows
    m = msh.generate_unit_square(16)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    p = scheme.SchemeParams(c=1.0, eps_u=0.5, eps_v=0.25, alpha=1.0, k=0.001, T=1.015)
    states = oracles.random_run_states(m, p.M_steps, seed=7)

    def observe_all():
        tracker = en.EnergyTracker(mass, stiff, p, _LYAPUNOV)
        for state in states:
            tracker(state)
        assert tracker.max_identity_residual >= 0.0  # every block taken
        return tracker

    _, _, retained = oracles.traced_memory(observe_all)
    assert retained < 400 * len(states), retained / len(states)


def synthetic_table(energies, dt=0.1):
    table = np.zeros(len(energies), en.TABLE_DTYPE)
    table["n"] = np.arange(1, len(energies) + 1)
    table["t"] = table["n"] * dt
    table["E"] = table["elastic_u"] = table["lyapunov"] = energies
    return table


def test_fit_constant_energy_has_zero_rate():
    fit = en.fit_decay_rate(synthetic_table([5.0] * 10))
    assert fit.gamma == pytest.approx(0.0, abs=1e-14)
    assert fit.residual == pytest.approx(0.0, abs=1e-14)
    assert fit.log_C == pytest.approx(np.log(5.0), rel=1e-12)


def test_fit_recovers_exact_exponential():
    t = np.arange(1, 41) * 0.1
    fit = en.fit_decay_rate(synthetic_table(7.0 * np.exp(-2.0 * t)))
    assert fit.gamma == pytest.approx(2.0, rel=1e-12)
    assert fit.log_C == pytest.approx(np.log(7.0), rel=1e-10)
    assert fit.residual < 1e-13
    # default window is the trailing half of the 40 records
    assert fit.window == (21, 40)


def test_fit_excludes_zero_energy_records():
    energies = [np.exp(-t) for t in np.arange(10) * 0.1]
    energies[7] = 0.0
    fit = en.fit_decay_rate(synthetic_table(energies), window=1.0)
    assert fit.gamma == pytest.approx(1.0, rel=1e-10)


def test_fit_insufficient_data():
    with pytest.raises(en.InsufficientDataError):
        en.fit_decay_rate([])
    with pytest.raises(en.InsufficientDataError):
        en.fit_decay_rate(synthetic_table([1.0, 0.9]))
    with pytest.raises(en.InsufficientDataError):
        en.fit_decay_rate(synthetic_table([0.0] * 12))
    with pytest.raises(ValueError, match="window"):
        en.fit_decay_rate(synthetic_table([1.0] * 12), window=0.0)


# the second window is longer than DOT_CHUNK: its sums run in pieces
@pytest.mark.parametrize("rows", [40, 20000])
def test_fits_agree_with_polyfit_on_noisy_data(rows):
    rng = np.random.default_rng(rows)
    t = np.arange(1, rows + 1) * 0.01
    energies = 3.0 * np.exp(-0.7 * t + 0.05 * rng.standard_normal(rows))
    slope, intercept = np.polyfit(t[rows // 2:], np.log(energies[rows // 2:]), 1)
    fit = en.fit_decay_rate(synthetic_table(energies, dt=0.01))
    assert fit.gamma == pytest.approx(-slope, rel=1e-12)
    assert fit.log_C == pytest.approx(intercept, rel=1e-12)
    # the convergence study's order, over (h, error) pairs with noise
    h = 0.5 ** np.arange(rows % 7 + 3)
    errors = h ** 1.3 * np.exp(0.1 * rng.standard_normal(len(h)))
    records = [SimpleNamespace(h=a, error=b) for a, b in zip(h, errors)]
    want = np.polyfit(np.log(h), np.log(errors), 1)[0]
    assert mms._fit_order(records) == pytest.approx(want, rel=1e-12)


def test_dense_start_keeps_identity_at_rounding_floor_at_loose_tolerance(monkeypatch):
    # the residual is |r . dx| plus rounding; the dense start leaves r at
    # rounding level whatever rel_tol allows, so the identity stays exact
    m = msh.generate_unit_square(16)
    mass, stiff = asm.assemble_mass(m), asm.assemble_stiffness(m)
    p = scheme.SchemeParams(c=1.0, eps_u=0.5, eps_v=0.25, alpha=1.0, k=0.01, T=0.5)
    loose = SolverConfig(rel_tol=1e-4)

    def max_residual():
        tracker = en.EnergyTracker(mass, stiff, p)
        # sine-opposed: the projected route's solves of the sine run end below
        # rel_tol from the line-search start, and this guard needs them at it
        scheme.run(m, mass, stiff, p, scheme.initial_preset("sine-opposed"), config=loose,
                   observer=tracker)
        return tracker.max_identity_residual, tracker.table["E"][0]

    residual, e0 = max_residual()
    assert residual <= 1e-13 * max(e0, 1.0)
    # the projected start at the same tolerance stops where rel_tol lets it
    monkeypatch.setattr(scheme, "DENSE_START_MAX_N", 0)
    assert max_residual()[0] > 1e-6 * max(e0, 1.0)
