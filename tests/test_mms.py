import math

import numpy as np
import pytest

from coupledwave import assembly
from coupledwave import mesh as msh
from coupledwave import mms
from coupledwave import scheme
from coupledwave.sparse_linalg import SolverConfig, SolverFailure

import oracles


def make_params(k=0.1, T=1.0, **kw):
    defaults = dict(c=1.0, eps_u=0.5, eps_v=0.25, alpha=1.0)
    defaults.update(kw)
    return scheme.SchemeParams(k=k, T=T, **defaults)


def test_unknown_case_name():
    with pytest.raises(ValueError, match="unknown manufactured case"):
        mms.build_case("taylor-green", make_params())


def test_separable_decay_pointwise_values():
    case = mms.build_case("separable-decay", make_params())
    center = np.array([[0.5, 0.5]])
    assert case.u(center, 0.0)[0] == pytest.approx(1.0, rel=1e-15)
    assert case.v(center, 0.0)[0] == pytest.approx(2.0, rel=1e-15)
    assert case.u(center, 1.0)[0] == pytest.approx(math.exp(-1.0), rel=1e-14)
    # boundary trace vanishes
    edge = np.array([[0.0, 0.3], [1.0, 0.8], [0.4, 0.0], [0.7, 1.0]])
    assert np.abs(case.u(edge, 0.7)).max() < 1e-15


def test_symmetric_case_sources_coincide():
    case = mms.build_case("symmetric", make_params(eps_u=0.3, eps_v=0.3))
    pts = np.random.default_rng(5).uniform(0.1, 0.9, size=(20, 2))
    np.testing.assert_array_equal(case.u(pts, 0.4), case.v(pts, 0.4))
    np.testing.assert_allclose(
        case.source_u(pts, 0.4), case.source_v(pts, 0.4), rtol=1e-15
    )


def source_residual(case, n_samples, seed=0):
    """Max residual of the source identity at random (x, t) samples.

    The derivatives of the exact fields come from the 6th-order oracle
    stencils, so agreement certifies the hand-derived sources rather than
    re-evaluating them.
    """
    rng = np.random.default_rng(seed)
    p = case.params
    worst = 0.0
    for _ in range(n_samples):
        x = rng.uniform(0.1, 0.9, size=(1, case.dim))
        t = float(rng.uniform(0.1, 2.0))
        for field, other, eps, source in (
            (case.u, case.v, p.eps_u, case.source_u),
            (case.v, case.u, p.eps_v, case.source_v),
        ):
            in_time = lambda s: float(field(x, s)[0])
            w_tt = oracles.fd_time_derivative(in_time, t, order=2)
            w_t = oracles.fd_time_derivative(in_time, t, order=1)
            lap = oracles.fd_laplacian(lambda q: float(field(q[None, :], t)[0]), x[0].copy())
            expected = (
                w_tt - p.c**2 * lap + eps * w_t
                + p.alpha * (float(field(x, t)[0]) - float(other(x, t)[0]))
            )
            worst = max(worst, abs(float(source(x, t)[0]) - expected))
    return worst


def test_source_self_check_all_builtin_cases():
    p = make_params()
    for name in ("separable-decay", "separable-decay-1d", "symmetric", "zero"):
        residual = source_residual(mms.build_case(name, p), n_samples=100)
        assert residual <= 1e-10, f"{name}: {residual}"


def test_self_check_matches_independent_fd_oracle():
    # same probe, different code path: oracle stencils act on scalar slices
    p = make_params()
    case = mms.build_case("separable-decay", p)
    x = np.array([[0.37, 0.61]])
    t = 0.53
    u_tt = oracles.fd_time_derivative(lambda s: case.u(x, s)[0], t, order=2)
    u_t = oracles.fd_time_derivative(lambda s: case.u(x, s)[0], t, order=1)
    lap = oracles.fd_laplacian(lambda q: case.u(q[None, :], t)[0], x[0].copy())
    expected = (
        u_tt - p.c**2 * lap + p.eps_u * u_t
        + p.alpha * (case.u(x, t)[0] - case.v(x, t)[0])
    )
    assert case.source_u(x, t)[0] == pytest.approx(expected, abs=1e-10)


def test_source_residual_detects_wrong_coefficient():
    # sanity check that the probe is not vacuous: breaking a source must trip it
    p = make_params()
    good = mms.build_case("separable-decay", p)
    from dataclasses import replace

    bad = replace(good, s_u=1.001 * good.s_u)
    assert source_residual(bad, n_samples=20) > 1e-3


def test_measure_error_zero_case_is_exact():
    p = make_params()
    err = mms.measure_error(mms.build_case("zero", p), msh.generate_unit_square(3), p)
    assert err == 0.0


@pytest.mark.parametrize(
    "name,mesh",
    [("separable-decay", msh.generate_unit_square(4)),
     ("separable-decay-1d", msh.generate_unit_interval(8))],
    ids=["2d", "1d"],
)
def test_measure_error_is_the_five_term_composite(monkeypatch, name, mesh):
    # record the states measure_error's run produces, then sum the five terms
    # straight from them: velocity errors in M, field errors in K, their
    # difference in M
    states = []
    real_run = mms.run

    def recording_run(*args, observer, **kwargs):
        def both(state):
            states.append(state)
            observer(state)

        return real_run(*args, observer=both, **kwargs)

    monkeypatch.setattr(mms, "run", recording_run)
    p = make_params(k=0.05, T=0.5)
    case = mms.build_case(name, p)
    err = mms.measure_error(case, mesh, p)

    mass, stiffness = assembly.assemble_mass(mesh), assembly.assemble_stiffness(mesh)
    points = mesh.vertices[~mesh.boundary_flags]
    worst = 0.0
    for s in states:
        e_u = case.u(points, s.n * p.k) - s.u_curr
        e_v = case.v(points, s.n * p.k) - s.v_curr
        de_u = (e_u - (case.u(points, (s.n - 1) * p.k) - s.u_prev)) / p.k
        de_v = (e_v - (case.v(points, (s.n - 1) * p.k) - s.v_prev)) / p.k
        total = (
            float(de_u @ (mass @ de_u))
            + float(de_v @ (mass @ de_v))
            + float(e_u @ (stiffness @ e_u))
            + float(e_v @ (stiffness @ e_v))
            + float((e_u - e_v) @ (mass @ (e_u - e_v)))
        )
        worst = max(worst, total)
    assert len(states) == p.M_steps
    assert err > 0.0
    assert err == math.sqrt(worst)


def test_measure_error_evaluates_the_mode_once_per_mesh(monkeypatch):
    # the mode and its load vector belong to the mesh: a run twice as long
    # evaluates the mode as often
    calls = []
    real_mode = mms.sine_mode

    def counting_mode(points):
        calls.append(len(points))
        return real_mode(points)

    monkeypatch.setattr(mms, "sine_mode", counting_mode)
    mesh = msh.generate_unit_interval(8)
    counts = []
    for T in (0.5, 1.0):
        p = make_params(k=0.05, T=T)
        calls.clear()
        mms.measure_error(mms.build_case("separable-decay-1d", p), mesh, p)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_convergence_study_level_layout():
    p = make_params()
    report = mms.convergence_study(
        "separable-decay-1d", msh.generate_unit_interval(8), 0.1, 3, p
    )
    assert [r.level for r in report.levels] == [0, 1, 2]
    hs = [r.h for r in report.levels]
    ks = [r.k for r in report.levels]
    assert hs[0] == 0.125 and hs[1] == 0.0625 and hs[2] == 0.03125
    assert ks == [0.1, 0.05, 0.025]
    errs = [r.error for r in report.levels]
    assert errs == sorted(errs, reverse=True)
    orders = report.local_orders()
    assert math.isnan(orders[0]) and len(orders) == 3


def test_convergence_study_first_order_1d():
    p = make_params()
    report = mms.convergence_study(
        "separable-decay-1d", msh.generate_unit_interval(8), 0.1, 4, p,
        SolverConfig(rel_tol=1e-14),
    )
    assert report.fitted_order >= 0.9
    for a, b in zip(report.levels, report.levels[1:]):
        assert a.error / b.error >= 1.7


def test_convergence_study_rejects_too_few_levels():
    with pytest.raises(ValueError, match="3"):
        mms.convergence_study(
            "separable-decay-1d", msh.generate_unit_interval(4), 0.1, 2, make_params()
        )


def test_convergence_study_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="1d|2d"):
        mms.convergence_study(
            "separable-decay", msh.generate_unit_interval(4), 0.1, 3, make_params()
        )


def test_convergence_zero_case_reports_nan_order():
    report = mms.convergence_study("zero", msh.generate_unit_square(2), 0.1, 3, make_params())
    assert all(r.error == 0.0 for r in report.levels)
    assert math.isnan(report.fitted_order)


def test_time_refinement_alone_halves_error_at_fine_h():
    # frozen behaviour: with h tiny the k term dominates, so halving k roughly
    # halves the composite error until the spatial floor shows up
    m = msh.generate_unit_interval(64)
    errs = []
    for k in (0.2, 0.1, 0.05):
        p = make_params(k=k, T=1.0)
        case = mms.build_case("separable-decay-1d", p)
        errs.append(mms.measure_error(case, m, p, SolverConfig(rel_tol=1e-14)))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    for r in ratios:
        assert 1.6 <= r <= 2.4, ratios


def test_study_propagates_solver_failure_with_level(projected_start):
    p = make_params()
    cfg = SolverConfig(rel_tol=1e-14, max_iter=1)
    with pytest.raises(SolverFailure, match="refinement level 0"):
        mms.convergence_study(
            "separable-decay-1d", msh.generate_unit_interval(8), 0.1, 3, p, cfg
        )
