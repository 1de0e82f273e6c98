import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledwave import assembly as asm
from coupledwave import mesh as msh
from coupledwave.sparse_linalg import (
    SolverConfig,
    SolverFailure,
    cg_jacobi,
    jacobi_inverse,
    solve_spd,
)


def test_config_defaults():
    cfg = SolverConfig()
    assert cfg.rel_tol == 1e-12
    assert cfg.max_iter is None
    assert cfg.method == "cg"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tol": 0.0},
        {"rel_tol": 1.5},
        {"max_iter": 0},
        {"method": "gmres"},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_identity_system():
    A = np.eye(4)
    b = np.array([1.0, -2.0, 3.0, 0.5])
    np.testing.assert_allclose(solve_spd(A, b), b, rtol=1e-12)


def test_zero_rhs_is_exact_zero():
    m = msh.generate_unit_square(4)
    A = asm.assemble_stiffness(m)
    x = solve_spd(A, np.zeros(A.shape[0]))
    assert (x == 0.0).all()


def test_shape_mismatch_raises():
    with pytest.raises(ValueError, match="shape"):
        solve_spd(np.eye(3), np.ones(4))


def test_cg_matches_cholesky_on_fem_matrix():
    m = msh.generate_unit_square(6)
    A = asm.assemble_stiffness(m) + asm.assemble_mass(m)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(A.shape[0])
    x_cg = solve_spd(A, b, SolverConfig(rel_tol=1e-14))
    x_ch = solve_spd(A, b, SolverConfig(method="cholesky"))
    np.testing.assert_allclose(x_cg, x_ch, atol=1e-10 * np.abs(x_ch).max())


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=50), seed=st.integers(0, 2**32 - 1))
def test_cg_matches_cholesky_random_spd(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    A = B @ B.T + n * np.eye(n)
    b = rng.standard_normal(n)
    x_cg = solve_spd(A, b, SolverConfig(rel_tol=1e-14))
    x_ch = solve_spd(A, b, SolverConfig(method="cholesky"))
    assert np.abs(x_cg - x_ch).max() <= 1e-10 * max(np.abs(x_ch).max(), 1.0)


def test_cg_converges_fast_in_exact_arithmetic_cases():
    # diagonal system: Jacobi preconditioning solves it in one step, so the
    # count must sit well under the n + 5 budget
    d = np.arange(1.0, 31.0)
    A = np.diag(d)
    b = np.ones(30)
    x, iters, res = cg_jacobi(A, b, 1e-13, 300)
    assert iters <= 2
    np.testing.assert_allclose(x, 1.0 / d, rtol=1e-12)

    rng = np.random.default_rng(3)
    B = rng.standard_normal((25, 25))
    A = B @ B.T + 25.0 * np.eye(25)
    b = rng.standard_normal(25)
    _, iters, _ = cg_jacobi(A, b, 1e-13, 10 * 25)
    assert iters <= 30  # n + 5


def test_stopping_criterion_is_relative():
    m = msh.generate_unit_interval(40)
    A = asm.assemble_stiffness(m)
    b = np.ones(A.shape[0])
    for scale in (1.0, 1e8, 1e-8):
        x = solve_spd(A, scale * b, SolverConfig(rel_tol=1e-12))
        assert np.linalg.norm(scale * b - A @ x) <= 1e-12 * np.linalg.norm(scale * b)


@pytest.mark.parametrize("scale", [2.0**600, 2.0**-600])
def test_norms_survive_entries_beyond_the_square_root_of_the_float_range(scale):
    # scaling A and b together leaves x, z, r.z / p.Ap in range, but r @ r
    # over- or underflows; the iterates are then bitwise those of the unscaled
    # system, since a power of two scales exactly
    m = msh.generate_unit_square(6)
    A = asm.assemble_stiffness(m) + asm.assemble_mass(m)
    b = np.random.default_rng(3).standard_normal(A.shape[0])
    x, iters, res = cg_jacobi(A, b, 1e-12, 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x_scaled, iters_scaled, res_scaled = cg_jacobi(scale * A, scale * b, 1e-12, 1000)
    assert iters_scaled == iters > 0
    np.testing.assert_array_equal(x_scaled, x)
    assert res_scaled / scale == pytest.approx(res, rel=1e-12)


def test_overflowing_solve_is_a_value_error():
    # finite entries whose product with the guess overflows
    A = np.array([[1.5e308, 1e308], [1e308, 1.5e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflowed at iteration 1"):
            solve_spd(A, np.ones(2), x0=np.ones(2))


def test_underflowing_solve_is_a_value_error():
    # r / diag(A) is 0 in floating point while r is far above the target, so
    # CG's first direction would be zero and its curvature p.Ap = 0
    A = np.array([[2e300, 1e300], [1e300, 2e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="underflowed at iteration 1"):
            solve_spd(A, np.full(2, 1e-300))


def test_passed_inverse_diagonal_is_used_as_given():
    m = msh.generate_unit_square(6)
    A = asm.assemble_stiffness(m) + asm.assemble_mass(m)
    b = np.ones(A.shape[0])
    inv_diag = jacobi_inverse(A)
    np.testing.assert_array_equal(inv_diag, 1.0 / A.diagonal())
    x, iters, _ = cg_jacobi(A, b, 1e-12, 1000)
    assert cg_jacobi(A, b, 1e-12, 1000, inv_diag=inv_diag)[1] == iters
    # a different preconditioner changes the iterates, so it really is the one applied
    scrambled = inv_diag * np.random.default_rng(1).uniform(0.1, 10.0, A.shape[0])
    _, other, _ = cg_jacobi(A, b, 1e-12, 1000, inv_diag=scrambled)
    assert other != iters


def test_iteration_budget_exhaustion_reports_residual():
    m = msh.generate_unit_square(8)
    A = asm.assemble_stiffness(m)
    b = np.ones(A.shape[0])
    with pytest.raises(SolverFailure) as err:
        solve_spd(A, b, SolverConfig(rel_tol=1e-14, max_iter=2))
    assert err.value.iterations == 2
    assert 0.0 < err.value.residual < np.inf


def test_indefinite_matrix_detected():
    A = np.diag([1.0, 1.0, -1.0])
    b = np.array([1.0, 2.0, 3.0])
    with pytest.raises(SolverFailure, match="diagonal|curvature"):
        solve_spd(A, b)


def test_cg_from_exact_solution_takes_no_iterations():
    m = msh.generate_unit_square(6)
    A = asm.assemble_stiffness(m) + asm.assemble_mass(m)
    x_exact = solve_spd(A, np.ones(A.shape[0]), SolverConfig(method="cholesky"))
    b = A @ x_exact
    guess = x_exact.copy()
    x, iters, res = cg_jacobi(A, b, 1e-12, 100, x0=guess)
    assert iters == 0
    assert res <= 1e-12 * np.linalg.norm(b)
    np.testing.assert_array_equal(x, x_exact)
    x[0] += 1.0
    np.testing.assert_array_equal(guess, x_exact)  # the guess is not written to


def test_warm_start_reaches_the_same_rule():
    m = msh.generate_unit_square(6)
    A = asm.assemble_stiffness(m) + asm.assemble_mass(m)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(A.shape[0])
    x0 = rng.standard_normal(A.shape[0])
    x = solve_spd(A, b, SolverConfig(rel_tol=1e-10), x0=x0)
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)
    # Cholesky ignores the guess
    x_ch = solve_spd(A, b, SolverConfig(method="cholesky"), x0=x0)
    np.testing.assert_array_equal(x_ch, solve_spd(A, b, SolverConfig(method="cholesky")))


@pytest.mark.parametrize("bad", ["rhs", "x0", "diagonal"])
@pytest.mark.parametrize("method", ["cg", "cholesky"])
def test_non_finite_input_is_a_value_error(bad, method):
    m = msh.generate_unit_square(4)
    A = (asm.assemble_stiffness(m) + asm.assemble_mass(m)).tolil()
    b = np.ones(A.shape[0])
    x0 = np.zeros(A.shape[0])
    if bad == "rhs":
        b[3] = np.nan
    elif bad == "x0":
        x0[3] = np.inf
    else:
        A[3, 3] = np.inf
    with pytest.raises(ValueError, match="not finite"):
        solve_spd(A.tocsr(), b, SolverConfig(method=method), x0=x0)


def test_zero_rhs_shortcut_comes_first():
    A = np.diag([1.0, np.inf])
    x = solve_spd(A, np.zeros(2), x0=np.array([np.nan, 1.0]))
    assert (x == 0.0).all()

