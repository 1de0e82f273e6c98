"""Implicit two-level stepping for the coupled damped wave system.

With mass matrix M and stiffness matrix K on the interior vertices, the
update to level n+1 satisfies

    M (u'' diff) / k^2 + c^2 K u_new + (eps_u / k) M (u_new - u_cur)
        + alpha M (u_new - v_new) = f_u

and the v equation with the roles swapped, where ``u'' diff`` is the centered
second difference u_new - 2 u_cur + u_old.  Collecting the new levels gives a
symmetric positive definite 2N x 2N block matrix whose off-diagonal blocks
are -alpha M.  Damping and coupling both enter as multiples of M, so the
matrix factors exactly as

    kron(Q, I) blockdiag(D + lam_1 M, D + lam_2 M) kron(Q, I)^T,
    D = (1/k^2 + alpha) M + c^2 K,

where Q diag(lam) Q^T is the eigendecomposition of the 2 x 2 matrix
[[eps_u/k, -alpha], [-alpha, eps_v/k]], taken in closed form (``_eigh_2x2``)
so that a ``method = cg`` run calls no LAPACK routine; only the Cholesky
check route does.  A CG step rotates the right-hand side per vertex, solves
the two N x N blocks one after the other, each in its own Jacobi-PCG to its
share of the stopping rule ||b - A x|| <= rel_tol ||b||
(``sparse_linalg.solve_spd`` states the split), and rotates the solution
back.  So the rule holds on the rotated system while each block stops at its
own iteration count, and each has a budget of max_iter iterations (10 N when
unset).  Q is orthogonal, so the rule holds on the coupled system as well.

Every level solves the same matrix with a new right-hand side.  On a small
system, where both N x N block inverses fit in 1 MiB together (N <=
DENSE_START_MAX_N), the operator inverts each block once per run and CG
starts from x0 = blockdiag(A_1^{-1}, A_2^{-1}) b.  That start is exact to
rounding, so CG only verifies it: on each block it computes b_i - A_i x0_i,
applies the block's share of the rule and iterates only if the start falls
short.  The 1 MiB bound keeps the memory the inverses add small next to the
process's, and they come from numpy alone: a sparse factorization would load
scipy.sparse.linalg, whose import alone adds about 9 MB resident.  A block that does not invert in
floating point (entries near the ends of the float range) is a ValueError.
Larger systems start from the Galerkin projection onto span{x_n, d}, d the
extrapolated step 2 x_n - 3 x_{n-1} + x_{n-2} (x_n - x_{n-1} over two
solves): x0 = X G^{-1} X^T b, X = [x_n, d], G = X^T A X (P. F. Fischer,
CMAME 163, 1998), with A X from the stored products (CG's b - r).  That span
holds x_n + d and every x_n + t d, so x0's A-norm error is at most theirs.
Where G is nearly singular, as for one geometrically decaying mode, the start
is the exact line search x_n + t d, with b - A x0 orthogonal to d.  The
extrapolation 2 x_n - x_{n-1} remains the fallback when fewer than two solves
are stored, d . A d is not positive, or the start is not finite.
``method = cholesky`` solves the coupled matrix itself, with neither start,
which keeps the check path independent of the rotation.  N and the method
alone fix a run's start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import assembly
from .mesh import Mesh
from .sparse_linalg import (SolverConfig, SolverFailure, dot, jacobi_inverse, solve_spd,
                            with_context)

# the projection gives way to the line search when det G <= GRAM_TOL g11 g22,
# sin^2 of the A-angle between x_n and d.  Of a sweep of 1e-10 ... 1e-5 over
# twelve projected-route cases, only 4e-7 ... 1e-6 left none above the previous
# start's CG iterations: below, the 1D single-mode ladder's levels 3/4 took up
# to 1419/2834 (1068/2129 here); above, the finest mms-ladder level is back at
# 1103 by 1.4e-6 (1072 here)
GRAM_TOL = 5e-7

# CG starts from the exact dense solve when both N x N block inverses take at
# most 1 MiB (2 N^2 doubles), that is N <= 256.  At N = 225 the build takes
# about 20 ms once per run and the start about 30 us per step, where the
# projected start left CG 7-8 Jacobi iterations of about 30 us each.  The
# inverses' memory grows as N^2 and their build as N^3; at N = 961 they would
# hold 15 MB, a quarter of the whole process
DENSE_START_MAX_N = 256


@dataclass(frozen=True)
class SchemeParams:
    """Physical and discretization parameters.

    k must divide T (to 1e-12 relative); M_steps = T / k is the number of
    time levels beyond the startup pair, so the run ends at time T.
    """

    c: float
    eps_u: float
    eps_v: float
    alpha: float
    k: float
    T: float

    def __post_init__(self):
        # every message leads with the field it names, which is also its config key
        if not self.c > 0.0:
            raise ValueError(f"c (wave speed) must be positive, got {self.c}")
        for name, value in (("eps_u", self.eps_u), ("eps_v", self.eps_v)):
            if not value >= 0.0:
                raise ValueError(f"{name} (damping) must be nonnegative, got {value}")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha (coupling coefficient) must be positive, got {self.alpha}")
        if not self.k > 0.0:
            raise ValueError(f"k (time step) must be positive, got {self.k}")
        if not self.T > 0.0:
            raise ValueError(f"T (final time) must be positive, got {self.T}")
        if not math.isfinite(self.T / self.k):
            raise ValueError(f"k = {self.k!r} is too small for T = {self.T!r}: T/k is not finite")
        if self.M_steps < 1 or abs(self.M_steps * self.k - self.T) > 1e-12 * self.T:
            raise ValueError(f"k = {self.k!r} does not divide T = {self.T!r} (time grid)")
        # the scalars BlockOperator multiplies M and K by
        for name, coefficient, value in (
            ("k", "1/k^2", 1.0 / self.k / self.k),
            ("eps_u", "eps_u/k", self.eps_u / self.k),
            ("eps_v", "eps_v/k", self.eps_v / self.k),
            ("c", "c^2", self.c * self.c),
            ("alpha", "alpha", self.alpha),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{name} = {getattr(self, name)!r} is out of range: the step "
                                 f"coefficient {coefficient} is not finite (k = {self.k!r})")
        if not 1.0 / self.k / self.k > 0.0:  # else the step would drop its M/k^2 term
            raise ValueError(f"k = {self.k!r} is out of range: 1/k^2 underflows to 0")
        # the u + v direction of the step computes (1/k^2 + alpha) - alpha, which
        # leaves M/k^2 a rounding error of about eps_mach alpha k^2 of itself
        eps_mach = np.finfo(float).eps
        if self.alpha * self.k * self.k * eps_mach > 1e-6:
            raise ValueError(f"k = {self.k!r} is too large for alpha = {self.alpha!r}: with "
                             f"alpha k^2 above {1e-6 / eps_mach:.2g} the step's M/k^2 term is "
                             f"lost to rounding; the largest admissible k is about "
                             f"{math.sqrt(1e-6 / eps_mach / self.alpha):.3g}")

    @property
    def M_steps(self) -> int:
        return round(self.T / self.k)


@dataclass(frozen=True)
class State:
    """Two consecutive time levels of both fields on interior vertices.

    Level ``n`` holds (u_curr, v_curr); level ``n - 1`` holds (u_prev,
    v_prev).  After initialization n = 1.
    """

    n: int
    u_prev: np.ndarray
    u_curr: np.ndarray
    v_prev: np.ndarray
    v_curr: np.ndarray

    def __post_init__(self):
        sizes = {arr.shape for arr in (self.u_prev, self.u_curr, self.v_prev, self.v_curr)}
        if len(sizes) != 1 or self.u_curr.ndim != 1:
            raise ValueError(f"field vectors disagree in shape: {sizes}")
        if self.n < 1:
            raise ValueError("state level must be at least 1")


class BlockOperator:
    """The implicit-step system of one run, built once by ``run``.

    Layout is [u; v].  The coupled matrix ``matrix`` has diagonal blocks
    M/k^2 + eps/k M + c^2 K + alpha M and off-diagonal blocks -alpha M, so it
    is exactly symmetric and positive definite for alpha > 0 (the coupling
    contributes alpha (x_u - x_v)' M (x_u - x_v) >= 0 to the quadratic form).
    It equals kron(Q, I) blockdiag(A_1, A_2) kron(Q, I)^T, where ``rotation``
    is the orthogonal Q of [[eps_u/k, -alpha], [-alpha, eps_v/k]] =
    Q diag(lam) Q^T and ``blocks`` is the pair (A_1, A_2) of N x N CSR
    matrices A_i = D + lam_i M, D = (1/k^2 + alpha) M + c^2 K.  Each block is
    SPD: the 2 x 2 matrix has a nonnegative diagonal, so lam_min >= -alpha
    and every block multiplies M by 1/k^2 + alpha + lam_i >= 1/k^2.  CG solves
    the blocks one after the other, each to its share of the rule
    (``sparse_linalg.solve_spd``) within max_iter iterations (10 N when
    unset), so the rule holds on the whole system while each block stops at
    its own count.

    The blocks hold nnz(M) values each, computed entry by entry in the order
    of scipy's sums ((1/k^2 + alpha) M + c^2 K) + lam_i M, on M's own
    ``indices`` and ``indptr`` arrays.  So ``mass`` and ``stiffness`` must
    share one sparsity pattern (equal ``indptr`` and ``indices``, explicit
    zeros included), as assembly gives them; a pair that does not raises
    ValueError.  Once the pattern is checked, the operator points the
    stiffness matrix's ``indices`` and ``indptr`` at M's arrays too, so M, K
    and both blocks hold one copy of the pattern; an in-place change to the
    pattern of any of them (``sort_indices``, ``eliminate_zeros``) changes
    all four.  The coupled matrix is built on first access only; the CG path
    never touches it.  The operator also owns what CG reuses from solve to
    solve: each block's Jacobi preconditioner, the pair ``inv_diag`` (method
    cg), and either the dense block inverses ``inverse`` (N <=
    DENSE_START_MAX_N, method cg) or the last three rotated solutions x and
    A x, which ``projected_guess`` starts from.  That history belongs to one
    chain of ``step`` calls, so every run builds its own operator.  A block
    or a diagonal that does not invert in floating point raises ValueError.
    """

    def __init__(self, mass: sp.csr_matrix, stiffness: sp.csr_matrix, params: SchemeParams,
                 config: SolverConfig = SolverConfig()):
        k, alpha = params.k, params.alpha
        lam, self.rotation = _eigh_2x2(params.eps_u / k, -alpha, params.eps_v / k)
        if not (mass.shape == stiffness.shape and np.array_equal(mass.indptr, stiffness.indptr)
                and np.array_equal(mass.indices, stiffness.indices)):
            raise ValueError("the mass and stiffness matrices do not share one sparsity pattern")
        # K indexes M's arrays from here on: M, K and both blocks hold one copy
        stiffness.indices, stiffness.indptr = mass.indices, mass.indptr
        # D + lam_i M entry by entry on M's pattern, each entry in the order of
        # scipy's ((1/k^2 + alpha) M + c^2 K) + lam_i M
        self.n_field = mass.shape[0]
        # c^2 K can overflow on a fine mesh although c^2 itself is finite
        with np.errstate(over="ignore", invalid="ignore"):
            first = mass.data * (1.0 / (k * k) + alpha)
            first += stiffness.data * params.c**2
            second = first + mass.data * lam[1]
            first += mass.data * lam[0]
        if not (np.isfinite(first).all() and np.isfinite(second).all()):
            raise ValueError(f"c = {params.c!r} is out of range: the step matrix "
                             f"(1/k^2 + alpha) M + c^2 K is not finite on this mesh")
        self.blocks = tuple(sp.csr_matrix((data, mass.indices, mass.indptr), shape=mass.shape)
                            for data in (first, second))
        self.mass, self.params = mass, params
        self.config = config
        self._stiffness = stiffness
        self.inverse = (_block_inverses(self.blocks)
                        if _dense_start(self.n_field, self.config) else None)
        if config.method == "cg":
            try:
                self.inv_diag = tuple(jacobi_inverse(block) for block in self.blocks)
            except ValueError:  # M/k^2 and c^2 K both near the smallest doubles
                raise ValueError(f"k = {k!r} is out of range: the step matrix's diagonal "
                                 f"(M/k^2 + c^2 K, c = {params.c!r}) is too small to invert "
                                 f"in floating point") from None
        self._history = []  # up to three (x, A x), newest first, rotated coordinates
        self._tip = None  # the state whose level x is the newest solution

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The coupled 2N x 2N matrix, for ``method = cholesky`` and checks."""
        mass, stiffness, params = self.mass, self._stiffness, self.params
        k, c, alpha = params.k, params.c, params.alpha
        diag_u = mass / (k * k) + (params.eps_u / k) * mass + c**2 * stiffness + alpha * mass
        diag_v = mass / (k * k) + (params.eps_v / k) * mass + c**2 * stiffness + alpha * mass
        coupling = -alpha * mass
        return sp.bmat([[diag_u, coupling], [coupling, diag_v]], format="csr")

    @np.errstate(over="ignore", invalid="ignore")
    def dense_guess(self, b: np.ndarray) -> np.ndarray:
        """x0 = blockdiag(A_1^{-1}, A_2^{-1}) b; solve_spd rejects one that overflowed."""
        return (self.inverse @ b.reshape(2, self.n_field, 1)).ravel()

    # an overflowing Gram product fails the tests below instead of warning
    @np.errstate(over="ignore", invalid="ignore")
    def projected_guess(self, state: State, b: np.ndarray) -> np.ndarray | None:
        """x0 = X G^{-1} X^T b over X = [x_n, d], else the line search along d; or None.

        d is the extrapolated step, 2 x_n - 3 x_{n-1} + x_{n-2} over three
        recorded solves, else x_n - x_{n-1}, and A d comes from the recorded
        products.  G is solved in closed form where it is positive definite
        and well conditioned; elsewhere x0 = x_n + t d with
        t = d.(b - A x_n) / d.A d, so that b - A x0 is orthogonal to d, unless
        d.A d is not positive.  Applies only to the state this operator's last
        ``record`` produced.  A start that is not finite is None.
        """
        if len(self._history) < 2 or state is not self._tip:
            return None
        (x1, a1), (x2, a2) = self._history[:2]
        if len(self._history) == 3:
            x3, a3 = self._history[2]
            d, ad = 2.0 * x1 - 3.0 * x2 + x3, 2.0 * a1 - 3.0 * a2 + a3
        else:
            d, ad = x1 - x2, a1 - a2
        g11, g12, g22 = dot(x1, a1), dot(x1, ad), dot(d, ad)
        det = g11 * g22 - g12 * g12
        # false for NaN and infinite entries as well
        if g11 > 0.0 and det > GRAM_TOL * g11 * g22:
            c1, c2 = dot(x1, b), dot(d, b)
            guess = ((g22 * c1 - g12 * c2) / det) * x1 + ((g11 * c2 - g12 * c1) / det) * d
        elif 0.0 < g22 < math.inf:
            guess = x1 + (dot(d, b - a1) / g22) * d
        else:
            return None
        return guess if np.isfinite(guess).all() else None

    def record(self, x: np.ndarray, ax: np.ndarray, state: State) -> None:
        """Store the solve x of the rotated system, and A x, that produced ``state``."""
        self._history = [(x, ax)] + self._history[:2]
        self._tip = state


def initialize(mesh: Mesh, params: SchemeParams, u0, u1, v0, v1) -> State:
    """Interpolate initial data and take the explicit Taylor startup step.

    Level 0 is the nodal interpolant of the displacements; level 1 adds
    k times the interpolated velocities.  The returned state sits at n = 1.
    """
    u_prev = assembly.interpolate(mesh, u0)
    v_prev = assembly.interpolate(mesh, v0)
    u_curr = u_prev + params.k * assembly.interpolate(mesh, u1)
    v_curr = v_prev + params.k * assembly.interpolate(mesh, v1)
    return State(1, u_prev, u_curr, v_prev, v_curr)


def step(state: State, op: BlockOperator, f_u: np.ndarray | None = None,
         f_v: np.ndarray | None = None) -> State:
    """Advance one time level with the run's operator ``op``.

    CG solves the two rotated blocks one after the other, each to its share
    of the rule (``sparse_linalg.solve_spd``), started from ``op.dense_guess`` on a small system, else from
    ``op.projected_guess`` (over x_n and the extrapolated step), and failing
    that, from the extrapolation 2 x_n - x_{n-1}; CG's final residual r gives
    the recorded A x = b - r.
    ``method = cholesky`` solves the coupled matrix.  f_u, f_v are already-assembled
    load vectors for the target level (or None for the homogeneous problem).
    """
    params, mass = op.params, op.mass
    k = params.k
    guess_u = 2.0 * state.u_curr - state.u_prev
    guess_v = 2.0 * state.v_curr - state.v_prev
    rhs_u = mass @ (guess_u / (k * k) + (params.eps_u / k) * state.u_curr)
    rhs_v = mass @ (guess_v / (k * k) + (params.eps_v / k) * state.v_curr)
    if f_u is not None:
        rhs_u = rhs_u + f_u
    if f_v is not None:
        rhs_v = rhs_v + f_v
    n = op.n_field
    if op.config.method == "cholesky":
        solution = solve_spd(op.matrix, np.concatenate([rhs_u, rhs_v]), op.config)
        return State(state.n + 1, state.u_curr, solution[:n], state.v_curr, solution[n:])
    q = op.rotation
    b = np.concatenate(_rotate(q.T, rhs_u, rhs_v))
    dense = op.inverse is not None
    x0 = op.dense_guess(b) if dense else op.projected_guess(state, b)
    if x0 is None:
        x0 = np.concatenate(_rotate(q.T, guess_u, guess_v))
    residual = None if dense else np.empty_like(b)
    x = solve_spd(op.blocks, b, op.config, x0=x0, inv_diag=op.inv_diag, residual=residual)
    u_new, v_new = _rotate(q, x[:n], x[n:])
    new = State(state.n + 1, state.u_curr, u_new, state.v_curr, v_new)
    if not dense:  # A x = b - r from CG's final residual, with no product taken
        op.record(x, np.subtract(b, residual, out=residual), new)
    return new


def solver_start(n_field: int, config: SolverConfig) -> str:
    """Name the start a run's solves take on N = ``n_field``, as the CLI reports it."""
    if config.method == "cholesky":
        return f"none (method = cholesky solves the coupled matrix, 2N = {2 * n_field})"
    route = "dense inverse" if _dense_start(n_field, config) else "projected"
    return f"{route} (2 blocks of N = {n_field})"


def _dense_start(n_field: int, config: SolverConfig) -> bool:
    return config.method == "cg" and n_field <= DENSE_START_MAX_N


# a nonpositive pivot or an overflow raises instead of warning
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _block_inverses(blocks: tuple) -> np.ndarray:
    """The inverses of the two N x N ``blocks``, shape (2, N, N).

    Each comes from the Cholesky factor L, computed in place, and the inverse
    of L, row by row: A^{-1} = L^{-T} L^{-1}.  Only matrix-vector products
    are used, so the build maps no LAPACK or matrix-matrix kernels (they
    cost more resident memory than the 2 N^2 doubles kept).  A pivot that is
    not positive or an entry that is not finite raises ValueError.
    """
    n = blocks[0].shape[0]
    inverses = np.empty((2, n, n))
    linv = np.zeros((n, n))
    for block, out in zip(blocks, inverses):
        a = block.toarray()  # becomes L in its lower triangle
        for j in range(n):
            pivot = a[j, j] - a[j, :j] @ a[j, :j]
            # NaN carries a pivot that is not positive into the check below
            a[j, j] = math.sqrt(pivot) if pivot > 0.0 else math.nan
            a[j + 1:, j] = (a[j + 1:, j] - a[j + 1:, :j] @ a[j, :j]) / a[j, j]
        for i in range(n):
            row = -(a[i, :i] @ linv[:i])
            row[i] += 1.0
            linv[i] = row / a[i, i]
        # L^{-1} is lower triangular, so row i of L^{-T} L^{-1} sums rows i.. of it
        for i in range(n):
            out[i] = linv[i:, i] @ linv[i:]
    if not np.isfinite(inverses).all():
        raise ValueError("the step matrix's blocks do not invert in floating point on this mesh")
    return inverses


def _eigh_2x2(a: float, b: float, c: float) -> tuple:
    """(lam, Q) of [[a, b], [b, c]] = Q diag(lam) Q^T for a, c >= 0 and b != 0.

    As ``np.linalg.eigh`` returns them: lam ascending, the eigenvectors the
    columns of Q, with LAPACK's signs.  A port of LAPACK's DLAEV2 (Anderson
    et al., LAPACK Users' Guide, 3rd ed., SIAM 1999) that calls no LAPACK
    routine: the larger eigenvalue is (a + c) / 2 + hypot((a - c) / 2, b),
    the smaller det / larger in an order that cannot overflow, and Q comes
    from the better-conditioned row of A - lam I, the one whose entry
    (a - c) / 2 +- hypot adds two numbers of one sign.  Halving first keeps
    every intermediate value below the larger eigenvalue, so none overflows
    where the eigenvalues are finite.
    """
    half = 0.5 * (a - c)
    root = math.hypot(half, b)
    large = 0.5 * a + 0.5 * c + root
    big, small = (a, c) if abs(a) > abs(c) else (c, a)
    lam_small = (big / large) * small - (b / large) * b
    # (-b, cs) is an eigenvector: the smaller eigenvalue's where a >= c
    cs = half + root if a >= c else half - root
    if abs(cs) > abs(b):
        t = -b / cs
        sn = 1.0 / math.sqrt(1.0 + t * t)
        cs = t * sn
    else:
        t = -cs / b
        cs = 1.0 / math.sqrt(1.0 + t * t)
        sn = t * cs
    if a >= c:  # turn it to the larger eigenvalue's
        cs, sn = -sn, cs
    return np.array([lam_small, large]), np.array([[-sn, cs], [cs, sn]])


def _rotate(q: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """Apply the 2 x 2 matrix q to every vertex pair (a_i, b_i)."""
    return q[0, 0] * a + q[0, 1] * b, q[1, 0] * a + q[1, 1] * b


def run(
    mesh: Mesh,
    mass: sp.csr_matrix,
    stiffness: sp.csr_matrix,
    params: SchemeParams,
    initial: tuple,
    config: SolverConfig = SolverConfig(),
    sources: Callable[[float], tuple] | None = None,
    observer: Callable[[State], None] | None = None,
) -> State:
    """Run the scheme from t = 0 to t = T.

    Parameters
    ----------
    mass, stiffness : csr_matrix
        Interior mass and stiffness matrices of ``mesh``.
    initial : tuple
        Callables (u0, u1, v0, v1) of the vertex coordinates.
    sources : callable, optional
        Maps the target time t_{n+1} to a pair of load vectors (f_u, f_v).
    observer : callable, optional
        Invoked with every state, the startup state included.

    Returns
    -------
    State
        The final state at level M_steps.
    """
    op = BlockOperator(mass, stiffness, params, config)
    state = initialize(mesh, params, *initial)
    if observer is not None:
        observer(state)
    while state.n < params.M_steps:
        target_t = (state.n + 1) * params.k
        f_u = f_v = None
        if sources is not None:
            f_u, f_v = sources(target_t)
        try:
            state = step(state, op, f_u, f_v)
        except (SolverFailure, ValueError) as exc:
            raise with_context(
                exc, f"advancing to level {state.n + 1} (t = {target_t:g}) failed"
            ) from exc
        if observer is not None:
            observer(state)
    return state


def sine_mode(points: np.ndarray) -> np.ndarray:
    """First Dirichlet eigenmode of the unit interval or square, prod sin(pi x_d)."""
    vals = np.sin(np.pi * points[:, 0])
    for d in range(1, points.shape[1]):
        vals = vals * np.sin(np.pi * points[:, d])
    return vals


def initial_preset(name: str) -> tuple:
    """Named initial data (u0, u1, v0, v1) as vertex-coordinate callables.

    ``zero``         rest state everywhere;
    ``sine``         first Dirichlet eigenmode in u, v at rest;
    ``sine-opposed`` the same mode with opposite signs in u and v.
    """

    def zero(points):
        return np.zeros(len(points))

    if name == "zero":
        return (zero, zero, zero, zero)
    if name == "sine":
        return (sine_mode, zero, zero, zero)
    if name == "sine-opposed":
        return (sine_mode, zero, lambda p: -sine_mode(p), zero)
    raise ValueError(f"initial {name!r}: unknown initial preset; try zero, sine, sine-opposed")
