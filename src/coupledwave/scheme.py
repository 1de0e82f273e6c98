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
[[eps_u/k, -alpha], [-alpha, eps_v/k]].  A CG step rotates the right-hand
side per vertex, solves both N x N blocks in one Jacobi-PCG, and rotates the
solution back.  Q is orthogonal, so the stopping rule
||b - A x|| <= rel_tol ||b|| holds on the coupled system as well.

Every level solves the same matrix with a new right-hand side.  On a small
system, where both N x N block inverses fit in 1 MiB together (N <=
DENSE_START_MAX_N), the operator inverts each block once per run and CG
starts from x0 = blockdiag(A_1^{-1}, A_2^{-1}) b.  That start is exact to
rounding, so CG only verifies it: it computes b - A x0, applies the rel_tol
rule and iterates only if the start falls short.  The 1 MiB bound keeps the
memory the inverses add small next to the process's, and they come from
numpy alone: a sparse factorization would load scipy.sparse.linalg, whose
import alone adds about 9 MB resident.  A block that does not invert in
floating point (entries near the ends of the float range) leaves its run on
the projected start.
Larger systems start from the Galerkin projection of the new solution onto
the span of the last two, X = [x_n, x_{n-1}] with stored right-hand sides
B ~ A X: x0 = X G^{-1} X^T b with G = sym(X^T B) (P. F. Fischer, CMAME 163,
1998).  The extrapolation 2 x_n - x_{n-1} lies in that span, so the
projection's A-norm error is no larger; the extrapolation remains the
fallback when fewer than two solves are stored, G is singular or not
finite, or a dense start is not finite.  ``method = cholesky`` solves the
coupled matrix itself, with neither start, which keeps the check path
independent of the rotation.
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
from .sparse_linalg import SolverConfig, SolverFailure, jacobi_inverse, solve_spd, with_context

# the projection falls back to extrapolation when det G <= GRAM_TOL g11 g22.
# det G = g11 g22 sin^2 of the A-angle between the last two solutions, and G
# is only as exact as B = A X (to rel_tol); on nearly parallel solutions, as
# on the finest mms-ladder level, projecting below 1e-10 took more CG
# iterations than extrapolating
GRAM_TOL = 1e-10

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
    It equals kron(Q, I) decoupled kron(Q, I)^T, where ``rotation`` is the
    orthogonal Q of [[eps_u/k, -alpha], [-alpha, eps_v/k]] = Q diag(lam) Q^T
    and ``decoupled`` is blockdiag(D + lam_1 M, D + lam_2 M) with
    D = (1/k^2 + alpha) M + c^2 K.  Each block is SPD: the 2 x 2 matrix has a
    nonnegative diagonal, so lam_min >= -alpha and every block multiplies M by
    1/k^2 + alpha + lam_i >= 1/k^2.

    ``decoupled`` holds 2 nnz(M) entries against the coupled matrix's
    4 nnz(M).  The coupled matrix is built on first access only; the CG path
    never touches it.  The operator also owns what CG reuses from solve to
    solve: the Jacobi preconditioner ``inv_diag`` and either the dense block
    inverses ``inverse`` (N <= DENSE_START_MAX_N, method cg) or the last two
    rotated (solution, right-hand side) pairs.  That history belongs to one
    chain of ``step`` calls, so every run builds its own operator.
    """

    def __init__(self, mass: sp.csr_matrix, stiffness: sp.csr_matrix, params: SchemeParams,
                 config: SolverConfig | None = None):
        k, alpha = params.k, params.alpha
        damping = np.array([[params.eps_u / k, -alpha], [-alpha, params.eps_v / k]])
        lam, self.rotation = np.linalg.eigh(damping)
        # c^2 K can overflow on a fine mesh although c^2 itself is finite
        with np.errstate(over="ignore", invalid="ignore"):
            shared = (1.0 / (k * k) + alpha) * mass + params.c**2 * stiffness
            self.decoupled = sp.block_diag([shared + lam_i * mass for lam_i in lam], format="csr")
        if not np.isfinite(self.decoupled.data).all():
            raise ValueError(f"c = {params.c!r} is out of range: the step matrix "
                             f"(1/k^2 + alpha) M + c^2 K is not finite on this mesh")
        self.mass, self.params = mass, params
        self.config = config or SolverConfig()
        self._stiffness = stiffness
        self.n_field = mass.shape[0]
        # (2, N, N) on small systems, else None; None too when a block does
        # not invert in floating point, which leaves the run projected
        self.inverse = (_block_inverses(self.decoupled, self.n_field)
                        if _dense_start(self.n_field, self.config) else None)
        self._history = []  # up to two (x, b, x . b), newest first, rotated coordinates
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

    @cached_property
    def inv_diag(self) -> np.ndarray:
        """The Jacobi preconditioner of ``decoupled``, computed once per run."""
        return jacobi_inverse(self.decoupled)

    @np.errstate(over="ignore", invalid="ignore")
    def dense_guess(self, b: np.ndarray) -> np.ndarray | None:
        """x0 = blockdiag(A_1^{-1}, A_2^{-1}) b, or None when it is not finite."""
        guess = (self.inverse @ b.reshape(2, self.n_field, 1)).ravel()
        return guess if np.isfinite(guess).all() else None

    # an overflowing Gram product fails the tests below instead of warning
    @np.errstate(over="ignore", invalid="ignore")
    def projected_guess(self, state: State, b: np.ndarray) -> np.ndarray | None:
        """x0 = X G^{-1} X^T b over the last two solutions, or None to extrapolate.

        Applies only when ``state`` is the one this operator's last ``record``
        produced.  G is solved in closed form; it must be positive definite
        and well conditioned, and the guess finite, else the answer is None.
        """
        if len(self._history) < 2 or state is not self._tip:
            return None
        (x1, b1, g11), (x2, b2, g22) = self._history
        g12 = 0.5 * (float(x1 @ b2) + float(x2 @ b1))
        c1, c2 = float(x1 @ b), float(x2 @ b)
        det = g11 * g22 - g12 * g12
        # false for NaN and infinite entries as well
        if not (g11 > 0.0 and det > GRAM_TOL * g11 * g22):
            return None
        guess = ((g22 * c1 - g12 * c2) / det) * x1 + ((g11 * c2 - g12 * c1) / det) * x2
        return guess if np.isfinite(guess).all() else None

    @np.errstate(over="ignore", invalid="ignore")
    def record(self, x: np.ndarray, b: np.ndarray, state: State) -> None:
        """Store the solve x of the rotated system with rhs b that produced ``state``."""
        self._history = [(x, b, float(x @ b))] + self._history[:1]
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

    CG solves the decoupled system, started from ``op.dense_guess`` on a
    small system, else from ``op.projected_guess``, and failing either, from
    the extrapolation 2 x_n - x_{n-1}; ``method = cholesky`` solves the
    coupled matrix.  f_u, f_v are already-assembled
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
    x = solve_spd(op.decoupled, b, op.config, x0=x0, inv_diag=op.inv_diag)
    u_new, v_new = _rotate(q, x[:n], x[n:])
    new = State(state.n + 1, state.u_curr, u_new, state.v_curr, v_new)
    if not dense:
        op.record(x, b, new)
    return new


def solver_start(n_field: int, config: SolverConfig) -> str:
    """Name the start a run's solves take on N = ``n_field``, as the CLI reports it."""
    if config.method == "cholesky":
        return f"none (method = cholesky solves the coupled matrix, 2N = {2 * n_field})"
    route = "dense inverse" if _dense_start(n_field, config) else "projected"
    return f"{route} (2 blocks of N = {n_field})"


def _dense_start(n_field: int, config: SolverConfig) -> bool:
    return config.method == "cg" and n_field <= DENSE_START_MAX_N


# a nonpositive pivot or an overflow returns None instead of warning
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _block_inverses(decoupled: sp.csr_matrix, n: int) -> np.ndarray | None:
    """The inverses of both N x N diagonal blocks of ``decoupled``, shape (2, N, N).

    Each comes from the Cholesky factor L, computed in place, and the inverse
    of L, row by row: A^{-1} = L^{-T} L^{-1}.  Only matrix-vector products
    are used, so the build maps no LAPACK or matrix-matrix kernels (they
    cost more resident memory than the 2 N^2 doubles kept).  None when a
    pivot is not positive or an entry not finite.
    """
    inverses = np.empty((2, n, n))
    linv = np.zeros((n, n))
    for block, out in enumerate(inverses):
        span = slice(block * n, (block + 1) * n)
        a = decoupled[span, span].toarray()  # becomes L in its lower triangle
        for j in range(n):
            pivot = a[j, j] - a[j, :j] @ a[j, :j]
            if not pivot > 0.0:
                return None
            a[j, j] = math.sqrt(pivot)
            a[j + 1:, j] = (a[j + 1:, j] - a[j + 1:, :j] @ a[j, :j]) / a[j, j]
        for i in range(n):
            row = -(a[i, :i] @ linv[:i])
            row[i] += 1.0
            linv[i] = row / a[i, i]
        # L^{-1} is lower triangular, so row i of L^{-T} L^{-1} sums rows i.. of it
        for i in range(n):
            out[i] = linv[i:, i] @ linv[i:]
    return inverses if np.isfinite(inverses).all() else None


def _rotate(q: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """Apply the 2 x 2 matrix q to every vertex pair (a_i, b_i)."""
    return q[0, 0] * a + q[0, 1] * b, q[1, 0] * a + q[1, 1] * b


def run(
    mesh: Mesh,
    mass: sp.csr_matrix,
    stiffness: sp.csr_matrix,
    params: SchemeParams,
    initial: tuple,
    config: SolverConfig | None = None,
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
