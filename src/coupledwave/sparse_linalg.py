"""Solvers for the symmetric positive definite systems produced by the scheme.

Two independent routes are kept on purpose: a hand-written Jacobi
preconditioned conjugate gradient (the production path, matrix-free except
for the diagonal, started from the caller's guess or from zero) and a dense
Cholesky factorization via scipy (the check path).  Tests compare them
against each other, so neither should be folded into the other.  scipy.linalg
is imported by the Cholesky branch only, so the CG path never loads it, and
neither route loads scipy.sparse.linalg.  A ``method = cg`` run calls no
LAPACK routine at all: the scheme's 2 x 2 rotation and the least-squares
fits are closed forms (``scheme._eigh_2x2``, ``energy.fit_line``), because
the first LAPACK call makes about 1 MB of OpenBLAS's pages resident.  Only
the Cholesky check route factors with LAPACK.

The stopping rule is also the verifier of every start.  On small systems
the scheme starts from an exact dense solve (``scheme.DENSE_START_MAX_N``).
``solve_spd`` computes b - A x0 on both blocks and applies the rule before
any CG entry, so such a start is returned as it is, with no CG call, and
only a block whose start falls short enters CG, from that residual, with
every failure below still raised.

A block-diagonal system blockdiag(A_1, A_2), the scheme's rotated step, comes
to ``solve_spd`` as the pair of its blocks.  CG solves one block after the
other, each to an absolute ``target`` on its own residual, which
``cg_jacobi`` takes in place of rel_tol ||b_i||: with tau = rel_tol ||b||
over the whole right-hand side, A_1 until ||r_1||^2 <= tau^2 / 2, then A_2
until ||r_2||^2 <= tau^2 - ||r_1||^2, both taken in norm form:
||r_1|| <= tau sqrt(1/2), then ||r_2|| <= tau sqrt(1 - (||r_1|| / tau)^2), as
tau^2 underflows where tau does not.  So ||b - A x|| <= rel_tol ||b|| holds
on the whole system, as far as CG's updated residuals are exact, while each
block stops at its own iteration count: one CG over both blocks kept the
faster block iterating until the slower one had converged.  A block whose
start already meets its share enters no CG.  The target is an argument of
the call, not a setting: ``SolverConfig`` keeps rel_tol, which a failure
names, and each block has a budget of max_iter iterations (10 times its size
when unset).  The norm of b that sets tau is also the check that b
is finite.

Every dot product a run takes is ``dot``: one BLAS ddot per piece of at most
DOT_CHUNK entries.  OpenBLAS threads a ddot of more than 10000 entries, and
its worker then spins for about 0.1 s (CG's dots at 2N = 32258 kept a second
core busy all run) and rounds unlike the serial sum, which made outputs
depend on OPENBLAS_NUM_THREADS.  A piece never wakes the thread pool.
Every product of a CSR matrix with a vector is ``matvec``, scipy's own
kernel called without the type dispatch of ``A @ x``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

# below this a sum of squares may have lost digits to underflow
_SQUARES_FLOOR = np.finfo(float).tiny / np.finfo(float).eps

# the longest piece of a dot product, below OpenBLAS's 10000-entry threshold
DOT_CHUNK = 8192


def dot(a: np.ndarray, b: np.ndarray):
    """a . b as a float for 1-D a and b, one value per row for (rows, n) arrays.

    Pieces are summed from the left, the first first, so each row's value
    equals bitwise the 1-D dot of that row; up to DOT_CHUNK it is ``a @ b``,
    taken by np.dot for 1-D arrays, which costs less per call than vecdot.
    """
    n = a.shape[-1]
    if n <= DOT_CHUNK:
        return float(np.dot(a, b)) if a.ndim == 1 else np.vecdot(a, b)
    total = np.vecdot(a[..., :DOT_CHUNK], b[..., :DOT_CHUNK])
    for start in range(DOT_CHUNK, n, DOT_CHUNK):
        piece = slice(start, start + DOT_CHUNK)
        total = total + np.vecdot(a[..., piece], b[..., piece])
    return float(total) if a.ndim == 1 else total


_CSR = (sp.csr_matrix, sp.csr_array)


def matvec(A, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A x for a matrix A and a 1-D float vector x, written into ``out`` when
    given, which must then hold zeros.

    A float64 CSR matrix goes straight to scipy's kernel
    (``_sparsetools.csr_matvec``, which adds A x to ``out``), skipping the
    dispatch of ``A @ x`` around it: on the mass matrix at N = 225 ``A @ x``
    took 7.8 us, and the kernel into a zeroed buffer 3.0 us (2-vCPU VM,
    scipy 1.17).  Both sum each row from zero in one order, so the
    result equals ``A @ x`` bitwise.  Any other A (a dense test matrix) takes
    ``A @ x``.  A shape mismatch is a ValueError, as the kernel itself does
    not check that x and ``out`` fit A.
    """
    rows, cols = A.shape
    if x.shape != (cols,) or not (out is None or out.shape == (rows,)):
        raise ValueError(f"shape mismatch: A {A.shape}, x {x.shape}")
    if out is None:
        out = np.zeros(rows)
    if isinstance(A, _CSR) and A.dtype == np.float64:
        _sparsetools.csr_matvec(rows, cols, A.indptr, A.indices, A.data, x, out)
    else:
        out[...] = A @ x
    return out


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule and method selection.

    max_iter = None means 10 * n, decided when the system size is known.
    """

    rel_tol: float = 1e-12
    max_iter: int | None = None
    method: str = "cg"

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")
        if self.method not in ("cg", "cholesky"):
            raise ValueError(f"method must be cg or cholesky, got {self.method!r}")


class SolverFailure(RuntimeError):
    """CG ran out of iterations or hit a direction of nonpositive curvature."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def with_context(exc: SolverFailure | ValueError, context: str) -> SolverFailure | ValueError:
    """A SolverFailure or ValueError like ``exc`` whose message leads with ``context``."""
    message = f"{context}: {exc}"
    if isinstance(exc, SolverFailure):
        return SolverFailure(message, exc.residual, exc.iterations)
    return ValueError(message)


# the norm of an overflowing b fails the check below instead of warning
@np.errstate(over="ignore", invalid="ignore")
def solve_spd(A, b: np.ndarray, config: SolverConfig = SolverConfig(),
              x0: np.ndarray | None = None, inv_diag: np.ndarray | tuple | None = None,
              residual: np.ndarray | None = None) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A, one matrix or a pair of blocks.

    A pair (A_1, A_2) of square matrices stands for blockdiag(A_1, A_2), and
    ``inv_diag`` is then a pair as well.  Stops when
    ||b - A x|| <= rel_tol * ||b||; CG solves a pair block by block, each to
    its share of that target and with a budget of its own (see the module
    docstring), once both blocks' start residuals are known: x0 itself is
    returned when both meet their shares.  A zero right-hand side returns
    the exact zero vector without iterating.  CG starts from x0 when given
    (zero otherwise) and preconditions with ``inv_diag`` when given
    (``jacobi_inverse`` otherwise), and writes its final residual b - A x
    into ``residual`` when given (0 for a zero b); the Cholesky route
    ignores all three and factors the whole matrix.

    Raises
    ------
    ValueError
        On shape mismatch, or when b (or its norm), x0 or the diagonal of A
        is not finite.
    SolverFailure
        When CG exceeds its iteration budget on a block (carries its last
        residual).
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    pair = isinstance(A, tuple)
    shape, m = ((A[0].shape, A[1].shape), A[0].shape[0]) if pair else (A.shape, n)
    if shape != (((m, m), (n - m, n - m)) if pair else (n, n)) or b.ndim != 1:
        raise ValueError(f"shape mismatch: A {shape}, b {b.shape}")
    size = _norm(b)
    if size == 0.0:
        if residual is not None:
            residual.fill(0.0)
        return np.zeros(n)
    if not size < math.inf:
        raise ValueError("the right-hand side is not finite (an input or source overflowed)")
    if x0 is not None and not np.isfinite(x0).all():
        raise ValueError("the initial guess is not finite")
    if config.method == "cholesky":
        import scipy.linalg

        matrix = sp.block_diag(A) if pair else A
        dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
        _check_diagonal(np.diagonal(dense))
        factor = scipy.linalg.cho_factor(dense, lower=True)
        return scipy.linalg.cho_solve(factor, b)
    tau = config.rel_tol * size
    if not pair:
        x, _, _ = cg_jacobi(A, b, config.rel_tol, config.max_iter or 10 * n, x0, inv_diag, residual,
                            tau)
        return x
    # both start residuals first: a block whose start meets its share enters no
    # CG, and one that does not starts CG from its residual, with no product
    # taken twice
    (a_1, a_2), (d_1, d_2) = A, inv_diag or (None, None)
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    r = np.empty(n) if residual is None else residual
    r.fill(0.0)  # matvec adds into it
    matvec(a_1, x0[:m], r[:m])
    matvec(a_2, x0[m:], r[m:])
    res_1, res_2 = _norm(np.subtract(b, r, out=r)[:m]), _norm(r[m:])
    x_1 = x_2 = None
    # "not <=" sends a NaN residual into CG, which reports it
    if not res_1 <= tau * math.sqrt(0.5):
        x_1, _, res_1 = cg_jacobi(a_1, b[:m], config.rel_tol, config.max_iter or 10 * m, x0[:m],
                                  d_1, r[:m], tau * math.sqrt(0.5), res_1)
    target = tau * math.sqrt(1.0 - (res_1 / tau) ** 2) if tau > 0.0 else 0.0
    if not res_2 <= target:
        x_2, _, _ = cg_jacobi(a_2, b[m:], config.rel_tol, config.max_iter or 10 * (n - m),
                              x0[m:], d_2, r[m:], target, res_2)
    if x_1 is None and x_2 is None:
        return x0
    return np.concatenate([x0[:m] if x_1 is None else x_1, x0[m:] if x_2 is None else x_2])


def jacobi_inverse(A) -> np.ndarray:
    """The Jacobi preconditioner 1 / diag(A), after checking the diagonal.

    Assembled mass/stiffness combinations have strictly positive diagonals;
    a nonpositive entry is reported as a SolverFailure, and one whose inverse
    overflows as a ValueError.
    """
    diag = A.diagonal() if sp.issparse(A) else np.diagonal(A)
    _check_diagonal(diag)
    if (diag <= 0.0).any():
        raise SolverFailure("matrix has a nonpositive diagonal entry", np.inf, 0)
    with np.errstate(divide="ignore", over="ignore"):
        inverse = 1.0 / diag
    if not np.isfinite(inverse).all():
        raise ValueError("the matrix diagonal is too small to invert in floating point")
    return inverse


# overflow inside CG is detected and reported, not warned about
@np.errstate(over="ignore", invalid="ignore")
def cg_jacobi(A, b: np.ndarray, rel_tol: float, max_iter: int, x0: np.ndarray | None = None,
              inv_diag: np.ndarray | None = None, residual: np.ndarray | None = None,
              target: float | None = None, start_norm: float | None = None):
    """Jacobi preconditioned conjugate gradient from x0 (zero when omitted).

    Returns (x, iterations, ||r||) for r = b - A x as CG updates it, in the
    array ``residual`` when one is given.  CG stops once ||r|| meets the
    absolute ``target``, rel_tol * ||b|| when omitted, so a start that
    already meets it returns after 0 iterations.  ``start_norm`` given
    means that ``residual`` already holds b - A x0, of that norm, so CG
    takes no product for it.  ``inv_diag`` is the preconditioner
    ``jacobi_inverse(A)``, computed here when omitted, so a caller solving
    with one matrix many times passes it in.  Norms are safe
    for entries beyond the square root of the float range; an iterate whose
    product with A overflows, or a preconditioned residual that underflows to
    0 above the target, raises ValueError, like any non-finite input.
    """
    if inv_diag is None:
        inv_diag = jacobi_inverse(A)

    if target is None:
        target = rel_tol * _norm(b)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    if start_norm is None:
        r = np.subtract(b, matvec(A, x), out=residual)
        res = _norm(r)
    else:
        r, res = residual, start_norm
    if res <= target:
        return x, 0, res
    z = r * inv_diag
    p = z.copy()
    rz = dot(r, z)
    for it in range(1, max_iter + 1):
        if rz == 0.0:  # r . z is positive unless z = r / diag(A) underflowed
            raise ValueError(f"the solve underflowed at iteration {it}: the residual "
                             f"divided by the matrix diagonal is 0 in floating point")
        Ap = matvec(A, p)
        pAp = dot(p, Ap)
        if not 0.0 < pAp < math.inf:
            if pAp <= 0.0:
                raise SolverFailure(
                    f"nonpositive curvature at iteration {it}; matrix is not positive definite",
                    res,
                    it,
                )
            raise ValueError(f"the solve overflowed at iteration {it}: the system's "
                             f"entries are too large for floating point")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = _norm(r)
        if res <= target:
            return x, it, res
        np.multiply(r, inv_diag, out=z)
        rz_next = dot(r, z)
        p *= rz_next / rz
        p += z
        rz = rz_next
    raise SolverFailure(
        f"conjugate gradient did not reach {rel_tol:g} relative residual "
        f"in {max_iter} iterations (residual {res:.3e})",
        res,
        max_iter,
    )


def _norm(v: np.ndarray) -> float:
    """Euclidean norm; rescaled by max |v_i| where the plain sum of squares
    would over- or underflow (entries beyond about 1e154 or below 1e-154)."""
    squares = dot(v, v)
    if _SQUARES_FLOOR <= squares < math.inf:
        return math.sqrt(squares)
    scale = float(np.abs(v).max())
    if not 0.0 < scale < math.inf:
        return scale
    w = v / scale
    return scale * math.sqrt(dot(w, w))


def _check_diagonal(diag: np.ndarray) -> None:
    if not np.isfinite(diag).all():
        raise ValueError("the matrix diagonal is not finite")
