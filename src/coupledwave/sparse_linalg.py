"""Solvers for the symmetric positive definite systems produced by the scheme.

Two independent routes are kept on purpose: a hand-written Jacobi
preconditioned conjugate gradient (the production path, matrix-free except
for the diagonal, started from the caller's guess or from zero) and a dense
Cholesky factorization via scipy (the check path).  Tests compare them
against each other, so neither should be folded into the other.  scipy.linalg
is imported by the Cholesky branch only, so the CG path never loads it, and
neither route loads scipy.sparse.linalg.

CG is also the verifier of every start it is given.  On small systems the
scheme starts it from an exact dense solve (``scheme.DENSE_START_MAX_N``);
CG still computes b - A x0 and applies the stopping rule, so such a solve
returns after 0 iterations and a start that falls short is iterated on, with
every failure below still raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# below this a sum of squares may have lost digits to underflow
_SQUARES_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


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


def solve_spd(A, b: np.ndarray, config: SolverConfig | None = None,
              x0: np.ndarray | None = None, inv_diag: np.ndarray | None = None) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A.

    Stops when ||b - A x|| <= rel_tol * ||b||.  A zero right-hand side
    returns the exact zero vector without iterating.  CG starts from x0
    when given (zero otherwise) and preconditions with ``inv_diag`` when
    given (``jacobi_inverse(A)`` otherwise); the Cholesky route ignores both.

    Raises
    ------
    ValueError
        On shape mismatch, or when b, x0 or the diagonal of A is not finite.
    SolverFailure
        When CG exceeds its iteration budget (carries the last residual).
    """
    config = config or SolverConfig()
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if A.shape != (n, n) or b.ndim != 1:
        raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}")
    if not b.any():
        return np.zeros(n)
    if not np.isfinite(b).all():
        raise ValueError("the right-hand side is not finite (an input or source overflowed)")
    if x0 is not None and not np.isfinite(x0).all():
        raise ValueError("the initial guess is not finite")
    if config.method == "cholesky":
        import scipy.linalg

        dense = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
        _check_diagonal(np.diagonal(dense))
        factor = scipy.linalg.cho_factor(dense, lower=True)
        return scipy.linalg.cho_solve(factor, b)
    x, _, _ = cg_jacobi(A, b, config.rel_tol, config.max_iter or 10 * n, x0, inv_diag)
    return x


def jacobi_inverse(A) -> np.ndarray:
    """The Jacobi preconditioner 1 / diag(A), after checking the diagonal.

    Assembled mass/stiffness combinations have strictly positive diagonals;
    a nonpositive entry is reported as a SolverFailure.
    """
    diag = A.diagonal() if sp.issparse(A) else np.diagonal(A)
    _check_diagonal(diag)
    if (diag <= 0.0).any():
        raise SolverFailure("matrix has a nonpositive diagonal entry", np.inf, 0)
    return 1.0 / diag


# overflow inside CG is detected and reported, not warned about
@np.errstate(over="ignore", invalid="ignore")
def cg_jacobi(A, b: np.ndarray, rel_tol: float, max_iter: int, x0: np.ndarray | None = None,
              inv_diag: np.ndarray | None = None):
    """Jacobi preconditioned conjugate gradient from x0 (zero when omitted).

    Returns (x, iterations, residual); a start whose residual already
    meets rel_tol * ||b|| returns after 0 iterations.  ``inv_diag`` is the
    preconditioner ``jacobi_inverse(A)``, computed here when omitted, so a
    caller solving with one matrix many times passes it in.  Norms are safe
    for entries beyond the square root of the float range; an iterate whose
    product with A overflows, or a preconditioned residual that underflows to
    0 above the target, raises ValueError, like any non-finite input.
    """
    if inv_diag is None:
        inv_diag = jacobi_inverse(A)

    target = rel_tol * _norm(b)
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - A @ x
    res = _norm(r)
    if res <= target:
        return x, 0, res
    z = r * inv_diag
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        if rz == 0.0:  # r . z is positive unless z = r / diag(A) underflowed
            raise ValueError(f"the solve underflowed at iteration {it}: the residual "
                             f"divided by the matrix diagonal is 0 in floating point")
        Ap = A @ p
        pAp = float(p @ Ap)
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
        rz_next = float(r @ z)
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
    squares = float(v @ v)
    if _SQUARES_FLOOR <= squares < math.inf:
        return math.sqrt(squares)
    scale = float(np.abs(v).max())
    if not 0.0 < scale < math.inf:
        return scale
    w = v / scale
    return scale * math.sqrt(float(w @ w))


def _check_diagonal(diag: np.ndarray) -> None:
    if not np.isfinite(diag).all():
        raise ValueError("the matrix diagonal is not finite")
