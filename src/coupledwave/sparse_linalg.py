"""Solvers for the symmetric positive definite systems produced by the scheme.

Two independent routes are kept on purpose: a hand-written Jacobi
preconditioned conjugate gradient (the production path, matrix-free except
for the diagonal) and a dense Cholesky factorization via scipy (the check
path).  Tests compare them against each other, so neither should be folded
into the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp


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


def residual_norm(A, x: np.ndarray, b: np.ndarray) -> float:
    """Euclidean norm of b - A x."""
    return float(np.linalg.norm(b - A @ x))


def solve_spd(A, b: np.ndarray, config: SolverConfig | None = None) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A.

    Stops when ||b - A x|| <= rel_tol * ||b||.  A zero right-hand side
    returns the exact zero vector without iterating.

    Raises
    ------
    ValueError
        On shape mismatch.
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
    if config.method == "cholesky":
        dense = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
        factor = scipy.linalg.cho_factor(dense, lower=True)
        return scipy.linalg.cho_solve(factor, b)
    x, _, _ = cg_jacobi(A, b, config.rel_tol, config.max_iter or 10 * n)
    return x


def cg_jacobi(A, b: np.ndarray, rel_tol: float, max_iter: int):
    """Jacobi preconditioned conjugate gradient from the zero start.

    Returns (x, iterations, residual_norm).  The preconditioner is the
    inverse diagonal, which is safe because assembled mass/stiffness
    combinations have strictly positive diagonals.
    """
    diag = A.diagonal() if sp.issparse(A) else np.diagonal(A)
    if (diag <= 0.0).any():
        raise SolverFailure("matrix has a nonpositive diagonal entry", np.inf, 0)

    target = rel_tol * float(np.linalg.norm(b))
    x = np.zeros_like(b)
    r = b.copy()
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    res = float(np.linalg.norm(r))
    for it in range(1, max_iter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SolverFailure(
                f"nonpositive curvature at iteration {it}; matrix is not positive definite",
                res,
                it,
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = float(np.linalg.norm(r))
        if res <= target:
            return x, it, res
        z = r / diag
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise SolverFailure(
        f"conjugate gradient did not reach {rel_tol:g} relative residual "
        f"in {max_iter} iterations (residual {res:.3e})",
        res,
        max_iter,
    )
