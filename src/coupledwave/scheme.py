"""Implicit two-level stepping for the coupled damped wave system.

Both fields advance together through one monolithic solve per step.  With
mass matrix M and stiffness matrix K on the interior vertices, the update to
level n+1 satisfies

    M (u'' diff) / k^2 + c^2 K u_new + (eps_u / k) M (u_new - u_cur)
        + alpha M (u_new - v_new) = f_u

and the v equation with the roles swapped, where ``u'' diff`` is the centered
second difference u_new - 2 u_cur + u_old.  Collecting the new levels gives a
symmetric positive definite 2N x 2N block matrix that is assembled once per
run; the off-diagonal blocks are -alpha M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import assembly
from .mesh import Mesh
from .sparse_linalg import SolverConfig, SolverFailure, solve_spd


@dataclass(frozen=True)
class SchemeParams:
    """Physical and discretization parameters.

    M_steps is the number of time levels beyond the startup pair, so the run
    ends at time T = M_steps * k (enforced to 1e-12 relative).
    """

    c: float
    eps_u: float
    eps_v: float
    alpha: float
    k: float
    T: float
    M_steps: int

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

    @classmethod
    def from_final_time(cls, *, c, eps_u, eps_v, alpha, k, T) -> "SchemeParams":
        """Derive the step count from k and T, requiring k to divide T."""
        # a nonpositive k or T gets its own message from __post_init__
        steps = T / k if k > 0.0 and T > 0.0 else 0.0
        if not math.isfinite(steps):
            raise ValueError(f"k = {k!r} is too small for T = {T!r}: T/k is not finite")
        return cls(c=c, eps_u=eps_u, eps_v=eps_v, alpha=alpha, k=k, T=T, M_steps=round(steps))


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
    """The 2N x 2N implicit-step matrix, assembled once and reused.

    Layout is [u; v].  Diagonal blocks are M/k^2 + eps/k M + c^2 K + alpha M,
    off-diagonal blocks are -alpha M, so the matrix is exactly symmetric and
    positive definite for alpha > 0 (the coupling contributes
    alpha (x_u - x_v)' M (x_u - x_v) >= 0 to the quadratic form).
    """

    def __init__(self, mass: sp.csr_matrix, stiffness: sp.csr_matrix, params: SchemeParams):
        k, c, alpha = params.k, params.c, params.alpha
        diag_u = mass / k**2 + (params.eps_u / k) * mass + c**2 * stiffness + alpha * mass
        diag_v = mass / k**2 + (params.eps_v / k) * mass + c**2 * stiffness + alpha * mass
        coupling = -alpha * mass
        self.matrix = sp.bmat(
            [[diag_u, coupling], [coupling, diag_v]], format="csr"
        )
        self.n_field = mass.shape[0]

    @property
    def shape(self):
        return self.matrix.shape


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


def step(
    state: State,
    op: BlockOperator,
    mass: sp.csr_matrix,
    params: SchemeParams,
    config: SolverConfig | None = None,
    f_u: np.ndarray | None = None,
    f_v: np.ndarray | None = None,
) -> State:
    """Advance one time level by solving the coupled block system.

    f_u, f_v are already-assembled load vectors for the target level (or
    None for the homogeneous problem).
    """
    k = params.k
    rhs_u = mass @ ((2.0 * state.u_curr - state.u_prev) / k**2 + (params.eps_u / k) * state.u_curr)
    rhs_v = mass @ ((2.0 * state.v_curr - state.v_prev) / k**2 + (params.eps_v / k) * state.v_curr)
    if f_u is not None:
        rhs_u = rhs_u + f_u
    if f_v is not None:
        rhs_v = rhs_v + f_v
    solution = solve_spd(op.matrix, np.concatenate([rhs_u, rhs_v]), config)
    n = op.n_field
    return State(state.n + 1, state.u_curr, solution[:n], state.v_curr, solution[n:])


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
    op = BlockOperator(mass, stiffness, params)
    state = initialize(mesh, params, *initial)
    if observer is not None:
        observer(state)
    while state.n < params.M_steps:
        target_t = (state.n + 1) * params.k
        f_u = f_v = None
        if sources is not None:
            f_u, f_v = sources(target_t)
        try:
            state = step(state, op, mass, params, config, f_u, f_v)
        except SolverFailure as exc:
            raise SolverFailure(
                f"advancing to level {state.n + 1} (t = {target_t:g}) failed: {exc}",
                exc.residual,
                exc.iterations,
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
