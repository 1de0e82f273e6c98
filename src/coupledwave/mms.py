"""Manufactured-solution verification of the space-time convergence rate.

A manufactured case picks smooth exact fields u, v vanishing on the boundary
and defines the sources

    f_u = u_tt - c^2 lap(u) + eps_u u_t + alpha (u - v)
    f_v = v_tt - c^2 lap(v) + eps_v v_t + alpha (v - u)

so the exact fields solve the forced system.  Running the scheme against
these sources on a sequence of meshes with h and k halved in lockstep should
shrink the composite error norm by about a factor 2 per level (first order
jointly in h and k); the study fits that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import assembly, energy
from .mesh import Mesh, refine_uniform
from .scheme import SchemeParams, State, run, sine_mode
from .sparse_linalg import SolverConfig, SolverFailure, with_context


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form exact fields with sources derived for fixed parameters.

    All callables take (points, t) with points of shape (n, dim) and return
    shape (n,).  ``u_t``/``v_t`` provide the initial velocities; sources have
    the parameters baked in at build time.
    """

    name: str
    dim: int
    params: SchemeParams
    u: Callable
    v: Callable
    u_t: Callable
    v_t: Callable
    source_u: Callable
    source_v: Callable


def build_case(name: str, params: SchemeParams) -> ManufacturedCase:
    """Construct a named manufactured case for the given parameters.

    Built-ins: ``separable-decay`` (2D, v = 2u), ``separable-decay-1d`` (the
    interval analogue), ``symmetric`` (2D, u = v so the coupling cancels),
    and ``zero`` (2D rest state, all sources vanish).
    """
    try:
        factory = _CASES[name]
    except KeyError:
        known = ", ".join(sorted(_CASES))
        raise ValueError(f"case {name!r} is an unknown manufactured case; try {known}") from None
    return factory(name, params)


def _separable_decay(name: str, params: SchemeParams, dim: int, v_factor: float):
    """u = e^{-t} mode(x), v = v_factor * u, mode the first Dirichlet eigenmode.

    Since u_tt = u, u_t = -u and lap(u) = -dim pi^2 u, both sources are
    scalar multiples of u: f_u = (1 + dim pi^2 c^2 - eps_u + alpha (1 - q)) u
    and f_v = (q + dim q pi^2 c^2 - q eps_v + alpha (q - 1)) u with q the
    factor between the fields.
    """
    q = v_factor
    lam = dim * math.pi**2  # -lap(mode) = lam * mode
    wave = lam * params.c**2
    coef_u = 1.0 + wave - params.eps_u + params.alpha * (1.0 - q)
    coef_v = q * (1.0 + wave - params.eps_v) + params.alpha * (q - 1.0)
    for coef, damping in ((coef_u, "eps_u"), (coef_v, "eps_v")):
        if not math.isfinite(coef):  # name the parameter of the largest term
            terms = {"c": wave, damping: getattr(params, damping), "alpha": params.alpha}
            key = max(terms, key=terms.get)
            raise ValueError(f"{key} = {getattr(params, key)!r} is out of range: the "
                             "manufactured source coefficient is not finite")

    def u(points, t):
        return math.exp(-t) * sine_mode(points)

    return ManufacturedCase(
        name=name,
        dim=dim,
        params=params,
        u=u,
        v=lambda p, t: q * u(p, t),
        u_t=lambda p, t: -u(p, t),
        v_t=lambda p, t: -q * u(p, t),
        source_u=lambda p, t: coef_u * u(p, t),
        source_v=lambda p, t: coef_v * u(p, t),
    )


def _zero_case(name: str, params: SchemeParams):
    def zero(points, t):
        return np.zeros(len(points))

    return ManufacturedCase(
        name=name, dim=2, params=params,
        u=zero, v=zero, u_t=zero, v_t=zero, source_u=zero, source_v=zero,
    )


_CASES = {
    "separable-decay": lambda n, p: _separable_decay(n, p, dim=2, v_factor=2.0),
    "separable-decay-1d": lambda n, p: _separable_decay(n, p, dim=1, v_factor=2.0),
    "symmetric": lambda n, p: _separable_decay(n, p, dim=2, v_factor=1.0),
    "zero": _zero_case,
}


@dataclass(frozen=True)
class LevelRecord:
    """One refinement level: mesh size, time step, and the composite error."""

    level: int
    h: float
    k: float
    error: float


@dataclass(frozen=True)
class ErrorReport:
    """Per-level errors plus the least-squares order of log(error) vs log(h).

    ``fitted_order`` is NaN when fewer than two levels have positive error
    (an exactly reproduced solution leaves nothing to fit).
    """

    levels: list
    fitted_order: float

    def local_orders(self) -> list:
        """log2 ratios of consecutive errors; NaN where undefined."""
        orders = [math.nan]
        for a, b in zip(self.levels, self.levels[1:]):
            if a.error > 0.0 and b.error > 0.0:
                orders.append(math.log2(a.error / b.error))
            else:
                orders.append(math.nan)
        return orders


class _ErrorObserver:
    """Tracks the five-term composite error over the states of one run.

    The composite is twice the discrete energy of the error level pair with
    c = alpha = 1.  Its velocity errors compare backward differences of the
    interpolated exact solution with the scheme's, matching how the scheme
    defines its discrete velocity.  Each level's error is evaluated once.
    """

    def __init__(self, mesh, mass, stiffness, case, params):
        self.mass = mass
        self.stiffness = stiffness
        self.params = replace(params, c=1.0, alpha=1.0)
        self.case = case
        self.points = mesh.vertices[~mesh.boundary_flags]
        self.worst_sq = 0.0
        self.previous = None  # (e_u, e_v) at the lower level of the next pair

    def _error(self, n, u, v):
        t = n * self.params.k
        return (np.asarray(self.case.u(self.points, t), dtype=float) - u,
                np.asarray(self.case.v(self.points, t), dtype=float) - v)

    def __call__(self, state: State) -> None:
        if self.previous is None:  # the startup state
            self.previous = self._error(state.n - 1, state.u_prev, state.v_prev)
        e_u, e_v = self._error(state.n, state.u_curr, state.v_curr)
        errors = State(state.n, self.previous[0], e_u, self.previous[1], e_v)
        self.previous = (e_u, e_v)
        total = 2.0 * energy.energy(errors, self.mass, self.stiffness, self.params).E
        self.worst_sq = max(self.worst_sq, total)


def measure_error(case: ManufacturedCase, mesh: Mesh, params: SchemeParams,
                  config: SolverConfig | None = None) -> float:
    """Run the scheme against the case's sources and return the composite error.

    Initial data and sources come from the exact solution; the error is the
    square root of the worst five-term composite over all recorded levels.
    """
    mass = assembly.assemble_mass(mesh)
    stiffness = assembly.assemble_stiffness(mesh)
    loads = assembly.load_matrix(mesh)
    all_points = mesh.vertices

    def sources(t):
        f_u = loads @ np.asarray(case.source_u(all_points, t), dtype=float)
        f_v = loads @ np.asarray(case.source_v(all_points, t), dtype=float)
        return f_u, f_v

    initial = (
        lambda p: case.u(p, 0.0),
        lambda p: case.u_t(p, 0.0),
        lambda p: case.v(p, 0.0),
        lambda p: case.v_t(p, 0.0),
    )
    observer = _ErrorObserver(mesh, mass, stiffness, case, params)
    run(mesh, mass, stiffness, params, initial,
        config=config, sources=sources, observer=observer)
    return math.sqrt(observer.worst_sq)


def convergence_study(case_name: str, base_mesh: Mesh, base_k: float, levels: int,
                      params: SchemeParams, config: SolverConfig | None = None) -> ErrorReport:
    """Lockstep h and k refinement study.

    Level j runs on base_mesh refined j times with time step base_k / 2^j,
    keeping T fixed.  Requires at least 3 levels so an order is fittable
    with a spare point.
    """
    if levels < 3:
        raise ValueError(f"need at least 3 refinement levels, got {levels}")
    # the sources depend on c, eps and alpha only, which every level shares
    case = build_case(case_name, params)
    if case.dim != base_mesh.dim:
        raise ValueError(f"case {case_name!r} is {case.dim}d but the mesh is {base_mesh.dim}d")
    records = []
    mesh = base_mesh
    for level in range(levels):
        k = base_k / 2**level
        level_params = SchemeParams.from_final_time(
            c=params.c, eps_u=params.eps_u, eps_v=params.eps_v,
            alpha=params.alpha, k=k, T=params.T,
        )
        try:
            err = measure_error(case, mesh, level_params, config)
        except (SolverFailure, ValueError) as exc:
            raise with_context(exc, f"refinement level {level}") from exc
        records.append(LevelRecord(level=level, h=mesh.h, k=k, error=err))
        if level + 1 < levels:
            mesh = refine_uniform(mesh)
    return ErrorReport(levels=records, fitted_order=_fit_order(records))


def _fit_order(records) -> float:
    usable = [r for r in records if r.error > 0.0]
    if len(usable) < 2:
        return math.nan
    log_h = np.log([r.h for r in usable])
    log_e = np.log([r.error for r in usable])
    slope, _ = np.polyfit(log_h, log_e, 1)
    return float(slope)
