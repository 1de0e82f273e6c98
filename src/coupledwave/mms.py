"""Manufactured-solution verification of the space-time convergence rate.

Every manufactured case is one sine mode m(x) = prod_d sin(pi x_d), the first
Dirichlet eigenmode of the unit interval or square, times e^{-t}: u = a_u
e^{-t} m and v = a_v e^{-t} m.  Since -lap(m) = dim pi^2 m, the sources

    f_u = u_tt - c^2 lap(u) + eps_u u_t + alpha (u - v) = s_u e^{-t} m,
    s_u = a_u (1 + dim pi^2 c^2 - eps_u) + alpha (a_u - a_v),

and f_v = s_v e^{-t} m with the roles swapped make the fields solve the forced
system, so a run computes m and its load vector once per mesh.  Running the
scheme against these sources on a sequence of meshes with h and k halved in
lockstep should shrink the composite error norm by about a factor 2 per level
(first order jointly in h and k); the study fits that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import assembly, energy
from .mesh import Mesh, cell_diameters, refine_uniform
from .scheme import SchemeParams, State, run, sine_mode, solver_start
from .sparse_linalg import SolverConfig, SolverFailure, with_context

# name -> (dim, a_u, a_v), as build_case documents them
_CASES = {
    "separable-decay": (2, 1.0, 2.0),
    "separable-decay-1d": (1, 1.0, 2.0),
    "symmetric": (2, 1.0, 1.0),
    "zero": (2, 0.0, 0.0),
}


@dataclass(frozen=True)
class ManufacturedCase:
    """u = a_u e^{-t} m and v = a_v e^{-t} m, with source coefficients s_u,
    s_v for ``params``.  The methods take (points, t), points of shape
    (n, dim), and return shape (n,).  The time derivatives are -u and -v,
    which give the initial velocities.
    """

    dim: int
    params: SchemeParams
    a_u: float
    a_v: float
    s_u: float
    s_v: float

    def u(self, points, t):
        return self.a_u * _decaying_mode(points, t)

    def v(self, points, t):
        return self.a_v * _decaying_mode(points, t)


def _decaying_mode(points, t):
    return math.exp(-t) * sine_mode(points)


def build_case(name: str, params: SchemeParams) -> ManufacturedCase:
    """Construct a named manufactured case for the given parameters.

    Built-ins: ``separable-decay`` (2D, v = 2u), ``separable-decay-1d`` (the
    interval analogue), ``symmetric`` (2D, u = v so the coupling cancels),
    and ``zero`` (2D rest state, all sources vanish).
    """
    try:
        dim, a_u, a_v = _CASES[name]
    except KeyError:
        known = ", ".join(sorted(_CASES))
        raise ValueError(f"case {name!r} is an unknown manufactured case; try {known}") from None
    wave = dim * math.pi**2 * params.c**2  # -c^2 lap(m) = wave m
    s_u = a_u * (1.0 + wave - params.eps_u) + params.alpha * (a_u - a_v)
    s_v = a_v * (1.0 + wave - params.eps_v) + params.alpha * (a_v - a_u)
    for coef, damping in ((s_u, "eps_u"), (s_v, "eps_v")):
        if not math.isfinite(coef):  # name the parameter of the largest term
            terms = {"c": wave, damping: getattr(params, damping), "alpha": params.alpha}
            key = max(terms, key=terms.get)
            raise ValueError(f"{key} = {getattr(params, key)!r} is out of range: the "
                             "manufactured source coefficient is not finite")
    return ManufacturedCase(dim, params, a_u, a_v, s_u, s_v)


@dataclass(frozen=True)
class LevelRecord:
    """One refinement level: mesh size, time step, the composite error, and
    the start its solves took (``scheme.solver_start``)."""

    level: int
    h: float
    k: float
    error: float
    start: str


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
    defines its discrete velocity.  The exact fields at level n are
    a (e^{-t_n} mode), ``mode`` the sine mode at the interior vertices.
    """

    def __init__(self, mass, stiffness, case, mode, params):
        self.mass = mass
        self.stiffness = stiffness
        self.k = params.k
        self.case = case
        self.mode = mode
        self.worst_sq = 0.0
        self.previous = None  # (e_u, e_v) at the lower level of the next pair

    def _error(self, n, u, v):
        shape = math.exp(-n * self.k) * self.mode
        return self.case.a_u * shape - u, self.case.a_v * shape - v

    @np.errstate(over="ignore", invalid="ignore")
    def __call__(self, state: State) -> None:
        if self.previous is None:  # the startup state
            self.previous = self._error(state.n - 1, state.u_prev, state.v_prev)
        prev_u, prev_v = self.previous
        e_u, e_v = self.previous = self._error(state.n, state.u_curr, state.v_curr)
        # the composite's weights c^2 = alpha = 1
        parts = energy.energy_terms(prev_u, e_u, prev_v, e_v,
                                    self.mass, self.stiffness, self.k, 1.0, 1.0)[1]
        E = sum(parts)
        if not math.isfinite(E):  # the startup level u + k u_t leaves errors of order k
            raise ValueError(f"k = {self.k!r} is out of range: the MMS error composite "
                             f"at time level {state.n} is not finite")
        self.worst_sq = max(self.worst_sq, 2.0 * E)


def measure_error(case: ManufacturedCase, mesh: Mesh, params: SchemeParams,
                  config: SolverConfig = SolverConfig()) -> float:
    """Run the scheme against the case's sources and return the composite error.

    Initial data and sources come from the exact solution; the error is the
    square root of the worst five-term composite over all recorded levels.
    """
    mass = assembly.assemble_mass(mesh)
    stiffness = assembly.assemble_stiffness(mesh)
    mode = sine_mode(mesh.vertices)
    load = assembly.load_matrix(mesh) @ mode

    def sources(t):
        decay = math.exp(-t)
        return (case.s_u * decay) * load, (case.s_v * decay) * load

    initial = (
        lambda p: case.u(p, 0.0),
        lambda p: -case.u(p, 0.0),
        lambda p: case.v(p, 0.0),
        lambda p: -case.v(p, 0.0),
    )
    observer = _ErrorObserver(mass, stiffness, case, mode[~mesh.boundary_flags], params)
    run(mesh, mass, stiffness, params, initial,
        config=config, sources=sources, observer=observer)
    return math.sqrt(observer.worst_sq)


def convergence_study(case_name: str, base_mesh: Mesh, base_k: float, levels: int,
                      params: SchemeParams, config: SolverConfig = SolverConfig()) -> ErrorReport:
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
    # c^2/h^2, the step's stiffness against its mass term, overflows first on the
    # finest mesh (h its smallest cell diameter), where the products would too
    h = float(cell_diameters(base_mesh.vertices, base_mesh.cells).min()) / 2 ** (levels - 1)
    if not math.isfinite(params.c * params.c / h / h):
        raise ValueError(f"c = {params.c!r} is out of range: c^2/h^2 is not finite on the "
                         f"finest mesh of the study (level {levels - 1}, h = {h:.3g})")
    records = []
    mesh = base_mesh
    for level in range(levels):
        k = base_k / 2**level
        try:
            err = measure_error(case, mesh, replace(params, k=k), config)
        except (SolverFailure, ValueError) as exc:
            raise with_context(exc, f"refinement level {level}") from exc
        records.append(LevelRecord(level=level, h=mesh.h, k=k, error=err,
                                   start=solver_start(mesh.n_interior, config)))
        if level + 1 < levels:
            mesh = refine_uniform(mesh)
    return ErrorReport(levels=records, fitted_order=_fit_order(records))


def _fit_order(records) -> float:
    usable = [r for r in records if r.error > 0.0]
    if len(usable) < 2:
        return math.nan
    log_h = np.log([r.h for r in usable])
    log_e = np.log([r.error for r in usable])
    slope, _ = energy.fit_line(log_h, log_e)
    return float(slope)
