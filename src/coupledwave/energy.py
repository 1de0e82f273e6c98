"""Discrete energy diagnostics for scheme trajectories.

The energy of a level pair (n, n+1) is

    E = 1/2 [ |du|_M^2 + |dv|_M^2 + c^2 |u|_K^2 + c^2 |v|_K^2
              + alpha |u - v|_M^2 ]

with du = (u_new - u_cur)/k and the displacement terms taken at the upper
level.  Along exact solves of the implicit scheme E never grows; the drop
E_new - E_old decomposes into seven nonpositive terms, and the gap between
the drop and that sum (the identity residual) measures nothing but solver
and rounding noise.  The Lyapunov value adds a velocity-displacement cross
term and is reported for monitoring, not enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .scheme import SchemeParams, State


class InsufficientDataError(ValueError):
    """Raised when a decay fit has fewer than three positive-energy records."""


@dataclass(frozen=True)
class DissipationBreakdown:
    """The seven nonpositive summands of the energy drop across one step."""

    second_difference_u: float
    second_difference_v: float
    gradient_difference_u: float
    gradient_difference_v: float
    friction_u: float
    friction_v: float
    coupling_difference: float

    @property
    def total(self) -> float:
        return sum(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class EnergyRecord:
    """One energy.csv row: the energy of a level pair, indexed by the upper
    level n at time t = n k, with the diagnostics of the step into level n.

    ``dE`` (the energy drop), ``identity_residual`` (|dE minus the dissipation
    sum|) and ``dissipation`` are 0.0, 0.0 and None for records that no scheme
    step produced (the startup level).  ``lyapunov`` equals E unless Lyapunov
    parameters were tracked.
    """

    n: int
    t: float
    E: float
    kinetic_u: float
    kinetic_v: float
    elastic_u: float
    elastic_v: float
    coupling: float
    dE: float
    identity_residual: float
    lyapunov: float
    dissipation: DissipationBreakdown | None = None


@dataclass(frozen=True)
class LyapunovParams:
    """Weight of the energy term and of the velocity-displacement cross term."""

    N_weight: float
    beta: float

    def __post_init__(self):
        # messages lead with the config key of each weight
        if not self.N_weight > 0.0:
            raise ValueError(f"lyapunov_n_weight (N_weight) must be positive, got {self.N_weight}")
        if not self.beta > 0.0:
            raise ValueError(f"lyapunov_beta (beta) must be positive, got {self.beta}")


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log E against t over a trailing window."""

    gamma: float
    log_C: float
    window: tuple
    residual: float


def _quad(matrix, x: np.ndarray) -> float:
    return float(x @ (matrix @ x))


def energy(state: State, mass, stiffness, params: SchemeParams) -> EnergyRecord:
    """EnergyRecord of a state's level pair (n-1, n), stamped with level n.

    The record describes no step: dE and identity_residual are 0.0 and
    lyapunov is E.
    """
    k = params.k
    du = (state.u_curr - state.u_prev) / k
    dv = (state.v_curr - state.v_prev) / k
    parts = (
        0.5 * _quad(mass, du),
        0.5 * _quad(mass, dv),
        0.5 * params.c**2 * _quad(stiffness, state.u_curr),
        0.5 * params.c**2 * _quad(stiffness, state.v_curr),
        0.5 * params.alpha * _quad(mass, state.u_curr - state.v_curr),
    )
    E = sum(parts)
    return EnergyRecord(state.n, state.n * k, E, *parts, dE=0.0, identity_residual=0.0, lyapunov=E)


def _dissipation(old_state: State, new_state: State, mass, stiffness,
                 params: SchemeParams) -> DissipationBreakdown:
    """Seven dissipation terms for the step from old_state's level pair to new_state's."""
    u_old, u_mid, u_new = old_state.u_prev, new_state.u_prev, new_state.u_curr
    v_old, v_mid, v_new = old_state.v_prev, new_state.v_prev, new_state.v_curr
    k = params.k
    ddu = (u_new - 2.0 * u_mid + u_old) / k
    ddv = (v_new - 2.0 * v_mid + v_old) / k
    du, dv = u_new - u_mid, v_new - v_mid
    dw = (u_new - v_new) - (u_mid - v_mid)
    return DissipationBreakdown(
        second_difference_u=-0.5 * _quad(mass, ddu),
        second_difference_v=-0.5 * _quad(mass, ddv),
        gradient_difference_u=-0.5 * params.c**2 * _quad(stiffness, du),
        gradient_difference_v=-0.5 * params.c**2 * _quad(stiffness, dv),
        friction_u=-(params.eps_u / k) * _quad(mass, du),
        friction_v=-(params.eps_v / k) * _quad(mass, dv),
        coupling_difference=-0.5 * params.alpha * _quad(mass, dw),
    )


def _lyapunov(E: float, state: State, mass, params: SchemeParams, lp: LyapunovParams) -> float:
    """N_weight * E plus the beta-weighted velocity-displacement cross terms."""
    du = (state.u_curr - state.u_prev) / params.k
    dv = (state.v_curr - state.v_prev) / params.k
    cross = float(du @ (mass @ state.u_curr)) + float(dv @ (mass @ state.v_curr))
    return lp.N_weight * E + lp.beta * cross


class EnergyTracker:
    """Run observer that keeps one EnergyRecord per level, step diagnostics included.

    Lyapunov values are tracked when parameters are supplied.  A level whose
    energy or Lyapunov value is not finite raises ValueError.
    """

    def __init__(self, mass, stiffness, params: SchemeParams, lyapunov_params=None):
        self.mass = mass
        self.stiffness = stiffness
        self.params = params
        self.lyapunov_params = lyapunov_params
        self.records: list = []
        self._last_state: State | None = None

    def __call__(self, state: State) -> None:
        rec = energy(state, self.mass, self.stiffness, self.params)
        lyap = rec.E
        if self.lyapunov_params is not None:
            lyap = _lyapunov(rec.E, state, self.mass, self.params, self.lyapunov_params)
        if not (math.isfinite(rec.E) and math.isfinite(lyap)):
            raise ValueError(f"energy {rec.E!r} or Lyapunov value {lyap!r} "
                             f"at level {state.n} is not finite")
        step = {}
        prev = self._last_state
        if prev is not None:
            if prev.n != state.n - 1 or not np.array_equal(prev.u_curr, state.u_prev):
                raise ValueError("tracker must observe consecutive states of one run")
            breakdown = _dissipation(prev, state, self.mass, self.stiffness, self.params)
            drop = rec.E - self.records[-1].E
            step = dict(dE=drop, identity_residual=abs(drop - breakdown.total),
                        dissipation=breakdown)
        self.records.append(replace(rec, lyapunov=lyap, **step))
        self._last_state = state

    @property
    def max_identity_residual(self) -> float:
        return max(r.identity_residual for r in self.records)

    def is_monotone(self) -> bool:
        """True when E never rises by more than 1e-12 max(E_0, 1) across any step."""
        energies = [r.E for r in self.records]
        slack = 1e-12 * max(energies[0], 1.0)
        return all(b <= a + slack for a, b in zip(energies, energies[1:]))


def fit_decay_rate(records, window: float = 0.5) -> DecayFit:
    """Fit log E = log_C - gamma t by least squares over a trailing window.

    ``window`` is the trailing fraction of records used (0.5 = second half).
    Records with E <= 0 are dropped; fewer than three survivors raise
    InsufficientDataError.
    """
    if not 0.0 < window <= 1.0:
        raise ValueError(f"window fraction must be in (0, 1], got {window}")
    if not records:
        raise InsufficientDataError("no records to fit")
    start = int(round(len(records) * (1.0 - window)))
    tail = records[start:]
    usable = [r for r in tail if r.E > 0.0]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"need at least 3 positive-energy records in the window, found {len(usable)}"
        )
    t = np.array([r.t for r in usable])
    log_e = np.log(np.array([r.E for r in usable]))
    slope, intercept = np.polyfit(t, log_e, 1)
    predicted = intercept + slope * t
    residual = float(np.sqrt(np.mean((log_e - predicted) ** 2)))
    return DecayFit(
        gamma=float(-slope),
        log_C=float(intercept),
        window=(tail[0].n, tail[-1].n),
        residual=residual,
    )
