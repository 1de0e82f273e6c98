"""Discrete energy diagnostics for scheme trajectories.

The energy of a level pair (n-1, n) is

    E = 1/2 [ |du|_M^2 + |dv|_M^2 + c^2 |u|_K^2 + c^2 |v|_K^2
              + alpha |u - v|_M^2 ]

with du = (u_n - u_{n-1})/k and the displacement terms taken at level n:
five terms 1/2 weight a.(P a), P = M or K.  Along exact solves of the
implicit scheme E never grows: the drop E_n - E_{n-1} is the sum of seven
nonpositive terms, in difference form.  Five are the energy's own terms
taken on the step's increments, -1/2 weight (a_n - a_{n-1}).(P a_n - P a_{n-1});
the two friction terms are -2 eps k times the new kinetic terms.  The gap
between the drop and that sum (the identity residual) is |r . dx| plus
rounding, where r = b - A x is the step solve's residual and dx the step's
increment of [u; v].  The Lyapunov value adds a velocity-displacement cross
term and is reported for monitoring, not enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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


@np.errstate(over="ignore", invalid="ignore")
def _terms(state: State, mass, stiffness, params: SchemeParams):
    """The five (weight, a, P a) of a state's level pair, their parts
    1/2 weight a.(P a) and E, their sum; ValueError when E is not finite."""
    du = (state.u_curr - state.u_prev) / params.k
    dv = (state.v_curr - state.v_prev) / params.k
    w = state.u_curr - state.v_curr
    terms = ((1.0, du, mass @ du), (1.0, dv, mass @ dv),
             (params.c**2, state.u_curr, stiffness @ state.u_curr),
             (params.c**2, state.v_curr, stiffness @ state.v_curr),
             (params.alpha, w, mass @ w))
    parts = tuple(0.5 * weight * float(a @ pa) for weight, a, pa in terms)
    E = sum(parts)
    if not math.isfinite(E):
        raise ValueError(f"energy {E!r} at level {state.n} is not finite")
    return terms, parts, E


def energy(state: State, mass, stiffness, params: SchemeParams) -> EnergyRecord:
    """EnergyRecord of a state's level pair (n-1, n), stamped with level n.

    The record describes no step: dE and identity_residual are 0.0 and
    lyapunov is E.  A non-finite E raises ValueError.
    """
    _, parts, E = _terms(state, mass, stiffness, params)
    return EnergyRecord(state.n, state.n * params.k, E, *parts, dE=0.0, identity_residual=0.0,
                        lyapunov=E)


def _dissipation(old_terms, terms, parts, params: SchemeParams) -> DissipationBreakdown:
    """The step's seven terms from two consecutive levels' ``_terms``: the five
    terms on the increments, and friction from the new kinetic parts."""
    second_u, second_v, gradient_u, gradient_v, coupling = (
        -0.5 * weight * float((a - a_old) @ (pa - pa_old))
        for (weight, a, pa), (_, a_old, pa_old) in zip(terms, old_terms)
    )
    return DissipationBreakdown(second_u, second_v, gradient_u, gradient_v,
                                -2.0 * params.eps_u * params.k * parts[0],
                                -2.0 * params.eps_v * params.k * parts[1], coupling)


class EnergyTracker:
    """Run observer that keeps one EnergyRecord per level, step diagnostics included.

    Each level takes five sparse products, once; the step's dissipation
    reuses the previous level's.  Lyapunov values are tracked when parameters
    are supplied.  A non-finite energy or Lyapunov value raises ValueError.
    """

    def __init__(self, mass, stiffness, params: SchemeParams, lyapunov_params=None):
        self.mass = mass
        self.stiffness = stiffness
        self.params = params
        self.lyapunov_params = lyapunov_params
        self.records: list = []
        self._last = None  # (state, terms) of the last level observed

    def __call__(self, state: State) -> None:
        terms, parts, E = _terms(state, self.mass, self.stiffness, self.params)
        lyap, lp = E, self.lyapunov_params
        if lp is not None:
            # M is symmetric, so the cross term du.(M u) + dv.(M v) = u.(M du) + v.(M dv)
            cross = float(state.u_curr @ terms[0][2]) + float(state.v_curr @ terms[1][2])
            lyap = lp.N_weight * E + lp.beta * cross
            if not math.isfinite(lyap):
                raise ValueError(f"Lyapunov value {lyap!r} at level {state.n} is not finite")
        dE, residual, breakdown = 0.0, 0.0, None
        if self._last is not None:
            prev, old_terms = self._last
            if (prev.n != state.n - 1 or not np.array_equal(prev.u_curr, state.u_prev)
                    or not np.array_equal(prev.v_curr, state.v_prev)):
                raise ValueError("tracker must observe consecutive states of one run")
            breakdown = _dissipation(old_terms, terms, parts, self.params)
            dE = E - self.records[-1].E
            residual = abs(dE - breakdown.total)
        self.records.append(EnergyRecord(state.n, state.n * self.params.k, E, *parts, dE,
                                         residual, lyap, breakdown))
        self._last = (state, terms)

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
