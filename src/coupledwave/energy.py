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
from dataclasses import dataclass

import numpy as np

from .scheme import SchemeParams, State
from .sparse_linalg import dot


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
        return sum(getattr(self, name) for name in self.__dataclass_fields__)


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


# a block of levels holds at most BLOCK_BYTES in its ten (rows, N) arrays of
# doubles, the five energy terms and their products: 29 rows at N = 225, 6 at
# N = 961 and one row from N = 3277 on, where a sparse product with several
# columns costs more per column than with one (46 against 26 us at N = 3969)
BLOCK_BYTES = 512 * 1024


def energy_terms(u_prev, u_curr, v_prev, v_curr, mass, stiffness, params: SchemeParams):
    """The five (weight, a, P a) of a block of level pairs (n-1, n), and each
    pair's five parts 1/2 weight a.(P a).

    The fields, a and P a are (rows, N) arrays with C-contiguous rows, one
    row per pair.  Each term takes one sparse product for the whole block,
    and each pair's parts equal bitwise those of the pair alone.  Callers
    ignore overflow (``np.errstate``) and check the parts.
    """
    k, c2 = params.k, params.c**2
    terms = [(weight, a, _product(matrix, a)) for weight, matrix, a in (
        (1.0, mass, (u_curr - u_prev) / k), (1.0, mass, (v_curr - v_prev) / k),
        (c2, stiffness, u_curr), (c2, stiffness, v_curr),
        (params.alpha, mass, u_curr - v_curr))]
    halves = [0.5 * weight for weight, _, _ in terms]
    dots = zip(*(dot(a, pa).tolist() for _, a, pa in terms))
    return terms, [tuple(half * d for half, d in zip(halves, row)) for row in dots]


def _product(matrix, a: np.ndarray) -> np.ndarray:
    """(matrix @ a.T).T with C-contiguous rows; one row takes the cheaper
    matrix-vector product, which the block product's columns equal."""
    if len(a) == 1:
        return (matrix @ a[0])[None]
    return np.ascontiguousarray((matrix @ a.T).T)


def _increments(x: np.ndarray, old: np.ndarray) -> np.ndarray:
    """The row differences x[i] - x[i-1], with old[-1] in place of x[-1]."""
    out = x - old[-1:]  # right in row 0
    if len(x) > 1:
        np.subtract(x[1:], x[:-1], out=out[1:])
    return out


def _finite(name: str, value: float, n: int) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} {value!r} at level {n} is not finite")
    return value


def energy(state: State, mass, stiffness, params: SchemeParams) -> EnergyRecord:
    """EnergyRecord of a state's level pair (n-1, n), stamped with level n.

    The record describes no step: dE and identity_residual are 0.0 and
    lyapunov is E.  A non-finite E raises ValueError.
    """
    tracker = EnergyTracker(mass, stiffness, params)
    tracker(state)
    return tracker.records[0]


class EnergyTracker:
    """Run observer that keeps one EnergyRecord per level, step diagnostics included.

    It buffers the states it observes and turns blocks of levels into
    records: five sparse products per block (``energy_terms``), and the
    step's dissipation from row differences, the previous block's last level
    carried over.  A block ends when it is full, at level ``params.M_steps``,
    and when ``records`` is read.  Lyapunov values are tracked when
    parameters are supplied.  A non-finite energy or Lyapunov value raises
    ValueError naming its level; a level whose values are not certainly
    finite ends its block at once, so no later step's error comes first.
    """

    def __init__(self, mass, stiffness, params: SchemeParams, lyapunov_params=None):
        self.mass = mass
        self.stiffness = stiffness
        self.params = params
        self.lyapunov_params = lyapunov_params
        self._records: list = []
        self._pending: list = []  # the states observed since the last block
        self._last = None  # the last state observed
        self._carry = None  # the five (weight, a, P a) of the last block
        self._squares = None  # |u|^2 + |v|^2 of the last pending state
        self._rows = max(1, BLOCK_BYTES // (80 * max(mass.shape[0], 1)))
        # (1 + S) growth / 4 bounds a level's energy, Lyapunov value and every
        # vector and sum they take, S the squared norms of its four fields
        # (the Frobenius norms of M and K bound their spectral norms)
        with np.errstate(over="ignore"):
            norms = 1.0 + sum(math.sqrt(dot(m.data, m.data)) for m in (mass, stiffness))
        lp = lyapunov_params
        weights = 1.0 + (lp.N_weight + lp.beta if lp else 0.0)
        self._growth = (8.0 * (1.0 + 1.0 / params.k / params.k) * norms
                        * (1.0 + params.c**2 + params.alpha) * weights)

    def __call__(self, state: State) -> None:
        last = self._last
        if last is not None and (last.n != state.n - 1 or not (
                (last.u_curr is state.u_prev or np.array_equal(last.u_curr, state.u_prev))
                and (last.v_curr is state.v_prev or np.array_equal(last.v_curr, state.v_prev)))):
            raise ValueError("tracker must observe consecutive states of one run")
        self._last = state
        self._pending.append(state)
        if (len(self._pending) >= self._rows or state.n >= self.params.M_steps
                or not self._certainly_finite(state)):
            self._flush()

    @np.errstate(over="ignore", invalid="ignore")
    def _certainly_finite(self, state: State) -> bool:
        if self._squares is None:
            self._squares = dot(state.u_prev, state.u_prev) + dot(state.v_prev, state.v_prev)
        previous, self._squares = self._squares, (dot(state.u_curr, state.u_curr)
                                                  + dot(state.v_curr, state.v_curr))
        return (1.0 + previous + self._squares) * self._growth < math.inf

    @np.errstate(over="ignore", invalid="ignore")
    def _flush(self) -> None:
        pending, self._pending, self._squares = self._pending, [], None
        if not pending:
            return
        p, lp, first = self.params, self.lyapunov_params, pending[0]
        if len(pending) == 1:
            fields = (first.u_prev[None], first.u_curr[None],
                      first.v_prev[None], first.v_curr[None])
        else:
            u = np.stack([first.u_prev, *(s.u_curr for s in pending)])
            v = np.stack([first.v_prev, *(s.v_curr for s in pending)])
            fields = (u[:-1], u[1:], v[:-1], v[1:])
        terms, parts = energy_terms(*fields, self.mass, self.stiffness, p)
        if lp is not None:
            # M is symmetric, so the cross term du.(M u) + dv.(M v) = u.(M du) + v.(M dv)
            cross = (dot(fields[1], terms[0][2]) + dot(fields[3], terms[1][2])).tolist()
        # the five terms on the step's increments; the run's first level has
        # no step, and stands in for its own predecessor
        carry = self._carry or [(weight, a[:1], pa[:1]) for weight, a, pa in terms]
        steps = zip(*(dot(_increments(a, a_old), _increments(pa, pa_old)).tolist()
                      for (_, a, pa), (_, a_old, pa_old) in zip(terms, carry)))
        self._carry = terms
        for i, (state, part, step) in enumerate(zip(pending, parts, steps)):
            n = state.n
            E = _finite("energy", sum(part), n)
            lyap = E if lp is None else _finite("Lyapunov value",
                                                lp.N_weight * E + lp.beta * cross[i], n)
            dE, residual, breakdown = 0.0, 0.0, None
            if self._records:
                second_u, second_v, gradient_u, gradient_v, coupling = (
                    -0.5 * weight * d for (weight, _, _), d in zip(terms, step))
                # friction from the new kinetic parts
                breakdown = DissipationBreakdown(second_u, second_v, gradient_u, gradient_v,
                                                 -2.0 * p.eps_u * p.k * part[0],
                                                 -2.0 * p.eps_v * p.k * part[1], coupling)
                dE = E - self._records[-1].E
                residual = abs(dE - breakdown.total)
            self._records.append(EnergyRecord(n, n * p.k, E, *part, dE, residual, lyap,
                                              breakdown))

    @property
    def records(self) -> list:
        """One EnergyRecord per level observed; reading it ends the pending block."""
        self._flush()
        return self._records

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
