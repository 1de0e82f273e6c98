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
term and is reported for monitoring, not enforced.  ``EnergyTracker.table``
is the one record of these values: a numpy structured array, one row per
level, read by field name.

``fit_decay_rate`` fits log E against t by ordinary least squares in closed
form (``fit_line``, also the fitted order of ``mms``), so a ``method = cg``
run calls no LAPACK routine; only the Cholesky check route does.  It is the
estimator np.polyfit computed in earlier versions, so fitted_gamma and the
fitted order may differ from theirs in the last digits; the acceptance
values, gamma = 0.712234 and order 1.614, are unchanged at that precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scheme import SchemeParams, State
from .sparse_linalg import dot, matvec


class InsufficientDataError(ValueError):
    """Raised when a decay fit has fewer than three positive-energy records."""


# the tracker's per-level table: the energy.csv columns, then the seven
# dissipation terms of the step into the level (NaN on a run's first level)
ENERGY_FIELDS = ("n", "t", "E", "kinetic_u", "kinetic_v", "elastic_u", "elastic_v", "coupling",
                 "dE", "identity_residual", "lyapunov")
DISSIPATION_FIELDS = ("second_difference_u", "second_difference_v", "gradient_difference_u",
                      "gradient_difference_v", "friction_u", "friction_v", "coupling_difference")
TABLE_DTYPE = np.dtype([(name, np.int64 if name == "n" else np.float64)
                        for name in ENERGY_FIELDS + DISSIPATION_FIELDS])


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


def energy_terms(u_prev, u_curr, v_prev, v_curr, mass, stiffness, k, c2, alpha):
    """The five (weight, a, P a) of a block of level pairs (n-1, n), and the
    five parts 1/2 weight a.(P a), each an array of one value per pair.

    The weights are 1, 1, c2, c2 and alpha; k is the time step of the
    velocities.  The fields, a and P a are (rows, N) arrays with C-contiguous
    rows, one row per pair.  Each term takes one sparse product for the whole
    block, and each pair's parts equal bitwise those of the pair alone.  1-D
    fields are one pair: a and P a are 1-D and the parts Python floats, equal
    bitwise to those of the same pair as a one-row block.  Callers ignore
    overflow (``np.errstate``) and check the parts.
    """
    terms = [(weight, a, _product(matrix, a)) for weight, matrix, a in (
        (1.0, mass, (u_curr - u_prev) / k), (1.0, mass, (v_curr - v_prev) / k),
        (c2, stiffness, u_curr), (c2, stiffness, v_curr), (alpha, mass, u_curr - v_curr))]
    return terms, [0.5 * weight * dot(a, pa) for weight, a, pa in terms]


def _product(matrix, a: np.ndarray) -> np.ndarray:
    """(matrix @ a.T).T with C-contiguous rows; 1-D a and one row take the
    cheaper matrix-vector product (``matvec``), which the block product's
    columns equal."""
    if a.ndim == 1:
        return matvec(matrix, a)
    if len(a) == 1:
        return matvec(matrix, a[0])[None]
    return np.ascontiguousarray((matrix @ a.T).T)


def _increments(x: np.ndarray, old: np.ndarray) -> np.ndarray:
    """The row differences x[i] - x[i-1], with old[-1] in place of x[-1]."""
    out = x - old[-1:]  # right in row 0
    if len(x) > 1:
        np.subtract(x[1:], x[:-1], out=out[1:])
    return out


def _finite(name: str, value: float, n: int) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} {value!r} at level {n} is not finite")


class EnergyTracker:
    """Run observer that keeps a table of per-level values, step diagnostics included.

    The table (``table``) is a structured array of TABLE_DTYPE, one row of
    18 numbers (144 bytes) per level, read by field name (``table["E"]``,
    ``table[i]["friction_u"]``): the energy.csv columns, then the seven
    dissipation terms of the step into the level.  The run's first level,
    which no step produced, has dE and identity_residual 0.0 and NaN
    dissipation terms.  The lyapunov column is E unless Lyapunov parameters
    are supplied.  The tracker buffers the states it
    observes and turns a block of levels into complete rows at once: five
    sparse products per block (``energy_terms``), then every column by array
    operations, the step's five difference terms from row differences with
    the previous block's last level carried over.  A block
    ends when it is full, at level ``params.M_steps``, and when the table is
    read; its rows are complete when it ends and are not written again, so a
    read only ends the pending block.  A non-finite energy
    or Lyapunov value raises ValueError naming its level, the rows before it
    kept; a level whose values are not certainly finite ends its block at
    once, so no later step's error comes first.
    """

    def __init__(self, mass, stiffness, params: SchemeParams, lyapunov_params=None):
        self.mass = mass
        self.stiffness = stiffness
        self.params = params
        self.lyapunov_params = lyapunov_params
        self._blocks: list = []  # the table's rows as (rows, 18) arrays, a block at a time
        self._pending: list = []  # the states observed since the last block
        self._last = None  # the last state observed
        self._carry = None  # the five (weight, a, P a) of the last block's last level
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
        terms, parts = energy_terms(*fields, self.mass, self.stiffness, p.k, p.c**2, p.alpha)
        E = sum(parts)  # from the left, as for one level
        lyap = E
        if lp is not None:
            # M is symmetric, so the cross term du.(M u) + dv.(M v) = u.(M du) + v.(M dv)
            cross = dot(fields[1], terms[0][2]) + dot(fields[3], terms[1][2])
            lyap = lp.N_weight * E + lp.beta * cross
        # the five terms on the step's increments, the run's first level
        # standing in for its own predecessor, then friction from the new
        # kinetic parts; each column repeats a level's scalar arithmetic
        carry = self._carry or [(weight, a[:1], pa[:1]) for weight, a, pa in terms]
        dissipation = [(-0.5 * weight) * dot(_increments(a, a_old), _increments(pa, pa_old))
                       for (weight, a, pa), (_, a_old, pa_old) in zip(terms, carry)]
        dissipation[4:4] = [(-2.0 * p.eps_u * p.k) * parts[0], (-2.0 * p.eps_v * p.k) * parts[1]]
        # the last level's rows, not the block they are views of
        self._carry = terms if len(pending) == 1 else [
            (weight, a[-1:].copy(), pa[-1:].copy()) for weight, a, pa in terms]
        dE = _increments(E, self._blocks[-1][-1:, 2] if self._blocks else E[:1])  # E is column 2
        residual = abs(dE - sum(dissipation))  # sums run from the left
        if not self._blocks:  # the run's first level: no step, nothing dissipated
            residual[0] = 0.0
            for column in dissipation:
                column[0] = math.nan
        n = np.array([state.n for state in pending])
        block = np.empty((len(pending), len(TABLE_DTYPE.names)))
        rows = block.view(TABLE_DTYPE)[:, 0]
        for name, column in zip(TABLE_DTYPE.names, (n, n * p.k, E, *parts, dE, residual, lyap,
                                                    *dissipation)):
            rows[name] = column
        finite = [math.isfinite(x) for x in lyap.tolist()]  # lyap is not finite where E is not
        if all(finite):
            self._blocks.append(block)
            return
        stop = finite.index(False)
        if stop:
            self._blocks.append(block[:stop])
        _finite("energy", float(E[stop]), pending[stop].n)
        _finite("Lyapunov value", float(lyap[stop]), pending[stop].n)

    @property
    def table(self) -> np.ndarray:
        """The table as a read-only structured array of TABLE_DTYPE, one
        complete row per level observed; reading it ends the pending block
        and computes nothing else."""
        self._flush()
        if len(self._blocks) > 1:
            self._blocks = [np.concatenate(self._blocks)]
        rows = self._blocks[0] if self._blocks else np.empty((0, len(TABLE_DTYPE.names)))
        table = rows.view(TABLE_DTYPE)[:, 0]
        table.flags.writeable = False
        return table

    @property
    def max_identity_residual(self) -> float:
        return float(self._column("identity_residual").max())

    def is_monotone(self) -> bool:
        """True when E never rises by more than 1e-12 max(E_0, 1) across any step."""
        energies = self._column("E")
        slack = 1e-12 * max(energies[0], 1.0)
        return bool((energies[1:] <= energies[:-1] + slack).all())

    def _column(self, name: str) -> np.ndarray:
        table = self.table
        if not len(table):
            raise ValueError("the tracker has observed no levels")
        return table[name]


def fit_decay_rate(table, window: float = 0.5) -> DecayFit:
    """Fit log E = log_C - gamma t by least squares over a trailing window.

    ``table`` holds one row per level with fields n, t and E, as
    ``EnergyTracker.table`` does.  ``window`` is the trailing fraction of
    rows used (0.5 = second half).  Rows with E <= 0 are dropped; fewer than
    three survivors raise InsufficientDataError.
    """
    if not 0.0 < window <= 1.0:
        raise ValueError(f"window fraction must be in (0, 1], got {window}")
    if not len(table):
        raise InsufficientDataError("no records to fit")
    start = int(round(len(table) * (1.0 - window)))
    tail = table[start:]
    usable = tail[tail["E"] > 0.0]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"need at least 3 positive-energy records in the window, found {len(usable)}"
        )
    t = usable["t"]
    log_e = np.log(usable["E"])
    slope, intercept = fit_line(t, log_e)
    predicted = intercept + slope * t
    residual = float(np.sqrt(np.mean((log_e - predicted) ** 2)))
    return DecayFit(
        gamma=float(-slope),
        log_C=float(intercept),
        window=(int(tail["n"][0]), int(tail["n"][-1])),
        residual=residual,
    )


def fit_line(x: np.ndarray, y: np.ndarray) -> tuple:
    """(slope, intercept) of the ordinary least-squares line y = intercept + slope x.

    The estimator of ``np.polyfit(x, y, 1)`` in its centred closed form,
    slope = sum (x - mean x)(y - mean y) / sum (x - mean x)^2, which calls no
    LAPACK routine; the sums are ``dot``'s, so no length of x wakes BLAS
    threads.  The values may differ from polyfit's in the last digits.
    """
    x_mean, y_mean = x.mean(), y.mean()
    dx, dy = x - x_mean, y - y_mean
    slope = dot(dx, dy) / dot(dx, dx)
    return slope, y_mean - slope * x_mean
