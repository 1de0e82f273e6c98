"""Flat key=value run configuration.

The parameter space is small, so the format stays dependency-free: one
``key = value`` pair per line, ``#`` starts a comment, blank lines are
ignored.  Unknown keys, duplicates, type errors, and constraint violations
all raise ConfigError carrying the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

from . import mms, scheme
from .energy import LyapunovParams
from .sparse_linalg import SolverConfig

MODES = ("simulate", "convergence", "decay-study")


class ConfigError(ValueError):
    """Config parse or validation failure, with a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; field names double as the config keys."""

    mode: str
    domain: str = "square"
    n_per_side: int = 8
    c: float = 1.0
    eps_u: float = 0.0
    eps_v: float = 0.0
    alpha: float = 1.0
    k: float = 0.01
    T: float = 1.0
    initial: str = "zero"
    case: str = "separable-decay"
    levels: int = 4
    rel_tol: float = 1e-12
    max_iter: int = 0  # 0 means the solver default of 10 n
    method: str = "cg"
    lyapunov_n_weight: float | None = None
    lyapunov_beta: float | None = None
    fit_window: float = 0.5
    out_energy: str = "energy.csv"
    out_summary: str = "summary.json"
    out_table: str = "convergence.csv"

    # the objects that use these values own their checks
    @cached_property
    def scheme_params(self) -> scheme.SchemeParams:
        return scheme.SchemeParams(
            c=self.c, eps_u=self.eps_u, eps_v=self.eps_v, alpha=self.alpha, k=self.k, T=self.T
        )

    @cached_property
    def solver_config(self) -> SolverConfig:
        return SolverConfig(self.rel_tol, self.max_iter or None, self.method)

    @cached_property
    def lyapunov_params(self) -> LyapunovParams | None:
        if self.lyapunov_n_weight is None:
            return None
        return LyapunovParams(self.lyapunov_n_weight, self.lyapunov_beta)


# the annotation of each field decides how its value parses
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text.

    ``mode`` is the one universally required key; everything else has a
    documented default.  decay-study mode additionally requires both
    Lyapunov weights.  Range checks belong to the objects built from the
    config (SchemeParams, SolverConfig, LyapunovParams, the initial presets
    and the manufactured cases); each of their messages leads with the key it
    names, and the ConfigError raised here carries that key's line.
    """
    values: dict = {}
    lines: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", lineno)
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r} (first set on line {lines[key]})", lineno)
        values[key] = _convert(key, value, lineno)
        lines[key] = lineno

    if "mode" not in values:
        raise ConfigError("missing required key 'mode'")
    cfg = RunConfig(**values)
    try:
        _validate(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc), lines.get(str(exc).split(maxsplit=1)[0])) from None
    return cfg


def _convert(key: str, token: str, lineno: int):
    kind = _FIELD_TYPES[key]
    if kind == "str":
        if not token:
            raise ConfigError(f"empty value for {key!r}", lineno)
        return token
    if kind == "int":
        try:
            return int(token)
        except ValueError:
            raise ConfigError(f"{key!r} needs an integer, got {token!r}", lineno) from None
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"{key!r} needs a number, got {token!r}", lineno) from None
    if not math.isfinite(value):
        raise ConfigError(f"{key!r} needs a finite number, got {token!r}", lineno)
    return value


def _validate(cfg: RunConfig) -> None:
    if cfg.mode not in MODES:
        raise ValueError(f"mode must be one of {', '.join(MODES)}, got {cfg.mode!r}")
    if not (cfg.domain in ("square", "interval") or cfg.domain.startswith("file:")):
        raise ValueError(f"domain must be square, interval, or file:<path>, got {cfg.domain!r}")
    if cfg.n_per_side < 1:
        raise ValueError(f"n_per_side must be at least 1, got {cfg.n_per_side}")
    if not (0.0 < cfg.fit_window <= 1.0):
        raise ValueError(f"fit_window must be in (0, 1], got {cfg.fit_window}")
    if (cfg.lyapunov_n_weight is None) != (cfg.lyapunov_beta is None):
        key = "lyapunov_beta" if cfg.lyapunov_n_weight is None else "lyapunov_n_weight"
        raise ValueError(f"{key} is set alone; lyapunov_n_weight and lyapunov_beta go together")
    if cfg.mode == "decay-study" and cfg.lyapunov_n_weight is None:
        raise ValueError("decay-study mode requires lyapunov_n_weight and lyapunov_beta")
    if cfg.mode == "convergence" and cfg.levels < 3:
        raise ValueError(f"levels = {cfg.levels} is too few; convergence mode needs at least 3")

    # building the owners checks their values; the cached objects serve the run
    cfg.scheme_params, cfg.solver_config, cfg.lyapunov_params
    if cfg.mode == "convergence":
        mms.build_case(cfg.case, cfg.scheme_params)
    else:
        scheme.initial_preset(cfg.initial)

