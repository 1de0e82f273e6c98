"""Flat key=value run configuration.

The parameter space is small, so the format stays dependency-free: one
``key = value`` pair per line, ``#`` starts a comment, blank lines are
ignored.  Unknown keys, duplicates, type errors, and constraint violations
all raise ConfigError carrying the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_INT_KEYS = {"n_per_side", "levels", "max_iter"}
_FLOAT_KEYS = {"c", "eps_u", "eps_v", "alpha", "k", "T", "rel_tol",
               "lyapunov_n_weight", "lyapunov_beta", "fit_window"}
_STR_KEYS = {"mode", "domain", "initial", "case", "method",
             "out_energy", "out_summary", "out_table"}


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text.

    ``mode`` is the one universally required key; everything else has a
    documented default.  decay-study mode additionally requires both
    Lyapunov weights.
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
    _validate(cfg, lines)
    return cfg


def _convert(key: str, token: str, lineno: int):
    if key in _STR_KEYS:
        if not token:
            raise ConfigError(f"empty value for {key!r}", lineno)
        return token
    if key in _INT_KEYS:
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


def _validate(cfg: RunConfig, lines: dict) -> None:
    def fail(key: str, message: str):
        raise ConfigError(message, lines.get(key))

    if cfg.mode not in MODES:
        fail("mode", f"mode must be one of {', '.join(MODES)}, got {cfg.mode!r}")
    if not (cfg.domain in ("square", "interval") or cfg.domain.startswith("file:")):
        fail("domain", f"domain must be square, interval, or file:<path>, got {cfg.domain!r}")
    if cfg.n_per_side < 1:
        fail("n_per_side", f"n_per_side must be at least 1, got {cfg.n_per_side}")
    if cfg.c <= 0.0:
        fail("c", f"c must be positive, got {cfg.c}")
    if cfg.eps_u < 0.0:
        fail("eps_u", f"eps_u must be nonnegative, got {cfg.eps_u}")
    if cfg.eps_v < 0.0:
        fail("eps_v", f"eps_v must be nonnegative, got {cfg.eps_v}")
    if cfg.alpha <= 0.0:
        fail("alpha", f"alpha must be positive, got {cfg.alpha}")
    if cfg.k <= 0.0:
        fail("k", f"k must be positive, got {cfg.k}")
    if cfg.T <= 0.0:
        fail("T", f"T must be positive, got {cfg.T}")
    steps = round(cfg.T / cfg.k)
    if steps < 1 or abs(steps * cfg.k - cfg.T) > 1e-12 * cfg.T:
        fail("k", f"k = {cfg.k!r} does not divide T = {cfg.T!r} into whole steps")
    if not (0.0 < cfg.rel_tol < 1.0):
        fail("rel_tol", f"rel_tol must be in (0, 1), got {cfg.rel_tol}")
    if cfg.max_iter < 0:
        fail("max_iter", f"max_iter must be 0 (auto) or positive, got {cfg.max_iter}")
    if cfg.method not in ("cg", "cholesky"):
        fail("method", f"method must be cg or cholesky, got {cfg.method!r}")
    if not (0.0 < cfg.fit_window <= 1.0):
        fail("fit_window", f"fit_window must be in (0, 1], got {cfg.fit_window}")

    has_n, has_beta = cfg.lyapunov_n_weight is not None, cfg.lyapunov_beta is not None
    if has_n != has_beta:
        key = "lyapunov_n_weight" if has_n else "lyapunov_beta"
        fail(key, "lyapunov_n_weight and lyapunov_beta must be set together")
    if has_n and cfg.lyapunov_n_weight <= 0.0:
        fail("lyapunov_n_weight", "lyapunov_n_weight must be positive")
    if has_beta and cfg.lyapunov_beta <= 0.0:
        fail("lyapunov_beta", "lyapunov_beta must be positive")

    if cfg.mode == "decay-study" and not has_n:
        raise ConfigError(
            "decay-study mode requires lyapunov_n_weight and lyapunov_beta"
        )
    if cfg.mode == "convergence" and cfg.levels < 3:
        fail("levels", f"convergence mode needs at least 3 levels, got {cfg.levels}")


def render_config(cfg: RunConfig) -> str:
    """Emit config text that parses back to an equal RunConfig.

    Floats are written with repr so values survive the round trip bitwise;
    unset optional keys are omitted.
    """
    out = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        text = repr(value) if isinstance(value, float) else str(value)
        out.append(f"{f.name} = {text}")
    return "\n".join(out) + "\n"
