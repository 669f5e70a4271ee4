"""Exception types shared across the package, and the amplitude budget.

Two failure families matter to callers: bad inputs (caller error, CLI exit
code 2) and computations that are well-posed but exceed a resource or
validity limit (CLI exit code 3).

The amplitude budget (`admit`) lives here, next to the error it raises,
because every layer admits the arrays it forms before its first draw: the
simulator its states and isometries, `spectra` its maps, `haar` its moment
batches (``haar`` cannot import ``simulator``, which imports ``haar``).
"""

from __future__ import annotations

import math
import os

DEFAULT_MAX_AMPLITUDES = 1 << 26
MAX_AMPLITUDES_ENV = "RANDMERA_MAX_AMPLITUDES"


class UsageError(ValueError):
    """Invalid argument, option, or configuration value."""


class FeasibilityError(RuntimeError):
    """Requested computation exceeds a resource bound or numeric range."""


def max_amplitudes_from_env() -> int:
    """Amplitude budget, overridable through the environment."""
    raw = os.environ.get(MAX_AMPLITUDES_ENV)
    if raw is None:
        return DEFAULT_MAX_AMPLITUDES
    try:
        val = int(raw)
    except ValueError as exc:
        raise UsageError(f"{MAX_AMPLITUDES_ENV} must be an integer, got {raw!r}") from exc
    if val < 1:
        raise UsageError(f"{MAX_AMPLITUDES_ENV} must be positive, got {val}")
    return val


def admit(log_count: float, factors, what: str) -> None:
    """Raise FeasibilityError ``"{what}, budget is N"`` for an array over the budget.

    The array holds ``prod(d ** m for d, m in factors)`` amplitudes, ``log_count``
    in log.  The exact count is formed only once the log is within 1 of
    ``log(budget)``, so a deep network is refused at once, and a ``None``
    dimension (past 2**53, see `DimensionSchedule`) never fits.
    """
    cap = max_amplitudes_from_env()
    if not (
        log_count <= math.log(cap) + 1.0
        and all(d is not None for d, _ in factors)
        and math.prod(d**m for d, m in factors) <= cap
    ):
        raise FeasibilityError(f"{what}, budget is {cap}")
