"""Exception types shared across the package.

Two failure families matter to callers: bad inputs (caller error, CLI exit
code 2) and computations that are well-posed but exceed a resource or
validity limit (CLI exit code 3).
"""

from __future__ import annotations


class UsageError(ValueError):
    """Invalid argument, option, or configuration value."""


class FeasibilityError(RuntimeError):
    """Requested computation exceeds a resource bound or numeric range."""
