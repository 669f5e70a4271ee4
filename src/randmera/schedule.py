"""Bond-dimension schedules for binary coarse-graining networks.

A network with ``L`` levels has ``2**k`` sites at level ``k``.  Going down a
level, each site first splits into two (dimension ``dims_v[k]`` per child),
then staggered pairs are rotated into larger sites of dimension ``dims[k]``.
The schedule solver fixes the dimensions from the leaf dimension and a decay
rate ``epsilon`` by iterating, upward from the leaves with ``m = L - k``
counting height,

    dims_v[k]   = ceil(exp(log dims[k]     - epsilon * 2**m))
    dims[k - 1] = ceil(exp(2 log dims_v[k] - epsilon * 2**m))

until the top dimension reaches 1, which defines ``L``.  The rows run on
log dimensions ``x``: the ceiling, and the integer kept, only while
``exp(x) < 2**53``; past that every float is an integer, the ceiling does
nothing and ``x`` is kept alone.  Both rows of level ``k`` share the scale
factor ``2**(L-k)``, the number of leaves under one site; ignoring the
ceilings the iteration then telescopes to the closed form

    log dims[L - m] = 2**m log dims[L] - 3 m epsilon 2**(m - 1).

All logarithms are natural; entropies downstream are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FeasibilityError, UsageError

__all__ = [
    "DimensionSchedule",
    "find_epsilon",
    "schedule_report",
    "solve_schedule",
]

# A cold `cutbounds.cut_dp` query recurses two `CutEngine._solve` frames per
# level (one per stage) under four more (cut_dp, bounds, aggregates, _read):
# 2 * 128 + 4 = 260 frames at 128 levels, far inside Python's default
# recursion limit of 1000
_MAX_LEVELS = 128


@dataclass(frozen=True)
class DimensionSchedule:
    """Log dimensions of a solved network, and its integer dimensions below 2**53.

    Attributes
    ----------
    leaf_dim, epsilon : solver inputs.
    levels : number of levels ``L``; level 0 is the single top site.
    log_dims : tuple of length ``L + 1``; the log site dimension at level
        ``k`` after the pair rotation (``log_dims[0] == 0.0``).
    log_dims_v : the same after the splitting step, ``k >= 1``; entry 0 is
        the sentinel 0.0 (the top site is never split into).
    dims, dims_v : their integers, ``None`` from ``2**53`` on; only dense
        simulation reads them.
    """

    leaf_dim: int
    epsilon: float
    levels: int
    log_dims: tuple[float, ...]
    log_dims_v: tuple[float, ...]
    dims: tuple[int | None, ...]
    dims_v: tuple[int | None, ...]


def _ceil_log(x: float) -> tuple[float, int | None]:
    """``(log d, d)`` for ``d = max(1, ceil(exp(x)))``; ``(x, None)`` from ``2**53`` on."""
    e = math.exp(min(x, 37.0))  # exp(37) > 2**53
    if e < 2.0**53:
        d = max(1, math.ceil(e))
        return math.log(d), d
    return x, None


def solve_schedule(leaf_dim: int, epsilon: float) -> DimensionSchedule:
    """Solve the ceilinged dimension recursion upward from the leaves.

    Parameters
    ----------
    leaf_dim : int
        Site dimension at the leaf level, at least 2.
    epsilon : float
        Per-leaf decay rate in nats, ``0 < epsilon <= log(leaf_dim)``.
        Larger epsilon shrinks dimensions faster and never increases the
        number of levels.
    """
    if leaf_dim < 2:
        raise UsageError(f"leaf_dim must be at least 2, got {leaf_dim}")
    if not (epsilon > 0):
        raise UsageError(f"epsilon must be positive, got {epsilon}")
    if epsilon > math.log(leaf_dim):
        raise UsageError(
            f"epsilon={epsilon:.6g} exceeds log(leaf_dim)={math.log(leaf_dim):.6g}; "
            "no level survives the first contraction"
        )
    up = [(math.log(leaf_dim), leaf_dim)]  # up[m] = (log_dims, dims)[L - m]
    up_v = []  # up_v[m] = (log_dims_v, dims_v)[L - m]
    m = 0
    while True:
        scale = epsilon * (1 << m)
        up_v.append(_ceil_log(up[m][0] - scale))
        up.append(_ceil_log(2.0 * up_v[m][0] - scale))
        m += 1
        if up[m][1] == 1:
            break
        if m >= _MAX_LEVELS:
            raise FeasibilityError(f"no termination within {_MAX_LEVELS} levels")
    log_dims, dims = zip(*reversed(up))
    log_dims_v, dims_v = zip((0.0, 1), *reversed(up_v))
    return DimensionSchedule(leaf_dim, float(epsilon), m, log_dims, log_dims_v, dims, dims_v)


def find_epsilon(leaf_dim: int, target_levels: int) -> float:
    """Return an epsilon whose solved schedule has exactly ``target_levels`` levels.

    The level count is a nonincreasing step function of epsilon; bisect the
    plateau edges and return the plateau midpoint.  An epsilon whose
    schedule passes `_MAX_LEVELS` counts as infinitely deep.  Raises
    FeasibilityError if no epsilon produces the requested count.
    """
    if target_levels < 1:
        raise UsageError("target_levels must be at least 1")
    hi = math.log(leaf_dim)  # L(hi) == 1

    def levels_at(eps: float) -> float:
        try:
            return solve_schedule(leaf_dim, eps).levels
        except FeasibilityError:
            return math.inf

    if target_levels == 1:
        return hi
    lo = hi / 1.5
    while levels_at(lo) < target_levels:  # ends: a small enough epsilon passes the cap
        lo /= 1.5

    def upper_edge(count: int) -> float:
        # sup{eps : levels(eps) >= count}; levels(a) >= count <= levels(b)
        a, b = lo, hi
        for _ in range(80):
            mid = 0.5 * (a + b)
            if levels_at(mid) >= count:
                a = mid
            else:
                b = mid
        return a

    top = upper_edge(target_levels)
    bottom = upper_edge(target_levels + 1)
    eps = 0.5 * (bottom + top)
    if levels_at(eps) != target_levels:
        raise FeasibilityError(
            f"no epsilon plateau with {target_levels} levels for leaf_dim={leaf_dim}"
        )
    return eps


def schedule_report(schedule: DimensionSchedule) -> list[tuple[int, float, float, int, float]]:
    """Tabulate the schedule: rows ``(k, log_dims[k], log_dims_v[k], scale, ratio)``.

    ``scale = 2**(L-k)`` is the leaf count under one site and
    ``ratio = log_dims[k] / (epsilon * scale)`` measures how far the level
    sits above the decay floor (0 at the trivial top).
    """
    rows = []
    for k in range(schedule.levels + 1):
        scale = 1 << (schedule.levels - k)
        log_d = schedule.log_dims[k]
        rows.append((k, log_d, schedule.log_dims_v[k], scale, log_d / (schedule.epsilon * scale)))
    return rows
