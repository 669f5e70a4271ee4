"""Bond-dimension schedules for binary coarse-graining networks.

A network with ``L`` levels has ``2**k`` sites at level ``k``.  Going down a
level, each site first splits into two (dimension ``dims_v[k]`` per child),
then staggered pairs are rotated into larger sites of dimension ``dims[k]``.
The schedule solver fixes the integer dimensions from the leaf dimension and
a decay rate ``epsilon`` by iterating, upward from the leaves with
``m = L - k`` counting height,

    dims_v[k]   = ceil(exp(log dims[k]     - epsilon * 2**m))
    dims[k - 1] = ceil(exp(2 log dims_v[k] - epsilon * 2**m))

until the top dimension reaches 1, which defines ``L``.  Both rows of level
``k`` share the scale factor ``2**(L-k)``, the number of leaves under one
site; ignoring the ceilings the iteration then telescopes to the closed form

    log dims[L - m] = 2**m log dims[L] - 3 m epsilon 2**(m - 1).

All logarithms are natural; entropies downstream are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FeasibilityError, UsageError

__all__ = [
    "DimensionSchedule",
    "MemoryEstimate",
    "closed_form_log_dim",
    "find_epsilon",
    "memory_estimate",
    "schedule_report",
    "solve_schedule",
    "unrounded_log_dims",
]

# ceil(exp(x)) is the exact ceiling only while exp(x) stays below 2**53
# (x below about 36.7); past that the float carries 53 bits and the integer
# is a rounded value.  Against a 400-digit decimal ceiling, the (2, 0.05)
# schedule departs at m = 6 (an 18-digit dimension) and its dims_v from
# m = 7.  This cap only keeps exp(x) finite (it overflows near x = 709.8).
_MAX_LOG_DIM = 600.0
_MAX_LEVELS = 64


@dataclass(frozen=True)
class DimensionSchedule:
    """Integer dimensions of a solved network.

    Attributes
    ----------
    leaf_dim, epsilon : solver inputs.
    levels : number of levels ``L``; level 0 is the single top site.
    dims : tuple of length ``L + 1``; ``dims[k]`` is the site dimension at
        level ``k`` after the pair rotation (``dims[0] == 1``).
    dims_v : tuple of length ``L + 1``; ``dims_v[k]`` is the site dimension
        at level ``k`` after the splitting step, ``k >= 1``.  Entry 0 is the
        sentinel 1 (the top site is never split into).
    """

    leaf_dim: int
    epsilon: float
    levels: int
    dims: tuple[int, ...]
    dims_v: tuple[int, ...]

    def log_dim(self, level: int) -> float:
        return math.log(self.dims[level])


def _ceil_exp(x: float) -> int:
    if x > _MAX_LOG_DIM:
        raise FeasibilityError(
            f"schedule dimension exp({x:.1f}) is outside the float range the solver "
            f"guards (exp(x) for x <= {_MAX_LOG_DIM:.0f}; exp overflows near x = 709.8); "
            "increase epsilon"
        )
    return max(1, math.ceil(math.exp(x)))


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
    dims_up = [leaf_dim]  # dims_up[m] = dims[L - m]
    dims_v_up = []  # dims_v_up[m] = dims_v[L - m]
    m = 0
    while True:
        scale = epsilon * (1 << m)
        dv = _ceil_exp(math.log(dims_up[m]) - scale)
        dims_v_up.append(dv)
        d_next = _ceil_exp(2.0 * math.log(dv) - scale)
        dims_up.append(d_next)
        m += 1
        if d_next == 1:
            break
        if m >= _MAX_LEVELS:
            raise FeasibilityError(f"no termination within {_MAX_LEVELS} levels")
    return DimensionSchedule(
        leaf_dim=leaf_dim,
        epsilon=float(epsilon),
        levels=m,
        dims=tuple(reversed(dims_up)),
        dims_v=(1, *reversed(dims_v_up)),
    )


def unrounded_log_dims(leaf_dim: int, epsilon: float, m_max: int) -> list[float]:
    """Real-valued reference recursion without the integer ceilings.

    Iterates the same two rows in units of log-dimension per covered leaf
    (``t_m = log dims[L-m] / 2**m``), where both rows together reduce to
    ``t_{m+1} = t_m - 1.5 epsilon``; this keeps 20+ doublings free of float
    blow-up.  Returns ``log dims[L - m]`` for ``m = 0 .. m_max``.
    """
    if leaf_dim < 2 or not (epsilon > 0):
        raise UsageError("need leaf_dim >= 2 and epsilon > 0")
    t = math.log(leaf_dim)
    out = []
    for m in range(m_max + 1):
        out.append(t * (1 << m))
        t = t - 1.5 * epsilon
    return out


def closed_form_log_dim(leaf_dim: int, epsilon: float, m: int) -> float:
    """Closed form ``2**m log(leaf_dim) - 3 m epsilon 2**(m-1)`` of the recursion."""
    return (1 << m) * math.log(leaf_dim) - 3.0 * m * epsilon * (2.0 ** (m - 1))


def find_epsilon(leaf_dim: int, target_levels: int) -> float:
    """Return an epsilon whose solved schedule has exactly ``target_levels`` levels.

    The level count is a nonincreasing step function of epsilon; bisect the
    plateau edges and return the plateau midpoint.  Raises FeasibilityError
    if no epsilon in range produces the requested count.
    """
    if target_levels < 1:
        raise UsageError("target_levels must be at least 1")
    hi = math.log(leaf_dim)  # L(hi) == 1

    def levels_at(eps: float) -> int:
        return solve_schedule(leaf_dim, eps).levels

    if target_levels == 1:
        return hi
    lo = hi
    for _ in range(200):
        lo /= 1.5
        if levels_at(lo) >= target_levels:
            break
    else:
        raise FeasibilityError(f"no epsilon found for {target_levels} levels")

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


def schedule_report(schedule: DimensionSchedule) -> list[tuple[int, int, int, int, float]]:
    """Tabulate the schedule: rows ``(k, dims[k], dims_v[k], scale, ratio)``.

    ``scale = 2**(L-k)`` is the leaf count under one site and
    ``ratio = log(dims[k]) / (epsilon * scale)`` measures how far the level
    sits above the decay floor (0 at the trivial top).
    """
    rows = []
    for k in range(schedule.levels + 1):
        scale = 1 << (schedule.levels - k)
        ratio = schedule.log_dim(k) / (schedule.epsilon * scale)
        rows.append((k, schedule.dims[k], schedule.dims_v[k], scale, ratio))
    return rows


@dataclass(frozen=True)
class MemoryEstimate:
    """Exact per-stage state-vector sizes for dense simulation.

    ``per_stage`` rows are ``(level, stage, amplitudes)`` with stage naming
    the splitting step ("after_V") or the pair rotation ("after_W");
    amplitude counts are exact Python integers.
    """

    per_stage: tuple[tuple[int, str, int], ...]
    peak: int
    peak_level: int
    peak_stage: str


def memory_estimate(schedule: DimensionSchedule) -> MemoryEstimate:
    """Exact amplitude counts of every intermediate state of a dense build."""
    rows: list[tuple[int, str, int]] = [(0, "after_W", 1)]
    for k in range(1, schedule.levels + 1):
        n = 1 << k
        rows.append((k, "after_V", schedule.dims_v[k] ** n))
        rows.append((k, "after_W", schedule.dims[k] ** n))
    peak_level, peak_stage, peak = max(rows, key=lambda r: r[2])
    return MemoryEstimate(
        per_stage=tuple(rows), peak=peak, peak_level=peak_level, peak_stage=peak_stage
    )
