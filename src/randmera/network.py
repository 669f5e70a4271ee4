"""Ring geometry of the coarse-graining network: sites, pairings, intervals.

Level ``k`` is a periodic ring of ``2**k`` sites.  Each level is produced in
two stages:

* ``after_V``  - every level ``k-1`` site ``s`` has been split into the
  child pair ``(2s, 2s+1)``;
* ``after_W``  - the staggered pairs ``(2j+1, 2j+2 mod 2**k)`` have been
  rotated together, including the pair that wraps around the ring.

Intervals are inclusive index ranges ``i..j`` on the ring.  Because the pair
``(i, j)`` with ``i == j+1 (mod n)`` describes both the empty set and the
whole ring, an interval carries an explicit ``whole`` flag; lengths run over
``0 .. n_sites`` with both extremes representable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import UsageError
from .schedule import DimensionSchedule, solve_schedule

__all__ = ["Interval", "MeraNetwork", "Stage"]


class Stage(str, enum.Enum):
    """Which of the two per-level stages a state or interval refers to."""

    AFTER_V = "after_V"
    AFTER_W = "after_W"


@dataclass(frozen=True)
class Interval:
    """Inclusive interval ``i..j`` on the ring of a given level and stage.

    Construct through `of_length`, `span`, `empty`, or `whole_ring`; the
    ``whole`` flag disambiguates the full ring from the empty set, which
    share the endpoint relation ``i == j+1 (mod n_sites)``.
    """

    level: int
    stage: Stage
    i: int
    j: int
    n_sites: int
    whole: bool = field(default=False)

    def __post_init__(self):
        if self.n_sites != 1 << self.level:
            raise UsageError(
                f"level {self.level} ring has {1 << self.level} sites, got {self.n_sites}"
            )
        if not (0 <= self.i < self.n_sites and 0 <= self.j < self.n_sites):
            raise UsageError(f"endpoints ({self.i}, {self.j}) outside ring of {self.n_sites}")
        if self.whole and (self.j + 1) % self.n_sites != self.i:
            raise UsageError("whole-ring interval must close on itself")

    # -- constructors ------------------------------------------------------

    @classmethod
    def of_length(cls, level: int, stage: Stage, i: int, length: int) -> "Interval":
        n = 1 << level
        if not (0 <= length <= n):
            raise UsageError(f"length {length} outside 0..{n}")
        i %= n
        j = (i + length - 1) % n
        return cls(level=level, stage=stage, i=i, j=j, n_sites=n, whole=(length == n))

    @classmethod
    def span(cls, level: int, stage: Stage, i: int, j: int) -> "Interval":
        """Interval ``i..j``; ``i == j+1 (mod n)`` means empty (not whole)."""
        n = 1 << level
        return cls(level=level, stage=stage, i=i % n, j=j % n, n_sites=n, whole=False)

    @classmethod
    def empty(cls, level: int, stage: Stage) -> "Interval":
        n = 1 << level
        return cls(level=level, stage=stage, i=0, j=n - 1, n_sites=n, whole=False)

    @classmethod
    def whole_ring(cls, level: int, stage: Stage) -> "Interval":
        n = 1 << level
        return cls(level=level, stage=stage, i=0, j=n - 1, n_sites=n, whole=True)

    # -- queries -----------------------------------------------------------

    @property
    def length(self) -> int:
        if self.whole:
            return self.n_sites
        return (self.j - self.i + 1) % self.n_sites

    @property
    def is_empty(self) -> bool:
        return self.length == 0

    def sites(self) -> list[int]:
        return [(self.i + t) % self.n_sites for t in range(self.length)]


class MeraNetwork:
    """A solved dimension schedule together with the ring geometry per level."""

    def __init__(self, schedule: DimensionSchedule):
        self.schedule = schedule

    @classmethod
    def build(cls, leaf_dim: int, epsilon: float) -> "MeraNetwork":
        return cls(solve_schedule(leaf_dim, epsilon))

    @property
    def levels(self) -> int:
        return self.schedule.levels

    @property
    def n_leaves(self) -> int:
        return 1 << self.schedule.levels

    def n_sites(self, level: int) -> int:
        if not (0 <= level <= self.levels):
            raise UsageError(f"level {level} outside 0..{self.levels}")
        return 1 << level

    def site_dim(self, level: int, stage: Stage) -> int:
        if not (0 <= level <= self.levels):
            raise UsageError(f"level {level} outside 0..{self.levels}")
        if stage == Stage.AFTER_V:
            if level == 0:
                raise UsageError("level 0 has no splitting stage")
            return self.schedule.dims_v[level]
        return self.schedule.dims[level]

    def w_pairs(self, level: int) -> list[tuple[int, int]]:
        """Rotated pairs of ``level`` in slot order, wrap pair last."""
        n = 1 << level
        return [((2 * j + 1) % n, (2 * j + 2) % n) for j in range(n // 2)]
