"""Ring geometry of the coarse-graining network: sites, pairings, intervals.

Level ``k`` is a periodic ring of ``2**k`` sites.  Each level is produced in
two stages:

* ``after_V``  - every level ``k-1`` site ``s`` has been split into the
  child pair ``(2s, 2s+1)``;
* ``after_W``  - the staggered pairs ``(2j+1, 2j+2 mod 2**k)`` have been
  rotated together, including the pair that wraps around the ring.

An interval is a start site ``i`` and a ``length`` in ``0 .. n_sites``: the
sites ``i, i+1, ..`` taken modulo the ring size, so the empty set and the
whole ring are told apart by their lengths.  The empty interval starts at 0.
Its boundary is its two *walls*, the gaps ``i`` and ``i + length`` (modulo
the ring size), where gap ``g`` lies just before site ``g``; the walls of
the empty set and of the whole ring meet.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import UsageError
from .schedule import DimensionSchedule, solve_schedule

__all__ = ["Interval", "MeraNetwork", "Stage"]


class Stage(str, enum.Enum):
    """Which of the two per-level stages a state or interval refers to."""

    AFTER_V = "after_V"
    AFTER_W = "after_W"


@dataclass(frozen=True)
class Interval:
    """The ``length`` sites from ``i`` on, modulo the ring of a given level and stage.

    Construct through `of_length` or `span`; ``j``, the last site, is
    ``i - 1`` when the interval is empty.
    """

    level: int
    stage: Stage
    i: int
    length: int

    def __post_init__(self):
        if self.level == 0 and self.stage == Stage.AFTER_V:
            raise UsageError("level 0 has no after_V stage")
        n = self.n_sites
        if not 0 <= self.length <= n:
            raise UsageError(f"length {self.length} outside 0..{n}")
        if not 0 <= self.i < n or (self.length == 0 and self.i != 0):
            raise UsageError(f"start {self.i} of a length {self.length} interval on a ring of {n}")

    @classmethod
    def of_length(cls, level: int, stage: Stage, i: int, length: int) -> "Interval":
        return cls(level, stage, i % (1 << level) if length else 0, length)

    @classmethod
    def span(cls, level: int, stage: Stage, i: int, j: int) -> "Interval":
        """Interval ``i..j``, inclusive; ``i == j+1 (mod n)`` means empty (not whole)."""
        return cls.of_length(level, stage, i, (j - i + 1) % (1 << level))

    @property
    def n_sites(self) -> int:
        return 1 << self.level

    @property
    def j(self) -> int:
        return (self.i + self.length - 1) % self.n_sites

    @property
    def whole(self) -> bool:
        return self.length == self.n_sites

    @property
    def walls(self) -> tuple[int, int]:
        """Gaps ``i`` and ``i + length``, in the order the sites run; equal if empty or whole."""
        return self.i, (self.i + self.length) % self.n_sites

    def sites(self) -> list[int]:
        n = self.n_sites
        return [(self.i + t) % n for t in range(self.length)]

    def join(self, right: "Interval") -> "Interval":
        """The union of this interval and ``right``, the one that follows it.

        An empty side gives back the other; otherwise ``right`` must begin
        where this interval ends, and the pair must fit on the ring.
        """
        if (self.level, self.stage) != (right.level, right.stage):
            raise UsageError("pair must live on one ring and stage")
        if not self.length or not right.length:
            return right if not self.length else self
        if right.i != (self.i + self.length) % self.n_sites:
            raise UsageError("right region must start on the site after the left one")
        if self.length + right.length > self.n_sites:
            raise UsageError("pair does not fit on the ring")
        return Interval(self.level, self.stage, self.i, self.length + right.length)


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

    def w_pairs(self, level: int) -> list[tuple[int, int]]:
        """Rotated pairs of ``level`` in slot order, wrap pair last."""
        n = 1 << level
        return [((2 * j + 1) % n, (2 * j + 2) % n) for j in range(n // 2)]

    @staticmethod
    def w_slots_cut(region: Interval) -> list[int]:
        """Ascending slots of the `w_pairs` whose gap ``2j + 2`` holds a wall; meeting walls cut none."""
        a, b = region.walls
        half = region.n_sites // 2
        return sorted({(g // 2 - 1) % half for g in (a, b) if g % 2 == 0 and a != b})
