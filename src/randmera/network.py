"""Ring geometry of the coarse-graining network: sites, pairings, intervals, and the wall rule.

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

The wall rule, stated here once, is which isometries a cut crosses.
After_W wants both walls in odd gaps and after_V both in even ones
(`Interval.misaligned`); a misaligned wall cuts the rotated pair or the
split whose sites it parts (`Interval.cut`).  An isometry wholly on one side
of a cut leaves the nonzero spectrum of either side unchanged, so a region
whose walls cut nothing drops its stage for free (`Interval.below`): ``(k,
after_W)`` to ``(k, after_V)`` on the same sites, ``(k, after_V)`` to ``(k -
1, after_W)`` with its gaps halved.  Walls that meet cut nothing.  The
reduction DP (`cutbounds`) prices the cuts; the dense read (`simulator`)
applies the cut isometries to the snapshot below.
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


def _ring(level: int) -> int:
    """Sites on the ring of ``level``; `UsageError` for a negative level."""
    if level < 0:
        raise UsageError(f"negative level {level}")
    return 1 << level


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
        n = _ring(self.level)
        if not 0 <= self.length <= n:
            raise UsageError(f"length {self.length} outside 0..{n}")
        if not 0 <= self.i < n or (self.length == 0 and self.i != 0):
            raise UsageError(f"start {self.i} of a length {self.length} interval on a ring of {n}")

    @classmethod
    def of_length(cls, level: int, stage: Stage, i: int, length: int) -> "Interval":
        return cls(level, stage, i % _ring(level) if length else 0, length)

    @classmethod
    def span(cls, level: int, stage: Stage, i: int, j: int) -> "Interval":
        """Interval ``i..j``, inclusive; ``i == j+1 (mod n)`` means empty (not whole)."""
        return cls.of_length(level, stage, i, (j - i + 1) % _ring(level))

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

    @property
    def misaligned(self) -> tuple[int, ...]:
        """The walls at the wrong parity for the stage, ascending; none if they meet."""
        a, b = self.walls
        w = self.stage is Stage.AFTER_W
        return () if a == b else tuple(g for g in sorted((a, b)) if g & 1 != w)

    def cut(self) -> list[tuple[int, tuple[int, ...]]]:
        """``(slot, sites)`` of each isometry of the stage that a misaligned wall cuts, by slot.

        After_W, a wall at gap ``g`` cuts the pair ``(g - 1, g)``, slot ``g/2
        - 1`` of `MeraNetwork.w_pairs` (the wrap pair for ``g = 0``); after_V,
        it cuts the split of level ``k - 1`` site ``g >> 1``, also its slot.
        """
        if self.stage is Stage.AFTER_V:
            return [(g >> 1, (g >> 1,)) for g in self.misaligned]
        n = self.n_sites
        return sorted((((g >> 1) - 1) % (n >> 1), ((g - 1) % n, g)) for g in self.misaligned)

    def below(self) -> "Interval | None":
        """The free move: this region one stage down, or ``None`` if a wall cuts the stage or at the root."""
        if not self.level or self.misaligned:
            return None
        if self.stage is Stage.AFTER_W:
            return Interval(self.level, Stage.AFTER_V, self.i, self.length)
        return Interval.of_length(self.level - 1, Stage.AFTER_W, self.i >> 1, self.length >> 1)

    def within(self, levels: int) -> "Interval":
        """This interval, or `UsageError` if its ring is deeper than a network of ``levels`` levels."""
        if self.level > levels:
            raise UsageError(f"interval level {self.level} exceeds network depth {levels}")
        return self

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
