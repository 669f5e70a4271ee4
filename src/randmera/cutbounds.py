"""Cut-counting bounds on interval entropies via reduction sequences.

An interval's boundary is its two walls, ordered so that the region runs
clockwise from the first to the second (`Interval.walls`).  The network is
peeled back one layer at a time: removing a rotation layer wants both walls
in odd gaps, between rotated pairs, and removing a splitting layer wants
both in even gaps, between sibling pairs, whose positions then halve.  A
misaligned wall moves one gap either way at a price of the log site
dimension.  Walls that land on the same gap annihilate: the region is then
empty or the whole ring, a pure state, and the sequence ends.  The summed
price of such a *reduction sequence* is an upper bound on the entanglement
entropy of every sampled state, and aggregates over all sequences bound the
averages from below.

This module computes, by one memoised recursion over the states an interval
can reach, all of:

* ``min_cost``     - the cheapest reduction sequence (per-sample upper bound
  on the von Neumann entropy, hence also on the order-2 entropy),
* ``lse``          - ``-log`` of the sum of ``exp(-cost)`` over all
  sequences (a lower bound on the average order-2 entropy),
* ``lower_bound``  - the minimum of ``cost - log(8) * steps`` (a lower
  bound on ``lse``, hence on the same average; the ``log 8`` per step pays
  for the at-most-four-way branching plus a convergent geometric slack).

A state is the tuple of ints ``(level, w, a, b)``: ``w`` is 1 after the
rotation layer (after_W) and 0 after the splitting layer (after_V), and
``a``, ``b`` are the walls.  The wall rule is `network`'s: an aligned wall
stays for free, and a misaligned one moves one gap either way at the
layer's price.  The layer below a stage is ``(level - 1 + w, 1 - w)``,
whose walls are the moved ones shifted right by ``1 - w``.  The fold and
the walk below test the walls' parities inline, for speed;
``tests/test_cutbounds.py::test_the_unrolled_fold_is_the_wall_rule`` walks
every state they reach and checks it against the rule.

The fold of a state has three cases, by its number of misaligned walls: 0,
1 or 2 of them give 1, 2 or 4 branches.  Every branch of a state pays the
same price ``p``: 0.0, the layer's price, or twice it, since an aligned
wall's move is free and a misaligned one's is the price whichever way it
goes.  So ``p`` is added once per state, after the successors are folded.
Rounding is monotone, so ``min_i fl(p + c_i) == fl(p + min_i c_i)`` to the
bit, and likewise for ``min_mod`` with ``p - log 8``: each minimum is taken
over the successors before the one add.  Each case reads its successors
inline: one whose walls meet costs nothing, one already in the memo is read
from it, and only a new state is solved by recursing, two frames per level.

The one free branch adds nothing: its state takes its successor's numbers,
``min_mod`` less ``log 8``.  Adding the price 0.0 would change a bit only
of a -0.0, and there is none.  Aligned walls never meet on the layer below
(after_W leaves them where they are, after_V halves two distinct even
gaps), so the successor is a solved state, never the ended one whose
``log_z`` is -0.0.  No solved ``log_z`` is -0.0: each is a top term plus
the log of a sum that holds exp(0.0) = 1, a log of +0.0 or more, or is a
solved successor's.  No ``min_cost`` is -0.0, as prices and the ended cost
are +0.0 or more.

The memo holds the three numbers of each state and nothing else; the
states of a network are shared across queries, and no table of unreachable
states or of moves is ever built.  The argmin sequence is walked from the
interval's state afterwards, one loop per step over the walls' moves.  An
aligned wall's one move is to stay; a misaligned wall's two moves come in
the order the rule prefers at a tie, the first wall's by ``m``, the moved
wall, and the second wall's by ``n``, the site before it.  Taken first wall
outer, the branches come in ``(m, n, branch index)`` order, and all pay the
step's one price (0.0, ``p`` or ``p + p``) plus the memoised ``min_cost``
of their successor.  The walk keeps the earlier branch unless a later total
is smaller and, when the two lie within 2e-12, also smaller after both are
rounded to 12 decimals.  That is the choice rounding every total makes,
bit for bit: the earliest branch whose total, rounded, is smallest.  A
later total that rounds smaller is smaller, since rounding is monotone.  A
later total more than 2e-12 smaller rounds smaller too, for two totals
that round alike are equal or at most 1e-12 apart (above 8192, where floats
are more than 1e-12 apart, ``round(x, 12) == x``).  So `round` is called
only at such near-ties, and an exact tie keeps the earlier branch with no
rounding at all.

The rules treat both walls alike, so an interval and its complement, which
has the same walls in the other order, have the same aggregates.  That
holds to the bit because ``log_z`` sums the branch terms exactly rounded,
so it gives the same bits whatever order the mirror image or the complement
meets the branches in.  Two terms need no `math.fsum`: the float sum of two
floats is already the exactly rounded one, and the top one of them is
exp(0.0), the literal 1.0.  Four terms do, since a plain sum rounds after
each of its three adds and so depends on their order.

All costs are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, fsum, inf, log
from typing import NamedTuple
from weakref import WeakKeyDictionary

from .network import Interval, MeraNetwork, Stage

__all__ = [
    "LOG_BRANCH",
    "CutBounds",
    "CutEngine",
    "MiPrediction",
    "ReductionSequence",
    "ReductionStep",
    "cut_dp",
    "engine_for",
    "mi_prediction",
]

LOG_BRANCH = log(8.0)

# DP states are (level, w, a, b), w = 1 after_W and 0 after_V: the region
# runs clockwise from gap a to gap b, and a == b (empty or whole) ends the
# sequence.
_State = tuple[int, int, int, int]


class ReductionStep(NamedTuple):
    """One peeling step: wall alignment plus removal of one layer.

    ``kind`` is "W" when a rotation layer is removed and "V" for a splitting
    layer; ``m``/``n`` are the first and last site between the aligned walls
    just before removal (``m == n + 1`` modulo the ring size when the walls
    met, which ends the sequence); ``cost`` is the alignment price paid in
    this step, in nats.
    """

    kind: str
    level: int
    m: int
    n: int
    cost: float


@dataclass(frozen=True)
class ReductionSequence:
    """An ordered reduction of one interval down to nothing."""

    start: Interval
    steps: tuple[ReductionStep, ...]
    cost: float

    @property
    def height(self) -> int:
        return len(self.steps)

    def to_json_dict(self) -> dict:
        return {
            "start": {
                "level": self.start.level,
                "stage": self.start.stage.value,
                "i": self.start.i,
                "j": self.start.j,
                "whole": self.start.whole,
            },
            "cost": self.cost,
            "height": self.height,
            "steps": [s._asdict() for s in self.steps],
        }


@dataclass(frozen=True)
class CutBounds:
    """All cut-counting aggregates for one interval."""

    interval: Interval
    min_cost: float
    lse: float
    lower_bound: float
    argmin: ReductionSequence

    @property
    def height_of_argmin(self) -> int:
        return self.argmin.height


@dataclass(frozen=True)
class MiPrediction:
    """Bracket for the average mutual information of two adjacent regions."""

    i_upper: float
    i_lower: float


# (min_cost, log_z, min_mod) of one state
_Entry = tuple[float, float, float]

# a state whose walls meet ends every sequence and costs nothing; -0.0 so
# that the empty interval's lse is +0.0
_END: _Entry = (0.0, -0.0, 0.0)


class CutEngine:
    """One memoised recursion over the reduction states a network's queries reach.

    States are int tuples ``(level, w, a, b)``, ``w`` 1 for after_W and 0
    for after_V.  `_solve` folds a new state into its three aggregates and
    stores them in the single memo ``_min`` (one entry per state reached
    whose walls have not met); `argmin_sequence` walks the cheapest branches
    back out of it in one loop over the walls' moves; `aggregates` reads one
    entry, for `bounds` and `mi_prediction` alike.  Why the fold gives the
    generic fold's bits, and the walk its steps, is argued once, in the
    module docstring.  The engine keeps the level count and log dimensions,
    not the network, so that `engine_for` can drop it together with its
    network.
    """

    def __init__(self, network: MeraNetwork):
        self._levels = network.levels
        self._log_d = network.schedule.log_dims
        self._log_dv = network.schedule.log_dims_v
        self._min: dict[_State, _Entry] = {}

    def state_of(self, interval: Interval) -> _State:
        interval.within(self._levels)
        return (interval.level, int(interval.stage is Stage.AFTER_W), *interval.walls)

    def _read(self, state: _State) -> _Entry:
        """``(min_cost, log_z, min_mod)`` of ``state``, solved if the memo lacks it."""
        if state[2] == state[3]:
            return _END
        entry = self._min.get(state)
        return entry if entry is not None else self._solve(state)

    def _solve(self, state: _State) -> _Entry:
        """Fold the successors of a new ``state`` whose walls have not met.

        ``log_z`` is the ``log`` of the sum of ``exp(-cost)`` over all
        sequences and ``min_mod`` the minimum of ``cost - log(8) * steps``.
        Ties are left to `argmin_sequence`.  The three cases are the 0, 1 or
        2 misaligned walls; each reads its successors in branch order, the
        first wall's move outer and each wall's move down before up, and
        adds the one price after the minima (module docstring).
        """
        level, w, a, b = state
        memo = self._min
        below, w2 = level - 1 + w, 1 - w
        a_stays, b_stays = a & 1 == w, b & 1 == w
        if a_stays and b_stays:
            # one free branch: the successor's numbers, min_mod less log 8
            # (the module docstring says why adding 0.0 is skipped)
            nxt = (below, w2, a >> w2, b >> w2)
            entry = memo.get(nxt)
            c, lz, mod = entry if entry is not None else self._solve(nxt)
            entry = (c, lz, mod - LOG_BRANCH)
            memo[state] = entry
            return entry
        mask = (1 << level) - 1
        p = (self._log_d if w else self._log_dv)[level]
        if a_stays or b_stays:
            # two branches at the one misaligned wall's price
            if a_stays:
                a0 = a1 = a >> w2
                b0, b1 = ((b - 1) & mask) >> w2, ((b + 1) & mask) >> w2
            else:
                a0, a1 = ((a - 1) & mask) >> w2, ((a + 1) & mask) >> w2
                b0 = b1 = b >> w2
            if a0 == b0:
                c0, lz0, m0 = _END
            else:
                nxt = (below, w2, a0, b0)
                entry = memo.get(nxt)
                c0, lz0, m0 = entry if entry is not None else self._solve(nxt)
            if a1 == b1:
                c1, lz1, m1 = _END
            else:
                nxt = (below, w2, a1, b1)
                entry = memo.get(nxt)
                c1, lz1, m1 = entry if entry is not None else self._solve(nxt)
            # the top term is exp(0.0), the literal 1.0
            v0, v1 = lz0 - p, lz1 - p
            entry = (
                p + (c0 if c0 <= c1 else c1),
                v1 + log(1.0 + exp(v0 - v1)) if v1 > v0 else v0 + log(1.0 + exp(v1 - v0)),
                (p - LOG_BRANCH) + (m0 if m0 <= m1 else m1),
            )
            memo[state] = entry
            return entry
        # four branches at twice the price, p + p exactly
        a0, a1 = ((a - 1) & mask) >> w2, ((a + 1) & mask) >> w2
        b0, b1 = ((b - 1) & mask) >> w2, ((b + 1) & mask) >> w2
        if a0 == b0:
            c0, lz0, m0 = _END
        else:
            nxt = (below, w2, a0, b0)
            entry = memo.get(nxt)
            c0, lz0, m0 = entry if entry is not None else self._solve(nxt)
        if a0 == b1:
            c1, lz1, m1 = _END
        else:
            nxt = (below, w2, a0, b1)
            entry = memo.get(nxt)
            c1, lz1, m1 = entry if entry is not None else self._solve(nxt)
        if a1 == b0:
            c2, lz2, m2 = _END
        else:
            nxt = (below, w2, a1, b0)
            entry = memo.get(nxt)
            c2, lz2, m2 = entry if entry is not None else self._solve(nxt)
        if a1 == b1:
            c3, lz3, m3 = _END
        else:
            nxt = (below, w2, a1, b1)
            entry = memo.get(nxt)
            c3, lz3, m3 = entry if entry is not None else self._solve(nxt)
        p = p + p
        v0, v1, v2, v3 = lz0 - p, lz1 - p, lz2 - p, lz3 - p
        # max of four, keeping its first maximal term
        v01, v23 = v1 if v1 > v0 else v0, v3 if v3 > v2 else v2
        top = v23 if v23 > v01 else v01
        c01, c23 = c0 if c0 <= c1 else c1, c2 if c2 <= c3 else c3
        m01, m23 = m0 if m0 <= m1 else m1, m2 if m2 <= m3 else m3
        entry = (
            p + (c01 if c01 <= c23 else c23),
            top + log(fsum((exp(v0 - top), exp(v1 - top), exp(v2 - top), exp(v3 - top)))),
            (p - LOG_BRANCH) + (m01 if m01 <= m23 else m23),
        )
        memo[state] = entry
        return entry

    def aggregates(self, interval: Interval) -> _Entry:
        """``(min_cost, log_z, min_mod)`` of ``interval``, read from the memo."""
        return self._read(self.state_of(interval))

    def argmin_sequence(self, interval: Interval) -> ReductionSequence:
        """The cheapest sequence, walked from the memoised ``min_cost`` values.

        Each step takes the branch with the smallest price plus successor
        ``min_cost``, read straight from the memo that the fold filled;
        among totals that agree to 12 decimals the smallest ``(m, n, branch
        index)`` wins, so walks are deterministic for golden tests.  The loop
        over the walls' moves, and why it rounds only at near-ties, are
        stated once in the module docstring's walk paragraph.
        """
        state = self.state_of(interval)
        cost = self._read(state)[0]
        memo = self._min
        steps: list[ReductionStep] = []
        level, w, a, b = state
        while a != b:
            mask = (1 << level) - 1
            below, w2 = level - 1 + w, 1 - w
            p = (self._log_d if w else self._log_dv)[level]
            # each wall's moves in the order the rule prefers at a tie: the
            # first wall's by m, the second's by n, the site before it (b
            # itself for the move up)
            price, a_moves, b_moves = 0.0, (a,), (b,)
            if a & 1 != w:
                down, up = (a - 1) & mask, (a + 1) & mask
                price, a_moves = p, (down, up) if down < up else (up, down)
            if b & 1 != w:
                down, up = (b - 1) & mask, (b + 1) & mask
                price += p
                b_moves = (down, up) if (down - 1) & mask < b else (up, down)
            best = inf
            for x in a_moves:
                for y in b_moves:
                    # the fold solved every successor: one missing raises KeyError
                    t = price + (0.0 if x >> w2 == y >> w2 else memo[(below, w2, x >> w2, y >> w2)][0])
                    if t < best and (best - t > 2e-12 or round(t, 12) < round(best, 12)):
                        best, a1, b1 = t, x, y
            steps.append(ReductionStep("W" if w else "V", level, a1, (b1 - 1) & mask, price))
            level, w, a, b = below, w2, a1 >> w2, b1 >> w2
        return ReductionSequence(start=interval, steps=tuple(steps), cost=cost)

    def bounds(self, interval: Interval) -> CutBounds:
        min_cost, log_z, min_mod = self.aggregates(interval)
        return CutBounds(
            interval=interval,
            min_cost=min_cost,
            lse=-log_z,
            lower_bound=min_mod,
            argmin=self.argmin_sequence(interval),
        )


_ENGINES: WeakKeyDictionary = WeakKeyDictionary()


def engine_for(network: MeraNetwork) -> CutEngine:
    """The shared memoized engine of a network (one per network object)."""
    eng = _ENGINES.get(network)
    if eng is None:
        eng = CutEngine(network)
        _ENGINES[network] = eng
    return eng


def cut_dp(network: MeraNetwork, interval: Interval) -> CutBounds:
    """All cut-counting aggregates for one interval of the network."""
    return engine_for(network).bounds(interval)


def mi_prediction(network: MeraNetwork, left: Interval, right: Interval) -> MiPrediction:
    """Bracket for the average mutual information of adjacent regions.

    Each entropy lies between its cheapest sequence and its step-discounted
    minimum floored at zero (entropy is nonnegative).  The union of ``left``
    and ``right`` is `Interval.join`'s, under its adjacency rule; an empty
    side gives the trivial bracket.  It reads the engine's memo, walking no argmin.
    """
    eng = engine_for(network)
    memo = [eng.aggregates(iv) for iv in (left, right, left.join(right))]
    (c_left, _, _), (c_right, _, _), (c_union, _, _) = memo
    f_left, f_right, f_union = (max(0.0, min_mod) for _, _, min_mod in memo)
    return MiPrediction(
        i_upper=c_left + c_right - f_union,
        i_lower=max(0.0, f_left + f_right - c_union),
    )
