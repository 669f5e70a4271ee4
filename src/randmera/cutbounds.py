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
``a``, ``b`` are the walls.  The wall moves are stated once, by `_moves`, as
a function of the price, ``w`` and the two walls' parities; the layer below
a stage is ``(level - 1 + w, 1 - w)``, whose walls are the aligned ones
shifted right by ``1 - w``.

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

The memo holds the three numbers of each state and nothing else; the
states of a network are shared across queries, and no table of unreachable
states or of moves is ever built.  The argmin sequence is walked from the
interval's state afterwards, picking at each step the branch whose price
plus the memoised ``min_cost`` of its successor is smallest.  The rules
treat both walls alike, so an interval and its complement, which has the
same walls in the other order, have the same aggregates.  That holds to the
bit because ``log_z`` sums the branch terms exactly rounded, so it gives the
same bits whatever order the mirror image or the complement meets the
branches in.  Two terms need no `math.fsum`: the float sum of two floats is
already the exactly rounded one.  Four terms do, since a plain sum rounds
after each of its three adds and so depends on their order.  A single
branch needs no sum: ``t + 0.0`` equals ``t + log(fsum([exp(t - t)]))``,
including the sign of a zero.

All costs are in nats.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import exp, fsum, log
from weakref import WeakKeyDictionary

from .errors import UsageError
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


@dataclass(frozen=True)
class ReductionStep:
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
            "steps": [asdict(s) for s in self.steps],
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


# (da, price) of each move one wall may make
_WallMoves = tuple[tuple[int, float], ...]


def _moves(price: float, w: int, pa: int, pb: int) -> tuple[_WallMoves, _WallMoves]:
    """``(da, price)`` moves of the first wall and of the second, of parities ``pa`` and ``pb``.

    After_W (``w`` 1) wants both walls in odd gaps, after_V (``w`` 0) both
    in even ones; a misaligned wall moves one gap either way at ``price``.
    A branch is one move of each wall, first wall outer, at the sum of
    their prices.
    """
    step = ((-1, price), (1, price))
    return ((0, 0.0),) if pa == w else step, ((0, 0.0),) if pb == w else step


class CutEngine:
    """One memoised recursion over the reduction states a network's queries reach.

    States are int tuples ``(level, w, a, b)``, ``w`` 1 for after_W and 0
    for after_V.  `_solve` folds a new state into its three aggregates and
    stores them in the single memo ``_min`` (one entry per state reached
    whose walls have not met).  It has one case for each number of
    misaligned walls, 0, 1 or 2, with the 1, 2 or 4 branches that `_moves`
    gives, in its order.  The branches share one price, so each minimum is
    taken over the successors and the price added once: rounding is
    monotone, so that gives the bits of adding it to every branch first.
    ``log_z`` adds two branch terms with one float add and sums four with
    `math.fsum`; both are exactly rounded.  `_solve` reads each successor
    inline, as a meeting of walls or a memo hit, and recurses only to solve
    a new one.  `argmin_sequence` walks the cheapest branches back out of
    the memo under `_moves`; `aggregates` reads one entry, for `bounds` and
    `mi_prediction` alike.  The engine keeps the level count and log
    dimensions, not the network, so that `engine_for` can drop it together
    with its network.
    """

    def __init__(self, network: MeraNetwork):
        self._levels = network.levels
        self._log_d = network.schedule.log_dims
        self._log_dv = network.schedule.log_dims_v
        self._min: dict[_State, _Entry] = {}

    def state_of(self, interval: Interval) -> _State:
        if interval.level > self._levels:
            raise UsageError(
                f"interval level {interval.level} exceeds network depth {self._levels}"
            )
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
        2 misaligned walls of `_moves`, whose branches all pay one price
        ``p``; each case reads its successors in `_moves`' branch order.
        """
        level, w, a, b = state
        memo = self._min
        below, w2 = level - 1 + w, 1 - w
        a_stays, b_stays = a & 1 == w, b & 1 == w
        if a_stays and b_stays:
            # one branch at p = 0.0: these equal 0.0 + c, (-0.0 + lz) + 0.0
            # and (0.0 - LOG_BRANCH) + mod to the bit; aligned walls stay
            # apart on the layer below, so the successor never ends
            nxt = (below, w2, a >> w2, b >> w2)
            entry = memo.get(nxt)
            c, lz, mod = entry if entry is not None else self._solve(nxt)
            entry = (c + 0.0, lz + 0.0, mod - LOG_BRANCH)
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
            v0, v1 = lz0 - p, lz1 - p
            top = v1 if v1 > v0 else v0
            entry = (
                p + (c0 if c0 <= c1 else c1),
                top + log(exp(v0 - top) + exp(v1 - top)),
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
        top = max(v0, v1, v2, v3)
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
        index)`` wins, so walks are deterministic for golden tests.  A step
        with one branch takes it unrounded.
        """
        state = self.state_of(interval)
        cost = self._read(state)[0]
        memo = self._min
        steps: list[ReductionStep] = []
        level, w, a, b = state
        while a != b:
            mask = (1 << level) - 1
            below, w2 = level - 1 + w, 1 - w
            left, right = _moves((self._log_d if w else self._log_dv)[level], w, a & 1, b & 1)
            one = len(left) == len(right) == 1
            branches = []
            for da, cost_a in left:
                a2 = (a + da) & mask
                for db, cost_b in right:
                    b2 = (b + db) & mask
                    price = cost_a + cost_b
                    nxt = (below, w2, a2 >> w2, b2 >> w2)
                    # the fold solved every successor: one missing raises KeyError
                    total = price + (_END if nxt[2] == nxt[3] else memo[nxt])[0]
                    if not one:
                        total = round(total, 12)
                    branches.append((total, a2, (b2 - 1) & mask, len(branches), price, nxt))
            _, m, last, _, price, nxt = min(branches)
            steps.append(ReductionStep("W" if w else "V", level, m, last, price))
            level, w, a, b = nxt
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
