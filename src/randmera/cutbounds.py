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

This module computes, by one memoised recursion over the (level, stage,
wall, wall) states an interval can reach, all of:

* ``min_cost``     - the cheapest reduction sequence (per-sample upper bound
  on the von Neumann entropy, hence also on the order-2 entropy),
* ``lse``          - ``-log`` of the sum of ``exp(-cost)`` over all
  sequences (a lower bound on the average order-2 entropy),
* ``lower_bound``  - the minimum of ``cost - log(8) * steps`` (a lower
  bound on ``lse``, hence on the same average; the ``log 8`` per step pays
  for the at-most-four-way branching plus a convergent geometric slack).

The memo holds these three numbers for each state and nothing else; the
states of a network are shared across queries, and no table of unreachable
states is ever built.  The argmin sequence is walked from the interval's
state afterwards, picking at each step the branch whose price plus the
memoised ``min_cost`` of its successor is smallest.  The rules treat both
walls alike, so an interval and its complement, which has the same walls in
the other order, have the same aggregates.

All costs are in nats.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import product
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

LOG_BRANCH = math.log(8.0)

# DP states are (level, stage, a, b): the region runs clockwise from gap a
# to gap b, and a == b (empty or whole) ends the sequence.
_State = tuple[int, Stage, int, int]


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


class CutEngine:
    """One memoised recursion over the reduction states a network's queries reach.

    `_branches` states the wall moves; `_solve` folds a state's branches into
    its three aggregates and stores them in the single memo ``_min`` (one
    entry per state reached whose walls have not met); `argmin_sequence`
    walks the cheapest branches back out of the memo; `bounds` reads one
    entry.  The engine keeps the level count and log dimensions, not the
    network, so that `engine_for` can drop it together with its network.
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
        return (interval.level, interval.stage, *interval.walls)

    def _branches(self, state: _State):
        """``(price, a2, b2, successor)`` for each alignment of the walls of ``state``.

        ``a2``/``b2`` are the aligned walls on the state's ring, just before
        its layer is removed.
        """
        level, stage, a, b = state
        n = 1 << level
        after_w = stage is Stage.AFTER_W
        # after_W wants both walls in odd gaps, after_V both in even ones; a
        # misaligned wall moves one gap either way at the penalty
        penalty = (self._log_d if after_w else self._log_dv)[level]
        moves = ((-1, penalty), (1, penalty))
        left = ((0, 0.0),) if a % 2 == after_w else moves
        right = ((0, 0.0),) if b % 2 == after_w else moves
        for (da, cost_a), (db, cost_b) in product(left, right):
            a2, b2 = (a + da) % n, (b + db) % n
            if after_w:
                nxt = (level, Stage.AFTER_V, a2, b2)
            else:
                nxt = (level - 1, Stage.AFTER_W, a2 // 2, b2 // 2)
            yield cost_a + cost_b, a2, b2, nxt

    def _solve(self, state: _State) -> _Entry:
        """``(min_cost, log_z, min_mod)`` of ``state``.

        ``log_z`` is the ``log`` of the sum of ``exp(-cost)`` over all
        sequences and ``min_mod`` the minimum of ``cost - log(8) * steps``.
        A state whose walls meet ends every sequence: it costs nothing and
        is not stored.  Ties are left to `argmin_sequence`.
        """
        if state[2] == state[3]:
            # -0.0 so that the empty interval's lse is +0.0
            return (0.0, -0.0, 0.0)
        entry = self._min.get(state)
        if entry is not None:
            return entry
        min_cost = min_mod = math.inf
        terms = []
        for price, _, _, nxt in self._branches(state):
            c, lz, mod = self._solve(nxt)
            min_cost = min(min_cost, price + c)
            min_mod = min(min_mod, price - LOG_BRANCH + mod)
            terms.append(-price + lz)
        # fsum is exactly rounded, so the mirror image's or the complement's
        # branches, met in another order, give the same bits
        top = max(terms)
        log_z = top + math.log(math.fsum(math.exp(v - top) for v in terms))
        entry = (min_cost, log_z, min_mod)
        self._min[state] = entry
        return entry

    def argmin_sequence(self, interval: Interval) -> ReductionSequence:
        """The cheapest sequence, walked from the memoised ``min_cost`` values.

        Each step takes the branch with the smallest price plus successor
        ``min_cost``; among totals that agree to 12 decimals the smallest
        ``(m, n, branch index)`` wins, so walks are deterministic for golden
        tests.
        """
        state = self.state_of(interval)
        cost = self._solve(state)[0]
        steps: list[ReductionStep] = []
        while state[2] != state[3]:
            level, stage, _, _ = state
            n = 1 << level
            # every successor is solved by now: _solve only reads the memo
            _, m, last, _, price, state = min(
                (round(price + self._solve(nxt)[0], 12), a2, (b2 - 1) % n, idx, price, nxt)
                for idx, (price, a2, b2, nxt) in enumerate(self._branches(state))
            )
            kind = "W" if stage is Stage.AFTER_W else "V"
            steps.append(ReductionStep(kind, level, m, last, price))
        return ReductionSequence(start=interval, steps=tuple(steps), cost=cost)

    def bounds(self, interval: Interval) -> CutBounds:
        min_cost, log_z, min_mod = self._solve(self.state_of(interval))
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
    memo = [eng._solve(eng.state_of(iv)) for iv in (left, right, left.join(right))]
    (c_left, _, _), (c_right, _, _), (c_union, _, _) = memo
    f_left, f_right, f_union = (max(0.0, min_mod) for _, _, min_mod in memo)
    return MiPrediction(
        i_upper=c_left + c_right - f_union,
        i_lower=max(0.0, f_left + f_right - c_union),
    )
