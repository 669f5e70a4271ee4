"""Cut-counting bounds on interval entropies via reduction sequences.

An interval on some ring of the network can be peeled back through the
layers: before removing a rotation layer the interval's endpoints must align
with the rotation pairing (left endpoint odd, right endpoint even), and
before removing a splitting layer they must align with sibling pairs (left
even, right odd).  Each endpoint that has the wrong parity moves by one site
in either direction at a price of the log site dimension; a splitting step
then halves indices and lengths.  A full choice of endpoint moves down to
the empty interval is a *reduction sequence*; its accumulated price is an
upper bound on the entanglement entropy of every sampled state, and
aggregates over all sequences bound the averages from below.

This module computes, by one memoised recursion over the (level, stage,
position, length) states an interval can reach, all of:

* ``min_cost``     - the cheapest reduction sequence (per-sample upper bound
  on the von Neumann entropy, hence also on the order-2 entropy),
* ``lse``          - ``-log`` of the sum of ``exp(-cost)`` over all
  sequences (a lower bound on the average order-2 entropy),
* ``lower_bound``  - the minimum of ``cost - log(8) * steps`` (a lower
  bound on ``lse``, hence on the same average; the ``log 8`` per step pays
  for the at-most-four-way branching plus a convergent geometric slack),

together with the argmin sequence itself.  Each state is solved once, for
all three aggregates and its argmin choice, and the states of a network are
shared across queries; no table of unreachable states is ever built.
Whole-ring intervals climb with zero price (a pure state has no entropy),
and a length that ever reaches the ring size is clamped to whole.

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
    "SandwichBounds",
    "cut_dp",
    "engine_for",
    "mi_prediction",
    "sandwich",
]

LOG_BRANCH = math.log(8.0)

# DP states are (level, stage, left_site, length); length == ring size means
# the whole ring and length == 0 the empty interval (left_site normalized 0).
_State = tuple[int, Stage, int, int]


@dataclass(frozen=True)
class ReductionStep:
    """One peeling step: endpoint alignment plus removal of one layer.

    ``kind`` is "W" when a rotation layer is removed and "V" for a splitting
    layer; ``m``/``n`` are the aligned endpoints just before removal (for a
    whole ring they are the full ring and no alignment is needed); ``cost``
    is the alignment price paid in this step, in nats.
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
class SandwichBounds:
    """Two-sided prediction for the average interval entropy, in nats."""

    upper: float
    lower: float


@dataclass(frozen=True)
class MiPrediction:
    """Bracket for the average mutual information of two adjacent regions."""

    i_upper: float
    i_lower: float
    left: SandwichBounds
    right: SandwichBounds
    union: SandwichBounds


_Entry = tuple[float, float, float, "ReductionStep | None", "_State | None"]


class CutEngine:
    """One memoised recursion over the reduction states a network's queries reach.

    `_solve` computes all three aggregates of a state and its argmin choice
    in one pass over the state's branches, and stores them in the single
    memo ``_min`` (one entry per state reached).  `argmin_sequence` replays
    the stored choices; `bounds` reads one entry.  The engine keeps the
    level count and log dimensions, not the network, so that `engine_for`
    can drop it together with its network.
    """

    def __init__(self, network: MeraNetwork):
        self._levels = network.levels
        sched = network.schedule
        self._log_d = tuple(math.log(d) for d in sched.dims)
        self._log_dv = tuple(math.log(d) for d in sched.dims_v)
        self._min: dict[_State, _Entry] = {}

    def state_of(self, interval: Interval) -> _State:
        if interval.level > self._levels:
            raise UsageError(
                f"interval level {interval.level} exceeds network depth {self._levels}"
            )
        return (interval.level, interval.stage, interval.i, interval.length)

    def _solve(self, state: _State) -> _Entry:
        """``(min_cost, log_z, min_mod, argmin step, argmin successor)`` of ``state``.

        ``log_z`` is the ``log`` of the sum of ``exp(-cost)`` over all
        sequences and ``min_mod`` the minimum of ``cost - log(8) * steps``.
        A terminal state has no step; a step that empties the interval has
        no successor.  Among branches whose totals agree to 12 decimals the
        smallest ``(m, n, branch index)`` is the argmin, so replays are
        deterministic for golden tests.
        """
        entry = self._min.get(state)
        if entry is not None:
            return entry
        level, stage, i, length = state
        n = 1 << level
        after_w = stage is Stage.AFTER_W
        kind = "W" if after_w else "V"
        if length == 0:
            # -0.0 so that the empty interval's lse is +0.0
            entry = (0.0, -0.0, 0.0, None, None)
        elif level == 0:
            t = self._log_d[0] * length
            entry = (t, -t, t, None, None)
        elif length == n:
            # a whole ring is a pure state and climbs one layer for free
            nxt = (level, Stage.AFTER_V, 0, n) if after_w else (level - 1, Stage.AFTER_W, 0, n // 2)
            c, lz, mod, _, _ = self._solve(nxt)
            entry = (c, lz, -LOG_BRANCH + mod, ReductionStep(kind, level, 0, n - 1, 0.0), nxt)
        else:
            # after_W wants (odd, even) endpoints, after_V wants (even, odd);
            # a misaligned endpoint moves one site either way at the penalty
            penalty = (self._log_d if after_w else self._log_dv)[level]
            j = (i + length - 1) % n
            moves = ((-1, penalty), (1, penalty))
            left = ((0, 0.0),) if i % 2 == after_w else moves
            right = ((0, 0.0),) if j % 2 != after_w else moves
            min_cost = min_mod = math.inf
            terms = []
            best = None
            for idx, ((di, cost_l), (dj, cost_r)) in enumerate(product(left, right)):
                cost = cost_l + cost_r
                new_len = length - di + dj
                m = (i + di) % n
                if new_len <= 0:
                    nxt = None
                    c = lz = mod = 0.0
                else:
                    if after_w:
                        nxt = (level, Stage.AFTER_V, 0 if new_len >= n else m, min(new_len, n))
                    elif new_len >= n:
                        nxt = (level - 1, Stage.AFTER_W, 0, n // 2)
                    else:
                        nxt = (level - 1, Stage.AFTER_W, m // 2, new_len // 2)
                    c, lz, mod, _, _ = self._solve(nxt)
                total = cost + c
                min_cost = min(min_cost, total)
                min_mod = min(min_mod, cost - LOG_BRANCH + mod)
                terms.append(-cost + lz)
                key = (round(total, 12), m, (j + dj) % n, idx)
                if best is None or key < best[0]:
                    best = (key, cost, nxt)
            (_, m, nn, _), cost, nxt = best
            # fsum is exactly rounded, so the mirror image's branches, met in
            # another order, give the same bits
            top = max(terms)
            log_z = top + math.log(math.fsum(math.exp(v - top) for v in terms))
            entry = (min_cost, log_z, min_mod, ReductionStep(kind, level, m, nn, cost), nxt)
        self._min[state] = entry
        return entry

    def argmin_sequence(self, interval: Interval) -> ReductionSequence:
        """The cheapest sequence, replayed from the choices `_solve` stored."""
        cost, _, _, step, nxt = self._solve(self.state_of(interval))
        steps: list[ReductionStep] = []
        while step is not None:
            steps.append(step)
            if nxt is None:
                break
            _, _, _, step, nxt = self._min[nxt]
        return ReductionSequence(start=interval, steps=tuple(steps), cost=cost)

    def bounds(self, interval: Interval) -> CutBounds:
        min_cost, log_z, min_mod, _, _ = self._solve(self.state_of(interval))
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


def sandwich(network: MeraNetwork, interval: Interval) -> SandwichBounds:
    """Two-sided bracket on the average entropy of ``interval``.

    The upper edge is the cheapest sequence; the lower edge is the
    step-discounted minimum floored at zero (entropy is nonnegative).
    """
    b = cut_dp(network, interval)
    return SandwichBounds(upper=b.min_cost, lower=max(0.0, b.lower_bound))


def mi_prediction(network: MeraNetwork, left: Interval, right: Interval) -> MiPrediction:
    """Bracket for the average mutual information of adjacent regions.

    The union of ``left`` and ``right`` is `Interval.join`'s, under its
    adjacency rule; an empty side gives the trivial bracket.
    """
    union = left.join(right)
    s_left = sandwich(network, left)
    s_right = sandwich(network, right)
    s_union = sandwich(network, union)
    i_upper = s_left.upper + s_right.upper - s_union.lower
    i_lower = max(0.0, s_left.lower + s_right.lower - s_union.upper)
    return MiPrediction(
        i_upper=i_upper, i_lower=i_lower, left=s_left, right=s_right, union=s_union
    )

