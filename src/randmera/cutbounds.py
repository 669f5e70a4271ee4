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

This module computes, by exact dynamic programming over the (level, stage,
position, length) state space:

* ``min_cost``     - the cheapest reduction sequence (per-sample upper bound
  on the von Neumann entropy, hence also on the order-2 entropy),
* ``lse``          - ``-log`` of the sum of ``exp(-cost)`` over all
  sequences (a lower bound on the average order-2 entropy),
* ``lower_bound``  - the minimum of ``cost - log(8) * steps`` (a lower
  bound on ``lse``, hence on the same average; the ``log 8`` per step pays
  for the at-most-four-way branching plus a convergent geometric slack),

together with the argmin sequence itself.  Whole-ring intervals climb with
zero price (a pure state has no entropy), and a length that ever reaches
the ring size is clamped to whole.

All costs are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator
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
    "ScalingRow",
    "cut_dp",
    "engine_for",
    "interval_entropy_scaling",
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

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "level": self.level,
            "m": self.m,
            "n": self.n,
            "cost": self.cost,
        }


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
            "steps": [s.to_json_dict() for s in self.steps],
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


@dataclass(frozen=True)
class ScalingRow:
    """One line of the entropy-versus-length table."""

    length: int
    upper: float
    lower: float
    ref_log_dim: float


class CutEngine:
    """Memoized dynamic program over one network's reduction states.

    The engine keeps the level count and log dimensions, not the network,
    so that `engine_for` can drop it together with its network.
    """

    def __init__(self, network: MeraNetwork):
        self._levels = network.levels
        sched = network.schedule
        self._log_d = tuple(math.log(d) for d in sched.dims)
        self._log_dv = tuple(math.log(d) for d in sched.dims_v)
        self._min: dict[_State, float] = {}
        self._lz: dict[_State, float] = {}
        self._mod: dict[_State, float] = {}

    # -- state space ------------------------------------------------------

    def state_of(self, interval: Interval) -> _State:
        if interval.level > self._levels:
            raise UsageError(
                f"interval level {interval.level} exceeds network depth {self._levels}"
            )
        length = interval.length
        return (interval.level, interval.stage, 0 if length == 0 else interval.i, length)

    def _terminal_cost(self, state: _State) -> float | None:
        level, _stage, _i, length = state
        if length == 0:
            return 0.0
        if level == 0:
            return self._log_d[0] * length
        return None

    @staticmethod
    def _whole_next(state: _State) -> _State | None:
        level, stage, _i, length = state
        if level >= 1 and length == (1 << level):
            if stage is Stage.AFTER_W:
                return (level, Stage.AFTER_V, 0, length)
            return (level - 1, Stage.AFTER_W, 0, length // 2)
        return None

    @staticmethod
    def _end_moves(site: int, want_odd: bool, penalty: float) -> list[tuple[int, float]]:
        if site % 2 == (1 if want_odd else 0):
            return [(0, 0.0)]
        return [(-1, penalty), (1, penalty)]

    def _branches(self, state: _State) -> Iterator[tuple[float, _State | None, ReductionStep]]:
        """Yield (alignment cost, successor or None if emptied, step record)."""
        level, stage, i, length = state
        n = 1 << level
        j = (i + length - 1) % n
        if stage is Stage.AFTER_W:
            penalty = self._log_d[level]
            left_moves = self._end_moves(i, want_odd=True, penalty=penalty)
            right_moves = self._end_moves(j, want_odd=False, penalty=penalty)
        else:
            penalty = self._log_dv[level]
            left_moves = self._end_moves(i, want_odd=False, penalty=penalty)
            right_moves = self._end_moves(j, want_odd=True, penalty=penalty)
        kind = "W" if stage is Stage.AFTER_W else "V"
        for di, cost_l in left_moves:
            for dj, cost_r in right_moves:
                new_len = length - di + dj
                m = (i + di) % n
                nn = (j + dj) % n
                step = ReductionStep(kind=kind, level=level, m=m, n=nn, cost=cost_l + cost_r)
                if new_len <= 0:
                    nxt: _State | None = None
                elif stage is Stage.AFTER_W:
                    nxt = (level, Stage.AFTER_V, 0 if new_len >= n else m, min(new_len, n))
                else:
                    if new_len >= n:
                        nxt = (level - 1, Stage.AFTER_W, 0, n // 2)
                    else:
                        nxt = (level - 1, Stage.AFTER_W, m // 2, new_len // 2)
                yield step.cost, nxt, step

    @staticmethod
    def _whole_step(state: _State) -> ReductionStep:
        level, stage, _i, _length = state
        n = 1 << level
        return ReductionStep(
            kind="W" if stage is Stage.AFTER_W else "V", level=level, m=0, n=n - 1, cost=0.0
        )

    # -- aggregates -------------------------------------------------------

    def min_cost(self, state: _State) -> float:
        """Cheapest reduction sequence from ``state``, in nats."""
        cached = self._min.get(state)
        if cached is not None:
            return cached
        t = self._terminal_cost(state)
        if t is not None:
            val = t
        else:
            w = self._whole_next(state)
            if w is not None:
                val = self.min_cost(w)
            else:
                val = math.inf
                for cost, nxt, _ in self._branches(state):
                    total = cost + (0.0 if nxt is None else self.min_cost(nxt))
                    if total < val:
                        val = total
        self._min[state] = val
        return val

    def log_z(self, state: _State) -> float:
        """``log`` of the sum of ``exp(-cost)`` over all sequences."""
        cached = self._lz.get(state)
        if cached is not None:
            return cached
        t = self._terminal_cost(state)
        if t is not None:
            val = -t
        else:
            w = self._whole_next(state)
            if w is not None:
                val = self.log_z(w)
            else:
                terms = [
                    -cost + (0.0 if nxt is None else self.log_z(nxt))
                    for cost, nxt, _ in self._branches(state)
                ]
                top = max(terms)
                val = top + math.log(sum(math.exp(v - top) for v in terms))
        self._lz[state] = val
        return val

    def min_mod(self, state: _State) -> float:
        """Minimum of ``cost - log(8) * steps`` over all sequences."""
        cached = self._mod.get(state)
        if cached is not None:
            return cached
        t = self._terminal_cost(state)
        if t is not None:
            val = t
        else:
            w = self._whole_next(state)
            if w is not None:
                val = -LOG_BRANCH + self.min_mod(w)
            else:
                val = math.inf
                for cost, nxt, _ in self._branches(state):
                    total = cost - LOG_BRANCH + (0.0 if nxt is None else self.min_mod(nxt))
                    if total < val:
                        val = total
        self._mod[state] = val
        return val

    def argmin_sequence(self, interval: Interval) -> ReductionSequence:
        """Reconstruct the cheapest sequence, ties broken lexicographically.

        Among equal-cost branches the smallest ``(m, n, left move, right
        move)`` wins, so the result is deterministic for golden tests.
        """
        state = self.state_of(interval)
        total = self.min_cost(state)
        steps: list[ReductionStep] = []
        while True:
            if self._terminal_cost(state) is not None:
                break
            w = self._whole_next(state)
            if w is not None:
                steps.append(self._whole_step(state))
                state = w
                continue
            best: tuple | None = None
            for idx, (cost, nxt, step) in enumerate(self._branches(state)):
                remaining = 0.0 if nxt is None else self.min_cost(nxt)
                keyed = (
                    round(cost + remaining, 12),
                    step.m,
                    step.n,
                    idx,  # branch enumeration order encodes the move pair
                )
                if best is None or keyed < best[0]:
                    best = (keyed, nxt, step)
            _, state_next, step = best
            steps.append(step)
            if state_next is None:
                break
            state = state_next
        return ReductionSequence(start=interval, steps=tuple(steps), cost=total)

    def bounds(self, interval: Interval) -> CutBounds:
        state = self.state_of(interval)
        return CutBounds(
            interval=interval,
            min_cost=self.min_cost(state),
            lse=-self.log_z(state),
            lower_bound=self.min_mod(state),
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


def _union_interval(left: Interval, right: Interval) -> Interval:
    total = left.length + right.length
    return Interval.of_length(left.level, left.stage, left.i, total)


def mi_prediction(network: MeraNetwork, left: Interval, right: Interval) -> MiPrediction:
    """Bracket for the average mutual information of adjacent regions.

    ``right`` must start on the site after ``left`` ends and have the same
    length (an empty ``right`` is allowed and gives the trivial bracket).
    """
    if (left.level, left.stage) != (right.level, right.stage):
        raise UsageError("regions must live on one ring and stage")
    if right.is_empty or left.is_empty:
        union = right if left.is_empty else left
    else:
        if right.length != left.length:
            raise UsageError("regions must have equal length")
        if right.i != (left.j + 1) % left.n_sites:
            raise UsageError("right region must start immediately after the left one")
        if left.length + right.length > left.n_sites:
            raise UsageError("regions wrap into each other")
        union = _union_interval(left, right)
    s_left = sandwich(network, left)
    s_right = sandwich(network, right)
    s_union = sandwich(network, union)
    i_upper = s_left.upper + s_right.upper - s_union.lower
    i_lower = max(0.0, s_left.lower + s_right.lower - s_union.upper)
    return MiPrediction(
        i_upper=i_upper, i_lower=i_lower, left=s_left, right=s_right, union=s_union
    )


def interval_entropy_scaling(network: MeraNetwork, lengths: list[int]) -> list[ScalingRow]:
    """Entropy brackets for leaf intervals of the given lengths.

    Intervals start at site 1 (aligned with the rotation pairing) so the
    table is deterministic.  The reference column is the log dimension of
    the ring whose scale matches the length, i.e. ``length`` halvings up
    from the leaves.  Lengths must stay below half the ring: at exactly
    half, complementary-interval symmetry changes the regime.
    """
    n = network.n_leaves
    sched = network.schedule
    rows = []
    for length in lengths:
        if not 1 <= length < n // 2:
            raise UsageError(f"length {length} not in [1, {n // 2 - 1}]")
        iv = Interval.of_length(network.levels, Stage.AFTER_W, 1, length)
        s = sandwich(network, iv)
        m = min(network.levels, int(math.floor(math.log2(length))))
        rows.append(
            ScalingRow(
                length=length,
                upper=s.upper,
                lower=s.lower,
                ref_log_dim=math.log(sched.dims[network.levels - m]),
            )
        )
    return rows
