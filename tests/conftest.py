"""Shared fixtures, an independently written reduction enumerator, a reference fold and a budget probe.

The enumerator below re-derives the layer-peeling rules as a plain recursion
that lists every legal sequence outright.  It shares no code with the
memoized dynamic program in ``randmera.cutbounds``, so agreement between the
two is a real cross-check rather than a tautology.  The reference fold is
the dynamic program's generic form, one loop over the branches of `_moves`.
`_moves` reads which walls move from the wall rule of ``randmera.network``
(`Interval.misaligned`), the rule the dense read follows too.  Only the
package's fold is unrolled, into its three cases; its argmin walk is one
loop over the walls' moves that rounds only at near-ties.  Both must give
the reference's bits.
"""

from __future__ import annotations

import math
import warnings

import pytest

from randmera import FeasibilityError, Interval, MeraNetwork, Stage, find_epsilon, simulator
from randmera.cutbounds import _END, LOG_BRANCH, CutEngine, ReductionSequence, ReductionStep
from randmera.errors import MAX_AMPLITUDES_ENV

# hypothesis imports this module to report a failing example; its libcst
# import warns, and under ``-W error`` that would end the whole run with an
# INTERNALERROR instead of reporting the failure.  Importing it once here,
# with warnings off for this import alone, leaves ``-W error`` on for the rest.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin reports no patch
        pass

LOG8 = math.log(8.0)


def enumerate_reduction_costs(
    network: MeraNetwork, interval: Interval, states: set | None = None
) -> list[tuple[float, int]]:
    """(cost, step count) of every legal peeling sequence for ``interval``.

    Rules, restated from first principles: a rotation layer can be undone
    over an interval only when the interval starts on the first member of a
    rotated pair (odd site) and ends on the second (even site); a splitting
    layer only when it starts on a left child (even) and ends on a right
    child (odd), after which indices and lengths halve.  A misaligned
    endpoint must step one site either way, paying the log dimension of a
    site on the current ring.  An interval that empties or covers its whole
    ring (a pure state) ends the sequence at no further cost.

    Given a set ``states``, the walk also adds to it every state it passes
    through that does not end the sequence, keyed by walls as
    ``(level, stage, start, (start + length) % 2**level)``.
    """
    log_d = network.schedule.log_dims
    log_dv = network.schedule.log_dims_v
    results: list[tuple[float, int]] = []

    def walk(level: int, stage: Stage, start: int, length: int, cost: float, steps: int):
        n = 1 << level
        if length == 0 or length == n:
            results.append((cost, steps))
            return
        if states is not None:
            states.add((level, stage, start, (start + length) % n))
        if stage is Stage.AFTER_W:
            price = log_d[level]
            left_ok = start % 2 == 1
            right_ok = (start + length - 1) % 2 == 0
        else:
            price = log_dv[level]
            left_ok = start % 2 == 0
            right_ok = (start + length - 1) % 2 == 1
        left_moves = [(0, 0.0)] if left_ok else [(-1, price), (1, price)]
        right_moves = [(0, 0.0)] if right_ok else [(-1, price), (1, price)]
        for dl, pl in left_moves:
            for dr, pr in right_moves:
                new_len = length - dl + dr
                new_start = (start + dl) % n
                c = cost + pl + pr
                if new_len <= 0 or new_len >= n:
                    results.append((c, steps + 1))
                elif stage is Stage.AFTER_W:
                    walk(level, Stage.AFTER_V, new_start, new_len, c, steps + 1)
                else:
                    walk(level - 1, Stage.AFTER_W, new_start // 2, new_len // 2, c, steps + 1)

    start = 0 if interval.length == 0 else interval.i
    walk(interval.level, interval.stage, start, interval.length, 0.0, 0)
    return results


def brute_cut_stats(network: MeraNetwork, interval: Interval) -> tuple[float, float, float]:
    """(min cost, -log sum exp(-cost), min of cost - log8*steps) by brute force."""
    seqs = enumerate_reduction_costs(network, interval)
    min_cost = min(c for c, _ in seqs)
    top = max(-c for c, _ in seqs)
    lse = -(top + math.log(sum(math.exp(-c - top) for c, _ in seqs)))
    lower = min(c - LOG8 * h for c, h in seqs)
    return min_cost, lse, lower


def _moves(engine: CutEngine, state):
    """``(da, price)`` moves of the first wall and of the second of a ``state`` whose walls have not met.

    A wall that the network's rule calls misaligned (`Interval.misaligned`)
    moves one gap either way at the layer's price; an aligned one stays.  A
    branch is one move of each wall, first wall outer, at the sum of their
    prices.
    """
    level, w, a, b = state
    region = Interval.of_length(level, Stage.AFTER_W if w else Stage.AFTER_V, a, (b - a) % (1 << level))
    price = (engine._log_d if w else engine._log_dv)[level]
    step, misaligned = ((-1, price), (1, price)), region.misaligned
    return tuple(step if g in misaligned else ((0, 0.0),) for g in (a, b))


class ReferenceEngine(CutEngine):
    """`CutEngine` with the generic fold: every branch of `_moves` in one loop.

    Each branch adds its own price to its successor's numbers and keeps a
    minimum by ``if total < best``; ``log_z`` sums the list of branch terms
    with `math.fsum`.  The argmin walk reads each successor through `_read`,
    rounds every branch's total to 12 decimals and takes the `min` of the
    ``(total, m, n, branch index)`` tuples.  The engine's fold, the only
    unrolled one, with its three cases and the shared price added after the
    minima, must give the same bits; its walk, one loop over the walls'
    moves that calls `round` only at near-ties, must take the same steps.
    """

    def _solve(self, state):
        level, w, a, b = state
        memo = self._min
        mask = (1 << level) - 1
        below, w2 = level - 1 + w, 1 - w
        min_cost = min_mod = math.inf
        terms = []
        left, right = _moves(self, state)
        for da, cost_a in left:
            a2 = ((a + da) & mask) >> w2
            for db, cost_b in right:
                b2 = ((b + db) & mask) >> w2
                if a2 == b2:
                    c, lz, mod = _END
                else:
                    nxt = (below, w2, a2, b2)
                    entry = memo.get(nxt)
                    c, lz, mod = entry if entry is not None else self._solve(nxt)
                price = cost_a + cost_b
                total = price + c
                if total < min_cost:
                    min_cost = total
                total = price - LOG_BRANCH + mod
                if total < min_mod:
                    min_mod = total
                terms.append(-price + lz)
        if len(terms) == 1:
            log_z = terms[0] + 0.0
        else:
            top = max(terms)
            log_z = top + math.log(math.fsum([math.exp(v - top) for v in terms]))
        entry = (min_cost, log_z, min_mod)
        memo[state] = entry
        return entry

    def argmin_sequence(self, interval):
        state = self.state_of(interval)
        cost = self._read(state)[0]
        steps = []
        level, w, a, b = state
        while a != b:
            mask = (1 << level) - 1
            below, w2 = level - 1 + w, 1 - w
            left, right = _moves(self, (level, w, a, b))
            branches = []
            for da, cost_a in left:
                a2 = (a + da) & mask
                for db, cost_b in right:
                    b2 = (b + db) & mask
                    price = cost_a + cost_b
                    nxt = (below, w2, a2 >> w2, b2 >> w2)
                    total = round(price + self._read(nxt)[0], 12)
                    branches.append((total, a2, (b2 - 1) & mask, len(branches), price, nxt))
            _, m, last, _, price, nxt = min(branches)
            steps.append(ReductionStep("W" if w else "V", level, m, last, price))
            level, w, a, b = nxt
        return ReductionSequence(start=interval, steps=tuple(steps), cost=cost)


class _Drawn(Exception):
    """The first isometry draw of a build that got past its admission."""


def build_admitted(network: MeraNetwork, budget: int, stop=None) -> bool:
    """Whether `build_state` admits ``network`` up to ``stop`` under ``budget``.

    The sampler raises at the first draw, so an admitted build forms no state.
    """

    def drawn(*args, **kwargs):
        raise _Drawn

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "sample_isometry", drawn)
        mp.setenv(MAX_AMPLITUDES_ENV, str(budget))
        try:
            simulator.build_state(network, 0, stop=stop)
        except _Drawn:
            pass
        except FeasibilityError:
            return False
    return True


@pytest.fixture(scope="session")
def net_tiny() -> MeraNetwork:
    """One level, leaf dimension 2, split bond 1: a product state on 2 sites."""
    return MeraNetwork.build(2, math.log(2.0))


@pytest.fixture(scope="session")
def net_single() -> MeraNetwork:
    """One level, leaf dimension 9, split bond 2: entangled ring of 2 sites."""
    return MeraNetwork.build(9, 1.62)


@pytest.fixture(scope="session")
def net_l3() -> MeraNetwork:
    """Three levels on a ring of 8, leaf dimension 2."""
    return MeraNetwork.build(2, find_epsilon(2, 3))


@pytest.fixture(scope="session")
def net_l4() -> MeraNetwork:
    """Four levels on a ring of 16, leaf dimension 2."""
    return MeraNetwork.build(2, find_epsilon(2, 4))


@pytest.fixture(scope="session")
def net_big() -> MeraNetwork:
    """Twelve levels on a ring of 4096; usable for bounds, too big to sample."""
    return MeraNetwork.build(2, 0.05)
