"""The benchmark's four workloads: seeded inputs, the op, and its output check.

Each workload turns its seed into inputs with its own ``random.Random``
and hands the package only those inputs.  The workers of one run each take
a seed of their own, ``"<workload seed>.<worker>"``, so that a run covers
several draws of inputs.  ``ops`` yields one `Op` at a time; code that runs
between two yields (such as building a fresh network for a new session) is
work between ops, which counts in ``ops_per_s`` but not in an op's latency.
``rss_ops`` is the op count at which a worker reads its peak RSS: a fixed
amount of work, so that the figure does not grow with the speed of the ops.

The checks hold for every seed, because they compare each result with a
bound that the package must respect for any sample:

* dense workloads: ``0 <= S2 <= S <= cut_dp(interval).min_cost``, all finite
  (Renyi-2 never exceeds von Neumann, and the cheapest reduction sequence
  bounds the entropy of every sampled state);
* ``cuts-l12``: ``lower_bound <= lse <= min_cost`` and the argmin sequence
  costs exactly ``min_cost``;
* ``channel-spectra``: ``d_B**2`` finite, non-negative, descending values per
  op, and over the run, pooled across its workers, the mean of the squared
  singular values of each shape lies within 5 standard errors of
  ``frobenius_exact``.  The top value is
  deliberately not checked against 1: sampled values reach about 1.03.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from randmera import cutbounds, network, schedule, simulator, spectra
from randmera.network import Interval, Stage

# slack for float rounding in the bound checks, in nats
TOL = 1e-9
# how many standard errors the run mean of sum(lambda**2) may sit from the
# closed form; measured |z| < 1 at the seed commit
FROBENIUS_Z = 5.0
SEED_RANGE = 1 << 32


@dataclass
class Op:
    """One unit of work: ``call`` is timed, ``check`` validates its result."""

    call: Callable[[], object]
    check: Callable[[object], bool]
    tag: str = ""


def entropies_ok(s: float, s2: float, upper: float) -> bool:
    """``0 <= S2 <= S <= upper`` up to float rounding, every value finite."""
    if not (math.isfinite(s) and math.isfinite(s2)):
        return False
    return -TOL <= s2 <= s + TOL and s <= upper + TOL


def cut_bounds_ok(b) -> bool:
    """``lower_bound <= lse <= min_cost`` and the argmin costs ``min_cost``."""
    vals = (b.lower_bound, b.lse, b.min_cost, b.argmin.cost)
    if not all(math.isfinite(v) for v in vals):
        return False
    return (
        b.lower_bound <= b.lse + TOL
        and b.lse <= b.min_cost + TOL
        and abs(b.argmin.cost - b.min_cost) <= TOL
    )


def spectrum_ok(values: np.ndarray, d_b: int) -> bool:
    """``d_B**2`` finite, non-negative values in descending order."""
    return (
        values.shape == (d_b * d_b,)
        and bool(np.all(np.isfinite(values)))
        and bool(np.all(values >= 0.0))
        and bool(np.all(np.diff(values) <= 0.0))
    )


def _leaf_interval(net: network.MeraNetwork, start: int, length: int) -> Interval:
    return Interval.of_length(net.levels, Stage.AFTER_W, start, length)


# ---------------------------------------------------------------------------
# dense workloads: one Monte Carlo trial per op
# ---------------------------------------------------------------------------


@dataclass
class DenseCtx:
    rng: random.Random
    net: network.MeraNetwork
    intervals: list[Interval]
    upper: dict[Interval, float]


def _dense_op(ctx: DenseCtx) -> Op:
    seed = ctx.rng.randrange(SEED_RANGE)
    if len(ctx.intervals) == 1:
        (iv,) = ctx.intervals

        def call():
            return {iv: simulator.mc_entropy_stats(ctx.net, iv, 1, seed)}

    else:

        def call():
            return simulator.mc_entropy_sweep(ctx.net, ctx.intervals, 1, seed)

    def check(out) -> bool:
        return all(
            entropies_ok(float(out[iv].samples_s[0]), float(out[iv].samples_s2[0]), ctx.upper[iv])
            for iv in ctx.intervals
        )

    return Op(call=call, check=check)


class _Workload:
    """Defaults for a workload whose checks are all per op."""

    def samples(self, ctx) -> dict[str, list[float]]:
        """Figures of one worker's loop that `run_ok` pools over the run."""
        return {}

    def run_ok(self, samples: list[dict[str, list[float]]]) -> bool:
        """The check over the `samples` of all the run's workers."""
        return True


class _DenseWorkload(_Workload):
    def ops(self, ctx: DenseCtx) -> Iterator[Op]:
        while True:
            yield _dense_op(ctx)


@dataclass(frozen=True)
class EntropyWorkload(_DenseWorkload):
    """``randmera entropy``: one trial on one leaf interval per op."""

    leaf_dim: int
    levels: int
    length: int
    rss_ops: int = 10

    def setup(self, seed: int | str) -> DenseCtx:
        rng = random.Random(seed)
        eps = schedule.find_epsilon(self.leaf_dim, self.levels)
        net = network.MeraNetwork.build(self.leaf_dim, eps)
        iv = _leaf_interval(net, rng.randrange(net.n_leaves), self.length)
        return DenseCtx(rng, net, [iv], {iv: cutbounds.cut_dp(net, iv).min_cost})


@dataclass(frozen=True)
class SweepWorkload(_DenseWorkload):
    """``mc_entropy_sweep``: one trial read off on several intervals per op.

    The leaf intervals have the given lengths at seeded starts; one more
    interval of length 1 or 2 sits on the ``after_V`` ring one level up.
    """

    leaf_dim: int
    epsilon: float
    lengths: tuple[int, ...]
    rss_ops: int = 2

    def setup(self, seed: int | str) -> DenseCtx:
        rng = random.Random(seed)
        net = network.MeraNetwork.build(self.leaf_dim, self.epsilon)
        ivs = [_leaf_interval(net, rng.randrange(net.n_leaves), ln) for ln in self.lengths]
        inner = net.levels - 1
        ivs.append(
            Interval.of_length(
                inner, Stage.AFTER_V, rng.randrange(1 << inner), rng.choice((1, 2))
            )
        )
        upper = {iv: cutbounds.cut_dp(net, iv).min_cost for iv in ivs}
        return DenseCtx(rng, net, ivs, upper)


# ---------------------------------------------------------------------------
# cuts: sessions of reduction-DP queries, each session on a fresh network
# ---------------------------------------------------------------------------


@dataclass
class CutsCtx:
    rng: random.Random
    levels: int
    # (level, stage, start, length) of every query, grouped by session
    sessions: list[list[tuple[int, Stage, int, int]]] = field(default_factory=list)


@dataclass(frozen=True)
class CutsWorkload(_Workload):
    """``randmera cuts``: a fresh network per session, then a few queries.

    The first query of a session finds the memo cold; the later ones reuse
    it, as the ``mutual-info`` brackets do.  Queries land on rings
    ``min_level .. L``, either stage, with lengths up to half the ring.
    """

    leaf_dim: int
    epsilon: float
    min_level: int
    per_session: int
    # 100 sessions: ``cutbounds.engine_for`` keeps every network's engine
    # alive, so RSS grows with the sessions run
    rss_ops: int = 400

    def setup(self, seed: int | str) -> CutsCtx:
        levels = schedule.solve_schedule(self.leaf_dim, self.epsilon).levels
        return CutsCtx(random.Random(seed), levels)

    def ops(self, ctx: CutsCtx) -> Iterator[Op]:
        while True:
            net = network.MeraNetwork.build(self.leaf_dim, self.epsilon)
            session: list[tuple[int, Stage, int, int]] = []
            ctx.sessions.append(session)
            for q in range(self.per_session):
                level = ctx.rng.randint(self.min_level, ctx.levels)
                stage = ctx.rng.choice((Stage.AFTER_V, Stage.AFTER_W))
                n = 1 << level
                length = ctx.rng.randint(1, n // 2)
                iv = Interval.of_length(level, stage, ctx.rng.randrange(n), length)
                session.append((level, stage, iv.i, length))
                yield Op(
                    call=lambda net=net, iv=iv: cutbounds.cut_dp(net, iv),
                    check=cut_bounds_ok,
                    tag="first" if q == 0 else "later",
                )


def reachable_states(queries: list[tuple[int, Stage, int, int]]) -> int:
    """Distinct reduction-DP states reachable from the queried intervals.

    This is the work a memoised DP over one network must do to answer the
    queries, restated from the peeling rules in ``randmera.cutbounds`` so the
    count does not depend on how the package stores its memo.
    """
    seen: set[tuple[int, bool, int, int]] = set()
    todo = [(level, stage is Stage.AFTER_W, i, length) for level, stage, i, length in queries]
    while todo:
        state = todo.pop()
        if state in seen:
            continue
        seen.add(state)
        level, after_w, i, length = state
        if length == 0 or level == 0:
            continue
        n = 1 << level
        if length == n:
            todo.append((level, False, 0, n) if after_w else (level - 1, True, 0, n // 2))
            continue
        j = (i + length - 1) % n
        # after_W wants (odd, even) endpoints, after_V wants (even, odd)
        left = (0,) if i % 2 == int(after_w) else (-1, 1)
        right = (0,) if j % 2 == int(not after_w) else (-1, 1)
        for di in left:
            for dj in right:
                new_len = length - di + dj
                m = (i + di) % n
                if new_len <= 0:
                    continue
                if after_w:
                    todo.append((level, False, 0 if new_len >= n else m, min(new_len, n)))
                elif new_len >= n:
                    todo.append((level - 1, True, 0, n // 2))
                else:
                    todo.append((level - 1, True, m // 2, new_len // 2))
    return len(seen)


# ---------------------------------------------------------------------------
# channel spectra: one super-operator spectrum per op
# ---------------------------------------------------------------------------


@dataclass
class ChannelCtx:
    rng: random.Random
    masses: dict[tuple[int, int, int], list[float]]


def _shape_key(shape: tuple[int, int, int]) -> str:
    return ":".join(map(str, shape))


@dataclass(frozen=True)
class ChannelWorkload(_Workload):
    """``randmera spectra``/``collapse``: shapes taken in turn, seeded draws."""

    shapes: tuple[tuple[int, int, int], ...]
    rss_ops: int = 3

    def setup(self, seed: int | str) -> ChannelCtx:
        return ChannelCtx(random.Random(seed), {shape: [] for shape in self.shapes})

    def ops(self, ctx: ChannelCtx) -> Iterator[Op]:
        while True:
            for shape in self.shapes:
                d_a, d_b, d_e = shape
                spec = spectra.SuperOperatorSpec(
                    d_A=d_a, d_B=d_b, d_E=d_e, seed=ctx.rng.randrange(SEED_RANGE)
                )

                def check(out, shape=shape, d_b=d_b) -> bool:
                    if not spectrum_ok(out.values, d_b):
                        return False
                    ctx.masses[shape].append(float(np.sum(out.values**2)))
                    return True

                yield Op(call=lambda spec=spec: spectra.singular_spectrum(spec), check=check)

    def samples(self, ctx: ChannelCtx) -> dict[str, list[float]]:
        """Each shape's sampled Frobenius masses, keyed ``"d_A:d_B:d_E"``."""
        return {_shape_key(shape): masses for shape, masses in ctx.masses.items()}

    def run_ok(self, samples: list[dict[str, list[float]]]) -> bool:
        """Each shape's mean Frobenius mass agrees with the closed form.

        The masses are pooled over the run's workers: a worker alone draws
        about five per shape, too few for its standard error to be trusted.
        """
        for shape in self.shapes:
            x = np.asarray([m for s in samples for m in s.get(_shape_key(shape), [])])
            if len(x) < 2:
                continue
            stderr = float(x.std(ddof=1) / math.sqrt(len(x)))
            if abs(float(x.mean()) - spectra.frobenius_exact(*shape)) > FROBENIUS_Z * stderr:
                return False
        return True


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

WORKLOADS = {
    "entropy-l4": EntropyWorkload(leaf_dim=2, levels=4, length=2),
    "sweep-d6": SweepWorkload(leaf_dim=6, epsilon=0.5777, lengths=(1, 2, 3, 4)),
    "cuts-l12": CutsWorkload(leaf_dim=2, epsilon=0.05, min_level=6, per_session=4),
    "channel-spectra": ChannelWorkload(shapes=((30, 30, 30), (40, 20, 10), (20, 20, 20))),
}

# the same workloads at a size that runs in well under a second per op,
# for the benchmark's own tests
TINY = {
    "entropy-l4": EntropyWorkload(leaf_dim=2, levels=2, length=2),
    "sweep-d6": SweepWorkload(leaf_dim=2, epsilon=0.2, lengths=(1, 2, 3, 4)),
    "cuts-l12": CutsWorkload(leaf_dim=2, epsilon=0.2, min_level=2, per_session=4),
    "channel-spectra": ChannelWorkload(shapes=((6, 6, 6), (8, 4, 2), (4, 4, 4))),
}
