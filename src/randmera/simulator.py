"""Exact dense simulation of sampled networks.

States are kept as full complex amplitude tensors with one axis per ring
site, so every entropy below is exact up to floating point.  The builder
applies per-site splitting isometries and per-pair rotation isometries level
by level, snapshotting the state after each stage; the wrap-around pair is
handled by axis permutation.  A call admits every state, isometry and
per-trial accumulator it forms (`errors.admit`) before its first draw.

Entropies are in nats.  The spectrum of a reduced state is taken from the
Gram matrix ``A A^dagger`` of the smaller side of the cut, where ``A`` is the
amplitude tensor split into that side against the rest: the Gram matrix has
the nonzero eigenvalues of both reduced states.  It is filled tile by tile
from column panels copied out of a strided view of a snapshot, so no
full-size copy of a state is made (`_gram` states the buffer rule).  Its
Hermitian eigenvalues are clipped at zero, and eigenvalues at or below
1e-12 are dropped before logs.  Snapshots are read-only.

`mc_entropy_sweep` is the one Monte Carlo trial loop: trial ``t`` builds the
network from the `haar.seed_key` key ``(*seed, t)`` (a seed is a key
``(master, *path)``), reads the entropies of every requested region off that
draw and frees it before the next one.  It reads an ``after_W`` region
without the ``after_W`` state.  An isometry lying wholly on one side of a
cut leaves that side's nonzero spectrum unchanged, so a region at level
``k`` has the spectrum of the ``(k, after_V)`` snapshot with only the (at
most two) rotation pairs that cross its boundary applied: the region's
state pulled back through the rotation layer.  No such state is formed:
the sweep passes `interval_spectrum` the snapshot and the crossing pairs'
rotations (`_pulled_back`), each isometry drawn once per region, and the
Gram applies them to every column panel it reads from the snapshot; the
panels slice only the sites in no crossing pair, so both sites of a pair
are whole in each.  The build stops at the deepest ``after_V`` stage a
region needs, so the leaf ``after_W`` state, the largest of the trajectory,
is never formed (nor admitted).  On 8 leaves of dimension 6, the balanced
cut then reads a 256 x 256 Gram (odd start) or a 576 x 576 one (even start)
off the 4**8-amplitude ``after_V`` snapshot, instead of a 1296 x 1296 one
off the 6**8-amplitude leaf.
`mc_entropy_stats` (one region) and `mc_mutual_information` (left, right
and union regions of adjacent pairs) are read off the sweep, and every mean
and standard error comes from `haar.McEstimate.of`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, admit
from .haar import McEstimate, sample_isometry, seed_key
from .network import Interval, MeraNetwork, Stage

__all__ = [
    "DenseState",
    "EntropySamples",
    "MiSamples",
    "StateTrajectory",
    "build_rows",
    "build_state",
    "entropy_renyi2",
    "entropy_vn",
    "interval_spectrum",
    "mc_entropy_stats",
    "mc_entropy_sweep",
    "mc_mutual_information",
]

_EIG_CLAMP = 1e-12
# largest buffer, in amplitudes, that a reduced spectrum reads the state through
_TILE_AMPLITUDES = 1 << 18


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DenseState:
    """A pure state over one ring, one tensor axis per site."""

    level: int
    stage: Stage
    site_dims: tuple[int, ...]
    amplitudes: np.ndarray  # flat, length prod(site_dims)

    @property
    def n_sites(self) -> int:
        return len(self.site_dims)

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.site_dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class StateTrajectory:
    """All stage snapshots of one sampled network build, and the key it drew from."""

    network: MeraNetwork
    snapshots: dict[tuple[int, Stage], DenseState]
    key: tuple[int, ...]

    @property
    def leaf(self) -> DenseState:
        return self.snapshots[(self.network.levels, Stage.AFTER_W)]

    def state_at(self, level: int, stage: Stage) -> DenseState:
        key = (level, Stage(stage))
        if key not in self.snapshots:
            raise UsageError(f"no snapshot at level={level}, stage={key[1].value}")
        return self.snapshots[key]


def _frozen(psi: np.ndarray) -> np.ndarray:
    """Flat read-only snapshot of ``psi``, copied only if ``psi`` is not contiguous.

    The working tensor is never written in place, so a snapshot may share
    its memory.
    """
    flat = np.ascontiguousarray(psi).reshape(-1)
    flat.flags.writeable = False
    return flat


def _rotations(network: MeraNetwork, k: int, slots, base) -> tuple:
    """The level-``k`` rotation isometries of ``slots``, each with the site pair it rotates.

    Slot ``j`` rotates the site pair ``w_pairs(k)[j]`` with the isometry
    drawn from key ``(*base, k, 1, j)``; its two sites go from dimension
    ``dims_v[k]`` to ``dims[k]``.
    """
    dv, dk = network.schedule.dims_v[k], network.schedule.dims[k]
    pairs = network.w_pairs(k)
    return tuple((pairs[j], sample_isometry(dv * dv, dk * dk, (*base, k, 1, j))) for j in slots)


def _rotated(psi: np.ndarray, rotations) -> np.ndarray:
    """``psi`` with each ``(axes, isometry)`` of ``rotations`` applied to its pair of axes.

    An isometry of shape ``(dk**2, dv**2)`` takes its two axes from
    dimension ``dv`` to ``dk``.
    """
    for axes, iso in rotations:
        t = np.moveaxis(psi, axes, (0, 1))
        rest = t.shape[2:]
        dk = math.isqrt(iso.shape[0])
        t = iso @ t.reshape(iso.shape[1], -1)
        psi = np.moveaxis(t.reshape((dk, dk) + rest), (0, 1), axes)
    return psi


def build_rows(network: MeraNetwork, stop=None, regions=()):
    """The stop, and every array a build up to ``stop`` and its reads of ``regions`` form.

    ``None`` is the leaf ``after_W``.  A row is `errors.admit`'s ``(log_count,
    factors, what)``.  First, largest first (a stage before an isometry of
    its size), come the stages up to ``stop``, the split isometries
    (``dims_v[k]**2 x dims[k-1]``) of every level built, and the rotation
    isometries (``dims[k]**2 x dims_v[k]**2``) of every ``after_W`` stage
    built or read (`_pulled_back` draws a region's cut pairs); on one level
    that isometry is the largest array.  Then come the pulled-back states
    of the ``after_W`` regions that cut a pair, although they are never
    formed.  The stage ends are enough: within a stage the working tensor
    only grows, since a split turns a site of dimension ``dims[k-1] <=
    dims_v[k]**2`` into two of ``dims_v[k]``, and a rotation turns a pair of
    ``dims_v[k]`` into a pair of ``dims[k] >= dims_v[k]``.
    """
    level, stage = (network.levels, "after_W") if stop is None else stop
    level, stage = int(level), Stage(stage)
    if not 0 <= level <= network.levels or (level, stage) == (0, Stage.AFTER_V):
        raise UsageError(f"no stage to stop at: level={level}, stage={stage.value}")
    reads = [(iv, network.w_slots_cut(iv)) for iv in regions if iv.stage == Stage.AFTER_W]
    reads = [(iv, 2 * len(slots)) for iv, slots in reads if slots]  # the rest read a snapshot
    sched, stages, isometries = network.schedule, [], []
    for k in range(1, level + 1):
        d, dv, log_d, log_dv = sched.dims[k], sched.dims_v[k], sched.log_dims[k], sched.log_dims_v[k]
        stages.append(((1 << k) * log_dv, [(dv, 1 << k)], f"at level {k} (after_V)"))
        split = 2 * log_dv + sched.log_dims[k - 1], [(dv, 2), (sched.dims[k - 1], 1)]
        isometries.append((*split, f"for a level {k} split isometry"))
        if (k, stage) != (level, Stage.AFTER_V):
            stages.append(((1 << k) * log_d, [(d, 1 << k)], f"at level {k} (after_W)"))
        if (k, stage) != (level, Stage.AFTER_V) or any(iv.level == k for iv, _ in reads):
            rotation = 2 * (log_d + log_dv), [(d, 2), (dv, 2)]
            isometries.append((*rotation, f"for a level {k} rotation isometry"))
    rows = sorted(stages + isometries, key=lambda row: row[0], reverse=True)
    for iv, cut in reads:  # sites at dims[k] where a cut pair lies, dims_v[k] elsewhere
        k, rest = iv.level, iv.n_sites - cut
        pulled_back = cut * sched.log_dims[k] + rest * sched.log_dims_v[k]
        where = f"at level {k} (after_W) to read sites {iv.i}:{iv.j}"
        rows.append((pulled_back, [(sched.dims[k], cut), (sched.dims_v[k], rest)], where))
    return (level, stage), rows


def _admit_build(network: MeraNetwork, stop, regions=()) -> tuple[int, Stage]:
    """Admit every row of `build_rows` in its order, so a refusal names the largest; return the stop."""
    stop, rows = build_rows(network, stop, regions)
    for log_count, factors, where in rows:
        admit(log_count, factors, f"dense build needs exp({log_count:.4g}) amplitudes {where}")
    return stop


def build_state(
    network: MeraNetwork,
    seed,
    *,
    stop: tuple[int, Stage] | None = None,
) -> StateTrajectory:
    """Sample the network's isometries and contract its state, stage by stage.

    Parameters
    ----------
    seed : int or tuple of ints
        A `haar.seed_key` key.  The isometry in slot ``(level, stage,
        position)`` draws from ``(*seed, level, stage_index, position)``,
        so any single tensor is reproducible without rebuilding the rest.
    stop : (level, stage), optional
        The last stage to build; the default is the leaf ``after_W`` stage.
        The stages up to ``stop`` are the full build's, bit for bit, and
        the later ones are neither drawn nor kept.  `mc_entropy_sweep`
        stops at an ``after_V`` stage and reads ``after_W`` regions off it
        (see `_pulled_back`).

    Returns
    -------
    StateTrajectory with snapshots at every ``(level, stage)`` up to ``stop``.

    Before any allocation, every stage and isometry up to ``stop``, and none
    past it, is admitted (`_admit_build`), so a refusal names the largest.
    """
    stop_level, stop_stage = _admit_build(network, stop)
    sched = network.schedule
    base = seed_key(seed)
    psi = np.ones((1,), dtype=np.complex128)  # level 0: one site of dimension 1
    snaps: dict[tuple[int, Stage], DenseState] = {
        (0, Stage.AFTER_W): DenseState(0, Stage.AFTER_W, (1,), _frozen(psi))
    }
    for k in range(1, stop_level + 1):
        dv = sched.dims_v[k]
        n_prev = 1 << (k - 1)
        # splitting: site s (dim dims[k-1]) -> children (2s, 2s+1), dim dv each
        for s in range(n_prev):
            iso = sample_isometry(psi.shape[s], dv * dv, (*base, k, 0, s))
            psi = np.moveaxis(np.tensordot(iso, psi, axes=(1, s)), 0, s)
        psi = psi.reshape((dv,) * (2 * n_prev))
        snaps[(k, Stage.AFTER_V)] = DenseState(k, Stage.AFTER_V, psi.shape, _frozen(psi))
        if (k, Stage.AFTER_V) == (stop_level, stop_stage):
            break
        # rotation: staggered pairs, the last one wrapping around the ring
        psi = _rotated(psi, _rotations(network, k, range(n_prev), base))
        snaps[(k, Stage.AFTER_W)] = DenseState(k, Stage.AFTER_W, psi.shape, _frozen(psi))
    return StateTrajectory(network=network, snapshots=snaps, key=base)


def _pulled_back(traj: StateTrajectory, region: Interval) -> tuple[DenseState, tuple]:
    """A snapshot and the rotations that give it the nonzero spectrum of ``region``.

    An ``after_V`` region, and the level-0 ring, read their snapshot with no
    rotation.  An ``after_W`` region at level ``k`` reads the ``(k,
    after_V)`` snapshot with the rotation pairs its walls cut, each
    ``((site, site), isometry)`` drawn here from its slot key under
    ``traj.key``, the key the trajectory was built from.  A pair with both
    sites on one side of the cut is an isometry on that side alone: it
    leaves the nonzero spectrum of either side unchanged.  The sweep passes
    both to `interval_spectrum`, so no rotated state is formed.
    """
    k = region.level
    if region.stage == Stage.AFTER_V or k == 0:
        return traj.state_at(k, region.stage), ()
    slots = traj.network.w_slots_cut(region)
    return traj.state_at(k, Stage.AFTER_V), _rotations(traj.network, k, slots, traj.key)


# ---------------------------------------------------------------------------
# reduced states and entropies
# ---------------------------------------------------------------------------


def _sites_of(region) -> list[int]:
    if isinstance(region, Interval):
        return region.sites()
    return list(region)


def _cut(state: DenseState, region) -> tuple[list[int], list[int]]:
    """The sites of ``region``, in its order, and the rest of the ring, ascending."""
    if isinstance(region, Interval) and not (
        region.level == state.level and region.stage in (state.stage, Stage.AFTER_W)
    ):  # an after_W region may be read off the after_V snapshot it is pulled back to
        where = f"level {state.level} {Stage(state.stage).value}"
        raise UsageError(f"a level {region.level} {region.stage.value} region is not read off a {where} state")
    sites = _sites_of(region)
    if len(set(sites)) != len(sites):
        raise UsageError(f"repeated sites in {sites}")
    if any(not 0 <= s < state.n_sites for s in sites):
        raise UsageError(f"sites {sites} outside ring of {state.n_sites}")
    taken = set(sites)
    return sites, [s for s in range(state.n_sites) if s not in taken]


def _boxes(shape: tuple[int, ...], cap: int):
    """Index tuples that cut an array of ``shape`` into boxes of at most ``cap`` elements.

    Each tuple fixes some leading axes, slices the next one and leaves the
    trailing axes whole.
    """
    inner, q = 1, len(shape)
    while q and inner * shape[q - 1] <= cap:
        q -= 1
        inner *= shape[q]
    if q == 0:
        yield ()
        return
    step = cap // inner
    for head in np.ndindex(*shape[: q - 1]):
        for lo in range(0, shape[q - 1], step):
            yield head + (slice(lo, lo + step),)


def _gram(snap: DenseState, rotations, dims, rows: list[int], cols: list[int]) -> np.ndarray:
    """``A A^dagger``, for ``A`` the ``snap`` rotated by ``rotations``, ``rows`` against ``cols``.

    ``dims`` are the rotated state's site dimensions.  ``A`` is read in
    column panels.  A panel slices the column sites that lie in no rotated
    pair (the free sites) and holds every other site whole, so it is copied
    from a strided view of the snapshot into one reused buffer and each pair
    is rotated there (`_rotated`); the rotated state is never formed.  Each
    block of the result is accumulated from one reused tile, and only the
    lower triangle is filled.

    Buffer rule: every array a panel forms (the copy, its rotated and
    conjugated forms, the tile) holds at most the larger of a sixteenth of
    ``A`` and an eighth of the Gram, and at most ``_TILE_AMPLITUDES``, unless
    the columns of one free index are more.  The eigensolve that follows
    holds the Gram and LAPACK's copy of it, so buffers of an eighth of the
    Gram add nothing to the peak of a balanced cut; on a lopsided cut, where
    the Gram is small, a sixteenth of ``A`` bounds them.  All are freed on return.
    """
    paired = {s for pair, _ in rotations for s in pair}
    whole = rows + [s for s in cols if s in paired]
    free = [s for s in cols if s not in paired]
    t = snap.as_tensor().transpose(whole + free)
    axis = {s: a for a, s in enumerate(whole)}
    moves = [((axis[a], axis[b]), iso) for (a, b), iso in rotations]
    d = math.prod(dims[s] for s in rows)
    width = math.prod(dims[s] for s in whole)  # amplitudes of A per free index
    n_free = math.prod(t.shape[len(whole) :])
    cap = max(width, min(_TILE_AMPLITUDES, max(width * n_free >> 4, d * d >> 3)))
    cells = min(cap // width, n_free)  # free indices per panel
    rb = min(d, math.isqrt(cap))
    blocks = [(lo, min(lo + rb, d)) for lo in range(0, d, rb)]
    pairs = [(bi, bj) for bi in blocks for bj in blocks if bj[0] <= bi[0]]
    g = np.zeros((d, d), dtype=np.complex128)
    panel = np.empty(cells * (t.size // n_free), dtype=np.complex128)
    conj = np.empty(cells * width, dtype=np.complex128)
    tile = np.empty(rb * rb, dtype=np.complex128)
    lead = (slice(None),) * len(whole)
    for idx in _boxes(t.shape[len(whole) :], cells):
        src = t[lead + idx]
        p = panel[: src.size].reshape(src.shape)
        np.copyto(p, src)
        p = _rotated(p, moves).reshape(d, -1)
        c = np.conjugate(p, out=conj[: p.size].reshape(p.shape))
        for (i0, i1), (j0, j1) in pairs:
            out = tile[: (i1 - i0) * (j1 - j0)].reshape(i1 - i0, j1 - j0)
            g[i0:i1, j0:j1] += np.matmul(p[i0:i1], c[j0:j1].T, out=out)
    return g


def interval_spectrum(state: DenseState, region, rotations=()) -> np.ndarray:
    """Eigenvalues of the reduced state of ``region``, descending.

    ``rotations``, ``((site, site), isometry)`` pairs, act on ``state``
    first, and the rotated state is not formed: a sweep passes an
    ``after_W`` region's ``(k, after_V)`` snapshot and the pairs its walls
    cut (`_pulled_back`); such a read must pass those rotations.  An
    `Interval` of another level, or an ``after_V`` one on an ``after_W``
    state, raises `UsageError`.  An isometry takes its sites to dimension
    ``isqrt(len(isometry))``.  Computed by ``eigvalsh`` from the Gram matrix
    of whichever side of the cut, ``region`` or its complement, has the
    smaller dimension (``region`` on a tie): both sides share their nonzero
    spectrum.  There are ``min(dim region, dim rest)`` values, clipped at zero.
    """
    sites, rest = _cut(state, region)
    rotated = {s: math.isqrt(len(iso)) for pair, iso in rotations for s in pair}
    dims = [rotated.get(s, d) for s, d in enumerate(state.site_dims)]
    if math.prod(dims[s] for s in sites) > math.prod(dims[s] for s in rest):
        sites, rest = rest, sites
    p = np.linalg.eigvalsh(_gram(state, rotations, dims, sites, rest), UPLO="L")
    return np.clip(p, 0.0, None)[::-1]


def _probs_of(spectrum) -> np.ndarray:
    p = np.asarray(spectrum)
    if p.ndim != 1 or p.size == 0:
        raise UsageError(f"expected a nonempty 1-D spectrum, got an array of shape {p.shape}")
    if np.min(p) < -1e-9:
        raise UsageError(f"not a state: eigenvalue {np.min(p):.3e}")
    total = float(np.sum(p))
    if abs(total - 1.0) > 1e-8:
        raise UsageError(f"not normalized: trace {total:.12f}")
    return np.clip(p, 0.0, None)


def entropy_vn(spectrum) -> float:
    """Von Neumann entropy in nats of a spectrum (a 1-D array of weights)."""
    p = _probs_of(spectrum)
    p = p[p > _EIG_CLAMP]
    return float(-(p * np.log(p)).sum())


def entropy_renyi2(spectrum) -> float:
    """Order-2 Renyi entropy ``-log sum(p^2)`` in nats of a spectrum."""
    p = _probs_of(spectrum)
    return float(-math.log(float((p * p).sum())))


# ---------------------------------------------------------------------------
# Monte Carlo sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropySamples:
    """Per-trial entropies of one region."""

    interval: Interval
    samples_s: np.ndarray
    samples_s2: np.ndarray

    @property
    def mean_s(self) -> float:
        return McEstimate.of(self.samples_s).value

    @property
    def stderr_s(self) -> float:
        return McEstimate.of(self.samples_s).stderr

    @property
    def mean_s2(self) -> float:
        return McEstimate.of(self.samples_s2).value

    @property
    def mean_exp_neg_s2(self) -> float:
        return McEstimate.of(np.exp(-self.samples_s2)).value


def mc_entropy_sweep(
    network: MeraNetwork,
    intervals: list[Interval],
    trials: int,
    seed,
) -> dict[Interval, EntropySamples]:
    """Sample ``trials`` networks once and read all intervals off each draw.

    Trial ``t`` draws from key ``(*seed, t)``, so any subset of trials is
    reproducible independently of sweep composition.  A region listed more
    than once is computed once.  Each draw is built up to the ``after_V``
    stage of the deepest region's level (level 0 alone if every region is
    there); an ``after_W`` region is read off that snapshot and the
    rotations its walls cut (see `_pulled_back`), re-drawn from the slot
    keys the full build uses, so the draw is the same network.  Before the
    first draw, the stages and isometries of that build and of the reads,
    then each pulled-back state, are admitted (`_admit_build`), the latter
    although it is never formed, and each region's two arrays of ``trials``
    entropies; no other state is formed.
    """
    if trials < 1:
        raise UsageError("trials must be positive")
    base = seed_key(seed)
    top = max((iv.level for iv in intervals), default=0)
    stop = (top, Stage.AFTER_V) if top else (0, Stage.AFTER_W)
    _admit_build(network, stop, intervals)
    admit(math.log(trials), [(trials, 1)], f"a sweep keeps two arrays of {trials} entropies per region")
    acc_s = {iv: np.empty(trials) for iv in intervals}
    acc_s2 = {iv: np.empty(trials) for iv in intervals}
    for t in range(trials):
        traj = build_state(network, (*base, t), stop=stop)
        for iv in acc_s:
            snap, rotations = _pulled_back(traj, iv)
            spec = interval_spectrum(snap, iv, rotations)
            del snap, rotations  # hold no part of this draw into the next
            acc_s[iv][t] = entropy_vn(spec)
            acc_s2[iv][t] = entropy_renyi2(spec)
        del traj  # free this draw before the next one is built
    return {
        iv: EntropySamples(interval=iv, samples_s=acc_s[iv], samples_s2=acc_s2[iv])
        for iv in acc_s
    }


def mc_entropy_stats(
    network: MeraNetwork,
    interval: Interval,
    trials: int,
    seed,
) -> EntropySamples:
    """Monte Carlo entropies of a single region; see `mc_entropy_sweep`."""
    return mc_entropy_sweep(network, [interval], trials, seed)[interval]


@dataclass(frozen=True)
class MiSamples:
    """Per-trial mutual information of one region pair."""

    left: Interval
    right: Interval
    samples: np.ndarray

    @property
    def mean(self) -> float:
        return McEstimate.of(self.samples).value

    @property
    def stderr(self) -> float:
        return McEstimate.of(self.samples).stderr


def mc_mutual_information(
    network: MeraNetwork,
    pairs: list[tuple[Interval, Interval]],
    trials: int,
    seed,
) -> list[MiSamples]:
    """Monte Carlo mutual information of adjacent region pairs off shared draws.

    The union of each pair is `Interval.join`'s, under its adjacency rule;
    every pair is joined before the first draw.  The left, right and union
    regions of all pairs go through one `mc_entropy_sweep`, and trial ``t``
    of a pair is ``S(left) + S(right) - S(union)``.
    """
    unions = [left.join(right) for left, right in pairs]
    regions = [iv for (left, right), union in zip(pairs, unions) for iv in (left, right, union)]
    ent = mc_entropy_sweep(network, regions, trials, seed)
    return [
        MiSamples(
            left=left,
            right=right,
            samples=ent[left].samples_s + ent[right].samples_s - ent[union].samples_s,
        )
        for (left, right), union in zip(pairs, unions)
    ]

