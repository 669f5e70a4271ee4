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
draw and frees it before the next one.  It reads a region off the deepest
snapshot its walls reach.  An isometry lying wholly on one side of a cut
leaves that side's nonzero spectrum unchanged, so a region descends stage by
stage while its walls cut no isometry: the reduction DP's free move
(`cutbounds`).  At the first stage whose isometries its walls cut (at most
one per wall), it is read off the snapshot just below, with only those
splits or rotations applied: the region's state pulled back through the
stages it does not need.  No such state is formed: the sweep passes
`interval_spectrum` the snapshot and the cut isometries (`_pulled_back`),
each drawn once per region, and the Gram applies them to every column panel
it reads from the snapshot; the panels slice only the sites no isometry
touches, so an isometry's sites are whole in each.  The build stops at the
deepest snapshot a read needs, so the leaf ``after_W`` state, the largest of
the trajectory, is never formed (nor admitted).  On 8 leaves of dimension
6, the balanced cut then reads a 576 x 576 Gram (even start) off the
4**8-amplitude ``(3, after_V)`` snapshot through two rotated pairs, or a 144
x 144 one (odd start) off the 9**4-amplitude ``(2, after_W)`` snapshot
through two splits, instead of a 1296 x 1296 one off the 6**8-amplitude
leaf.  Either is ``exp(min_cost)``, the size of the cheapest cut.
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


def _isometries(network: MeraNetwork, k: int, stage: Stage, cut, base):
    """The level-``k`` isometries of ``stage`` in the ``(slot, sites)`` of ``cut``, one at a time.

    Each comes with the sites it acts on.  A split (``after_V``) slot ``s``
    takes level ``k - 1`` site ``s`` from dimension ``dims[k-1]`` to its two
    children at ``dims_v[k]``, drawn from key ``(*base, k, 0, s)``; a rotation
    (``after_W``) slot ``j`` takes the pair ``w_pairs(k)[j]`` from
    ``dims_v[k]`` to ``dims[k]`` each, drawn from key ``(*base, k, 1, j)``.
    An isometry has shape ``(out, in)``.
    """
    sched = network.schedule
    dv = sched.dims_v[k]
    if stage is Stage.AFTER_V:
        d_in, d_out = sched.dims[k - 1], dv * dv
    else:
        d_in, d_out = dv * dv, sched.dims[k] ** 2
    for slot, sites in cut:
        yield sites, sample_isometry(d_in, d_out, (*base, k, int(stage is Stage.AFTER_W), slot))


def _applied(iso: np.ndarray, psi: np.ndarray, lead: int) -> np.ndarray:
    """``iso`` applied to the axes of ``psi`` that follow its first ``lead`` indices.

    ``psi`` is C-contiguous, so it reads as ``(lead, iso.shape[1], rest)``
    without a copy, and the result is ``(lead, iso.shape[0], rest)``: the
    isometry's output sits where its input did.  One matmul, with no
    transposed copy of ``psi`` and no axis moved after it.
    """
    return np.matmul(iso, psi.reshape(lead, iso.shape[1], -1))


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


def _stage_rank(key) -> int:
    """Build order of a ``(level, stage)``: (0, after_W), (1, after_V), (1, after_W), ..."""
    level, stage = key
    return 2 * level - (stage is Stage.AFTER_V)


def _cut_slots(iv: Interval) -> list[tuple[int, tuple[int, ...]]]:
    """``(slot, sites)`` of each isometry of ``iv``'s stage that its walls cut, by slot.

    After_W, the rotated pairs of `MeraNetwork.w_slots_cut`, each cut by a
    wall at the even gap between its sites; after_V, the split of level
    ``k - 1`` site ``s``, cut by a wall at the odd gap ``2s + 1`` between
    its children.  Walls that meet cut nothing.
    """
    if iv.stage is Stage.AFTER_W:  # slot j of `MeraNetwork.w_pairs`, with no list of every pair
        n = iv.n_sites
        return [(j, ((2 * j + 1) % n, (2 * j + 2) % n)) for j in MeraNetwork.w_slots_cut(iv)]
    a, b = iv.walls
    return [(g >> 1, (g >> 1,)) for g in sorted({a, b}) if g & 1 and a != b]


def _descent(region: Interval):
    """``region`` at each stage it reaches for free, down to the first whose isometries its walls cut.

    This is the reduction DP's free move (`cutbounds`): walls that cut no
    isometry of a stage leave it.  From ``(k, after_W)`` the region goes to
    ``(k, after_V)`` on the same sites when both walls sit at odd gaps, and
    from ``(k, after_V)`` to ``(k - 1, after_W)``, its gaps halved, when
    both sit at even ones.  Walls that meet (an empty or whole region) cut
    nothing, and go down to the root ring.
    """
    iv = region
    yield iv
    while iv.level and not _cut_slots(iv):
        if iv.stage is Stage.AFTER_W:
            iv = Interval(iv.level, Stage.AFTER_V, iv.i, iv.length)
        else:
            iv = Interval.of_length(iv.level - 1, Stage.AFTER_W, iv.i >> 1, iv.length >> 1)
        yield iv


def _read_of(region: Interval):
    """``(snapshot, x, cut)``: the ``(level, stage)`` that ``region`` is read off, and how.

    ``x`` is the region at the last stage of its `_descent`, and ``cut`` the
    ``(slot, sites)`` of the isometries (at most one per wall) that its walls
    cut there (`_cut_slots`).  The read applies those to the snapshot just
    below ``x``: ``(k, after_V)`` below ``(k, after_W)``, and ``(k - 1,
    after_W)`` below ``(k, after_V)``.  A region whose walls meet reaches the
    root ring, cuts nothing, and is read off it.
    """
    *_, x = _descent(region)
    cut = _cut_slots(x)
    if not cut:
        return (0, Stage.AFTER_W), x, cut
    if x.stage is Stage.AFTER_W:
        return (x.level, Stage.AFTER_V), x, cut
    return (x.level - 1, Stage.AFTER_W), x, cut


def build_rows(network: MeraNetwork, stop=None, regions=()):
    """The stop, and every array a build up to ``stop`` and its reads of ``regions`` form.

    ``None`` is the leaf ``after_W``.  A row is `errors.admit`'s ``(log_count,
    factors, what)``.  First, largest first (a stage before an isometry of
    its size), come the stages up to ``stop``, and an isometry of each stage
    built or read: a split isometry (``dims_v[k]**2 x dims[k-1]``) of an
    ``after_V`` stage, a rotation isometry (``dims[k]**2 x dims_v[k]**2``)
    of an ``after_W`` one.  A read draws the isometries its walls cut at the
    stage above its snapshot (`_read_of`); on one level the rotation
    isometry is the largest array.  Then come the read states of the regions
    that cut an isometry, although they are never formed: the snapshot with
    those isometries applied.  The stage ends are enough: within a stage the
    working tensor only grows, since a split turns a site of dimension
    ``dims[k-1] <= dims_v[k]**2`` into two of ``dims_v[k]``, and a rotation
    turns a pair of ``dims_v[k]`` into a pair of ``dims[k] >= dims_v[k]``.
    """
    level, stage = (network.levels, "after_W") if stop is None else stop
    level, stage = int(level), Stage(stage)
    if not 0 <= level <= network.levels or (level, stage) == (0, Stage.AFTER_V):
        raise UsageError(f"no stage to stop at: level={level}, stage={stage.value}")
    reads = [(iv, *_read_of(iv)) for iv in regions]
    reads = [read for read in reads if read[3]]  # the rest read the root ring
    built = [(k, s) for k in range(1, level + 1) for s in (Stage.AFTER_V, Stage.AFTER_W)]
    built = built[: _stage_rank((level, stage))]  # the stages after (0, after_W), in build order
    drawn = sorted(set(built) | {(x.level, x.stage) for _, _, x, _ in reads}, key=_stage_rank)
    sched, stages, isometries = network.schedule, [], []
    for k, s in built:
        v = s is Stage.AFTER_V
        d, log_d = (sched.dims_v[k], sched.log_dims_v[k]) if v else (sched.dims[k], sched.log_dims[k])
        stages.append(((1 << k) * log_d, [(d, 1 << k)], f"at level {k} ({s.value})"))
    for k, s in drawn:
        d, dv, log_d, log_dv = sched.dims[k], sched.dims_v[k], sched.log_dims[k], sched.log_dims_v[k]
        if s is Stage.AFTER_V:
            split = 2 * log_dv + sched.log_dims[k - 1], [(dv, 2), (sched.dims[k - 1], 1)]
            isometries.append((*split, f"for a level {k} split isometry"))
        else:
            rotation = 2 * (log_d + log_dv), [(d, 2), (dv, 2)]
            isometries.append((*rotation, f"for a level {k} rotation isometry"))
    rows = sorted(stages + isometries, key=lambda row: row[0], reverse=True)
    for iv, (sk, ss), x, cut in reads:
        k, c = x.level, len(cut)
        if x.stage is Stage.AFTER_W:  # sites at dims[k] where a cut pair lies, dims_v[k] elsewhere
            rest = (1 << k) - 2 * c
            log_count = 2 * c * sched.log_dims[k] + rest * sched.log_dims_v[k]
            factors = [(sched.dims[k], 2 * c), (sched.dims_v[k], rest)]
        else:  # a cut split's site is two at dims_v[k], the rest stay at dims[k-1]
            rest = (1 << (k - 1)) - c
            log_count = 2 * c * sched.log_dims_v[k] + rest * sched.log_dims[k - 1]
            factors = [(sched.dims_v[k], 2 * c), (sched.dims[k - 1], rest)]
        where = f"to read level {iv.level} ({iv.stage.value}) sites {iv.i}:{iv.j} off level {sk} ({ss.value})"
        rows.append((log_count, factors, where))
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
        stops at the deepest snapshot its reads need (see `_pulled_back`).

    Returns
    -------
    StateTrajectory with snapshots at every ``(level, stage)`` up to ``stop``.

    Before any allocation, every stage and isometry up to ``stop``, and none
    past it, is admitted (`_admit_build`), so a refusal names the largest.
    Each split is one `_applied` matmul on the working tensor, whose sites
    before the split one are split already; each level starts from the
    contiguous ``after_W`` snapshot of the one above.
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
        splits = _isometries(network, k, Stage.AFTER_V, ((s, (s,)) for s in range(n_prev)), base)
        for (s,), iso in splits:
            psi = _applied(iso, psi, (dv * dv) ** s)
        psi = psi.reshape((dv,) * (2 * n_prev))
        snaps[(k, Stage.AFTER_V)] = DenseState(k, Stage.AFTER_V, psi.shape, _frozen(psi))
        if (k, Stage.AFTER_V) == (stop_level, stop_stage):
            break
        # rotation: staggered pairs, the last one wrapping around the ring
        rotations = _isometries(network, k, Stage.AFTER_W, enumerate(network.w_pairs(k)), base)
        psi = _rotated(psi, rotations)
        snaps[(k, Stage.AFTER_W)] = DenseState(k, Stage.AFTER_W, psi.shape, _frozen(psi))
        psi = snaps[(k, Stage.AFTER_W)].amplitudes
    return StateTrajectory(network=network, snapshots=snaps, key=base)


def _pulled_back(traj: StateTrajectory, region: Interval) -> tuple[DenseState, tuple]:
    """A snapshot and the isometries that give it the nonzero spectrum of ``region``.

    The one rule is the reduction DP's free move (`_descent`): an isometry
    with all its sites on one side of the cut acts on that side alone and
    leaves the nonzero spectrum of either side unchanged, so a stage whose
    isometries the walls do not cut can be dropped.  The region is read off
    the snapshot just below the first stage whose isometries its walls cut
    (`_read_of`), with only those isometries, each ``(sites, isometry)``
    drawn here from its slot key under ``traj.key``, the key the trajectory
    was built from.  A region whose walls meet is read off the root ring.
    The sweep passes both to `interval_spectrum`, so no read state is formed.
    """
    snap, x, cut = _read_of(region)
    return traj.state_at(*snap), tuple(_isometries(traj.network, x.level, x.stage, cut, traj.key))


# ---------------------------------------------------------------------------
# reduced states and entropies
# ---------------------------------------------------------------------------


def _read_layout(state: DenseState, moves) -> tuple[list[int], list[int]]:
    """The read state's site dimensions, and the read site where each site of ``state`` begins.

    The read state is ``state`` with ``moves`` applied, each ``(sites,
    isometry)``: a rotation ``((a, b), isometry)`` leaves its two sites in
    place, and a split ``((s,), isometry)`` puts the two children of ``s``
    in its place, so the sites after ``s`` move up by one.  Every output
    site of an isometry has dimension ``isqrt(len(isometry))``.
    """
    out = {s: math.isqrt(len(iso)) for sites, iso in moves for s in sites}
    legs = {sites[0]: 2 for sites, _ in moves if len(sites) == 1}
    dims, first = [], []
    for s, d in enumerate(state.site_dims):
        first.append(len(dims))
        dims += [out.get(s, d)] * legs.get(s, 1)
    return dims, first


def _region_sites(state: DenseState, region: Interval, moves, first: list[int]) -> list[int]:
    """The read sites of ``region`` on ``state`` with ``moves`` applied; `UsageError` if it is not read there.

    A region is read off a stage of its `_descent` with no moves, or off the
    snapshot below the last one with exactly the isometries its walls cut
    there (`_read_of`).  Below an ``after_V`` stage, the children of a cut
    split are two read sites, and those of any other level ``k - 1`` site
    lie on one side of the cut and are its one read site.
    """
    on = (state.level, Stage(state.stage))
    for iv in _descent(region):
        if (iv.level, iv.stage) == on and not moves:
            return iv.sites()
    snap, x, cut = _read_of(region)
    where = f"level {state.level} {on[1].value}"
    if cut and snap == on:
        want, got = [sites for _, sites in cut], sorted(sites for sites, _ in moves)
        if got != want:
            raise UsageError(
                f"a level {region.level} {region.stage.value} region is read off a {where} state "
                f"with the isometries on sites {want}, not {got}"
            )
        if x.stage is Stage.AFTER_W:
            return x.sites()
        split = {p for (p,) in want}
        return list(dict.fromkeys(first[c >> 1] + (c & 1 if c >> 1 in split else 0) for c in x.sites()))
    raise UsageError(f"a level {region.level} {region.stage.value} region is not read off a {where} state")


def _cut(state: DenseState, region, moves=()) -> tuple[list[int], list[int]]:
    """The read sites of ``region``, in its order, and the rest of the read state, ascending.

    A list of sites names read sites (`_read_layout`); an `Interval` is
    mapped to them (`_region_sites`).
    """
    dims, first = _read_layout(state, moves)
    if isinstance(region, Interval):
        sites = _region_sites(state, region, moves, first)
    else:
        sites = list(region)
    if len(set(sites)) != len(sites):
        raise UsageError(f"repeated sites in {sites}")
    if any(not 0 <= s < len(dims) for s in sites):
        raise UsageError(f"sites {sites} outside ring of {len(dims)}")
    taken = set(sites)
    return sites, [s for s in range(len(dims)) if s not in taken]


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


def _gram(snap: DenseState, moves, dims, rows: list[int], cols: list[int]) -> np.ndarray:
    """``A A^dagger``, for ``A`` the read state (`_read_layout`), ``rows`` against ``cols``.

    The read state is ``snap`` with ``moves`` applied, and ``dims`` are its
    site dimensions.  ``A`` is read in column panels.  A panel slices the
    column sites that no move touches (the free sites) and holds every other
    site whole.  It is copied from a strided view of the snapshot into one
    reused buffer, with each move's input sites first and adjacent, so each
    move is one `_applied` matmul; one transpose then puts the row sites
    first.  The read state is never formed.  Each block of the result is
    accumulated from one reused tile, and only the lower triangle is filled.

    Buffer rule: every array a panel forms (the copy, its moved, transposed
    and conjugated forms, the tile) holds at most the larger of a sixteenth
    of ``A`` and an eighth of the Gram, and at most ``_TILE_AMPLITUDES``,
    unless the columns of one free index are more.  The eigensolve that
    follows holds the Gram and LAPACK's copy of it, so buffers of an eighth
    of the Gram add nothing to the peak of a balanced cut; on a lopsided
    cut, where the Gram is small, a sixteenth of ``A`` bounds them.  All are
    freed on return.
    """
    _, first = _read_layout(snap, moves)
    moved = []  # read sites of the moves' outputs, in panel order
    for sites, _ in moves:
        moved += [first[sites[0]], first[sites[0]] + 1] if len(sites) == 1 else [first[s] for s in sites]
    site_of = {r: s for s, r in enumerate(first)}
    kept = [r for r in rows if r not in moved]
    free = [r for r in cols if r not in moved]
    inputs = [s for sites, _ in moves for s in sites]
    t = snap.as_tensor().transpose(inputs + [site_of[r] for r in kept + free])
    n_whole = t.ndim - len(free)
    labels = moved + kept  # a panel's read sites after the moves, then its free box
    order = [labels.index(r) for r in rows + [r for r in cols if r in moved]] + [len(labels)]
    shape = [dims[r] for r in labels] + [-1]
    d = math.prod(dims[s] for s in rows)
    width = math.prod(dims[r] for r in labels)  # amplitudes of A per free index
    n_free = math.prod(t.shape[n_whole:])
    cap = max(width, min(_TILE_AMPLITUDES, max(width * n_free >> 4, d * d >> 3)))
    cells = min(cap // width, n_free)  # free indices per panel
    rb = min(d, math.isqrt(cap))
    blocks = [(lo, min(lo + rb, d)) for lo in range(0, d, rb)]
    pairs = [(bi, bj) for bi in blocks for bj in blocks if bj[0] <= bi[0]]
    g = np.zeros((d, d), dtype=np.complex128)
    panel = np.empty(cells * (t.size // n_free), dtype=np.complex128)
    conj = np.empty(cells * width, dtype=np.complex128)
    tile = np.empty(rb * rb, dtype=np.complex128)
    lead = (slice(None),) * n_whole
    for idx in _boxes(t.shape[n_whole:], cells):
        src = t[lead + idx]
        p = panel[: src.size].reshape(src.shape)
        np.copyto(p, src)
        a = 1
        for _, iso in moves:
            p = _applied(iso, p, a)
            a *= len(iso)
        p = p.reshape(shape).transpose(order).reshape(d, -1)
        c = np.conjugate(p, out=conj[: p.size].reshape(p.shape))
        for (i0, i1), (j0, j1) in pairs:
            out = tile[: (i1 - i0) * (j1 - j0)].reshape(i1 - i0, j1 - j0)
            g[i0:i1, j0:j1] += np.matmul(p[i0:i1], c[j0:j1].T, out=out)
    return g


def interval_spectrum(state: DenseState, region, moves=()) -> np.ndarray:
    """Eigenvalues of the reduced state of ``region``, descending.

    ``moves``, ``(sites, isometry)`` pairs, act on ``state`` first, and the
    read state they give is never formed (`_gram`): a rotation ``((a, b),
    isometry)`` takes two sites to two, a split ``((s,), isometry)`` one to
    two, each to dimension ``isqrt(len(isometry))`` (`_read_layout`).  A
    list ``region`` names sites of the read state.  An `Interval` is read
    off a stage it reaches for free (its own ring, say) with no moves, or
    off the snapshot below the first stage whose isometries its walls cut,
    with exactly those isometries: what `_pulled_back` gives a sweep.  Off
    any other state, it raises `UsageError`.  Computed by ``eigvalsh`` from
    the Gram matrix of whichever side of the cut, ``region`` or its
    complement, has the smaller dimension (``region`` on a tie): both sides
    share their nonzero spectrum.  There are ``min(dim region, dim rest)``
    values, clipped at zero.
    """
    sites, rest = _cut(state, region, moves)
    dims, _ = _read_layout(state, moves)
    if math.prod(dims[s] for s in sites) > math.prod(dims[s] for s in rest):
        sites, rest = rest, sites
    p = np.linalg.eigvalsh(_gram(state, moves, dims, sites, rest), UPLO="L")
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
    than once is computed once.  Each draw is built up to the deepest
    snapshot a region is read off (level 0 alone if every region's walls
    meet); a region is read off its snapshot and the isometries its walls
    cut just above it (see `_pulled_back`), re-drawn from the slot keys the
    full build uses, so the draw is the same network.  Before the first
    draw, the stages and isometries of that build and of the reads, then
    each read state, are admitted (`_admit_build`), the latter although it
    is never formed, and each region's two arrays of ``trials`` entropies;
    no other state is formed.
    """
    if trials < 1:
        raise UsageError("trials must be positive")
    base = seed_key(seed)
    stop = max((_read_of(iv)[0] for iv in intervals), key=_stage_rank, default=(0, Stage.AFTER_W))
    _admit_build(network, stop, intervals)
    admit(math.log(trials), [(trials, 1)], f"a sweep keeps two arrays of {trials} entropies per region")
    acc_s = {iv: np.empty(trials) for iv in intervals}
    acc_s2 = {iv: np.empty(trials) for iv in intervals}
    for t in range(trials):
        traj = build_state(network, (*base, t), stop=stop)
        for iv in acc_s:
            snap, moves = _pulled_back(traj, iv)
            spec = interval_spectrum(snap, iv, moves)
            del snap, moves  # hold no part of this draw into the next
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

