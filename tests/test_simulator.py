"""Dense state sampling, reduced spectra, entropies, and Monte Carlo sweeps."""

from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest
from conftest import build_admitted
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from randmera import (
    FeasibilityError,
    Interval,
    MeraNetwork,
    Stage,
    UsageError,
    build_state,
    cut_dp,
    entropy_renyi2,
    entropy_vn,
    interval_spectrum,
    mc_entropy_stats,
    mc_entropy_sweep,
    mc_mutual_information,
    sample_isometry,
)
from randmera import simulator
from randmera.errors import max_amplitudes_from_env
from randmera.simulator import DenseState


@pytest.fixture(scope="module")
def traj_l3(net_l3):
    return build_state(net_l3, seed=11)


@pytest.fixture(scope="module")
def traj_l4(net_l4):
    return build_state(net_l4, seed=11)


def test_every_snapshot_is_normalized(traj_l4, net_l4):
    sched = net_l4.schedule
    for k in range(1, net_l4.levels + 1):
        for stage in (Stage.AFTER_V, Stage.AFTER_W):
            st = traj_l4.state_at(k, stage)
            assert st.norm() == pytest.approx(1.0, abs=1e-10)
            expected = (sched.dims_v if stage is Stage.AFTER_V else sched.dims)[k]
            assert st.site_dims == (expected,) * (1 << k)
    assert traj_l4.leaf is traj_l4.state_at(net_l4.levels, Stage.AFTER_W)


def test_builds_are_reproducible_and_seed_sensitive(net_l3):
    a = build_state(net_l3, seed=(4, 2)).leaf.amplitudes
    b = build_state(net_l3, seed=(4, 2)).leaf.amplitudes
    c = build_state(net_l3, seed=(4, 3)).leaf.amplitudes
    assert np.array_equal(a, b)
    assert np.max(np.abs(a - c)) > 1e-3


def test_missing_snapshot_is_reported(traj_l3):
    with pytest.raises(UsageError):
        traj_l3.state_at(9, Stage.AFTER_W)
    with pytest.raises(UsageError, match=r"no snapshot at level=0, stage=after_V$"):
        traj_l3.state_at(0, Stage.AFTER_V)


def _exact_peak(schedule):
    """The largest stage of a dense build, in amplitudes, as an integer."""
    return max(
        d ** (1 << k)
        for k in range(1, schedule.levels + 1)
        for d in (schedule.dims_v[k], schedule.dims[k])
    )


def test_amplitude_budget_is_enforced_at_the_exact_peak(net_l3, monkeypatch):
    peak = _exact_peak(net_l3.schedule)
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", str(peak))
    build_state(net_l3, seed=0)  # just enough
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", str(peak - 1))
    with pytest.raises(FeasibilityError) as err:
        build_state(net_l3, seed=0)
    assert "level" in str(err.value)


def test_a_build_is_admitted_exactly_at_its_peak(net_l4):
    assert _exact_peak(net_l4.schedule) == 65536
    assert build_admitted(net_l4, 65536) and not build_admitted(net_l4, 65535)


def test_the_one_level_network_is_admitted_at_four_amplitudes(net_tiny):
    assert net_tiny.levels == 1
    assert build_admitted(net_tiny, 4) and not build_admitted(net_tiny, 3)


def test_a_one_level_rotation_isometry_is_held_to_the_budget(monkeypatch):
    # leaf 5, split bond 2: no state has more than 5**2 amplitudes, but the
    # rotation isometry that the build, and the read of one site, draw is
    # 5**2 x 2**2 = 100
    net = MeraNetwork.build(5, 1.39)
    assert (net.levels, net.schedule.dims_v[1]) == (1, 2)
    assert build_admitted(net, 100) and not build_admitted(net, 99)

    class Drawn(Exception):
        pass

    def drawn(*args, **kwargs):
        raise Drawn

    monkeypatch.setattr(simulator, "sample_isometry", drawn)
    region = Interval.span(1, Stage.AFTER_W, 0, 0)
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", "100")
    with pytest.raises(Drawn):
        mc_entropy_stats(net, region, 1, seed=0)
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", "99")
    with pytest.raises(FeasibilityError, match=r"for a level 1 rotation isometry, budget is 99$"):
        mc_entropy_stats(net, region, 1, seed=0)


def test_a_sweep_admits_its_per_trial_entropies_before_any_draw(net_l3, monkeypatch):
    # the build needs 2**8 amplitudes; each region keeps two arrays of `trials` floats
    class Drawn(Exception):
        pass

    def drawn(*args, **kwargs):
        raise Drawn

    monkeypatch.setattr(simulator, "sample_isometry", drawn)
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", "1000")
    region = Interval.of_length(3, Stage.AFTER_W, 1, 2)
    with pytest.raises(Drawn):
        mc_entropy_stats(net_l3, region, 1000, seed=0)
    with pytest.raises(
        FeasibilityError, match=r"^a sweep keeps two arrays of 1001 entropies per region, budget is 1000$"
    ):
        mc_entropy_stats(net_l3, region, 1001, seed=0)


def test_the_96_level_network_is_refused_at_once(monkeypatch):
    net = MeraNetwork.build(2, 0.005)
    assert net.levels == 96
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", str(10**40))
    t0 = time.perf_counter()
    with pytest.raises(FeasibilityError, match=r"^dense build needs exp\("):
        build_state(net, seed=0)
    assert time.perf_counter() - t0 < 0.5


def test_amplitude_budget_env_override(monkeypatch):
    monkeypatch.delenv("RANDMERA_MAX_AMPLITUDES", raising=False)
    assert max_amplitudes_from_env() == 1 << 26
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", "12345")
    assert max_amplitudes_from_env() == 12345
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", "zero")
    with pytest.raises(UsageError):
        max_amplitudes_from_env()
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", "-3")
    with pytest.raises(UsageError):
        max_amplitudes_from_env()


def test_a_region_is_read_only_off_a_state_of_its_level_and_stage():
    traj = build_state(MeraNetwork.build(2, 0.2), 1)  # L = 4
    region = Interval.of_length(3, Stage.AFTER_W, 0, 2)
    own = entropy_vn(interval_spectrum(traj.state_at(3, Stage.AFTER_W), region))
    assert own == pytest.approx(2.714, abs=1e-3)
    # read off the leaf, the region was leaf sites 0-1, S = 1.376: a plausible wrong answer
    with pytest.raises(UsageError, match="^a level 3 after_W region is not read off a level 4 after_W state$"):
        interval_spectrum(traj.leaf, region)
    with pytest.raises(UsageError, match="^a level 3 after_V region is not read off a level 3 after_W state$"):
        interval_spectrum(traj.state_at(3, Stage.AFTER_W), Interval.of_length(3, Stage.AFTER_V, 0, 2))
    # an after_W region read off its after_V snapshot, with the rotations its walls cut
    snap, rotations = simulator._pulled_back(traj, region)
    assert snap.stage == Stage.AFTER_V and rotations
    assert entropy_vn(interval_spectrum(snap, region, rotations)) == pytest.approx(own, abs=1e-12)


def test_a_read_below_a_region_passes_exactly_the_isometries_its_walls_cut():
    traj = build_state(MeraNetwork.build(2, 0.2), 1)  # L = 4
    # walls at gaps 1 and 3 cut no (3, after_W) pair but the (3, after_V)
    # splits of level 2 sites 0 and 1: the read is off (2, after_W)
    region = Interval.of_length(3, Stage.AFTER_W, 1, 2)
    own = interval_spectrum(traj.state_at(3, Stage.AFTER_W), region)
    snap, moves = simulator._pulled_back(traj, region)
    assert (snap.level, snap.stage) == (2, Stage.AFTER_W)
    assert [sites for sites, _ in moves] == [(0,), (1,)]
    # the stage the region reaches for free reads it with no isometry
    free = interval_spectrum(traj.state_at(3, Stage.AFTER_V), region)
    for spec in (interval_spectrum(snap, region, moves), free):
        a, b = _padded(spec, own)
        assert np.max(np.abs(a - b)) <= 1e-14
    message = r"^a level 3 after_W region is read off a level 2 after_W state with the isometries on sites"
    for fewer in ((), moves[:1]):
        with pytest.raises(UsageError, match=message):
            interval_spectrum(snap, region, fewer)


def test_entropies_of_a_hand_computed_spectrum():
    spec = np.array([0.75, 0.25])
    assert entropy_vn(spec) == pytest.approx(0.5623351446188083, abs=1e-14)
    assert entropy_renyi2(spec) == pytest.approx(math.log(16.0 / 10.0), abs=1e-14)


def test_entropy_rejects_a_matrix_form():
    mat = np.diag([0.75, 0.25]).astype(complex)
    for entropy in (entropy_vn, entropy_renyi2):
        for bad in (mat, np.float64(1.0), np.array([])):
            with pytest.raises(UsageError, match="nonempty 1-D spectrum"):
                entropy(bad)


def test_entropy_edge_cases_and_order():
    assert entropy_vn(np.array([1.0])) == 0.0
    assert entropy_renyi2(np.array([1.0])) == 0.0
    d = 7
    uniform = np.full(d, 1.0 / d)
    assert entropy_vn(uniform) == pytest.approx(math.log(d), abs=1e-12)
    assert entropy_renyi2(uniform) == pytest.approx(math.log(d), abs=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = rng.dirichlet(np.ones(6))
        assert entropy_vn(p) >= entropy_renyi2(p) - 1e-12


def test_non_states_are_rejected():
    with pytest.raises(UsageError):
        entropy_vn(np.array([0.5, 0.4]))  # trace off
    with pytest.raises(UsageError):
        entropy_vn(np.array([1.2, -0.2]))  # negative weight


def test_empty_and_whole_regions_are_trivial(traj_l3, net_l3):
    empty = interval_spectrum(traj_l3.leaf, Interval.of_length(3, Stage.AFTER_W, 0, 0))
    assert empty.shape == (1,)
    assert empty[0] == pytest.approx(1.0, abs=1e-12)
    whole = interval_spectrum(traj_l3.leaf, Interval.of_length(3, Stage.AFTER_W, 0, 8))
    assert whole[0] == pytest.approx(1.0, abs=1e-10)
    assert entropy_vn(whole) == pytest.approx(0.0, abs=1e-10)


def _svd_spectrum(state, sites):
    """Squared singular values of the split amplitudes: the oracle for the Gram route."""
    t = state.as_tensor()
    if sites:
        t = np.moveaxis(t, sites, range(len(sites)))
    a = t.reshape(math.prod(state.site_dims[s] for s in sites), -1)
    # same values either way; LAPACK is far slower on the wide orientation
    s = np.linalg.svd(a if a.shape[0] >= a.shape[1] else a.T, compute_uv=False)
    return np.sort(s * s)[::-1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gram_spectra_match_the_svd_on_every_interval(net_l4, seed):
    leaf = build_state(net_l4, seed=(40, seed)).leaf
    n = leaf.n_sites
    regions = [Interval.of_length(4, Stage.AFTER_W, i, m) for i in range(n) for m in range(1, n)]
    regions += [Interval.of_length(4, Stage.AFTER_W, 0, m) for m in (0, n)]
    for iv in regions:
        gram = interval_spectrum(leaf, iv)
        svd = _svd_spectrum(leaf, iv.sites())
        assert len(gram) == len(svd)
        assert np.max(np.abs(gram - svd)) <= 1e-14
        assert abs(entropy_vn(gram) - entropy_vn(svd)) <= 1e-13


def _padded(a, b):
    k = max(len(a), len(b))
    return np.pad(a, (0, k - len(a))), np.pad(b, (0, k - len(b)))


def _assert_the_sweep_matches_the_full_snapshots(net, seed, regions):
    """Trial 0 of the sweep against the SVD of the full build's snapshots.

    The sweep reads each region off the deepest snapshot its walls reach,
    through the isometries they cut there; the oracle builds every stage
    and splits the snapshot the region lives on.
    """
    res = mc_entropy_sweep(net, regions, trials=1, seed=seed)
    traj = build_state(net, (*seed, 0))
    for iv in regions:
        snap, rotations = simulator._pulled_back(traj, iv)
        pulled = interval_spectrum(snap, iv, rotations)
        oracle = _svd_spectrum(traj.state_at(iv.level, iv.stage), iv.sites())
        a, b = _padded(pulled, oracle)
        assert np.max(np.abs(a - b)) <= 1e-14, iv
        assert abs(res[iv].samples_s[0] - entropy_vn(oracle)) <= 1e-13, iv
        assert abs(res[iv].samples_s2[0] - entropy_renyi2(oracle)) <= 1e-13, iv


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("levels", [3, 4])
def test_pulled_back_spectra_match_the_leaf_snapshot(net_l3, net_l4, levels, seed):
    net = net_l3 if levels == 3 else net_l4
    n = net.n_leaves
    regions = [Interval.of_length(levels, Stage.AFTER_W, 0, m) for m in (0, n)]
    regions += [
        Interval.of_length(levels, Stage.AFTER_W, i, m) for i in range(n) for m in range(1, n)
    ]
    _assert_the_sweep_matches_the_full_snapshots(net, (61, seed), regions)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pulled_back_spectra_match_on_drawn_schedules(data):
    leaf = data.draw(st.integers(2, 6), label="leaf")
    eps = data.draw(st.floats(0.25, math.log(leaf)), label="epsilon")
    net = MeraNetwork.build(leaf, eps)
    assume(_exact_peak(net.schedule) <= 1 << 16)
    level = data.draw(st.integers(0, net.levels), label="level")
    stages = [Stage.AFTER_W] if level == 0 else [Stage.AFTER_W, Stage.AFTER_V]
    stage = data.draw(st.sampled_from(stages), label="stage")
    n = 1 << level
    regions = [
        Interval.of_length(
            level,
            stage,
            data.draw(st.integers(0, n - 1), label="start"),
            data.draw(st.integers(0, n), label="length"),
        )
    ]
    seed = (62, data.draw(st.integers(0, 1 << 16), label="seed"))
    _assert_the_sweep_matches_the_full_snapshots(net, seed, regions)


def test_a_stopped_build_keeps_the_full_builds_stages_bit_for_bit(net_l4):
    full = build_state(net_l4, seed=(63, 1))
    order = list(full.snapshots)  # build order
    for end, stop in enumerate(order):
        part = build_state(net_l4, seed=(63, 1), stop=stop)
        assert list(part.snapshots) == order[: end + 1]
        for key, state in part.snapshots.items():
            assert state.site_dims == full.snapshots[key].site_dims
            assert state.amplitudes.tobytes() == full.snapshots[key].amplitudes.tobytes()
    for bad in ((0, Stage.AFTER_V), (5, Stage.AFTER_W), (-1, Stage.AFTER_W)):
        with pytest.raises(UsageError, match="no stage to stop at"):
            build_state(net_l4, seed=0, stop=bad)
    # the budget holds the stages up to the stop, and none past it: the
    # largest of them is admitted, one amplitude less is not
    sizes = [math.prod(state.site_dims) for state in full.snapshots.values()]
    for end, stop in enumerate(order):
        largest = max(sizes[: end + 1])
        assert build_admitted(net_l4, largest, stop), stop
        if largest > 1:  # a budget is at least one amplitude
            assert not build_admitted(net_l4, largest - 1, stop), stop


def test_the_sweep_builds_no_stage_past_the_snapshot_its_reads_need(net_l3, monkeypatch):
    built = []

    def spy(*args, **kwargs):
        traj = build_state(*args, **kwargs)
        built.append(set(traj.snapshots))
        return traj

    monkeypatch.setattr(simulator, "build_state", spy)
    up_to = [(0, Stage.AFTER_W)]
    for k in (1, 2, 3):
        up_to += [(k, Stage.AFTER_V), (k, Stage.AFTER_W)]
    # gap 2 cuts a (3, after_W) pair: the read is off (3, after_V)
    mc_entropy_sweep(net_l3, [Interval.of_length(3, Stage.AFTER_W, 2, 3)], 2, seed=4)
    assert built == [set(up_to[:-1])] * 2
    # walls at gaps 1 and 3 cut no (2, after_W) pair but two (2, after_V)
    # splits: both regions are read off (1, after_W)
    mc_entropy_sweep(net_l3, [Interval.of_length(2, Stage.AFTER_V, 1, 2)], 1, seed=4)
    mc_entropy_sweep(net_l3, [Interval.of_length(2, Stage.AFTER_W, 1, 2)], 1, seed=4)
    mc_entropy_sweep(net_l3, [Interval.of_length(0, Stage.AFTER_W, 0, 1)], 1, seed=4)
    assert built[2:] == [set(up_to[:3]), set(up_to[:3]), set(up_to[:1])]


def test_the_d6_sweep_matches_the_svd_of_its_leaf_state():
    # the streamed read of 16 -> 36 pair isometries at the size the bench
    # runs, with 0, 1, 2 and 2 rotation pairs cut (the first, at odd walls,
    # is read through two 9 -> 16 splits instead); the hypothesis test above
    # skips this network, whose peak is over 2**16
    net = MeraNetwork.build(6, 0.5777)
    placements = ((1, 4), (0, 3), (2, 2), (2, 4))
    regions = [Interval.of_length(3, Stage.AFTER_W, i, m) for i, m in placements]
    assert [len(iv.cut()) for iv in regions] == [0, 1, 2, 2]
    # aligned after_V regions read below their own ring: start 0 off (2,
    # after_V) through two (2, after_W) pairs, start 2 off (1, after_W)
    # through two (2, after_V) splits
    aligned = [Interval.of_length(3, Stage.AFTER_V, i, 4) for i in (0, 2)]
    assert [_read_order(net, iv) for iv in aligned] == [81, 9]
    _assert_the_sweep_matches_the_full_snapshots(net, (64, 0), regions + aligned)


def _read_order(net, region):
    """The Gram order of the sweep's read of ``region``, from the schedule alone.

    The snapshot holds no amplitudes and each isometry no columns: only
    their shapes reach `simulator._cut` and `simulator._read_layout`.
    """
    (level, stage), x, cut = simulator._read_of(region)
    sched = net.schedule
    d = (sched.dims_v if stage is Stage.AFTER_V else sched.dims)[level]
    snap = DenseState(level, stage, (d,) * (1 << level), np.empty(0))
    out = (sched.dims if x.stage is Stage.AFTER_W else sched.dims_v)[x.level]
    moves = [(sites, np.empty((out * out, 0))) for _, sites in cut]
    rows, rest = simulator._cut(snap, region, moves)
    dims, _ = simulator._read_layout(snap, moves)
    return min(math.prod(dims[s] for s in rows), math.prod(dims[s] for s in rest))


def _own_ring_order(net, region):
    """The Gram order of ``region`` read off its own ring, an after_W one through its cut pairs."""
    k, sched = region.level, net.schedule
    dims = [sched.dims_v[k]] * region.n_sites
    if region.stage is Stage.AFTER_W:
        for j, _ in region.cut():
            for s in net.w_pairs(k)[j]:
                dims[s] = sched.dims[k]
    inside = math.prod(dims[s] for s in region.sites())
    return min(inside, math.prod(dims) // inside)


@pytest.mark.parametrize(
    "leaf,eps,at_cut",
    [(6, 0.5777, 140), (2, 0.2, 520), (4, 0.29, 452)],
    ids=["d6", "2-0.2", "4-0.29"],
)
def test_every_read_lies_between_the_cheapest_cut_and_its_own_ring(leaf, eps, at_cut):
    # A second route to the read's size: the reduction DP's cheapest
    # sequence is a cut through the network, and the reduced state's rank is
    # at most exp(min_cost), so no read can be smaller.  The read drops only
    # isometries on one side of the cut, so it is never larger than the read
    # off the region's own ring; on the d6 network it reaches the cheapest cut.
    net = MeraNetwork.build(leaf, eps)
    regions = [
        Interval.of_length(k, stage, i, m)
        for k in range(1, net.levels + 1)
        for stage in (Stage.AFTER_V, Stage.AFTER_W)
        for i in range(1 << k)
        for m in range(1, 1 << k)
    ]
    reached = 0
    for iv in regions:
        order = _read_order(net, iv)
        floor = math.exp(cut_dp(net, iv).min_cost)
        assert floor <= order * (1 + 1e-12) and order <= _own_ring_order(net, iv), iv
        reached += math.isclose(order, floor, rel_tol=1e-12)
    assert (reached, len(regions)) == (at_cut, 140 if net.levels == 3 else 620)


def test_a_sweep_of_the_d6_network_never_holds_its_leaf_state():
    # 8 leaves of dimension 6: the leaf snapshot alone is 25.6 MiB, while an
    # even start of length 4 crosses two rotation pairs and reads a 576 x 576
    # Gram off the 1 MiB after_V snapshot.  The sweep holds that Gram and its
    # buffers, but no second array of its size: the rotated state the pairs
    # would form (6**4 * 4**4 amplitudes, as large as the Gram) is never formed.
    # The traced peak leaves out the working copy of the Gram that
    # numpy.linalg.eigvalsh makes, and LAPACK's workspace: numpy allocates
    # them outside tracemalloc's view, so resident memory peaks one Gram higher.
    net = MeraNetwork.build(6, 0.5777)
    gram_bytes = 16 * 576**2
    regions = [
        Interval.of_length(net.levels, Stage.AFTER_W, i, m) for i in (0, 1) for m in (1, 2, 3, 4)
    ]
    mc_entropy_sweep(net, regions[:1], 1, seed=8)  # first call: numpy's one-time allocations
    tracemalloc.start()
    try:
        mc_entropy_sweep(net, regions, 1, seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * gram_bytes


D6_BUDGET = 131072  # between the (3, after_V) stage, 4**8, and the (3, after_W) one, 6**8


def test_a_sweep_under_a_budget_below_its_unformed_leaf_stage_runs(monkeypatch):
    net = MeraNetwork.build(6, 0.5777)
    assert (net.schedule.dims_v[3], net.schedule.dims[3]) == (4, 6)
    region = Interval.span(3, Stage.AFTER_W, 1, 2)  # odd walls: no rotation pair is cut
    free = mc_entropy_stats(net, region, 2, seed=5)
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", str(D6_BUDGET))
    capped = mc_entropy_stats(net, region, 2, seed=5)
    assert capped.samples_s.tobytes() == free.samples_s.tobytes()
    assert capped.samples_s2.tobytes() == free.samples_s2.tobytes()


@pytest.mark.parametrize(
    "ij,need",
    # one and two cut pairs, off (3, after_V); two cut splits, off (2,
    # after_W): their four children at dims_v[3] = 4, two sites at dims[2] = 9
    [((0, 0), 6**2 * 4**6), ((0, 1), 6**4 * 4**4), ((1, 4), 4**4 * 9**2)],
)
def test_a_pulled_back_state_over_the_budget_is_refused_before_any_draw(ij, need, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("an isometry was drawn before the pulled-back state was admitted")

    net = MeraNetwork.build(6, 0.5777)
    region = Interval.span(3, Stage.AFTER_W, *ij)
    cut = 2 * len(region.cut())  # sites at dims[3] = 6, the rest at dims_v[3] = 4
    assert 6**cut * 4 ** (8 - cut) == need > D6_BUDGET or not cut
    budget = min(D6_BUDGET, need - 1)  # the split read is smaller than the (3, after_V) stage
    monkeypatch.setattr(simulator, "sample_isometry", no_draw)
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", str(budget))
    # refused for the state it would form, not for the leaf stage it never forms
    with pytest.raises(FeasibilityError, match=rf"^dense build needs exp\({math.log(need):.4g}\)"):
        mc_entropy_stats(net, region, 2, seed=5)


def test_every_read_is_admitted_at_the_size_it_reads():
    # the read-state row that `build_rows` admits, from the schedule alone,
    # against the read layout of the snapshot and isometries the sweep passes
    net = MeraNetwork.build(6, 0.5777)
    traj = build_state(net, 3)
    regions = [
        Interval.of_length(k, stage, i, m)
        for k in range(net.levels + 1)
        for stage in ([Stage.AFTER_W] if k == 0 else [Stage.AFTER_V, Stage.AFTER_W])
        for i in range(1 << k)
        for m in range((1 << k) + 1)
        if m or not i
    ]
    for iv in regions:
        snap, moves = simulator._pulled_back(traj, iv)
        _, rows = simulator.build_rows(net, None, [iv])
        admitted = [math.prod(d**e for d, e in factors) for _, factors, what in rows if "to read" in what]
        dims, _ = simulator._read_layout(snap, moves)
        assert admitted == ([math.prod(dims)] if moves else []), iv
    assert len(regions) == 176


@pytest.mark.parametrize(
    "level,stage,i,length",
    [(4, Stage.AFTER_V, 2, 4), (5, Stage.AFTER_V, 2, 4), (4, Stage.AFTER_W, 1, 2)],
)
def test_a_region_deeper_than_the_network_is_refused_before_any_admission(
    net_l3, monkeypatch, level, stage, i, length
):
    # (4, after_V) sites 2:5 used to take the free move down to a level 3
    # region and read a plausible entropy off it; the others raised IndexError
    def no_call(*args, **kwargs):
        raise AssertionError("admitted or drawn before the region's level was checked")

    monkeypatch.setattr(simulator, "admit", no_call)
    monkeypatch.setattr(simulator, "sample_isometry", no_call)
    left = Interval.of_length(level, stage, i, length)
    right = Interval.of_length(level, stage, i + length, 2)
    message = f"^interval level {level} exceeds network depth 3$"
    with pytest.raises(UsageError, match=message):
        mc_entropy_sweep(net_l3, [Interval.of_length(3, Stage.AFTER_W, 0, 2), left], 2, seed=1)
    with pytest.raises(UsageError, match=message):
        mc_mutual_information(net_l3, [(left, right)], 2, seed=1)
    with pytest.raises(UsageError, match=message):
        simulator.build_rows(net_l3, None, [left])
    with pytest.raises(UsageError, match=message):
        cut_dp(net_l3, left)


def test_tiles_of_uneven_size_give_the_dense_results():
    # mixed site dimensions make row blocks and column boxes of uneven size
    rng = np.random.default_rng(8)
    dims = (3, 5, 2, 7, 3)
    amps = rng.standard_normal(math.prod(dims)) + 1j * rng.standard_normal(math.prod(dims))
    state = DenseState(
        level=0, stage=Stage.AFTER_W, site_dims=dims, amplitudes=amps / np.linalg.norm(amps)
    )
    for region in ([], [1], [3, 0], [4, 1, 2], [0, 2, 3, 4], [2, 0, 4, 1, 3]):
        spec = interval_spectrum(state, region)
        assert np.max(np.abs(spec - _svd_spectrum(state, region))) < 1e-14
        a = np.moveaxis(state.as_tensor(), region, range(len(region)))
        a = a.reshape(math.prod(dims[s] for s in region), -1)
        # the Gram fills the lower triangle, and its diagonal tiles whole
        gram = simulator._gram(state, (), dims, *simulator._cut(state, region))
        assert np.max(np.abs(np.tril(gram) - np.tril(a @ a.conj().T))) < 1e-14


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gram_spectra_match_the_svd_on_drawn_site_dimensions(data):
    dims = tuple(data.draw(st.lists(st.integers(1, 7), min_size=1, max_size=6), label="dims"))
    assume(math.prod(dims) <= 1 << 12)
    rng = np.random.default_rng(data.draw(st.integers(0, 1 << 16), label="seed"))
    amps = rng.standard_normal(math.prod(dims)) + 1j * rng.standard_normal(math.prod(dims))
    state = DenseState(
        level=0, stage=Stage.AFTER_W, site_dims=dims, amplitudes=amps / np.linalg.norm(amps)
    )
    # any sites in any order: gaps and reversals make non-contiguous cuts
    region = data.draw(st.permutations(range(len(dims))), label="order")
    region = region[: data.draw(st.integers(0, len(dims)), label="size")]
    spec = interval_spectrum(state, region)
    svd = _svd_spectrum(state, region)
    assert len(spec) == len(svd)
    assert np.max(np.abs(spec - svd)) <= 1e-14


def test_a_known_spectrum_across_the_clamp_is_recovered():
    # 12 Schmidt weights from 1 down to 1e-14, none within a factor 3 of the
    # 1e-12 clamp, on a 16 x 64 cut of five sites of dimension 4
    lam = np.geomspace(1.0, 1e-14, 12)
    lam /= lam.sum()
    u = sample_isometry(16, 16, seed=(50, 0))[:, :12]
    v = sample_isometry(12, 64, seed=(50, 1))
    amps = (u * np.sqrt(lam)) @ v.T
    state = DenseState(
        level=0, stage=Stage.AFTER_W, site_dims=(4,) * 5, amplitudes=amps.reshape(-1)
    )
    expected = np.concatenate([lam, np.zeros(4)])
    kept = lam[lam > 1e-12]
    s_exact = float(-(kept * np.log(kept)).sum())
    for region in ([0, 1], [2, 3, 4], [4, 2, 3]):
        spec = interval_spectrum(state, region)
        assert len(spec) == 16
        assert np.all(np.diff(spec) <= 0.0) and np.all(spec >= 0.0)
        assert np.max(np.abs(spec - expected)) <= 1e-15
        assert entropy_vn(spec) == pytest.approx(s_exact, abs=1e-13)
    assert len(kept) == 10


def test_a_lopsided_cut_reads_the_state_without_copying_it(traj_l4):
    # The traced peak leaves out eigvalsh's working copy of the Gram, which
    # numpy allocates outside tracemalloc's view; the bound is on the rest.
    leaf = traj_l4.leaf
    interval_spectrum(leaf, [5])  # first call: numpy's one-time allocations
    for region in ([5], [0, 1], [15, 0, 1], list(range(3, 16))):
        tracemalloc.start()
        try:
            interval_spectrum(leaf, region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < leaf.amplitudes.nbytes / 4


def test_the_build_peak_is_at_most_two_final_state_sizes():
    # leaf dimension 6 on 8 sites: the 26 MiB leaf is most of the trajectory,
    # and each snapshot is copied from the working tensor at most once
    net = MeraNetwork.build(6, 0.5777)
    tracemalloc.start()
    try:
        traj = build_state(net, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(s.amplitudes.nbytes for s in traj.snapshots.values())
    assert traj.leaf.amplitudes.nbytes > kept / 2
    assert peak <= 2 * kept


def test_snapshots_are_read_only(traj_l3):
    for st in traj_l3.snapshots.values():
        assert not st.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            st.amplitudes[0] = 0.0


def test_children_of_one_parent_inherit_its_spectrum(traj_l4, net_l4):
    # Splitting is an isometry on the parent site, so the two children
    # together carry exactly the parent's reduced spectrum; in particular
    # their rank is capped by the parent dimension (6), not the ambient 9.
    child_spec = interval_spectrum(traj_l4.state_at(3, Stage.AFTER_V), [2, 3])
    parent_spec = interval_spectrum(traj_l4.state_at(2, Stage.AFTER_W), [1])
    assert (child_spec > 1e-12).sum() <= net_l4.schedule.dims[2]
    k = max(len(child_spec), len(parent_spec))
    a = np.pad(child_spec, (0, k - len(child_spec)))
    b = np.pad(parent_spec, (0, k - len(parent_spec)))
    assert np.max(np.abs(a - b)) < 1e-10


def test_interval_and_complement_have_the_same_spectrum(traj_l4):
    iv = Interval.span(4, Stage.AFTER_W, 1, 5)
    comp = Interval.span(4, Stage.AFTER_W, 6, 0)
    a = interval_spectrum(traj_l4.leaf, iv)
    b = interval_spectrum(traj_l4.leaf, comp)
    k = min(len(a), len(b))
    assert np.max(np.abs(a[:k] - b[:k])) < 1e-8
    assert float(a[k:].sum()) < 1e-10


@pytest.mark.parametrize("level,i,j", [(4, 1, 2), (4, 1, 4), (4, 3, 6), (3, 1, 2), (3, 1, 4)])
def test_pair_aligned_intervals_ignore_the_rotation_layer(traj_l4, net_l4, level, i, j):
    # Start odd, end even: the interval covers whole rotated pairs, so
    # undoing the rotation cannot change its reduced spectrum.
    after_w = interval_spectrum(
        traj_l4.state_at(level, Stage.AFTER_W), Interval.span(level, Stage.AFTER_W, i, j)
    )
    after_v = interval_spectrum(
        traj_l4.state_at(level, Stage.AFTER_V), Interval.span(level, Stage.AFTER_V, i, j)
    )
    k = max(len(after_w), len(after_v))
    a = np.pad(after_w, (0, k - len(after_w)))
    b = np.pad(after_v, (0, k - len(after_v)))
    assert np.max(np.abs(a - b)) < 1e-10


def test_single_site_entropy_is_capped_by_the_site_dimension(traj_l4, net_l4):
    for level in range(1, net_l4.levels + 1):
        for stage in (Stage.AFTER_V, Stage.AFTER_W):
            sched = net_l4.schedule
            cap = math.log((sched.dims_v if stage is Stage.AFTER_V else sched.dims)[level])
            st = traj_l4.state_at(level, stage)
            for site in range(1 << level):
                assert entropy_vn(interval_spectrum(st, [site])) <= cap + 1e-9


def test_moving_an_endpoint_changes_entropy_by_at_most_the_site_log(traj_l4):
    base = Interval.span(4, Stage.AFTER_W, 3, 8)
    s_base = entropy_vn(interval_spectrum(traj_l4.leaf, base))
    step = math.log(2.0)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            moved = Interval.span(4, Stage.AFTER_W, 3 + di, 8 + dj)
            s_moved = entropy_vn(interval_spectrum(traj_l4.leaf, moved))
            assert s_base <= s_moved + step * (abs(di) + abs(dj)) + 1e-8


def test_mutual_information_basics(net_l4):
    def mi(left, right):
        return mc_mutual_information(net_l4, [(left, right)], trials=1, seed=11)[0].samples[0]

    left = Interval.span(4, Stage.AFTER_W, 0, 3)
    right = Interval.span(4, Stage.AFTER_W, 4, 7)
    assert mi(left, right) >= -1e-8

    empty = Interval.of_length(4, Stage.AFTER_W, 0, 0)
    assert mi(left, empty) == pytest.approx(0.0, abs=1e-10)

    half = Interval.span(4, Stage.AFTER_W, 0, 7)
    other = Interval.span(4, Stage.AFTER_W, 8, 15)
    leaf = build_state(net_l4, seed=(11, 0)).leaf  # trial 0 of seed 11
    s_half = entropy_vn(interval_spectrum(leaf, half))
    assert mi(half, other) == pytest.approx(2 * s_half, abs=1e-8)

    with pytest.raises(UsageError):
        mi(half, Interval.span(4, Stage.AFTER_W, 7, 9))


def test_two_site_state_mutual_information_saturates_purity(net_tiny):
    # On a pure two-site state S(union) = 0 and S(x) = S(y), so the mutual
    # information equals 2 S(x) exactly and stays below 2 log 2.
    traj = build_state(net_tiny, seed=(6, 0))  # trial 0 of seed 6
    x = Interval.of_length(1, Stage.AFTER_W, 0, 1)
    y = Interval.of_length(1, Stage.AFTER_W, 1, 1)
    s_x = entropy_vn(interval_spectrum(traj.leaf, x))
    mi = mc_mutual_information(net_tiny, [(x, y)], trials=1, seed=6)[0].samples[0]
    assert mi == pytest.approx(2 * s_x, abs=1e-10)
    assert 0.0 < mi <= 2 * math.log(2.0) + 1e-12


def test_product_state_has_zero_correlation_witness():
    rng = np.random.default_rng(17)
    left = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    right = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    left /= np.linalg.norm(left)
    right /= np.linalg.norm(right)
    state = DenseState(
        level=2,
        stage=Stage.AFTER_W,
        site_dims=(2, 2, 2, 2),
        amplitudes=np.kron(left, right),
    )
    x = Interval.of_length(2, Stage.AFTER_W, 0, 2)
    y = Interval.of_length(2, Stage.AFTER_W, 2, 2)

    def s(region):
        return entropy_vn(interval_spectrum(state, region))

    assert s(x) + s(y) - s(x.sites() + y.sites()) == pytest.approx(0.0, abs=1e-10)


def test_monte_carlo_entropies_match_a_manual_loop(net_l3):
    iv = Interval.of_length(3, Stage.AFTER_W, 1, 2)
    stats = mc_entropy_stats(net_l3, iv, trials=5, seed=9)
    assert len(stats.samples_s) == 5
    for t in range(5):
        traj = build_state(net_l3, (9, t))
        spec = interval_spectrum(traj.leaf, iv)
        assert stats.samples_s[t] == pytest.approx(entropy_vn(spec), abs=1e-10)
        assert stats.samples_s2[t] == pytest.approx(entropy_renyi2(spec), abs=1e-10)
    again = mc_entropy_stats(net_l3, iv, trials=5, seed=9)
    assert np.array_equal(stats.samples_s, again.samples_s)


def test_sample_summaries_are_consistent(net_l3):
    iv = Interval.of_length(3, Stage.AFTER_W, 0, 3)
    stats = mc_entropy_stats(net_l3, iv, trials=8, seed=2)
    assert stats.mean_s == pytest.approx(float(stats.samples_s.mean()), abs=1e-14)
    assert stats.mean_exp_neg_s2 == pytest.approx(
        float(np.exp(-stats.samples_s2).mean()), abs=1e-14
    )
    assert stats.stderr_s > 0
    assert np.all(stats.samples_s >= stats.samples_s2 - 1e-10)


def _cli_pairs(level, offset, lengths):
    """The adjacent pairs ``randmera mutual-info`` builds, which share intervals."""
    n = 1 << level
    return [
        (
            Interval.of_length(level, Stage.AFTER_W, offset % n, length),
            Interval.of_length(level, Stage.AFTER_W, (offset + length) % n, length),
        )
        for length in lengths
    ]


def test_monte_carlo_mutual_information_matches_a_manual_loop(net_l3):
    # the sweep reads every region off a snapshot and the isometries its
    # walls cut, and so does this loop;
    # `test_pulled_back_spectra_match_the_leaf_snapshot` compares that route
    # with the leaf state at a stated tolerance
    pairs = _cli_pairs(3, 5, (1, 2, 4))
    res = mc_mutual_information(net_l3, pairs, trials=4, seed=14)
    assert [(r.left, r.right) for r in res] == pairs

    def s_vn(traj, region):
        snap, rotations = simulator._pulled_back(traj, region)
        return entropy_vn(interval_spectrum(snap, region, rotations))

    for t in range(4):
        traj = build_state(net_l3, (14, t))
        assert traj.key == (14, t)
        for r in res:
            union = Interval.of_length(3, Stage.AFTER_W, r.left.i, r.left.length + r.right.length)
            manual = s_vn(traj, r.left) + s_vn(traj, r.right)
            manual -= s_vn(traj, union)
            assert len(r.samples) == 4
            assert r.samples[t] == manual
            assert r.samples[t] >= -1e-8


def test_shared_regions_are_read_once_per_trial(net_l3, monkeypatch):
    regions = []

    def spectrum(state, region, rotations=()):
        regions.append(region)
        return interval_spectrum(state, region, rotations)

    monkeypatch.setattr(simulator, "interval_spectrum", spectrum)
    mc_mutual_information(net_l3, _cli_pairs(3, 0, (1, 2, 4)), trials=2, seed=3)
    # (0,1) (1,1) (0,2) (2,2) (0,4) (4,4) (0,8): the union of one pair is the next left
    assert len(regions) == 2 * 7 and len(set(regions)) == 7


def test_a_mismatched_pair_is_rejected_before_any_draw(net_l3, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("build_state called before the pairs were checked")

    monkeypatch.setattr(simulator, "build_state", no_draw)

    def iv(i, length, stage=Stage.AFTER_W):
        return Interval.of_length(3, stage, i, length)

    good = (iv(0, 2), iv(2, 2))
    bad = [
        ("one ring and stage", (iv(0, 2), iv(2, 2, Stage.AFTER_V))),
        ("start on the site after", (iv(0, 2), iv(3, 2))),  # non-adjacent
        ("start on the site after", (iv(0, 3), iv(2, 2))),  # overlapping
        ("does not fit on the ring", (iv(6, 5), iv(3, 4))),  # wraps onto the left
    ]
    for message, pair in bad:
        with pytest.raises(UsageError, match=message):
            mc_mutual_information(net_l3, [good, pair], trials=2, seed=1)


@pytest.mark.parametrize("sweep", ["entropy", "mutual_information"])
def test_a_second_trial_does_not_hold_the_first_draw(net_l4, sweep):
    left = Interval.of_length(4, Stage.AFTER_W, 1, 3)
    right = Interval.of_length(4, Stage.AFTER_W, 4, 3)

    def run(trials):
        if sweep == "entropy":
            mc_entropy_stats(net_l4, left, trials, seed=5)
        else:
            mc_mutual_information(net_l4, [(left, right)], trials, seed=5)

    run(1)  # first call: numpy's one-time allocations
    # Neither traced peak counts eigvalsh's working copy of a Gram, which
    # numpy allocates outside tracemalloc's view.
    peaks = []
    for trials in (1, 2):
        tracemalloc.start()
        try:
            run(trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_mean_top_schmidt_weight_tracks_the_site_dimension(net_single):
    # Single-level ring of two sites: the top reduced eigenvalue of one site,
    # rescaled by the site dimension, stays within a small fixed band.
    tops = []
    x = Interval.of_length(1, Stage.AFTER_W, 0, 1)
    for s in range(30):
        traj = build_state(net_single, seed=(31, s))
        tops.append(interval_spectrum(traj.leaf, x)[0])
    scaled = 9.0 * float(np.mean(tops))
    assert 0.5 <= scaled <= 10.0
