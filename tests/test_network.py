"""Ring geometry: rotation pairs, the child map, interval conventions and the pair rule."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randmera import (
    Interval,
    MeraNetwork,
    Stage,
    UsageError,
    build_state,
    interval_spectrum,
    mc_entropy_sweep,
    mc_mutual_information,
    mi_prediction,
    simulator,
)


def _partners(net, level):
    """The rotation partner of every site of ``level``, read off `MeraNetwork.w_pairs`."""
    partner = {}
    for a, b in net.w_pairs(level):
        partner[a], partner[b] = b, a
    return partner


def test_rotation_partner_examples(net_l4):
    assert _partners(net_l4, 2)[1] == 2
    assert _partners(net_l4, 2)[0] == 3  # the wrap pair on a ring of four
    assert _partners(net_l4, 1)[1] == 0
    assert _partners(net_l4, 3)[5] == 6


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_rotation_partner_is_an_involution_pairing_odd_with_even(net_l4, level):
    n = 1 << level
    partner = _partners(net_l4, level)
    assert sorted(partner) == list(range(n))
    for site in range(n):
        p = partner[site]
        assert partner[p] == site
        assert p != site
        assert {site % 2, p % 2} == {0, 1}
        if site % 2 == 1:
            assert p == (site + 1) % n


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_children_tile_the_ring_and_invert_the_parent_map(net_l4, level):
    # The splitting stage sends parent site s to the children (2s, 2s+1), so
    # each such pair carries exactly its parent's reduced spectrum: splitting
    # is an isometry on the parent.
    traj = build_state(net_l4, seed=(12, level))
    split = traj.state_at(level, Stage.AFTER_V)
    parent = traj.state_at(level - 1, Stage.AFTER_W)
    for s in range(1 << (level - 1)):
        a = interval_spectrum(split, [2 * s, 2 * s + 1])
        b = interval_spectrum(parent, [s])
        k = max(len(a), len(b))
        assert np.max(np.abs(np.pad(a, (0, k - len(a))) - np.pad(b, (0, k - len(b))))) < 1e-10


def test_interval_constructors_and_length():
    iv = Interval.of_length(3, Stage.AFTER_W, 6, 4)
    assert (iv.i, iv.j) == (6, 1)  # wraps around the ring of eight
    assert iv.length == 4
    assert iv.sites() == [6, 7, 0, 1]
    assert not iv.whole


def test_empty_and_whole_share_endpoints_but_not_meaning():
    empty = Interval.of_length(3, Stage.AFTER_W, 0, 0)
    whole = Interval.of_length(3, Stage.AFTER_W, 0, 8)
    assert (empty.i, empty.j) == (whole.i, whole.j)
    assert empty.length == 0 and not empty.whole
    assert whole.length == 8 and whole.whole
    assert empty != whole


def test_walls_are_ordered_and_meet_for_the_empty_set_and_the_whole_ring():
    iv = Interval.of_length(3, Stage.AFTER_W, 6, 4)
    rest = Interval.of_length(3, Stage.AFTER_W, 2, 4)
    assert iv.walls == (6, 2)
    assert rest.walls == (2, 6)  # the complement: the same walls, swapped
    assert Interval.of_length(3, Stage.AFTER_W, 0, 0).walls == (0, 0)
    assert Interval.of_length(3, Stage.AFTER_W, 5, 8).walls == (5, 5)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_a_rotated_pair_is_cut_exactly_when_a_wall_sits_between_its_sites(net_l3, level):
    n = 1 << level
    for length in range(n + 1):
        for i in range(n):
            iv = Interval.of_length(level, Stage.AFTER_W, i, length)
            inside = set(iv.sites())
            crossing = [
                slot
                for slot, (p, q) in enumerate(net_l3.w_pairs(level))
                if (p in inside) != (q in inside)
            ]
            assert net_l3.w_slots_cut(iv) == crossing, iv


def test_span_treats_closing_endpoints_as_empty():
    iv = Interval.span(2, Stage.AFTER_V, 1, 0)
    assert iv.length == 0
    assert iv.sites() == []


def test_interval_validation_rejects_inconsistent_data():
    with pytest.raises(UsageError):
        Interval(2, Stage.AFTER_W, 5, 1)  # start off the ring
    with pytest.raises(UsageError):
        Interval.of_length(2, Stage.AFTER_W, 0, 5)  # longer than the ring
    with pytest.raises(UsageError, match="level 0 has no after_V stage"):
        Interval.of_length(0, Stage.AFTER_V, 0, 1)  # the root ring is never split


def test_the_empty_interval_starts_at_zero(net_l3, monkeypatch):
    assert Interval.of_length(3, Stage.AFTER_W, 5, 0) == Interval.of_length(3, Stage.AFTER_W, 0, 0)
    assert Interval.span(3, Stage.AFTER_W, 5, 4) == Interval.of_length(3, Stage.AFTER_W, 0, 0)
    with pytest.raises(UsageError):
        Interval(3, Stage.AFTER_W, 5, 0)
    read = []

    def spectrum(state, region, rotations=()):
        read.append(region)
        return interval_spectrum(state, region, rotations)

    monkeypatch.setattr(simulator, "interval_spectrum", spectrum)
    empties = [Interval.of_length(3, Stage.AFTER_W, i, 0) for i in (0, 5, 7)]
    res = mc_entropy_sweep(net_l3, empties, trials=1, seed=2)
    assert read == [Interval.of_length(3, Stage.AFTER_W, 0, 0)]
    assert list(res) == read


def test_network_ring_sizes_and_site_dimensions(net_l4):
    assert net_l4.levels == 4
    assert net_l4.n_leaves == 16
    sched = net_l4.schedule
    assert (sched.dims[4], sched.dims_v[4]) == (2, 2)
    assert (sched.dims[2], sched.dims_v[2]) == (6, 3)
    assert sched.dims[0] == 1


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_rotation_pairs_partition_the_ring(net_l4, level):
    n = 1 << level
    pairs = net_l4.w_pairs(level)
    assert len(pairs) == n // 2
    flat = [s for p in pairs for s in p]
    assert sorted(flat) == list(range(n))
    for a, b in pairs:
        assert a % 2 == 1 and b == (a + 1) % n
    assert pairs[-1] == (n - 1, 0)  # the wrap pair comes last


class _Drawn(Exception):
    """Raised by a patched `build_state`: the pair was accepted before any draw."""


def _verdict(call) -> str:
    try:
        call()
    except UsageError as err:
        return str(err)
    except _Drawn:
        pass
    return "accepted"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_bracket_and_the_monte_carlo_accept_the_same_pairs(data):
    net = MeraNetwork.build(2, 0.35)
    levels = st.integers(0, net.levels)

    def stages(level):  # the root ring has no after_V stage
        return st.sampled_from([Stage.AFTER_W] if level == 0 else [Stage.AFTER_W, Stage.AFTER_V])

    level = data.draw(levels, label="level")
    n = 1 << level
    left = Interval.of_length(
        level,
        data.draw(stages(level), label="left stage"),
        data.draw(st.integers(-n, 2 * n), label="left start"),
        data.draw(st.integers(0, n), label="left length"),
    )
    right_level = data.draw(st.one_of(st.just(level), levels), label="right level")
    m = 1 << right_level
    gap = data.draw(st.one_of(st.just(0), st.integers(-2, 2)), label="gap")
    right = Interval.of_length(
        right_level,
        data.draw(
            st.one_of(st.just(left.stage), stages(right_level)) if right_level else stages(0),
            label="right stage",
        ),
        left.i + left.length + gap,
        data.draw(st.integers(0, m), label="right length"),
    )

    def no_draw(*args, **kwargs):
        raise _Drawn

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "build_state", no_draw)
        mc = _verdict(lambda: mc_mutual_information(net, [(left, right)], trials=1, seed=0))
    dp = _verdict(lambda: mi_prediction(net, left, right))
    assert dp == mc
    if dp == "accepted":
        assert left.join(right).sites() == left.sites() + right.sites()
    i = data.draw(st.integers(-2 * n, 2 * n), label="i")
    j = data.draw(st.integers(-2 * n, 2 * n), label="j")
    iv = Interval.span(level, left.stage, i, j)
    if iv.length:
        assert (iv.i, iv.j) == (i % n, j % n)
