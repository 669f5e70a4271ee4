"""Ring geometry: pairings, parent/child maps, and interval conventions."""

from __future__ import annotations

import pytest

from randmera import Interval, Stage, UsageError, modular_distance, v_children, w_partner
from randmera.network import v_parent


def test_rotation_partner_examples():
    assert w_partner(2, 1) == 2
    assert w_partner(2, 0) == 3  # the wrap pair on a ring of four
    assert w_partner(1, 1) == 0
    assert w_partner(3, 5) == 6


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_rotation_partner_is_an_involution_pairing_odd_with_even(level):
    n = 1 << level
    for site in range(n):
        p = w_partner(level, site)
        assert w_partner(level, p) == site
        assert p != site
        assert {site % 2, p % 2} == {0, 1}
        if site % 2 == 1:
            assert p == (site + 1) % n


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_children_tile_the_ring_and_invert_the_parent_map(level):
    n_prev = 1 << (level - 1)
    seen = []
    for s in range(n_prev):
        a, b = v_children(level, s)
        assert b == a + 1
        assert v_parent(level, a) == s
        assert v_parent(level, b) == s
        seen += [a, b]
    assert sorted(seen) == list(range(1 << level))


def test_child_map_examples():
    assert v_children(1, 0) == (0, 1)
    assert v_children(4, 5) == (10, 11)
    with pytest.raises(UsageError):
        v_children(0, 0)


def test_modular_distance_picks_the_short_way_around():
    assert modular_distance(8, 7, 0) == -1
    assert modular_distance(8, 4, 0) == 4  # the tie resolves positive
    assert modular_distance(8, 3, 3) == 0
    assert modular_distance(16, 1, 15) == 2
    with pytest.raises(UsageError):
        modular_distance(0, 0, 0)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_modular_distance_is_the_minimal_representative(n):
    for a in range(n):
        for b in range(n):
            d = modular_distance(n, a, b)
            assert (a - b) % n == d % n
            assert abs(d) <= n // 2


def test_interval_constructors_and_length():
    iv = Interval.of_length(3, Stage.AFTER_W, 6, 4)
    assert (iv.i, iv.j) == (6, 1)  # wraps around the ring of eight
    assert iv.length == 4
    assert iv.sites() == [6, 7, 0, 1]
    assert not iv.is_empty and not iv.whole


def test_empty_and_whole_share_endpoints_but_not_meaning():
    empty = Interval.empty(3, Stage.AFTER_W)
    whole = Interval.whole_ring(3, Stage.AFTER_W)
    assert (empty.i, empty.j) == (whole.i, whole.j)
    assert empty.length == 0 and empty.is_empty
    assert whole.length == 8 and not whole.is_empty
    assert empty != whole


def test_span_treats_closing_endpoints_as_empty():
    iv = Interval.span(2, Stage.AFTER_V, 1, 0)
    assert iv.is_empty
    assert iv.sites() == []


def test_interval_validation_rejects_inconsistent_data():
    with pytest.raises(UsageError):
        Interval(3, Stage.AFTER_W, 0, 2, n_sites=4)  # wrong ring size
    with pytest.raises(UsageError):
        Interval(2, Stage.AFTER_W, 5, 1, n_sites=4)  # endpoint off the ring
    with pytest.raises(UsageError):
        Interval(2, Stage.AFTER_W, 0, 1, n_sites=4, whole=True)  # not closed
    with pytest.raises(UsageError):
        Interval.of_length(2, Stage.AFTER_W, 0, 5)  # longer than the ring
    with pytest.raises(UsageError):
        Interval.of_length(2, Stage.AFTER_W, 0, 4, whole_ok=False)


def test_network_ring_sizes_and_site_dimensions(net_l4):
    assert net_l4.levels == 4
    assert net_l4.n_leaves == 16
    assert [net_l4.n_sites(k) for k in range(5)] == [1, 2, 4, 8, 16]
    assert net_l4.site_dim(4, Stage.AFTER_W) == 2
    assert net_l4.site_dim(4, Stage.AFTER_V) == 2
    assert net_l4.site_dim(2, Stage.AFTER_W) == 6
    assert net_l4.site_dim(2, Stage.AFTER_V) == 3
    assert net_l4.site_dim(0, Stage.AFTER_W) == 1
    with pytest.raises(UsageError):
        net_l4.site_dim(0, Stage.AFTER_V)
    with pytest.raises(UsageError):
        net_l4.n_sites(5)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_rotation_pairs_partition_the_ring(net_l4, level):
    n = 1 << level
    pairs = net_l4.w_pairs(level)
    assert len(pairs) == n // 2
    flat = [s for p in pairs for s in p]
    assert sorted(flat) == list(range(n))
    for a, b in pairs:
        assert w_partner(level, a) == b
    assert pairs[-1] == (n - 1, 0)  # the wrap pair comes last
