"""Ring geometry: rotation pairs, the child map, and interval conventions."""

from __future__ import annotations

import numpy as np
import pytest

from randmera import Interval, Stage, UsageError, build_state, interval_spectrum


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
        assert a % 2 == 1 and b == (a + 1) % n
    assert pairs[-1] == (n - 1, 0)  # the wrap pair comes last
