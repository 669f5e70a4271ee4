"""Reduction-sequence bounds: dynamic program versus direct enumeration."""

from __future__ import annotations

import gc
import math
import random
import sys
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ReferenceEngine, _moves, brute_cut_stats, enumerate_reduction_costs
from randmera import (
    Interval,
    MeraNetwork,
    Stage,
    UsageError,
    cut_dp,
    find_epsilon,
    mi_prediction,
)
from randmera import cutbounds
from randmera.cutbounds import LOG_BRANCH, CutEngine, engine_for

# Small networks whose sequence space can be enumerated outright.
SMALL_SCHEDULES = [(2, math.log(2.0)), (2, 0.35), (2, 0.22), (3, 0.4), (4, 0.9), (5, 1.2)]


def _all_intervals(network):
    for level in range(1, network.levels + 1):
        n = 1 << level
        for stage in (Stage.AFTER_W, Stage.AFTER_V):
            for length in range(0, n + 1):
                for i in range(n if 0 < length < n else 1):
                    yield Interval.of_length(level, stage, i, length)
    yield Interval.of_length(0, Stage.AFTER_W, 0, 0)
    yield Interval.of_length(0, Stage.AFTER_W, 0, 1)


def test_dynamic_program_matches_enumeration_everywhere_on_a_small_network(net_l3):
    checked = 0
    for iv in _all_intervals(net_l3):
        b = cut_dp(net_l3, iv)
        ref_min, ref_lse, ref_lower = brute_cut_stats(net_l3, iv)
        assert b.min_cost == pytest.approx(ref_min, abs=1e-10), iv
        assert b.lse == pytest.approx(ref_lse, abs=1e-10), iv
        assert b.lower_bound == pytest.approx(ref_lower, abs=1e-10), iv
        checked += 1
    assert checked > 100


def test_dynamic_program_matches_enumeration_on_random_cases():
    rng = np.random.default_rng(2024)
    networks = [MeraNetwork.build(leaf, eps) for leaf, eps in SMALL_SCHEDULES]
    checked = 0
    for _ in range(60):
        net = networks[rng.integers(len(networks))]
        level = int(rng.integers(1, net.levels + 1))
        stage = Stage.AFTER_W if rng.integers(2) else Stage.AFTER_V
        n = 1 << level
        length = int(rng.integers(0, n + 1))
        i = int(rng.integers(0, n))
        iv = Interval.of_length(level, stage, i, length)
        b = cut_dp(net, iv)
        ref_min, ref_lse, ref_lower = brute_cut_stats(net, iv)
        assert b.min_cost == pytest.approx(ref_min, abs=1e-10), (net.schedule, iv)
        assert b.lse == pytest.approx(ref_lse, abs=1e-10), (net.schedule, iv)
        assert b.lower_bound == pytest.approx(ref_lower, abs=1e-10), (net.schedule, iv)
        checked += 1
    assert checked == 60


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dynamic_program_matches_enumeration_on_drawn_schedules(data):
    leaf = data.draw(st.integers(2, 6), label="leaf")
    eps = data.draw(st.floats(0.25, math.log(leaf)), label="epsilon")
    net = MeraNetwork.build(leaf, eps)
    assume(net.levels <= 4)  # keeps the enumeration small
    level = data.draw(st.integers(0, net.levels), label="level")
    stages = [Stage.AFTER_W] if level == 0 else [Stage.AFTER_W, Stage.AFTER_V]
    stage = data.draw(st.sampled_from(stages), label="stage")
    n = 1 << level
    iv = Interval.of_length(
        level,
        stage,
        data.draw(st.integers(0, n - 1), label="start"),
        data.draw(st.integers(0, n), label="length"),
    )
    b = cut_dp(net, iv)
    ref_min, ref_lse, ref_lower = brute_cut_stats(net, iv)
    assert b.min_cost == pytest.approx(ref_min, abs=1e-10)
    assert b.lse == pytest.approx(ref_lse, abs=1e-10)
    assert b.lower_bound == pytest.approx(ref_lower, abs=1e-10)
    assert b.argmin.cost == b.min_cost
    assert math.fsum(s.cost for s in b.argmin.steps) == pytest.approx(b.min_cost, abs=1e-10)


W, V = Stage.AFTER_W, Stage.AFTER_V


def _assert_the_memo_holds_the_walked_states(leaf, eps, queries):
    # A fresh network, so that no other test's queries are in its memo.
    # The engine keys a state (level, w, a, b), w = 1 after_W and 0 after_V.
    net = MeraNetwork.build(leaf, eps)
    walked = set()
    for iv in queries:
        cut_dp(net, iv)
        enumerate_reduction_costs(net, iv, walked)
        want = {(level, int(stage is W), a, b) for level, stage, a, b in walked}
        assert set(engine_for(net)._min) == want, iv


def test_the_memo_holds_exactly_the_states_the_queries_reach(net_l3, net_l4):
    # The memo neither skips a state a sequence passes through nor solves
    # one that no sequence reaches, query after query.
    _assert_the_memo_holds_the_walked_states(
        net_l3.schedule.leaf_dim, net_l3.schedule.epsilon, list(_all_intervals(net_l3))
    )
    rng = np.random.default_rng(5)
    queries = []
    for _ in range(16):
        level = int(rng.integers(1, net_l4.levels + 1))
        n = 1 << level
        stage = W if rng.integers(2) else V
        start, length = int(rng.integers(n)), int(rng.integers(n + 1))
        queries.append(Interval.of_length(level, stage, start, length))
    _assert_the_memo_holds_the_walked_states(
        net_l4.schedule.leaf_dim, net_l4.schedule.epsilon, queries
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_memo_holds_exactly_the_states_reached_on_drawn_schedules(data):
    leaf = data.draw(st.integers(2, 6), label="leaf")
    eps = data.draw(st.floats(0.25, math.log(leaf)), label="epsilon")
    levels = MeraNetwork.build(leaf, eps).levels
    assume(levels <= 4)  # keeps the enumeration small
    queries = []
    for _ in range(data.draw(st.integers(1, 3), label="queries")):
        level = data.draw(st.integers(0, levels), label="level")
        stage = data.draw(st.sampled_from([W] if level == 0 else [W, V]), label="stage")
        n = 1 << level
        queries.append(
            Interval.of_length(
                level,
                stage,
                data.draw(st.integers(0, n - 1), label="start"),
                data.draw(st.integers(0, n), label="length"),
            )
        )
    _assert_the_memo_holds_the_walked_states(leaf, eps, queries)


def _hex_steps(seq):
    return seq.cost.hex(), [(s.kind, s.level, s.m, s.n, s.cost.hex()) for s in seq.steps]


def _assert_the_fold_matches_the_reference(network, queries):
    # Both engines answer the same queries in turn: the same states, solved
    # in the same order, hold the same bits, and the walks take the same steps.
    engine, reference = CutEngine(network), ReferenceEngine(network)
    for iv in queries:
        got, want = engine.aggregates(iv), reference.aggregates(iv)
        assert [x.hex() for x in got] == [x.hex() for x in want], iv
        assert len(engine._min) == len(reference._min), iv
        walks = engine.argmin_sequence(iv), reference.argmin_sequence(iv)
        assert _hex_steps(walks[0]) == _hex_steps(walks[1]), iv
    assert [(k, [x.hex() for x in v]) for k, v in engine._min.items()] == [
        (k, [x.hex() for x in v]) for k, v in reference._min.items()
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_fold_matches_the_reference_on_drawn_schedules(data):
    leaf = data.draw(st.integers(2, 6), label="leaf")
    eps = data.draw(st.floats(0.04, math.log(leaf)), label="epsilon")
    net = MeraNetwork.build(leaf, eps)
    assume(net.levels <= 12)
    queries = []
    for _ in range(data.draw(st.integers(1, 6), label="queries")):
        level = data.draw(st.integers(0, net.levels), label="level")
        stage = data.draw(st.sampled_from([W] if level == 0 else [W, V]), label="stage")
        n = 1 << level
        queries.append(
            Interval.of_length(
                level,
                stage,
                data.draw(st.integers(0, n - 1), label="start"),
                data.draw(st.integers(0, n), label="length"),
            )
        )
    _assert_the_fold_matches_the_reference(net, queries)


def test_the_fold_matches_the_reference_on_every_interval_of_the_d6_network():
    net = MeraNetwork.build(6, 0.5777)
    _assert_the_fold_matches_the_reference(net, list(_all_intervals(net)))


def test_the_fold_matches_the_reference_at_depth():
    # 96 levels, whose costs pass 2**53: at every level and stage the empty
    # and whole rings and one proper interval at a drawn start, in turn the
    # shortest, the longest, half the ring and a drawn length, each stage
    # meeting all four within any four levels
    net = MeraNetwork.build(2, 0.005)
    assert net.levels == 96
    rng = random.Random(96)
    queries = []
    for level in range(net.levels + 1):
        n = 1 << level
        for stage in [W] if level == 0 else [W, V]:
            lengths = [0, n]
            if n > 1:
                proper = (1, n - 1, n // 2, rng.randint(1, n - 1))
                lengths.append(proper[(3 * level + (stage is V)) % 4])
            for length in lengths:
                queries.append(Interval.of_length(level, stage, rng.randrange(n), length))
    _assert_the_fold_matches_the_reference(net, queries)


def test_the_argmin_walk_reads_only_solved_states(net_l4):
    # The fold solves every state the walk can reach, so a missing one is a
    # broken memo, reported rather than solved again.
    iv = Interval.of_length(4, Stage.AFTER_W, 2, 5)
    engine = CutEngine(net_l4)
    state = engine.state_of(iv)
    engine.aggregates(iv)
    assert engine.argmin_sequence(iv).height > 1
    engine._min = {state: engine._min[state]}
    with pytest.raises(KeyError):
        engine.argmin_sequence(iv)


def _branches(engine, state):
    """``(price, successor, (m, n))`` of each branch of ``state``, in `_moves`' order."""
    level, w, a, b = state
    mask, w2 = (1 << level) - 1, 1 - w
    left, right = _moves((engine._log_d if w else engine._log_dv)[level], w, a & 1, b & 1)
    return [
        (
            pa + pb,
            (level - 1 + w, w2, ((a + da) & mask) >> w2, ((b + db) & mask) >> w2),
            ((a + da) & mask, (b + db - 1) & mask),
        )
        for da, pa in left
        for db, pb in right
    ]


def _count_round_calls(monkeypatch):
    calls = []

    def counted(x, ndigits):
        calls.append(x)
        return round(x, ndigits)

    monkeypatch.setattr(cutbounds, "round", counted, raising=False)
    return calls


# First steps on the 12-level (2, 0.05) network: three with two branches,
# then three with four.  Each group has one step away from the ring's seam,
# then steps where a wall's move or its n wraps the seam, so that the walk's
# tie order is not always down before up.
NEAR_TIE_QUERIES = [
    (12, W, 1, 101),
    (12, W, 0, 101),
    (12, V, 4000, 97),
    (12, V, 1, 100),
    (12, V, 3001, 1096),
    (12, V, 4095, 100),
]


@pytest.mark.parametrize("gap", [0.0, 4e-13, 1.5e-12, 3e-12])
@pytest.mark.parametrize("magnitude", [1.0, 1e4])
def test_the_walk_breaks_near_ties_as_rounding_every_total_does(net_big, monkeypatch, magnitude, gap):
    # The successors' min_cost entries are overwritten so that one branch's
    # total lies near R, a 12-decimal number above the price plus
    # ``magnitude``, another ``gap`` above it and the rest 1 above.  The
    # reference rounds every total; the engine rounds only a total within
    # 2e-12 of the smallest that the (m, n, branch index) rule prefers to
    # it, and both walks must take the same steps.
    calls = _count_round_calls(monkeypatch)
    for query in NEAR_TIE_QUERIES:
        iv = Interval.of_length(*query)
        engine = CutEngine(net_big)
        engine.aggregates(iv)
        solved = engine._min
        branches = _branches(engine, engine.state_of(iv))
        assert len(branches) in (2, 4) and all(nxt[2] != nxt[3] for _, nxt, _ in branches)
        price = branches[0][0]
        r = round(price + magnitude, 12)
        for low in range(len(branches)):
            for near in range(len(branches)):
                if near == low:
                    continue
                memo = dict(solved)
                totals = {}
                for k, (_, nxt, _) in enumerate(branches):
                    target = r - 2e-13 + (0.0 if k == low else gap if k == near else 1.0)
                    memo[nxt] = (target - price, *memo[nxt][1:])
                    totals[k] = price + memo[nxt][0]
                t_low, t_near = totals[low], totals[near]
                if magnitude == 1.0:
                    # the premise: equal, alike to 12 decimals, or not
                    assert (t_low == t_near) == (gap == 0.0)
                    assert (round(t_low, 12) == round(t_near, 12)) == (gap < 1e-12)
                reference = ReferenceEngine(net_big)
                engine._min = reference._min = memo
                del calls[:]
                got = engine.argmin_sequence(iv)
                assert _hex_steps(got) == _hex_steps(reference.argmin_sequence(iv)), (query, low, near)
                preferred = (*branches[near][2], near) < (*branches[low][2], low)
                assert bool(calls) == (preferred and 0.0 < t_near - t_low <= 2e-12), (query, low, near)


def test_the_walk_rounds_nothing_where_ties_are_exact(monkeypatch):
    # Every interval of the (6, 0.5777) network: some steps meet exact ties,
    # none a near one, so the walk calls no round at all.
    net = MeraNetwork.build(6, 0.5777)
    engine = CutEngine(net)
    intervals = list(_all_intervals(net))
    for iv in intervals:
        engine.aggregates(iv)
    ties = 0
    for state in engine._min:
        totals = sorted(
            p + (0.0 if nxt[2] == nxt[3] else engine._min[nxt][0]) for p, nxt, _ in _branches(engine, state)
        )
        ties += len(totals) > 1 and totals[0] == totals[1]
    assert ties > 0
    calls = _count_round_calls(monkeypatch)
    for iv in intervals:
        engine.argmin_sequence(iv)
    assert calls == []


# float.hex of (min_cost, lse, lower_bound) and the argmin steps, written
# "<kind><level> <m>..<n> <step cost>", on the 12-level (2, 0.05) network
GOLDEN_L12 = [
    (
        (12, W, 1, 31),
        ("0x1.3118a6e66ff8dp+4", "0x1.236c41773becfp+4", "0x1.376c1795aa0cdp+1"),
        (
            "W12 1..30 0x1.62e42fefa39efp-1",
            "V12 2..29 0x1.62e42fefa39efp+0",
            "W11 1..14 0x0.0p+0",
            "V11 2..13 0x1.62e42fefa39efp+1",
            "W10 1..6 0x0.0p+0",
            "V10 2..5 0x1.485042b318c51p+2",
            "W9 1..2 0x0.0p+0",
            "V9 2..1 0x1.22c5577a7bf99p+3",
        ),
    ),
    (
        (12, V, 100, 777),
        ("0x1.0e6fbfa374238p+8", "0x1.0ce7546522212p+8", "0x1.db00dc179528bp+7"),
        (
            "V12 100..877 0x1.62e42fefa39efp-1",
            "W11 49..438 0x1.62e42fefa39efp+0",
            "V11 50..437 0x1.62e42fefa39efp+1",
            "W10 25..218 0x0.0p+0",
            "V10 26..217 0x1.485042b318c51p+2",
            "W9 13..108 0x0.0p+0",
            "V9 14..109 0x1.22c5577a7bf99p+3",
            "W8 7..54 0x0.0p+0",
            "V8 8..53 0x1.f8c1df31e1a2fp+3",
            "W7 5..26 0x1.df2845cee9564p+3",
            "V7 6..25 0x1.abf513db11200p+4",
            "W6 3..12 0x0.0p+0",
            "V6 4..11 0x1.5f28470e4bb94p+5",
            "W5 3..4 0x1.458ead74b21fap+6",
            "V5 4..3 0x1.125b7a417eec7p+6",
        ),
    ),
    (
        (11, W, 2040, 16),
        ("0x1.3c2fc865ed15dp+4", "0x1.37b6a5e34d0b3p+4", "0x1.d23db5bc84318p+2"),
        (
            "W11 2041..6 0x1.62e42fefa39efp+1",
            "V11 2042..5 0x1.62e42fefa39efp+1",
            "W10 1021..2 0x0.0p+0",
            "V10 1022..1 0x1.485042b318c51p+2",
            "W9 511..0 0x0.0p+0",
            "V9 0..511 0x1.22c5577a7bf99p+3",
        ),
    ),
    (
        (9, V, 511, 3),
        ("0x1.a75b48daf44a0p+3", "0x1.a7547065a9ae3p+3", "0x1.2245b6e116ee6p+3"),
        (
            "V9 0..1 0x1.22c5577a7bf99p+2",
            "W8 1..0 0x1.15f89d1db64d3p+3",
        ),
    ),
    (
        (6, W, 5, 20),
        ("0x1.3a258c0511dacp+8", "0x1.3a258c04c56c5p+8", "0x1.2dab8655a51a2p+8"),
        (
            "W6 5..24 0x0.0p+0",
            "V6 6..23 0x1.5f28470e4bb94p+5",
            "W5 3..10 0x1.458ead74b21fap+5",
            "V5 4..9 0x1.125b7a417eec7p+6",
            "W4 3..4 0x1.f183c14fcaa5bp+5",
            "V4 4..3 0x1.8b1d5ae9643f4p+6",
        ),
    ),
    (
        (6, V, 63, 1),
        ("0x1.5f28470e4bb94p+4", "0x1.5f28470e4bb94p+4", "0x1.3de2e28fd4626p+4"),
        (
            "V6 0..63 0x1.5f28470e4bb94p+4",
        ),
    ),
]



@pytest.mark.parametrize("query,aggregates,steps", GOLDEN_L12)
def test_aggregates_and_argmin_are_pinned_to_the_last_bit(net_big, query, aggregates, steps):
    b = cut_dp(net_big, Interval.of_length(*query))
    assert (b.min_cost.hex(), b.lse.hex(), b.lower_bound.hex()) == aggregates
    assert b.argmin.cost == b.min_cost
    got = tuple(f"{s.kind}{s.level} {s.m}..{s.n} {s.cost.hex()}" for s in b.argmin.steps)
    assert got == steps


def test_empty_interval_costs_nothing(net_l4):
    b = cut_dp(net_l4, Interval.of_length(4, Stage.AFTER_W, 0, 0))
    assert (b.min_cost, b.lse, b.lower_bound) == (0.0, 0.0, 0.0)
    assert b.height_of_argmin == 0
    assert math.copysign(1.0, b.lse) == 1.0  # +0.0, not -0.0


def test_whole_ring_is_pure_and_free(net_l4):
    b = cut_dp(net_l4, Interval.of_length(4, Stage.AFTER_W, 0, 16))
    assert b.min_cost == 0.0
    assert b.lse == 0.0
    assert all(step.cost == 0.0 for step in b.argmin.steps)
    assert b.height_of_argmin == 0  # its walls meet, as the empty set's do


def test_single_leaf_site_can_retreat_immediately(net_l4):
    b = cut_dp(net_l4, Interval.of_length(4, Stage.AFTER_W, 5, 1))
    assert 0.0 < b.min_cost <= math.log(2.0) + 1e-12


def test_aggregates_are_ordered_for_every_interval(net_l4):
    # The sum over sequences includes the cheapest one, so lse <= min_cost
    # holds exactly in floats; the step-discounted minimum sits below both.
    for iv in _all_intervals(net_l4):
        b = cut_dp(net_l4, iv)
        assert b.lse <= b.min_cost
        assert b.lower_bound <= b.lse + 1e-12


def _replay_ok(network, bounds) -> bool:
    """Re-check the reported cheapest sequence step by step.

    On a two-site ring a move left and a move right land on the same site,
    so the recorded endpoints admit more than one move interpretation; the
    walk backtracks over all of them and accepts if any is fully legal and
    reproduces the reported cost.
    """
    steps = tuple(bounds.argmin.steps)
    log_d = network.schedule.log_dims
    log_dv = network.schedule.log_dims_v

    def walk(level, stage, i, length, idx, total) -> bool:
        n = 1 << level
        if length <= 0 or length >= n:  # empty or whole: the sequence ends
            return idx == len(steps) and abs(total - bounds.min_cost) < 1e-9
        if idx >= len(steps):
            return False
        s = steps[idx]
        if s.level != level or s.kind != ("W" if stage is Stage.AFTER_W else "V"):
            return False
        j = (i + length - 1) % n
        if stage is Stage.AFTER_W:
            pen, want_l, want_r = log_d[level], 1, 0
        else:
            pen, want_l, want_r = log_dv[level], 0, 1
        if s.m % 2 != want_l or s.n % 2 != want_r:
            return False
        di_opts = [0] if i % 2 == want_l else [-1, 1]
        dj_opts = [0] if j % 2 == want_r else [-1, 1]
        for di in di_opts:
            if (i + di) % n != s.m:
                continue
            for dj in dj_opts:
                if (j + dj) % n != s.n:
                    continue
                cost = pen * (abs(di) + abs(dj))
                if abs(cost - s.cost) > 1e-12:
                    continue
                new_len = length - di + dj
                t = total + cost
                if stage is Stage.AFTER_W:
                    if walk(level, Stage.AFTER_V, s.m, new_len, idx + 1, t):
                        return True
                elif walk(level - 1, Stage.AFTER_W, s.m // 2, new_len // 2, idx + 1, t):
                    return True
        return False

    iv = bounds.interval
    return walk(iv.level, iv.stage, iv.i if iv.length else 0, iv.length, 0, 0.0)


def test_reported_cheapest_sequence_replays_to_its_cost(net_l3, net_l4):
    rng = np.random.default_rng(7)
    for net in (net_l3, net_l4):
        for _ in range(12):
            level = int(rng.integers(1, net.levels + 1))
            n = 1 << level
            stage = Stage.AFTER_W if rng.integers(2) else Stage.AFTER_V
            iv = Interval.of_length(
                level, stage, int(rng.integers(0, n)), int(rng.integers(1, n + 1))
            )
            assert _replay_ok(net, cut_dp(net, iv)), iv


def test_a_query_does_not_depend_on_what_the_memo_holds(net_l3, net_l4, net_big):
    # The argmin is walked from memoised values on every query, so an engine
    # warmed by other queries must answer exactly as a fresh one does.
    rng = np.random.default_rng(11)
    drawn = []
    for _ in range(40):
        level = int(rng.integers(1, net_big.levels + 1))
        n = 1 << level
        stage = Stage.AFTER_W if rng.integers(2) else Stage.AFTER_V
        length = int(rng.integers(0, n + 1))
        start = int(rng.integers(0, n)) if length else 0
        drawn.append(Interval.of_length(level, stage, start, length))
    for net, queries in ((net_l3, list(_all_intervals(net_l3))),
                         (net_l4, list(_all_intervals(net_l4))),
                         (net_big, drawn)):
        leaf, eps = net.schedule.leaf_dim, net.schedule.epsilon
        fresh = [cut_dp(MeraNetwork.build(leaf, eps), iv) for iv in queries]
        warmed = MeraNetwork.build(leaf, eps)
        # each answer in turn, with the queries after it in the memo, then
        # each again with every query in it
        in_turn = [cut_dp(warmed, iv) for iv in reversed(queries)][::-1]
        assert in_turn == fresh
        assert [cut_dp(warmed, iv) for iv in queries] == fresh


def test_argmin_is_deterministic(net_l4):
    iv = Interval.of_length(4, Stage.AFTER_W, 2, 5)
    a = cut_dp(net_l4, iv).argmin
    b = engine_for(net_l4).argmin_sequence(iv)
    assert a == b


def test_reflection_is_an_exact_symmetry_of_the_bounds(net_l3, net_l4):
    # The site map s -> n-1-s sends rotated pairs to rotated pairs and
    # sibling pairs to sibling pairs at every level, and commutes with the
    # halving, so every aggregate is exactly reflection invariant, to the bit.
    for net in (net_l3, net_l4):
        for iv in _all_intervals(net):
            n = iv.n_sites
            mirrored = Interval.of_length(iv.level, iv.stage, (n - 1 - iv.j) % n, iv.length)
            a, b = cut_dp(net, iv), cut_dp(net, mirrored)
            assert (b.min_cost, b.lse, b.lower_bound) == (a.min_cost, a.lse, a.lower_bound), iv


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_reflection_is_a_symmetry_on_drawn_schedules(data):
    leaf = data.draw(st.integers(2, 6), label="leaf")
    eps = data.draw(st.floats(0.25, math.log(leaf)), label="epsilon")
    net = MeraNetwork.build(leaf, eps)
    level = data.draw(st.integers(0, net.levels), label="level")
    stages = [Stage.AFTER_W] if level == 0 else [Stage.AFTER_W, Stage.AFTER_V]
    stage = data.draw(st.sampled_from(stages), label="stage")
    n = 1 << level
    length = data.draw(st.integers(0, n), label="length")
    iv = Interval.of_length(level, stage, data.draw(st.integers(0, n - 1), label="start"), length)
    mirrored = Interval.of_length(level, stage, (n - 1 - iv.j) % n, length)
    a, b = cut_dp(net, iv), cut_dp(net, mirrored)
    # min and lower bound are minima over mirrored sequences of equal cost,
    # and lse sums the mirrored branches exactly rounded
    assert (b.min_cost, b.lse, b.lower_bound) == (a.min_cost, a.lse, a.lower_bound)
    assert b.argmin.cost == a.min_cost


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_an_interval_and_its_complement_have_equal_bounds(data):
    # The complement has the same two walls in the other order, and neither
    # the alignment rules nor annihilation tell the walls apart, so the
    # aggregates are bit-equal.
    leaf = data.draw(st.integers(2, 6), label="leaf")
    eps = data.draw(st.floats(0.25, math.log(leaf)), label="epsilon")
    net = MeraNetwork.build(leaf, eps)
    level = data.draw(st.integers(0, net.levels), label="level")
    stages = [Stage.AFTER_W] if level == 0 else [Stage.AFTER_W, Stage.AFTER_V]
    stage = data.draw(st.sampled_from(stages), label="stage")
    n = 1 << level
    length = data.draw(st.integers(0, n), label="length")
    iv = Interval.of_length(level, stage, data.draw(st.integers(0, n - 1), label="start"), length)
    rest = Interval.of_length(level, stage, iv.i + length, n - length)
    a, b = cut_dp(net, iv), cut_dp(net, rest)
    assert (b.min_cost, b.lse, b.lower_bound) == (a.min_cost, a.lse, a.lower_bound)
    assert b.argmin.cost == a.min_cost
    if net.levels <= 4:  # keeps the enumeration small
        # Both argmins are cheapest sequences, of equal height where those all
        # have one height.  Where they do not, the tie-break, which reads the
        # walls in order, may pick differently: (3, 0.3125) at level 3, after_V,
        # 6 + 3 sites has height 3 and its complement height 2, both 3.5835 nats.
        cheapest = {h for c, h in enumerate_reduction_costs(net, iv) if c < a.min_cost + 1e-9}
        assert {a.height_of_argmin, b.height_of_argmin} <= cheapest


def test_translations_are_not_symmetries(net_l4):
    # Site parity fixes which endpoint alignments are free, so a shift by
    # one flips the price: at level 3 the pair-aligned [1,2] pays two
    # splitting moves (log 3 each) while [0,1] straddles a rotated pair and
    # pays two rotation moves (log 4 each).
    aligned = cut_dp(net_l4, Interval.span(3, Stage.AFTER_W, 1, 2))
    straddling = cut_dp(net_l4, Interval.span(3, Stage.AFTER_W, 0, 1))
    assert aligned.min_cost == pytest.approx(2 * math.log(3.0), abs=1e-12)
    assert straddling.min_cost == pytest.approx(2 * math.log(4.0), abs=1e-12)
    # Even a shift by two is broken by the halving: on the split ring the
    # images [2,5] and [4,7] land on differently aligned halves.
    a = cut_dp(net_l4, Interval.span(4, Stage.AFTER_V, 2, 5))
    b = cut_dp(net_l4, Interval.span(4, Stage.AFTER_V, 4, 7))
    assert abs(a.min_cost - b.min_cost) > 0.5


def test_mi_prediction_floors_the_lower_edge_at_zero(net_l4):
    # an empty right side leaves the left region as the union, so the upper
    # edge is its cheapest sequence less its floored step-discounted minimum
    left = Interval.of_length(4, Stage.AFTER_W, 1, 2)
    b = cut_dp(net_l4, left)
    assert b.lower_bound < 0.0  # the floor binds
    pred = mi_prediction(net_l4, left, Interval.of_length(4, Stage.AFTER_W, 0, 0))
    assert pred.i_upper == b.min_cost - max(0.0, b.lower_bound)


def test_interval_level_beyond_the_network_is_rejected(net_l3):
    with pytest.raises(UsageError):
        cut_dp(net_l3, Interval.of_length(4, Stage.AFTER_W, 0, 2))


def test_region_pair_validation(net_l4):
    left = Interval.of_length(4, Stage.AFTER_W, 0, 2)
    with pytest.raises(UsageError):
        mi_prediction(net_l4, left, Interval.of_length(4, Stage.AFTER_V, 2, 2))
    with pytest.raises(UsageError):
        mi_prediction(net_l4, left, Interval.of_length(4, Stage.AFTER_W, 3, 2))
    with pytest.raises(UsageError):
        mi_prediction(
            net_l4,
            Interval.of_length(4, Stage.AFTER_W, 0, 9),
            Interval.of_length(4, Stage.AFTER_W, 9, 9),
        )


def test_empty_region_gives_the_trivial_bracket(net_l4):
    left = Interval.of_length(4, Stage.AFTER_W, 0, 3)
    pred = mi_prediction(net_l4, left, Interval.of_length(4, Stage.AFTER_W, 0, 0))
    assert pred.i_lower == 0.0
    b = cut_dp(net_l4, left)
    assert pred.i_upper == pytest.approx(b.min_cost - max(0.0, b.lower_bound), abs=1e-12)


def test_bracket_edges_are_ordered_for_adjacent_pairs(net_l4):
    for length in (1, 2, 3, 4):
        for start in (0, 1, 5):
            left = Interval.of_length(4, Stage.AFTER_W, start, length)
            right = Interval.of_length(4, Stage.AFTER_W, (start + length) % 16, length)
            pred = mi_prediction(net_l4, left, right)
            assert 0.0 <= pred.i_lower <= pred.i_upper


def test_bracket_lower_edge_grows_on_a_deep_network(net_big):
    preds = []
    for length in (256, 512, 1024):
        left = Interval.of_length(12, Stage.AFTER_W, 1, length)
        right = Interval.of_length(12, Stage.AFTER_W, (1 + length) % 4096, length)
        preds.append(mi_prediction(net_big, left, right))
    lows = [p.i_lower for p in preds]
    assert all(v >= 0.0 for v in lows)
    assert lows[0] <= lows[1] <= lows[2]
    assert lows[1] > 5.0  # strictly positive from length 512 on
    assert lows[2] > lows[1] + 50.0


# float.hex of (i_lower, i_upper) for adjacent leaf blocks of length l, the
# left one starting at site 1, on the 12-level (2, 0.05) network
GOLDEN_MI_L12 = [
    (8, ("0x0.0p+0", "0x1.62e42fefa39efp+3")),
    (64, ("0x0.0p+0", "0x1.0dee2d08b26cep+5")),
    (256, ("0x0.0p+0", "0x1.1b6fae36000dcp+6")),
    (1024, ("0x1.37b66096bd708p+6", "0x1.84c0efc0a218ep+7")),
]


@pytest.mark.parametrize("length,bracket", GOLDEN_MI_L12)
def test_mi_bracket_is_pinned_to_the_last_bit(net_big, length, bracket):
    left = Interval.of_length(12, Stage.AFTER_W, 1, length)
    right = Interval.of_length(12, Stage.AFTER_W, 1 + length, length)
    pred = mi_prediction(net_big, left, right)
    assert (pred.i_lower.hex(), pred.i_upper.hex()) == bracket


def test_the_mi_bracket_walks_no_argmin(monkeypatch):
    def no_walk(self, interval):
        raise AssertionError("mi_prediction walked an argmin it does not read")

    monkeypatch.setattr(CutEngine, "argmin_sequence", no_walk)
    net = MeraNetwork.build(2, 0.05)  # a cold memo: every state is solved under the patch
    for length, bracket in GOLDEN_MI_L12:
        left = Interval.of_length(12, Stage.AFTER_W, 1, length)
        right = Interval.of_length(12, Stage.AFTER_W, 1 + length, length)
        pred = mi_prediction(net, left, right)
        assert (pred.i_lower.hex(), pred.i_upper.hex()) == bracket


def test_entropy_scaling_table_on_a_deep_network(net_big):
    # brackets of leaf intervals starting at site 1, aligned with the rotation pairing
    lengths = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]

    def table():
        bounds = [
            cut_dp(net_big, Interval.of_length(net_big.levels, Stage.AFTER_W, 1, length))
            for length in lengths
        ]
        return [(max(0.0, b.lower_bound), b.min_cost) for b in bounds]

    rows = table()
    lowers = [lo for lo, _ in rows]
    uppers = [up for _, up in rows]
    assert all(0.0 <= lo <= up for lo, up in zip(lowers, uppers))
    assert all(a <= b + 1e-12 for a, b in zip(lowers, lowers[1:]))
    assert lowers[-1] > 200.0
    assert uppers[0] == pytest.approx(math.log(2.0), abs=1e-12)
    assert table() == rows  # deterministic


def test_deep_reductions_use_at_least_logarithmic_height(net_big):
    for length in (4, 16, 64, 256, 1024):
        b = cut_dp(net_big, Interval.of_length(12, Stage.AFTER_W, 1, length))
        assert b.height_of_argmin >= 2 * math.log2(length) - 6


@pytest.mark.parametrize(
    "eps,c",
    # c(eps), measured; the leaf-2 schedules have 12, 26, 49 and 96 levels
    [(0.05, 0.8120016673874), (0.02, 0.3624389061745), (0.01, 0.2483822103879),
     (0.005, 0.1275356402917)],
)
def test_adjacent_blocks_share_three_epsilon_nats_per_leaf_at_depth(eps, c):
    # The paper's scale law: for leaf blocks of l = 2**m starting at site 1,
    # min_cost(l) + min_cost(l) - min_cost(2l) = 3 eps l - c(eps), to 1e-5
    # nats from m = 5 to L - 2: up to a scale exponentially large in 1/eps.  The closed form
    # log dims[L - m] = 2**m log 2 - 3 m eps 2**(m - 1) gives the 3 eps l.
    net = MeraNetwork.build(2, eps)
    top = net.levels

    def upper(start, length):
        return cut_dp(net, Interval.of_length(top, Stage.AFTER_W, start, length)).min_cost

    for m in range(5, top - 1):
        l = 1 << m
        mi = upper(1, l) + upper(1 + l, l) - upper(1, 2 * l)
        assert abs(mi - (3 * eps * l - c)) <= max(1e-5, 1e-12 * 3 * eps * l), m


def test_one_engine_per_network(net_l3):
    assert engine_for(net_l3) is engine_for(net_l3)


def test_an_engine_is_freed_with_its_network():
    net = MeraNetwork.build(2, 0.35)
    cut_dp(net, Interval.of_length(net.levels, Stage.AFTER_W, 1, 3))
    engine = weakref.ref(engine_for(net))
    assert engine() is not None
    del net
    gc.collect()
    assert engine() is None


def _frames_in_use() -> int:
    """Recursion depth the caller's stack counts, C calls into Python included.

    It is the limit less the frames a plain recursion can still add.
    """

    def down(k: int) -> int:
        try:
            return down(k + 1)
        except RecursionError:
            return k

    return sys.getrecursionlimit() - down(1)


def test_the_dp_answers_at_the_level_cap():
    # A cold query at the level cap recurses two `_solve` frames per level
    # below cut_dp, bounds, aggregates and _read: 2 * 128 + 4 frames above
    # this one.  The limit leaves a few more, so a third frame per level fails.
    net = MeraNetwork.build(2, find_epsilon(2, 128))
    assert net.levels == 128
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames_in_use() + 2 * 128 + 8)
    try:
        b = cut_dp(net, Interval.of_length(128, Stage.AFTER_W, 5, (1 << 127) - 5))
    finally:
        sys.setrecursionlimit(limit)
    assert b.height_of_argmin > 128
    assert 0.0 < b.lower_bound <= b.lse <= b.min_cost
