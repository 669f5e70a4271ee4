"""Bond-dimension schedules: the ceilinged decay recursion and its reports."""

from __future__ import annotations

import math

import pytest
from conftest import build_admitted

from randmera import (
    FeasibilityError,
    MeraNetwork,
    UsageError,
    find_epsilon,
    schedule_report,
    solve_schedule,
)


def unrounded_log_dims(leaf_dim, epsilon, m_max):
    """Real-valued reference recursion without the integer ceilings.

    Iterates the same two rows in units of log-dimension per covered leaf
    (``t_m = log dims[L-m] / 2**m``), where both rows together reduce to
    ``t_{m+1} = t_m - 1.5 epsilon``; this keeps 20+ doublings free of float
    blow-up.  Returns ``log dims[L - m]`` for ``m = 0 .. m_max``.
    """
    t = math.log(leaf_dim)
    out = []
    for m in range(m_max + 1):
        out.append(t * (1 << m))
        t = t - 1.5 * epsilon
    return out


def closed_form_log_dim(leaf_dim, epsilon, m):
    """Closed form ``2**m log(leaf_dim) - 3 m epsilon 2**(m-1)`` of the recursion."""
    return (1 << m) * math.log(leaf_dim) - 3.0 * m * epsilon * (2.0 ** (m - 1))


CASES = [(2, 0.22), (2, 0.35), (2, 0.5057021323536758), (3, 0.4), (4, 0.9), (5, 1.2)]


def integer_reference(leaf_dim, epsilon):
    """``(levels, dims, dims_v)`` from the recursion run on integers, or ``None``.

    This is the solver as it stood before it moved to log dimensions: every
    dimension is a Python integer ``max(1, ceil(exp(x)))``, and it gives up
    (``None``) once ``x`` passes 600 or the level cap.
    """
    up, up_v = [leaf_dim], []
    while True:
        scale = epsilon * (1 << len(up_v))
        x = math.log(up[-1]) - scale
        if x > 600:
            return None
        up_v.append(max(1, math.ceil(math.exp(x))))
        x = 2.0 * math.log(up_v[-1]) - scale
        if x > 600:
            return None
        up.append(max(1, math.ceil(math.exp(x))))
        if up[-1] == 1:
            return len(up_v), tuple(reversed(up)), (1, *reversed(up_v))
        if len(up_v) >= 128:
            return None


# every leaf dimension 2-16 on a 0.01 grid of epsilon, with the values the
# CLI tests, CI and the benchmark run
GRID = [
    (leaf, eps)
    for leaf in range(2, 17)
    for eps in [j / 100 for j in range(1, int(100 * math.log(leaf)) + 1)]
    + [e for e in (0.24652950741995638, 0.5057021323536758, 0.5777, 1.62) if e < math.log(leaf)]
    + [math.log(leaf)]
]


def test_log_dimensions_are_bit_identical_to_the_integer_recursion():
    solved = 0
    for leaf, eps in GRID:
        ref = integer_reference(leaf, eps)
        if ref is None:
            continue
        solved += 1
        levels, dims, dims_v = ref
        s = solve_schedule(leaf, eps)
        assert s.levels == levels
        for ints, logs, kept in ((dims, s.log_dims, s.dims), (dims_v, s.log_dims_v, s.dims_v)):
            assert logs == tuple(math.log(d) for d in ints)
            assert kept == tuple(d if d < 2**53 else None for d in ints)
    assert solved > 2900


@pytest.mark.parametrize("leaf,eps", CASES)
def test_schedule_ends_at_one_and_starts_at_the_leaf(leaf, eps):
    s = solve_schedule(leaf, eps)
    assert s.dims[0] == 1
    assert s.dims[-1] == leaf
    assert s.dims[1] > 1  # the recursion stops at the first trivial level
    assert len(s.dims) == s.levels + 1
    assert len(s.dims_v) == s.levels + 1
    assert s.dims_v[0] == 1


@pytest.mark.parametrize("leaf,eps", CASES)
def test_split_dimensions_never_exceed_rotated_ones(leaf, eps):
    s = solve_schedule(leaf, eps)
    for k in range(1, s.levels + 1):
        assert 1 <= s.dims_v[k] <= s.dims[k]


@pytest.mark.parametrize("leaf,eps", CASES)
def test_each_level_rounds_the_decayed_value_up_once(leaf, eps):
    # dims_v[k] = ceil(exp(log dims[k] - eps 2^(L-k))), clamped at 1, and
    # dims[k-1] = ceil(exp(2 log dims_v[k] - eps 2^(L-k))) likewise.
    s = solve_schedule(leaf, eps)
    for k in range(1, s.levels + 1):
        scale = eps * (1 << (s.levels - k))
        target_v = math.exp(math.log(s.dims[k]) - scale)
        assert s.dims_v[k] >= target_v - 1e-9
        assert s.dims_v[k] == 1 or s.dims_v[k] < target_v + 1 + 1e-9
        target_d = math.exp(2.0 * math.log(s.dims_v[k]) - scale)
        assert s.dims[k - 1] >= target_d - 1e-9
        assert s.dims[k - 1] == 1 or s.dims[k - 1] < target_d + 1 + 1e-9


def test_largest_epsilon_collapses_in_one_level():
    s = solve_schedule(2, math.log(2.0))
    assert s.levels == 1
    assert s.dims == (1, 2)
    assert s.dims_v == (1, 1)


def test_known_schedules_for_three_and_four_levels():
    s3 = solve_schedule(2, find_epsilon(2, 3))
    assert s3.dims == (1, 2, 3, 2)
    assert s3.dims_v == (1, 1, 2, 2)
    s4 = solve_schedule(2, find_epsilon(2, 4))
    assert s4.dims == (1, 4, 6, 4, 2)
    assert s4.dims_v == (1, 1, 3, 3, 2)


def test_unrounded_recursion_first_doublings():
    leaf, eps = 3, 0.1
    logs = unrounded_log_dims(leaf, eps, 2)
    assert logs[0] == pytest.approx(math.log(leaf), abs=1e-15)
    assert logs[1] == pytest.approx(2 * math.log(leaf) - 3 * eps, abs=1e-12)
    assert logs[2] == pytest.approx(4 * math.log(leaf) - 12 * eps, abs=1e-12)


@pytest.mark.parametrize("leaf,eps", [(2, 0.05), (3, 0.01), (7, 0.3)])
def test_unrounded_recursion_matches_the_closed_form_through_twenty_doublings(leaf, eps):
    logs = unrounded_log_dims(leaf, eps, 20)
    for m, val in enumerate(logs):
        ref = closed_form_log_dim(leaf, eps, m)
        assert abs(val - ref) < 1e-9 * max(1.0, abs(ref))


def test_level_count_never_increases_with_epsilon():
    grid = [0.08, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6]
    counts = [solve_schedule(2, e).levels for e in grid]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[0] > counts[-1]


# for 96 and 128 levels, the search's steps down in epsilon (by 1.5) land
# past the level cap
@pytest.mark.parametrize(
    "leaf,target",
    [(2, 1), (2, 2), (2, 3), (2, 4), (2, 6), (3, 4), (2, 16), (2, 49), (2, 96), (2, 128)],
)
def test_find_epsilon_hits_the_requested_level_count(leaf, target):
    eps = find_epsilon(leaf, target)
    assert solve_schedule(leaf, eps).levels == target


def test_no_schedule_is_deeper_than_128_levels():
    with pytest.raises(FeasibilityError, match="no termination within 128 levels"):
        solve_schedule(2, 0.003)
    with pytest.raises(FeasibilityError):
        find_epsilon(2, 129)


def test_deep_schedules_keep_logs_where_the_integers_stop():
    s = solve_schedule(2, 0.005)
    assert s.levels == 96
    assert s.dims[-1] == 2 and s.dims[0] == 1
    assert None in s.dims and None in s.dims_v
    for logs, ints in ((s.log_dims, s.dims), (s.log_dims_v, s.dims_v)):
        for x, d in zip(logs, ints):
            assert (d is None) == (x > math.log(2**53))
    assert max(s.log_dims) > 1e26


def test_solver_input_validation():
    with pytest.raises(UsageError):
        solve_schedule(1, 0.1)
    with pytest.raises(UsageError):
        solve_schedule(2, 0.0)
    with pytest.raises(UsageError):
        solve_schedule(2, -0.2)
    with pytest.raises(UsageError):
        solve_schedule(2, math.log(2.0) + 0.01)
    with pytest.raises(UsageError):
        find_epsilon(2, 0)


def test_report_rows_cover_every_level_with_doubling_scales():
    s = solve_schedule(2, find_epsilon(2, 4))
    rows = schedule_report(s)
    assert [r[0] for r in rows] == [0, 1, 2, 3, 4]
    assert [r[1] for r in rows] == [math.log(d) for d in (1, 4, 6, 4, 2)]
    assert [r[2] for r in rows] == [math.log(d) for d in (1, 1, 3, 3, 2)]
    assert [r[3] for r in rows] == [16, 8, 4, 2, 1]
    assert rows[0][4] == pytest.approx(0.0, abs=1e-15)  # log(1) at the top
    assert rows[4][4] == pytest.approx(math.log(2) / s.epsilon, rel=1e-12)


def test_the_budget_decision_is_exact_past_the_float_resolution():
    # 3**32 = 1853020188851841: its log cannot tell the peak from peak - 1
    net = MeraNetwork.build(3, find_epsilon(3, 5))
    s = net.schedule
    peak = max(d ** (1 << k) for k in range(1, s.levels + 1) for d in (s.dims_v[k], s.dims[k]))
    assert peak == 3**32 > 2**50
    assert build_admitted(net, peak) and not build_admitted(net, peak - 1)
