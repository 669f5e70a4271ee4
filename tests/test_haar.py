"""Sampling of random isometries and fourth-moment closed forms."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randmera import (
    CANONICAL_CONTRACTIONS,
    FeasibilityError,
    MIXED_CONTRACTION,
    SuperOperatorSpec,
    UsageError,
    fourth_moment_exact,
    fourth_moment_mc,
    moment_constants,
    sample_isometry,
    sample_isometry_batch,
    singular_spectrum,
)
from randmera import haar
from randmera.haar import McEstimate, seed_key

SHAPES = [(1, 1), (1, 4), (2, 2), (2, 4), (3, 9), (5, 7)]


@pytest.mark.parametrize("d_in,d_out", SHAPES)
def test_sampled_matrix_is_an_isometry(d_in, d_out):
    w = sample_isometry(d_in, d_out, seed=(99, d_in, d_out))
    assert w.shape == (d_out, d_in)
    gram = w.conj().T @ w
    assert np.max(np.abs(gram - np.eye(d_in))) < 1e-12


def test_square_case_is_unitary_both_ways():
    w = sample_isometry(4, 4, seed=5)
    assert np.max(np.abs(w @ w.conj().T - np.eye(4))) < 1e-12


def test_one_by_one_case_is_a_pure_phase():
    w = sample_isometry(1, 1, seed=3)
    assert abs(abs(w[0, 0]) - 1.0) < 1e-14


def test_wider_input_than_output_is_rejected():
    with pytest.raises(UsageError):
        sample_isometry(5, 4, seed=0)


def test_same_seed_reproduces_the_same_matrix():
    a = sample_isometry(3, 9, seed=(7, 1))
    b = sample_isometry(3, 9, seed=(7, 1))
    assert np.array_equal(a, b)


def test_different_seeds_give_different_matrices():
    a = sample_isometry(3, 9, seed=(7, 1))
    b = sample_isometry(3, 9, seed=(7, 2))
    assert np.max(np.abs(a - b)) > 1e-3


def test_every_seed_form_names_one_key():
    assert seed_key(3) == seed_key(np.int64(3)) == seed_key((3,)) == (3,)
    key = seed_key((np.int64(4), 2))
    assert key == (4, 2) and all(type(s) is int for s in key)
    assert seed_key((2**128 - 1, 2**32 - 1)) == (2**128 - 1, 2**32 - 1)
    a = sample_isometry(3, 9, seed=np.int64(7))
    assert a.tobytes() == sample_isometry(3, 9, seed=(7,)).tobytes()


@pytest.mark.parametrize(
    "bad",
    [
        (),  # no master
        2.7,
        (2.7, 1),  # a float entry
        "12",
        [1, 2],  # a key is an int or a tuple
        -1,
        (4, -2),
        np.int64(-3),
        2**128,  # past four words, the master splits and aliases
        (2**128, 0),
        (0, 2**32),  # past one word, a path entry splits and aliases
    ],
)
def test_an_invalid_key_is_a_usage_error(bad):
    with pytest.raises(UsageError):
        seed_key(bad)
    with pytest.raises(UsageError):
        sample_isometry(1, 2, seed=bad)


@pytest.mark.parametrize(
    "a,b",
    [((8, 3), (8, 3, 0)), (2**32, (0, 1)), ((5,), (5, 0)), (0, (0, 0)), ((1, 0), (1, 0, 0))],
)
def test_keys_that_numpy_once_padded_alike_draw_differently(a, b):
    assert np.max(np.abs(sample_isometry(3, 9, a) - sample_isometry(3, 9, b))) > 1e-3


def test_a_key_draws_from_the_spawn_child_at_its_path(monkeypatch):
    seen = []
    default_rng = np.random.default_rng

    def spy(seq):
        seen.append(seq)
        return default_rng(seq)

    monkeypatch.setattr(np.random, "default_rng", spy)
    sample_isometry(3, 9, (8, 3, 1))
    child = np.random.SeedSequence(8).spawn(4)[3].spawn(2)[1]
    assert (seen[0].entropy, seen[0].spawn_key) == (child.entropy, child.spawn_key) == (8, (3, 1))
    assert np.array_equal(seen[0].generate_state(8), child.generate_state(8))


# sha256 of the bytes of draws keyed by a bare int, written before keys took
# the spawn tree: SeedSequence(s) is the old SeedSequence((s,)), bit for bit
INT_KEYED_SHA256 = {
    "sample_isometry_batch(3, 9, 4, 7)": "ecb7749e0bbf66fc77b1f31a5947ef23c7f77ad42a618f4c6994a71680bb3924",
    "singular_spectrum(8:4:4, seed=3)": "f09a200cccfe1fad60a839c3a8a0b220464b20f2aa0a01a6478a9a576b573eaf",
}


def test_int_keyed_draws_are_unchanged():
    batch = sample_isometry_batch(3, 9, 4, 7)
    values = singular_spectrum(SuperOperatorSpec(8, 4, 4, seed=3)).values
    got = {
        "sample_isometry_batch(3, 9, 4, 7)": hashlib.sha256(batch.tobytes()).hexdigest(),
        "singular_spectrum(8:4:4, seed=3)": hashlib.sha256(values.tobytes()).hexdigest(),
    }
    assert got == INT_KEYED_SHA256


_KEYS = st.builds(
    lambda master, path: (master, *path),
    st.integers(0, 2**128 - 1),
    st.lists(st.integers(0, 2**32 - 1), max_size=4),
)


def _words(key):
    master, *path = seed_key(key)
    return tuple(np.random.SeedSequence(master, spawn_key=path).generate_state(4))


@settings(max_examples=200, deadline=None)
@given(a=_KEYS, b=_KEYS, zeros=st.integers(1, 3))
def test_distinct_keys_give_distinct_entropy_words(a, b, zeros):
    assert _words(a) != _words((*a, *(0,) * zeros))
    if a != b:
        assert _words(a) != _words(b)


@pytest.mark.parametrize("d_in,d_out", SHAPES)
def test_one_isometry_is_the_first_of_a_batch_of_one(d_in, d_out):
    w = sample_isometry(d_in, d_out, seed=(8, d_in))
    assert type(w) is np.ndarray and w.shape == (d_out, d_in)
    assert w.tobytes() == sample_isometry_batch(d_in, d_out, 1, seed=(8, d_in))[0].tobytes()


def test_batch_sampling_is_reproducible_and_orthonormal():
    batch = sample_isometry_batch(2, 4, trials=25, seed=11)
    again = sample_isometry_batch(2, 4, trials=25, seed=11)
    assert batch.shape == (25, 4, 2)
    assert np.array_equal(batch, again)
    gram = np.einsum("tij,tik->tjk", batch.conj(), batch)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12


def test_matrix_entries_are_spread_uniformly_over_columns():
    # Every entry of a column has mean squared modulus 1/d_out.
    batch = sample_isometry_batch(2, 4, trials=100_000, seed=42)
    sq = np.abs(batch[:, 0, 0]) ** 2
    se = sq.std(ddof=1) / math.sqrt(len(sq))
    assert abs(sq.mean() - 0.25) < 4 * se


@pytest.mark.parametrize("d1,d2", [(2, 2), (2, 4), (3, 9), (4, 4), (5, 7), (1, 2), (1, 5)])
def test_moment_constants_solve_their_defining_equations(d1, d2):
    # The second route: contracting the moment identity of a d1 -> d2
    # isometry against the two trace patterns gives a 2x2 linear system in
    # (c, c'), whose right-hand sides are d1**2 and d1.  It is singular at
    # d1 = 1, where its two rows coincide, but the Weingarten values still
    # solve it.
    c, c_prime = moment_constants(d2)
    a = d1**2 * d2**2 + d1 * d2
    b = d1**2 * d2 + d1 * d2**2
    assert c * a + c_prime * b == pytest.approx(d1**2, abs=1e-12)
    assert c_prime * a + c * b == pytest.approx(d1, abs=1e-12)


def test_moment_constants_match_hand_computed_values():
    c, c_prime = moment_constants(4)
    assert c == pytest.approx(1 / 15, abs=1e-15)
    assert c_prime == pytest.approx(-1 / 60, abs=1e-15)
    c, c_prime = moment_constants(2)
    assert c == pytest.approx(1 / 3, abs=1e-15)
    assert c_prime == pytest.approx(-1 / 6, abs=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_square_case_reduces_to_the_unitary_constants(d):
    c, c_prime = moment_constants(d)
    assert c == pytest.approx(1 / (d**2 - 1), rel=1e-13)
    assert c_prime == pytest.approx(-1 / (d * (d**2 - 1)), rel=1e-13)


@pytest.mark.parametrize("d_out,d_in", [(1, 1), (1, 5)])
def test_degenerate_dimensions_are_rejected(d_out, d_in):
    # Into dimension 1 an isometry is a phase, with no Weingarten values,
    # whatever width it comes from: there are no constants to read, and no
    # closed form for a moment built from them.
    with pytest.raises(UsageError, match="no Weingarten values at output dimension 1"):
        moment_constants(d_out)
    with pytest.raises(UsageError):
        fourth_moment_exact(d_in, d_out, MIXED_CONTRACTION)


def test_input_wider_than_output_is_rejected_for_constants():
    with pytest.raises(UsageError, match=r"invalid dimensions \(3, 1\)"):
        fourth_moment_exact(3, 1, MIXED_CONTRACTION)


def test_pure_state_constant_matches_direct_enumeration():
    # For a unit vector in dimension d, E[w_i conj(w)_k w_a conj(w)_c] is
    # (d_ik d_ac + d_ic d_ka) / (d (d + 1)), the symmetric-subspace projector
    # over its dimension; the two Weingarten values sum to that coefficient.
    for d in (2, 4):
        c, c_prime = moment_constants(d)
        assert c + c_prime == pytest.approx(1 / (d * (d + 1)), abs=1e-15)


@pytest.mark.parametrize("d1,d2", [(2, 4), (3, 9), (4, 4), (1, 4)])
def test_trace_patterns_have_exact_closed_forms(d1, d2):
    assert fourth_moment_exact(d1, d2, CANONICAL_CONTRACTIONS["direct"]) == pytest.approx(
        d1**2, rel=1e-12
    )
    assert fourth_moment_exact(d1, d2, CANONICAL_CONTRACTIONS["exchange"]) == pytest.approx(
        d1**2, rel=1e-12
    )
    assert fourth_moment_exact(
        d1, d2, CANONICAL_CONTRACTIONS["direct_rows_exchange_cols"]
    ) == pytest.approx(d1, rel=1e-12)
    assert fourth_moment_exact(
        d1, d2, CANONICAL_CONTRACTIONS["exchange_rows_direct_cols"]
    ) == pytest.approx(d1, rel=1e-12)


def test_trace_patterns_are_sample_independent():
    # (tr W+W)^2 and its three relatives are fixed by the isometry property,
    # so the Monte Carlo mean is exact and the error bar is float noise.
    est = fourth_moment_mc(2, 4, CANONICAL_CONTRACTIONS["direct"], trials=64, seed=8)
    assert est.value == pytest.approx(4.0, abs=1e-10)
    assert est.stderr < 1e-10


def test_mixed_pattern_value_uses_the_pure_state_constant_at_width_one():
    val = fourth_moment_exact(1, 4, MIXED_CONTRACTION)
    assert val == pytest.approx(2 * 4 / (4 * 5), rel=1e-12)


@pytest.mark.parametrize("d1,d2", [(2, 4), (3, 9), (4, 4), (1, 4)])
def test_mixed_pattern_monte_carlo_matches_the_closed_form(d1, d2):
    exact = fourth_moment_exact(d1, d2, MIXED_CONTRACTION)
    est = fourth_moment_mc(d1, d2, MIXED_CONTRACTION, trials=20_000, seed=(6, d1, d2))
    assert est.stderr > 0
    assert abs(est.value - exact) < 4 * est.stderr + 1e-9


def test_monte_carlo_reports_the_requested_trial_count():
    est = fourth_moment_mc(2, 4, MIXED_CONTRACTION, trials=128, seed=0)
    assert est.trials == 128


def test_a_moment_batch_over_the_budget_is_refused_before_its_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a batch was drawn before it was admitted")

    monkeypatch.setattr(haar, "sample_isometry_batch", no_draw)
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", "799")  # 100 isometries of 4 x 2 are 800
    with pytest.raises(FeasibilityError, match=r"^a batch of 100 isometries 4x2 needs 800 amplitudes"):
        fourth_moment_mc(2, 4, MIXED_CONTRACTION, trials=100, seed=0)
    # bad inputs are usage errors, checked before the batch is sized
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", "1")
    with pytest.raises(UsageError, match="trials must be positive"):
        fourth_moment_mc(2, 4, MIXED_CONTRACTION, trials=0, seed=0)
    with pytest.raises(UsageError, match="no isometry into a smaller space"):
        fourth_moment_mc(4, 2, MIXED_CONTRACTION, trials=100, seed=0)
    with pytest.raises(UsageError, match=r"^seed \(340282366920938463463374607431768211456,\)"):
        fourth_moment_mc(2, 4, MIXED_CONTRACTION, trials=100, seed=2**128)
    with pytest.raises(UsageError, match=r"^unknown pairing 'ik\|ca'"):
        fourth_moment_mc(2, 4, ("ik|ca", "jb|ld"), trials=100, seed=0)


def test_mc_estimate_is_the_mean_and_its_standard_error():
    x = np.array([0.3, -1.25, 2.0, 0.125, 7.5])
    est = McEstimate.of(x)
    assert est.value == float(x.mean())
    assert est.stderr == float(x.std(ddof=1) / math.sqrt(5))
    assert est.trials == 5
    one = McEstimate.of(np.array([2.5]))
    assert (one.value, one.stderr, one.trials) == (2.5, math.inf, 1)
