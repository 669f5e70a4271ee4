"""Ascending super-operator: matricization, singular values, and collapse."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from randmera import (
    FeasibilityError,
    McEstimate,
    SuperOperatorSpec,
    UsageError,
    collapse_experiment,
    frobenius_exact,
    mp_edge,
    sample_isometry,
    singular_spectrum,
)
from randmera import spectra
from randmera.spectra import SingularSpectrum, _real_form


def _superop_from_matrix(w, d_A, d_B, d_E):
    """Matricization of the scaled channel, shape (d_B^2, d_A^2): the oracle.

    Row index is the unit-matrix pair (b, c) flattened row-major; column
    index the pair (a, f).  With ``P[(b, a), e] = W[b, e, a]`` the entries
    are those of ``sqrt(d_B/d_A) P P^dagger`` with the index pairs regrouped.
    """
    p = w.reshape(d_B, d_E, d_A).transpose(0, 2, 1).reshape(d_B * d_A, d_E)
    g = math.sqrt(d_B / d_A) * (p @ p.conj().T)
    return g.reshape(d_B, d_A, d_B, d_A).transpose(0, 2, 1, 3).reshape(d_B * d_B, d_A * d_A)


def _build_superop(spec):
    """The matricized map of the isometry that `singular_spectrum` draws for ``spec``."""
    w = sample_isometry(spec.d_A, spec.d_B * spec.d_E, spec.seed)
    return _superop_from_matrix(w, spec.d_A, spec.d_B, spec.d_E)


def _complex_svd(spec):
    """Singular values of the complex matricization, zero-padded to d_B^2."""
    values = np.linalg.svd(_build_superop(spec), compute_uv=False)
    return np.pad(values, (0, spec.d_B**2 - len(values)))


def _superop_by_explicit_partial_trace(w, d_A, d_B, d_E):
    """Column-by-column construction of the same map, written independently.

    Applies ``O -> sqrt(d_B/d_A) tr_E(W O W+)`` to every matrix unit with
    explicit loops, giving a (d_B^2, d_A^2) matrix to compare against the
    vectorized builder.
    """
    out = np.zeros((d_B * d_B, d_A * d_A), dtype=complex)
    wt = w.reshape(d_B, d_E, d_A)
    scale = math.sqrt(d_B / d_A)
    col = 0
    for a in range(d_A):
        for f in range(d_A):
            unit = np.zeros((d_A, d_A), dtype=complex)
            unit[a, f] = 1.0
            big = w @ unit @ w.conj().T  # (d_B d_E) x (d_B d_E)
            big = big.reshape(d_B, d_E, d_B, d_E)
            traced = scale * np.trace(big, axis1=1, axis2=3)
            out[:, col] = traced.reshape(-1)
            col += 1
    assert wt.shape == (d_B, d_E, d_A)
    return out


def test_spec_validation_and_derived_ratios():
    spec = SuperOperatorSpec(d_A=50, d_B=10, d_E=10, seed=3)
    assert spec.label == "50:10:10"
    with pytest.raises(UsageError):
        SuperOperatorSpec(d_A=101, d_B=10, d_E=10)  # not enough room
    with pytest.raises(UsageError):
        SuperOperatorSpec(d_A=0, d_B=2, d_E=2)


def test_spectrum_length_is_the_square_of_the_output_dimension():
    sp = singular_spectrum(SuperOperatorSpec(d_A=6, d_B=3, d_E=4, seed=0))
    assert len(sp.values) == 9
    assert all(a >= b for a, b in zip(sp.values, sp.values[1:]))
    with pytest.raises(UsageError):
        SingularSpectrum(spec=sp.spec, values=sp.values[:-1])


@pytest.mark.parametrize("dims", [(4, 2, 3), (6, 3, 4), (9, 3, 3)])
def test_vectorized_builder_matches_the_explicit_partial_trace(dims):
    d_A, d_B, d_E = dims
    w = sample_isometry(d_A, d_B * d_E, seed=(1, *dims))
    fast = _superop_from_matrix(w, d_A, d_B, d_E)
    slow = _superop_by_explicit_partial_trace(w, d_A, d_B, d_E)
    assert fast.shape == (d_B * d_B, d_A * d_A)
    assert np.max(np.abs(fast - slow)) < 1e-10


def _hermitian_basis(d):
    """``U = ((1+i) I + (1-i) S) / 2`` on pairs (b, c), ``S`` the pair swap."""
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    return ((1 + 1j) * np.eye(d * d) + (1 - 1j) * swap) / 2


@pytest.mark.parametrize(
    "dims",
    [
        (4, 2, 3),  # wide
        (3, 5, 2),  # tall
        (4, 4, 4),  # square
        (1, 3, 5),  # d_A = 1
        (6, 6, 1),  # d_E = 1
        (5, 9, 3),  # tall, d_B = 9: blocks of one row
        (3, 33, 2),  # d_B = 33: blocks of two rows and a last of one
    ],
)
def test_the_hermitian_basis_makes_the_map_real(dims):
    d_A, d_B, d_E = dims
    w = sample_isometry(d_A, d_B * d_E, 6)
    m = _superop_from_matrix(w, d_A, d_B, d_E)
    u_a, u_b = _hermitian_basis(d_A), _hermitian_basis(d_B)
    for u in (u_a, u_b):
        assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) < 1e-15
    rotated = u_b.conj().T @ m @ u_a
    assert np.max(np.abs(rotated.imag)) <= 1e-14
    # the real form `singular_spectrum` reads off the Choi product, unscaled
    r = _real_form(w, d_A, d_B, d_E)
    assert np.max(np.abs(rotated.real - math.sqrt(d_B / d_A) * r)) <= 1e-14


@pytest.mark.parametrize("dims", [(1, 4, 4), (3, 5, 2), (6, 6, 1), (40, 20, 10), (30, 30, 30), (3, 33, 2)])
def test_the_real_form_rounds_as_the_whole_choi_product(dims):
    # a block's entries are the whole product's own sums, so the spectra do
    # not depend on the block rule
    d_A, d_B, d_E = dims
    w = sample_isometry(d_A, d_B * d_E, 2)
    p = w.reshape(d_B, d_E, d_A).transpose(0, 2, 1).reshape(d_B * d_A, d_E)
    g = (p @ p.conj().T).reshape(d_B, d_A, d_B, d_A)
    whole = (g.real.transpose(0, 2, 1, 3) + g.imag.transpose(0, 2, 3, 1)).reshape(d_B**2, d_A**2)
    assert np.array_equal(_real_form(w, d_A, d_B, d_E), whole)


@pytest.mark.parametrize(
    "dims",
    [
        (12, 12, 12),  # square
        (40, 20, 10),  # wide
        (80, 10, 10),  # wide
        (9, 3, 3),  # wide, d_A = d_B d_E
        (5, 9, 3),  # tall: d_A < d_B
        (6, 6, 1),  # d_E = 1, square
        (4, 7, 1),  # d_E = 1, tall
        (1, 4, 2),  # d_A = 1
    ],
)
def test_the_spectrum_matches_a_complex_svd_of_the_map(dims):
    spec = SuperOperatorSpec(*dims, seed=3)
    values = singular_spectrum(spec).values
    assert values.dtype == np.float64
    assert np.max(np.abs(values - _complex_svd(spec))) < 1e-13


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("dims", [(30, 30, 30), (40, 20, 10), (20, 20, 20)])
def test_the_spectrum_matches_a_complex_svd_on_the_benchmark_shapes(dims, seed):
    # the Gram route's error grows as sigma_1^2 / sigma: check it where the
    # spectra are longest
    spec = SuperOperatorSpec(*dims, seed=seed)
    assert np.max(np.abs(singular_spectrum(spec).values - _complex_svd(spec))) < 1e-13


@pytest.mark.parametrize("dims", [(3, 5, 2), (1, 3, 5)])
def test_a_narrow_input_pads_the_spectrum_with_exact_zeros(dims):
    d_A, d_B, _ = dims
    spec = SuperOperatorSpec(*dims, seed=2)
    values = singular_spectrum(spec).values
    assert len(values) == d_B**2
    oracle = np.linalg.svd(_build_superop(spec), compute_uv=False)
    assert len(oracle) == d_A**2
    assert np.max(np.abs(values[: d_A**2] - oracle)) < 1e-13
    assert np.all(values[d_A**2 :] == 0.0)


def test_the_spectrum_peak_stays_near_one_map():
    # the route holds the real form (half a map), then it and its Gram (half
    # a map); LAPACK's copy of the Gram is allocated outside `tracemalloc`,
    # so resident memory, not this peak, shows the eigensolve
    spec = SuperOperatorSpec(30, 30, 30, seed=1)
    map_bytes = (30 * 30) ** 2 * 16
    tracemalloc.start()
    try:
        singular_spectrum(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * map_bytes


def test_map_output_is_deterministic_in_the_spec_seed():
    spec = SuperOperatorSpec(d_A=5, d_B=3, d_E=2, seed=9)
    assert np.array_equal(_build_superop(spec), _build_superop(spec))
    other = SuperOperatorSpec(d_A=5, d_B=3, d_E=2, seed=10)
    assert np.max(np.abs(_build_superop(spec) - _build_superop(other))) > 1e-3


def test_map_preserves_trace_and_positivity():
    spec = SuperOperatorSpec(d_A=6, d_B=3, d_E=2, seed=4)
    m = _build_superop(spec)
    rng = np.random.default_rng(0)
    scale = math.sqrt(spec.d_B / spec.d_A)
    for _ in range(25):
        o = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        o = o - np.trace(o) / 6 * np.eye(6)  # traceless input
        img = (m @ o.reshape(-1)).reshape(3, 3)
        assert abs(np.trace(img)) < 1e-10 * np.linalg.norm(o)
        rho = o @ o.conj().T  # positive input
        img = (m @ rho.reshape(-1)).reshape(3, 3) / scale
        assert np.min(np.linalg.eigvalsh((img + img.conj().T) / 2)) > -1e-10


def test_trivial_environment_makes_the_map_an_exact_isometry():
    # d_E = 1 with d_A = d_B means conjugation by a unitary: every singular
    # value is exactly 1.
    sp = singular_spectrum(SuperOperatorSpec(d_A=8, d_B=8, d_E=1, seed=5))
    assert np.max(np.abs(sp.values - 1.0)) < 1e-10


@pytest.mark.parametrize("dims", [(8, 4, 2), (9, 3, 3)])
def test_at_y_one_every_singular_value_is_one(dims):
    # d_A = d_B d_E: the isometry is a unitary, and the scaled channel is an
    # isometry on operators
    for seed in range(5):
        values = singular_spectrum(SuperOperatorSpec(*dims, seed=seed)).values
        assert np.max(np.abs(values - 1.0)) < 1e-14


def test_frobenius_closed_form_values():
    assert frobenius_exact(50, 10, 10) == pytest.approx(50.495049504950494, rel=1e-12)
    # unitary conjugation preserves the full Frobenius weight d_B^2
    assert frobenius_exact(8, 8, 1) == pytest.approx(64.0, rel=1e-12)
    # width-one input, a random pure state: the mass is d_B E[tr rho_B^2],
    # which is d_B (d_B + d_E) / (d_B d_E + 1)
    assert frobenius_exact(1, 2, 2) == pytest.approx(2 * (2 + 2) / (2 * 2 + 1), rel=1e-12)


@pytest.mark.parametrize(
    "dims,message",
    [
        ((-3, 2, 2), "d_A must be a positive integer"),  # was -1.6
        ((2, -1, -3), "d_B must be a positive integer"),  # was 1.0
        ((0, 2, 2), "d_A must be a positive integer"),  # was a ZeroDivisionError
        ((5, 2, 2), "d_B\\*d_E = 4 must be at least d_A = 5"),
    ],
)
def test_the_closed_form_refuses_a_shape_that_no_map_has(dims, message):
    with pytest.raises(UsageError, match=message):
        frobenius_exact(*dims)
    with pytest.raises(UsageError, match="d_E must be a positive integer"):
        mp_edge(3, 3, 0)  # the edge reads the closed form's shape rule


@pytest.mark.parametrize("dims", [(50, 10, 10), (12, 4, 5), (9, 3, 3), (1, 3, 5)])
def test_frobenius_monte_carlo_agrees_with_the_closed_form(dims):
    d_A, d_B, d_E = dims
    exact = frobenius_exact(d_A, d_B, d_E)
    masses = [
        np.sum(singular_spectrum(SuperOperatorSpec(d_A, d_B, d_E, seed=77_000 + t)).values ** 2)
        for t in range(200)
    ]
    est = McEstimate.of(np.array(masses))
    assert est.trials == 200
    assert abs(est.value - exact) < 4 * est.stderr + 1e-9


def test_leading_value_sits_near_one_with_a_clear_gap():
    gaps = []
    for seed in range(10):
        sp = singular_spectrum(SuperOperatorSpec(80, 10, 10, seed=seed))
        assert 0.9 < sp.values[0] < 1.1
        gaps.append(float(sp.values[0] - sp.values[1]))
    assert min(gaps) > 0.02


def _mean_second_value(d, seeds):
    values = [singular_spectrum(SuperOperatorSpec(d, d, d, seed=s)).values[1] for s in seeds]
    return float(np.mean(values))


def test_second_value_scaling_tracks_the_inverse_square_root():
    ratios = [_mean_second_value(d, range(3, 7)) * math.sqrt(d) for d in (6, 10, 14)]
    mid = sum(ratios) / len(ratios)
    assert all(abs(r - mid) < 0.25 * mid for r in ratios)
    # doubling d shrinks the second value by roughly 1/sqrt(2)
    ten, twenty = (_mean_second_value(d, range(5, 11)) for d in (10, 20))
    assert 0.6 < twenty / ten < 0.82


@pytest.mark.parametrize("d,edge_sqrt_d", [(4, 1.98820), (6, 1.99614), (8, 1.99829)])
def test_the_edge_of_a_cubic_map_is_near_two_over_root_d(d, edge_sqrt_d):
    # the quarter circle of radius 2 / sqrt(d), less the top value's unit of mass
    assert mp_edge(d, d, d) * math.sqrt(d) == pytest.approx(edge_sqrt_d, abs=1e-5)


@pytest.mark.parametrize("dims", [(30, 30, 30), (40, 20, 10), (72, 12, 12)])
def test_the_edge_tends_to_root_y_times_one_plus_the_dimension_ratio(dims):
    d_A, d_B, d_E = dims
    limit = math.sqrt(d_A / (d_B * d_E)) * (1 + d_B / d_A)
    assert mp_edge(*dims) == pytest.approx(limit, rel=2e-3)


@pytest.mark.parametrize("dims", [(30, 30, 30), (20, 20, 20), (40, 20, 10)])
def test_the_mean_second_value_sits_just_below_the_edge(dims):
    # measured 0.993, 0.992 and 0.999; an edge built from F, not F - 1, reads
    # 0.977 and 0.968 at the first two shapes
    second = np.mean([singular_spectrum(SuperOperatorSpec(*dims, seed=s)).values[1] for s in range(4)])
    assert 0.98 <= second / mp_edge(*dims) <= 1.01


@pytest.mark.parametrize("dims", [(1, 4, 4), (4, 1, 4), (1, 1, 1)])
def test_the_edge_needs_d_A_and_d_B_of_at_least_two(dims):
    with pytest.raises(UsageError, match="must be at least 2"):
        mp_edge(*dims)


def test_collapse_rows_drop_the_leading_value_and_rescale():
    specs = [SuperOperatorSpec(3, 3, 3, seed=1), SuperOperatorSpec(8, 4, 4, seed=2)]
    curves = collapse_experiment(specs)
    assert [len(curve) for curve in curves] == [9 - 1, 16 - 1]
    for spec, curve in zip(specs, curves):
        values = singular_spectrum(spec).values
        edge = mp_edge(spec.d_A, spec.d_B, spec.d_E)
        assert curve.tolist() == [values[i] / edge for i in range(1, spec.d_B**2)]


def test_a_map_over_the_budget_is_refused_before_its_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a map was drawn before it was admitted")

    monkeypatch.setattr(spectra, "sample_isometry", no_draw)
    monkeypatch.delenv("RANDMERA_MAX_AMPLITUDES", raising=False)
    big = SuperOperatorSpec(100, 100, 2)  # a real form of 10**8 amplitudes
    with pytest.raises(FeasibilityError, match="^map 100:100:2 needs 100000000 amplitudes"):
        singular_spectrum(big)
    with pytest.raises(UsageError, match=r"^seed \(-1,\)"):  # a bad seed before the budget
        SuperOperatorSpec(100, 100, 2, seed=-1)
    # every map is admitted before the first draw, and before any edge
    for specs in ([SuperOperatorSpec(4, 4, 4), big], [SuperOperatorSpec(2, 1, 2), big]):
        with pytest.raises(FeasibilityError, match="^map 100:100:2 needs"):
            collapse_experiment(specs)


def test_collapse_validation():
    with pytest.raises(UsageError):
        collapse_experiment([])
    with pytest.raises(UsageError):
        collapse_experiment([SuperOperatorSpec(3, 3, 3), SuperOperatorSpec(2, 1, 2)])
