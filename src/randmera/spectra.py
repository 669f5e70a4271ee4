"""Singular spectra of the scaled coarse-graining channel.

A random isometry from dimension ``d_A`` into ``d_B * d_E`` induces the map

    O  ->  sqrt(d_B / d_A) * trace_over_E( W O W^dagger )

from ``d_A x d_A`` operators to ``d_B x d_B`` operators.  Its matricization
in the basis of elementary matrix units (row-major index pairing) is a
``d_B^2 x d_A^2`` matrix whose singular values control how fast operator
correlations die off under coarse graining.  The key dimensionless ratios
are ``x = d_B / (d_A d_E)`` and ``y = d_A / (d_B d_E)``: at ``y = 1`` the
map is an isometry on operators (all singular values exactly 1), while for
small ``x`` and ``y`` the top value sits near 1 with a gap to the rest.
The rest, the bulk, follows the Marchenko-Pastur law of a ``(d_B^2 - 1) x
(d_A^2 - 1)`` matrix whose entries share the mean Frobenius mass that the
top value leaves (`mp_edge`).  Its upper edge is about ``sqrt(y) (1 + d_B / d_A)``,
and about ``2 / sqrt(d)`` on ``d:d:d`` maps.  The law holds to about 1% for
``y <= 0.2`` with ``d_B >= 16``, and drifts (about 10%) as ``y -> 1``.

The spectrum is taken from a real matrix.  The map preserves Hermiticity,
so with ``S`` the swap ``(b, c) -> (c, b)`` of a unit pair its matrix ``M``
obeys ``conj(M) = S M S``.  The unitary ``U = ((1+i) I + (1-i) S) / 2``
has ``conj(U) = S U``, so ``R = U_B^dagger M U_A`` is real, with the same
singular values as ``M``.  With ``P[(b, a), e] = W[b, e, a]`` the entries
of ``M`` are those of ``sqrt(d_B/d_A) P P^dagger`` (the Choi product, a
``d_B d_A x d_B d_A`` matrix ``g``) with the index pairs regrouped.  With
``X`` and ``Y`` the real and imaginary parts of ``W``, the entries of
``R`` are (unscaled)

    R[(b, c), (a, f)] = Re g[b, a, c, f] + Im g[b, f, c, a]
                      = sum_e X_bea X_cef + Y_bea Y_cef + Y_bef X_cea - X_bef Y_cea.

Rows ``(b, .)`` of ``R`` need only rows ``(b, .)`` of ``g``, so `_real_form`
reads ``R`` off ``g`` a block of ``b`` rows at a time: neither ``M`` nor
the whole of ``g`` is formed.  Each entry is the complex product's own
sum, so ``R`` rounds bit for bit as when read off the whole ``g``.  Summing
the real products of ``X`` and ``Y`` instead rounds ``R`` differently (by
about ``eps / 2``), which the Gram route below turns into moves of up to
2.6e-13 in the smallest values.

The singular values are the square roots of the eigenvalues of the
smaller Gram of ``R`` (``R R^T`` when ``d_A > d_B``, else ``R^T R``),
scaled by ``sqrt(d_B/d_A)`` after the root.  A value ``sigma`` is exact to
about ``n eps sigma_1^2 / sigma`` (``n`` the Gram's order): absolute, not
relative, accuracy.  Over 80 maps of 16 shapes the largest departure from
a complex SVD of ``M`` was 6.3e-14, the largest relative one 7e-9 at
``sigma`` near 9e-6.  The route holds ``R`` (half the bytes of ``M``) and
one block of ``g``, at most an eighth of ``R`` once ``d_B >= 16``; then
``R`` and its Gram; then the Gram and LAPACK's copy of it.  At 30:30:30
the ``tracemalloc`` peak is 1.00 times the bytes of ``M`` (LAPACK's copy
is not traced), where reading ``R`` off the whole of ``g`` peaked at 1.64.
The map has rank at most ``d_A^2``, so when ``d_A < d_B`` the spectrum is
padded with exact zeros to ``d_B^2`` values.

The module also provides the closed-form Frobenius mass (the squared
singular values sum to about ``d_A`` on average), the Marchenko-Pastur
edge it sets, and the collapse that divides spectra of different sizes by
their edges to overlay them on one curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, admit
from .haar import moment_constants, sample_isometry, seed_key

__all__ = [
    "SingularSpectrum",
    "SuperOperatorSpec",
    "collapse_experiment",
    "frobenius_exact",
    "mp_edge",
    "singular_spectrum",
]


@dataclass(frozen=True)
class SuperOperatorSpec:
    """Dimensions of one random coarse-graining map, and the seed it is drawn from.

    ``seed`` is a `haar.seed_key` key ``(master, *path)``; map ``i`` of a run draws from ``(master, i)``.
    """

    d_A: int
    d_B: int
    d_E: int
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        for name in ("d_A", "d_B", "d_E"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be a positive integer")
        if self.d_B * self.d_E < self.d_A:
            raise UsageError(
                f"d_B*d_E = {self.d_B * self.d_E} must be at least d_A = {self.d_A}"
            )
        seed_key(self.seed)

    @property
    def label(self) -> str:
        return f"{self.d_A}:{self.d_B}:{self.d_E}"


@dataclass(frozen=True)
class SingularSpectrum:
    """Descending singular values of one matricized map."""

    spec: SuperOperatorSpec
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.spec.d_B**2:
            raise UsageError("spectrum length must be d_B squared")


def _real_form(w: np.ndarray, d_A: int, d_B: int, d_E: int) -> np.ndarray:
    """The real form ``R`` of the unscaled map of ``w``, shape ``(d_B^2, d_A^2)``.

    Read off the Choi product ``g = P P^dagger`` a block of ``b`` rows at a
    time (module docstring); a block is at most an eighth of ``R`` once
    ``d_B >= 16``.  At ``d_A = 1`` a block of one row would be a vector
    product, which numpy rounds differently, so ``g`` (``d_B x d_B``, no
    more entries than ``R``) is formed whole.
    """
    p = w.reshape(d_B, d_E, d_A).transpose(0, 2, 1).reshape(d_B * d_A, d_E)
    p_dagger = p.conj().T
    r = np.empty((d_B, d_B, d_A, d_A))  # [b, c, a, f]
    rows = max(1, d_B >> 4) if d_A > 1 else d_B
    for lo in range(0, d_B, rows):
        hi = min(lo + rows, d_B)
        g = (p[lo * d_A : hi * d_A] @ p_dagger).reshape(hi - lo, d_A, d_B, d_A)  # [b, a, c, f]
        np.add(g.real.transpose(0, 2, 1, 3), g.imag.transpose(0, 2, 3, 1), out=r[lo:hi])
    return r.reshape(d_B * d_B, d_A * d_A)


def _admit_map(spec: SuperOperatorSpec) -> None:
    """Admit the larger of a map's real ``d_B^2 x d_A^2`` form and its ``d_B d_E x d_A`` isometry."""
    need = max((spec.d_B * spec.d_A) ** 2, spec.d_B * spec.d_E * spec.d_A)
    admit(math.log(need), [(need, 1)], f"map {spec.label} needs {need} amplitudes")


def singular_spectrum(spec: SuperOperatorSpec) -> SingularSpectrum:
    """Full descending singular spectrum of one sampled map, ``d_B^2`` values.

    The values are the square roots of the eigenvalues of the smaller Gram
    of the real form ``R``, read off the Choi product ``P P^dagger`` a block
    of rows at a time (module docstring), scaled by ``sqrt(d_B/d_A)`` and
    zero-padded when ``d_A < d_B``.  Each is exact to about
    ``n eps sigma_1^2 / sigma``.  The map is admitted (`_admit_map`) before
    its isometry is drawn.
    """
    _admit_map(spec)
    d_A, d_B, d_E = spec.d_A, spec.d_B, spec.d_E
    r = _real_form(sample_isometry(d_A, d_B * d_E, spec.seed), d_A, d_B, d_E)
    gram = r @ r.T if d_A > d_B else r.T @ r
    del r
    values = np.sqrt(np.clip(np.linalg.eigvalsh(gram)[::-1], 0.0, None)) * math.sqrt(d_B / d_A)
    return SingularSpectrum(spec=spec, values=np.pad(values, (0, d_B * d_B - len(values))))


def frobenius_exact(d_A: int, d_B: int, d_E: int) -> float:
    """Average squared Frobenius mass of the scaled channel, closed form.

    Contracting the second-order average of four isometry entries gives

        (d_B/d_A) * [ c*(d_B d_E^2 d_A + d_B^2 d_E d_A^2)
                      + c'*(d_B d_E^2 d_A^2 + d_B^2 d_E d_A) ]

    with ``c`` and ``c'`` the Weingarten values of U(d_B d_E) (see
    `moment_constants`), which approaches ``d_A`` when ``d_A`` is well
    below ``d_B * d_E``.  A shape that no map has (a dimension below 1, or
    ``d_B * d_E < d_A``) raises `UsageError`, as `SuperOperatorSpec` does.
    """
    SuperOperatorSpec(d_A, d_B, d_E)
    c, c_prime = moment_constants(d_B * d_E)
    t_direct = d_B * d_E**2 * d_A + d_B**2 * d_E * d_A**2
    t_swapped = d_B * d_E**2 * d_A**2 + d_B**2 * d_E * d_A
    return (d_B / d_A) * (c * t_direct + c_prime * t_swapped)


def mp_edge(d_A: int, d_B: int, d_E: int) -> float:
    """Upper Marchenko-Pastur edge of the channel's spectrum below its top value.

    The bulk is that of an ``n x p`` matrix, ``n = d_B^2 - 1`` and
    ``p = d_A^2 - 1``, with entries of variance ``v = (F - 1) / (n p)``: the
    top value, near 1, takes one unit of the mean Frobenius mass ``F``
    (`frobenius_exact`).  The edge is ``sqrt(v) (sqrt(n) + sqrt(p))``.  A
    ``d_A`` or ``d_B`` below 2 leaves no bulk and raises `UsageError`.
    """
    if min(d_A, d_B) < 2:
        raise UsageError(
            f"d_A and d_B must be at least 2, not {d_A} and {d_B}: below the top value there is no bulk"
        )
    n, p = d_B * d_B - 1, d_A * d_A - 1
    v = (frobenius_exact(d_A, d_B, d_E) - 1) / (n * p)
    return math.sqrt(v) * (math.sqrt(n) + math.sqrt(p))


def collapse_experiment(specs: list[SuperOperatorSpec]) -> list[np.ndarray]:
    """Spectra to overlay, each below its top value and divided by its Marchenko-Pastur edge.

    Map ``i`` gives the ``d_B^2 - 1`` values ``values[1:] / mp_edge(d_A, d_B,
    d_E)`` of its spectrum, so every bulk ends near 1 with no fitted
    parameter; value ``i >= 1`` plots against ``i / d_B^2``.  Every map is
    admitted (`_admit_map`), then every edge computed, before the first draw.
    """
    if not specs:
        raise UsageError("need at least one spec")
    for spec in specs:
        _admit_map(spec)
    edges = [mp_edge(spec.d_A, spec.d_B, spec.d_E) for spec in specs]
    return [singular_spectrum(spec).values[1:] / edge for spec, edge in zip(specs, edges)]
