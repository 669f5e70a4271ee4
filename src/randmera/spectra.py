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
The second value is then near ``sqrt(y) (1 + d_B / d_A)``, the upper edge of
the rest of the spectrum, which tends to ``sqrt(y)`` only when ``d_A >> d_B``:
at 30:30:30, ``sqrt(y)`` is 0.183 while the second value is about 0.363.

The spectrum is taken from a real matrix.  The map preserves Hermiticity,
so with ``S`` the swap ``(b, c) -> (c, b)`` of a unit pair its matrix ``M``
obeys ``conj(M) = S M S``.  The unitary ``U = ((1+i) I + (1-i) S) / 2``
has ``conj(U) = S U``, so ``R = U_B^dagger M U_A`` is real, with the same
singular values as ``M``.  With ``P[(b, a), e] = W[b, e, a]`` the entries
of ``M`` are those of ``sqrt(d_B/d_A) P P^dagger`` (the Choi product, a
``d_B d_A x d_B d_A`` matrix ``g``) with the index pairs regrouped, so
``R`` is read straight off ``g`` without forming ``M``:
``R[(b, c), (a, f)] = Re g[b, a, c, f] + Im g[b, f, c, a]`` (unscaled).

The singular values are the square roots of the eigenvalues of the
smaller Gram of ``R`` (``R R^T`` when ``d_A > d_B``, else ``R^T R``),
scaled by ``sqrt(d_B/d_A)`` after the root.  A value ``sigma`` is exact to
about ``n eps sigma_1^2 / sigma`` (``n`` the Gram's order): absolute, not
relative, accuracy.  Over 80 maps of 16 shapes the largest departure from
a complex SVD of ``M`` was 6.3e-14, the largest relative one 7e-9 at
``sigma`` near 9e-6.  The route holds the isometry, ``g`` and ``R`` (half
the bytes of ``g``), then ``R`` and the Gram: a ``tracemalloc`` peak of
1.58 times the bytes of ``g`` at 30:30:30, where an SVD of ``R`` formed
from ``M`` holds ``g``, ``M`` and ``R`` and peaks at 2.07.  The map has
rank at most ``d_A^2``, so when ``d_A < d_B`` the spectrum is padded with
exact zeros to ``d_B^2`` values.

The module also provides the closed-form Frobenius mass (the squared
singular values sum to about ``d_A`` on average), and the rescaling
experiments that overlay spectra of different sizes on a common curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .haar import moment_constants, sample_isometry

__all__ = [
    "CollapseRow",
    "SingularSpectrum",
    "SuperOperatorSpec",
    "collapse_experiment",
    "frobenius_exact",
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


def singular_spectrum(spec: SuperOperatorSpec) -> SingularSpectrum:
    """Full descending singular spectrum of one sampled map, ``d_B^2`` values.

    The values are the square roots of the eigenvalues of the smaller Gram
    of the real form ``R``, read off the Choi product ``P P^dagger``
    (module docstring), scaled by ``sqrt(d_B/d_A)`` and zero-padded when
    ``d_A < d_B``.  Each is exact to about ``n eps sigma_1^2 / sigma``.
    """
    d_A, d_B, d_E = spec.d_A, spec.d_B, spec.d_E
    w = sample_isometry(d_A, d_B * d_E, spec.seed)
    p = w.reshape(d_B, d_E, d_A).transpose(0, 2, 1).reshape(d_B * d_A, d_E)
    g = (p @ p.conj().T).reshape(d_B, d_A, d_B, d_A)
    r = (g.real.transpose(0, 2, 1, 3) + g.imag.transpose(0, 2, 3, 1)).reshape(d_B**2, d_A**2)
    del g
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
    below ``d_B * d_E``.
    """
    if d_B * d_E < d_A:
        raise UsageError("d_B*d_E must be at least d_A")
    c, c_prime = moment_constants(d_B * d_E)
    t_direct = d_B * d_E**2 * d_A + d_B**2 * d_E * d_A**2
    t_swapped = d_B * d_E**2 * d_A**2 + d_B**2 * d_E * d_A
    return (d_B / d_A) * (c * t_direct + c_prime * t_swapped)


# The affine collapse's fitted rescaling, and the ratio y = d_A / (d_B d_E)
# that fixes d_E for a two-part dA:dB spec.  The shift 0.706 ~ sqrt(1/2) is
# the fitted edge of the y = 1/2 family's second value; the exponent 2/3
# absorbs that edge's (1 + d_B / d_A) factor and its fluctuations.  The
# Marchenko-Pastur edge is the closed form they approximate (ROADMAP item 3).
AFFINE_SHIFT = 0.706
AFFINE_EXPONENT = 2.0 / 3.0
PAIR_Y = 0.5


@dataclass(frozen=True)
class CollapseRow:
    """One rescaled point of one spectrum: (curve label, index, x, y)."""

    label: str
    index: int
    x: float
    y: float


def collapse_experiment(specs: list[SuperOperatorSpec], rescale: str) -> list[CollapseRow]:
    """Overlay several spectra after rescaling, dropping the top value.

    ``rescale="sqrt_d"`` plots ``lambda(i) * sqrt(d)`` against ``i / d^2``
    and requires each spec to have all three dimensions equal.
    ``rescale="affine"`` plots ``(lambda(i) - AFFINE_SHIFT) * d_B**AFFINE_EXPONENT``
    against ``i / d_B^2``, with the fitted constants 0.706 and 2/3 above.
    The largest singular value of each spectrum is excluded in both modes,
    so every spec needs ``d_B >= 2``: a one-value spectrum would leave no point.
    """
    if not specs:
        raise UsageError("need at least one spec")
    if rescale not in ("sqrt_d", "affine"):
        raise UsageError(f"unknown rescale mode {rescale!r}")
    for spec in specs:
        if rescale == "sqrt_d" and not spec.d_A == spec.d_B == spec.d_E:
            raise UsageError("sqrt_d mode needs d_A = d_B = d_E")
        if spec.d_B < 2:
            raise UsageError(f"map {spec.label}: d_B must be at least 2, the top value is dropped")
    rows: list[CollapseRow] = []
    for spec in specs:
        values = singular_spectrum(spec).values
        d_sq = spec.d_B**2
        for i in range(1, len(values)):
            lam = float(values[i])
            if rescale == "sqrt_d":
                ycoord = lam * math.sqrt(spec.d_B)
            else:
                ycoord = (lam - AFFINE_SHIFT) * spec.d_B**AFFINE_EXPONENT
            rows.append(CollapseRow(label=spec.label, index=i, x=i / d_sq, y=ycoord))
    return rows
