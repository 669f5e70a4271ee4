"""Haar-random isometries and their low-order matrix-element moments.

An isometry here is a complex matrix ``W`` of shape ``(d_out, d_in)`` with
``W† W = I``.  Sampling draws a complex Gaussian matrix and orthonormalizes
it by QR, dividing out the phases of the triangular factor's diagonal so the
result is exactly Haar distributed (the plain QR of a Ginibre matrix is not).
There is one sampler, `sample_isometry_batch`, which draws a stack of
isometries from one seed; `sample_isometry` is its batch of one.

A seed is a key ``(master, *path)`` (`seed_key`): an int master below
2**128, then one int below 2**32 per derived draw (a trial, a slot
``(level, stage, position)``, a map or a pattern); an int ``s`` is ``(s,)``.
It draws from ``SeedSequence(master, spawn_key=path)``, the child numpy's
spawn tree hands out at ``path``, so distinct keys never share a stream.

The fourth moment of matrix elements,

    E[ W_ij  conj(W)_kl  W_ab  conj(W)_cd ],

is a combination of four delta patterns with two coefficients ``c`` and
``c'``.  An isometry into dimension ``d`` is the first columns of a Haar
unitary of U(d), so by Weingarten calculus (Collins and Sniady,
math-ph/0402073) the coefficients are the Weingarten values of U(d), the
same for every input width; ``moment_constants`` returns them.
``fourth_moment_exact`` and ``fourth_moment_mc`` evaluate an arbitrary
delta-pattern contraction in closed form and by Monte Carlo, which is the
oracle used to validate the closed forms.  The 2x2 system got by
contracting both sides with two independent delta patterns is a second
route to the coefficients, kept in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, admit

__all__ = [
    "McEstimate",
    "CANONICAL_CONTRACTIONS",
    "MIXED_CONTRACTION",
    "fourth_moment_exact",
    "fourth_moment_mc",
    "moment_constants",
    "sample_isometry",
    "sample_isometry_batch",
    "seed_key",
]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def seed_key(seed) -> tuple[int, ...]:
    """The key ``(master, *path)`` an int or a non-empty tuple of ints names.

    Numpy integers count as ints.  A negative entry, a master of 2**128 or
    more and a path entry of 2**32 or more raise `UsageError`: past those
    bounds numpy splits an int into several words, and keys alias again.
    """
    key = seed if isinstance(seed, tuple) else (seed,)
    if not key or not all(isinstance(s, (int, np.integer)) for s in key):
        raise UsageError(f"a seed is an int or a non-empty tuple of ints, got {seed!r}")
    master, *path = key = tuple(int(s) for s in key)
    if not (0 <= master < 1 << 128 and all(0 <= s < 1 << 32 for s in path)):
        raise UsageError(f"seed {key}: the master must be in [0, 2**128), path entries in [0, 2**32)")
    return key


def _batch_key(d_in: int, d_out: int, trials: int, seed) -> tuple[int, ...]:
    if d_in < 1 or d_out < 1:
        raise UsageError(f"dimensions must be positive, got ({d_in}, {d_out})")
    if d_in > d_out:
        raise UsageError(f"no isometry into a smaller space: d_in={d_in} > d_out={d_out}")
    if trials < 1:
        raise UsageError("trials must be positive")
    return seed_key(seed)


def sample_isometry_batch(d_in: int, d_out: int, trials: int, seed) -> np.ndarray:
    """Draw ``trials`` independent isometries as an array ``(trials, d_out, d_in)``.

    Parameters
    ----------
    d_in, d_out : int
        Positive dimensions with ``d_in <= d_out``.
    seed : int or tuple of ints
        A key ``(master, *path)`` (see `seed_key`).  The same key always
        yields the same matrices.
    """
    master, *path = _batch_key(d_in, d_out, trials, seed)
    rng = np.random.default_rng(np.random.SeedSequence(master, spawn_key=path))
    shape = (trials, d_out, d_in)
    # real, then imaginary parts; both are freed once z is formed.  One draw of
    # shape (2, ...), or keeping both parts alive through the QR, gives the same
    # numbers but raised the peak RSS of a channel-spectra run by 0.7-1.4 MiB.
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    # dividing out the diagonal phases makes the triangular factor's diagonal
    # real-positive, which removes the QR gauge freedom
    phase = np.where(np.abs(diag) == 0, 1.0, diag / np.abs(diag))
    return q * phase[..., None, :]


def sample_isometry(d_in: int, d_out: int, seed) -> np.ndarray:
    """One Haar-random isometry of shape ``(d_out, d_in)``.

    It is the batch of one that `sample_isometry_batch` draws from ``seed``.
    A path key makes any single isometry of a sampled network reproducible
    in isolation.
    """
    return sample_isometry_batch(d_in, d_out, 1, seed)[0]


# ---------------------------------------------------------------------------
# second-moment coefficients
# ---------------------------------------------------------------------------


def moment_constants(d: int) -> tuple[float, float]:
    """The fourth-moment coefficients ``(c, c')`` of a Haar isometry into dimension ``d``.

    They are the Weingarten values of U(d), ``c = 1/(d**2 - 1)`` and
    ``c' = -1/(d (d**2 - 1))``, whatever the input width: an isometry is
    the first columns of a Haar unitary.

    Raises
    ------
    UsageError
        If ``d < 2``; an isometry into dimension 1 is a phase, and U(1) has
        no Weingarten values.
    """
    if d < 2:
        raise UsageError(f"no Weingarten values at output dimension {d}: it must be at least 2")
    return 1 / (d * d - 1), -1 / (d * (d * d - 1))


# ---------------------------------------------------------------------------
# delta-pattern contractions
# ---------------------------------------------------------------------------

# The eight indices of W_ij conj(W)_kl W_ab conj(W)_cd split into row indices
# {i, k, a, c} (range d2) and column indices {j, l, b, d} (range d1).  A
# delta pattern is a perfect matching of the rows plus one of the columns.
# Each pairing maps to the einsum letters of its four indices, in the order
# i, k, a, c (rows) or j, l, b, d (columns): paired indices share a letter.
_ROW_LETTERS = {"ik|ac": "ppqq", "ic|ka": "pqqp", "ia|kc": "pqpq"}
_COL_LETTERS = {"jl|bd": "rrss", "jd|lb": "rssr", "jb|ld": "rsrs"}

# The four patterns that appear in the moment identity itself, with weights
# c, c, c', c' in this order.  Contracting the identity against the first
# gives d1**2 and against the third gives d1, independent of the sample;
# those two exact values pin down c and c'.
CANONICAL_CONTRACTIONS = {
    "direct": ("ik|ac", "jl|bd"),
    "exchange": ("ic|ka", "jd|lb"),
    "direct_rows_exchange_cols": ("ik|ac", "jd|lb"),
    "exchange_rows_direct_cols": ("ic|ka", "jl|bd"),
}

# A pattern that pairs same-tensor indices: its value varies from sample to
# sample (unlike the four above), so it exercises the Monte Carlo error bars.
MIXED_CONTRACTION = ("ia|kc", "jb|ld")


def _letters(contraction: tuple[str, str]) -> tuple[str, str]:
    """The row and column letters of a delta pattern; an unknown pairing raises `UsageError`."""
    for pairing, table in zip(contraction, (_ROW_LETTERS, _COL_LETTERS)):
        if pairing not in table:
            raise UsageError(f"unknown pairing {pairing!r}; expected one of {tuple(table)}")
    return _ROW_LETTERS[contraction[0]], _COL_LETTERS[contraction[1]]


def fourth_moment_exact(d1: int, d2: int, contraction: tuple[str, str]) -> float:
    """Closed-form value of the fourth moment contracted with a delta pattern.

    Parameters
    ----------
    contraction : (row_pairing, col_pairing)
        A pairing of the rows ``i, k, a, c`` and one of the columns
        ``j, l, b, d``, e.g. the entries of `CANONICAL_CONTRACTIONS` or a
        mixed pattern such as ``("ia|kc", "jb|ld")``.

    Each term of the moment identity pairs with the pattern through one
    pairing of the rows and one of the columns.  Two perfect matchings of
    four indices close into two loops when they are equal and into one
    otherwise, so a pairing contributes its dimension squared or to the
    first power.
    """
    _letters(contraction)
    rows, cols = contraction
    if not 1 <= d1 <= d2:
        raise UsageError(f"invalid dimensions ({d1}, {d2})")
    c, c_prime = moment_constants(d2)
    weights = (c, c, c_prime, c_prime)
    return float(
        sum(
            w * d2 ** (1 + (rp == rows)) * d1 ** (1 + (cp == cols))
            for w, (rp, cp) in zip(weights, CANONICAL_CONTRACTIONS.values())
        )
    )


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its standard error."""

    value: float
    stderr: float
    trials: int

    @classmethod
    def of(cls, samples: np.ndarray) -> "McEstimate":
        """Mean of ``samples`` and its standard error.

        The standard error is the sample standard deviation (``n - 1`` in
        the denominator) over ``sqrt(n)``; for a single sample it is ``inf``.
        """
        n = len(samples)
        stderr = float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
        return cls(value=float(samples.mean()), stderr=stderr, trials=n)


def fourth_moment_mc(
    d1: int, d2: int, contraction: tuple[str, str], trials: int, seed
) -> McEstimate:
    """Monte Carlo estimate of the fourth moment contracted with a delta pattern.

    Samples ``trials`` isometries, contracts ``W conj(W) W conj(W)`` against
    the requested delta pattern, and returns mean and standard error.  Serves
    as the oracle for `fourth_moment_exact`: the two canonical trace patterns
    are sample-independent (standard error at floating-point noise), while
    mixed patterns fluctuate and test the coefficients nontrivially.  The
    ``trials x d2 x d1`` batch is admitted (`errors.admit`) before its draw.
    """
    rows, cols = _letters(contraction)
    _batch_key(d1, d2, trials, seed)
    need = trials * d2 * d1
    batch = f"a batch of {trials} isometries {d2}x{d1} needs {need} amplitudes"
    admit(math.log(need), [(need, 1)], batch)
    w = sample_isometry_batch(d1, d2, trials, seed)
    sub = ",".join(f"t{r}{c}" for r, c in zip(rows, cols)) + "->t"
    vals = np.einsum(sub, w, w.conj(), w, w.conj())
    if np.max(np.abs(vals.imag)) > 1e-8:
        raise RuntimeError("delta-pattern contraction should be real")
    return McEstimate.of(vals.real)
