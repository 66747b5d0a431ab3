"""Sparsity indices for matrix-shaped frames and the noise-bias correction.

The central quantity is a ratio-form sparsity index mapping a p1 x p2 matrix
to [0, 1]: 1 means at most one nonzero entry, 0 means all entries equal.
Additive zero-mean noise inflates the index; ``noise_bias`` gives the
large-matrix limit of that inflation from three scalar summaries of the
shift (mean magnitude, mean square, noise variance), and ``corrected_hoyer``
subtracts it. All functions here are pure and safe to call from any thread.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError
from .kernels import matrix_totals

MOMENT_MODES = ("literal", "debias")

# Relative slack for the mean-square >= squared-mean check; covers the
# rounding error of the kernel's totals (bounded in ``kernels``).
_CS_SLACK = 1e-9

# Smallest normal float64: a sum of squares below it has lost precision.
_TINY = float(np.finfo(np.float64).tiny)


def as_image_matrix(x) -> np.ndarray:
    """Validate and coerce input to a C-contiguous float64 2-D array.

    Raises DimensionError for wrong rank or no entries (the index's floor
    of 2 is ``hoyer_from_totals``'), ValueError for non-finite entries.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got {a.ndim} dimension(s)")
    if not a.size:
        raise DimensionError(f"matrix of shape {a.shape} has no entries")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must all be finite")
    return np.ascontiguousarray(a)


def _as_int(value, what: str) -> int:
    """``value`` as an int; a float is refused, never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _count(value, what: str, least: int) -> int:
    """``_as_int(value, what)``, refused below ``least``."""
    n = _as_int(value, what)
    if n < least:
        raise ValueError(f"{what} must be >= {least}, got {n!r}")
    return n


# The reading formulas are NumPy ufuncs over arrays of k readings, run with
# overflow and invalid ignored: ``_check_moments`` reports moments that
# overflow, not a RuntimeWarning. Each public formula enters ``with _quiet():``
# in its own body, never as a decorator: before NumPy 2.0 an ``errstate`` kept
# its saved state on the instance, so one shared instance would leak it across
# nested calls and threads. Public scalar functions return floats.
_quiet = functools.partial(np.errstate, over="ignore", invalid="ignore")


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    given, for values already checked: its ``__post_init__`` does not run."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


@dataclass(frozen=True)
class SignalMoments:
    """Scalar summaries of a shift buried in noise.

    a_bar is the magnitude of the average entry, a2_bar the average squared
    entry, sigma2 the variance of the additive noise. a2_bar must be
    positive and can never fall below a_bar**2.
    """

    a_bar: float
    a2_bar: float
    sigma2: float

    def __post_init__(self):
        with _quiet():
            _check_moments(self.a_bar, self.a2_bar, self.sigma2)


def _check_moments(a_bar, a2_bar, sigma2):
    """Raise ValueError unless the moments keep the ``SignalMoments``
    contract, elementwise over k readings (a shared ``sigma2`` broadcasts),
    naming the first bad reading's first broken check. NaN fails every
    comparison, and |v| < inf is the finiteness test."""
    kept = (
        abs(a_bar) < math.inf,
        abs(a2_bar) < math.inf,
        abs(sigma2) < math.inf,
        a_bar >= 0.0,
        a2_bar > 0.0,
        sigma2 >= 0.0,
        a_bar * a_bar <= a2_bar * (1.0 + _CS_SLACK),
    )
    ok = functools.reduce(operator.and_, kept)
    bad = np.flatnonzero(np.logical_not(ok))
    if not bad.size:
        return

    def at(v):  # v at the first bad reading
        return np.broadcast_to(v, np.shape(ok)).flat[bad[0]]

    a, a2, s2 = (float(at(v)) for v in (a_bar, a2_bar, sigma2))
    messages = (
        f"a_bar must be finite, got {a!r}",
        f"a2_bar must be finite, got {a2!r}",
        f"sigma2 must be finite, got {s2!r}",
        f"a_bar must be >= 0, got {a!r}",
        f"a2_bar must be > 0, got {a2!r}",
        f"sigma2 must be >= 0, got {s2!r}",
        f"inconsistent moments: a_bar**2 = {a * a!r} exceeds a2_bar = {a2!r}",
    )
    raise ValueError(next(m for flags, m in zip(kept, messages) if not at(flags)))


def hoyer_index(x, *, clip: bool = True) -> float:
    """Sparsity of a matrix on a 0-to-1 scale.

    Computed as (sqrt(n) - |sum| / frobenius) / (sqrt(n) - 1) over the n
    entries. A constant matrix scores 0, a single-nonzero matrix scores 1,
    and the all-zero matrix scores 1 by convention (a blank frame carries no
    shift, which is as sparse as it gets). Scale- and sign-invariant over
    the whole finite range: a frame whose sum of squares overflows, or
    underflows below the smallest normal float, is read scaled to
    max|x| = 1.

    The index is Hoyer's measure, defined for non-negative data. A matrix
    with comparable positive and negative mass, every in-control residual
    (pure noise) included, reads near 1 whatever its density: its sum
    nearly cancels. No warning is raised; the value is returned as it is.

    With ``clip=False`` the raw ratio is returned; it can exceed 1 by
    O(1/sqrt(n)) when positive and negative entries nearly cancel, which is
    what diagnostics of pure-noise behaviour need to see.
    """
    m = as_image_matrix(x)
    with _quiet():
        s, ss = matrix_totals(m)
    return hoyer_from_matrix_totals(m, s, ss, clip=clip)


def hoyer_from_matrix_totals(m: np.ndarray, s: float, ss: float, *, clip: bool = True) -> float:
    """Index of the float64 matrix ``m`` from its ``matrix_totals`` sum and
    sum of squares, valid over the whole finite range.

    Lets callers that already ran the accumulation kernel (for moment
    estimation, say) derive the index without a second pass. When the sum
    of squares overflowed, or underflowed below the smallest normal float on
    a nonzero matrix, the index is read from ``m`` scaled to max|x| = 1; it
    is scale-invariant, so nothing else changes.
    """
    if not math.isfinite(ss) or (ss < _TINY and m.any()):
        m = m / np.abs(m).max()
        s, ss = matrix_totals(m)
    # Past the rescale, ss is 0 or a normal float: |s| / sqrt(ss) <= sqrt(n).
    return float(hoyer_from_totals(s, ss, m.size, clip=clip))


def hoyer_from_totals(s, ss, n: int, *, clip: bool = True) -> np.ndarray:
    """Index of n >= 2 entries from their sum ``s`` and sum of squares
    ``ss``: the one index formula, elementwise over arrays of totals (a
    matrix's or drawn ones), and the one home of its floor: it divides by
    sqrt(n) - 1, so fewer than 2 entries raise DimensionError.

    ``ss`` == 0 reads 1 (the blank-frame convention): the formula divides
    by 1 there, not 0. No rescaling happens here: totals whose ``ss``
    over- or underflowed go through ``hoyer_from_matrix_totals``, which
    holds the matrix.
    """
    if n < 2:
        raise DimensionError(f"too small for the index: need at least 2 entries, got {n}")
    root_n = math.sqrt(n)
    blank = ss == 0.0
    with _quiet():
        h = (root_n - abs(s) / np.sqrt(np.where(blank, 1.0, ss))) / (root_n - 1.0)
        h = np.where(blank, 1.0, h)
        return _unit_clamp(h) if clip else h


def _unit_clamp(x):
    """``x`` clamped to [0, 1], elementwise; NaN stays NaN."""
    return np.minimum(np.maximum(x, 0.0), 1.0)


def noise_bias(moments: SignalMoments) -> float:
    """Asymptotic inflation of the index caused by additive zero-mean noise.

    Equals a_bar * sigma2 / (sqrt(a2_bar * (a2_bar + sigma2)) *
    (sqrt(a2_bar) + sqrt(a2_bar + sigma2))), evaluated here in the
    rationalized form a_bar * (1/sqrt(a2_bar) - 1/sqrt(a2_bar + sigma2))
    which is algebraically identical and stable for tiny a2_bar. The value
    is non-decreasing in sigma2, zero at sigma2 = 0 or a_bar = 0, and
    bounded by a_bar / sqrt(a2_bar) (approached as sigma2 -> infinity).
    """
    with _quiet():
        return float(_noise_bias(moments.a_bar, moments.a2_bar, moments.sigma2))


def _noise_bias(a_bar, a2_bar, sigma2):
    """``noise_bias`` elementwise over moments."""
    return a_bar * (1.0 / np.sqrt(a2_bar) - 1.0 / np.sqrt(a2_bar + sigma2))


def corrected_hoyer(h_raw: float, moments: SignalMoments) -> float:
    """Noise-corrected index: h_raw minus the predicted bias, clamped to [0, 1].

    Estimation error can push the difference outside the unit interval where
    a sparsity score has no meaning, hence the clamp; callers that need the
    unclamped value subtract ``noise_bias`` themselves (the stream layer
    reports both).
    """
    if not (0.0 <= h_raw <= 1.0):
        raise ValueError(f"h_raw must lie in [0, 1], got {h_raw!r}")
    return float(_correct(h_raw, noise_bias(moments))[1])


def _correct(h_raw, bias):
    """(h_raw - bias, and that clamped to [0, 1]), elementwise."""
    unclamped = h_raw - bias
    return unclamped, _unit_clamp(unclamped)


def moment_floor(sigma2_hat: float) -> float:
    """Positivity floor for the mean-square estimate: 1e-12 of the noise
    variance, or 1e-300 absolute when that would underflow."""
    return max(1e-12 * sigma2_hat, 1e-300)


def _moments_of_totals(s, ss, n: int, sigma2_hat: float, mode: str):
    """(a_bar, a2_bar) elementwise over totals, from the mean magnitude
    |s| / n and mean square ss / n, checked against ``SignalMoments``."""
    if mode not in MOMENT_MODES:
        raise ValueError(f"mode must be one of {MOMENT_MODES}, got {mode!r}")
    if not math.isfinite(sigma2_hat) or sigma2_hat < 0.0:
        raise ValueError(f"sigma2_hat must be finite and >= 0, got {sigma2_hat!r}")
    a_bar, raw_square = abs(s) / n, ss / n
    floor = moment_floor(sigma2_hat)
    if mode == "literal":
        a2_bar = np.maximum(raw_square, floor)
    else:
        a2_bar = np.maximum(np.maximum(raw_square - sigma2_hat, a_bar * a_bar), floor)
    _check_moments(a_bar, a2_bar, sigma2_hat)
    return a_bar, a2_bar


class TotalsReadings(NamedTuple):
    """Corrected readings of k residuals, one array element each."""

    h_raw: np.ndarray
    a_bar: np.ndarray
    a2_bar: np.ndarray
    bias: np.ndarray
    g_unclamped: np.ndarray
    g: np.ndarray


def readings_from_totals(
    s, ss, n: int, sigma2_hat: float, mode: str = "debias", h_raw=None
) -> TotalsReadings:
    """Corrected readings of k residuals of n >= 2 entries each from their
    entry sums ``s`` and sums of squares ``ss`` (arrays of k), in one pass
    over the arrays: the raw index (``hoyer_from_totals``), the
    moments (``estimate_moments``), the bias (``noise_bias``) and the
    correction (``corrected_hoyer``), bit for bit.

    A caller holding the matrix passes the ``h_raw`` it read from it,
    which stays right when ``ss`` over- or underflowed. Raises ValueError
    as ``SignalMoments`` does, for the first bad reading.
    """
    with _quiet():
        h_raw = hoyer_from_totals(s, ss, n) if h_raw is None else h_raw
        a_bar, a2_bar = _moments_of_totals(s, ss, n, sigma2_hat, mode)
        bias = _noise_bias(a_bar, a2_bar, sigma2_hat)
        return TotalsReadings(h_raw, a_bar, a2_bar, bias, *_correct(h_raw, bias))


def estimate_moments(r, sigma2_hat: float, mode: str = "debias") -> SignalMoments:
    """Plug-in moment estimates from a residual matrix.

    a_bar is |sum| / n in both modes. The mean square ``a2_bar`` is where the
    modes differ: ``literal`` uses ||R||_F^2 / n directly, which for a noisy
    residual estimates the shift's mean square plus sigma2 and therefore
    understates the correction at high noise; ``debias`` (the default)
    subtracts sigma2_hat, floored by a_bar**2 (a mean square can never fall
    below the squared mean) and by a small positivity floor so a blank
    residual stays well defined.
    """
    m = as_image_matrix(r)
    with _quiet():
        s, ss = matrix_totals(m)
        a_bar, a2_bar = _moments_of_totals(s, ss, m.size, sigma2_hat, mode)
    return _unchecked(SignalMoments, a_bar=float(a_bar), a2_bar=float(a2_bar), sigma2=sigma2_hat)
