"""Stateful sparsity estimation over a frame stream.

Workflow: fit an in-control baseline (mean frame plus entrywise noise
variance) on an opening window, then score later frames by subtracting the
baseline mean and applying the corrected index to the residual. Two paths
are provided: per-frame corrected readings (the noise variance is handled by
the bias correction) and window-averaged raw readings (averaging w residuals
divides the effective noise variance by w instead).

The functions that take several frames accept any iterable of them, a
generator over a long stream included, and draw no more of it than they
read: a monitor run is ``fit_baseline(frames, w0)`` followed by
``monitor_series`` over the same iterator. Frame positions are plain 0-based
counts of the items drawn; callers with their own frame numbering pass
``t_offset`` so emitted readings carry labels in that numbering.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import DimensionError, MixedSignWarning
from .indices import (
    SignalMoments,
    as_image_matrix,
    hoyer_from_matrix_stats,
    moments_from_stats,
    noise_bias,
)
from .kernels import matrix_stats

# Positive/negative mass ratios inside this band mean the residual is not
# meaningfully one-sided, so the index value is not trustworthy.
_MIXED_SIGN_BAND = (0.25, 4.0)

# Returned by ``next`` on an exhausted stream.
_END = object()


@dataclass(frozen=True, eq=False)
class BaselineModel:
    """Frozen in-control baseline: mean frame, noise variance, window length."""

    mu0_hat: np.ndarray
    sigma2_hat: float
    w0: int

    def __post_init__(self):
        mu = as_image_matrix(self.mu0_hat)
        mu.setflags(write=False)
        object.__setattr__(self, "mu0_hat", mu)
        if not math.isfinite(self.sigma2_hat) or self.sigma2_hat < 0.0:
            raise ValueError(f"sigma2_hat must be finite and >= 0, got {self.sigma2_hat!r}")
        if self.w0 < 2:
            raise ValueError(f"w0 must be >= 2, got {self.w0!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.mu0_hat.shape


@dataclass(frozen=True)
class SparsityReading:
    """Per-frame output: raw index, predicted bias, corrected value, moments.

    ``g`` and ``g_unclamped`` are derived in the constructor, so
    g == clamp(h_raw - bias, 0, 1) holds for every instance.
    """

    t: int
    h_raw: float
    bias: float
    moments: SignalMoments
    g: float = field(init=False)
    g_unclamped: float = field(init=False)

    def __post_init__(self):
        unclamped = self.h_raw - self.bias
        object.__setattr__(self, "g_unclamped", unclamped)
        object.__setattr__(self, "g", min(max(unclamped, 0.0), 1.0))


def _checked_frames(frames, count: int | None = None):
    """Yield the first ``count`` frames (all when None) of any iterable as
    float64 matrices of one shape, drawing no item past them. At the end,
    raise DimensionError for no frames, ValueError for fewer than ``count``."""
    items = iter(frames) if count is None else itertools.islice(frames, count)
    m = 0
    for m, f in enumerate(items, start=1):
        mat = as_image_matrix(f)
        if m == 1:
            shape = mat.shape
        elif mat.shape != shape:
            raise DimensionError(f"frame {m - 1} has shape {mat.shape}, expected {shape}")
        yield mat
    if m == 0:
        raise DimensionError("empty frame sequence")
    if count is not None and m < count:
        raise ValueError(f"requested {count} frames, only {m} available")


def _check_shape(m: np.ndarray, baseline: BaselineModel):
    if m.shape != baseline.shape:
        raise DimensionError(
            f"frame shape {m.shape} does not match baseline shape {baseline.shape}"
        )


def _warn_if_mixed_sign(total: float, positive: float):
    negative = positive - total
    if positive > 0.0 and negative > 0.0:
        lo, hi = _MIXED_SIGN_BAND
        if lo <= positive / negative <= hi:
            warnings.warn(
                "residual has comparable positive and negative mass; the "
                "sparsity index assumes a same-sign shift and may read near 1 "
                "regardless of density",
                MixedSignWarning,
                stacklevel=3,
            )


def fit_baseline(frames, w0: int | None = None) -> BaselineModel:
    """Fit the in-control baseline on the first ``w0`` frames.

    ``frames`` may be any iterable, a generator over a long stream
    included: exactly ``w0`` items are drawn from it (all of them when
    ``w0`` is None), in one pass over five frames of state.

    ``mu0_hat`` is the frames' float64 sum, in order, over m: the bits of
    ``np.stack(frames).mean(axis=0)`` on frames of two or more entries.
    ``sigma2_hat = sum(M2) / (p1·p2·(m - 1))`` is unbiased; each pixel's M2
    is sum(d**2) - sum(d)**2 / m, clamped at 0, over the data shifted by the
    first frame, d = x - x_0 (Chan, Golub & LeVeque, 1983), so identical
    frames give exactly 0.0.

    Error bound, with u = 2**-53, n = p1·p2, no overflow or underflow and
    Q = sum((x_k - x_0)**2) over all entries, to first order in u:
    ``|error| <= (3·m + 4·log2(n) + 8)·u·Q / (n·(m - 1))``. The sums of
    d**2 and d give m + 1 and, by Cauchy-Schwarz, 2·(m - 1) of it, the pixel
    total 4·log2(n) (see ``kernels``). Q is taken about the first frame, so
    a common offset of the frames does not loosen the bound.
    """
    mats = _checked_frames(frames, w0)
    x0 = next(mats).copy()
    total = x0.copy()
    shifted_sum = np.zeros_like(x0)
    shifted_sq = np.zeros_like(x0)
    d = np.empty_like(x0)
    m = 1
    for m, x in enumerate(mats, start=2):
        total += x
        np.subtract(x, x0, out=d)
        shifted_sum += d
        d *= d
        shifted_sq += d
    if m < 2:
        raise ValueError(f"baseline needs at least 2 frames, got {m}")
    m2 = np.maximum(shifted_sq - shifted_sum**2 / m, 0.0)
    sigma2_hat = float(m2.sum()) / (m2.size * (m - 1))
    return BaselineModel(mu0_hat=total / m, sigma2_hat=sigma2_hat, w0=m)


def residual(x, baseline: BaselineModel) -> np.ndarray:
    """Frame minus the baseline mean."""
    m = as_image_matrix(x)
    _check_shape(m, baseline)
    return m - baseline.mu0_hat


def windowed_index(frames, baseline: BaselineModel, w: int | None = None) -> float:
    """Raw index of the average of ``w`` residual frames.

    No bias correction is applied; averaging w independent frames already
    divides the effective noise variance by w, so the raw index converges to
    the shift's index as the window grows. This is ``windowed_reading``'s
    ``h_raw``; use that for the corrected read of the same average.
    """
    return windowed_reading(frames, baseline, w=w).h_raw


def _reading_from_residual(
    r: np.ndarray, sigma2_hat: float, mode: str, t: int
) -> SparsityReading:
    if r.size < 2:
        raise DimensionError("index needs at least 2 entries per frame")
    s, ss, pos = matrix_stats(r)
    _warn_if_mixed_sign(s, pos)
    h_raw = hoyer_from_matrix_stats(r, s, ss)
    moments = moments_from_stats(s, ss, r.size, sigma2_hat, mode)
    return SparsityReading(t=t, h_raw=h_raw, bias=noise_bias(moments), moments=moments)


def corrected_reading(
    x, baseline: BaselineModel, mode: str = "debias", t: int = 0
) -> SparsityReading:
    """Corrected index of a single frame against the baseline.

    Forms the residual, reads the raw index, estimates the shift moments
    with the baseline's noise variance, and subtracts the predicted bias.
    With sigma2_hat == 0 this reduces exactly to the raw index.

    The raw index is read over the whole finite range, as ``hoyer_index``
    reads it. The moments are not rescaled: a residual whose mean square
    is not a finite float64 (entries near 1e200, say) raises ValueError
    ("a2_bar must be finite").
    """
    return _reading_from_residual(residual(x, baseline), baseline.sigma2_hat, mode, t)


def windowed_reading(
    frames, baseline: BaselineModel, mode: str = "debias", t: int = 0, w: int | None = None
) -> SparsityReading:
    """Corrected reading of a ``w``-frame residual average.

    The average of w independent noise frames has entry variance sigma2/w,
    so that is the variance fed to the moment estimate and bias correction.
    """
    mats = _checked_frames(frames, w)
    total = next(mats).copy()
    _check_shape(total, baseline)
    m = 1
    for m, x in enumerate(mats, start=2):
        total += x
    avg_resid = total / m - baseline.mu0_hat
    return _reading_from_residual(avg_resid, baseline.sigma2_hat / m, mode, t)


def monitor_series(
    frames: Iterable,
    baseline: BaselineModel,
    tau_range: Iterable[int],
    mode: str = "debias",
    t_offset: int = 0,
) -> list[SparsityReading]:
    """Corrected readings at each frame position in ``tau_range``, in order.

    ``frames`` may be any iterable. Positions are 0-based counts of the
    items it yields and must increase; each reading's ``t`` is the position
    plus ``t_offset``. No item past the last requested position is drawn,
    so a generator is left right after it. A position below 0, not above
    the one before, or past the end of ``frames`` raises IndexError.
    Deterministic given the inputs; an empty range yields an empty list.
    """
    items = iter(frames)
    drawn = 0
    readings = []
    for tau in tau_range:
        if tau < drawn:
            raise IndexError(f"frame position {tau} out of order: must be >= {drawn}")
        frame = next(itertools.islice(items, tau - drawn, None), _END)
        if frame is _END:
            raise IndexError(f"frame position {tau} out of range: fewer than {tau + 1} frames")
        drawn = tau + 1
        readings.append(corrected_reading(frame, baseline, mode=mode, t=tau + t_offset))
    return readings
