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
``t_offset`` so emitted readings carry labels in that numbering. A frame
count, position or label that is a float is refused, never truncated.

Frames are float or integer matrices. An integer frame (a decoded PGM, say)
is read as it is, never copied to float64, and gives the bits its float64
copy would. No function here holds a drawn frame past the next draw, so a
stream may hand out every frame in one reused buffer.

Each residual is reduced to its two totals, its sum and its sum of
squares, and nothing else: a reading raises no warning about the
residual's signs. A residual with comparable positive and negative mass,
every in-control one included, reads near 1 (see ``hoyer_index``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import DimensionError
from .indices import (
    SignalMoments,
    _as_int,
    _correct,
    _count,
    _quiet,
    _unchecked,
    as_image_matrix,
    hoyer_from_matrix_totals,
    readings_from_totals,
)
from .kernels import matrix_totals

# Returned by ``next`` on an exhausted stream.
_END = object()


@dataclass(frozen=True, eq=False)
class BaselineModel:
    """Frozen in-control baseline: mean frame, noise variance, window length.

    ``mu0_hat`` is a read-only view of the array passed in (or of its
    float64 copy); the caller's array stays writeable."""

    mu0_hat: np.ndarray
    sigma2_hat: float
    w0: int

    def __post_init__(self):
        mu = as_image_matrix(self.mu0_hat).view()
        mu.setflags(write=False)
        object.__setattr__(self, "mu0_hat", mu)
        if not math.isfinite(self.sigma2_hat) or self.sigma2_hat < 0.0:
            raise ValueError(f"sigma2_hat must be finite and >= 0, got {self.sigma2_hat!r}")
        # A NumPy scalar (from ``np.var``, say) would reach the readings and
        # render as ``np.float64(...)`` in a series row.
        object.__setattr__(self, "sigma2_hat", float(self.sigma2_hat))
        object.__setattr__(self, "w0", _count(self.w0, "w0", 2))

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
        unclamped, g = _correct(self.h_raw, self.bias)
        object.__setattr__(self, "g_unclamped", float(unclamped))
        object.__setattr__(self, "g", float(g))


def _as_frame(x) -> np.ndarray:
    """An integer matrix as it is (finite, and cast to float64 with the bits
    ``as_image_matrix`` would give); anything else through
    ``as_image_matrix``."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "iu" and x.ndim == 2 and x.size:
        return x
    return as_image_matrix(x)


def _checked_frames(frames, count: int | None = None):
    """Yield the first ``count`` frames (all when None) of any iterable as
    ``_as_frame`` matrices of one shape, drawing no item past them. Raise
    ValueError for a ``count`` that is not an integer >= 1 before drawing
    any; at the end, DimensionError for no frames, ValueError for fewer
    than ``count``."""
    if count is not None:
        count = _count(count, "frame count", 1)
    items = iter(frames) if count is None else itertools.islice(frames, count)
    m = 0
    for m, f in enumerate(items, start=1):
        mat = _as_frame(f)
        if m == 1:
            shape = mat.shape
        elif mat.shape != shape:
            raise DimensionError(f"frame {m - 1} has shape {mat.shape}, expected {shape}")
        yield mat
    if m == 0:
        raise DimensionError("empty frame sequence")
    if count is not None and m < count:
        raise ValueError(f"requested {count} frames, only {m} available")


def fit_baseline(frames, w0: int | None = None) -> BaselineModel:
    """Fit the in-control baseline on the first ``w0`` frames.

    ``frames`` may be any iterable, a generator over a long stream
    included: exactly ``w0`` items are drawn from it (all of them when
    ``w0`` is None), in one pass over five frames of state.

    ``mu0_hat`` is the frames' float64 sum, in order, over m: the bits of
    ``np.stack(frames).mean(axis=0)`` on float64 frames of two or more
    entries. Integer frames give the bits of their float64 copies: each
    frame after the first is cast into one reused float64 buffer.
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

    Raises ValueError for a ``w0`` that is not an integer >= 2 before
    drawing any frame.
    """
    if w0 is not None:
        w0 = _count(w0, "w0", 2)
    mats = _checked_frames(frames, w0)
    x0 = next(mats).astype(np.float64)
    total = x0.copy()
    shifted_sum = np.zeros_like(x0)
    shifted_sq = np.zeros_like(x0)
    d = np.empty_like(x0)
    m = 1
    for m, x in enumerate(mats, start=2):
        np.copyto(d, x)  # exact: the frame as float64
        total += d
        d -= x0
        shifted_sum += d
        d *= d
        shifted_sq += d
    if m < 2:
        raise ValueError(f"baseline needs at least 2 frames, got {m}")
    m2 = np.maximum(shifted_sq - shifted_sum**2 / m, 0.0)
    sigma2_hat = float(m2.sum()) / (m2.size * (m - 1))
    return BaselineModel(mu0_hat=total / m, sigma2_hat=sigma2_hat, w0=m)


def _baseline_frame(x, baseline: BaselineModel) -> np.ndarray:
    """``_as_frame(x)``, checked to have the baseline's shape."""
    m = _as_frame(x)
    if m.shape != baseline.shape:
        raise DimensionError(
            f"frame shape {m.shape} does not match baseline shape {baseline.shape}"
        )
    return m


def residual(x, baseline: BaselineModel) -> np.ndarray:
    """Frame minus the baseline mean."""
    return _baseline_frame(x, baseline) - baseline.mu0_hat


def _readings(
    frames, baseline: BaselineModel, sigma2_hat: float, mode: str
) -> list[SparsityReading]:
    """Corrected readings of ``(t, x)`` pairs, ``x`` a frame of the
    baseline's shape, against ``sigma2_hat``.

    Each frame is subtracted into one reused residual buffer and reduced to
    its two totals, and the totals are read in one ``readings_from_totals`` pass
    (as a simulation cell reads its own), which checks and clamps every
    reading once. The raw index is read from the residual itself, so it
    stays right when the sum of squares over- or underflowed. NumPy's
    overflow and invalid warnings are off throughout: an overflowing
    residual is the moment check's ValueError.
    """
    r = np.empty(baseline.shape)
    ts, totals = [], []
    with _quiet():
        for t, x in frames:
            ts.append(_as_int(t, "label t"))
            np.copyto(r, _baseline_frame(x, baseline))  # exact: the frame as float64
            r -= baseline.mu0_hat
            s, ss = matrix_totals(r)
            totals.append((s, ss, hoyer_from_matrix_totals(r, s, ss)))
    if not ts:
        return []
    s, ss, h_raw = np.array(totals).T
    got = readings_from_totals(s, ss, r.size, sigma2_hat, mode, h_raw)
    return [
        _unchecked(
            SparsityReading, t=t, h_raw=h, bias=bias, g=g, g_unclamped=unclamped,
            moments=_unchecked(SignalMoments, a_bar=a_bar, a2_bar=a2_bar, sigma2=sigma2_hat),
        )
        for t, h, a_bar, a2_bar, bias, unclamped, g in zip(ts, *(v.tolist() for v in got))
    ]


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
    return _readings([(t, x)], baseline, baseline.sigma2_hat, mode)[0]


def windowed_reading(
    frames, baseline: BaselineModel, mode: str = "debias", t: int = 0, w: int | None = None
) -> SparsityReading:
    """Corrected reading of a ``w``-frame residual average.

    The average of w independent noise frames has entry variance sigma2/w,
    so that is the variance fed to the moment estimate and bias correction.
    Even uncorrected, the reading's ``h_raw`` converges to the shift's index
    as the window grows.
    """
    mats = _checked_frames(frames, w)
    total = next(mats).astype(np.float64)
    m = 1
    for m, x in enumerate(mats, start=2):
        total += x
    return _readings([(t, total / m)], baseline, baseline.sigma2_hat / m, mode)[0]


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

    Each frame is subtracted into one reused residual buffer and reduced to
    its totals as it is drawn; all the totals are then read in one array
    pass, bit for bit as
    ``corrected_reading`` reads each frame. So a moment error (the first
    bad reading's ValueError) comes after every position was drawn: a bad
    position or frame outranks a moment error at an earlier frame.
    """

    def positions():
        items = iter(frames)
        drawn = 0
        for tau in tau_range:
            tau = _as_int(tau, "frame position")
            if tau < drawn:
                raise IndexError(f"frame position {tau} out of order: must be >= {drawn}")
            frame = next(itertools.islice(items, tau - drawn, None), _END)
            if frame is _END:
                raise IndexError(f"frame position {tau} out of range: fewer than {tau + 1} frames")
            drawn = tau + 1
            yield tau + t_offset, frame

    return _readings(positions(), baseline, baseline.sigma2_hat, mode)
