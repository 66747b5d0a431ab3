"""Experiment generators and drivers: test anomalies, seeded noise, residual
streams with a change at t = 0, error bands, and the robustness/consistency
sweeps plus direct Monte Carlo checks of the asymptotic claims.

Randomness contract
-------------------
All noise comes from NumPy's Philox counter generator. Each keyed draw is
made by a fresh ``Generator(Philox(SeedSequence(seed, spawn_key=key)))``
(``_rng``, the one place a generator is built), so any draw can be
reproduced from NumPy alone, given its seed and key; ``subseed`` is the
first 64-bit word of the same ``SeedSequence``. Seeds and keys are
non-negative integers, and a float is refused, never truncated.

Experiment cells are keyed by parameter *value* (bit pattern for floats)
and replicate number, never by grid position, so reordering or subsetting a
grid leaves every cell's stream unchanged, and the frame at position k of a
simulated stream can be regenerated on its own. Cells are independent and
share no generator, which is what lets the sweep drivers fan out across
threads without affecting results.

A simulation cell makes no stream frames. Its noise is iid N(0, sigma^2),
so everything it reads has a known law, and it draws from that law with
the cell seed as master (n = p1·p2):

- the baseline ``fit_baseline`` would fit on w0 in-control frames
  (``_cell_baseline``): ``mu0_hat`` is the noise frame keyed
  ``(CELL_BASELINE_TAG, 0)`` over sqrt(w0), and ``sigma2_hat`` is
  sigma^2 / (n·(w0 - 1)) times the chi-square draw (``Generator.chisquare``,
  twice a standard gamma) keyed ``(CELL_BASELINE_TAG, 1)`` with n·(w0 - 1)
  degrees of freedom;
- the entry sum and sum of squares of each of the n_ooc shifted residuals
  (``_shifted_totals``), which are all a reading needs: a (2, n_ooc) block
  of N(0, sigma^2) draws keyed ``(CELL_STATS_TAG, 0)``, row 0 then row 1,
  and n_ooc chi-square draws with n - 2 degrees of freedom keyed
  ``(CELL_STATS_TAG, 1)`` (none when n = 2).

So a cell draws one noise frame and 3·n_ooc + 1 scalars, whatever w0 is.
"""

from __future__ import annotations

import math
import operator
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .indices import (
    SignalMoments,
    _entry_means,
    as_image_matrix,
    hoyer_index,
    noise_bias,
    readings_from_totals,
)
from .kernels import matrix_stats
from .stream import BaselineModel

# Domain tags keep sub-streams of different uses disjoint. Part of the
# reproducibility contract: cell seed = subseed(master, tag, value_key,
# replicate).
STREAM_FRAME_TAG = 0
ROBUSTNESS_TAG = 1
CONSISTENCY_TAG = 2
BIAS_CHECK_TAG = 3
DECAY_CHECK_TAG = 4
DOMINATION_CHECK_TAG = 5
CELL_BASELINE_TAG = 6
CELL_STATS_TAG = 7

_MAX_SEED = 2**64


@dataclass(frozen=True)
class NoiseSpec:
    """White-noise description: entry standard deviation and master seed."""

    sigma: float
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.sigma) or self.sigma <= 0.0:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")
        try:
            valid = 0 <= operator.index(self.seed) < _MAX_SEED
        except TypeError:
            valid = False
        if not valid:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")


@dataclass(frozen=True)
class ErrorBand:
    """Mean absolute error with a +/- 1.96 standard deviation band."""

    m_eps: float
    sigma_eps: float
    lo: float = field(init=False)
    hi: float = field(init=False)

    def __post_init__(self):
        if self.m_eps < 0.0 or self.sigma_eps < 0.0:
            raise ValueError("m_eps and sigma_eps must be >= 0")
        object.__setattr__(self, "lo", self.m_eps - 1.96 * self.sigma_eps)
        object.__setattr__(self, "hi", self.m_eps + 1.96 * self.sigma_eps)

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _rng(seed: int, *key: int) -> np.random.Generator:
    """A fresh generator on the Philox sub-stream keyed ``key`` under ``seed``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def subseed(master_seed: int, *key: int) -> int:
    """Derive a 64-bit sub-seed by mixing ``key`` into the master seed."""
    ss = np.random.SeedSequence(master_seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def float_key(value: float) -> int:
    """Stable integer key for a float parameter: its IEEE-754 bit pattern."""
    return int(np.float64(value).view(np.uint64))


def sample_noise(p1: int, p2: int, spec: NoiseSpec, *key: int) -> np.ndarray:
    """One p1 x p2 matrix of iid N(0, sigma^2) entries; same inputs, same bits."""
    if p1 < 1 or p2 < 1:
        raise ValueError(f"dims must be positive, got ({p1}, {p2})")
    return spec.sigma * _rng(spec.seed, *key).standard_normal((p1, p2))


def make_dense_anomaly(p1: int, p2: int) -> np.ndarray:
    """Column staircase: entry (i, j) is floor((j - 1) / 50) with 1-based j."""
    if p1 < 1 or p2 < 1:
        raise ValueError(f"dims must be positive, got ({p1}, {p2})")
    row = np.floor_divide(np.arange(p2), 50).astype(np.float64)
    return np.ascontiguousarray(np.broadcast_to(row, (p1, p2)))


def make_sparse_anomaly(p1: int, p2: int) -> np.ndarray:
    """Band of 5s on columns 50 <= j < 60 (1-based), zero elsewhere."""
    if p1 < 1 or p2 < 1:
        raise ValueError(f"dims must be positive, got ({p1}, {p2})")
    j = np.arange(1, p2 + 1)
    row = np.where((j >= 50) & (j < 60), 5.0, 0.0)
    return np.ascontiguousarray(np.broadcast_to(row, (p1, p2)))


def _fixed_anomaly(kind: str, p1: int, p2: int) -> np.ndarray:
    """The fixed-size dense or sparse test pattern at (p1, p2)."""
    if kind == "dense":
        return make_dense_anomaly(p1, p2)
    if kind == "sparse":
        return make_sparse_anomaly(p1, p2)
    raise ValueError(f"kind must be 'dense' or 'sparse', got {kind!r}")


def make_scaled_anomaly(kind: str, c: int) -> np.ndarray:
    """Size-c rendering of the base patterns on a (c, 2c) grid.

    The base shape is 1 x 2; a multiplier c (a positive multiple of 10, so
    the sparse band width c/10 and offset c/2 stay integral) scales it to
    c rows by 2c columns. Dense: four equal column bands of values 0..3.
    Sparse: 5s on the c/10 columns starting at 1-based column c/2.
    """
    if c <= 0 or c % 10 != 0:
        raise ValueError(f"multiplier c must be a positive multiple of 10, got {c!r}")
    p1, p2 = c, 2 * c
    j = np.arange(1, p2 + 1)
    if kind == "dense":
        row = np.floor_divide(4 * (j - 1), p2).astype(np.float64)
    elif kind == "sparse":
        start = p2 // 4
        row = np.where((j >= start) & (j < start + c // 10), 5.0, 0.0)
    else:
        raise ValueError(f"kind must be 'dense' or 'sparse', got {kind!r}")
    return np.ascontiguousarray(np.broadcast_to(row, (p1, p2)))


def stream_frame_noise(p1: int, p2: int, spec: NoiseSpec, position: int) -> np.ndarray:
    """Noise of the frame at 0-based ``position`` of a simulated stream.

    Exposed so any single frame can be replayed without rebuilding the
    stream; ``simulate_residual_stream`` fills frame k with exactly this.
    """
    return sample_noise(p1, p2, spec, STREAM_FRAME_TAG, position)


def simulate_residual_stream(
    anomaly, spec: NoiseSpec, n_ic: int, n_ooc: int
) -> np.ndarray:
    """Residual stream with a change at t = 0: noise before, shift plus noise after.

    Returns an (n_ic + n_ooc, p1, p2) block; position k holds the frame at
    stream time t = k - n_ic + 1, so t runs -n_ic+1 .. n_ooc and frames with
    t > 0 carry the anomaly.
    """
    a = as_image_matrix(anomaly)
    if n_ic < 1 or n_ooc < 1:
        raise ValueError(f"n_ic and n_ooc must be >= 1, got ({n_ic}, {n_ooc})")
    n = n_ic + n_ooc
    frames = np.empty((n,) + a.shape)
    for k in range(n):
        frames[k] = stream_frame_noise(*a.shape, spec, k)
    frames[n_ic:] += a
    return frames


def error_band(errors) -> ErrorBand:
    """Mean and n-1 standard deviation of a sequence of absolute errors."""
    e = np.asarray(errors, dtype=np.float64)
    if e.ndim != 1 or e.size < 2:
        raise ValueError(f"need at least 2 errors, got shape {e.shape}")
    return ErrorBand(m_eps=float(np.mean(e)), sigma_eps=float(np.std(e, ddof=1)))


def _cell_baseline(spec: NoiseSpec, shape, w0: int) -> BaselineModel:
    """The baseline ``fit_baseline`` fits on ``w0`` frames of iid
    N(0, sigma^2) noise, drawn from its exact law at the keys
    ``(CELL_BASELINE_TAG, 0)`` and ``(CELL_BASELINE_TAG, 1)``.

    Per pixel, the mean of w0 such frames is N(0, sigma^2 / w0): one noise
    frame (key 0) over sqrt(w0). The pooled sum of squared deviations over
    sigma^2 is chi-square with n·(w0 - 1) degrees of freedom, n = p1·p2
    (key 1), and it is independent of the means (Cochran, 1934).
    """
    df = shape[0] * shape[1] * (w0 - 1)
    mu0_hat = sample_noise(*shape, spec, CELL_BASELINE_TAG, 0)
    mu0_hat /= math.sqrt(w0)
    chi2 = _rng(spec.seed, CELL_BASELINE_TAG, 1).chisquare(df)
    sigma2_hat = spec.sigma * spec.sigma * chi2 / df
    return BaselineModel(mu0_hat=mu0_hat, sigma2_hat=sigma2_hat, w0=w0)


def _shifted_totals(spec: NoiseSpec, b: np.ndarray, count: int):
    """Entry sums and sums of squares of ``count`` residuals b + e, e a
    frame of iid N(0, sigma^2) noise, drawn from their exact joint law at
    the keys ``(CELL_STATS_TAG, 0)`` and ``(CELL_STATS_TAG, 1)``; returns
    two (count,) arrays.

    With n = b.size, b_bar = sum(b) / n and beta = ||b - b_bar||, rotate
    the noise into an orthonormal basis led by 1/sqrt(n) and
    (b - b_bar) / beta. Its coordinates stay iid N(0, sigma^2): z1, z2 on
    the first two (key 0, a (2, count) block), and sigma^2 times a
    chi-square with n - 2 degrees of freedom for the squared rest (key 1,
    skipped when n = 2). So, exactly, u = sqrt(n)·b_bar + z1,
    sum = sqrt(n)·u and sum of squares = u^2 + (beta + z2)^2 + sigma^2·C.
    beta is taken two-pass, from b - b_bar, so it does not cancel.

    Raises ValueError if a drawn sum of squares is not a finite normal
    float, which no reading could be trusted on.
    """
    n = b.size
    b_bar = matrix_stats(b)[0] / n
    beta = math.sqrt(matrix_stats(b - b_bar)[1])
    z1, z2 = sample_noise(2, count, spec, CELL_STATS_TAG, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        u = math.sqrt(n) * b_bar + z1
        ss = u**2 + (beta + z2) ** 2
        if n > 2:
            chi2 = _rng(spec.seed, CELL_STATS_TAG, 1).chisquare(n - 2, count)
            ss += spec.sigma * spec.sigma * chi2
    if not (np.isfinite(ss).all() and ss.min() >= sys.float_info.min):
        raise ValueError(
            f"drawn sum of squares out of the normal float range: {ss.min()!r} .. {ss.max()!r}"
        )
    return math.sqrt(n) * u, ss


def _cell_band(anomaly, h_true, spec: NoiseSpec, w0, n_ooc, mode) -> ErrorBand:
    """One experiment cell: a baseline for ``w0`` in-control frames, every
    one of ``n_ooc`` shifted frames read against it, and the band of the
    absolute errors.

    No frame is made but the baseline's one: the baseline is drawn from its
    exact law (``_cell_baseline``), and so are the two totals of each
    shifted residual (``_shifted_totals``). The cell reads all its totals
    in one array pass of ``readings_from_totals``, the pass
    ``monitor_series`` makes over its frames' totals. The readings are
    those of the frames at positions w0 .. w0 + n_ooc - 1 of a simulated
    stream in law, not in bits. A cell reads no positive mass, so it emits
    no ``MixedSignWarning``.
    """
    baseline = _cell_baseline(spec, anomaly.shape, w0)
    s, ss = _shifted_totals(spec, anomaly - baseline.mu0_hat, n_ooc)
    g = readings_from_totals(s, ss, anomaly.size, baseline.sigma2_hat, mode).g
    return error_band(np.abs(g - h_true))


def _median(values) -> float:
    """Median of a non-empty sequence of floats, with ``np.median``'s bits:
    the middle element for an odd count, the mean (a + b) / 2 of the middle
    two for an even one. Unlike ``np.median``, it does not import
    ``numpy.ma`` (10-20 ms of a sweep's start-up)."""
    v = sorted(values)
    mid = len(v) // 2
    return float(v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2)


def _aggregate(bands: list[ErrorBand]) -> ErrorBand:
    if len(bands) == 1:
        return bands[0]
    return ErrorBand(
        m_eps=_median([b.m_eps for b in bands]),
        sigma_eps=_median([b.sigma_eps for b in bands]),
    )


def _sweep(grid, cells, tag, seed, w0, n_ooc, mode, replicates, workers):
    """Band every ``(value, anomaly, sigma, key)`` cell once per replicate,
    seeded ``subseed(seed, tag, key, rep)``, and table the bands by value.
    Every job's ``NoiseSpec`` is built before any cell runs, so a bad sigma
    or seed, or a value repeated in the ``grid`` named, fails the sweep up
    front.

    Cells are independent, so with ``workers`` > 1 they run on that many
    threads without changing any value.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if w0 < 2:
        raise ValueError(f"w0 must be >= 2, got {w0}")
    if n_ooc < 2:
        raise ValueError(f"n_ooc must be >= 2, got {n_ooc}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    seen = set()
    for value, *_, key in cells:
        if key in seen:
            raise ValueError(f"{grid} repeats the value {value!r}")
        seen.add(key)
    jobs = []
    for _, anomaly, sigma, key in cells:
        h_true = hoyer_index(anomaly)
        jobs += [
            (anomaly, h_true, NoiseSpec(sigma, subseed(seed, tag, key, rep)))
            for rep in range(replicates)
        ]

    def run(job):
        return _cell_band(*job, w0, n_ooc, mode)

    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            bands = list(pool.map(run, jobs))
    else:
        bands = [run(job) for job in jobs]
    return {
        value: _aggregate(bands[i * replicates : (i + 1) * replicates])
        for i, (value, *_) in enumerate(cells)
    }


def run_robustness(
    sigmas,
    kind: str,
    seed: int,
    w0: int = 200,
    n_ooc: int = 200,
    dims: tuple[int, int] = (100, 200),
    mode: str = "debias",
    replicates: int = 1,
    workers: int | None = None,
):
    """Error bands of the corrected index across noise levels, fixed dims.

    For each sigma: take the baseline of ``w0`` in-control frames at
    ``dims``, read each of ``n_ooc`` shifted frames against it, and band
    the absolute errors against the anomaly's true index. The baseline and
    each shifted residual's two totals are drawn from their exact law (see
    ``_cell_band``), so a cell costs one noise frame whatever ``w0`` and
    ``n_ooc`` are. Returns {sigma: ErrorBand}; with ``replicates`` > 1 each
    entry is the per-field median over replicate bands. A repeated sigma is
    refused. Cells may be fanned out over ``workers`` threads without
    changing any value.
    """
    sigmas = [float(s) for s in sigmas]
    if not sigmas:
        raise ValueError("empty sigma grid")
    if not all(math.isfinite(s) and s > 0.0 for s in sigmas):
        raise ValueError(f"sigmas must be finite and > 0, got {sigmas}")
    anomaly = _fixed_anomaly(kind, *dims)
    cells = [(s, anomaly, s, float_key(s)) for s in sigmas]
    return _sweep("sigmas", cells, ROBUSTNESS_TAG, seed, w0, n_ooc, mode, replicates, workers)


def run_consistency(
    cs,
    kind: str,
    seed: int,
    sigma: float = 3.0,
    w0: int = 200,
    n_ooc: int = 200,
    mode: str = "debias",
    replicates: int = 1,
    workers: int | None = None,
):
    """Error bands of the corrected index across dimension multipliers, fixed noise.

    Same cell pipeline as ``run_robustness`` but the anomaly is the size-c
    rendering for each multiplier in ``cs`` and sigma stays fixed. Returns
    {c: ErrorBand}.
    """
    cs = [int(c) for c in cs]
    if not cs:
        raise ValueError("empty multiplier grid")
    cells = [(c, make_scaled_anomaly(kind, c), sigma, c) for c in cs]
    return _sweep("cs", cells, CONSISTENCY_TAG, seed, w0, n_ooc, mode, replicates, workers)


def exact_moments(anomaly, sigma: float) -> SignalMoments:
    """Moments of a known anomaly matrix: (|sum|/n, ||A||_F^2/n, sigma^2)."""
    a = as_image_matrix(anomaly)
    s, ss, _ = matrix_stats(a)
    return SignalMoments(*_entry_means(s, ss, a.size), sigma2=sigma * sigma)


def verify_bias_theorem(
    anomaly, sigma: float, dims: tuple[int, int] = (400, 400), reps: int = 50, seed: int = 0
) -> dict:
    """Monte Carlo check of the bias formula on a known anomaly.

    ``anomaly`` is either a scalar (a constant matrix of ``dims`` is built)
    or an explicit matrix (its own dims are used). Compares the sample mean
    of index(A + e) - index(A) over ``reps`` noise draws against the formula
    evaluated on the anomaly's exact moments.
    """
    if np.ndim(anomaly) == 0:
        a = np.full(dims, float(anomaly))
    else:
        a = as_image_matrix(anomaly)
    if reps < 2:
        raise ValueError(f"reps must be >= 2, got {reps}")
    if not math.isfinite(sigma) or sigma < 0.0:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    predicted = noise_bias(exact_moments(a, sigma)) if sigma > 0 else 0.0
    h_a = hoyer_index(a)
    p1, p2 = a.shape
    if sigma > 0:
        spec = NoiseSpec(sigma, seed)
        gaps = [
            hoyer_index(a + sample_noise(p1, p2, spec, BIAS_CHECK_TAG, rep)) - h_a
            for rep in range(reps)
        ]
    else:
        gaps = [0.0] * reps
    empirical = float(np.mean(gaps))
    return {
        "dims": (p1, p2),
        "sigma": sigma,
        "reps": reps,
        "anomaly_index": h_a,
        "empirical_mean_gap": empirical,
        "predicted_bias": predicted,
        "abs_diff": abs(empirical - predicted),
    }


def near_square_dims(n: int) -> tuple[int, int]:
    """Factor a total size into the most square (p1, p2) with p1 <= p2."""
    if n < 2:
        raise ValueError(f"total size must be >= 2, got {n}")
    for p1 in range(int(math.isqrt(n)), 0, -1):
        if n % p1 == 0:
            return p1, n // p1
    raise AssertionError("unreachable")


def verify_noise_sparsity_decay(
    sizes, sigma: float = 1.0, reps: int = 50, seed: int = 0
) -> list[dict]:
    """Per-size medians of the pure-noise sparsity gap and its scaled form.

    For white noise the raw gap 1 - index shrinks like sqrt(log log n / n),
    so the scaled statistic (1 - index) * sqrt(n / log log n) should stay in
    a constant band as n grows. The unclipped index is used: for noise the
    raw ratio hovers on both sides of 1 and clipping would zero the median.
    Sizes are totals (factored near-square) or explicit (p1, p2) pairs.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    rows = []
    for size in sizes:
        p1, p2 = (size if isinstance(size, tuple) else near_square_dims(int(size)))
        n = p1 * p2
        scale = math.sqrt(n / math.log(math.log(n)))
        spec = NoiseSpec(sigma, seed)
        gaps = [
            1.0 - hoyer_index(sample_noise(p1, p2, spec, DECAY_CHECK_TAG, n, rep), clip=False)
            for rep in range(reps)
        ]
        med = _median(gaps)
        rows.append(
            {
                "p1": p1,
                "p2": p2,
                "n": n,
                "median_gap": med,
                "median_scaled": med * scale,
            }
        )
    return rows


def verify_noise_domination(
    sigma: float = 100.0,
    reps: int = 20,
    seed: int = 0,
    kind: str = "dense",
    threshold: float = 0.95,
) -> dict:
    """Check that overwhelming noise drives the raw index of a noisy shift
    toward 1 on every replicate.

    Uses the fixed-size test pattern tiled to a 200 x 200 grid. The formula
    predicts index(A) plus nearly its full possible bias, which lands above
    ``threshold`` for the default pattern and noise level.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    a = np.tile(_fixed_anomaly(kind, 100, 200), (2, 1))
    predicted = hoyer_index(a) + noise_bias(exact_moments(a, sigma))
    spec = NoiseSpec(sigma, seed)
    values = [
        hoyer_index(a + sample_noise(*a.shape, spec, DOMINATION_CHECK_TAG, rep))
        for rep in range(reps)
    ]
    return {
        "dims": a.shape,
        "sigma": sigma,
        "reps": reps,
        "threshold": threshold,
        "predicted": min(predicted, 1.0),
        "min_index": min(values),
        "values": values,
        "passed": all(v > threshold for v in values),
    }
