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
non-negative integers, and a float is refused, never truncated. A master
seed, of a ``NoiseSpec`` or a ``subseed``, is checked in one place
(``_check_seed``): it must be an unsigned 64-bit integer.

Experiment cells are keyed by parameter *value* (bit pattern for floats)
and replicate number, never by grid position, so reordering or subsetting a
grid leaves every cell's stream unchanged, and the frame at position k of a
simulated stream can be regenerated on its own. Cells are independent and
share no generator, which is what lets the sweep drivers fan out across
threads without affecting results. A sweep runs on one thread unless asked
for more, and only then imports ``concurrent.futures``.

A simulation cell makes no frame. Its noise is iid N(0, sigma^2), so
everything it reads has a known law, and it draws from that law with the
cell seed as master. The anomaly A enters only through n = p1·p2, its mean
a_bar and its spread alpha = ||A - a_bar|| (``_row_pattern``). A cell reads
the residuals b + e of b = A - mu0_hat, against the mu0_hat and
sigma2_hat ``fit_baseline`` would fit on w0 in-control frames. Its keyed
draws are:

- ``(CELL_BASELINE_TAG, 0)``: a (2, 1) block of N(0, sigma^2 / w0) draws
  y1, y2, then one chi-square C0 with n - 2 degrees of freedom (none when
  n = 2), giving b's mean b_bar = a_bar + y1 / sqrt(n) and spread
  beta = sqrt((alpha + y2)^2 + sigma^2 / w0 · C0) (``_baseline_draws``);
- ``(CELL_BASELINE_TAG, 1)``: one chi-square X with n·(w0 - 1) degrees of
  freedom, and sigma2_hat = sigma^2·X / (n·(w0 - 1));
- ``(CELL_STATS_TAG, 0)``: a (2, n_ooc) block of N(0, sigma^2) draws z1,
  z2, row 0 then row 1, then n_ooc chi-square draws with n - 2 degrees of
  freedom (none when n = 2), giving the entry sum and sum of squares of
  each of the n_ooc shifted residuals (``_shifted_totals``), which are all
  a reading needs.

The normals and chi-squares at one key come from one generator, in that
order (``_rotated_draws``); a chi-square is ``Generator.chisquare``, twice a
standard gamma. So a cell draws 3·n_ooc + 4 scalars (2·n_ooc + 3 when
n = 2), whatever n and w0 are.

A ``verify`` check makes no frame either: it reads the totals of its
``reps`` noisy anomalies from one ``_shifted_totals`` draw (``_law_indices``).
``sample_noise``, ``stream_frame_noise`` and ``simulate_residual_stream``
replay noise frames for callers and tests.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .indices import (
    SignalMoments,
    _entry_means,
    _quiet,
    as_image_matrix,
    hoyer_from_totals,
    hoyer_index,
    noise_bias,
    readings_from_totals,
)
from .kernels import matrix_stats

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


def _as_int(value, what: str) -> int:
    """``value`` as an int; a float is refused, never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _check_seed(seed) -> None:
    """Raise ValueError unless ``seed`` is an unsigned 64-bit integer."""
    if not 0 <= _as_int(seed, "seed") < _MAX_SEED:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """White-noise description: entry standard deviation and master seed."""

    sigma: float
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.sigma) or self.sigma <= 0.0:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")
        _check_seed(self.seed)


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
    _check_seed(master_seed)
    ss = np.random.SeedSequence(master_seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def float_key(value: float) -> int:
    """Stable integer key for a float parameter: its IEEE-754 bit pattern."""
    return int(np.float64(value).view(np.uint64))


def sample_noise(p1: int, p2: int, spec: NoiseSpec, *key: int) -> np.ndarray:
    """One p1 x p2 frame of iid N(0, sigma^2) noise, for replay; same inputs, same bits."""
    if p1 < 1 or p2 < 1:
        raise ValueError(f"dims must be positive, got ({p1}, {p2})")
    return spec.sigma * _rng(spec.seed, *key).standard_normal((p1, p2))


def _fixed_row(kind: str, p1: int, p2: int) -> np.ndarray:
    """The row that every row of the fixed-size test pattern at (p1, p2) is."""
    if p1 < 1 or p2 < 1:
        raise ValueError(f"dims must be positive, got ({p1}, {p2})")
    if kind == "dense":
        return np.floor_divide(np.arange(p2), 50).astype(np.float64)
    if kind == "sparse":
        j = np.arange(1, p2 + 1)
        return np.where((j >= 50) & (j < 60), 5.0, 0.0)
    raise ValueError(f"kind must be 'dense' or 'sparse', got {kind!r}")


def _scaled_row(kind: str, c: int) -> np.ndarray:
    """The row that every row of ``make_scaled_anomaly(kind, c)`` is."""
    if c <= 0 or c % 10 != 0:
        raise ValueError(f"multiplier c must be a positive multiple of 10, got {c!r}")
    p2 = 2 * c
    j = np.arange(1, p2 + 1)
    if kind == "dense":
        return np.floor_divide(4 * (j - 1), p2).astype(np.float64)
    if kind == "sparse":
        start = p2 // 4
        return np.where((j >= start) & (j < start + c // 10), 5.0, 0.0)
    raise ValueError(f"kind must be 'dense' or 'sparse', got {kind!r}")


def _repeat_row(row: np.ndarray, p1: int) -> np.ndarray:
    return np.ascontiguousarray(np.broadcast_to(row, (p1, row.size)))


def make_dense_anomaly(p1: int, p2: int) -> np.ndarray:
    """Column staircase: entry (i, j) is floor((j - 1) / 50) with 1-based j."""
    return _repeat_row(_fixed_row("dense", p1, p2), p1)


def make_sparse_anomaly(p1: int, p2: int) -> np.ndarray:
    """Band of 5s on columns 50 <= j < 60 (1-based), zero elsewhere."""
    return _repeat_row(_fixed_row("sparse", p1, p2), p1)


def make_scaled_anomaly(kind: str, c: int) -> np.ndarray:
    """Size-c rendering of the base patterns on a (c, 2c) grid.

    The base shape is 1 x 2; a multiplier c (a positive multiple of 10, so
    the sparse band width c/10 and offset c/2 stay integral) scales it to
    c rows by 2c columns. Dense: four equal column bands of values 0..3.
    Sparse: 5s on the c/10 columns starting at 1-based column c/2.
    """
    return _repeat_row(_scaled_row(kind, c), c)


def _row_pattern(row: np.ndarray, p1: int):
    """All a cell reads of the p1-row matrix A whose every row is ``row``:
    (n, a_bar, alpha, h_true), its entry count, its mean, its spread
    ||A - a_bar|| and its index. They are taken from the one row, so they
    cost O(p2), not O(p1·p2). Whenever the row's mean is dyadic, as on the
    sweeps' patterns at the default dims and at every c, each total is
    exact, so the values are the matrix's own."""
    p2 = row.size
    n = p1 * p2
    if n < 2:
        raise DimensionError(f"a pattern of shape ({p1}, {p2}) is too small (need 2 entries)")
    s, ss, _ = matrix_stats(row)
    a_bar = s / p2
    alpha = math.sqrt(p1 * matrix_stats(row - a_bar)[1])
    return n, a_bar, alpha, float(hoyer_from_totals(p1 * s, p1 * ss, n))


def stream_frame_noise(p1: int, p2: int, spec: NoiseSpec, position: int) -> np.ndarray:
    """Noise of the frame at 0-based ``position`` of a simulated stream.

    A frame-replay helper: any frame can be replayed without rebuilding the
    stream; ``simulate_residual_stream`` fills frame k with exactly this.
    """
    return sample_noise(p1, p2, spec, STREAM_FRAME_TAG, position)


def simulate_residual_stream(
    anomaly, spec: NoiseSpec, n_ic: int, n_ooc: int
) -> np.ndarray:
    """Residual stream with a change at t = 0: noise before, shift plus noise after.

    Returns an (n_ic + n_ooc, p1, p2) block; position k holds the frame at
    stream time t = k - n_ic + 1, so t runs -n_ic+1 .. n_ooc and frames with
    t > 0 carry the anomaly. A frame-replay helper for callers and tests.
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


def _rotated_draws(rng, sd: float, n: int, mean: float, spread: float, count: int):
    """Draws of ``count`` matrices x + e, e iid N(0, sd^2) and x of n entries
    with mean ``mean`` and spread ``spread`` = ||x - mean||, from their
    exact law: arrays (u, v2) such that each x + e has mean u / sqrt(n),
    squared spread v2, sum sqrt(n)·u and sum of squares u^2 + v2.

    Rotate e into an orthonormal basis led by 1/sqrt(n) and
    (x - mean) / spread. Its coordinates stay iid N(0, sd^2): z1, z2 on the
    first two (a (2, count) block drawn from ``rng``), and sd^2 times a
    chi-square C with n - 2 degrees of freedom for the squared rest (then
    ``count`` draws from ``rng``, none when n = 2). So, exactly,
    u = sqrt(n)·mean + z1 and v2 = (spread + z2)^2 + sd^2·C.
    """
    z1, z2 = sd * rng.standard_normal((2, count))
    with _quiet():
        u = math.sqrt(n) * mean + z1
        v2 = (spread + z2) ** 2
        if n > 2:
            v2 += sd * sd * rng.chisquare(n - 2, count)
    return u, v2


def _baseline_draws(spec: NoiseSpec, n: int, a_bar: float, alpha: float, w0: int):
    """(b_bar, beta, sigma2_hat) for b = A - mu0_hat, with mu0_hat and
    sigma2_hat the baseline ``fit_baseline`` fits on ``w0`` frames of iid
    N(0, sigma^2) noise, and A of n entries with mean ``a_bar`` and spread
    ``alpha`` = ||A - a_bar||, drawn from their exact law at the keys
    ``(CELL_BASELINE_TAG, 0)`` and ``(CELL_BASELINE_TAG, 1)``.

    mu0_hat's entries are iid N(0, sigma^2 / w0), so b has the law of
    A + mu0_hat: b_bar and beta = ||b - b_bar|| are one ``_rotated_draws``
    (key 0). The pooled sum of squared deviations over sigma^2 is
    chi-square with n·(w0 - 1) degrees of freedom (key 1), independent of
    the means (Cochran, 1934).

    Raises ValueError, as ``BaselineModel`` does, if sigma2_hat is not
    finite.
    """
    df = n * (w0 - 1)
    chi2 = _rng(spec.seed, CELL_BASELINE_TAG, 1).chisquare(df)
    sigma2_hat = float(spec.sigma * spec.sigma * chi2 / df)
    if not math.isfinite(sigma2_hat):
        raise ValueError(f"sigma2_hat must be finite and >= 0, got {sigma2_hat!r}")
    rng = _rng(spec.seed, CELL_BASELINE_TAG, 0)
    u, v2 = _rotated_draws(rng, spec.sigma / math.sqrt(w0), n, a_bar, alpha, 1)
    return float(u[0]) / math.sqrt(n), math.sqrt(v2[0]), sigma2_hat


def _shifted_totals(spec: NoiseSpec, n: int, b_bar: float, beta: float, count: int):
    """Entry sums and sums of squares of ``count`` residuals b + e, e a
    frame of iid N(0, sigma^2) noise and b a matrix of n entries with mean
    ``b_bar`` and spread ``beta`` = ||b - b_bar||, drawn from their exact
    joint law (``_rotated_draws``) at the key ``(CELL_STATS_TAG, 0)``;
    returns two (count,) arrays.

    Raises ValueError if a drawn sum of squares is not a finite normal
    float, which no reading could be trusted on.
    """
    rng = _rng(spec.seed, CELL_STATS_TAG, 0)
    u, v2 = _rotated_draws(rng, spec.sigma, n, b_bar, beta, count)
    with _quiet():
        ss = u**2 + v2
    if not (np.isfinite(ss).all() and ss.min() >= sys.float_info.min):
        raise ValueError(
            f"drawn sum of squares out of the normal float range: {ss.min()!r} .. {ss.max()!r}"
        )
    return math.sqrt(n) * u, ss


def _cell_band(pattern, spec: NoiseSpec, w0, n_ooc, mode) -> ErrorBand:
    """One experiment cell: a baseline for ``w0`` in-control frames, every
    one of ``n_ooc`` shifted frames read against it, and the band of the
    absolute errors, for the anomaly that ``pattern`` (``_row_pattern``)
    describes.

    No frame is made: the baseline's sigma2_hat and the mean and spread of
    the anomaly less its mu0_hat are drawn from their exact law
    (``_baseline_draws``), and so are the two totals of each shifted
    residual (``_shifted_totals``), so a cell costs the same whatever the
    anomaly's size and w0 are. All the totals are read in one array pass
    of ``readings_from_totals``, as ``monitor_series`` reads its frames'.
    The readings are those of the frames at positions w0 .. w0 + n_ooc - 1
    of a simulated stream in law, not in bits. A cell reads no positive
    mass, so it emits no ``MixedSignWarning``.
    """
    n, a_bar, alpha, h_true = pattern
    b_bar, beta, sigma2_hat = _baseline_draws(spec, n, a_bar, alpha, w0)
    s, ss = _shifted_totals(spec, n, b_bar, beta, n_ooc)
    g = readings_from_totals(s, ss, n, sigma2_hat, mode).g
    return error_band(np.abs(g - h_true))


def _law_indices(pattern, sigma: float, seed: int, key: tuple, reps: int, clip: bool = True):
    """Indices of ``reps`` draws of A + e, e iid N(0, sigma^2) and A the anomaly
    ``pattern`` (n, a_bar, alpha, ...) describes, read from the totals that
    ``_shifted_totals`` draws under ``subseed(seed, *key)``; no frame is made."""
    n, a_bar, alpha = pattern[:3]
    s, ss = _shifted_totals(NoiseSpec(sigma, subseed(seed, *key)), n, a_bar, alpha, reps)
    return hoyer_from_totals(s, ss, n, clip=clip)


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
    """Band every ``(value, pattern, sigma, key)`` cell once per replicate,
    seeded ``subseed(seed, tag, key, rep)``, and table the bands by value.
    Every job's ``NoiseSpec`` is built before any cell runs, so a bad sigma
    or seed, or a value repeated in the ``grid`` named, fails the sweep up
    front. A grid value's pattern is shared by its replicates.

    Cells are independent, so with ``workers`` > 1 they run on that many
    threads without changing any value. One thread is faster (a cell is
    GIL-bound Python); the pool, and its import, stay behind that branch.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if w0 < 2:
        raise ValueError(f"w0 must be >= 2, got {w0}")
    if n_ooc < 2:
        raise ValueError(f"n_ooc must be >= 2, got {n_ooc}")
    seen = set()
    for value, *_, key in cells:
        if key in seen:
            raise ValueError(f"{grid} repeats the value {value!r}")
        seen.add(key)
    jobs = [
        (pattern, NoiseSpec(sigma, subseed(seed, tag, key, rep)))
        for _, pattern, sigma, key in cells
        for rep in range(replicates)
    ]

    def run(job):
        return _cell_band(*job, w0, n_ooc, mode)

    if workers is not None and workers > 1:
        from concurrent.futures import ThreadPoolExecutor

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
    ``_cell_band``), so a cell makes no frame and costs the same whatever
    ``dims`` and ``w0`` are. Returns {sigma: ErrorBand}; with
    ``replicates`` > 1 each entry is the per-field median over replicate
    bands. A repeated sigma is refused. The sweep runs on one thread
    unless ``workers`` > 1 asks for a pool, which changes no value.
    """
    sigmas = [float(s) for s in sigmas]
    if not sigmas:
        raise ValueError("empty sigma grid")
    if not all(math.isfinite(s) and s > 0.0 for s in sigmas):
        raise ValueError(f"sigmas must be finite and > 0, got {sigmas}")
    pattern = _row_pattern(_fixed_row(kind, *dims), dims[0])
    cells = [(s, pattern, s, float_key(s)) for s in sigmas]
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
    rendering for each multiplier in ``cs`` and sigma stays fixed. Only
    one row of each rendering is built, once per c, so no cell makes a
    frame at any c. Returns {c: ErrorBand}.
    """
    cs = [_as_int(c, "each c") for c in cs]
    if not cs:
        raise ValueError("empty multiplier grid")
    cells = [(c, _row_pattern(_scaled_row(kind, c), c), sigma, c) for c in cs]
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
    evaluated on the anomaly's exact moments. Each index(A + e) is read from
    drawn totals (``_law_indices``), so a sigma whose drawn sum of squares
    leaves the normal float range is refused.
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
    empirical = 0.0
    if sigma > 0:
        indices = _law_indices(_row_pattern(a.ravel(), 1), sigma, seed, (BIAS_CHECK_TAG,), reps)
        empirical = float(np.mean(indices - h_a))
    return {
        "dims": a.shape,
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
    Sizes are integer totals (factored near-square) or explicit (p1, p2)
    pairs; a float is refused, never truncated. The indices are read from
    drawn pure-noise totals (``_law_indices``).
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    dims = [tuple(_as_int(d, "size") for d in size) if isinstance(size, tuple)
            else near_square_dims(_as_int(size, "size")) for size in sizes]
    for p1, p2 in dims:
        if p1 * p2 < 3:
            raise ValueError(f"size must be >= 3 (log log n > 0 from there), got {p1 * p2}")
    rows = []
    for p1, p2 in dims:
        n = p1 * p2
        scale = math.sqrt(n / math.log(math.log(n)))
        indices = _law_indices((n, 0.0, 0.0), sigma, seed, (DECAY_CHECK_TAG, n), reps, clip=False)
        med = _median(1.0 - indices)
        rows.append({"p1": p1, "p2": p2, "n": n, "median_gap": med, "median_scaled": med * scale})
    return rows


def verify_noise_domination(sigma: float = 100.0, reps: int = 20, seed: int = 0) -> dict:
    """Raw indices of the dense test pattern, tiled to a 200 x 200 grid,
    under ``reps`` draws of overwhelming noise, beside the formula's
    prediction: index(A) plus nearly its full possible bias, near 1 at the
    default noise level. The caller judges how close to 1 every replicate
    must be; ``verify corollary1`` holds that threshold. The indices are read
    from drawn totals (``_law_indices``).
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    row = _fixed_row("dense", 100, 200)
    a = _repeat_row(row, 200)
    predicted = hoyer_index(a) + noise_bias(exact_moments(a, sigma))
    values = _law_indices(_row_pattern(row, 200), sigma, seed, (DOMINATION_CHECK_TAG,), reps)
    return {
        "dims": a.shape,
        "sigma": sigma,
        "reps": reps,
        "predicted": min(predicted, 1.0),
        "min_index": float(values.min()),
        "values": values.tolist(),
    }
