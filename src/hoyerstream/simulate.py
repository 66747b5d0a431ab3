"""Experiment generators and drivers: test anomalies, seeded noise, residual
streams with a change at t = 0, error bands, and the robustness/consistency
sweeps plus direct Monte Carlo checks of the asymptotic claims.

Randomness contract
-------------------
All noise comes from NumPy's Philox counter generator. Sub-streams are
derived by mixing a key into the master seed with ``numpy.random.SeedSequence
(master, spawn_key=key)``; experiment cells are keyed by parameter *value*
(bit pattern for floats) and replicate number, never by grid position, so
reordering or subsetting a grid leaves every cell's stream unchanged, and the
frame at position k of a simulated stream can be regenerated on its own.
Cells are independent, which is what lets the sweep drivers fan out across
threads without affecting results.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .indices import SignalMoments, as_image_matrix, hoyer_index, noise_bias
from .kernels import matrix_stats
from .stream import fit_baseline, monitor_series

# Domain tags keep sub-streams of different uses disjoint. Public because
# the derivation rule is part of the reproducibility contract: cell seed =
# subseed(master, tag, value_key, replicate).
STREAM_FRAME_TAG = 0
ROBUSTNESS_TAG = 1
CONSISTENCY_TAG = 2
BIAS_CHECK_TAG = 3
DECAY_CHECK_TAG = 4
DOMINATION_CHECK_TAG = 5

_MAX_SEED = 2**64


@dataclass(frozen=True)
class NoiseSpec:
    """White-noise description: entry standard deviation and master seed."""

    sigma: float
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.sigma) or self.sigma <= 0.0:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")
        if not 0 <= int(self.seed) < _MAX_SEED:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")


@dataclass(frozen=True)
class AnomalySpec:
    """Parametric test shift: a fixed-size pattern or a scaled-dimension one."""

    kind: str
    p1: int | None = None
    p2: int | None = None
    c: int | None = None

    def __post_init__(self):
        if self.kind not in ("dense", "sparse"):
            raise ValueError(f"kind must be 'dense' or 'sparse', got {self.kind!r}")
        explicit = self.p1 is not None or self.p2 is not None
        if explicit == (self.c is not None):
            raise ValueError("give either explicit dims (p1, p2) or a multiplier c")

    def build(self) -> np.ndarray:
        if self.c is not None:
            return make_scaled_anomaly(self.kind, self.c)
        if self.kind == "dense":
            return make_dense_anomaly(self.p1, self.p2)
        return make_sparse_anomaly(self.p1, self.p2)


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


def subseed(master_seed: int, *key: int) -> int:
    """Derive a 64-bit sub-seed by mixing ``key`` into the master seed."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def float_key(value: float) -> int:
    """Stable integer key for a float parameter: its IEEE-754 bit pattern."""
    return int(np.float64(value).view(np.uint64))


def noise_generator(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for the given seed, optionally keyed to a sub-stream."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key)))
    )


def _noise_into(out: np.ndarray, spec: NoiseSpec, *key: int) -> np.ndarray:
    """Fill ``out`` in place with iid N(0, sigma^2) entries of sub-stream ``key``."""
    noise_generator(spec.seed, *key).standard_normal(out=out)
    out *= spec.sigma
    return out


def sample_noise(p1: int, p2: int, spec: NoiseSpec, *key: int) -> np.ndarray:
    """One p1 x p2 matrix of iid N(0, sigma^2) entries; same inputs, same bits."""
    if p1 < 1 or p2 < 1:
        raise ValueError(f"dims must be positive, got ({p1}, {p2})")
    return _noise_into(np.empty((p1, p2)), spec, *key)


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
    stream; ``simulate_residual_stream`` uses exactly this derivation.
    """
    return sample_noise(p1, p2, spec, STREAM_FRAME_TAG, position)


def _stream_frame(out: np.ndarray, a: np.ndarray, spec: NoiseSpec, n_ic: int, k: int):
    """Write the frame at position ``k`` of a residual stream into ``out``:
    the noise of ``stream_frame_noise``, plus ``a`` from position ``n_ic`` on."""
    _noise_into(out, spec, STREAM_FRAME_TAG, k)
    if k >= n_ic:
        out += a
    return out


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
    frames = np.empty((n_ic + n_ooc,) + a.shape)
    for k in range(n_ic + n_ooc):
        _stream_frame(frames[k], a, spec, n_ic, k)
    return frames


def error_band(errors) -> ErrorBand:
    """Mean and n-1 standard deviation of a sequence of absolute errors."""
    e = np.asarray(errors, dtype=np.float64)
    if e.ndim != 1 or e.size < 2:
        raise ValueError(f"need at least 2 errors, got shape {e.shape}")
    return ErrorBand(m_eps=float(np.mean(e)), sigma_eps=float(np.std(e, ddof=1)))


def _cell_band(anomaly, h_true, sigma, cell_seed, w0, n_ooc, mode) -> ErrorBand:
    """One experiment cell: simulate, fit the baseline on the in-control
    frames, read every out-of-control frame, and band the absolute errors.

    The frames are those of ``simulate_residual_stream``, made one at a
    time, so a cell holds a few frames, however large ``w0`` and ``n_ooc``.
    """
    spec = NoiseSpec(sigma, cell_seed)
    frames = (
        _stream_frame(np.empty(anomaly.shape), anomaly, spec, w0, k)
        for k in range(w0 + n_ooc)
    )
    baseline = fit_baseline(frames, w0)
    readings = monitor_series(frames, baseline, range(n_ooc), mode=mode, t_offset=1)
    return error_band([abs(r.g - h_true) for r in readings])


def _aggregate(bands: list[ErrorBand]) -> ErrorBand:
    if len(bands) == 1:
        return bands[0]
    return ErrorBand(
        m_eps=float(np.median([b.m_eps for b in bands])),
        sigma_eps=float(np.median([b.sigma_eps for b in bands])),
    )


def _sweep(cells, tag, seed, w0, n_ooc, mode, replicates, workers, per_replicate):
    """Band every ``(value, anomaly, sigma, key)`` cell once per replicate,
    seeded ``subseed(seed, tag, key, rep)``, and table the bands by value.

    Cells are independent, so with ``workers`` > 1 they run on that many
    threads without changing any value.
    """
    jobs = []
    for _, anomaly, sigma, key in cells:
        h_true = hoyer_index(anomaly)
        jobs += [
            (anomaly, h_true, sigma, subseed(seed, tag, key, rep)) for rep in range(replicates)
        ]

    def run(job):
        return _cell_band(*job, w0, n_ooc, mode)

    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            bands = list(pool.map(run, jobs))
    else:
        bands = [run(job) for job in jobs]
    table = {}
    for i, (value, *_) in enumerate(cells):
        per_rep = bands[i * replicates : (i + 1) * replicates]
        table[value] = per_rep if per_replicate else _aggregate(per_rep)
    return table


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
    per_replicate: bool = False,
):
    """Error bands of the corrected index across noise levels, fixed dims.

    For each sigma: simulate a stream of ``w0`` in-control and ``n_ooc``
    shifted frames at ``dims``, fit the baseline on the in-control part, read
    every shifted frame, and band the absolute errors against the anomaly's
    true index. Returns {sigma: ErrorBand}; with ``replicates`` > 1 each
    entry is the per-field median over replicate bands (or the full list
    when ``per_replicate`` is set). Cells may be fanned out over ``workers``
    threads without changing any value.
    """
    sigmas = [float(s) for s in sigmas]
    if not sigmas:
        raise ValueError("empty sigma grid")
    anomaly = AnomalySpec(kind=kind, p1=dims[0], p2=dims[1]).build()
    cells = [(s, anomaly, s, float_key(s)) for s in sigmas]
    return _sweep(
        cells, ROBUSTNESS_TAG, seed, w0, n_ooc, mode, replicates, workers, per_replicate
    )


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
    per_replicate: bool = False,
):
    """Error bands of the corrected index across dimension multipliers, fixed noise.

    Same cell pipeline as ``run_robustness`` but the anomaly is the size-c
    rendering for each multiplier in ``cs`` and sigma stays fixed. Returns
    {c: ErrorBand} (or per-replicate lists).
    """
    cs = [int(c) for c in cs]
    if not cs:
        raise ValueError("empty multiplier grid")
    cells = [(c, make_scaled_anomaly(kind, c), sigma, c) for c in cs]
    return _sweep(
        cells, CONSISTENCY_TAG, seed, w0, n_ooc, mode, replicates, workers, per_replicate
    )


def exact_moments(anomaly, sigma: float) -> SignalMoments:
    """Moments of a known anomaly matrix: (|sum|/n, ||A||_F^2/n, sigma^2)."""
    a = as_image_matrix(anomaly)
    s, ss, _ = matrix_stats(a)
    return SignalMoments(a_bar=abs(s) / a.size, a2_bar=ss / a.size, sigma2=sigma * sigma)


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
    predicted = noise_bias(exact_moments(a, sigma)) if sigma > 0 else 0.0
    h_a = hoyer_index(a)
    p1, p2 = a.shape
    gaps = []
    if sigma > 0:
        spec = NoiseSpec(sigma, seed)
        for rep in range(reps):
            e = sample_noise(p1, p2, spec, BIAS_CHECK_TAG, rep)
            gaps.append(hoyer_index(a + e) - h_a)
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
    rows = []
    for size in sizes:
        p1, p2 = (size if isinstance(size, tuple) else near_square_dims(int(size)))
        n = p1 * p2
        scale = math.sqrt(n / math.log(math.log(n)))
        spec = NoiseSpec(sigma, seed)
        gaps = []
        for rep in range(reps):
            e = sample_noise(p1, p2, spec, DECAY_CHECK_TAG, n, rep)
            gaps.append(1.0 - hoyer_index(e, clip=False))
        med = float(np.median(gaps))
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
    base = make_dense_anomaly(100, 200) if kind == "dense" else make_sparse_anomaly(100, 200)
    a = np.tile(base, (2, 1))
    spec = NoiseSpec(sigma, seed)
    predicted = hoyer_index(a) + noise_bias(exact_moments(a, sigma))
    values = []
    for rep in range(reps):
        e = sample_noise(a.shape[0], a.shape[1], spec, DOMINATION_CHECK_TAG, rep)
        values.append(hoyer_index(a + e))
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
