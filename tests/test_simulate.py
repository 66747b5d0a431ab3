"""Anomaly factories, seeded noise, streams, bands, sweep drivers, verifiers."""

import collections
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hoyerstream.simulate as simulate
from hoyerstream import (
    ErrorBand,
    NoiseSpec,
    fit_baseline,
    hoyer_index,
    run_consistency,
    run_robustness,
    sample_noise,
    verify_bias_theorem,
    verify_noise_domination,
    verify_noise_sparsity_decay,
)
from hoyerstream.errors import DimensionError
from hoyerstream.kernels import matrix_totals
from hoyerstream.simulate import (
    CELL_BASELINE_TAG,
    CELL_STATS_TAG,
    DECAY_CHECK_TAG,
    ROBUSTNESS_TAG,
    STREAM_FRAME_TAG,
    _baseline_draws,
    _cell_band,
    _fixed_row,
    _law_indices,
    _median,
    _row_pattern,
    _scaled_row,
    _shifted_totals,
    _sweep,
    error_band,
    float_key,
    near_square_dims,
    stream_frame_noise,
    subseed,
)

from conftest import (
    bias_oracle,
    fixed_anomaly,
    hoyer_oracle,
    residual_stream,
    scaled_anomaly,
    totals_reading_oracle,
    welford_oracle,
)


class TestAnomalyFactories:
    def test_dense_entries(self):
        a = fixed_anomaly("dense", 100, 200)
        assert a.shape == (100, 200)
        assert a[0, 50] == 1.0  # 1-based (i=1, j=51)
        assert np.all(a[:, 0] == 0.0)  # j=1 column
        assert len(set(a.sum(axis=1))) == 1  # rows identical
        assert set(np.unique(a)) == {0.0, 1.0, 2.0, 3.0}

    def test_sparse_entries(self):
        a = fixed_anomaly("sparse", 100, 200)
        assert a[0, 54] == 5.0  # 1-based j=55
        assert a[0, 59] == 0.0  # 1-based j=60 excluded
        assert a[0, 49] == 5.0  # 1-based j=50 included
        assert np.count_nonzero(a) == 10 * 100

    def test_scaled_dense_c10(self):
        a = scaled_anomaly("dense", 10)
        assert a.shape == (10, 20)
        assert a[0, 19] == 3.0  # 1-based j=20
        assert set(np.unique(a)) == {0.0, 1.0, 2.0, 3.0}
        counts = [np.count_nonzero(a[0] == v) for v in (0.0, 1.0, 2.0, 3.0)]
        assert counts == [5, 5, 5, 5]

    def test_scaled_sparse_c10(self):
        a = scaled_anomaly("sparse", 10)
        nonzero_cols = np.flatnonzero(a[0]) + 1  # 1-based
        assert list(nonzero_cols) == [5]
        assert a[0, 4] == 5.0

    def test_scaled_c100_matches_fixed_patterns(self):
        assert np.array_equal(scaled_anomaly("dense", 100), fixed_anomaly("dense", 100, 200))
        assert np.array_equal(scaled_anomaly("sparse", 100), fixed_anomaly("sparse", 100, 200))
        a = scaled_anomaly("sparse", 100)
        assert hoyer_index(a) == pytest.approx(hoyer_oracle(a), abs=1e-12)

    @pytest.mark.parametrize(
        "row, p1",
        [(_fixed_row("dense", 200), 100), (_fixed_row("sparse", 200), 100)]
        + [(_scaled_row(kind, c), c) for kind in ("dense", "sparse") for c in (10, 30, 100)],
    )
    def test_row_pattern_is_the_matrix_pattern(self, row, p1):
        # A cell reads (n, mean, ||A - mean||, index) from the one row.
        # Every total over these patterns is exact, so the values are the
        # matrix's own bits.
        a = np.ascontiguousarray(np.broadcast_to(row, (p1, row.size)))
        n = a.size
        a_bar = matrix_totals(a)[0] / n
        alpha = math.sqrt(matrix_totals(a - a_bar)[1])
        assert _row_pattern(row, p1) == (n, a_bar, alpha, hoyer_index(a))

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_shared_row_builder_keeps_the_old_rows(self, kind):
        # The formulas each family had before the two shared one builder.
        def old_fixed(p2):
            j = np.arange(1, p2 + 1)
            if kind == "dense":
                return np.floor_divide(np.arange(p2), 50).astype(np.float64)
            return np.where((j >= 50) & (j < 60), 5.0, 0.0)

        def old_scaled(c):
            p2 = 2 * c
            j = np.arange(1, p2 + 1)
            if kind == "dense":
                return np.floor_divide(4 * (j - 1), p2).astype(np.float64)
            return np.where((j >= p2 // 4) & (j < p2 // 4 + c // 10), 5.0, 0.0)

        for p2 in (1, 49, 50, 59, 60, 61, 200, 1001):
            row = _fixed_row(kind, p2)
            assert row.dtype == np.float64 and row.tobytes() == old_fixed(p2).tobytes()
        for c in range(10, 2001, 10):
            row = _scaled_row(kind, c)
            assert row.dtype == np.float64 and row.tobytes() == old_scaled(c).tobytes()

    def test_row_pattern_of_other_dims(self):
        a = fixed_anomaly("sparse", 7, 130)
        n, a_bar, alpha, h_true = _row_pattern(a[0], 7)
        assert n == a.size
        assert a_bar == pytest.approx(a.mean(), rel=1e-15)
        assert alpha == pytest.approx(np.linalg.norm(a - a.mean()), rel=1e-13)
        assert h_true == pytest.approx(hoyer_oracle(a), rel=1e-13)
        with pytest.raises(DimensionError, match="too small"):
            _row_pattern(np.ones(1), 1)

    def test_invalid_multiplier(self):
        for c in (0, -10, 15, 7):
            with pytest.raises(ValueError):
                _scaled_row("dense", c)

    def test_anomaly_spec(self):
        # A sweep names its anomaly by kind; any other kind is refused
        # before a cell runs.
        with pytest.raises(ValueError, match="kind must be"):
            run_robustness([1.0], "blobby", 0)
        with pytest.raises(ValueError, match="kind must be"):
            run_consistency([10], "blobby", 0)


class TestSampleNoise:
    def test_deterministic(self):
        spec = NoiseSpec(2.5, 42)
        assert np.array_equal(sample_noise(30, 40, spec), sample_noise(30, 40, spec))

    def test_subkeys_differ(self):
        spec = NoiseSpec(1.0, 42)
        assert not np.array_equal(sample_noise(8, 8, spec, 0), sample_noise(8, 8, spec, 1))

    def test_moments_at_a_million_entries(self):
        sigma = 3.0
        e = sample_noise(1000, 1000, NoiseSpec(sigma, 7))
        assert abs(float(e.mean())) < 4 * sigma / 1000.0
        assert abs(float(e.var()) - sigma * sigma) / (sigma * sigma) < 0.01

    def test_sigma_scaling_is_exact(self):
        a = sample_noise(16, 16, NoiseSpec(1.5, 9))
        b = sample_noise(16, 16, NoiseSpec(3.0, 9))
        assert np.array_equal(b, 2.0 * a)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(0.0, 1)
        with pytest.raises(ValueError):
            NoiseSpec(math.inf, 1)
        with pytest.raises(ValueError):
            NoiseSpec(1.0, -3)
        with pytest.raises(ValueError):
            NoiseSpec(1.0, 2**64)


def _reference_noise(shape, spec, key):
    """Noise at ``key`` from a fresh NumPy generator, built here, not by the package."""
    ss = np.random.SeedSequence(spec.seed, spawn_key=tuple(key))
    return spec.sigma * np.random.Generator(np.random.Philox(ss)).standard_normal(shape)


class TestKeyDerivation:
    """Every keyed draw is a fresh NumPy generator at its key, so a generator
    built in the test from NumPy alone is the oracle."""

    @pytest.mark.parametrize("seed", [0, 7, 12345, 2**40 + 3, 2**64 - 1])
    def test_cell_positions_and_public_derivations(self, seed):
        spec = NoiseSpec(1.0, seed)
        for k in (0, 1, 13, 250, 255, 256, 399):
            expected = _reference_noise((2, 3), spec, (STREAM_FRAME_TAG, k))
            assert np.array_equal(stream_frame_noise(2, 3, spec, k), expected), k
        ss = np.random.SeedSequence(seed, spawn_key=(1, 2))
        assert subseed(seed, 1, 2) == int(ss.generate_state(1, np.uint64)[0])
        reference = np.random.Generator(np.random.Philox(ss))
        assert np.array_equal(
            sample_noise(3, 3, NoiseSpec(1.0, seed), 1, 2), reference.standard_normal((3, 3))
        )

    def test_negative_seed_or_key_rejected(self):
        with pytest.raises(ValueError):
            subseed(-1)
        with pytest.raises(ValueError):
            subseed(1, -2)
        with pytest.raises(ValueError):
            stream_frame_noise(2, 2, NoiseSpec(1.0, 1), -1)
        with pytest.raises(ValueError):
            subseed(-5, 0)
        with pytest.raises(ValueError):
            sample_noise(2, 2, NoiseSpec(1.0, 3), 0, -1)
        # A float seed or key is refused, never truncated to an integer.
        with pytest.raises(ValueError, match="seed must be"):
            NoiseSpec(1.0, 1.5)
        with pytest.raises(ValueError, match="seed must be"):
            NoiseSpec(1.0, 1.0)
        # A sweep's or a check's master seed is held to the same rule.
        for seed in (1.5, np.float64(2.0), 2**64):
            with pytest.raises(ValueError, match="seed must be"):
                NoiseSpec(1.0, seed)
            with pytest.raises(ValueError, match="seed must be"):
                subseed(seed, 1)
            with pytest.raises(ValueError, match="seed must be"):
                verify_noise_domination(reps=2, seed=seed)
            with pytest.raises(ValueError, match="seed must be"):
                run_robustness([1.0], "dense", seed, w0=20, n_ooc=10)
            with pytest.raises(ValueError, match="seed must be"):
                run_consistency([10], "dense", seed, w0=20, n_ooc=10)
        with pytest.raises(TypeError):
            sample_noise(2, 2, NoiseSpec(1.0, 3), 2.9)
        with pytest.raises(TypeError):
            subseed(7, 0.5)
        # NumPy integers are integers.
        assert np.array_equal(
            sample_noise(2, 2, NoiseSpec(1.0, np.uint64(3)), np.int64(2)),
            sample_noise(2, 2, NoiseSpec(1.0, 3), 2),
        )

    def test_constant_generator_constructions_per_cell(self, monkeypatch):
        # A cell builds one generator per key (three) and one more
        # SeedSequence for its seed: the counts must not grow with the
        # stream, the baseline window or the frame, only with the number of
        # cells.
        counts = collections.Counter()
        for name in ("Philox", "Generator", "SeedSequence"):
            original = getattr(np.random, name)

            def build(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.random, name, build)

        def constructions(w0=20, n_ooc=10, replicates=1):
            counts.clear()
            run_robustness([1.0], "dense", 5, w0=w0, n_ooc=n_ooc, replicates=replicates)
            return dict(counts)

        per_cell = constructions()
        assert per_cell == {"SeedSequence": 4, "Philox": 3, "Generator": 3}, per_cell
        assert constructions(n_ooc=40) == per_cell
        assert constructions(w0=200) == per_cell
        assert constructions(replicates=2) == {k: 2 * v for k, v in per_cell.items()}

        # Each verifier (each size, for the decay check) draws all its
        # replicates' totals from one generator: one SeedSequence for its
        # sub-seed, and one SeedSequence, Philox and Generator at its key.
        verifiers = [
            lambda reps: verify_bias_theorem(1.0, 1.0, reps=reps),
            lambda reps: verify_noise_sparsity_decay([200], reps=reps),
            lambda reps: verify_noise_domination(reps=reps),
        ]
        for verify in verifiers:
            for reps in (2, 7):
                counts.clear()
                verify(reps)
                expected = {"SeedSequence": 2, "Philox": 1, "Generator": 1}
                assert dict(counts) == expected, (reps, dict(counts))


class _CountingRng:
    """Passes a generator's draws through, logging the shape of each normal
    draw into ``normals`` and the degrees of freedom and size of each
    chi-square draw into ``chisquares``."""

    def __init__(self, rng, normals, chisquares):
        self.rng, self.normals, self.chisquares = rng, normals, chisquares

    def standard_normal(self, size):
        self.normals.append(size)
        return self.rng.standard_normal(size)

    def chisquare(self, df, size=None):
        self.chisquares.append((df, size))
        return self.rng.chisquare(df, size)


# Median of means: split the samples into _BLOCKS blocks of m and take the
# median of the block means. By Chebyshev a block mean misses its target by
# more than 2·sd/sqrt(m) with probability at most 1/4, and the median misses
# only if at least 61 of the 121 blocks do: P(Bin(121, 1/4) >= 61) < 1.7e-9.
_BLOCKS = 121


def _median_of_means_misses(values, target, sd):
    """Per column of ``values``, whether the median of means misses
    ``target`` by more than 2·sd/sqrt(m), sd being one value's true sd."""
    m = len(values) // _BLOCKS
    means = values[: _BLOCKS * m].reshape(_BLOCKS, m, -1).mean(axis=1)
    return np.abs(np.median(means, axis=0) - target) > 2.0 * sd / math.sqrt(m)


class TestCellBaseline:
    """A cell draws the mean b_bar and squared spread beta^2 = ||b - b_bar||^2
    of b = A - mu0_hat, and sigma2_hat, from the law of ``fit_baseline`` on
    w0 frames of iid N(0, sigma^2) noise. With tau^2 = sigma^2 / w0, n
    entries, a_bar = mean(A) and alpha = ||A - a_bar||: b_bar is
    N(a_bar, tau^2 / n); beta^2 / tau^2 is noncentral chi-square with n - 1
    degrees of freedom and noncentrality lam = alpha^2 / tau^2, independent
    of b_bar, so E beta^2 = alpha^2 + (n - 1)·tau^2 and its cumulants are
    k2 = 2(n - 1 + 2·lam), k4 = 48(n - 1 + 4·lam) in units of tau^4 and
    tau^8; and sigma2_hat = sigma^2·X/df with X ~ chi-square(df),
    df = n·(w0 - 1), independent of both."""

    @pytest.mark.parametrize("shape, w0", [((2, 3), 2), ((2, 3), 3), ((3, 4), 2)])
    def test_first_two_moments_match_the_law_and_fit_baseline(self, shape, w0):
        # Each case runs 7 median-of-means checks for each of the two
        # sources, 42 over the three cases, so the test fails falsely with
        # probability below 42 · 1.7e-9 < 1e-7.
        sigma = 1.5
        a = np.arange(shape[0] * shape[1], dtype=np.float64).reshape(shape) % 3
        n = a.size
        a_bar = math.fsum(a.ravel()) / n
        alpha = math.sqrt(math.fsum((a.ravel() - a_bar) ** 2))
        cells = _BLOCKS * 200
        drawn = np.array(
            [_baseline_draws(NoiseSpec(sigma, seed), n, a_bar, alpha, w0) for seed in range(cells)]
        )
        drawn[:, 1] **= 2
        cells = _BLOCKS * 40
        rng = np.random.Generator(np.random.Philox(2024))
        fitted = []
        for _ in range(cells):
            baseline = fit_baseline(sigma * rng.standard_normal(shape) for _ in range(w0))
            b = a - baseline.mu0_hat
            fitted.append((b.mean(), ((b - b.mean()) ** 2).sum(), baseline.sigma2_hat))
        fitted = np.array(fitted)

        df = n * (w0 - 1)
        tau2 = sigma**2 / w0
        lam = alpha**2 / tau2
        k2, k4 = 2 * (n - 1 + 2 * lam), 48 * (n - 1 + 4 * lam)
        mean_beta2 = alpha**2 + (n - 1) * tau2
        for name, (b_bar, beta2, s2) in (("drawn", drawn.T), ("fit_baseline", fitted.T)):
            checks = {
                "b_bar mean": (b_bar, a_bar, math.sqrt(tau2 / n)),
                "b_bar variance": ((b_bar - a_bar) ** 2, tau2 / n, math.sqrt(2) * tau2 / n),
                "beta^2 mean": (beta2, mean_beta2, tau2 * math.sqrt(k2)),
                "beta^2 variance": (
                    (beta2 - mean_beta2) ** 2, tau2**2 * k2, tau2**2 * math.sqrt(k4 + 2 * k2**2)
                ),
                "covariance": (
                    (b_bar - a_bar) * (beta2 - mean_beta2), 0.0, math.sqrt(tau2 / n * tau2**2 * k2)
                ),
                "sigma2_hat mean": (s2, sigma**2, sigma**2 * math.sqrt(2 / df)),
                "sigma2_hat variance": (
                    (s2 - sigma**2) ** 2,
                    2 * sigma**4 / df,
                    sigma**4 * math.sqrt(8 * df**2 + 48 * df) / df**2,
                ),
            }
            missed = [
                check
                for check, (values, target, sd) in checks.items()
                if _median_of_means_misses(values, target, sd).any()
            ]
            assert not missed, (name, missed)


class TestShiftedTotals:
    """A cell draws each shifted residual's entry sum s and sum of squares
    ss from their exact joint law, given n, the mean b_bar and the spread
    beta = ||b - b_bar|| of its residual mean b. For r = b + e, e iid
    N(0, sigma^2) over n entries, S = sum(b), B = ||b||^2 and
    lam = B / sigma^2: s is N(S, n·sigma^2); ss / sigma^2 is noncentral
    chi-square with n degrees of freedom and noncentrality lam, so
    E ss = B + n·sigma^2 and its cumulants are k2 = 2(n + 2·lam),
    k4 = 48(n + 4·lam) in units of sigma^4 and sigma^8; Cov(s, ss) =
    2·sigma^2·S, and the product of the two deviations has variance
    n·sigma^4·(4·S^2/n + 4·B + (2n + 8)·sigma^2)."""

    @pytest.mark.parametrize(
        "anomaly", [[[1.5, 0.5]], [[2.0, 1.0, 0.0]], [[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]]]
    )
    def test_first_two_moments_match_the_law_and_matrix_stats(self, anomaly):
        # 5 median-of-means checks for each of the two sources and three
        # shapes, 30 in all, so the test fails falsely with probability
        # below 30 · 1.7e-9 < 1e-7.
        sigma, w0 = 2.0, 50
        a = np.array(anomaly)
        n = a.size
        spec = NoiseSpec(sigma, 2025)
        count = _BLOCKS * 200
        # b as a cell's baseline leaves it: the anomaly less a mean of w0
        # noise frames.
        rng = np.random.Generator(np.random.Philox(2025))
        b = a - sigma / math.sqrt(w0) * rng.standard_normal(a.shape)
        b_bar = matrix_totals(b)[0] / n
        drawn = _shifted_totals(spec, n, b_bar, math.sqrt(matrix_totals(b - b_bar)[1]), count)
        noise = sigma * rng.standard_normal((count,) + a.shape)
        real = np.array([matrix_totals(b + e) for e in noise]).T

        values = [float(v) for v in b.ravel()]
        big_s, big_b = math.fsum(values), math.fsum(v * v for v in values)
        mean_ss = big_b + n * sigma**2
        lam = big_b / sigma**2
        k2, k4 = 2 * (n + 2 * lam), 48 * (n + 4 * lam)
        ss_sd = sigma**4 * math.sqrt(k4 + 2 * k2**2)
        cov_sd = sigma**2 * math.sqrt(n * (4 * big_s**2 / n + 4 * big_b + (2 * n + 8) * sigma**2))
        for name, (s, ss) in (("drawn", drawn), ("matrix_totals", real)):
            checks = {
                "s mean": (s, big_s, sigma * math.sqrt(n)),
                "s variance": ((s - big_s) ** 2, n * sigma**2, math.sqrt(2) * n * sigma**2),
                "ss mean": (ss, mean_ss, sigma**2 * math.sqrt(k2)),
                "ss variance": ((ss - mean_ss) ** 2, sigma**4 * k2, ss_sd),
                "covariance": ((s - big_s) * (ss - mean_ss), 2 * sigma**2 * big_s, cov_sd),
            }
            missed = [
                check
                for check, (values, target, sd) in checks.items()
                if _median_of_means_misses(values, target, sd).any()
            ]
            assert not missed, (name, missed)

    def test_out_of_range_sum_of_squares_raises(self):
        # A noise level whose square overflows gives no finite total, and
        # a blank residual with vanishing noise none above the smallest
        # normal float: the cell refuses both rather than read them.
        for sigma, b_bar in ((1e200, 1.0), (1e-200, 0.0)):
            with pytest.raises(ValueError, match="normal float range"):
                _shifted_totals(NoiseSpec(sigma, 1), 6, b_bar, 0.0, 4)
        # Such a noise level fails the cell's baseline first, as a bad
        # input, not as an arithmetic error.
        with pytest.raises(ValueError, match="sigma2_hat must be finite"):
            run_robustness([1e200], "dense", 0, w0=2, n_ooc=2)


class TestResidualStream:
    def test_shape_and_change_point(self):
        a = fixed_anomaly("sparse", 10, 20)
        frames = residual_stream(a, NoiseSpec(1e-9, 3), n_ic=4, n_ooc=3)
        assert frames.shape == (7, 10, 20)
        # vanishing noise: out-of-control frames match the anomaly
        for k in range(4, 7):
            assert np.allclose(frames[k], a, atol=1e-6)
        for k in range(4):
            assert np.allclose(frames[k], 0.0, atol=1e-6)

    def test_in_control_frames_read_sparse(self):
        for seed in range(20):
            assert hoyer_index(stream_frame_noise(100, 200, NoiseSpec(1.0, seed), 0)) >= 0.9


class TestErrorBand:
    def test_constant_errors(self):
        band = error_band([0.0625, 0.0625, 0.0625])  # dyadic: mean is exact
        assert (band.m_eps, band.sigma_eps, band.lo, band.hi) == (0.0625, 0.0, 0.0625, 0.0625)
        band = error_band([0.05, 0.05, 0.05])
        assert band.m_eps == pytest.approx(0.05, abs=1e-15)
        assert band.sigma_eps == pytest.approx(0.0, abs=1e-15)

    def test_two_point_hand_oracle(self):
        band = error_band([0.0, 0.1])
        sd = math.sqrt(((0.0 - 0.05) ** 2 + (0.1 - 0.05) ** 2) / 1)
        assert band.m_eps == 0.05
        assert band.sigma_eps == pytest.approx(sd, abs=1e-15)
        assert band.lo == pytest.approx(0.05 - 1.96 * sd, abs=1e-15)
        assert band.hi == pytest.approx(0.05 + 1.96 * sd, abs=1e-15)

    def test_matches_streaming_oracle(self, rng):
        errs = np.abs(rng.standard_normal(200)) * 0.03
        band = error_band(errs)
        mean, sd = welford_oracle(errs)
        assert band.m_eps == pytest.approx(mean, abs=1e-12)
        assert band.sigma_eps == pytest.approx(sd, abs=1e-12)

    def test_band_invariants(self):
        band = ErrorBand(m_eps=0.2, sigma_eps=0.01)
        assert band.lo == 0.2 - 1.96 * 0.01
        assert band.hi == 0.2 + 1.96 * 0.01
        assert band.width == pytest.approx(2 * 1.96 * 0.01)

    def test_too_short(self):
        with pytest.raises(ValueError):
            error_band([0.1])


class TestMedian:
    # -0.0 is mapped to 0.0: the two compare equal, and which of them a
    # sort or a partition puts in the middle is not specified.
    @given(st.lists(st.floats(-1e300, 1e300).map(lambda x: x + 0.0), min_size=1, max_size=9))
    @settings(max_examples=300, deadline=None)
    def test_bits_of_np_median(self, values):
        assert simulate._median(values).hex() == float(np.median(values)).hex()

    @pytest.mark.parametrize(
        "values, middle",
        [([3.0, 1.0, 2.0], 2.0), ([0.1, 0.7, 0.3, 0.2], (0.2 + 0.3) / 2), ([0.25], 0.25)],
        ids=["odd", "even", "one"],
    )
    def test_odd_and_even_counts(self, values, middle):
        assert simulate._median(values) == middle == float(np.median(values))


class TestSweepDrivers:
    def test_robustness_composes_from_public_ops(self):
        # A one-sigma sweep must equal the same pipeline assembled by hand
        # from NumPy generators at the documented keys and the documented
        # formulas: the cell seed; the anomaly's n, mean a_bar and spread
        # alpha; sigma2_hat from a chi-square with n·(w0 - 1) degrees of
        # freedom; the residual mean's b_bar and beta from two normals and
        # a chi-square C0 with n - 2 degrees of freedom; then each shifted
        # residual's sum and sum of squares from z1, z2 and a chi-square
        # with n - 2 degrees of freedom; each read by the plain-float
        # reading oracle.
        sigma, master, w0, n_ooc = 1.5, 77, 50, 40
        table = run_robustness([sigma], "dense", master, w0=w0, n_ooc=n_ooc)
        a = fixed_anomaly("dense", 100, 200)
        n, h_true = a.size, hoyer_index(a)
        a_bar = matrix_totals(a)[0] / n
        alpha = math.sqrt(matrix_totals(a - a_bar)[1])
        spec = NoiseSpec(sigma, subseed(master, ROBUSTNESS_TAG, float_key(sigma), 0))

        def generator(*key):
            ss = np.random.SeedSequence(spec.seed, spawn_key=key)
            return np.random.Generator(np.random.Philox(ss))

        def chisquare(rng, df, size=None):
            return 2.0 * rng.standard_gamma(df / 2, size)

        df = n * (w0 - 1)
        sigma2_hat = sigma * sigma * chisquare(generator(CELL_BASELINE_TAG, 1), df) / df
        rng = generator(CELL_BASELINE_TAG, 0)
        tau = sigma / math.sqrt(w0)
        (y1,), (y2,) = tau * rng.standard_normal((2, 1))
        c0 = chisquare(rng, n - 2, 1)[0]
        b_bar = (math.sqrt(n) * a_bar + y1) / math.sqrt(n)
        beta = math.sqrt((alpha + y2) ** 2 + tau * tau * c0)
        rng = generator(CELL_STATS_TAG, 0)
        z1, z2 = sigma * rng.standard_normal((2, n_ooc))
        u = math.sqrt(n) * b_bar + z1
        s = math.sqrt(n) * u
        ss = u**2 + ((beta + z2) ** 2 + sigma * sigma * chisquare(rng, n - 2, n_ooc))
        errs = []
        for s_k, ss_k in zip(s.tolist(), ss.tolist()):
            g = totals_reading_oracle(s_k, ss_k, n, sigma2_hat, "debias")[-1]
            errs.append(abs(g - h_true))
        manual = error_band(errs)
        assert table[sigma] == manual

    def test_cell_draws_no_frame(self, monkeypatch):
        # A cell draws 3·n_ooc + 4 scalars and no frame: a chi-square with
        # n·(w0 - 1) degrees of freedom for sigma2_hat; a (2, 1) block of
        # normals and a chi-square C0 with n - 2 for its residual mean's
        # b_bar and beta; and a (2, n_ooc) block of normals and n_ooc
        # chi-squares with n - 2 for the residuals' totals. The frame size
        # and w0 enter only as degrees of freedom, and n_ooc only as a
        # count; the chi-squares with n - 2 are skipped when n = 2. The
        # sweep runs on a staircase row of each shape, since
        # ``run_robustness`` runs at 100 x 200 only.
        cells = {}
        original = simulate._rng

        def counting(seed, *key):
            return _CountingRng(original(seed, *key), *cells.setdefault(seed, ([], [])))

        monkeypatch.setattr(simulate, "_rng", counting)
        cases = [((10, 20), 20, 10), ((10, 20), 200, 10), ((10, 20), 20, 40),
                 ((1000, 2000), 20, 10), ((1, 2), 20, 10)]
        for dims, w0, n_ooc in cases:
            cells.clear()
            pattern = _row_pattern(np.arange(dims[1], dtype=np.float64), dims[0])
            grid = [(s, pattern, s, float_key(s)) for s in (1.0, 2.0)]
            _sweep("sigmas", grid, ROBUSTNESS_TAG, 5, w0, n_ooc, "debias", 1, 1)
            n = dims[0] * dims[1]
            chisquares = [(n * (w0 - 1), None)]
            if n > 2:
                chisquares += [(n - 2, 1), (n - 2, n_ooc)]
            cell = ([(2, 1), (2, n_ooc)], chisquares)
            assert list(cells.values()) == [cell, cell], (dims, w0, n_ooc)

    def test_cells_keyed_by_value_not_position(self):
        full = run_robustness([0.5, 1.0], "sparse", 5, w0=30, n_ooc=20)
        alone = run_robustness([1.0], "sparse", 5, w0=30, n_ooc=20)
        assert full[1.0] == alone[1.0]

    def test_low_noise_dense_error_is_small(self):
        table = run_robustness([0.5], "dense", 11)
        assert table[0.5].m_eps < 0.02

    def test_replicate_aggregation_and_detail(self):
        # Each replicate is one cell at its own documented seed; the sweep
        # reports the per-field median of their bands.
        pattern = _row_pattern(fixed_anomaly("dense", 100, 200)[0], 100)
        bands = [
            _cell_band(
                pattern, NoiseSpec(2.0, subseed(3, ROBUSTNESS_TAG, float_key(2.0), rep)),
                20, 10, "debias",
            )
            for rep in range(3)
        ]
        assert len({b.m_eps for b in bands}) == 3
        agg = run_robustness([2.0], "dense", 3, w0=20, n_ooc=10, replicates=3)[2.0]
        assert agg.m_eps == float(np.median([b.m_eps for b in bands]))
        assert agg.sigma_eps == float(np.median([b.sigma_eps for b in bands]))

    def test_cell_memory_does_not_grow_with_the_stream(self):
        # A cell holds no frame: 150 more shifted frames may only add their
        # small readings, and c = 1000 only its pattern's one row of 2,000
        # entries (16 KB), not the 16 MB frame.
        def peak(n_ooc, c):
            tracemalloc.start()
            try:
                run_consistency([c], "dense", 4, w0=20, n_ooc=n_ooc)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(50, 10)  # warm-up: first-call caches stay out of the comparison
        short, long, large = peak(50, 10), peak(200, 10), peak(50, 1000)
        assert abs(long - short) < 64 * 1024, (short, long)
        assert abs(large - short) < 64 * 1024, (short, large)

    def test_workers_do_not_change_results(self):
        serial = run_robustness([0.5, 1.0], "dense", 9, w0=20, n_ooc=10, replicates=2)
        threaded = run_robustness(
            [0.5, 1.0], "dense", 9, w0=20, n_ooc=10, replicates=2, workers=4
        )
        assert serial == threaded

    def test_consistency_errors_shrink_with_size(self):
        table = run_consistency([10, 50], "dense", 13, w0=60, n_ooc=60)
        assert table[50].m_eps < table[10].m_eps

    def test_consistency_error_falls_per_decade_of_c(self):
        # The paper's consistency claim where it is asymptotic. With
        # w0 = 10**6 the baseline's own noise is negligible, and the median
        # m_eps of 5 replicates falls about 10x per decade of c. Over seeds
        # 0..299, the 600 decade ratios of each kind had mean 10.0, sd 0.41
        # and minimum 8.7, so a 5x floor is 12 sds below the mean.
        cs = (100, 1000, 10_000)
        for kind in ("sparse", "dense"):
            table = run_consistency(cs, kind, 17, w0=10**6, replicates=5)
            m = [table[c].m_eps for c in cs]
            assert m[0] > 5 * m[1] and m[1] > 5 * m[2], (kind, m)

    def test_replicates_below_one_rejected(self):
        for replicates in (0, -1):
            with pytest.raises(ValueError, match="replicates must be >= 1"):
                run_robustness([1.0], "dense", 5, replicates=replicates)
            with pytest.raises(ValueError, match="replicates must be >= 1"):
                run_consistency([10], "dense", 5, replicates=replicates)

    @pytest.mark.parametrize(
        "what, call",
        [
            ("n_ooc", lambda: run_robustness([1.0], "dense", 0, w0=20, n_ooc=10.5)),
            ("replicates", lambda: run_robustness([1.0], "dense", 0, n_ooc=10, replicates=2.5)),
            ("reps", lambda: verify_bias_theorem(1.0, 1.0, reps=2.5)),
            ("reps", lambda: verify_noise_sparsity_decay([100], reps=2.5)),
            ("reps", lambda: verify_noise_domination(reps=3.5)),
            ("dims", lambda: sample_noise(2.5, 3, NoiseSpec(1.0, 1))),
        ],
        ids=["n_ooc", "replicates", "theorem1", "lemma2", "corollary1", "sample_noise"],
    )
    def test_float_counts_refused(self, what, call):
        # A float count is the package's ValueError, not NumPy's TypeError
        # from deep in the draw.
        with pytest.raises(ValueError, match=f"{what} must be an integer"):
            call()

    def test_consistency_validates_multipliers(self):
        with pytest.raises(ValueError):
            run_consistency([15], "dense", 0)
        # A float multiplier is refused, not truncated to c = 10.
        with pytest.raises(ValueError, match="must be an integer, got 10.9"):
            run_consistency([10.9], "dense", 1, w0=20, n_ooc=10)
        # So is a float w0 (a "20.5-frame" baseline used to be banded).
        with pytest.raises(ValueError, match="w0 must be an integer, got 20.5"):
            run_robustness([1.0], "dense", 0, w0=20.5, n_ooc=10)
        assert run_consistency([np.int64(10)], "dense", 1, w0=20, n_ooc=10) == run_consistency(
            [10], "dense", 1, w0=20, n_ooc=10
        )
        with pytest.raises(ValueError):
            run_consistency([], "dense", 0)
        with pytest.raises(ValueError):
            run_robustness([], "dense", 0)


class TestVerifiers:
    def test_bias_theorem_zero_noise(self):
        report = verify_bias_theorem(1.0, 0.0, reps=5)
        assert report["empirical_mean_gap"] == 0.0
        assert report["predicted_bias"] == 0.0
        # A zero anomaly is not out of range: it reads 1, the blank frame.
        assert verify_bias_theorem(np.zeros((4, 4)), 0.0)["anomaly_index"] == 1.0
        assert verify_bias_theorem(0.0, 0.0)["anomaly_index"] == 1.0

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
    def test_bias_theorem_refuses_bad_sigma(self, sigma):
        # A negative or NaN sigma used to skip the noise and report
        # abs_diff 0.0, which reads as a pass.
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            verify_bias_theorem(1.0, sigma, reps=5)

    def test_bias_theorem_constant_anomaly(self):
        report = verify_bias_theorem(1.0, 1.0, reps=20, seed=1)
        assert report["predicted_bias"] == pytest.approx(0.29289321881345254, abs=1e-12)
        assert report["abs_diff"] < 0.01

    def test_bias_theorem_patterned_anomaly(self):
        # The four-band pattern rendered at 400 x 800 keeps moments (1.5, 3.5).
        a = scaled_anomaly("dense", 400)
        assert a.shape == (400, 800)
        report = verify_bias_theorem(a, 2.0, reps=50, seed=2)
        assert report["predicted_bias"] == pytest.approx(bias_oracle(1.5, 3.5, 4.0), rel=1e-12)
        assert report["abs_diff"] < 0.01

    def test_noise_decay_shrinks_like_root_size(self):
        rows = verify_noise_sparsity_decay([100, 10_000], reps=200, seed=4)
        ratio = abs(rows[0]["median_gap"]) / abs(rows[1]["median_gap"])
        assert 5.0 < ratio < 25.0  # ~sqrt(10000/100) = 10 up to log-log drift

    def test_noise_decay_scale_invariant(self):
        # The decay draws unit-variance noise, which loses nothing: the same
        # draws at sigma = 2 give the same median.
        (row,) = verify_noise_sparsity_decay([400], reps=30, seed=6)
        high = _law_indices((400, 0.0, 0.0), 2.0, 6, (DECAY_CHECK_TAG, 400), 30, clip=False)
        assert row["median_gap"] == _median(1.0 - high)

    @pytest.mark.parametrize("sizes", [[2], [100, 2], [np.int64(2)]])
    def test_noise_decay_refuses_size_below_three(self, sizes):
        # The scale sqrt(n / log log n) needs log log n > 0: n >= 3. A bad
        # size anywhere in the list is refused before any draw.
        with pytest.raises(ValueError, match="size must be >= 3.*got 2"):
            verify_noise_sparsity_decay(sizes, reps=2)

    @pytest.mark.parametrize("sizes", [[100.7], [100.0], [100, np.float64(100.0)]])
    def test_noise_decay_refuses_float_size(self, sizes):
        # A float size is refused, not truncated (100.7 is not read as 100).
        with pytest.raises(ValueError, match="size must be an integer"):
            verify_noise_sparsity_decay(sizes, reps=2)

    def test_noise_decay_accepts_numpy_integers(self):
        rows = verify_noise_sparsity_decay([np.int64(100), np.int32(600)], reps=3)
        assert rows == verify_noise_sparsity_decay([100, 600], reps=3)

    def test_checks_make_no_noise_frame(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a verify check built a noise frame")

        monkeypatch.setattr(simulate, "sample_noise", refuse)
        assert verify_bias_theorem(1.0, 1.0, reps=3)["abs_diff"] < 0.1
        assert len(verify_noise_sparsity_decay([100, 600], reps=3)) == 2
        assert verify_noise_domination(reps=3)["min_index"] > 0.95

    @pytest.mark.parametrize(
        "check",
        [
            lambda: verify_bias_theorem(1e-160, 1e-160, reps=2),
            lambda: verify_bias_theorem(1.0, 1e153, reps=2),
            lambda: verify_bias_theorem(np.full((4, 4), 1e200), 0.0),
            lambda: verify_bias_theorem(np.full((4, 4), 1e-170), 0.0),
        ],
    )
    def test_totals_outside_normal_range_refused(self, check):
        # As in a cell, drawn totals outside the normal float range, which
        # no reading could be trusted on, are refused; nothing is rescaled.
        # So is an anomaly's own: its pattern holds no matrix to rescale.
        with pytest.raises(ValueError, match="out of the normal float range"):
            check()

    @pytest.mark.parametrize(
        "check, bound",
        [
            (lambda: verify_bias_theorem(1.0, 1.0, reps=5), 128_000),
            (lambda: verify_noise_domination(reps=3), 32_000),
        ],
        ids=["theorem1", "corollary1"],
    )
    def test_checks_build_no_anomaly_matrix(self, check, bound):
        # A tenth of one anomaly matrix (400 x 400 or 200 x 200 float64):
        # each check reads its anomaly from one row.
        check()  # warm-up: first-call caches are not the check's memory
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_noise_decay_single_size(self):
        rows = verify_noise_sparsity_decay([600], reps=10)
        assert len(rows) == 1
        assert (rows[0]["p1"], rows[0]["p2"], rows[0]["n"]) == (24, 25, 600)

    def test_near_square_dims(self):
        assert near_square_dims(100) == (10, 10)
        assert near_square_dims(1000) == (25, 40)
        assert near_square_dims(100_000) == (250, 400)
        assert near_square_dims(13) == (1, 13)

    def test_noise_domination_quick(self):
        report = verify_noise_domination(reps=5, seed=3)
        assert report["predicted"] > 0.98
        assert report["min_index"] > 0.95
