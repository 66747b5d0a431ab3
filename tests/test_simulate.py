"""Anomaly factories, seeded noise, streams, bands, sweep drivers, verifiers."""

import collections
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hoyerstream.simulate as simulate
from hoyerstream import (
    ErrorBand,
    MixedSignWarning,
    NoiseSpec,
    fit_baseline,
    corrected_hoyer,
    hoyer_index,
    make_dense_anomaly,
    make_scaled_anomaly,
    make_sparse_anomaly,
    run_consistency,
    run_robustness,
    sample_noise,
    simulate_residual_stream,
    verify_bias_theorem,
    verify_noise_domination,
    verify_noise_sparsity_decay,
)
from hoyerstream.indices import hoyer_from_totals, moments_from_stats
from hoyerstream.kernels import matrix_stats
from hoyerstream.simulate import (
    CELL_BASELINE_TAG,
    CELL_STATS_TAG,
    ROBUSTNESS_TAG,
    _cell_band,
    _cell_baseline,
    _shifted_totals,
    error_band,
    float_key,
    near_square_dims,
    stream_frame_noise,
    subseed,
)

from conftest import hoyer_oracle, welford_oracle, bias_oracle


class TestAnomalyFactories:
    def test_dense_entries(self):
        a = make_dense_anomaly(100, 200)
        assert a.shape == (100, 200)
        assert a[0, 50] == 1.0  # 1-based (i=1, j=51)
        assert np.all(a[:, 0] == 0.0)  # j=1 column
        assert len(set(a.sum(axis=1))) == 1  # rows identical
        assert set(np.unique(a)) == {0.0, 1.0, 2.0, 3.0}

    def test_sparse_entries(self):
        a = make_sparse_anomaly(100, 200)
        assert a[0, 54] == 5.0  # 1-based j=55
        assert a[0, 59] == 0.0  # 1-based j=60 excluded
        assert a[0, 49] == 5.0  # 1-based j=50 included
        assert np.count_nonzero(a) == 10 * 100

    def test_scaled_dense_c10(self):
        a = make_scaled_anomaly("dense", 10)
        assert a.shape == (10, 20)
        assert a[0, 19] == 3.0  # 1-based j=20
        assert set(np.unique(a)) == {0.0, 1.0, 2.0, 3.0}
        counts = [np.count_nonzero(a[0] == v) for v in (0.0, 1.0, 2.0, 3.0)]
        assert counts == [5, 5, 5, 5]

    def test_scaled_sparse_c10(self):
        a = make_scaled_anomaly("sparse", 10)
        nonzero_cols = np.flatnonzero(a[0]) + 1  # 1-based
        assert list(nonzero_cols) == [5]
        assert a[0, 4] == 5.0

    def test_scaled_c100_matches_fixed_patterns(self):
        assert np.array_equal(make_scaled_anomaly("dense", 100), make_dense_anomaly(100, 200))
        assert np.array_equal(make_scaled_anomaly("sparse", 100), make_sparse_anomaly(100, 200))
        a = make_scaled_anomaly("sparse", 100)
        assert hoyer_index(a) == pytest.approx(hoyer_oracle(a), abs=1e-12)

    def test_invalid_multiplier(self):
        for c in (0, -10, 15, 7):
            with pytest.raises(ValueError):
                make_scaled_anomaly("dense", c)

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
        frames = simulate_residual_stream(np.zeros((2, 3)), spec, n_ic=200, n_ooc=200)
        for k in (0, 1, 255, 256, 399):
            assert np.array_equal(frames[k], _reference_noise((2, 3), spec, (0, k))), k
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
        # A cell builds one generator per keyed draw (four) and one more
        # SeedSequence for its seed: the counts must not grow with the
        # stream or the baseline window, only with the number of cells.
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
        assert per_cell == {"SeedSequence": 5, "Philox": 4, "Generator": 4}, per_cell
        assert constructions(n_ooc=40) == per_cell
        assert constructions(w0=200) == per_cell
        assert constructions(replicates=2) == {k: 2 * v for k, v in per_cell.items()}

        # Each verifier builds one generator per replicate.
        verifiers = [
            lambda reps: verify_bias_theorem(1.0, 1.0, dims=(10, 20), reps=reps),
            lambda reps: verify_noise_sparsity_decay([200], reps=reps),
            lambda reps: verify_noise_domination(reps=reps),
        ]
        for verify in verifiers:
            for reps in (2, 7):
                counts.clear()
                verify(reps)
                expected = {"SeedSequence": reps, "Philox": reps, "Generator": reps}
                assert dict(counts) == expected, (reps, dict(counts))


class _CountingRng:
    """Passes a generator's draws through, logging the shape of each normal
    draw into ``normals`` and the size of each chi-square draw into
    ``chisquares``."""

    def __init__(self, rng, normals, chisquares):
        self.rng, self.normals, self.chisquares = rng, normals, chisquares

    def standard_normal(self, size):
        self.normals.append(size)
        return self.rng.standard_normal(size)

    def chisquare(self, df, size=None):
        self.chisquares.append(size)
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
    """A cell's baseline is drawn from the law of ``fit_baseline`` on w0
    frames of iid N(0, sigma^2) noise: per pixel mu0_hat ~ N(0, sigma^2/w0),
    and sigma2_hat = sigma^2·X/df with X ~ chi-square(df), df = n·(w0 - 1)."""

    @pytest.mark.parametrize("shape, w0", [((2, 3), 2), ((2, 3), 3), ((3, 4), 2)])
    def test_first_two_moments_match_the_law_and_fit_baseline(self, shape, w0):
        # Each case runs 2·(2 + 2n) median-of-means checks, 108 over the
        # three cases, so the test fails falsely with probability below
        # 108 · 1.7e-9 < 2e-7.
        sigma = 1.5
        df = shape[0] * shape[1] * (w0 - 1)
        cells = _BLOCKS * 200
        drawn = [_cell_baseline(NoiseSpec(sigma, seed), shape, w0) for seed in range(cells)]
        cells = _BLOCKS * 40
        rng = np.random.Generator(np.random.Philox(2024))
        fitted = [
            fit_baseline(sigma * rng.standard_normal(shape) for _ in range(w0))
            for _ in range(cells)
        ]
        for name, baselines in (("drawn", drawn), ("fit_baseline", fitted)):
            s2 = np.array([b.sigma2_hat for b in baselines])
            mu = np.array([b.mu0_hat.ravel() for b in baselines])
            checks = {
                "sigma2_hat mean": (s2, sigma**2, sigma**2 * math.sqrt(2 / df)),
                "sigma2_hat variance": (
                    (s2 - sigma**2) ** 2,
                    2 * sigma**4 / df,
                    sigma**4 * math.sqrt(8 * df**2 + 48 * df) / df**2,
                ),
                "mu0_hat mean": (mu, 0.0, sigma / math.sqrt(w0)),
                "mu0_hat variance": (mu**2, sigma**2 / w0, math.sqrt(2) * sigma**2 / w0),
            }
            missed = [
                check
                for check, (values, target, sd) in checks.items()
                if _median_of_means_misses(values, target, sd).any()
            ]
            assert not missed, (name, missed)


class TestShiftedTotals:
    """A cell draws each shifted residual's entry sum s and sum of squares
    ss from their exact joint law. For r = b + e, e iid N(0, sigma^2) over
    n entries, S = sum(b), B = ||b||^2 and lam = B / sigma^2: s is
    N(S, n·sigma^2); ss / sigma^2 is noncentral chi-square with n degrees
    of freedom and noncentrality lam, so E ss = B + n·sigma^2 and its
    cumulants are k2 = 2(n + 2·lam), k4 = 48(n + 4·lam) in units of
    sigma^4 and sigma^8; Cov(s, ss) = 2·sigma^2·S, and the product of the
    two deviations has variance n·sigma^4·(4·S^2/n + 4·B + (2n + 8)·sigma^2)."""

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
        mu0_hat = _cell_baseline(spec, a.shape, w0).mu0_hat
        drawn = _shifted_totals(spec, a - mu0_hat, count)
        rng = np.random.Generator(np.random.Philox(2025))
        noise = sigma * rng.standard_normal((count,) + a.shape)
        real = np.array([matrix_stats(a + e - mu0_hat)[:2] for e in noise]).T

        b = [float(v) for v in (a - mu0_hat).ravel()]
        big_s, big_b = math.fsum(b), math.fsum(v * v for v in b)
        mean_ss = big_b + n * sigma**2
        lam = big_b / sigma**2
        k2, k4 = 2 * (n + 2 * lam), 48 * (n + 4 * lam)
        ss_sd = sigma**4 * math.sqrt(k4 + 2 * k2**2)
        cov_sd = sigma**2 * math.sqrt(n * (4 * big_s**2 / n + 4 * big_b + (2 * n + 8) * sigma**2))
        for name, (s, ss) in (("drawn", drawn), ("matrix_stats", real)):
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
        for sigma, b in ((1e200, np.ones((2, 3))), (1e-200, np.zeros((2, 3)))):
            with pytest.raises(ValueError, match="normal float range"):
                _shifted_totals(NoiseSpec(sigma, 1), b, 4)
        # Such a noise level fails the cell's baseline first, as a bad
        # input, not as an arithmetic error.
        with pytest.raises(ValueError, match="sigma2_hat must be finite"):
            run_robustness([1e200], "dense", 0, w0=2, n_ooc=2, dims=(2, 3))


class TestResidualStream:
    def test_shape_and_change_point(self):
        a = make_sparse_anomaly(10, 20)
        frames = simulate_residual_stream(a, NoiseSpec(1e-9, 3), n_ic=4, n_ooc=3)
        assert frames.shape == (7, 10, 20)
        # vanishing noise: out-of-control frames match the anomaly
        for k in range(4, 7):
            assert np.allclose(frames[k], a, atol=1e-6)
        for k in range(4):
            assert np.allclose(frames[k], 0.0, atol=1e-6)

    def test_full_stream_shape_and_frame_replay(self):
        a = make_dense_anomaly(100, 200)
        spec = NoiseSpec(2.0, 101)
        frames = simulate_residual_stream(a, spec, n_ic=200, n_ooc=200)
        assert frames.shape == (400, 100, 200)
        # replaying the per-position noise reproduces each frame exactly
        assert np.array_equal(frames[13], _reference_noise((100, 200), spec, (0, 13)))
        assert np.array_equal(frames[250], _reference_noise((100, 200), spec, (0, 250)) + a)
        assert np.array_equal(stream_frame_noise(100, 200, spec, 13), frames[13])

    def test_in_control_frames_read_sparse(self):
        for seed in range(20):
            frames = simulate_residual_stream(
                np.ones((100, 200)), NoiseSpec(1.0, seed), n_ic=1, n_ooc=1
            )
            assert hoyer_index(frames[0]) >= 0.9

    def test_count_validation(self):
        with pytest.raises(ValueError):
            simulate_residual_stream(np.ones((2, 2)), NoiseSpec(1.0, 0), 0, 5)


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
        # formulas: the cell seed; the baseline's noise frame over sqrt(w0)
        # and its chi-square with n·(w0 - 1) degrees of freedom scaled to
        # sigma2_hat; then, for b = A - mu0_hat, each shifted residual's
        # sum and sum of squares from z1, z2 and a chi-square with n - 2
        # degrees of freedom; each read by the one index and moment
        # formulas and the correction.
        sigma, master, w0, n_ooc = 1.5, 77, 50, 40
        table = run_robustness([sigma], "dense", master, w0=w0, n_ooc=n_ooc)
        a = make_dense_anomaly(100, 200)
        n, h_true = a.size, hoyer_index(a)
        spec = NoiseSpec(sigma, subseed(master, ROBUSTNESS_TAG, float_key(sigma), 0))

        def chisquare(key, df, size=None):
            ss = np.random.SeedSequence(spec.seed, spawn_key=key)
            return 2.0 * np.random.Generator(np.random.Philox(ss)).standard_gamma(df / 2, size)

        df = n * (w0 - 1)
        mu0_hat = _reference_noise(a.shape, spec, (CELL_BASELINE_TAG, 0)) / math.sqrt(w0)
        sigma2_hat = sigma * sigma * chisquare((CELL_BASELINE_TAG, 1), df) / df
        b = a - mu0_hat
        b_bar = matrix_stats(b)[0] / n
        beta = math.sqrt(matrix_stats(b - b_bar)[1])
        z1, z2 = _reference_noise((2, n_ooc), spec, (CELL_STATS_TAG, 0))
        u = math.sqrt(n) * b_bar + z1
        s = math.sqrt(n) * u
        ss = u**2 + (beta + z2) ** 2 + sigma * sigma * chisquare((CELL_STATS_TAG, 1), n - 2, n_ooc)
        errs = []
        for s_k, ss_k in zip(s.tolist(), ss.tolist()):
            moments = moments_from_stats(s_k, ss_k, n, sigma2_hat)
            errs.append(abs(corrected_hoyer(hoyer_from_totals(s_k, ss_k, n), moments) - h_true))
        manual = error_band(errs)
        assert table[sigma] == manual

    def test_cell_draws_one_noise_frame(self, monkeypatch):
        # A cell makes one noise frame (mu0_hat) and draws 3·n_ooc + 1
        # scalars: a (2, n_ooc) block of normals and two chi-square draws,
        # one for sigma2_hat and n_ooc for the residuals. None of it grows
        # with w0, and only the scalars grow with n_ooc.
        cells = {}
        original = simulate._rng

        def counting(seed, *key):
            return _CountingRng(original(seed, *key), *cells.setdefault(seed, ([], [])))

        monkeypatch.setattr(simulate, "_rng", counting)
        for w0, n_ooc in ((20, 10), (200, 10), (20, 40)):
            cells.clear()
            run_robustness([1.0, 2.0], "dense", 5, w0=w0, n_ooc=n_ooc, dims=(10, 20))
            cell = ([(10, 20), (2, n_ooc)], [None, n_ooc])
            assert list(cells.values()) == [cell, cell], (w0, n_ooc)

    def test_cells_emit_no_mixed_sign_warning(self):
        # A cell reads only each residual's sum and sum of squares, so even
        # fully mixed-sign residuals (sigma 3 on the dense pattern) warn
        # of nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error", MixedSignWarning)
            run_robustness([3.0], "dense", 5, w0=20, n_ooc=10)

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
        a = make_dense_anomaly(100, 200)
        bands = [
            _cell_band(
                a, hoyer_index(a), NoiseSpec(2.0, subseed(3, ROBUSTNESS_TAG, float_key(2.0), rep)),
                20, 10, "debias",
            )
            for rep in range(3)
        ]
        assert len({b.m_eps for b in bands}) == 3
        agg = run_robustness([2.0], "dense", 3, w0=20, n_ooc=10, replicates=3)[2.0]
        assert agg.m_eps == float(np.median([b.m_eps for b in bands]))
        assert agg.sigma_eps == float(np.median([b.sigma_eps for b in bands]))

    def test_cell_memory_does_not_grow_with_the_stream(self):
        # A cell holds its baseline block and the frame being read, not the
        # stream: 150 more shifted frames may only add their small readings.
        def peak(n_ooc):
            tracemalloc.start()
            try:
                run_robustness([1.0], "dense", 4, w0=20, n_ooc=n_ooc, dims=(100, 200))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(50)  # warm-up: first-call caches stay out of the comparison
        short, long = peak(50), peak(200)
        frame_bytes = 100 * 200 * 8
        assert abs(long - short) < 10 * frame_bytes, (short, long)

    def test_workers_do_not_change_results(self):
        serial = run_robustness([0.5, 1.0], "dense", 9, w0=20, n_ooc=10, replicates=2)
        threaded = run_robustness(
            [0.5, 1.0], "dense", 9, w0=20, n_ooc=10, replicates=2, workers=4
        )
        assert serial == threaded

    def test_consistency_errors_shrink_with_size(self):
        table = run_consistency([10, 50], "dense", 13, w0=60, n_ooc=60)
        assert table[50].m_eps < table[10].m_eps

    def test_replicates_below_one_rejected(self):
        for replicates in (0, -1):
            with pytest.raises(ValueError, match="replicates must be >= 1"):
                run_robustness([1.0], "dense", 5, replicates=replicates)
            with pytest.raises(ValueError, match="replicates must be >= 1"):
                run_consistency([10], "dense", 5, replicates=replicates)

    def test_consistency_validates_multipliers(self):
        with pytest.raises(ValueError):
            run_consistency([15], "dense", 0)
        with pytest.raises(ValueError):
            run_consistency([], "dense", 0)
        with pytest.raises(ValueError):
            run_robustness([], "dense", 0)


class TestVerifiers:
    def test_bias_theorem_zero_noise(self):
        report = verify_bias_theorem(1.0, 0.0, dims=(50, 50), reps=5)
        assert report["empirical_mean_gap"] == 0.0
        assert report["predicted_bias"] == 0.0

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
    def test_bias_theorem_refuses_bad_sigma(self, sigma):
        # A negative or NaN sigma used to skip the noise and report
        # abs_diff 0.0, which reads as a pass.
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            verify_bias_theorem(1.0, sigma, dims=(10, 10), reps=5)

    def test_bias_theorem_constant_anomaly(self):
        report = verify_bias_theorem(1.0, 1.0, dims=(200, 200), reps=20, seed=1)
        assert report["predicted_bias"] == pytest.approx(0.29289321881345254, abs=1e-12)
        assert report["abs_diff"] < 0.01

    def test_bias_theorem_patterned_anomaly(self):
        # The four-band pattern rendered at 400 x 800 keeps moments (1.5, 3.5).
        a = make_scaled_anomaly("dense", 400)
        assert a.shape == (400, 800)
        report = verify_bias_theorem(a, 2.0, reps=50, seed=2)
        assert report["predicted_bias"] == pytest.approx(bias_oracle(1.5, 3.5, 4.0), rel=1e-12)
        assert report["abs_diff"] < 0.01

    def test_noise_decay_shrinks_like_root_size(self):
        rows = verify_noise_sparsity_decay([100, 10_000], sigma=1.0, reps=200, seed=4)
        ratio = abs(rows[0]["median_gap"]) / abs(rows[1]["median_gap"])
        assert 5.0 < ratio < 25.0  # ~sqrt(10000/100) = 10 up to log-log drift

    def test_noise_decay_scale_invariant(self):
        low = verify_noise_sparsity_decay([400], sigma=1.0, reps=30, seed=6)
        high = verify_noise_sparsity_decay([400], sigma=2.0, reps=30, seed=6)
        assert low[0]["median_scaled"] == high[0]["median_scaled"]

    def test_noise_decay_single_size(self):
        rows = verify_noise_sparsity_decay([(20, 30)], reps=10)
        assert len(rows) == 1
        assert (rows[0]["p1"], rows[0]["p2"]) == (20, 30)

    def test_near_square_dims(self):
        assert near_square_dims(100) == (10, 10)
        assert near_square_dims(1000) == (25, 40)
        assert near_square_dims(100_000) == (250, 400)
        assert near_square_dims(13) == (1, 13)

    def test_noise_domination_quick(self):
        report = verify_noise_domination(reps=5, seed=3)
        assert report["predicted"] > 0.98
        assert report["passed"]
        assert report["min_index"] > 0.95
