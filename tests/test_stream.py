"""Baseline fitting, residuals, windowed and corrected readings."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoyerstream import (
    BaselineModel,
    DimensionError,
    MixedSignWarning,
    NoiseSpec,
    corrected_reading,
    fit_baseline,
    hoyer_index,
    make_dense_anomaly,
    make_sparse_anomaly,
    monitor_series,
    residual,
    sample_noise,
    simulate_residual_stream,
    windowed_reading,
)

from conftest import pooled_variance_oracle

SPARSE_H = 0.7819222273431695
U = 2.0**-53


def noisy_frames(mu, sigma, count, seed):
    spec = NoiseSpec(sigma, seed)
    return [mu + sample_noise(*mu.shape, spec, k) for k in range(count)]


def never_drawn():
    """A frame iterable that fails the test if any frame is drawn from it."""
    pytest.fail("a frame was drawn")
    yield


def reading_bits(r):
    """Every field of a reading, floats as their exact hex."""
    floats = (r.h_raw, r.bias, r.g, r.g_unclamped, r.moments.a_bar, r.moments.a2_bar, r.moments.sigma2)
    return (r.t, *(float(v).hex() for v in floats))


def variance_tolerance(block, oracle):
    """fit_baseline's documented error bound for an (m, p1, p2) block,
    widened by the error of ``pooled_variance_oracle`` itself: 5u relative
    (the deviation, its square, the last fsum and the division), plus
    m·(2u·|mean|)**2 per pixel from the rounded means, which over
    n·(m - 1) is at most 8·(u·max|x|)**2."""
    m = block.shape[0]
    n = block[0].size
    q = math.fsum(((block[1:] - block[0]) ** 2).ravel().tolist())
    bound = (3 * m + 4 * math.log2(n) + 8) * U * q / (n * (m - 1))
    return bound + 6 * U * oracle + 8 * (U * float(np.abs(block).max())) ** 2


class TestFitBaseline:
    def test_identical_integer_frames(self):
        frame = np.arange(12.0).reshape(3, 4)
        b = fit_baseline([frame.copy() for _ in range(5)])
        assert np.array_equal(b.mu0_hat, frame)
        assert b.sigma2_hat == 0.0
        assert b.w0 == 5

    def test_identical_float_frames_near_zero_variance(self):
        frame = np.full((4, 4), 0.1)
        b = fit_baseline([frame.copy() for _ in range(7)])
        assert b.sigma2_hat < 1e-28

    def test_two_scalar_frames_hand_oracle(self):
        # Residuals -1, +1 about the mean 1: the sample variance of 0 and 2
        # is (1 + 1) / (2 - 1) = 2.
        b = fit_baseline([np.array([[0.0]]), np.array([[2.0]])])
        assert np.array_equal(b.mu0_hat, np.array([[1.0]]))
        assert b.sigma2_hat == 2.0

    def test_recovers_known_variance(self):
        # MC oracle over 20 seeded streams at the stream shape used for the
        # real-data style runs.
        mu = np.linspace(0.0, 50.0, 130 * 320).reshape(130, 320)
        sigma = 3.0
        estimates = []
        for seed in range(20):
            frames = simulate_residual_stream(
                np.ones((130, 320)), NoiseSpec(sigma, seed), n_ic=200, n_ooc=1
            )[:200]
            estimates.append(fit_baseline(frames + mu).sigma2_hat)
        mean_est = float(np.mean(estimates))
        assert abs(mean_est - 9.0) / 9.0 < 0.02
        # every individual stream is already well inside the band
        assert max(abs(e - 9.0) / 9.0 for e in estimates) < 0.02

    def test_uses_first_w0_frames(self):
        frames = [np.full((2, 2), float(k)) for k in range(6)]
        b = fit_baseline(frames, w0=4)
        assert b.w0 == 4
        assert np.array_equal(b.mu0_hat, np.full((2, 2), 1.5))

    def test_shift_linearity(self):
        frames = noisy_frames(np.zeros((8, 9)), 2.0, 12, seed=3)
        b0 = fit_baseline(frames)
        b1 = fit_baseline([f + 5.25 for f in frames])
        assert np.allclose(b1.mu0_hat, b0.mu0_hat + 5.25, atol=1e-12)
        assert b1.sigma2_hat == pytest.approx(b0.sigma2_hat, rel=1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_baseline([np.ones((2, 2))])
        with pytest.raises(DimensionError):
            fit_baseline([np.ones((2, 2)), np.ones((2, 3))])
        with pytest.raises(DimensionError):
            fit_baseline([])
        with pytest.raises(ValueError):
            fit_baseline([np.ones((2, 2))] * 3, w0=5)

    @pytest.mark.parametrize("w0", [0, -1])
    def test_w0_below_2_raises_before_drawing(self, w0):
        with pytest.raises(ValueError, match=rf"^w0 must be >= 2, got {w0}$"):
            fit_baseline(never_drawn(), w0)

    def test_draws_exactly_w0_items_from_an_endless_generator(self):
        drawn = []

        def endless():
            for k in itertools.count():
                if k >= 1000:
                    pytest.fail("fit_baseline kept drawing past w0")
                drawn.append(k)
                yield np.full((2, 3), float(k))

        frames = endless()
        b = fit_baseline(frames, w0=5)
        assert b.w0 == 5
        assert drawn == [0, 1, 2, 3, 4]
        assert np.array_equal(b.mu0_hat, np.full((2, 3), 2.0))
        assert next(frames)[0, 0] == 5.0

    @pytest.mark.parametrize("w0", [None, 12, 40])
    def test_same_bits_from_list_array_and_generator(self, w0):
        frames = noisy_frames(np.linspace(0.0, 9.0, 72).reshape(8, 9), 2.0, 40, seed=11)
        fits = [
            fit_baseline(frames, w0),
            fit_baseline(np.stack(frames), w0),
            fit_baseline((f for f in frames), w0),
        ]
        block = np.stack(frames[:w0])
        mu = block.mean(axis=0)
        sigma2 = pooled_variance_oracle(block)
        for b in fits:
            assert b.w0 == block.shape[0]
            assert b.mu0_hat.tobytes() == mu.tobytes()
            assert b.sigma2_hat == fits[0].sigma2_hat
            assert abs(b.sigma2_hat - sigma2) <= variance_tolerance(block, sigma2)

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(2, 60),
        st.floats(-30.0, 30.0),
        st.floats(-1e6, 1e6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_within_documented_bound(self, p1, p2, m, log_scale, offset, seed):
        # Noise of scale 10**log_scale about a common level of up to 1e6
        # times that scale.
        scale = 10.0**log_scale
        rng = np.random.Generator(np.random.Philox(seed))
        block = scale * (offset + rng.standard_normal((m, p1, p2)))
        frames = list(block)
        b = fit_baseline(iter(frames))
        assert b.w0 == m
        # Frames are summed in order; NumPy's mean over the stack does the
        # same except on single-entry frames, which it sums pairwise.
        assert b.mu0_hat.tobytes() == (functools.reduce(np.add, frames) / m).tobytes()
        if p1 * p2 > 1:
            assert b.mu0_hat.tobytes() == block.mean(axis=0).tobytes()
        oracle = pooled_variance_oracle(block)
        assert abs(b.sigma2_hat - oracle) <= variance_tolerance(block, oracle)
        assert fit_baseline([frames[0]] * m).sigma2_hat == 0.0

    def test_peak_memory_independent_of_w0(self):
        # Ten times the window: the traced peak may differ by bookkeeping,
        # not by frames held.
        shape = (96, 128)

        def peak(w0):
            rng = np.random.Generator(np.random.Philox(5))
            frames = (1000.0 + 30.0 * rng.standard_normal(shape) for _ in range(w0))
            tracemalloc.start()
            try:
                fit_baseline(frames, w0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(20)  # warm-up: first-call caches stay out of the comparison
        short, long = peak(20), peak(200)
        frame_bytes = shape[0] * shape[1] * 8
        assert abs(long - short) < 3 * frame_bytes, (short, long)

    def test_only_the_window_is_validated(self):
        frames = [np.ones((2, 2)), np.zeros((2, 2)), np.ones((3, 3)), [[np.nan]]]
        b = fit_baseline(frames, w0=2)
        assert np.array_equal(b.mu0_hat, np.full((2, 2), 0.5))

    def test_baseline_mean_is_read_only(self):
        b = fit_baseline([np.zeros((2, 2)), np.ones((2, 2))])
        with pytest.raises(ValueError):
            b.mu0_hat[0, 0] = 9.0


class TestResidual:
    def test_zero_on_mean(self):
        b = fit_baseline([np.full((3, 3), 2.0)] * 2)
        assert np.array_equal(residual(np.full((3, 3), 2.0), b), np.zeros((3, 3)))

    def test_recovers_additive_shift_exactly(self):
        mu = np.arange(6.0).reshape(2, 3)
        b = fit_baseline([mu.copy() for _ in range(3)])
        a = make_dense_anomaly(2, 3)
        assert np.array_equal(residual(mu + a, b), a)

    def test_reconstruction_bit_exact_in_safe_range(self, rng):
        # Entries in [1, 2) keep x - mu and (x - mu) + mu exact (Sterbenz).
        mu = 1.0 + rng.random((5, 7))
        x = 1.0 + rng.random((5, 7))
        b = fit_baseline([mu.copy() for _ in range(2)])
        assert np.array_equal(residual(x, b) + b.mu0_hat, x)

    def test_shape_mismatch(self):
        b = fit_baseline([np.zeros((2, 2))] * 2)
        with pytest.raises(DimensionError):
            residual(np.zeros((2, 3)), b)


class TestWindowedIndex:
    """The raw index of a window average: ``windowed_reading``'s ``h_raw``."""

    def test_single_noise_free_frame(self):
        a = make_sparse_anomaly(100, 200)
        mu = np.full((100, 200), 4.0)
        b = fit_baseline([mu.copy() for _ in range(2)])
        assert windowed_reading([mu + a], b).h_raw == hoyer_index(a)

    def test_frames_equal_to_mean_read_blank(self):
        mu = np.full((3, 4), 1.25)
        b = fit_baseline([mu.copy() for _ in range(2)])
        assert windowed_reading([mu.copy(), mu.copy()], b).h_raw == 1.0

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_error_decreases_with_window(self, kind):
        # Median absolute error over 5 seeded streams, windows 1/10/100/1000.
        maker = make_dense_anomaly if kind == "dense" else make_sparse_anomaly
        a = maker(100, 200)
        h_true = hoyer_index(a)
        mu = np.zeros((100, 200))
        b = BaselineModel(mu0_hat=mu, sigma2_hat=4.0, w0=2)
        widths = [1, 10, 100, 1000]
        medians = []
        for w in widths:
            errs = []
            for seed in range(5):
                frames = simulate_residual_stream(
                    a, NoiseSpec(2.0, 1000 + seed), n_ic=1, n_ooc=w
                )[1:]
                errs.append(abs(windowed_reading(frames, b).h_raw - h_true))
            medians.append(float(np.median(errs)))
        assert all(m2 < m1 for m1, m2 in zip(medians, medians[1:])), medians

    def test_empty_window(self):
        b = fit_baseline([np.zeros((2, 2))] * 2)
        with pytest.raises(DimensionError):
            windowed_reading([], b)


class TestCorrectedReading:
    def test_zero_variance_reduces_to_raw_index(self):
        a = make_sparse_anomaly(100, 200)
        mu = np.full((100, 200), 3.0)
        b = fit_baseline([mu.copy() for _ in range(3)])
        assert b.sigma2_hat == 0.0
        r = corrected_reading(mu + a, b)
        assert r.bias == 0.0
        assert r.g == r.h_raw == hoyer_index(a)
        assert r.g == pytest.approx(SPARSE_H, abs=1e-9)

    def test_no_anomaly_reads_near_one_in_literal_mode(self):
        mu = np.zeros((100, 200))
        frames = simulate_residual_stream(
            np.ones((100, 200)), NoiseSpec(4.0, 77), n_ic=60, n_ooc=1
        )[:60]
        b = fit_baseline(frames[:50])
        r = corrected_reading(frames[55], b, mode="literal")
        assert r.h_raw > 0.97
        assert r.bias < 0.01
        assert r.g > 0.97

    def test_dense_high_noise_debias_accuracy(self):
        # One full stream at the highest noise level of the sweep: the mean
        # absolute error of the corrected value stays under 0.08.
        a = make_dense_anomaly(100, 200)
        h_true = hoyer_index(a)
        frames = simulate_residual_stream(a, NoiseSpec(6.0, 2024), n_ic=200, n_ooc=200)
        b = fit_baseline(frames[:200])
        errs = [
            abs(corrected_reading(frames[200 + i], b).g - h_true) for i in range(200)
        ]
        assert float(np.mean(errs)) < 0.08

    def test_reading_fields_consistent(self):
        a = make_dense_anomaly(50, 60)
        b = BaselineModel(np.zeros((50, 60)), 1.0, 10)
        e = sample_noise(50, 60, NoiseSpec(1.0, 8))
        r = corrected_reading(a + e, b, t=17)
        assert r.t == 17
        assert r.g_unclamped == r.h_raw - r.bias
        assert r.g == min(max(r.g_unclamped, 0.0), 1.0)
        assert 0.0 <= r.g <= 1.0

    def test_mixed_sign_residual_warns(self):
        b = BaselineModel(np.zeros((40, 40)), 1.0, 10)
        e = sample_noise(40, 40, NoiseSpec(1.0, 5))
        with pytest.warns(MixedSignWarning):
            corrected_reading(e, b)

    def test_one_sided_residual_does_not_warn(self, recwarn):
        import warnings

        b = BaselineModel(np.zeros((100, 200)), 1.0, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", MixedSignWarning)
            corrected_reading(make_dense_anomaly(100, 200), b)

    def test_underflowing_residual_reads_like_hoyer_index(self):
        # One row of 1e-170 in a 4x4 residual: its sum of squares underflows
        # to a subnormal, which must not read as the blank frame's 1.
        x = np.zeros((4, 4))
        x[0] = 1e-170
        b = BaselineModel(np.zeros((4, 4)), 0.0, 2)
        assert hoyer_index(x) == pytest.approx(2.0 / 3.0)
        assert corrected_reading(x, b).h_raw == pytest.approx(2.0 / 3.0)
        assert windowed_reading([x, x], b).h_raw == pytest.approx(2.0 / 3.0)

    def test_overflowing_residual_moments_raise(self):
        # The raw index is defined, but a mean square near 1e400 is not a
        # float64, so no moment estimate exists.
        b = BaselineModel(np.zeros((4, 4)), 0.0, 2)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="a2_bar must be finite"):
                corrected_reading(np.full((4, 4), 1e200), b)

    def test_over_and_underflow_emit_no_runtime_warning(self):
        # The two cases above, with NumPy's own warnings made errors: the
        # overflow is reported by the moment check alone, and the underflow
        # still reads 2/3. Entries of 1e308 overflow the entry sum too.
        import warnings

        b = BaselineModel(np.zeros((4, 4)), 0.0, 2)
        x = np.zeros((4, 4))
        x[0] = 1e-170
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"^a2_bar must be finite, got inf$"):
                corrected_reading(np.full((4, 4), 1e200), b)
            with pytest.raises(ValueError, match=r"^a_bar must be finite, got inf$"):
                corrected_reading(np.full((4, 4), 1e308), b)
            assert corrected_reading(x, b).h_raw == pytest.approx(2.0 / 3.0)
            assert windowed_reading([x, x], b).h_raw == pytest.approx(2.0 / 3.0)


class TestWindowedReading:
    def test_effective_variance_is_scaled(self):
        a = make_dense_anomaly(100, 200)
        b = BaselineModel(np.zeros((100, 200)), 9.0, 10)
        frames = [a + sample_noise(100, 200, NoiseSpec(3.0, 50), k) for k in range(9)]
        r = windowed_reading(frames, b)
        assert r.moments.sigma2 == 1.0  # 9.0 / 9 frames
        single = corrected_reading(frames[0], b)
        assert single.moments.sigma2 == 9.0
        assert r.bias < single.bias

    def test_matches_manual_average(self):
        a = make_sparse_anomaly(20, 30)
        b = BaselineModel(np.zeros((20, 30)), 4.0, 10)
        frames = [a + sample_noise(20, 30, NoiseSpec(2.0, 51), k) for k in range(4)]
        r = windowed_reading(frames, b, t=3)
        avg = np.mean(frames, axis=0)
        manual = corrected_reading(
            avg, BaselineModel(np.zeros((20, 30)), 1.0, 10), t=3
        )
        assert r.h_raw == manual.h_raw
        assert r.bias == manual.bias

    @pytest.mark.parametrize("w", [0, -1])
    def test_window_below_1_raises_before_drawing(self, w):
        b = BaselineModel(np.zeros((2, 2)), 1.0, 2)
        with pytest.raises(ValueError, match=rf"^frame count must be >= 1, got {w}$"):
            windowed_reading(never_drawn(), b, w=w)


class TestMonitorSeries:
    def make_stream(self, sigma=0.5, n_ic=30, n_ooc=30, seed=11):
        a = make_dense_anomaly(100, 200)
        frames = simulate_residual_stream(a, NoiseSpec(sigma, seed), n_ic, n_ooc)
        return a, frames

    def test_change_point_profile_literal(self):
        a, frames = self.make_stream()
        b = fit_baseline(frames[:30])
        readings = monitor_series(frames, b, range(0, 60), mode="literal")
        h_true = hoyer_index(a)
        pre = [r.g for r in readings[:30]]
        post = [r.g for r in readings[30:]]
        assert min(pre) > 0.9
        assert max(abs(g - h_true) for g in post) < 0.05

    def test_singleton_matches_corrected_reading(self):
        _, frames = self.make_stream()
        b = fit_baseline(frames[:30])
        series = monitor_series(frames, b, range(42, 43))
        direct = corrected_reading(frames[42], b, t=42)
        assert series[0] == direct

        # A blank residual, one whose sum of squares underflows, and
        # ordinary ones: the one array pass gives each frame's own reading.
        shape = (4, 5)
        b = BaselineModel(np.zeros(shape), 0.25, 2)
        underflowing = np.zeros(shape)
        underflowing[0] = 1e-170
        frames = [
            0.5 * np.arange(20.0).reshape(shape) + 1.0,
            np.zeros(shape),
            underflowing,
            2.0 + sample_noise(*shape, NoiseSpec(1.0, 3)),
        ]
        series = monitor_series(frames, b, range(4), t_offset=5)
        direct = [corrected_reading(f, b, t=k + 5) for k, f in enumerate(frames)]
        assert [reading_bits(r) for r in series] == [reading_bits(r) for r in direct]
        assert series[1].h_raw == 1.0
        assert series[2].h_raw == hoyer_index(underflowing) == pytest.approx(0.644, abs=1e-3)

        # The third frame breaks the moment contract (its mean square is
        # not a float64), and so does the fourth in another check: the
        # error is the third frame's own.
        frames[2] = np.full(shape, 1e200)
        frames[3] = np.full(shape, 1e308)
        with pytest.raises(ValueError) as own:
            corrected_reading(frames[2], b)
        with pytest.raises(ValueError) as info:
            monitor_series(frames, b, range(4))
        assert str(info.value) == str(own.value) == "a2_bar must be finite, got inf"
        # A position past the end outranks a moment error at an earlier
        # frame: every position is drawn before the totals are read.
        with pytest.raises(IndexError, match="out of range"):
            monitor_series(frames, b, [2, 9])

    def test_t_offset_labels(self):
        _, frames = self.make_stream(n_ic=5, n_ooc=5)
        b = fit_baseline(frames[:5])
        series = monitor_series(frames, b, range(3, 7), t_offset=1)
        assert [r.t for r in series] == [4, 5, 6, 7]

    def test_empty_range(self):
        _, frames = self.make_stream(n_ic=5, n_ooc=5)
        b = fit_baseline(frames[:5])
        assert monitor_series(frames, b, range(0)) == []

    def test_out_of_range_rejected(self):
        _, frames = self.make_stream(n_ic=5, n_ooc=5)
        b = fit_baseline(frames[:5])
        with pytest.raises(IndexError):
            monitor_series(frames, b, [10])
        with pytest.raises(IndexError):
            monitor_series(frames, b, [-1])

    def test_draws_nothing_past_the_last_position(self):
        _, frames = self.make_stream(n_ic=5, n_ooc=5)
        b = fit_baseline(frames[:5])

        def stream():
            for k, frame in enumerate(frames):
                if k > 6:
                    pytest.fail(f"drew position {k} past the last requested, 6")
                yield frame

        gen = stream()
        series = monitor_series(gen, b, [2, 4, 6], t_offset=1)
        assert series == monitor_series(list(frames), b, [2, 4, 6], t_offset=1)
        assert [r.t for r in series] == [3, 5, 7]

    def test_shares_one_iterator_with_fit_baseline(self):
        _, frames = self.make_stream(n_ic=5, n_ooc=5)
        it = iter(frames)
        b = fit_baseline(it, 5)
        assert monitor_series(it, b, range(5), t_offset=5) == monitor_series(
            frames, fit_baseline(frames[:5]), range(5, 10)
        )

    @pytest.mark.parametrize("taus", [[3, 3], [4, 2], [0, 1, 0]])
    def test_non_increasing_positions_rejected(self, taus):
        _, frames = self.make_stream(n_ic=5, n_ooc=5)
        b = fit_baseline(frames[:5])
        with pytest.raises(IndexError, match="out of order"):
            monitor_series(frames, b, taus)

    def test_bit_identical_reruns(self):
        _, frames = self.make_stream(n_ic=10, n_ooc=10)
        b = fit_baseline(frames[:10])
        s1 = monitor_series(frames, b, range(0, 20))
        s2 = monitor_series(frames, b, range(0, 20))
        assert s1 == s2


def reused_buffer(frames):
    """Yield ``frames`` as ``iter_frames`` yields decoded PGM frames: one
    read-only view of one buffer, overwritten by each next frame."""
    buf = np.empty_like(frames[0])
    for f in frames:
        buf[...] = f
        view = buf.view()
        view.flags.writeable = False
        yield view


class TestIntegerFrames:
    """Integer frames are read as they are, with the bits of their float64
    copies, and need only stay valid until the next frame is drawn."""

    def integer_frames(self, dtype, count=24, shape=(12, 20)):
        rng = np.random.Generator(np.random.Philox(7))
        info = np.iinfo(dtype)
        level, sigma = {
            np.uint8: (120, 25), np.uint16: (30000, 3000), np.int64: (-(2**40), 2**36)
        }[dtype]
        patch = np.zeros(shape)
        patch[3:8, 5:11] = 4 * sigma
        frames = []
        for k in range(count):
            x = level + sigma * rng.standard_normal(shape) + (patch if k >= count // 2 else 0.0)
            frames.append(np.clip(np.rint(x), info.min, info.max).astype(dtype))
        if dtype == np.int64:
            # Past 2**53, the conversion to float64 rounds: both reads must
            # round alike.
            frames[-1][0, 0] = 2**62 + 1
        return frames

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64], ids=lambda d: d.__name__)
    @pytest.mark.parametrize("mode", ["literal", "debias"])
    def test_read_bit_for_bit_like_float64_copies(self, dtype, mode):
        ints = self.integer_frames(dtype)
        floats = [f.astype(np.float64) for f in ints]
        w0 = 10
        b_int = fit_baseline(reused_buffer(ints[:w0]))
        b_float = fit_baseline(floats[:w0])
        assert b_int.mu0_hat.tobytes() == b_float.mu0_hat.tobytes()
        assert b_int.sigma2_hat.hex() == b_float.sigma2_hat.hex()

        taus = range(w0, len(ints))
        series = monitor_series(reused_buffer(ints), b_float, taus, mode=mode)
        expected = monitor_series(floats, b_float, taus, mode=mode)
        assert [reading_bits(r) for r in series] == [reading_bits(r) for r in expected]
        for k in (w0, len(ints) - 1):
            got = corrected_reading(ints[k], b_float, mode=mode, t=k)
            want = corrected_reading(floats[k], b_float, mode=mode, t=k)
            assert reading_bits(got) == reading_bits(want)
            assert np.array_equal(residual(ints[k], b_float), residual(floats[k], b_float))
        window = windowed_reading(reused_buffer(ints[-6:]), b_float, mode=mode)
        want = windowed_reading(floats[-6:], b_float, mode=mode)
        assert reading_bits(window) == reading_bits(want)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_frame_refused(self, bad):
        b = fit_baseline([np.zeros((3, 4)), np.ones((3, 4))])
        frame = np.zeros((3, 4))
        frame[1, 2] = bad
        finite = "matrix entries must all be finite"
        with pytest.raises(ValueError, match=finite):
            fit_baseline([np.zeros((3, 4)), frame])
        with pytest.raises(ValueError, match=finite):
            residual(frame, b)
        with pytest.raises(ValueError, match=finite):
            corrected_reading(frame, b)
        with pytest.raises(ValueError, match=finite):
            monitor_series([frame], b, [0])
        with pytest.raises(ValueError, match=finite):
            windowed_reading([np.zeros((3, 4)), frame], b)
