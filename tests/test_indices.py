"""Index math: exact boundary values, oracle comparisons, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hoyerstream import (
    MOMENT_MODES,
    DimensionError,
    NoiseSpec,
    SignalMoments,
    SparsityReading,
    corrected_hoyer,
    estimate_moments,
    hoyer_index,
    make_dense_anomaly,
    make_sparse_anomaly,
    noise_bias,
    sample_noise,
)
from hoyerstream.indices import (
    hoyer_from_totals,
    moment_floor,
    moments_from_stats,
    readings_from_totals,
)
from hoyerstream.simulate import _shifted_totals

from conftest import bias_oracle, hoyer_oracle, pure_noise_index_cdf, totals_reading_oracle

# Frozen from the brute-force fsum oracle (see conftest.hoyer_oracle).
DENSE_H = 0.19962785637227268
SPARSE_H = 0.7819222273431695

finite_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 8), st.integers(2, 9)),
    elements=st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False, width=64),
)

# Multiples of 2**-10 in [-1, 1]: scaled by any normal c they stay finite, and
# every nonzero entry keeps at least 42 significant bits.
unit_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 8), st.integers(2, 9)),
    elements=st.integers(-1024, 1024).map(lambda k: k / 1024.0),
)
FINFO = np.finfo(np.float64)


class TestHoyer:
    def test_constant_matrix_is_zero(self):
        assert hoyer_index(np.ones((2, 2))) == 0.0
        assert abs(hoyer_index(np.full((13, 17), 0.37))) < 1e-12

    def test_single_nonzero_is_one(self):
        x = np.zeros((10, 10))
        x[3, 7] = 7.0
        assert hoyer_index(x) == 1.0

    def test_all_zero_convention(self):
        assert hoyer_index(np.zeros((4, 4))) == 1.0

    def test_dense_pattern_matches_oracle(self):
        a = make_dense_anomaly(100, 200)
        assert hoyer_oracle(a) == pytest.approx(DENSE_H, abs=1e-15)
        assert hoyer_index(a) == pytest.approx(DENSE_H, abs=1e-9)

    def test_sparse_pattern_matches_oracle(self):
        a = make_sparse_anomaly(100, 200)
        assert hoyer_oracle(a) == pytest.approx(SPARSE_H, abs=1e-15)
        assert hoyer_index(a) == pytest.approx(SPARSE_H, abs=1e-9)

    def test_too_small_matrix_rejected(self):
        with pytest.raises(DimensionError):
            hoyer_index([[1.0]])
        with pytest.raises(DimensionError):
            hoyer_index(np.ones(4))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            hoyer_index([[1.0, np.nan]])
        with pytest.raises(ValueError):
            hoyer_index([[1.0, np.inf]])

    def test_unclipped_can_exceed_one_on_cancelling_matrix(self):
        x = np.array([[1.0, -1.0], [1.0, -1.0]])
        assert hoyer_index(x) == 1.0
        assert hoyer_index(x, clip=False) == pytest.approx(2.0 / 1.0)

    @given(finite_matrices)
    @settings(max_examples=150, deadline=None)
    def test_range_invariant(self, x):
        assert 0.0 <= hoyer_index(x) <= 1.0

    @given(finite_matrices, st.sampled_from([-7.0, -1.0, 0.5, 2.0, 1024.0, 3e5]))
    @settings(max_examples=150, deadline=None)
    def test_scale_and_sign_invariance(self, x, c):
        h = hoyer_index(x)
        assert hoyer_index(c * x) == pytest.approx(h, rel=1e-12, abs=1e-12)

    def test_constant_matrix_is_zero_at_extreme_magnitudes(self):
        # Sum of squares overflows (1e200) or underflows to 0 (1e-170).
        assert hoyer_index(np.full((2, 2), 1e200)) == 0.0
        assert hoyer_index(np.full((2, 2), 1e-170)) == 0.0
        assert hoyer_index(np.full((2, 2), -FINFO.max)) == 0.0
        x = np.zeros((3, 3))
        x[1, 2] = 1e-160
        assert hoyer_index(x) == 1.0

    @given(
        unit_matrices,
        st.floats(min_value=float(FINFO.tiny), max_value=float(FINFO.max)),
        st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_scale_invariance_over_full_finite_range(self, x, c, sign):
        h = hoyer_index(x)
        hc = hoyer_index(sign * c * x)
        assert 0.0 <= hc <= 1.0
        assert hc == pytest.approx(h, abs=1e-9)

    def test_scale_invariance_large_noise_matrix(self):
        e = sample_noise(250, 400, NoiseSpec(3.0, 99))
        h = hoyer_index(e, clip=False)
        assert hoyer_index(1.7e3 * e, clip=False) == pytest.approx(h, rel=1e-12)
        assert hoyer_index(2.0 * e, clip=False) == h  # power-of-2 scaling is exact


class TestPureNoiseLaw:
    """The index of white Gaussian noise has an exact finite-n law (see
    ``conftest.pure_noise_index_cdf``); simulated indices must follow it."""

    # Dvoretzky-Kiefer-Wolfowitz (Massart's constant): the sup distance D of
    # N draws' empirical CDF from the true one exceeds eps with probability
    # at most 2·exp(-2·N·eps^2) = 3e-7 here, so the six cases below fail
    # falsely with probability below 2e-6.
    DRAWS = 2000
    EPS = math.sqrt(math.log(2 / 3e-7) / (2 * DRAWS))

    def assert_within_dkw_band(self, indices, n):
        cdf = [pure_noise_index_cdf(x, n) for x in sorted(indices)]
        d = max(max((i + 1) / self.DRAWS - f, f - i / self.DRAWS) for i, f in enumerate(cdf))
        assert d < self.EPS, (n, d, self.EPS)

    @pytest.mark.parametrize("shape", [(1, 5), (10, 10), (25, 40)])
    def test_empirical_cdf_within_dkw_band(self, shape, rng):
        frames = 2.5 * rng.standard_normal((self.DRAWS,) + shape)
        indices = [hoyer_index(f, clip=False) for f in frames]
        self.assert_within_dkw_band(indices, shape[0] * shape[1])

    @pytest.mark.parametrize("n", [5, 100, 1000])
    def test_drawn_totals_within_dkw_band(self, n):
        # The pure-noise totals the verify checks read (mean and spread 0).
        s, ss = _shifted_totals(NoiseSpec(2.5, 20260810), n, 0.0, 0.0, self.DRAWS)
        self.assert_within_dkw_band(hoyer_from_totals(s, ss, n, clip=False).tolist(), n)


class TestNoiseBias:
    def test_unit_moments(self):
        m = SignalMoments(1.0, 1.0, 1.0)
        assert noise_bias(m) == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-15)
        assert noise_bias(m) == pytest.approx(0.29289321881345254, abs=1e-15)

    def test_matches_ratio_form(self):
        for a, a2, s2 in [(1.5, 3.5, 36.0), (0.25, 1.25, 4.0), (1.0, 2.0, 0.1)]:
            assert noise_bias(SignalMoments(a, a2, s2)) == pytest.approx(
                bias_oracle(a, a2, s2), rel=1e-13
            )

    def test_zero_noise_is_zero(self):
        assert noise_bias(SignalMoments(1.3, 2.0, 0.0)) == 0.0

    def test_zero_signal_is_zero(self):
        assert noise_bias(SignalMoments(0.0, 2.0, 5.0)) == 0.0

    def test_monotone_in_noise_and_bounded(self):
        m0 = SignalMoments(1.5, 3.5, 0.0)
        sup = m0.a_bar / math.sqrt(m0.a2_bar)
        prev = -1.0
        for s2 in [0.0, 0.01, 0.1, 1.0, 10.0, 1e3, 1e6, 1e9, 1e12]:
            b = noise_bias(SignalMoments(1.5, 3.5, s2))
            assert b >= prev
            assert b <= sup
            prev = b

    def test_supremum_reached_at_huge_noise(self):
        sup = 1.0  # a_bar / sqrt(a2_bar) for unit moments
        b = noise_bias(SignalMoments(1.0, 1.0, 1e12))
        # Exact gap is 1/sqrt(1 + 1e12), a hair under 1e-6; allow half an
        # ulp of 1.0 for the subtraction.
        assert sup - b <= 1e-6 + 1e-12

    def test_invalid_moments_rejected(self):
        with pytest.raises(ValueError):
            SignalMoments(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            SignalMoments(-0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            SignalMoments(1.0, 1.0, -2.0)
        with pytest.raises(ValueError):
            SignalMoments(2.0, 1.0, 1.0)  # mean square below squared mean


class TestCorrectedHoyer:
    def test_subtraction(self):
        m = SignalMoments(1.5, 3.5, 36.0)
        b = noise_bias(m)
        assert corrected_hoyer(0.76, m) == pytest.approx(0.76 - b, abs=1e-15)

    def test_zero_noise_is_identity(self):
        m = SignalMoments(1.0, 2.0, 0.0)
        for h in [0.0, 0.1, 0.5, 0.99, 1.0]:
            assert corrected_hoyer(h, m) == h

    def test_clamps_to_zero(self):
        m = SignalMoments(1.0, 1.0, 1e9)  # bias near 1
        assert corrected_hoyer(0.10, m) == 0.0

    def test_rejects_out_of_range(self):
        m = SignalMoments(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            corrected_hoyer(1.5, m)
        with pytest.raises(ValueError):
            corrected_hoyer(-0.1, m)


class TestEstimateMoments:
    def test_dense_noise_free(self):
        a = make_dense_anomaly(100, 200)
        for mode in ("literal", "debias"):
            m = estimate_moments(a, 0.0, mode)
            assert m.a_bar == 1.5
            assert m.a2_bar == 3.5
            assert m.sigma2 == 0.0

    def test_all_zero_floor(self):
        z = np.zeros((5, 4))
        for mode in ("literal", "debias"):
            m = estimate_moments(z, 2.0, mode)
            assert m.a_bar == 0.0
            assert m.a2_bar == moment_floor(2.0) == 2e-12
            assert m.sigma2 == 2.0
            assert noise_bias(m) == 0.0
        m = estimate_moments(z, 0.0)
        assert m.a2_bar == 1e-300

    def test_debias_recovers_mean_square(self):
        # MC oracle: mean of ||A + e||_F^2 / n - sigma^2 over 100 draws.
        a = make_dense_anomaly(100, 200)
        sigma = 6.0
        estimates = []
        for rep in range(100):
            e = sample_noise(100, 200, NoiseSpec(sigma, 1234), rep)
            estimates.append(estimate_moments(a + e, sigma * sigma).a2_bar)
        assert np.mean(estimates) == pytest.approx(3.5, abs=0.2)

    def test_literal_keeps_noise_mass(self):
        a = make_dense_anomaly(100, 200)
        sigma = 6.0
        e = sample_noise(100, 200, NoiseSpec(sigma, 5), 0)
        lit = estimate_moments(a + e, sigma * sigma, "literal")
        deb = estimate_moments(a + e, sigma * sigma, "debias")
        assert lit.a2_bar == pytest.approx(3.5 + 36.0, rel=0.05)
        assert deb.a2_bar == pytest.approx(3.5, rel=0.25)
        assert lit.a_bar == deb.a_bar

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            estimate_moments(np.ones((2, 2)), -1.0)
        with pytest.raises(ValueError):
            estimate_moments(np.ones((2, 2)), 1.0, mode="bogus")

    @given(finite_matrices, st.sampled_from([0.0, 0.5, 9.0]))
    @settings(max_examples=100, deadline=None)
    def test_moment_inequality_both_modes(self, x, sigma2):
        for mode in ("literal", "debias"):
            m = estimate_moments(x, sigma2, mode)
            assert m.a_bar * m.a_bar <= m.a2_bar * (1.0 + 1e-9)


def _bits(x) -> str:
    return float(x).hex()


def _scalar_reading(s, ss, n, sigma2, mode, h_raw=None):
    """(h_raw, a_bar, a2_bar, bias, g_unclamped, g) of one reading through
    the public scalar formulas; raises as they do."""
    moments = moments_from_stats(s, ss, n, sigma2, mode)
    bias = noise_bias(moments)
    if h_raw is None:
        h_raw = hoyer_from_totals(s, ss, n)
    reading = SparsityReading(t=0, h_raw=h_raw, bias=bias, moments=moments)
    if 0.0 <= h_raw <= 1.0:
        assert _bits(corrected_hoyer(h_raw, moments)) == _bits(reading.g)
    return h_raw, moments.a_bar, moments.a2_bar, bias, reading.g_unclamped, reading.g


def _assert_array_pass_matches(s, ss, n, sigma2, mode, h_raw=None):
    """``readings_from_totals`` over the k totals equals the scalar
    formulas, and the plain-float oracle, element by element and bit for
    bit; or raises the scalar message of the first bad reading."""
    expected, error = [], None
    for k in range(len(s)):
        h_k = None if h_raw is None else h_raw[k]
        try:
            expected.append(_scalar_reading(s[k], ss[k], n, sigma2, mode, h_k))
        except ValueError as e:
            error = str(e)
            break
        want = [_bits(v) for v in expected[-1]]
        assert [_bits(v) for v in totals_reading_oracle(s[k], ss[k], n, sigma2, mode, h_k)] == want
    args = (np.array(s), np.array(ss), n, sigma2, mode, None if h_raw is None else np.array(h_raw))
    if error is not None:
        with pytest.raises(ValueError) as info:
            readings_from_totals(*args)
        assert str(info.value) == error
        return None
    got = readings_from_totals(*args)
    for k, want in enumerate(expected):
        assert [_bits(v[k]) for v in got] == [_bits(v) for v in want], k
    return got


@st.composite
def _totals_batches(draw):
    """k readings' (s, ss) sharing n, sigma2 and mode, plus an optional
    caller ``h_raw`` each. ss is n·sigma2 times a ratio in [0, 3] (any
    scale when sigma2 = 0), so the debias mean square lands on each of its
    branches; s is t·sqrt(n·ss) with |t| up to 1.2, past Cauchy-Schwarz,
    so literal readings can break the moment contract. A caller's h_raw
    may lie outside [0, 1], so g is clamped at both ends."""
    n = draw(st.integers(2, 10**6))
    sigma2 = draw(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)))
    mode = draw(st.sampled_from(MOMENT_MODES))
    k = draw(st.integers(1, 12))
    s, ss = [], []
    for _ in range(k):
        scale = sigma2 if sigma2 > 0.0 else draw(st.floats(1e-6, 1e6))
        ss_k = n * scale * draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
        s.append(draw(st.floats(-1.2, 1.2)) * math.sqrt(n * ss_k))
        ss.append(ss_k)
    # -0.0 is mapped to 0.0: the index never reads -0.0, and the clamp
    # takes it to 0.0 where the builtin max kept it.
    h_values = st.floats(-0.5, 1.5).map(lambda x: x + 0.0)
    h_raw = draw(st.none() | st.lists(h_values, min_size=k, max_size=k))
    return s, ss, n, sigma2, mode, h_raw


class TestReadingsFromTotals:
    @given(_totals_batches())
    @settings(max_examples=400, deadline=None)
    def test_array_pass_is_the_scalar_formulas(self, batch):
        _assert_array_pass_matches(*batch)

    # (s, ss, n, sigma2, mode, h_raw): one case per branch of the index,
    # the moments and the clamp.
    BRANCHES = {
        "blank_frame": (0.0, 0.0, 100, 1.0, "debias", None),
        "no_noise": (30.0, 50.0, 100, 0.0, "debias", None),
        "signal": (50.0, 500.0, 100, 1.0, "debias", None),
        "mean_floor": (90.0, 100.0, 100, 0.5, "debias", None),
        "positivity_floor": (0.0, 50.0, 100, 1.0, "debias", None),
        "literal": (50.0, 500.0, 100, 1.0, "literal", None),
        "clamped_at_0": (95.0, 100.0, 100, 0.5, "debias", None),
        "clamped_at_1": (30.0, 50.0, 100, 0.0, "debias", 1.25),
    }

    @pytest.mark.parametrize("name", sorted(BRANCHES))
    def test_each_branch(self, name):
        s, ss, n, sigma2, mode, h_raw = self.BRANCHES[name]
        # The same case three times over, so the array path is exercised
        # with k > 1 and with broadcasting against the shared sigma2.
        r = _assert_array_pass_matches(
            [s] * 3, [ss] * 3, n, sigma2, mode, None if h_raw is None else [h_raw] * 3
        )
        h, a_bar, a2_bar, bias, unclamped, g = (float(v[0]) for v in r)
        floor = moment_floor(sigma2)
        fired = {
            "blank_frame": ss == 0.0 and h == 1.0 and a2_bar == floor,
            "no_noise": sigma2 == 0.0 and bias == 0.0 and g == h,
            "signal": a2_bar == ss / n - sigma2 > max(a_bar * a_bar, floor),
            "mean_floor": a2_bar == a_bar * a_bar > max(ss / n - sigma2, floor),
            "positivity_floor": a2_bar == floor > max(ss / n - sigma2, a_bar * a_bar),
            "literal": a2_bar == ss / n,
            "clamped_at_0": unclamped < 0.0 and g == 0.0,
            "clamped_at_1": unclamped > 1.0 and g == 1.0,
        }
        assert fired[name]

    def test_first_bad_reading_is_named(self):
        # Readings 1 and 2 both break a_bar**2 <= a2_bar in literal mode;
        # the message is reading 1's, as its scalar reading raises it.
        s = np.array([1.0, 20.0, 30.0])
        ss = np.array([50.0, 2.0, 3.0])
        with pytest.raises(ValueError) as info:
            readings_from_totals(s, ss, 100, 1.0, "literal")
        with pytest.raises(ValueError) as scalar:
            moments_from_stats(20.0, 2.0, 100, 1.0, "literal")
        assert str(info.value) == str(scalar.value)
        assert str(info.value) == (
            "inconsistent moments: a_bar**2 = 0.04000000000000001 exceeds a2_bar = 0.02"
        )

    def test_non_finite_moments_named_as_floats(self):
        with pytest.raises(ValueError, match=r"^a2_bar must be finite, got inf$"):
            readings_from_totals(np.array([1.0, 2.0]), np.array([5.0, np.inf]), 4, 1.0)
        with pytest.raises(ValueError, match=r"^a_bar must be finite, got nan$"):
            SignalMoments(float("nan"), 1.0, 1.0)

    def test_inconsistent_huge_a_bar_is_a_value_error(self):
        # a_bar**2 overflows; the message reads inf rather than raising
        # OverflowError from the message itself.
        with pytest.raises(ValueError, match=r"a_bar\*\*2 = inf exceeds a2_bar = 1.0"):
            SignalMoments(1e200, 1.0, 1.0)
