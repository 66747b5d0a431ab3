"""Shared independent oracles for the test suite.

These deliberately avoid the package's own accumulation paths: plain Python
loops with ``math.fsum`` and textbook formulas, so every frozen expected
value is computed by arithmetic the library never touches.
"""

import math

import numpy as np
import pytest


def hoyer_oracle(matrix) -> float:
    """Brute-force ratio-form sparsity index via exact fsum accumulation."""
    values = [float(v) for row in np.asarray(matrix) for v in row]
    n = len(values)
    total = math.fsum(values)
    square = math.fsum(v * v for v in values)
    if square == 0.0:
        return 1.0
    return (math.sqrt(n) - abs(total) / math.sqrt(square)) / (math.sqrt(n) - 1.0)


def bias_oracle(a_bar: float, a2_bar: float, sigma2: float) -> float:
    """Direct ratio form of the noise-bias expression."""
    if sigma2 == 0.0 or a_bar == 0.0:
        return 0.0
    return (a_bar * sigma2) / (
        math.sqrt(a2_bar * (a2_bar + sigma2))
        * (math.sqrt(a2_bar) + math.sqrt(a2_bar + sigma2))
    )


def totals_reading_oracle(s, ss, n, sigma2, mode, h_raw=None):
    """(h_raw, a_bar, a2_bar, bias, g_unclamped, g) of one residual from
    its totals, in plain float arithmetic with ``math.sqrt`` and the
    builtin min/max: the scalar formulas the readings have always been
    computed by, so an array evaluation must match them bit for bit. A
    caller's ``h_raw`` replaces the index, as a frame reading's does."""
    if h_raw is None:
        if ss == 0.0:
            h_raw = 1.0
        else:
            root_n = math.sqrt(n)
            h = (root_n - abs(s) / math.sqrt(ss)) / (root_n - 1.0)
            h_raw = min(max(h, 0.0), 1.0)
    a_bar = abs(s) / n
    floor = max(1e-12 * sigma2, 1e-300)
    if mode == "literal":
        a2_bar = max(ss / n, floor)
    else:
        a2_bar = max(ss / n - sigma2, a_bar * a_bar, floor)
    bias = a_bar * (1.0 / math.sqrt(a2_bar) - 1.0 / math.sqrt(a2_bar + sigma2))
    g_unclamped = h_raw - bias
    return h_raw, a_bar, a2_bar, bias, g_unclamped, min(max(g_unclamped, 0.0), 1.0)


def welford_oracle(values):
    """Streaming mean/std (n-1) via Welford's recurrence."""
    mean = 0.0
    m2 = 0.0
    n = 0
    for v in values:
        n += 1
        delta = v - mean
        mean += delta / n
        m2 += delta * (v - mean)
    return mean, math.sqrt(m2 / (n - 1))


def pooled_variance_oracle(block) -> float:
    """Unbiased pooled noise variance of an (m, p1, p2) block, two-pass:
    each pixel's mean from one fsum, then one fsum of every squared
    deviation, over p1*p2*(m - 1)."""
    block = np.asarray(block, dtype=np.float64)
    m = block.shape[0]
    columns = block.reshape(m, -1).T.tolist()
    means = [math.fsum(col) / m for col in columns]
    ssq = math.fsum((v - mean) ** 2 for col, mean in zip(columns, means) for v in col)
    return ssq / (len(columns) * (m - 1))


def pure_noise_index_cdf(x: float, n: int) -> float:
    """P(index <= x) for the unclipped index of n >= 2 iid N(0, sigma^2)
    entries, any sigma.

    The index is sqrt(n)·(1 - c) / (sqrt(n) - 1), where c = |cos| of the
    angle between the entries and the all-ones vector, and
    T = sqrt(n - 1)·cos / sqrt(1 - cos^2) is Student's t with nu = n - 1
    degrees of freedom. So P(index <= x) = P(|T| >= t) = 1 - A(t | nu) at
    the c that reads x, and A(t | nu) is the finite sum of Abramowitz &
    Stegun 26.7.3 (nu odd) and 26.7.4 (nu even) in theta = atan(t / sqrt(nu)),
    which here is asin(c).
    """
    root_n = math.sqrt(n)
    c = 1.0 - x * (root_n - 1.0) / root_n
    if c <= 0.0:
        return 1.0
    if c >= 1.0:
        return 0.0
    nu = n - 1
    sin_t, cos2 = c, 1.0 - c * c
    terms = []
    if nu % 2:  # cos + (2/3)cos^3 + (2·4)/(3·5)cos^5 + ... + cos^(nu - 2)
        term = math.sqrt(cos2)
        for j in range(1, (nu - 1) // 2 + 1):
            terms.append(term)
            term *= cos2 * (2 * j) / (2 * j + 1)
        a = 2.0 / math.pi * (math.asin(c) + sin_t * math.fsum(terms))
    else:  # 1 + (1/2)cos^2 + (1·3)/(2·4)cos^4 + ... + cos^(nu - 2)
        term = 1.0
        for j in range(nu // 2):
            terms.append(term)
            term *= cos2 * (2 * j + 1) / (2 * j + 2)
        a = sin_t * math.fsum(terms)
    return 1.0 - a


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20260810))
