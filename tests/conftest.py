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


def gini_oracle(matrix) -> float:
    """Alternative Gini form: sum((2k - n - 1) |x|_(k)) / (n * sum|x|)."""
    mags = sorted(abs(float(v)) for row in np.asarray(matrix) for v in row)
    n = len(mags)
    total = math.fsum(mags)
    if total == 0.0:
        return 1.0
    return math.fsum((2 * k - n - 1) * m for k, m in enumerate(mags, start=1)) / (n * total)


def bias_oracle(a_bar: float, a2_bar: float, sigma2: float) -> float:
    """Direct ratio form of the noise-bias expression."""
    if sigma2 == 0.0 or a_bar == 0.0:
        return 0.0
    return (a_bar * sigma2) / (
        math.sqrt(a2_bar * (a2_bar + sigma2))
        * (math.sqrt(a2_bar) + math.sqrt(a2_bar + sigma2))
    )


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


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20260810))
