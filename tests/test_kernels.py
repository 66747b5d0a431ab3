"""Accumulation kernel checks: fsum agreement, the sign-mass split, exact
small cases, the error bounds the kernel documents, and bits that do not
depend on the BLAS thread count. The package reads ``matrix_totals``;
``matrix_stats`` is its two totals plus the positive mass."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hoyerstream
from hoyerstream import indices, kernels, simulate, stream

U = 2.0**-53  # unit roundoff of float64


@pytest.fixture(params=[kernels.matrix_stats], ids=["numpy"])
def matrix_stats(request):
    return request.param


def test_compiled_backend_present():
    # The compiled backend is the one kernel: it runs on NumPy's compiled
    # reductions, so every install has it without a build step. Make any
    # second implementation loud: the kernel these tests exercise must be
    # the one the package runs, with nothing to fall back to.
    assert kernels.matrix_totals.__module__ == kernels.__name__
    for module in (indices, stream, simulate):
        assert module.matrix_totals is kernels.matrix_totals, module.__name__


def test_matches_fsum_on_random_data(matrix_stats, rng):
    x = rng.standard_normal((137, 211))
    s, ss, pos = matrix_stats(x)
    flat = [float(v) for v in x.ravel()]
    for s, ss in ((s, ss), kernels.matrix_totals(x)):
        assert s == pytest.approx(math.fsum(flat), rel=1e-13, abs=1e-12)
        assert ss == pytest.approx(math.fsum(v * v for v in flat), rel=1e-13)
    assert pos == pytest.approx(math.fsum(v for v in flat if v > 0), rel=1e-13)


def test_positive_mass_splits_total(matrix_stats, rng):
    x = rng.standard_normal((40, 53))
    s, _, pos = matrix_stats(x)
    neg = pos - s
    assert pos >= 0 and neg >= 0
    assert pos == pytest.approx(float(np.sum(x[x > 0])), rel=1e-12)


def test_all_nonnegative_has_zero_negative_mass(matrix_stats):
    x = np.arange(12.0).reshape(3, 4)
    s, ss, pos = matrix_stats(x)
    assert s == 66.0
    assert ss == float(sum(v * v for v in range(12)))
    assert pos == s


def test_zero_matrix(matrix_stats):
    s, ss, pos = matrix_stats(np.zeros((5, 7)))
    assert (s, ss, pos) == (0.0, 0.0, 0.0)


def _fsum_oracles(x):
    """Correctly rounded sum(x), sum(|x|), positive mass and sum(x**2)."""
    v = x.ravel()
    # Dekker's product: v * v == p + e exactly, so fsum sees exact squares.
    p = v * v
    c = v * 134217729.0  # 2**27 + 1 splits v into two 26-bit halves
    hi = c - (c - v)
    lo = v - hi
    e = ((hi * hi - p) + 2.0 * hi * lo) + lo * lo
    return (
        math.fsum(v.tolist()),
        math.fsum(np.abs(v).tolist()),
        math.fsum(v[v > 0].tolist()),
        math.fsum(np.concatenate([p, e]).tolist()),
    )


def test_compensated_sum_survives_cancellation(rng):
    # Under catastrophic cancellation each total stays within the bound the
    # kernel documents for it: pairwise for the sum and the positive mass,
    # any summation order for the einsum sum of squares. Bounds come from the
    # fsum oracles; the ulp of each oracle covers its own rounding.
    big = rng.standard_normal(499_000) * 1e12
    cancelling = rng.permutation(np.concatenate([big, -big, rng.standard_normal(2_000)]))
    for x in (np.array([[1e16, 1.0, -1e16, 1.0]]), cancelling.reshape(1000, 1000)):
        n = x.size
        total, absolute, positive, square = _fsum_oracles(x)
        s, ss, pos = kernels.matrix_stats(x)
        pairwise = 4.0 * math.log2(n) * U * absolute
        assert abs(pos - positive) <= pairwise + U * absolute + math.ulp(positive)
        any_order = n * U / (1.0 - n * U) * square
        for s, ss in ((s, ss), kernels.matrix_totals(x)):
            assert abs(s - total) <= pairwise + math.ulp(total), (n, s, total)
            assert abs(ss - square) <= any_order + math.ulp(square), (n, ss, square)


_PRINT_TOTALS = (
    "import numpy as np\n"
    "from hoyerstream.kernels import matrix_stats, matrix_totals\n"
    "x = np.random.default_rng(0).standard_normal((400, 400))\n"
    "print(*(float(v).hex() for v in matrix_totals(x) + matrix_stats(x)))\n"
)


def test_totals_do_not_depend_on_blas_threads():
    # OpenBLAS reads its thread count once, at process start, so each count
    # needs its own interpreter: exactly two children, one thread and two.
    src = str(Path(hoyerstream.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _PRINT_TOTALS],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1], outputs


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 40)),
              elements=st.floats(-1e150, 1e150)))
def test_totals_are_the_first_two_stats(x):
    # The package's two totals are the benchmark kernel's first two, bit
    # for bit: the same two reductions, so dropping the positive mass moves
    # no reading.
    stats = kernels.matrix_stats(x)
    assert [v.hex() for v in kernels.matrix_totals(x)] == [v.hex() for v in stats[:2]]
