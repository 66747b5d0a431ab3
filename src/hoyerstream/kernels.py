"""The accumulation kernel: one pass over a residual frame for the two
totals behind the index and its noise correction, its sum and its sum of
squares.

``matrix_totals`` is the only implementation and every module of the
package calls it. It runs on NumPy's compiled reductions, so it needs no
build step, and each total comes from one fixed reduction, so a report
depends only on the NumPy build it ran on: no total goes through BLAS, so
neither the BLAS library nor its thread count moves a bit.

``matrix_stats`` adds a third total, the positive mass, from one more pass
over ``|x|``. No package path reads it; ``perfbench/layers.py`` times it.

Error bounds against the exact totals, with u = 2**-53 the unit roundoff,
n >= 1 the entry count and no intermediate overflow or underflow (Higham,
"The accuracy of floating point summation", SIAM J. Sci. Comput. 14(4),
1993):

- sum: ``np.sum`` adds pairwise (blocks of at most 128 entries in 8
  interleaved lanes, halved recursively above that), so no entry passes
  through more than 3.5·log2(n) roundings and
  ``|error| <= 4·log2(n)·u·sum(|x|)``.
- sum of squares: ``np.einsum("i,i->", x, x)``, NumPy's own SIMD
  sum-of-products loop. It never calls BLAS and makes no temporary, and its
  order is fixed by the NumPy build alone. The bound that holds for any
  summation order applies: ``|error| <= n·u / (1 - n·u)·sum(x**2)``.
- positive mass (``matrix_stats`` only): ``(sum(|x|) + sum(x)) / 2``, two
  sums over the same pairwise tree plus one rounding, so
  ``|error| <= (4·log2(n) + 1)·u·sum(|x|)``. Rounding is monotone, so
  neither the positive mass nor the negative mass ``positive - sum`` is
  ever below zero.
"""

import numpy as np


def matrix_totals(x):
    """Return (sum, sum of squares) of a 2-D float64 array."""
    flat = x.reshape(-1)
    return float(np.sum(flat)), float(np.einsum("i,i->", flat, flat))


def matrix_stats(x):
    """Return (sum, sum of squares, positive mass) of a 2-D float64 array:
    ``matrix_totals`` and one more pass over ``|x|``."""
    total, square = matrix_totals(x)
    positive = (float(np.abs(x.reshape(-1)).sum()) + total) / 2
    return total, square, positive
