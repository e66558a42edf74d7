"""The LAPACK gufuncs behind ``np.linalg.solve`` and ``np.linalg.cholesky``.

The public wrappers re-check dtypes and shapes, enter an ``errstate``
that turns LAPACK failures into :class:`numpy.linalg.LinAlgError` and
re-wrap the result on every call.  At the sizes of one bandit round
(a ``k x k`` Woodbury system with ``k <= c_u``, a ``d x d`` Cholesky
factor) that dispatch costs about as much as the factorisation itself.
The helpers here call the same gufunc with the same ``"dd->d"`` /
``"d->d"`` loop, so a successful result is bit-identical to the public
call's.

On a LAPACK failure (a singular system, a matrix that is not positive
definite) the gufunc NaN-fills its whole output and raises the
floating-point invalid flag; on success it clears the flags.  So a NaN
first entry is the one case where the public call could differ, and
there the helper returns whatever the public function gives: the same
``LinAlgError``, or the same output for NaN inputs.  The gufunc runs
with invalid-value warnings off, so a failure emits no
``RuntimeWarning`` the public call would not.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.typing as npt
from numpy.linalg import _umath_linalg

FloatArray = npt.NDArray[np.float64]


def solve(a: FloatArray, b: FloatArray) -> FloatArray:
    """``np.linalg.solve(a, b)`` for a float64 ``(k, k)`` matrix ``a`` and a
    float64 ``(k, n)`` matrix ``b``, returning the ``(k, n)`` solution."""
    with np.errstate(invalid="ignore"):
        solution: FloatArray = _umath_linalg.solve(a, b, signature="dd->d")
    if solution.size and not math.isnan(solution.item(0)):
        return solution
    return np.linalg.solve(a, b)


def cholesky(a: FloatArray) -> FloatArray:
    """``np.linalg.cholesky(a)`` for a float64 ``(d, d)`` matrix: the
    lower-triangular factor of a symmetric positive definite ``a``."""
    with np.errstate(invalid="ignore"):
        lower: FloatArray = _umath_linalg.cholesky_lo(a, signature="d->d")
    if lower.size and not math.isnan(lower.item(0)):
        return lower
    return np.linalg.cholesky(a)
