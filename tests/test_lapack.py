"""The direct LAPACK gufunc helpers match the public numpy calls exactly."""

import warnings

import numpy as np
import pytest

from repro.linalg.lapack import cholesky, solve
from repro.linalg.sampling import cholesky_sample


def spd(dim, rng):
    """A random symmetric positive definite ``dim x dim`` matrix."""
    factor = rng.standard_normal((dim, dim))
    return factor @ factor.T + np.eye(dim)


def woodbury_system(k, dim, rng):
    """The ``k x k`` system ``RidgeState.update_batch`` solves, built the
    same way: ``I_k + X Y^-1 X^T`` against the transposed ``Y^-1 X^T``."""
    y_inv = np.linalg.inv(spd(dim, rng))
    rows = rng.standard_normal((k, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    y_inv_xt = y_inv @ rows.T
    capacitance = rows @ y_inv_xt
    capacitance.ravel()[:: k + 1] += 1.0
    return capacitance, y_inv_xt.T


def outcome(call, *args):
    """``("ok", result)`` or ``("error", type, message)`` of ``call(*args)``,
    with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return ("ok", call(*args))
        except np.linalg.LinAlgError as error:
            return ("error", type(error), str(error))


def assert_same_outcome(helper, public, *args):
    got, want = outcome(helper, *args), outcome(public, *args)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert got[1].dtype == want[1].dtype and got[1].shape == want[1].shape
        assert np.array_equal(got[1], want[1], equal_nan=True)
    else:
        assert got[1:] == want[1:]


@pytest.mark.parametrize("dim", [20, 150])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_solve_is_bit_equal_on_woodbury_systems(k, dim):
    rng = np.random.default_rng(1000 * k + dim)
    for _ in range(20):
        capacitance, rhs = woodbury_system(k, dim, rng)
        assert np.array_equal(solve(capacitance, rhs), np.linalg.solve(capacitance, rhs))


@pytest.mark.parametrize(
    "matrix",
    [
        np.ones((3, 3)),  # singular
        np.zeros((2, 2)),
        np.array([[1.0, 2.0], [2.0, 4.0]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, np.nan]]),
        np.array([[np.inf, 1.0], [1.0, 1.0]]),
    ],
    ids=["ones", "zeros", "rank-1", "nan-first", "nan-last", "inf"],
)
def test_solve_failures_match_the_public_call(matrix):
    rhs = np.arange(2.0 * matrix.shape[0]).reshape(matrix.shape[0], 2)
    assert_same_outcome(solve, np.linalg.solve, matrix, rhs)


def test_solve_nan_right_hand_side_matches_the_public_call():
    rng = np.random.default_rng(7)
    capacitance, rhs = woodbury_system(3, 20, rng)
    rhs = rhs.copy()
    rhs[1, 4] = np.nan
    assert_same_outcome(solve, np.linalg.solve, capacitance, rhs)


@pytest.mark.parametrize("dim", [20, 150])
def test_cholesky_is_bit_equal_on_spd_matrices(dim):
    rng = np.random.default_rng(dim)
    for _ in range(10):
        matrix = spd(dim, rng)
        assert np.array_equal(cholesky(matrix), np.linalg.cholesky(matrix))


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
        np.zeros((3, 3)),
        -np.eye(2),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, np.nan]]),
    ],
    ids=["indefinite", "zeros", "negative", "nan-first", "nan-last"],
)
def test_cholesky_failures_match_the_public_call(matrix):
    assert_same_outcome(cholesky, np.linalg.cholesky, matrix)


def reference_cholesky_sample(mean, covariance, rng, jitter=1e-10, max_tries=5):
    """``cholesky_sample`` as written against the public ``np.linalg.cholesky``."""
    loc = np.asarray(mean, dtype=float)
    symmetric = 0.5 * (covariance + covariance.T)
    scale = max(float(np.trace(symmetric)) / loc.size, 1.0)
    for attempt in range(max_tries):
        bump = jitter * scale * (10.0**attempt)
        try:
            lower = np.linalg.cholesky(symmetric + bump * np.eye(loc.size))
        except np.linalg.LinAlgError:
            continue
        return loc + lower @ rng.standard_normal(loc.size)
    raise AssertionError("reference draw failed")


def test_non_pd_jitter_retry_is_silent_and_identical():
    # One eigenvalue at -5e-9 * scale: the first two jitters (1e-10,
    # 1e-9) leave it negative, the third (1e-8) makes the matrix PD.
    dim = 6
    basis, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((dim, dim)))
    eigenvalues = np.array([-5e-9, 1.0, 1.0, 1.0, 1.0, 1.0])
    covariance = (basis * eigenvalues) @ basis.T
    mean = np.arange(dim, dtype=float)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(0.5 * (covariance + covariance.T) + 1e-9 * np.eye(dim))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        drawn = cholesky_sample(mean, covariance, np.random.default_rng(11))
    expected = reference_cholesky_sample(mean, covariance, np.random.default_rng(11))
    assert np.array_equal(drawn, expected)
