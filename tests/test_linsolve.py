"""Direct solver wrapper: exactness, singularity reporting, condition estimate."""

import numpy as np
import pytest

from fracspec.linsolve import (
    SingularMatrixError,
    condition_estimate,
    factor,
    lu_solve,
)


def test_identity_and_diagonal_systems():
    x, growth = lu_solve(factor(np.eye(4)), np.array([1.0, -2.0, 3.0, 0.5]))
    assert np.array_equal(x, [1.0, -2.0, 3.0, 0.5])
    assert growth == 1.0
    d = np.diag([2.0, 0.5, -4.0])
    x, _ = lu_solve(factor(d), np.array([2.0, 1.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0, -2.0])


def test_permutation_system():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    x, growth = lu_solve(factor(A), np.array([3.0, 7.0]))
    assert np.allclose(x, [7.0, 3.0])
    assert growth == pytest.approx(1.0)


def test_manufactured_random_solves():
    rng = np.random.default_rng(20240817)
    for n in (2, 5, 16, 64):
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        want = rng.standard_normal(n)
        x, growth = lu_solve(factor(A), A @ want)
        assert np.max(np.abs(x - want)) < 1e-9
        assert growth > 0.0


def test_residual_bound():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((20, 20))
    rhs = rng.standard_normal(20)
    x, _ = lu_solve(factor(A), rhs)
    res = np.max(np.abs(A @ x - rhs))
    scale = np.max(np.abs(A)) * max(np.max(np.abs(x)), 1.0)
    assert res <= 1e-12 * scale


def test_singular_matrix_names_pivot():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError, match="pivot 1"):
        lu_solve(factor(A), np.ones(2))
    with pytest.raises(SingularMatrixError):
        condition_estimate(factor(np.zeros((3, 3))))


def test_shape_and_finiteness_validation():
    with pytest.raises(ValueError, match="square"):
        lu_solve(factor(np.ones((2, 3))), np.ones(2))
    with pytest.raises(ValueError, match="finite"):
        lu_solve(factor(np.array([[1.0, np.nan], [0.0, 1.0]])), np.ones(2))
    with pytest.raises(ValueError, match="rhs"):
        lu_solve(factor(np.eye(3)), np.ones(4))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^rhs entries must be finite$"):
            lu_solve(factor(np.eye(3)), np.array([1.0, bad, 0.0]))


def test_condition_estimate_diagonal_exact():
    A = np.diag([1.0, 10.0, 100.0])
    assert condition_estimate(factor(A)) == pytest.approx(100.0, rel=1e-12)
    assert condition_estimate(factor(np.eye(5))) == pytest.approx(1.0)


def test_condition_estimate_tracks_true_condition():
    rng = np.random.default_rng(3)
    for n in (4, 16, 40):
        A = rng.standard_normal((n, n))
        est = condition_estimate(factor(A))
        true = np.linalg.cond(A, 1)
        # gecon gives a lower-bound style estimate; factor 10 is generous
        assert true / 10.0 <= est <= true * 1.0000001
