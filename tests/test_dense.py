"""Dense kernels: the Cholesky SPD test and solves, the general
eigensolver, and the condition number."""

import numpy as np
import pytest

from saddlekit.dense import (NotPositiveDefinite, Singular, cholesky,
                             cholesky_solve, cond2, eig_general)

from conftest import random_spd


def test_cholesky_solve_oracle(rng):
    S = random_spd(rng, 9)
    b = rng.standard_normal(9)
    F = cholesky(S)
    assert F.order == 9
    x = cholesky_solve(F, b)
    assert np.allclose(S @ x, b, atol=1e-10)


def test_cholesky_multiple_rhs(rng):
    S = random_spd(rng, 6)
    B = rng.standard_normal((6, 3))
    X = cholesky_solve(cholesky(S), B)
    assert np.allclose(S @ X, B, atol=1e-10)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.diag([1.0, -1.0]))


def test_cholesky_rejects_asymmetric():
    M = np.array([[2.0, 1.0], [0.0, 2.0]])
    with pytest.raises(ValueError):
        cholesky(M)


def test_cholesky_solve_rhs_length():
    F = cholesky(np.eye(3))
    with pytest.raises(ValueError):
        cholesky_solve(F, np.ones(4))


def test_eig_general_rotation():
    # 2x2 rotation: purely imaginary conjugate pair
    M = np.array([[0.0, -1.0], [1.0, 0.0]])
    spec = eig_general(M)
    assert spec.dtype == np.complex128 and spec.shape == (2,)
    assert np.allclose(spec.real, 0.0)
    assert np.allclose(sorted(spec.imag), [-1.0, 1.0])


def test_cond2_diagonal():
    assert cond2(np.diag([4.0, 1.0, 0.5])) == pytest.approx(8.0)


def test_cond2_singular():
    with pytest.raises(Singular):
        cond2(np.zeros((2, 2)))
