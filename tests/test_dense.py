"""Dense kernels: the Cholesky SPD test and solves, the sparse SPD check,
and the ARPACK 2-norm."""

import numpy as np
import pytest
import scipy.sparse as sp

from saddlekit.dense import (NotPositiveDefinite, cholesky, cholesky_solve,
                             norm2, require_spd)

from conftest import random_spd


def test_cholesky_solve_oracle(rng):
    S = random_spd(rng, 9)
    b = rng.standard_normal(9)
    F = cholesky(S, "S")
    assert F.order == 9
    x = cholesky_solve(F, b)
    assert np.allclose(S @ x, b, atol=1e-10)


def test_cholesky_multiple_rhs(rng):
    S = random_spd(rng, 6)
    B = rng.standard_normal((6, 3))
    X = cholesky_solve(cholesky(S, "S"), B)
    assert np.allclose(S @ X, B, atol=1e-10)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite, match="^S is not positive definite$"):
        cholesky(np.diag([1.0, -1.0]), "S")


def test_cholesky_rejects_asymmetric():
    M = np.array([[2.0, 1.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="^S is not symmetric"):
        cholesky(M, "S")


def test_cholesky_solve_rhs_length():
    F = cholesky(np.eye(3), "S")
    with pytest.raises(ValueError):
        cholesky_solve(F, np.ones(4))


@pytest.mark.parametrize("k", [64, 256])
@pytest.mark.parametrize("symmetric", [True, False])
def test_norm2_reflection_symmetric_operator(k, symmetric):
    # tridiag(-1, 2, -1)'s top eigenvector is antisymmetric under the
    # reflection i -> k-1-i, so a uniform start vector never sees it
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(k, k), format="csr")
    exact = 2.0 - 2.0 * np.cos(k * np.pi / (k + 1))
    assert abs(norm2(T, symmetric=symmetric) - exact) <= 1e-10 * exact


@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
def test_require_spd_rejects_non_finite_entries(bad):
    # neither an inf diagonal passes as SPD nor NaN reads as "singular"
    with pytest.raises(ValueError, match="^X has non-finite entries$"):
        require_spd(sp.csc_matrix([[bad, 0.0], [0.0, 1.0]]), "X")
