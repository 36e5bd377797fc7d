"""Dense kernels: the Cholesky SPD test and solves with their finiteness
checks, the sparse SPD check, and the ARPACK 2-norm."""

import numpy as np
import pytest
import scipy.sparse as sp

from saddlekit.dense import (CholeskyFactor, NotPositiveDefinite, cholesky,
                             cholesky_solve, norm2, require_spd)

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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cholesky_rejects_non_finite_entries(bad):
    # NaN passes LAPACK's pivot test, so it must not read as "not SPD"
    with pytest.raises(ValueError, match="^S has non-finite entries$"):
        cholesky(np.array([[bad]]), "S")


def test_cholesky_solve_rejects_non_finite_rhs():
    F = cholesky(np.eye(3), "S")
    with pytest.raises(ValueError, match="^right-hand side has non-finite"):
        cholesky_solve(F, np.array([1.0, np.nan, 0.0]))


def test_cholesky_factor_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="^Cholesky factor has non-finite"):
        CholeskyFactor(np.array([[1.0, 0.0], [np.inf, 1.0]]))


def test_cholesky_symmetry_checked_across_tiles(rng):
    # the only asymmetric pair lies in tiles off the diagonal (TILE = 64)
    S = random_spd(rng, 130)
    S[129, 3] += 1e-9 * np.abs(S).max()
    with pytest.raises(ValueError, match="^S is not symmetric"):
        cholesky(S, "S")


def test_cholesky_factors_fortran_input_in_place(rng):
    S = random_spd(rng, 70)
    kept = S.copy()
    F = cholesky(S, "S")  # C-ordered: copied, left as it was
    assert np.array_equal(S, kept)
    SF = np.asfortranarray(S)
    G = cholesky(SF, "S")  # Fortran-ordered: overwritten by its factor
    assert G.lower is SF and np.array_equal(G.lower, F.lower)
    assert np.allclose(F.lower @ F.lower.T, S, rtol=0, atol=1e-12 * S.max())
    assert not np.triu(F.lower, 1).any()


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
