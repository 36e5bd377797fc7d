"""Dense kernels: bd's S block (factored in place by ``precond.build_bd``)
and its X block, the apply's finiteness check on the right-hand side, the
sparse SPD check, and the ARPACK 2-norm."""

import numpy as np
import pytest
import scipy.sparse as sp

from saddlekit import precond
from saddlekit.dense import NotPositiveDefinite, norm2, require_spd
from saddlekit.precond import build_bd
from saddlekit.system import assemble


def test_cholesky_solve_oracle(small_system):
    A, B, C = (M.toarray() for M in (small_system.A, small_system.B,
                                      small_system.C))
    S = B @ np.linalg.solve(A, B.T)
    X = C @ np.linalg.solve(S, C.T)
    P = build_bd(small_system)
    F = P.s_factor.lower
    assert not np.triu(F, 1).any()
    assert np.allclose(F @ F.T, S, rtol=0, atol=1e-12 * np.abs(S).max())
    n, m = small_system.n, small_system.m
    b = np.zeros(small_system.size)
    b[n:n + m] = 1.0
    assert np.allclose(S @ P.apply(b)[n:n + m], 1.0, atol=1e-10)
    # X is never formed: its block of the apply solves with the
    # coefficient matrix's LU
    b[n:] = 0.0
    b[n + m:] = 1.0
    assert np.allclose(X @ P.apply(b)[n + m:], 1.0, atol=1e-10)


def test_cholesky_rejects_indefinite():
    # C's two equal rows leave X = C S^-1 C^T = [[1, 1], [1, 1]] (S = I)
    sysv = assemble(sp.eye(4), sp.eye(2, 4), sp.csr_matrix([[1.0, 0.0]] * 2))
    with pytest.raises(NotPositiveDefinite,
                       match=r"^X = C S\^-1 C\^T is not positive definite$"):
        build_bd(sysv)


def test_cholesky_solve_rhs_length(small_system):
    with pytest.raises(ValueError):
        build_bd(small_system).apply(np.ones(small_system.size + 1))


def test_cholesky_solve_rejects_non_finite_rhs(small_system):
    r = np.ones(small_system.size)
    r[small_system.n] = np.nan  # the first entry of S's block
    with pytest.raises(ValueError, match="^right-hand side has non-finite"):
        build_bd(small_system).apply(r)


def test_cholesky_factors_fortran_input_in_place(small_system, monkeypatch):
    made, schur = [], precond.schur
    monkeypatch.setattr(precond, "schur", lambda X, solve:
                        made.append(schur(X, solve)) or made[-1])
    P = build_bd(small_system)
    # potrf overwrote schur's Fortran-ordered S with its factor
    assert P.s_factor.lower is made[0] and made[0].flags.f_contiguous


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
