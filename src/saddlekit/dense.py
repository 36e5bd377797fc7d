"""Typed errors and the kernels that carry them.

``require_spd`` is the one symmetry and SPD test of an operand: a sparse
L D L^T sign test that returns the factor.  ``cholesky`` is the dense
factor of the exact block-diagonal baseline and the scaled operator,
``eig_general`` turns a LAPACK eigensolver failure into
``ConvergenceFailure``, and ``cond2`` rejects a singular matrix.
Everything else calls numpy/scipy directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu


class NotPositiveDefinite(Exception):
    """Raised when a Cholesky pivot fails: the matrix is not SPD."""


class Singular(Exception):
    """Raised on an exactly (or numerically) singular solve."""


class ConvergenceFailure(Exception):
    """Raised when an iterative eigensolve does not converge."""


def require_spd(M, what):
    """Return the SuperLU factor of M after checking that it is symmetric
    (ValueError) and positive definite (NotPositiveDefinite).

    M (dense or sparse) is factored as L D L^T by symmetric-mode SuperLU:
    same row and column order, no off-diagonal pivoting.  It is SPD iff
    that order held and every pivot of D is positive.
    """
    M = sp.csc_matrix(M, dtype=np.float64)
    scale = max(abs(M).max(), 1e-300)
    if abs(M - M.T).max() > 1e-12 * scale:
        raise ValueError(f"{what} is not symmetric within 1e-12 relative")
    try:
        lu = splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise NotPositiveDefinite(f"{what} is singular: {exc}") from exc
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0)):
        raise NotPositiveDefinite(f"{what} is not positive definite")
    return lu


def _require_symmetric(S, tol=1e-12):
    S = np.ascontiguousarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(np.abs(S).max(initial=0.0), 1e-300)
    if np.abs(S - S.T).max(initial=0.0) > tol * scale:
        raise ValueError(f"matrix is not symmetric within {tol} relative")
    return S


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower Cholesky factor L with S = L L^T."""

    lower: np.ndarray

    @property
    def order(self):
        return self.lower.shape[0]


def cholesky(S) -> CholeskyFactor:
    S = _require_symmetric(S)
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    return CholeskyFactor(lower=L)


def cholesky_solve(F: CholeskyFactor, rhs):
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != F.order:
        raise ValueError("right-hand side length does not match factor order")
    y = sla.solve_triangular(F.lower, rhs, lower=True)
    return sla.solve_triangular(F.lower.T, y, lower=False)


def eig_general(M) -> np.ndarray:
    """Unordered complex spectrum of a general real square matrix
    (Hessenberg + QR)."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    try:
        lam = sla.eigvals(M)
    except sla.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceFailure(str(exc)) from exc
    return np.asarray(lam, dtype=np.complex128)


def cond2(M) -> float:
    """Spectral condition number via the extreme eigenvalues of M^T M."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    w = np.linalg.eigvalsh(M.T @ M)
    lam_min, lam_max = float(w[0]), float(w[-1])
    if lam_min <= 1e-300 * max(lam_max, 1.0):
        raise Singular("matrix is numerically singular")
    return float(np.sqrt(lam_max / lam_min))
