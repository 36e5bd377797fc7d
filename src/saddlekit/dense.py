"""Typed errors and the dense kernels that carry them.

Dense matrices are plain float64 numpy arrays (row-major).  Cholesky
doubles as the symmetry and SPD test, ``eig_general`` turns a LAPACK
eigensolver failure into ``ConvergenceFailure``, and ``cond2`` rejects a
singular matrix.  Everything else calls numpy/scipy directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla


class NotPositiveDefinite(Exception):
    """Raised when a Cholesky pivot fails: the matrix is not SPD."""


class Singular(Exception):
    """Raised on an exactly (or numerically) singular solve."""


class ConvergenceFailure(Exception):
    """Raised when an iterative eigensolve does not converge."""


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
