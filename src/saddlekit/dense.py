"""Typed errors and the kernels that carry them.

``require_spd`` is the one symmetry and SPD test of an operand: a sparse
L D L^T sign test that returns the factor.  ``cholesky`` is the dense
factor of the two dense Schur blocks of the exact block-diagonal baseline
(bd), S = B A^{-1} B^T and X = C S^{-1} C^T, checked tile by tile and
made in place; ``norm2`` turns an ARPACK failure into ``ConvergenceFailure``.
Everything else calls numpy/scipy directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import splu


class NotPositiveDefinite(Exception):
    """Raised when a Cholesky pivot fails: the matrix is not SPD."""


class Singular(Exception):
    """Raised on an exactly (or numerically) singular solve."""


class ConvergenceFailure(Exception):
    """Raised when an iterative eigensolve does not converge."""


def require_spd(M, what):
    """Return the SuperLU factor of M after checking that its entries are
    finite and it is symmetric (ValueError) and positive definite
    (NotPositiveDefinite).

    M (dense or sparse) is factored as L D L^T by symmetric-mode SuperLU:
    same row and column order, no off-diagonal pivoting.  It is SPD iff
    that order held and every pivot of D is positive.
    """
    M = sp.csc_matrix(M, dtype=np.float64)
    if not np.all(np.isfinite(M.data)):
        raise ValueError(f"{what} has non-finite entries")
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


TILE = 64  # a tile pair of the dense symmetry checks is two 32 KB blocks


def tile_pairs(order):
    """(I, J) slices of the TILE x TILE tiles on and below the diagonal."""
    cuts = [slice(i, i + TILE) for i in range(0, order, TILE)]
    return [(I, J) for k, I in enumerate(cuts) for J in cuts[:k + 1]]


def _finite_max_abs(M, what):
    """Largest |entry| of the dense M; ValueError naming ``what`` if one is
    not finite (min and max propagate NaN and inf, with no temporary)."""
    hi, lo = M.max(initial=0.0), M.min(initial=0.0)
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ValueError(f"{what} has non-finite entries")
    return max(hi, -lo)


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower Cholesky factor L with S = L L^T; its entries are checked for
    finiteness here, once, so that solves need not scan it again."""

    lower: np.ndarray

    def __post_init__(self):
        _finite_max_abs(self.lower, "Cholesky factor")

    @property
    def order(self):
        return self.lower.shape[0]


def cholesky(S, what) -> CholeskyFactor:
    """Dense Cholesky factor of S after checking that it is square, finite
    and symmetric (ValueError) and positive definite (NotPositiveDefinite),
    each error naming ``what``.  potrf factors in place: a Fortran-ordered
    float64 S (as ``precond.schur`` returns) is overwritten, any other S is
    copied first and left as it was."""
    S = np.asarray(S, dtype=np.float64, order="F")
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"{what} must be square")
    scale = max(_finite_max_abs(S, what), 1e-300)
    for I, J in tile_pairs(S.shape[0]):
        if np.abs(S[I, J] - S[J, I].T).max() > 1e-12 * scale:
            raise ValueError(f"{what} is not symmetric within 1e-12 relative")
    L, info = sla.lapack.dpotrf(S, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise NotPositiveDefinite(f"{what} is not positive definite")
    return CholeskyFactor(lower=L)


def cholesky_solve(F: CholeskyFactor, rhs):
    """S^{-1} rhs for a vector or multi-column rhs; ValueError on a
    non-finite rhs (the factor was checked when it was made)."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != F.order:
        raise ValueError("right-hand side length does not match factor order")
    _finite_max_abs(rhs, "right-hand side")
    y = sla.solve_triangular(F.lower, rhs, lower=True, check_finite=False)
    return sla.solve_triangular(F.lower.T, y, lower=False, check_finite=False)


def norm2(op, symmetric=False) -> float:
    """2-norm of a matrix or LinearOperator from ARPACK: the largest
    eigenvalue magnitude when ``symmetric``, else the largest singular
    value.  The start vector is seeded random, so results are bit-stable
    (a uniform one misses antisymmetric eigenvectors of symmetric grids)."""
    k = min(op.shape)
    v0 = np.random.default_rng(0).standard_normal(k)
    try:
        if symmetric:
            val = spla.eigsh(op, k=1, v0=v0, return_eigenvectors=False)[0]
        else:
            val = spla.svds(op, k=1, v0=v0, return_singular_vectors=False)[0]
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceFailure(f"ARPACK did not converge: {exc}") from exc
    return abs(float(val))
