"""Typed errors and the kernels that carry them.

``require_spd`` is the one symmetry and SPD test of an operand: a sparse
L D L^T sign test that returns the factor; ``sparse_lu`` is every other
SuperLU factor, failing as ``Singular``.  ``CholeskyFactor`` holds the
dense lower factor of bd's S; ``norm2`` turns an ARPACK failure into
``ConvergenceFailure``.  Everything else, bd's dense Cholesky included,
calls numpy/scipy directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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


def sparse_lu(M, what, permc_spec="COLAMD"):
    """SuperLU factor of the sparse M, or ``Singular`` naming ``what``.  The
    caller chooses the column ordering; the default is scipy's own."""
    try:
        return splu(M, permc_spec=permc_spec)
    except RuntimeError as exc:
        raise Singular(f"{what} is singular: {exc}") from exc


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower Cholesky factor L with S = L L^T, as ``precond.build_bd`` keeps
    it for S = B A^{-1} B^T, its one dense block."""

    lower: np.ndarray


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
