"""Three-by-three block saddle point systems.

The coefficient matrix is

    [ A   B^T   0  ]
    [-B    0  -C^T ]
    [ 0    C    0  ]

with A (n x n) SPD and B (m x n), C (p x m) of full row rank; under these
assumptions the system has a unique solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .dense import NotPositiveDefinite, require_spd, sparse_lu

DENSIFY_LIMIT = 5000


@dataclass(frozen=True)
class BlockVector:
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def to_array(self):
        return np.concatenate([self.x, self.y, self.z])


@dataclass(frozen=True, eq=False)
class SaddlePointSystem:
    """Blocks A, B, C as canonical float64 CSR matrices (see ``assemble``).
    ``matrix`` and the two factors are made when first read and kept as
    long as the system."""

    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[0]

    @property
    def p(self):
        return self.C.shape[0]

    @property
    def size(self):
        return self.n + self.m + self.p

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The coefficient matrix, assembled once as CSR."""
        # one COO assembly of the five blocks; sp.bmat gives the same matrix
        # at about three times the cost in per-block conversions
        A, B, C = self.A.tocoo(), self.B.tocoo(), self.C.tocoo()
        n, m = self.n, self.m
        rows = np.concatenate([A.row, B.col, n + B.row, n + C.col, n + m + C.row])
        cols = np.concatenate([A.col, n + B.row, B.col, n + m + C.row, n + C.col])
        vals = np.concatenate([A.data, B.data, -B.data, -C.data, C.data])
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.size, self.size))

    @cached_property
    def a_lu(self):
        """A's L D L^T factor from ``require_spd``, its SPD check."""
        return require_spd(self.A, "A")

    @cached_property
    def matrix_lu(self):
        """Sparse LU of the coefficient matrix; ``Singular`` if singular.
        With C square a minimum-degree order on Amat + Amat^T stores 2-4x
        fewer entries than scipy's COLAMD (128,811 against 347,988 for
        ``example1(32)``); with p < m it can store several times more (6.4x
        with every other row of that C), so COLAMD stays."""
        order = "MMD_AT_PLUS_A" if self.p == self.m else "COLAMD"
        return sparse_lu(self.matrix.tocsc(), "coefficient matrix", order)


def _canonical(M) -> sp.csr_matrix:
    """A float64 CSR copy with duplicates summed, indices sorted and
    explicit zeros dropped."""
    M = sp.csr_matrix(M, dtype=np.float64, copy=True)
    M.sum_duplicates()
    M.sort_indices()
    M.eliminate_zeros()
    return M


def assemble(A, B, C) -> SaddlePointSystem:
    """Record canonical CSR copies of the blocks after emptiness, finiteness,
    shape and A-symmetry checks.

    SPD and row-rank verification is deferred to ``validate``.
    """
    A, B, C = _canonical(A), _canonical(B), _canonical(C)
    for name, M in zip("ABC", (A, B, C)):
        if 0 in M.shape:
            raise ValueError(f"{name} is empty (shape {M.shape})")
        if not np.all(np.isfinite(M.data)):
            raise ValueError(f"{name} has non-finite entries")
    n, m = A.shape[0], B.shape[0]
    if A.shape[1] != n:
        raise ValueError("A must be square")
    if B.shape[1] != n:
        raise ValueError(f"B must have {n} columns, got {B.shape[1]}")
    if C.shape[1] != m:
        raise ValueError(f"C must have {m} columns, got {C.shape[1]}")
    scale = max(np.abs(A.data).max(initial=0.0), 1e-300)
    diff = A - A.T
    if diff.nnz and np.abs(diff.data).max() > 1e-12 * scale:
        raise ValueError("A is not symmetric within 1e-12 relative")
    return SaddlePointSystem(A=A, B=B, C=C)


def operator_apply(sys: SaddlePointSystem, u):
    """Apply the block operator to a flat array (optionally multi-column)."""
    return sys.matrix @ np.asarray(u, dtype=np.float64)


def _check_tol_maxit(tol, maxit):
    """ValueError unless tol is positive and finite and maxit at least 1."""
    if not (tol > 0 and np.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if maxit < 1:
        raise ValueError(f"maxit must be at least 1, got {maxit}")


def _flat(name, vec, N):
    """``vec`` as a float64 array of length N with finite entries."""
    vec = (vec.to_array() if isinstance(vec, BlockVector)
           else np.asarray(vec, dtype=np.float64))
    if vec.shape != (N,):
        raise ValueError(f"{name} length does not match system size")
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} has non-finite entries")
    return vec


def rhs_for_ones(sys: SaddlePointSystem) -> BlockVector:
    """Right-hand side whose exact solution is the all-ones vector."""
    d = sys.matrix @ np.ones(sys.size)
    return BlockVector(*np.split(d, [sys.n, sys.n + sys.m]))


def require_densifiable(sys: SaddlePointSystem, order=None):
    """Raise ValueError when a dense order x order array built from the
    system (N x N by default) would exceed ``DENSIFY_LIMIT``."""
    order = sys.size if order is None else order
    if order > DENSIFY_LIMIT:
        what = "system size" if order == sys.size else "dense block order"
        raise ValueError(f"{what} {order} exceeds densification guard {DENSIFY_LIMIT}")


@dataclass(frozen=True)
class ValidationReport:
    spd_ok: bool
    b_full_rank: bool
    c_full_rank: bool
    messages: tuple

    @property
    def ok(self):
        # SPD leading block plus full-row-rank couplings imply a unique solution.
        return self.spd_ok and self.b_full_rank and self.c_full_rank


def validate(sys: SaddlePointSystem) -> ValidationReport:
    """Check SPD of A and full row rank of B and C."""
    require_densifiable(sys)
    try:
        spd_ok, msgs = sys.a_lu is not None, []
    except NotPositiveDefinite as exc:
        spd_ok, msgs = False, [str(exc)]

    # numerical rank from singular values, tolerance max(shape)*eps*sigma_max
    ranks = {name: bool(np.linalg.matrix_rank(M.toarray()) == M.shape[0])
             for name, M in (("B", sys.B), ("C", sys.C))}
    msgs += [f"{k} is rank deficient" for k, ok in ranks.items() if not ok]
    return ValidationReport(spd_ok, ranks["B"], ranks["C"], tuple(msgs))
