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

from .dense import NotPositiveDefinite, require_spd

DENSIFY_LIMIT = 5000


@dataclass(frozen=True)
class BlockVector:
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    @classmethod
    def from_array(cls, u, n, m, p):
        u = np.asarray(u, dtype=np.float64)
        if u.shape[0] != n + m + p:
            raise ValueError("block vector length mismatch")
        return cls(u[:n], u[n : n + m], u[n + m :])

    def to_array(self):
        return np.concatenate([self.x, self.y, self.z])

    def __len__(self):
        return self.x.shape[0] + self.y.shape[0] + self.z.shape[0]


@dataclass(frozen=True, eq=False)
class SaddlePointSystem:
    """Blocks A, B, C as canonical float64 CSR matrices (see ``assemble``)."""

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

    def split(self, u):
        return BlockVector.from_array(u, self.n, self.m, self.p)


def _canonical(M) -> sp.csr_matrix:
    """A float64 CSR copy with duplicates summed, indices sorted and
    explicit zeros dropped."""
    M = sp.csr_matrix(M, dtype=np.float64, copy=True)
    M.sum_duplicates()
    M.sort_indices()
    M.eliminate_zeros()
    return M


def assemble(A, B, C) -> SaddlePointSystem:
    """Record canonical CSR copies of the blocks after shape and
    A-symmetry checks.

    SPD and row-rank verification is deferred to ``validate``.
    """
    A, B, C = _canonical(A), _canonical(B), _canonical(C)
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


def rhs_for_ones(sys: SaddlePointSystem) -> BlockVector:
    """Right-hand side whose exact solution is the all-ones vector."""
    return sys.split(sys.matrix @ np.ones(sys.size))


def to_dense(sys: SaddlePointSystem):
    if sys.size > DENSIFY_LIMIT:
        raise ValueError(f"system size {sys.size} exceeds densification guard {DENSIFY_LIMIT}")
    return sys.matrix.toarray()


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
    if sys.size > DENSIFY_LIMIT:
        raise ValueError("full validation is limited to desk-scale systems")
    msgs = []
    try:
        require_spd(sys.A, "A")
        spd_ok = True
    except NotPositiveDefinite as exc:
        spd_ok = False
        msgs.append(str(exc))

    def full_row_rank(M):
        # numerical rank from singular values, tolerance max(shape)*eps*sigma_max
        return bool(np.linalg.matrix_rank(M.toarray()) == M.shape[0])

    b_ok = full_row_rank(sys.B)
    if not b_ok:
        msgs.append("B is rank deficient")
    c_ok = full_row_rank(sys.C)
    if not c_ok:
        msgs.append("C is rank deficient")
    return ValidationReport(spd_ok, b_ok, c_ok, tuple(msgs))
