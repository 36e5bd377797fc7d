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

import numpy as np

from .dense import NotPositiveDefinite, cholesky
from .sparse import SparseMatrix

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


@dataclass(frozen=True)
class SaddlePointSystem:
    A: SparseMatrix
    B: SparseMatrix
    C: SparseMatrix
    n: int
    m: int
    p: int

    @property
    def size(self):
        return self.n + self.m + self.p

    def split(self, u):
        return BlockVector.from_array(u, self.n, self.m, self.p)


def assemble(A: SparseMatrix, B: SparseMatrix, C: SparseMatrix) -> SaddlePointSystem:
    """Record the blocks after shape and A-symmetry checks.

    SPD and row-rank verification is deferred to ``validate``.
    """
    n, m, p = A.nrows, B.nrows, C.nrows
    if A.ncols != n:
        raise ValueError("A must be square")
    if B.ncols != n:
        raise ValueError(f"B must have {n} columns, got {B.ncols}")
    if C.ncols != m:
        raise ValueError(f"C must have {m} columns, got {C.ncols}")
    At = A.transpose()
    scale = max(np.abs(A.values).max(initial=0.0), 1e-300)
    diff = A.to_scipy() - At.to_scipy()
    if diff.nnz and np.abs(diff.data).max() > 1e-12 * scale:
        raise ValueError("A is not symmetric within 1e-12 relative")
    return SaddlePointSystem(A=A, B=B, C=C, n=n, m=m, p=p)


def operator_apply(sys: SaddlePointSystem, u):
    """Apply the block operator; accepts a BlockVector or a flat array."""
    as_block = isinstance(u, BlockVector)
    vec = u.to_array() if as_block else np.asarray(u, dtype=np.float64)
    b = BlockVector.from_array(vec, sys.n, sys.m, sys.p)
    rx = sys.A.matvec(b.x) + sys.B.matvec_transpose(b.y)
    ry = -sys.B.matvec(b.x) - sys.C.matvec_transpose(b.z)
    rz = sys.C.matvec(b.y)
    out = BlockVector(rx, ry, rz)
    return out if as_block else out.to_array()


def rhs_for_ones(sys: SaddlePointSystem) -> BlockVector:
    """Right-hand side whose exact solution is the all-ones vector."""
    return operator_apply(sys, BlockVector(np.ones(sys.n), np.ones(sys.m), np.ones(sys.p)))


def to_dense(sys: SaddlePointSystem):
    if sys.size > DENSIFY_LIMIT:
        raise ValueError(f"system size {sys.size} exceeds densification guard {DENSIFY_LIMIT}")
    A = sys.A.to_dense()
    B = sys.B.to_dense()
    C = sys.C.to_dense()
    n, m, p = sys.n, sys.m, sys.p
    M = np.zeros((sys.size, sys.size))
    M[:n, :n] = A
    M[:n, n : n + m] = B.T
    M[n : n + m, :n] = -B
    M[n : n + m, n + m :] = -C.T
    M[n + m :, n : n + m] = C
    return M


@dataclass(frozen=True)
class ValidationReport:
    spd_ok: bool
    b_full_rank: bool
    c_full_rank: bool
    messages: tuple

    @property
    def nonsingular(self):
        # SPD leading block plus full-row-rank couplings imply a unique solution.
        return self.spd_ok and self.b_full_rank and self.c_full_rank

    @property
    def ok(self):
        return self.nonsingular


def validate(sys: SaddlePointSystem, level="shape") -> ValidationReport:
    """Check SPD of A and full row rank of B, C (level "full") or shapes only."""
    if level not in ("shape", "full"):
        raise ValueError("level must be 'shape' or 'full'")
    if level == "shape":
        return ValidationReport(True, True, True, ("shape-level checks only",))
    if sys.size > DENSIFY_LIMIT:
        raise ValueError("full validation is limited to desk-scale systems")
    msgs = []
    try:
        cholesky(sys.A.to_dense())
        spd_ok = True
    except NotPositiveDefinite as exc:
        spd_ok = False
        msgs.append(f"A failed Cholesky: {exc}")

    def full_row_rank(M):
        # numerical rank from singular values, tolerance max(shape)*eps*sigma_max
        return bool(np.linalg.matrix_rank(M.to_dense()) == M.nrows)

    b_ok = full_row_rank(sys.B)
    if not b_ok:
        msgs.append("B is rank deficient")
    c_ok = full_row_rank(sys.C)
    if not c_ok:
        msgs.append("C is rank deficient")
    return ValidationReport(spd_ok, b_ok, c_ok, tuple(msgs))
