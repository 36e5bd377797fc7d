"""Generalized shift-splitting preconditioners for the block saddle system.

One parameterized form covers the whole family:

    P = Sigma + s*Amat = [ L1 + s*A   s*B^T    0    ]
                         [  -s*B       L2    -s*C^T ]
                         [   0        s*C      L3   ]

with Sigma = blockdiag(L1, L2, L3) of SPD shifts (L1 optionally absent), the
coefficient matrix Amat and a scalar s > 0.  The named variants are
parameter choices of this form; global scalar prefactors are folded into
the shifts, which leaves right-preconditioned GMRES iterates unchanged.

P is sparse for every variant: ``build`` assembles it once and takes one
sparse LU of P; each apply is two sparse triangular solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dense import (CholeskyFactor, NotPositiveDefinite, Singular, require_spd,
                    sparse_lu)
from .system import SaddlePointSystem


# -- shift operands ---------------------------------------------------
# A shift may be given as None (absent), a positive scalar (multiple of the
# identity), a 1-d array (diagonal), any scipy sparse matrix, or a dense
# 2-d array.  GssConfig stores it as None, a float c meaning c*I, or a CSC
# matrix (a diagonal as sp.diags).


def stored_shift(op, name):
    """The stored form of a shift operand: None, a float or a CSC matrix.
    Rejects non-finite entries in every form and a non-positive scalar or
    diagonal, naming the shift."""
    if op is None:
        return None
    if sp.issparse(op) or np.ndim(op) == 2:
        op = sp.csc_matrix(op, dtype=np.float64)
        if not np.all(np.isfinite(op.data)):
            raise ValueError(f"{name} has non-finite entries")
        return op
    d = np.asarray(op, dtype=np.float64)
    if not np.all((d > 0) & np.isfinite(d)):
        raise ValueError(f"{name} must be positive and finite")
    return float(d) if d.ndim == 0 else sp.diags(d, format="csc")


def operand_sparse(op, dim):
    """A stored shift as a dim x dim scipy CSC block (zero when absent)."""
    if op is None:
        return sp.csc_matrix((dim, dim))
    if isinstance(op, float):
        return op * sp.identity(dim, format="csc")
    if op.shape != (dim, dim):
        raise ValueError("shift operand dimension mismatch")
    return op


@dataclass(frozen=True)
class GssConfig:
    """Shift-splitting parameter set (L1, L2, L3, s), each shift in its
    stored form (see ``stored_shift``).

    ``lambda1 is None`` encodes the relaxed variants that drop the (1,1)
    shift entirely.
    """

    lambda1: object
    lambda2: object
    lambda3: object
    s: float

    def __post_init__(self):
        if not (self.s > 0 and np.isfinite(self.s)):
            raise ValueError(f"s must be positive and finite, got {self.s}")
        if self.lambda2 is None or self.lambda3 is None:
            raise ValueError("lambda2 and lambda3 must be SPD")
        for name in ("lambda1", "lambda2", "lambda3"):
            object.__setattr__(self, name,
                               stored_shift(getattr(self, name), name))

    @property
    def is_pess(self):
        return self.lambda1 is not None


# The half-shift baselines P = s*(D + A), D = blockdiag(coef_k * operand_k),
# are P = Sigma + s*A with shift k = s * coef_k * operand_k.  Entry, kind:
# (coefficient name of L1, L2, L3, or None when absent; s; whether the kind
# reads the operands P, Q, W, each 1.0 unless given).
HALF_SHIFTS = {
    "ss": (("alpha", "alpha", "alpha"), 0.5, False),
    "rss": ((None, "alpha", "alpha"), 0.5, False),
    "egss": (("alpha", "beta", "gamma"), 0.5, True),
    "rpgss": ((None, "beta", "gamma"), 1.0, True),
}
KINDS = ("pess", "lpess", *HALF_SHIFTS)


def make_config(kind, **params) -> GssConfig:
    """Build the parameter set for a named variant.

    pess:  lambda1, lambda2, lambda3, s
    lpess: lambda2, lambda3, s                    (no lambda1)
    ss, rss, egss, rpgss: their coefficients in ``HALF_SHIFTS``; egss and
    rpgss also take the operands P, Q, W (default 1.0)
    """
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"unknown preconditioner kind {kind!r}")
    if kind in ("pess", "lpess"):
        return GssConfig(params["lambda1"] if kind == "pess" else None,
                         params["lambda2"], params["lambda3"],
                         s=float(params["s"]))
    coefs, s, reads_operands = HALF_SHIFTS[kind]
    values = {}
    for name in filter(None, coefs):
        values[name] = float(params[name])
        if not (values[name] > 0 and np.isfinite(values[name])):
            raise ValueError(f"{name} must be positive and finite")
    operands = ([params.get(k, 1.0) for k in ("P", "Q", "W")]
                if reads_operands else [1.0] * 3)
    return GssConfig(*(None if c is None else s * values[c] * op
                       for c, op in zip(coefs, operands)), s=s)


# -- build and apply ---------------------------------------------------


def gss_matrix(sys: SaddlePointSystem, cfg: GssConfig) -> sp.csc_matrix:
    """P = Sigma + s * Amat as one sparse CSC matrix."""
    return (sigma_matrix(sys, cfg) + cfg.s * sys.matrix).tocsc()


def sigma_matrix(sys: SaddlePointSystem, cfg: GssConfig) -> sp.csc_matrix:
    """Sigma = blockdiag(L1, L2, L3), with a zero block for an absent L1."""
    return sp.block_diag([operand_sparse(cfg.lambda1, sys.n),
                          operand_sparse(cfg.lambda2, sys.m),
                          operand_sparse(cfg.lambda3, sys.p)], format="csc")


@dataclass(frozen=True)
class GssPreconditioner:
    matrix: sp.csc_matrix
    lu: object  # scipy.sparse.linalg.SuperLU of ``matrix``
    build_seconds: float  # wall time of ``build``

    def apply(self, r):
        """Solve P w = r for a flat array r (optionally multi-column)."""
        return self.lu.solve(np.asarray(r, dtype=np.float64))

    __call__ = apply

    @property
    def factor_nnz(self):
        """Entries SuperLU stores for the LU factors (``lu.nnz``)."""
        return self.lu.nnz


def build(sys: SaddlePointSystem, cfg: GssConfig) -> GssPreconditioner:
    """Assemble the shift-splitting preconditioner and factor it once."""
    t0 = perf_counter()
    require_spd(operand_sparse(cfg.lambda3, sys.p), "lambda3")
    P = gss_matrix(sys, cfg)
    return GssPreconditioner(matrix=P, lu=sparse_lu(P, "preconditioner"),
                             build_seconds=perf_counter() - t0)


# -- exact block diagonal baseline -------------------------------------


# Columns per solve, one width per caller.  Median ms of 5 runs and traced
# transient MB beyond the result, widths 8/16/32/64 (2-core host, 1 BLAS
# thread): schur(B, A^{-1}) 55.6/64.7/62.1/65.3 ms and 0.53/1.06/2.10/4.20 MB
# at l=32, 329/356/364/384 ms and 1.18/2.36/4.72/9.44 MB at l=48; pess-II's
# P^{-1} A columns (3 runs) 105/60.1/51.2/49.9 ms and 0.27/0.47/0.86/1.65 MB
# at l=16, 350/337/314/308 ms and 0.61/1.05/1.93/3.70 MB at l=24.  Each
# caller takes its fastest width; schur's is also its smallest.
SCHUR_COLUMNS = 8
BLOCK_COLUMNS = 64


def solve_columns(solve, X, width) -> np.ndarray:
    """solve(R) for R = each block of ``width`` columns of the sparse X,
    densified one block at a time and written into one Fortran-order array
    with X's column count; ``solve`` maps a dense block to a dense block of
    fixed row count."""
    X = X.tocsc()
    out = None
    for j in range(0, X.shape[1], width):
        W = solve(X[:, j:j + width].toarray(order="F"))
        if out is None:
            out = np.empty((W.shape[0], X.shape[1]), order="F")
        out[:, j:j + width] = W
    return out


def schur(X, solve) -> np.ndarray:
    """X T^{-1} X^T for a sparse X and ``solve``(R) = T^{-1} R, dense and
    Fortran-ordered: ``solve_columns`` forms X T^{-1} R for each block R of
    ``SCHUR_COLUMNS`` columns of X^T, so T^{-1} X^T is never held whole.
    Symmetric to rounding only: its readers, potrf and ``eigh``, read the
    lower triangle."""
    return solve_columns(lambda R: X @ solve(R), X.T, SCHUR_COLUMNS)


@dataclass(frozen=True)
class BdPreconditioner:
    """diag(A, S, X), S = B A^{-1} B^T, X = C S^{-1} C^T: A by ``sys.a_lu``,
    S by its dense Cholesky factor, checked once when made, and X, never
    formed, by ``sys.matrix_lu``: X^{-1} r3 is block 3 of Amat^{-1} [0; 0;
    r3], as the block L D L^T of diag(I, -I, I) Amat has the pivots A, -S
    and X (Benzi, Golub & Liesen, Acta Numerica 2005)."""

    sys: SaddlePointSystem
    s_factor: CholeskyFactor
    build_seconds: float  # wall time of ``build_bd``

    def apply(self, r):
        """Solve P w = r blockwise for a flat array r (optionally
        multi-column); ValueError on a non-finite r."""
        n, m = self.sys.n, self.sys.m
        ra, rs, rx = np.split(np.asarray(r, dtype=np.float64), [n, n + m])
        if not np.isfinite(r).all():
            raise ValueError("right-hand side has non-finite entries")
        rhs = np.zeros(np.shape(r), order="F")  # [0; 0; rx]
        rhs[n + m:] = rx
        wa, L = self.sys.a_lu.solve(ra), self.s_factor.lower
        y = sla.solve_triangular(L, rs, lower=True, check_finite=False)
        ws = sla.solve_triangular(L.T, y, lower=False, check_finite=False)
        return np.concatenate([wa, ws, self.sys.matrix_lu.solve(rhs)[n + m:]])

    __call__ = apply

    @property
    def factor_nnz(self):
        """Factor entries: those SuperLU stores for A and for Amat
        (``nnz``) plus the lower triangle of S's factor."""
        m = self.sys.m
        return self.sys.a_lu.nnz + self.sys.matrix_lu.nnz + m * (m + 1) // 2


def build_bd(sys: SaddlePointSystem) -> BdPreconditioner:
    """Exact block diagonal baseline diag(A, S, X), S = B A^{-1} B^T and
    X = C S^{-1} C^T.  A's sparse factor checks it is SPD; S = ``schur(B,
    A's solve)`` is factored in place by scipy's Cholesky, so the one dense
    array held is S's, never A, B, C or X.  With A SPD and S factored,
    det Amat = det A det S det X and X is semidefinite, so a singular Amat
    means X is not positive definite."""
    t0 = perf_counter()
    what = "S = B A^-1 B^T"
    try:
        s_factor = CholeskyFactor(sla.cholesky(
            schur(sys.B, sys.a_lu.solve), lower=True, overwrite_a=True))
        what = "X = C S^-1 C^T"
        sys.matrix_lu  # made now, so that a singular Amat fails the build
    except (sla.LinAlgError, Singular) as exc:
        raise NotPositiveDefinite(f"{what} is not positive definite") from exc
    return BdPreconditioner(sys, s_factor, perf_counter() - t0)


# -- splitting identity -------------------------------------------------


def splitting_residual(sys: SaddlePointSystem, cfg: GssConfig) -> float:
    """Frobenius norm of (P - Q) - Amat for the splitting complement
    Q = Sigma - (1-s) Amat, formed explicitly."""
    Amat = sys.matrix
    Q = sigma_matrix(sys, cfg) - (1.0 - cfg.s) * Amat
    return float(spla.norm((gss_matrix(sys, cfg) - Q) - Amat, "fro"))
