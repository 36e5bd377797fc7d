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

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import splu

from .dense import (CholeskyFactor, Singular, cholesky, cholesky_solve,
                    require_spd)
from .system import SaddlePointSystem

KINDS = ("pess", "lpess", "ss", "rss", "egss", "rpgss")


# -- shift operands ---------------------------------------------------
# A shift may be given as None (absent), a positive scalar (multiple of the
# identity), a 1-d array (diagonal), any scipy sparse matrix, or a dense
# 2-d array.


def operand_sparse(op, dim):
    """The shift operand as a dim x dim scipy CSC block (zero when absent)."""
    if op is None:
        return sp.csc_matrix((dim, dim))
    if np.isscalar(op):
        return float(op) * sp.identity(dim, format="csc")
    if not sp.issparse(op):
        op = np.asarray(op, dtype=np.float64)
        if op.ndim == 1:
            if op.shape[0] != dim:
                raise ValueError("diagonal shift operand dimension mismatch")
            return sp.diags(op, format="csc")
    if op.shape != (dim, dim):
        raise ValueError("shift operand dimension mismatch")
    return sp.csc_matrix(op, dtype=np.float64)


def _is_diagonal(op):
    return np.isscalar(op) or np.ndim(op) == 1


@dataclass(frozen=True)
class GssConfig:
    """Shift-splitting parameter set (L1, L2, L3, s).

    ``lambda1 is None`` encodes the relaxed variants that drop the (1,1)
    shift entirely.
    """

    lambda1: object
    lambda2: object
    lambda3: object
    s: float

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("s must be positive")
        if self.lambda2 is None or self.lambda3 is None:
            raise ValueError("lambda2 and lambda3 must be SPD")
        for name in ("lambda1", "lambda2", "lambda3"):
            op = getattr(self, name)
            if _is_diagonal(op) and np.any(np.asarray(op) <= 0):
                raise ValueError(f"{name} must be positive")

    @property
    def is_pess(self):
        return self.lambda1 is not None


def make_config(kind, sys: SaddlePointSystem = None, **params) -> GssConfig:
    """Build the parameter set for a named variant.

    pess:  lambda1, lambda2, lambda3, s
    lpess: lambda2, lambda3, s                    (no lambda1)
    ss:    alpha, s_half prefactors folded        ((a/2)I shifts, s = 1/2)
    rss:   alpha                                  (no lambda1)
    egss:  alpha, beta, gamma, P, Q, W            ((a/2)P, (b/2)Q, (g/2)W)
    rpgss: beta, gamma, Q, W                      (no lambda1, s = 1)
    """
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"unknown preconditioner kind {kind!r}")
    if kind == "pess":
        return GssConfig(params["lambda1"], params["lambda2"], params["lambda3"],
                         s=float(params["s"]))
    if kind == "lpess":
        return GssConfig(None, params["lambda2"], params["lambda3"],
                         s=float(params["s"]))
    if kind == "ss":
        a = float(params["alpha"])
        if a <= 0:
            raise ValueError("alpha must be positive")
        return GssConfig(a / 2, a / 2, a / 2, s=0.5)
    if kind == "rss":
        a = float(params["alpha"])
        if a <= 0:
            raise ValueError("alpha must be positive")
        return GssConfig(None, a / 2, a / 2, s=0.5)
    if kind == "egss":
        a, b, g = (float(params[k]) for k in ("alpha", "beta", "gamma"))
        if min(a, b, g) <= 0:
            raise ValueError("alpha, beta, gamma must be positive")
        P = params.get("P", 1.0)
        Q = params.get("Q", 1.0)
        W = params.get("W", 1.0)
        return GssConfig(_scaled(a / 2, P), _scaled(b / 2, Q), _scaled(g / 2, W),
                         s=0.5)
    # rpgss
    b, g = float(params["beta"]), float(params["gamma"])
    if min(b, g) <= 0:
        raise ValueError("beta and gamma must be positive")
    Q = params.get("Q", 1.0)
    W = params.get("W", 1.0)
    return GssConfig(None, _scaled(b, Q), _scaled(g, W), s=1.0)


def _scaled(coef, op):
    if np.isscalar(op):
        return coef * float(op)
    if sp.issparse(op):
        return coef * op
    return coef * np.asarray(op, dtype=np.float64)


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
    config: GssConfig
    matrix: sp.csc_matrix
    lu: object  # scipy.sparse.linalg.SuperLU of ``matrix``

    def apply(self, r):
        """Solve P w = r for a flat array r (optionally multi-column)."""
        return self.lu.solve(np.asarray(r, dtype=np.float64))

    __call__ = apply


def build(sys: SaddlePointSystem, cfg: GssConfig) -> GssPreconditioner:
    """Assemble the shift-splitting preconditioner and factor it once."""
    require_spd(operand_sparse(cfg.lambda3, sys.p), "lambda3")
    P = gss_matrix(sys, cfg)
    try:
        lu = splu(P)
    except RuntimeError as exc:
        raise Singular(f"preconditioner is singular: {exc}") from exc
    return GssPreconditioner(config=cfg, matrix=P, lu=lu)


# -- exact block diagonal baseline -------------------------------------


@dataclass(frozen=True)
class BdPreconditioner:
    a_factor: CholeskyFactor
    s_factor: CholeskyFactor
    css_factor: CholeskyFactor

    def apply(self, r):
        """Solve P w = r blockwise for a flat array r (optionally
        multi-column); the block sizes are the factor orders."""
        r = np.asarray(r, dtype=np.float64)
        n = self.a_factor.order
        nm = n + self.s_factor.order
        return np.concatenate([
            cholesky_solve(self.a_factor, r[:n]),
            cholesky_solve(self.s_factor, r[n:nm]),
            cholesky_solve(self.css_factor, r[nm:]),
        ])

    __call__ = apply


def build_bd(sys: SaddlePointSystem) -> BdPreconditioner:
    """Exact block diagonal baseline diag(A, S, C S^{-1} C^T), S = B A^{-1} B^T."""
    Ad = sys.A.toarray()
    Bd = sys.B.toarray()
    Cd = sys.C.toarray()
    a_factor = cholesky(Ad)
    S = Bd @ cholesky_solve(a_factor, Bd.T)
    S = 0.5 * (S + S.T)
    s_factor = cholesky(S)
    CSC = Cd @ cholesky_solve(s_factor, Cd.T)
    CSC = 0.5 * (CSC + CSC.T)
    css_factor = cholesky(CSC)
    return BdPreconditioner(a_factor, s_factor, css_factor)


# -- splitting identity -------------------------------------------------


def splitting_residual(sys: SaddlePointSystem, cfg: GssConfig) -> float:
    """Frobenius norm of (P - Q) - Amat for the splitting complement
    Q = Sigma - (1-s) Amat, formed explicitly."""
    Amat = sys.matrix
    Q = sigma_matrix(sys, cfg) - (1.0 - cfg.s) * Amat
    return float(spla.norm((gss_matrix(sys, cfg) - Q) - Amat, "fro"))
