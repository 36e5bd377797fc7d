"""Parameter-selection strategies for the shift-splitting schemes.

Two complementary tools:

* phi(s): the squared Frobenius norm of the splitting complement
  Q = Sigma - (1-s) A, a quadratic in s whose analytic minimizer gives a
  norm-minimizing s for fixed shifts.

* estimate_params: the balancing heuristic that picks s and a scalar
  multiple of the identity for L2 so that L2 and s^2 C^T L3^{-1} C carry
  equal spectral weight inside the inner Schur block:

      s_est    = sqrt(||L2||_2 / ||C^T L3^{-1} C||_2)
      beta_est = ||B||_2^4 / (4 ||C^T L3^{-1} C||_2 ||A||_2^2)

  with all 2-norms from ARPACK (Lanczos), seeded with a fixed start
  vector, so estimates are bit-stable run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .dense import require_spd
from .precond import GssConfig, operand_sparse, sigma_matrix
from .system import SaddlePointSystem


def phi(sys: SaddlePointSystem, cfg: GssConfig, s: float) -> float:
    """||Q||_F^2 for Q = Sigma - (1-s) A."""
    return float(spla.norm(sigma_matrix(sys, cfg) - (1.0 - s) * sys.matrix,
                           "fro") ** 2)


def phi_minimizer(sys: SaddlePointSystem, cfg: GssConfig) -> float:
    """Analytic minimizer of the quadratic phi:
    s* = 1 - tr(L1 A) / (||A||_F^2 + 2 ||B||_F^2 + 2 ||C||_F^2)."""
    tr_l1a = float(operand_sparse(cfg.lambda1, sys.n).multiply(sys.A).sum())
    denom = (spla.norm(sys.A, "fro") ** 2
             + 2.0 * spla.norm(sys.B, "fro") ** 2
             + 2.0 * spla.norm(sys.C, "fro") ** 2)
    return 1.0 - tr_l1a / denom


@dataclass(frozen=True)
class ParamEstimate:
    s_est: float
    beta_est: float
    norms: dict

    def __post_init__(self):
        if not (self.s_est > 0 and self.beta_est > 0):
            raise ValueError("estimates must be positive")


def _start(k):
    return np.full(k, 1.0 / np.sqrt(k))


def estimate_params(sys: SaddlePointSystem, lambda3) -> ParamEstimate:
    """Balancing estimates from four 2-norms: A, B, C^T L3^{-1} C, and the
    resulting L2 = beta_est I (whose 2-norm is beta_est itself)."""
    lam3_lu = require_spd(operand_sparse(lambda3, sys.p), "lambda3")
    A, B, C = sys.A, sys.B, sys.C
    # ARPACK fails on a zero operator (canonical blocks store no zeros) and
    # needs an order of at least 2
    if min(A.nnz, B.nnz, C.nnz) == 0:
        raise ValueError("degenerate zero norm in the balancing estimate")
    if min(sys.n, sys.m) < 2:
        raise ValueError("the balancing estimate needs n and m of at least 2")
    ctl3c = spla.LinearOperator((sys.m, sys.m), dtype=np.float64,
                                matvec=lambda x: C.T @ lam3_lu.solve(C @ x))
    # a symmetric operator's 2-norm is its largest eigenvalue magnitude
    norm_ctl3c = abs(float(spla.eigsh(ctl3c, k=1, v0=_start(sys.m),
                                      return_eigenvectors=False)[0]))
    norm_a = abs(float(spla.eigsh(A, k=1, v0=_start(sys.n),
                                  return_eigenvectors=False)[0]))
    norm_b = float(spla.svds(B, k=1, v0=_start(min(B.shape)),
                             return_singular_vectors=False)[0])

    beta = norm_b ** 4 / (4.0 * norm_ctl3c * norm_a ** 2)
    s = np.sqrt(beta / norm_ctl3c)
    return ParamEstimate(float(s), float(beta), {
        "norm_a": norm_a,
        "norm_b": norm_b,
        "norm_ctl3c": norm_ctl3c,
        "norm_lambda2": float(beta),
    })
