"""Parameter-selection strategies for the shift-splitting schemes.

Two complementary tools:

* phi(s): the squared Frobenius norm of the splitting complement
  Q = Sigma - (1-s) A as a closed-form quadratic in s; its minimizer gives
  a norm-minimizing s for fixed shifts.

* estimate_params: the balancing heuristic that picks s and a scalar
  multiple of the identity for L2 so that L2 and s^2 C^T L3^{-1} C carry
  equal spectral weight inside the inner Schur block:

      s_est    = sqrt(||L2||_2 / ||C^T L3^{-1} C||_2)
      beta_est = ||B||_2^4 / (4 ||C^T L3^{-1} C||_2 ||A||_2^2)

  with all 2-norms obtained from the seeded power iteration, so estimates
  are bit-stable run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import norm as sparse_norm

from .dense import cholesky, cholesky_solve
from .precond import GssConfig, operand_dense
from .system import SaddlePointSystem


def phi(sys: SaddlePointSystem, cfg: GssConfig, s: float) -> float:
    """||Q||_F^2 for Q = Sigma - (1-s) A, expanded in closed form:

    ||L1||_F^2 + ||L2||_F^2 + ||L3||_F^2 + (s-1)^2 ||A||_F^2
      + 2 (s-1) tr(L1 A) + 2 (s-1)^2 ||B||_F^2 + 2 (s-1)^2 ||C||_F^2
    """
    l1 = operand_dense(cfg.lambda1, sys.n)
    l2 = operand_dense(cfg.lambda2, sys.m)
    l3 = operand_dense(cfg.lambda3, sys.p)
    a_f2 = sparse_norm(sys.A, "fro") ** 2
    b_f2 = sparse_norm(sys.B, "fro") ** 2
    c_f2 = sparse_norm(sys.C, "fro") ** 2
    tr_l1a = float(np.sum(l1 * sys.A.toarray())) if l1.any() else 0.0
    d = s - 1.0
    return (np.sum(l1**2) + np.sum(l2**2) + np.sum(l3**2)
            + d**2 * a_f2 + 2.0 * d * tr_l1a + 2.0 * d**2 * (b_f2 + c_f2))


def phi_minimizer(sys: SaddlePointSystem, cfg: GssConfig) -> float:
    """Analytic minimizer of the quadratic phi:
    s* = 1 - tr(L1 A) / (||A||_F^2 + 2 ||B||_F^2 + 2 ||C||_F^2)."""
    l1 = operand_dense(cfg.lambda1, sys.n)
    tr_l1a = float(np.sum(l1 * sys.A.toarray())) if l1.any() else 0.0
    denom = (sparse_norm(sys.A, "fro") ** 2
             + 2.0 * sparse_norm(sys.B, "fro") ** 2
             + 2.0 * sparse_norm(sys.C, "fro") ** 2)
    return 1.0 - tr_l1a / denom


@dataclass(frozen=True)
class Norm2Estimate:
    value: float
    converged: bool
    iterations: int

    def __float__(self):
        return self.value


def power_norm2(apply_mtm, n, tol=1e-10, maxit=5000) -> Norm2Estimate:
    """Power iteration on a symmetric positive semidefinite operator M^T M.

    ``apply_mtm(x)`` must return (M^T M) x.  Seeded with ones/sqrt(n) for
    run-to-run reproducibility; returns sqrt of the dominant eigenvalue
    estimate.
    """
    x = np.full(n, 1.0 / np.sqrt(n))
    lam = 0.0
    for k in range(1, maxit + 1):
        y = apply_mtm(x)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return Norm2Estimate(0.0, True, k)
        lam_new = float(x @ y)
        x = y / ny
        if k > 1 and abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return Norm2Estimate(float(np.sqrt(max(lam_new, 0.0))), True, k)
        lam = lam_new
    return Norm2Estimate(float(np.sqrt(max(lam, 0.0))), False, maxit)


@dataclass(frozen=True)
class ParamEstimate:
    s_est: float
    beta_est: float
    norms: dict

    def __post_init__(self):
        if not (self.s_est > 0 and self.beta_est > 0):
            raise ValueError("estimates must be positive")


def estimate_params(sys: SaddlePointSystem, lambda3,
                    tol=1e-10, maxit=5000) -> ParamEstimate:
    """Balancing estimates from four 2-norms: A, B, C^T L3^{-1} C, and the
    resulting L2 = beta_est I (whose 2-norm is beta_est itself)."""
    lam3 = operand_dense(lambda3, sys.p)
    lam3_f = cholesky(lam3)
    A, B, C = sys.A, sys.B, sys.C

    def ctl3c(x):
        return C.T @ cholesky_solve(lam3_f, C @ x)

    # the operator is symmetric PSD, so M^T M = M applied twice
    norm_ctl3c = power_norm2(lambda x: ctl3c(ctl3c(x)), sys.m,
                             tol=tol, maxit=maxit)

    def a_mtm(x):
        return A @ (A @ x)

    norm_a = power_norm2(a_mtm, sys.n, tol=tol, maxit=maxit)

    def b_mtm(x):
        return B.T @ (B @ x)

    norm_b = power_norm2(b_mtm, sys.n, tol=tol, maxit=maxit)

    if float(norm_ctl3c) <= 0 or float(norm_a) <= 0:
        raise ValueError("degenerate zero norm in the balancing estimate")
    beta = float(norm_b) ** 4 / (4.0 * float(norm_ctl3c) * float(norm_a) ** 2)
    s = np.sqrt(beta / float(norm_ctl3c))
    return ParamEstimate(float(s), float(beta), {
        "norm_a": float(norm_a),
        "norm_b": float(norm_b),
        "norm_ctl3c": float(norm_ctl3c),
        "norm_lambda2": float(beta),
    })
