"""Stationary iteration induced by the shift-splitting and its convergence
criteria.

The splitting A = P - Q gives the fixed-point scheme

    u_{k+1} = u_k + P^{-1} (d - A u_k)

which converges iff the spectral radius of the iteration matrix P^{-1} Q is
below one.  When all three shifts are SPD that is equivalent to

    (2 s - 1) |mu|^2 + 2 Re(mu) > 0

for every mu in eig(Sigma^{-1/2} A Sigma^{-1/2}), Sigma = diag(L1, L2, L3).
Any s >= 1/2 therefore converges; a sufficient lower bound on s below 1/2
follows from the extreme symmetric-part eigenvalue and the spectral radius.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .dense import ConvergenceFailure, cholesky, eig_general
from .precond import GssConfig, build, sigma_matrix
from .system import SaddlePointSystem, operator_apply, to_dense

DIVERGENCE_THRESHOLD = 1e12


class Diverged(ConvergenceFailure):
    """The fixed-point residual blew past the divergence threshold."""


@dataclass(frozen=True)
class StationaryReport:
    converged: bool
    iterations: int
    final_res: float
    error_history: np.ndarray
    wall_seconds: float
    solution: np.ndarray


def pess_iterate(sys: SaddlePointSystem, cfg: GssConfig, d, u0=None,
                 tol=1e-6, maxit=20000, precond=None) -> StationaryReport:
    """Run u <- u + P^{-1}(d - A u) until the relative true residual drops
    below ``tol``.  Raises Diverged when the residual exceeds 1e12."""
    t0 = time.perf_counter()
    if precond is None:
        precond = build(sys, cfg)
    if hasattr(d, "to_array"):
        d = d.to_array()
    d = np.asarray(d, dtype=np.float64)
    x = np.zeros(sys.size) if u0 is None else np.asarray(u0, dtype=np.float64).copy()
    nd = np.linalg.norm(d)
    if nd == 0.0:
        nd = 1.0
    history = []
    converged = False
    it = 0
    while True:
        r = d - operator_apply(sys, x)
        res = float(np.linalg.norm(r) / nd)
        history.append(res)
        if res < tol:
            converged = True
            break
        if res > DIVERGENCE_THRESHOLD:
            raise Diverged(f"residual {res:.3e} exceeded {DIVERGENCE_THRESHOLD:.0e} "
                           f"after {it} iterations")
        if it >= maxit:
            break
        x = x + precond.apply(r)
        it += 1
    return StationaryReport(converged, it, history[-1], np.asarray(history),
                            time.perf_counter() - t0, x)


def _scaled_operator(sys, cfg):
    """L^{-1} A L^{-T} for the Cholesky factor L of Sigma: an
    orthogonal-factor similarity away from Sigma^{-1/2} A Sigma^{-1/2}."""
    L = cholesky(sigma_matrix(sys, cfg).toarray()).lower
    M = solve_triangular(L, to_dense(sys), lower=True)
    return solve_triangular(L, M.T, lower=True).T


def scaled_spectrum(sys: SaddlePointSystem, cfg: GssConfig) -> np.ndarray:
    """eig(Sigma^{-1/2} A Sigma^{-1/2})."""
    return eig_general(_scaled_operator(sys, cfg))


@dataclass(frozen=True)
class PredicateReport:
    holds: bool
    min_lhs: float
    witness: complex
    lhs_values: np.ndarray
    eigenvalues: np.ndarray


def convergence_predicate(sys: SaddlePointSystem, cfg: GssConfig,
                          mu=None) -> PredicateReport:
    """(2s-1)|mu|^2 + 2 Re(mu) > 0 over the scaled spectrum; the witness is
    the eigenvalue attaining the minimal left-hand side."""
    if not cfg.is_pess:
        raise ValueError("predicate needs an SPD (1,1) shift")
    if mu is None:
        mu = scaled_spectrum(sys, cfg)
    mu = np.asarray(mu, dtype=np.complex128)
    lhs = (2.0 * cfg.s - 1.0) * np.abs(mu) ** 2 + 2.0 * mu.real
    k = int(np.argmin(lhs))
    return PredicateReport(bool(np.all(lhs > 0.0)), float(lhs[k]), complex(mu[k]),
                           lhs, mu)


def sufficient_s_lower_bound(sys: SaddlePointSystem, cfg: GssConfig) -> float:
    """max{ (1/2)(1 - lmin(Shat + Shat^T) / rho(Shat)^2), 0 } with
    Shat = Sigma^{-1/2} A Sigma^{-1/2}; any s above this converges."""
    M = _scaled_operator(sys, cfg)
    lmin = float(np.linalg.eigvalsh(M + M.T)[0])
    rho = float(np.max(np.abs(eig_general(M))))
    return max(0.5 * (1.0 - lmin / rho**2), 0.0)
