"""Stationary iteration induced by the shift-splitting and its convergence
criteria.

The splitting A = P - Q gives the fixed-point scheme

    u_{k+1} = u_k + P^{-1} (d - A u_k)

which converges iff the spectral radius of the iteration matrix P^{-1} Q is
below one.  When all three shifts are SPD that holds iff s > s_critical =
1/2 - min Re(nu) over nu in eig(A^{-1} Sigma), Sigma = diag(L1, L2, L3):
the unit disk |1/(s + nu) - 1| < 1, or (2 s - 1) |mu|^2 + 2 Re(mu) > 0
over mu = 1/nu, which is that inequality times |mu|^2.  Re(nu) >= 0, so
any s > 1/2 converges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dense import ConvergenceFailure, require_spd
from .precond import GssConfig, build, sigma_matrix
from .spectral import s_critical, shift_spectrum
from .system import SaddlePointSystem, _check_tol, _flat, operator_apply

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
                 tol=1e-6, maxit=20000) -> StationaryReport:
    """Run u <- u + P^{-1}(d - A u) until the relative true residual drops
    below ``tol``.  Raises Diverged when the residual exceeds 1e12, and
    ValueError for a ``tol`` that is not positive and finite or a ``d`` or
    ``u0`` of the wrong length or with non-finite entries, as ``gmres``."""
    t0 = time.perf_counter()
    _check_tol(tol)
    d = _flat("rhs", d, sys.size)
    x = np.zeros(sys.size) if u0 is None else _flat("u0", u0, sys.size).copy()
    precond = build(sys, cfg)
    nd = np.linalg.norm(d) or 1.0
    history = []
    it = 0
    while True:
        r = d - operator_apply(sys, x)
        res = float(np.linalg.norm(r) / nd)
        history.append(res)
        if res < tol:
            break
        if res > DIVERGENCE_THRESHOLD:
            raise Diverged(f"residual {res:.3e} exceeded {DIVERGENCE_THRESHOLD:.0e} "
                           f"after {it} iterations")
        if it >= maxit:
            break
        x = x + precond.apply(r)
        it += 1
    return StationaryReport(res < tol, it, res, np.asarray(history),
                            time.perf_counter() - t0, x)


@dataclass(frozen=True)
class PredicateReport:
    holds: bool
    s_critical: float


def convergence_predicate(sys: SaddlePointSystem,
                          cfg: GssConfig) -> PredicateReport:
    """Whether the stationary iteration converges: s > ``s_critical`` from
    ``spectral.s_critical``, which a caller holding nu can call directly."""
    if not cfg.is_pess:
        raise ValueError("predicate needs an SPD (1,1) shift")
    require_spd(sigma_matrix(sys, cfg), "Sigma")
    s_crit = s_critical(shift_spectrum(sys, cfg))
    return PredicateReport(bool(cfg.s > s_crit), s_crit)
