"""Full (non-restarted) GMRES with right or left preconditioning.

Arnoldi with classical Gram-Schmidt run twice (two BLAS-2 passes over a
row-major basis) and Givens rotations on the Hessenberg matrix.  Each step
monitors the least-squares residual |g_{k+1}| of the rotated system relative
to the norm of the (preconditioned, on the left) right-hand side; every
rotation scales it by |sin| <= 1, so the history never increases.  The two
preconditioning sides differ in what it measures and in when a solve
counts as converged, matching the two conventions found in published
tables:

* right (default): solve A P^{-1} v = d, u = P^{-1} v.  The solver monitors
  the least-squares residual and stops only on a confirmed true residual:
  once the monitored value drops below the tolerance it assembles u and
  computes ||A u - d|| / ||d||, and if that is not below the tolerance too
  it keeps iterating.

* left: solve P^{-1} A u = P^{-1} d.  The monitored residual is the
  PRECONDITIONED relative residual ||P^{-1}(A u - d)|| / ||P^{-1} d||,
  which is what MATLAB's gmres reports, and it alone decides convergence.

``SolveReport.final_res`` is the last monitored residual and
``SolveReport.true_final_res`` the true relative residual
||A u - d|| / ||d|| of the returned iterate.  The iteration count is the
number of Arnoldi steps taken.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .system import BlockVector, SaddlePointSystem, operator_apply

BASIS_BLOCK = 64


@dataclass(frozen=True)
class SolveReport:
    converged: bool
    iterations: int
    final_res: float
    res_history: np.ndarray
    wall_seconds: float
    solution: np.ndarray
    side: str
    true_final_res: float

    def __str__(self):
        tag = "converged" if self.converged else "stalled"
        return (f"gmres {tag}: it={self.iterations} res={self.final_res:.4e} "
                f"wall={self.wall_seconds:.3f}s")


def true_residual(sys: SaddlePointSystem, u, d) -> float:
    """||A u - d||_2 / ||d||_2 on the flat vectors."""
    u = u.to_array() if isinstance(u, BlockVector) else np.asarray(u)
    d = d.to_array() if isinstance(d, BlockVector) else np.asarray(d)
    nd = np.linalg.norm(d)
    if nd == 0.0:
        return float(np.linalg.norm(operator_apply(sys, u)))
    return float(np.linalg.norm(operator_apply(sys, u) - d) / nd)


def gmres(sys: SaddlePointSystem, d, precond=None, tol=1e-6, maxit=7000,
          x0=None, side="right") -> SolveReport:
    """Solve A u = d by full GMRES preconditioned by ``precond``.

    ``precond`` is a callable solving P w = r (or None for the identity).
    Starts from the zero vector unless ``x0`` is given.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    t0 = time.perf_counter()
    d = d.to_array() if isinstance(d, BlockVector) else np.asarray(d, dtype=np.float64)
    N = sys.size
    if d.shape != (N,):
        raise ValueError("rhs length does not match system size")
    apply_p = (lambda r: r) if precond is None else precond

    x0 = np.zeros(N) if x0 is None else np.asarray(x0, dtype=np.float64)
    nd = float(np.linalg.norm(d)) or 1.0
    r0 = d - operator_apply(sys, x0)
    true_res = float(np.linalg.norm(r0) / nd)
    if side == "left":
        r0 = apply_p(r0)
        nd = float(np.linalg.norm(apply_p(d))) or 1.0
    beta = float(np.linalg.norm(r0))
    history = [beta / nd]
    if history[0] < tol:
        return SolveReport(True, 0, history[0], np.asarray(history),
                           time.perf_counter() - t0, x0, side, true_res)

    maxit = min(maxit, N)
    V = np.empty((BASIS_BLOCK, N))  # the Arnoldi basis, one vector per row
    V[0] = r0 / beta
    R = np.zeros((BASIS_BLOCK, BASIS_BLOCK))  # the rotated Hessenberg matrix
    cs, sn = [], []
    g = [beta]

    def assemble_x(k):
        y = solve_triangular(R[:k, :k], g[:k])
        corr = y @ V[:k]
        return x0 + (apply_p(corr) if side == "right" else corr)

    it = 0
    converged = False
    x = x0
    for k in range(maxit):
        if k + 1 >= V.shape[0]:
            V = np.concatenate([V, np.empty((BASIS_BLOCK, N))])
            R = np.pad(R, ((0, BASIS_BLOCK), (0, BASIS_BLOCK)))
        if side == "right":
            w = operator_apply(sys, apply_p(V[k]))
        else:
            w = apply_p(operator_apply(sys, V[k]))
        # classical Gram-Schmidt, twice ("twice is enough")
        basis = V[:k + 1]
        h = basis @ w
        w -= h @ basis
        h2 = basis @ w
        w -= h2 @ basis
        h = (h + h2).tolist()
        h_next = float(np.linalg.norm(w))
        breakdown = h_next <= 1e-14 * beta
        if not breakdown:
            V[k + 1] = w / h_next
        # apply the accumulated Givens rotations to the new column
        for j in range(k):
            c, s = cs[j], sn[j]
            h[j], h[j + 1] = c * h[j] + s * h[j + 1], c * h[j + 1] - s * h[j]
        denom = math.hypot(h[k], h_next)
        cs.append(h[k] / denom)
        sn.append(h_next / denom)
        h[k] = denom
        R[:k + 1, k] = h
        g.append(-sn[k] * g[k])
        g[k] = cs[k] * g[k]

        it = k + 1
        res = abs(g[it]) / nd
        history.append(res)
        if res < tol or breakdown or it == maxit:
            x = assemble_x(it)
            true_res = true_residual(sys, x, d)
            converged = res < tol and (side == "left" or true_res < tol)
            if converged or breakdown:
                break

    return SolveReport(converged, it, history[-1], np.asarray(history),
                       time.perf_counter() - t0, x, side, true_res)
