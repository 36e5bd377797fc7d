"""Full (non-restarted) GMRES with right or left preconditioning.

Arnoldi with classical Gram-Schmidt run twice, the second pass delayed by
one step (DCGS2: Swirydowicz et al., NLAA 2021; Bielich et al., Parallel
Computing 2022).  Step k applies the operator to the basis vector that has
had one pass, then makes one sweep over the basis in ``BASIS_BLOCK``-row
chunks that computes both that vector's second-pass coefficients and the
new vector's first-pass ones while each chunk is in cache; the Arnoldi
relation for the finished vector is restored algebraically, with no extra
operator apply.  The basis is read from memory once per step.  When the
residual is about to be decided (it crosses the tolerance, at breakdown
or at ``maxit``) the newest vector gets its second pass at once instead.

The Hessenberg columns are reduced by Givens rotations.  The rotated
diagonal of column k is one dot product of the column with weights
c_{i-1} * prod_{j=i}^{k-1}(-s_j) that every rotation updates; R is built
only when an iterate is assembled.  Each step monitors the least-squares
residual |g_{k+1}| of the rotated system relative to the norm of the
(preconditioned, on the left) right-hand side; every rotation scales it by
|sin| <= 1, so the history never increases.  The two preconditioning
sides differ in what it measures and in when a solve counts as converged,
matching the two conventions found in published tables:

* right (default): solve A P^{-1} v = d, u = P^{-1} v.  The solver monitors
  the least-squares residual and stops only on a confirmed true residual:
  once the monitored value drops below the tolerance it assembles u and
  computes ||A u - d|| / ||d||, and if that is not below the tolerance too
  it keeps iterating, unless the monitored value is at rounding level
  (<= ``BREAKDOWN``): later steps cannot move the iterate, so it stops
  unconverged.

* left: solve P^{-1} A u = P^{-1} d.  The monitored residual is the
  PRECONDITIONED relative residual ||P^{-1}(A u - d)|| / ||P^{-1} d||,
  which is what MATLAB's gmres reports, and it alone decides convergence.

``SolveReport.final_res`` is the last monitored residual and
``SolveReport.true_final_res`` the true relative residual
||A u - d|| / ||d|| of the returned iterate.  The iteration count is the
number of Arnoldi steps taken; ``n_matvec`` and ``n_precond`` count the
operator and preconditioner applies the solve made, residual checks
included.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import drot, dtrsv

from .system import BlockVector, SaddlePointSystem, operator_apply

BASIS_BLOCK = 64
# Breakdown: the new direction is this small relative to ||Op(v_k)||.
BREAKDOWN = 1e-14


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
    n_matvec: int
    n_precond: int

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
    Starts from the zero vector unless ``x0`` is given.  Raises
    ``ValueError`` for a ``tol`` that is not positive and finite or a
    ``maxit`` below 1.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if maxit < 1:
        raise ValueError(f"maxit must be at least 1, got {maxit}")
    t0 = time.perf_counter()
    d = d.to_array() if isinstance(d, BlockVector) else np.asarray(d, dtype=np.float64)
    N = sys.size
    if d.shape != (N,):
        raise ValueError("rhs length does not match system size")
    apply_p = (lambda r: r) if precond is None else precond
    right = side == "right"

    x0 = np.zeros(N) if x0 is None else np.asarray(x0, dtype=np.float64)
    nd = float(np.linalg.norm(d)) or 1.0
    r0 = d - operator_apply(sys, x0)
    n_matvec, n_apply = 1, 0
    true_res = float(np.linalg.norm(r0) / nd)
    if not right:
        r0 = apply_p(r0)
        nd = float(np.linalg.norm(apply_p(d))) or 1.0
        n_apply += 2
    beta = float(np.linalg.norm(r0))
    history = [beta / nd]
    if history[0] < tol:
        return SolveReport(True, 0, history[0], np.asarray(history),
                           time.perf_counter() - t0, x0, side, true_res,
                           n_matvec, n_apply if precond is not None else 0)

    maxit = min(maxit, N)
    V = np.empty((BASIS_BLOCK, N))  # the Arnoldi basis, one vector per row
    H = np.zeros((BASIS_BLOCK, BASIS_BLOCK + 1))  # row j: Arnoldi column j
    xi = np.zeros(BASIS_BLOCK + 1)  # rotated diagonal of column k: xi @ H[k]
    xi[0] = 1.0
    V[0] = r0 / beta
    cs, sn = [], []
    g = [beta]

    def project(k, X):
        """One classical Gram-Schmidt pass of the rows X against V[:k], in
        chunks that stay in cache between their dot products and their
        update; returns the k x len(X) coefficients."""
        C = np.empty((k, X.shape[0]))
        for c0 in range(0, k, BASIS_BLOCK):
            Q = V[c0:min(c0 + BASIS_BLOCK, k)]
            C[c0:c0 + len(Q)] = c = Q @ X.T
            X -= c.T @ Q
        return C

    def finalize(j, s):
        """Finish column j once V[j+1] has had its second pass, whose
        coefficients are s: correct the column, normalize V[j+1] and rotate.
        Returns the second norm, the monitored residual and breakdown."""
        col = H[j]
        nu = math.sqrt(V[j + 1] @ V[j + 1])
        col[:j + 1] += col[j + 1] * s
        col[j + 1] = h = float(col[j + 1] * nu)
        # ||Op(v_j)|| = ||column j||: the breakdown test is scale-free
        breakdown = h <= BREAKDOWN * math.sqrt(col[:j + 2] @ col[:j + 2])
        if not breakdown:
            V[j + 1] /= nu
        a = float(xi[:j + 1] @ col[:j + 1])
        r = math.hypot(a, h)
        c, sj = a / r, h / r
        cs.append(c)
        sn.append(sj)
        xi[:j + 1] *= -sj
        xi[j + 1] = c
        g.append(-sj * g[j])
        g[j] *= c
        history.append(abs(g[j + 1]) / nd)
        return nu, history[-1], breakdown

    def confirm(k, res, breakdown):
        """Assemble the iterate after k steps; returns it, its true residual,
        whether the solve converged and whether it stops.  It stops
        unconverged at breakdown, or once the monitored residual is at
        rounding level (<= BREAKDOWN): the least-squares problem is then
        solved, and later steps cannot move the iterate."""
        nonlocal n_matvec, n_apply
        R = H[:k, :k + 1].T.copy()
        for j in range(k):  # the stored rotations, row by row, in place
            drot(R[j, j:], R[j + 1, j:], cs[j], sn[j], overwrite_x=True,
                 overwrite_y=True)
        y = dtrsv(R[:k].T, np.asarray(g[:k]), lower=1, trans=1)  # R y = g
        corr = y @ V[:k]
        u = x0 + (apply_p(corr) if right else corr)
        n_matvec += 1
        n_apply += right
        tr = true_residual(sys, u, d)
        converged = res < tol and (not right or tr < tol)
        return u, tr, converged, converged or breakdown or res <= BREAKDOWN

    it = 0
    converged = False
    x = x0
    pending = False  # V[k] has had one Gram-Schmidt pass, column k-1 waits
    for k in range(maxit):
        if k + 1 >= V.shape[0]:
            V = np.concatenate([V, np.empty((BASIS_BLOCK, N))])
            H = np.pad(H, ((0, BASIS_BLOCK), (0, BASIS_BLOCK)))
            xi = np.pad(xi, (0, BASIS_BLOCK))
        V[k + 1] = (operator_apply(sys, apply_p(V[k])) if right
                    else apply_p(operator_apply(sys, V[k])))
        n_matvec += 1
        n_apply += 1
        v, w, col = V[k], V[k + 1], H[k]
        if pending:
            # one sweep: V[k]'s second pass (coefficients s) and w's first
            # (z).  With v the finished V[k], Op(v) = (w - V H[:k] s) / nu,
            # so v's column follows from z and s without another apply.
            s, z = project(k, V[k:k + 2]).T
            nu, res, breakdown = finalize(k - 1, s)
            it = k
            if res < tol or breakdown:
                x, true_res, converged, stop = confirm(it, res, breakdown)
                if stop:
                    break
            t = float(v @ w)
            col[:k] = (z - s @ H[:k, :k]) / nu
            col[k] = (t - H[k - 1, k] * s[-1]) / nu
            w -= t * v  # nu times the projected Op(v)
            scale = 1.0 / nu
        else:
            col[:k + 1] = project(k + 1, V[k + 1:k + 2])[:, 0]
            scale = 1.0
        nrm = math.sqrt(w @ w)
        col[k + 1] = h = nrm * scale
        breakdown = h <= BREAKDOWN * math.sqrt(col[:k + 2] @ col[:k + 2])
        if breakdown:
            col[k + 1] = scale  # the second pass runs on w unnormalized
        else:
            w /= nrm
        # the provisional rotation of column k only says when the residual
        # is about to be decided; the decision uses the finished column
        a = float(xi[:k + 1] @ col[:k + 1])
        pending = not (breakdown or k + 1 == maxit
                       or h * abs(g[k]) < tol * nd * math.hypot(a, h))
        if not pending:
            s = project(k + 1, V[k + 1:k + 2])[:, 0]
            _, res, breakdown = finalize(k, s)
            it = k + 1
            if res < tol or breakdown or it == maxit:
                x, true_res, converged, stop = confirm(it, res, breakdown)
                if stop:
                    break

    return SolveReport(converged, it, history[-1], np.asarray(history),
                       time.perf_counter() - t0, x, side, true_res,
                       n_matvec, n_apply if precond is not None else 0)
