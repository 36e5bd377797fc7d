"""Full (non-restarted) GMRES with right or left preconditioning.

Arnoldi with classical Gram-Schmidt run twice, the second pass delayed by
one step (DCGS2: Swirydowicz et al., NLAA 2021; Bielich et al., Parallel
Computing 2022).  Step k applies the operator to p_k, the basis vector
that has had one pass, then makes one sweep over the basis in
``BASIS_BLOCK``-row chunks that computes both p_k's second-pass
coefficients s_k and the new vector's first-pass ones while each chunk is
in cache.  A step reads the basis from memory once and reads no other
array of k N or k^2 entries, on the flexible path too.  When the residual
is about to be decided (it crosses the tolerance, at breakdown or at
``maxit``) the newest vector gets its second pass at once instead.

Column k of the Hessenberg matrix is first written *open*: as the
coefficients [z; t; ||w||] of Op(p_k), with p_k = nu_k q_k + Q_k s_k for
the finished vector q_k.  The solver keeps (s_k, nu_k) for the open
columns only, at most one block of them.  ``settle`` turns the open
columns into the Arnoldi columns of the q_k once a block of them is full
and before every confirm, in one product with the settled rows and one
lower-triangular solve; a flexible solve settles its open rows of Z, P^-1
p_k, with the same coefficients.  Only ``settle`` reads the settled rows of
H and Z.  The rotations need no settling: an open column is nu_k times the
settled one plus H_k s_k, and the rotated diagonal xi is row k of the
accumulated rotations, so xi^T H_k = 0, and the open column yields the
same rotation, breakdown test and monitored residual as the settled one
up to rounding.  The second pass's correction of the previous column is
linear, so it may come before or after that column is settled.

The Hessenberg columns are reduced by Givens rotations.  The rotated
diagonal of column k is one dot product of the column with weights
c_{i-1} * prod_{j=i}^{k-1}(-s_j) that every rotation updates.  An iterate
solves R y = g one block column of R at a time, the last first, each
rotated in a copy of its Hessenberg block; H itself is never rotated, so a
solve that goes on after a failed confirm reads the same columns it would
have read without one.  Each step monitors the least-squares residual
|g_{k+1}| of the rotated system relative to the norm of the
(preconditioned, on the left) right-hand side; every rotation scales it by
|sin| <= 1, so the history never increases.  The two preconditioning
sides differ in what it measures and in when a solve counts as converged,
matching the two conventions found in published tables:

* right (default): solve A P^{-1} v = d, u = P^{-1} v, as flexible GMRES
  (Saad, SIAM J. Sci. Comput. 14(2), 1993).  With a preconditioner the
  solver keeps z_j = P^{-1} p_j, which step j's apply makes anyway; once
  settled, A z_j is Arnoldi column j whatever P each apply used, and
  u = x0 + Z y takes no further apply.  The solver monitors the
  least-squares residual and stops only on a confirmed true residual: once
  the monitored value drops below the tolerance it assembles u and
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
included.  Each step makes one of each, and each confirm one operator
apply; from the zero start r0 is d and costs none, so a solve from zero
that confirms once makes iterations + 1 operator applies, and a right
solve makes iterations preconditioner applies.  ``phase_seconds`` splits
the solve's time over ``PHASES``: operator applies, preconditioner applies
(0 without a preconditioner), orthogonalization with the Givens update
and every settle, and the residual confirms, each of which assembles an
iterate and applies the operator to it.  The phases sum to at most
``wall_seconds``.

``stationary`` runs the paper's iterative process u <- u + P^{-1}(d - A u)
with a built P, the callable ``precond``, and returns a ``SolveReport``.
With A = P - Q it converges iff rho(P^{-1} Q) < 1, which
``spectral.convergence_predicate`` decides.  Its history is the relative
true residual ||d - A u|| / ||d|| of each iterate, which a right solve
monitors too, so ``side`` is "right" and ``true_final_res`` is
``final_res``.  Each residual takes one operator apply and each step one
preconditioner apply; the other two phases read 0.

The basis, the z_j and the Hessenberg matrix are allocated in
``BASIS_BLOCK``-row blocks as the basis grows, never sized from ``maxit``
and never copied.  A basis block holds BASIS_BLOCK vectors plus one spare
row, so that the vector being finished and the new one are always adjacent
rows of one block: the first vector of the next block is made in the spare
row, and the next block starts from a copy of it, one row per block.  A
block of Z needs no spare row.  Hessenberg block b holds Arnoldi columns as
rows, cut to the BASIS_BLOCK * (b + 1) + 1 entries they can fill, which is
about half of the square.  A solve of k steps holds about 8 k N bytes of
basis (16 k N for a right solve with a preconditioner, Z included) and
4 k^2 of Hessenberg blocks.  The open columns' coefficients add at most
8 BASIS_BLOCK (k + BASIS_BLOCK) bytes, freed at each settle; assembling
an iterate adds one block column of R, at most 8 BASIS_BLOCK (k + 1).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import drot, dtrsm, dtrsv

from .dense import ConvergenceFailure
from .system import (BlockVector, SaddlePointSystem, _check_tol_maxit, _flat,
                     operator_apply)

BASIS_BLOCK = 64
# The phases of ``SolveReport.phase_seconds``.
PHASES = ("operator_apply", "precond_apply", "orthogonalize", "confirm")
# Breakdown: the new direction is this small relative to ||Op(v_k)||.
BREAKDOWN = 1e-14
DIVERGENCE_THRESHOLD = 1e12


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
    phase_seconds: dict


class Diverged(ConvergenceFailure):
    """The fixed-point residual blew past the divergence threshold."""


def true_residual(sys: SaddlePointSystem, u, d) -> float:
    """||A u - d||_2 / ||d||_2 on the flat vectors (||A u||_2 for d = 0)."""
    u = u.to_array() if isinstance(u, BlockVector) else np.asarray(u)
    d = d.to_array() if isinstance(d, BlockVector) else np.asarray(d)
    r = np.linalg.norm(operator_apply(sys, u) - d)
    return float(r / (np.linalg.norm(d) or 1.0))


def gmres(sys: SaddlePointSystem, d, precond=None, tol=1e-6, maxit=7000,
          x0=None, side="right") -> SolveReport:
    """Solve A u = d by full GMRES preconditioned by ``precond``.

    ``precond`` is a callable solving P w = r (or None for the identity).
    Starts from the zero vector unless ``x0`` is given.  Raises
    ``ValueError`` for a ``tol`` that is not positive and finite, a
    ``maxit`` below 1, or a ``d`` or ``x0`` of the wrong length or with
    non-finite entries.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    _check_tol_maxit(tol, maxit)
    t0 = time.perf_counter()
    N = sys.size
    d = _flat("rhs", d, N)
    zero_start = x0 is None
    x0 = np.zeros(N) if zero_start else _flat("x0", x0, N)
    apply_p = (lambda r: r) if precond is None else precond
    right = side == "right"

    phases = dict.fromkeys(PHASES, 0.0)
    mark = time.perf_counter()

    def lap(phase):
        """Charge the time since the previous lap to ``phase``."""
        nonlocal mark
        now = time.perf_counter()
        phases[phase] += now - mark
        mark = now

    def report(converged, it, x, true_res):
        n_precond = n_apply
        if precond is None:  # the identity is neither counted nor timed
            n_precond, phases["precond_apply"] = 0, 0.0
        return SolveReport(converged, it, history[-1], np.asarray(history),
                           time.perf_counter() - t0, x, side, true_res,
                           n_matvec, n_precond, phases)

    nd = float(np.linalg.norm(d)) or 1.0
    r0 = d if zero_start else d - operator_apply(sys, x0)  # A 0 = 0
    lap("operator_apply")
    n_matvec, n_apply = int(not zero_start), 0
    true_res = float(np.linalg.norm(r0) / nd)
    if not right:  # from zero, r0 = d - A 0 is d: apply P^-1 to it once
        pd = apply_p(d)
        r0 = pd if zero_start else apply_p(r0)
        nd = float(np.linalg.norm(pd)) or 1.0
        n_apply += 1 if zero_start else 2
        lap("precond_apply")
    beta = float(np.linalg.norm(r0))
    history = [beta / nd]
    if history[0] < tol:
        return report(True, 0, x0, true_res)

    maxit = min(maxit, N)
    # basis vector and Arnoldi column j are row j % BASIS_BLOCK of block
    # j // BASIS_BLOCK of V and of H (basis blocks have a spare last row);
    # a flexible solve keeps P^-1 p_j in the same row of Z
    flexible = right and precond is not None
    V, H, Z = [], [], []
    # columns first.. are open: column j holds the coefficients of Op(p_j),
    # p_j = nu_j q_j + Q_j s_j the vector the operator was applied to, and
    # row j - first of coef holds s_j, then nu_j at entry j
    first, coef = 0, None
    xi = np.zeros(maxit + 1)  # rotated diagonal of column k: xi @ column k
    xi[0] = 1.0
    cs, sn = [], []
    g = [beta]

    def column(j):
        """Arnoldi column j, a row of its block of H."""
        return H[j // BASIS_BLOCK][j % BASIS_BLOCK]

    def leading(blocks, k):
        """(j0, rows j0.. of its block) over the first k rows of V or H."""
        for j0 in range(0, k, BASIS_BLOCK):
            yield j0, blocks[j0 // BASIS_BLOCK][:min(BASIS_BLOCK, k - j0)]

    def project(k, X):
        """One classical Gram-Schmidt pass of the rows X against V[:k], a
        block at a time so that each stays in cache between its dot
        products and its update; returns the k x len(X) coefficients."""
        C = np.empty((k, X.shape[0]))
        for j0, Q in leading(V, k):
            C[j0:j0 + len(Q)] = c = Q @ X.T
            X -= c.T @ Q
        return C

    def finalize(j, vec, s):
        """Finish column j once vector j+1, ``vec``, has had its second
        pass, whose coefficients are s: correct the column, normalize
        ``vec`` and rotate.  Returns the second norm, the monitored residual
        and breakdown."""
        col = column(j)
        nu = math.sqrt(vec @ vec)
        col[:j + 1] += col[j + 1] * s
        col[j + 1] = h = float(col[j + 1] * nu)
        # ||column j|| = ||Op|| of its vector: the breakdown test is
        # scale-free
        breakdown = h <= BREAKDOWN * math.sqrt(col[:j + 2] @ col[:j + 2])
        if not breakdown:
            vec /= nu
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

    def left_product(y, blocks, k, width):
        """y @ M[:k, :width] for the blocked V, H or Z as M, where y is one
        row of coefficients or a block of rows.  The block that holds row
        k-1 is the widest, so its product starts the sum; the sum is kept
        transposed, so that each narrower block adds to its leading rows."""
        j0 = (k - 1) // BASIS_BLOCK * BASIS_BLOCK
        out = blocks[j0 // BASIS_BLOCK][:k - j0, :width].T @ y[..., j0:k].T
        for j, M in leading(blocks, j0):
            M = M[:, :width]
            out[:M.shape[1]] += M.T @ y[..., j:j + len(M)].T
        return out.T

    def subtract_rows(B, P):
        """B[:, :width] -= P a row at a time: numpy would buffer the strided
        2-D update."""
        for b, p in zip(B, P):
            b[:len(p)] -= p

    def settle(e):
        """Turn the open columns first..e-1, the coefficients of Op(p_j),
        into the Arnoldi columns of the q_j.  With p_j = nu_j q_j + Q_j s_j
        they solve (D + S) H_open = U_open - S_old H[:first]: one product
        with the settled rows and one lower-triangular solve with the
        coefficients' diagonal block, D + S.  The product takes
        BASIS_BLOCK // 8 open rows at a time, so that its temporaries stay
        small.  The open rows of Z, P^-1 p_j, are settled the same way."""
        nonlocal first, coef
        if e > first:
            C, i = coef[:e - first], first % BASIS_BLOCK
            for blocks, width in [(H, first + 1), (Z, N)][:1 + flexible]:
                B = blocks[-1][i:i + len(C)]
                if first:
                    for r in range(0, len(C), BASIS_BLOCK // 8):
                        subtract_rows(B[r:], left_product(
                            C[r:r + BASIS_BLOCK // 8, :first], blocks, first,
                            width))
                # B = (D + S)^-1 B in place, on B^T in Fortran order: side,
                # lower, trans_a, diag and overwrite_b go by position
                dtrsm(1.0, C[:, first:e], B.T, 1, 1, 1, 0, 1)
        first, coef = e, None

    def solve_block(y, j0, Hb):
        """Solve R y = g for the unknowns of the Hessenberg block Hb, columns
        j0..top-1 of H, once the later unknowns' terms are off y = g: rotate
        a copy of the block column R[:top + 1, j0:top], solve its diagonal
        block and take the solved unknowns' terms off y[:j0].  A rotation of
        whole rows changes only entries below the diagonal of the columns
        left of it, which the solve never reads."""
        nb, top = len(Hb), j0 + len(Hb)
        Rb = Hb[:, :top + 1].T.copy()
        flat = Rb.reshape(-1)
        for off, c, sj in zip(range(0, top * nb, nb), cs, sn):
            # rotation j on rows j and j+1, at off and off + nb of flat; n,
            # offx, incx, offy, incy, overwrite_x and overwrite_y go by
            # position, as f2py's keyword parsing costs more than the call
            drot(flat, flat, c, sj, nb, off, 1, off + nb, 1, 1, 1)
        y[j0:top] = dtrsv(Rb[j0:top].T, y[j0:top], lower=1, trans=1)
        y[:j0] -= Rb[:j0] @ y[j0:top]

    def confirm(k, res, breakdown):
        """Assemble the iterate after k steps; returns it, its true residual,
        whether the solve converged and whether it stops.  It stops
        unconverged at breakdown, or once the monitored residual is at
        rounding level (<= BREAKDOWN): the least-squares problem is then
        solved, and later steps cannot move the iterate."""
        nonlocal n_matvec
        settle(k)
        lap("orthogonalize")
        y = np.array(g[:k])  # R y = g, the last block column of R first
        for j0, Hb in reversed(list(leading(H, k))):
            solve_block(y, j0, Hb)
        u = x0 + left_product(y, Z if flexible else V, k, N)
        n_matvec += 1
        tr = true_residual(sys, u, d)
        converged = res < tol and (not right or tr < tol)
        lap("confirm")
        return u, tr, converged, converged or breakdown or res <= BREAKDOWN

    def op(vec, z):
        """Op(vec) on the solve's side, its two applies timed apart; a
        flexible solve keeps P^-1 vec in the row z."""
        lap("orthogonalize")
        if right:
            vec = apply_p(vec)
            if flexible:
                z[:] = vec
            lap("precond_apply")
        vec = operator_apply(sys, vec)
        lap("operator_apply")
        if not right:
            vec = apply_p(vec)
            lap("precond_apply")
        return vec

    it = 0
    converged = False
    x = x0
    pending = False  # v_k has had one Gram-Schmidt pass, column k-1 waits
    for k in range(maxit):
        i = k % BASIS_BLOCK
        if i == 0:
            settle(k)  # the block is full
            V.append(np.empty((BASIS_BLOCK + 1, N)))
            V[-1][0] = V[-2][BASIS_BLOCK] if k else r0 / beta
            H.append(np.zeros((BASIS_BLOCK, k + BASIS_BLOCK + 1)))
            if flexible:
                Z.append(np.empty((BASIS_BLOCK, N)))
        X = V[-1][i:i + 2]
        v, w, col = X[0], X[1], H[-1][i]
        w[:] = op(v, Z[-1][i] if flexible else None)  # p_k = v
        n_matvec += 1
        n_apply += 1
        if pending:
            # one sweep: v's second pass (coefficients s) and w's first (z)
            s, z = project(k, X).T
            nu, res, breakdown = finalize(k - 1, v, s)
            it = k
            if res < tol or breakdown:
                x, true_res, converged, stop = confirm(it, res, breakdown)
                if stop:
                    break
            # column k is open: Op(p_k) = Q_k z + t q_k + ||w|| q_{k+1}
            col[:k] = z
            col[k] = t = float(v @ w)
            w -= t * v
        else:
            col[:k + 1] = project(k + 1, X[1:])[:, 0]
            s, nu = 0.0, 1.0
        if coef is None:  # room for the open columns left in the block
            end = min(k - i + BASIS_BLOCK, maxit)
            coef = np.zeros((end - k, end))
        coef[k - first, :k], coef[k - first, k] = s, nu
        col[k + 1] = h = math.sqrt(w @ w)
        breakdown = h <= BREAKDOWN * math.sqrt(col[:k + 2] @ col[:k + 2])
        if breakdown:
            col[k + 1] = 1.0  # the second pass runs on w unnormalized
        else:
            w /= h
        # the provisional rotation of column k only says when the residual
        # is about to be decided; the decision uses the finished column
        a = float(xi[:k + 1] @ col[:k + 1])
        pending = not (breakdown or k + 1 == maxit
                       or h * abs(g[k]) < tol * nd * math.hypot(a, h))
        if not pending:
            s = project(k + 1, X[1:])[:, 0]
            _, res, breakdown = finalize(k, w, s)
            it = k + 1
            if res < tol or breakdown or it == maxit:
                x, true_res, converged, stop = confirm(it, res, breakdown)
                if stop:
                    break

    lap("orthogonalize")
    return report(converged, it, x, true_res)


def stationary(sys: SaddlePointSystem, d, precond, tol=1e-6, maxit=20000,
               x0=None) -> SolveReport:
    """Run u <- u + P^{-1}(d - A u), P^{-1} r = ``precond``(r), from zero or
    ``x0`` until the relative true residual is below ``tol`` or ``maxit``
    steps are taken.  Raises ``Diverged`` past ``DIVERGENCE_THRESHOLD``,
    and ``gmres``'s ``ValueError`` on a bad ``tol``, ``maxit``, d or x0."""
    _check_tol_maxit(tol, maxit)
    t0 = time.perf_counter()
    d = _flat("rhs", d, sys.size)
    x = np.zeros(sys.size) if x0 is None else _flat("x0", x0, sys.size)
    phases = dict.fromkeys(PHASES, 0.0)

    def timed(phase, f, *args):
        mark = time.perf_counter()
        out = f(*args)
        phases[phase] += time.perf_counter() - mark
        return out

    nd = np.linalg.norm(d) or 1.0
    history = []
    for it in range(maxit + 1):
        r = d - timed("operator_apply", operator_apply, sys, x)
        res = float(np.linalg.norm(r) / nd)
        history.append(res)
        if res < tol:
            break
        if res > DIVERGENCE_THRESHOLD:
            raise Diverged(f"residual {res:.3e} exceeded "
                           f"{DIVERGENCE_THRESHOLD:.0e} after {it} iterations")
        if it == maxit:
            break
        x = x + timed("precond_apply", precond, r)
    return SolveReport(res < tol, it, res, np.asarray(history),
                       time.perf_counter() - t0, x, "right", res, it + 1, it,
                       phases)
