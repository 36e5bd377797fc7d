"""Spectra of preconditioned saddle operators and mechanical checks of the
eigenvalue-localization bounds of the shift-splitting family.

All checks are eigenvalue-only.  The non-real localization for the full
(shifted (1,1) block) scheme is stated in two parts whose selection depends
on the eigenvector; since only eigenvalues are available, the check asserts
the disjunction: every non-real eigenvalue satisfies part (1) or part (2).

Scalar extremes feeding the bounds, for shifts L1, L2, L3:

    xi       : eig extremes of L1^{-1} A
    eta      : eig extremes of L2^{-1} B L1^{-1} B^T
    vartheta : eig extremes of L2^{-1} Q,  Q = B A^{-1} B^T
    theta~   : eig extremes of L3^{-1} C L2^{-1} C^T; the max is also that
               of L2^{-1} C^T L3^{-1} C, the non-real bounds' theta max

The theta~ convention was fixed by calibrating against the published table
of bound values; the choice is recorded in report metadata.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .dense import ConvergenceFailure, norm2, require_spd
from .precond import (BLOCK_COLUMNS, GssConfig, gss_matrix, operand_sparse,
                      schur, sigma_matrix, solve_columns)
from .system import SaddlePointSystem, require_densifiable

THETA_TILDE_CONVENTION = "lambda3_inv_C_lambda2_inv_Ct"

CLASSIFY_TOL = 1e-8  # |Im| threshold separating real from non-real
CLUSTER_TOL = 1e-8  # distance from 1/s that counts toward lpess's cluster
MEMBERSHIP_SLACK = 1e-6
MU_GUARD = 1e-12


class InapplicableBound(ValueError):
    """The requested bound does not apply to this configuration."""


@dataclass(frozen=True)
class ScalarExtremes:
    xi_max: float = None
    xi_min: float = None
    eta_max: float = None
    eta_min: float = None
    vartheta_max: float = None
    vartheta_min: float = None
    theta_tilde_max: float = None
    theta_tilde_min: float = None


@dataclass(frozen=True)
class BoundReport:
    theorem: str
    bounds: dict
    holds: bool
    violations: tuple  # of (eigenvalue, margin)
    metadata: dict = field(default_factory=dict)


def _solved_eigvals(sys: SaddlePointSystem, order: int, solve, columns):
    """eig of the order x order array ``solve_columns``(solve, columns()),
    which it overwrites, refused above the densification guard before either
    is called; a LAPACK failure becomes ``ConvergenceFailure``."""
    require_densifiable(sys, order)
    M = solve_columns(solve, columns(), BLOCK_COLUMNS)
    try:
        return sla.eigvals(M, overwrite_a=True)
    except sla.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceFailure(str(exc)) from exc


def preconditioned_spectrum(sys: SaddlePointSystem, precond=None) -> np.ndarray:
    """Unordered complex eigenvalues of P^{-1} A (or of A without ``precond``,
    a callable solving P W = R for a multi-column R)."""
    return _solved_eigvals(sys, sys.size, precond or (lambda R: R),
                           lambda: sys.matrix)


def shift_spectrum(sys: SaddlePointSystem, cfg: GssConfig) -> np.ndarray:
    """nu = eig(A^{-1} Sigma) from ``_solved_eigvals`` around the system's
    ``matrix_lu``, so that eig(P^{-1} A) = 1/(s + nu) and eig(Sigma^{-1} A)
    = 1/nu.  A dropped L1 zeroes n columns, so n zeros nu are left out and
    eig runs on the (m+p) block, the order the guard reads."""
    k = 0 if cfg.is_pess else sys.n
    return _solved_eigvals(sys, sys.size - k,
                           lambda R: sys.matrix_lu.solve(R)[k:],
                           lambda: sigma_matrix(sys, cfg)[:, k:])


def s_critical(nu) -> float:
    """1/2 - min Re nu, nu = eig(A^{-1} Sigma): 1/(s + nu) lies in the unit
    disk around 1, and the stationary iteration converges, iff s exceeds it."""
    return float(0.5 - np.min(np.real(nu)))


@dataclass(frozen=True)
class PredicateReport:
    holds: bool
    s_critical: float


def convergence_predicate(sys: SaddlePointSystem,
                          cfg: GssConfig) -> PredicateReport:
    """Whether the stationary iteration converges: s > ``s_critical`` of
    ``shift_spectrum``, for an SPD Sigma (ValueError without L1)."""
    if not cfg.is_pess:
        raise ValueError("predicate needs an SPD (1,1) shift")
    require_spd(sigma_matrix(sys, cfg), "Sigma")
    s_crit = s_critical(shift_spectrum(sys, cfg))
    return PredicateReport(bool(cfg.s > s_crit), s_crit)


def _pencil_extremes(S, T):
    """Smallest and largest eigenvalue of T^{-1} S for a dense symmetric S
    and a sparse SPD T already passed through ``require_spd``."""
    w = sla.eigh(S, T.toarray(), eigvals_only=True)
    return float(w[0]), float(w[-1])


def scalar_extremes(sys: SaddlePointSystem, cfg: GssConfig) -> ScalarExtremes:
    """Generalized-eigenvalue extremes of the symmetric pairs behind the
    localization bounds.  xi and eta need an SPD L1; the vartheta / theta~
    pair covers the dropped-shift scheme.  The Schur-type matrices come from
    ``precond.schur`` on the sparse B and C.  Refused before any work above
    the densification guard on n with L1 (dense A) or m without."""
    require_densifiable(sys, sys.n if cfg.lambda1 is not None else sys.m)
    # every shift passes require_spd (the symmetry and SPD test) before it
    # meets eigh, which reads one triangle and raises no typed error; L3 is
    # never solved with here, but it is the theta~ pencil's T
    lam2 = operand_sparse(cfg.lambda2, sys.m)
    lam3 = operand_sparse(cfg.lambda3, sys.p)
    lam2_lu = require_spd(lam2, "lambda2")
    require_spd(lam3, "lambda3")
    xi_max = xi_min = eta_max = eta_min = None
    if cfg.lambda1 is not None:
        lam1 = operand_sparse(cfg.lambda1, sys.n)
        lam1_lu = require_spd(lam1, "lambda1")
        xi_min, xi_max = _pencil_extremes(sys.A.toarray(), lam1)
        eta_min, eta_max = _pencil_extremes(schur(sys.B, lam1_lu.solve), lam2)

    vartheta_min, vartheta_max = _pencil_extremes(
        schur(sys.B, sys.a_lu.solve), lam2)
    theta_tilde_min, theta_tilde_max = _pencil_extremes(
        schur(sys.C, lam2_lu.solve), lam3)

    return ScalarExtremes(xi_max, xi_min, eta_max, eta_min, vartheta_max,
                          vartheta_min, theta_tilde_max, theta_tilde_min)


def require_extreme(extremes: ScalarExtremes, name: str) -> float:
    val = getattr(extremes, name)
    if val is None:
        raise InapplicableBound(f"extreme {name} unavailable (dropped shift?)")
    return val


# -- individual bound checks --------------------------------------------


def _is_real(lam):
    return np.abs(lam.imag) <= CLASSIFY_TOL


def _outside(x, lo, hi):
    """Distance of x outside [lo, hi], elementwise: positive outside,
    non-positive inside."""
    return np.maximum(lo - x, x - hi)


def _report(theorem, bounds, lam, margin, bad, metadata, holds=True):
    """BoundReport of a check on whole arrays: ``margin`` is how far each
    eigenvalue of ``lam`` lies outside its region (<= 0 inside) and ``bad``
    applies the check's slack and endpoints; ``holds`` carries any further
    condition of the check."""
    violations = tuple(zip(np.asarray(lam, dtype=np.complex128)[bad].tolist(),
                           margin[bad].tolist()))
    return BoundReport(theorem, bounds, holds and not violations, violations,
                       metadata)


def check_unit_disk(spectrum, s: float) -> BoundReport:
    """|lambda - 1| < 1: the spectrum sits in the open unit disk centered at
    (1, 0) iff s > ``s_critical``.  The circle is outside: lambda = 1/s = 2
    at s = 1/2 with L1 dropped, where rho(P^{-1} Q) = 1, is a violation."""
    lam = np.asarray(spectrum, dtype=np.complex128)
    dist = np.abs(lam - 1.0)
    return _report("unit-disk", {"center": 1.0, "radius": 1.0}, lam,
                   dist - 1.0, dist >= 1.0, {"s": s})


def pess_real_interval(extremes: ScalarExtremes, s: float):
    """Real preconditioned eigenvalues lie in (0, xi_max/(1 + s xi_max)]."""
    xi_max = require_extreme(extremes, "xi_max")
    return (0.0, xi_max / (1.0 + s * xi_max))


def check_real_interval(spectrum, extremes: ScalarExtremes, s: float) -> BoundReport:
    lo, hi = pess_real_interval(extremes, s)
    lam = np.asarray(spectrum, dtype=np.complex128)
    real = lam[_is_real(lam)].real
    # open at lo, closed at hi
    bad = (real <= lo - 1e-9) | (real > hi + 1e-9)
    return _report("real-interval", {"lower_open": lo, "upper": hi}, real,
                   _outside(real, lo, hi), bad,
                   {"s": s, "count_real": int(real.size)})


def pess_nonreal_bounds(extremes: ScalarExtremes, s: float) -> dict:
    """Bound values of the two-part non-real localization."""
    xi_max, xi_min, eta_max, eta_min, theta_tilde_max = (
        require_extreme(extremes, k)
        for k in ("xi_max", "xi_min", "eta_max", "eta_min", "theta_tilde_max"))
    return {
        "mod_lower": xi_min / (2.0 + s * xi_min),
        "mod_upper": np.sqrt(eta_max / (1.0 + s * xi_min + s**2 * eta_max)),
        "re_mu_lower": xi_min * eta_min
        / (2.0 * (xi_max**2 + eta_max + theta_tilde_max)),
        "re_mu_upper": xi_max / 2.0,
        "im_mu_bound": np.sqrt(eta_max + theta_tilde_max),
    }


def _nonreal_disjunction(nonreal, mu, b: dict, s: float) -> BoundReport:
    """The disjunction on the non-real eigenvalues and their mu, with ``b``
    from ``pess_nonreal_bounds``."""
    part1 = _outside(np.abs(nonreal), b["mod_lower"], b["mod_upper"])
    part2 = np.maximum(_outside(mu.real, b["re_mu_lower"], b["re_mu_upper"]),
                       np.abs(mu.imag) - b["im_mu_bound"])
    margin = np.minimum(part1, part2)
    bad = margin > MEMBERSHIP_SLACK
    branch = np.where(part1 <= MEMBERSHIP_SLACK, 1, 2)
    return _report("nonreal-disjunction", b, nonreal, margin, bad,
                   {"s": s, "count_nonreal": int(nonreal.size),
                    "branches": list(zip(nonreal[~bad].tolist(),
                                         branch[~bad].tolist()))})


def check_pess_nonreal(spectrum, extremes: ScalarExtremes, s: float) -> BoundReport:
    """Each non-real eigenvalue must satisfy the modulus window (part 1) or
    the mu-plane box (part 2), mu = lambda / (1 - s lambda) off its pole."""
    b = pess_nonreal_bounds(extremes, s)
    lam = np.asarray(spectrum, dtype=np.complex128)
    nonreal = lam[~_is_real(lam)]
    denom = 1.0 - s * nonreal
    if np.any(np.abs(denom) <= MU_GUARD):
        raise ValueError("eigenvalue too close to 1/s for the mu-transform")
    return _nonreal_disjunction(nonreal, nonreal / denom, b, s)


def lpess_bound_values(extremes: ScalarExtremes, s: float) -> dict:
    vmin, vmax, ttmin, ttmax = (require_extreme(extremes, k) for k in (
        "vartheta_min", "vartheta_max", "theta_tilde_min", "theta_tilde_max"))
    return {
        "real_lower": min(vmin / (1.0 + s * vmin),
                          ttmin / (vmax + s * ttmin)),
        "real_upper": vmax / (1.0 + s * vmax),
        "mod_lower": vmin / (2.0 + s * vmin),
        "mod_upper": np.sqrt(ttmax / (1.0 + s * vmin + s**2 * ttmax)),
        "annulus_lower": 1.0 / (s * (1.0 + s * np.sqrt(ttmax))),
        "annulus_upper": 2.0 / (s * (2.0 + s * vmin)),
        # Localization of every real eigenvalue including the 1/s cluster:
        # the non-cluster upper endpoint vmax/(1+s vmax) is always below 1/s,
        # so the full-spectrum real interval closes at 1/s itself.
        "real_upper_with_cluster": 1.0 / s,
    }


def lpess_bounds(spectrum, extremes: ScalarExtremes, s: float,
                 n: int) -> BoundReport:
    """Dropped-shift localization: (a) n eigenvalues clustered at 1/s,
    (b) remaining real eigenvalues in the stated interval, (c) remaining
    non-real eigenvalues in the modulus window and the annulus around 1/s."""
    b = lpess_bound_values(extremes, s)
    lam = np.asarray(spectrum, dtype=np.complex128)
    at_inv_s = np.abs(lam - 1.0 / s) <= CLUSTER_TOL
    multiplicity = int(np.count_nonzero(at_inv_s))
    rest = lam[~at_inv_s]
    real = _is_real(rest)
    margin = np.where(
        real, _outside(rest.real, b["real_lower"], b["real_upper"]),
        np.maximum(_outside(np.abs(rest), b["mod_lower"], b["mod_upper"]),
                   _outside(np.abs(rest - 1.0 / s), b["annulus_lower"],
                            b["annulus_upper"])))
    # a real eigenvalue is reported by its real part
    return _report(
        "lpess", b, np.where(real, rest.real, rest), margin,
        margin > MEMBERSHIP_SLACK,
        {"s": s, "n": n, "multiplicity": multiplicity,
         "cluster_tol": CLUSTER_TOL,
         "count_real": int(np.count_nonzero(real)),
         "count_nonreal": int(np.count_nonzero(~real)),
         "theta_tilde_convention": THETA_TILDE_CONVENTION},
        holds=multiplicity >= n)


def analyze(sys: SaddlePointSystem, cfg: GssConfig):
    """(spectrum, extremes, reports) of P^{-1} A for the shift-splitting P
    of ``cfg``, which is never built.  The checks follow the config: the
    unit disk, then the real interval and the non-real disjunction if L1
    is kept, or the dropped-shift bounds; each found as a module global.
    The spectrum is 1/(s + nu) over ``shift_spectrum`` (nu = 0 n times if
    L1 is dropped), the unit disk reports their ``s_critical``, and part
    (2) reads mu = 1/nu, which lambda/(1 - s lambda) blurs near 1/s.  The
    spectrum comes first: above the densification guard no work is done."""
    s, nu = cfg.s, shift_spectrum(sys, cfg)
    nu = np.r_[np.zeros(sys.size - nu.size), nu]
    spec = 1.0 / (s + nu)
    ext = scalar_extremes(sys, cfg)
    disk = check_unit_disk(spec, s)
    disk = replace(disk, metadata={**disk.metadata,
                                   "s_critical": s_critical(nu)})
    if not cfg.is_pess:
        return spec, ext, (disk, lpess_bounds(spec, ext, s, sys.n))
    nonreal = ~_is_real(spec)
    return spec, ext, (disk, check_real_interval(spec, ext, s),
                       _nonreal_disjunction(spec[nonreal], 1.0 / nu[nonreal],
                                            pess_nonreal_bounds(ext, s), s))


def condition_number(sys: SaddlePointSystem, precond=None) -> float:
    """Two-norm condition number sigma_max(M) sigma_max(M^{-1}) of
    M = P^{-1} A for the shift-splitting P of ``build``, or of A itself
    without ``precond``.  Both singular values come from ARPACK on sparse
    operators around the system's ``matrix_lu``, P's ``lu`` and P itself,
    from ``gss_matrix`` once per call: nothing is densified, no size limit."""
    A, P, lu = sys.matrix, precond, sys.matrix_lu

    def op(fwd, adj):  # x -> M x and x -> M^T x
        return spla.LinearOperator(A.shape, fwd, adj, dtype=np.float64)

    if P is None:
        return norm2(A) * norm2(op(lu.solve, lambda x: lu.solve(x, trans="T")))
    M = op(lambda x: P(A @ x), lambda x: A.T @ P.lu.solve(x, trans="T"))
    Pmat = gss_matrix(sys, P.cfg)
    M_inv = op(lambda x: lu.solve(Pmat @ x),
               lambda x: Pmat.T @ lu.solve(x, trans="T"))
    return norm2(M) * norm2(M_inv)


# -- serialization -------------------------------------------------------


def write_eigenvalue_csv(spectrum, path):
    """Scatter data: re, im, classification (real | nonreal)."""
    lam = np.asarray(spectrum, dtype=np.complex128)
    tags = np.where(_is_real(lam), "real", "nonreal")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["re", "im", "classification"])
        w.writerows(zip(map(repr, lam.real.tolist()),
                        map(repr, lam.imag.tolist()), tags.tolist()))
