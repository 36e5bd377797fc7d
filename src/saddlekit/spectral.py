"""Spectra of preconditioned saddle operators and mechanical checks of the
eigenvalue-localization bounds of the shift-splitting family.

All checks are eigenvalue-only.  The non-real localization for the full
(shifted (1,1) block) scheme is stated in two parts whose selection depends
on the eigenvector; since only eigenvalues are available, the check asserts
the disjunction: every non-real eigenvalue satisfies part (1) or part (2).

Scalar extremes feeding the bounds, for shifts L1, L2, L3:

    xi       : eig extremes of L1^{-1} A
    eta      : eig extremes of L2^{-1} B L1^{-1} B^T
    theta_max: max eig of L2^{-1} C^T L3^{-1} C
    vartheta : eig extremes of L2^{-1} Q,  Q = B A^{-1} B^T
    theta~   : eig extremes of L3^{-1} C L2^{-1} C^T

The theta~ convention was fixed by calibrating against the published table
of bound values; the choice is recorded in report metadata.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .dense import cond2, eig_general, require_spd
from .precond import GssConfig, operand_sparse
from .system import SaddlePointSystem, to_dense

THETA_TILDE_CONVENTION = "lambda3_inv_C_lambda2_inv_Ct"

CLASSIFY_TOL = 1e-8  # |Im| threshold separating real from non-real
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
    theta_max: float = None
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


def preconditioned_spectrum(sys: SaddlePointSystem, precond=None) -> np.ndarray:
    """Unordered complex eigenvalues of P^{-1} A, densified column by column
    (or of A itself when no preconditioner is given).  ``precond`` is a
    callable solving P W = R for a multi-column R."""
    M = to_dense(sys)
    if precond is not None:
        M = precond(M)
    return eig_general(M)


def _pencil_extremes(S, T):
    """Smallest and largest eigenvalue of T^{-1} S for symmetric S and an
    SPD T that the caller has already passed through ``require_spd``."""
    w = sla.eigh(S, T, eigvals_only=True)
    return float(w[0]), float(w[-1])


def _sym(M):
    return 0.5 * (M + M.T)


def scalar_extremes(sys: SaddlePointSystem, cfg: GssConfig) -> ScalarExtremes:
    """Generalized-eigenvalue extremes of the symmetric pairs behind the
    localization bounds.  xi and eta need an SPD L1; the vartheta / theta~
    pair covers the dropped-shift scheme."""
    Bd = sys.B.toarray()
    Cd = sys.C.toarray()

    # every shift passes require_spd (the symmetry and SPD test) before it
    # meets eigh, which reads one triangle and raises no typed error
    lam2 = operand_sparse(cfg.lambda2, sys.m)
    lam3 = operand_sparse(cfg.lambda3, sys.p)
    lam2_lu = require_spd(lam2, "lambda2")
    lam3_lu = require_spd(lam3, "lambda3")
    lam2d = lam2.toarray()
    xi_max = xi_min = eta_max = eta_min = None
    if cfg.lambda1 is not None:
        lam1 = operand_sparse(cfg.lambda1, sys.n)
        lam1_lu = require_spd(lam1, "lambda1")
        xi_min, xi_max = _pencil_extremes(sys.A.toarray(), lam1.toarray())
        eta_min, eta_max = _pencil_extremes(_sym(Bd @ lam1_lu.solve(Bd.T)),
                                            lam2d)

    theta_max = _pencil_extremes(_sym(Cd.T @ lam3_lu.solve(Cd)), lam2d)[1]
    vartheta_min, vartheta_max = _pencil_extremes(
        _sym(Bd @ require_spd(sys.A, "A").solve(Bd.T)), lam2d)
    theta_tilde_min, theta_tilde_max = _pencil_extremes(
        _sym(Cd @ lam2_lu.solve(Cd.T)), lam3.toarray())

    return ScalarExtremes(xi_max, xi_min, eta_max, eta_min, theta_max,
                          vartheta_max, vartheta_min,
                          theta_tilde_max, theta_tilde_min)


def require_extreme(extremes: ScalarExtremes, name: str) -> float:
    val = getattr(extremes, name)
    if val is None:
        raise InapplicableBound(f"extreme {name} unavailable (dropped shift?)")
    return val


# -- individual bound checks --------------------------------------------


def check_unit_disk(spectrum, s: float) -> BoundReport:
    """|lambda - 1| < 1: the preconditioned spectrum sits in the open unit
    disk centered at (1, 0) whenever s >= 1/2."""
    lam = np.asarray(spectrum, dtype=np.complex128)
    dist = np.abs(lam - 1.0)
    bad = dist >= 1.0 + 1e-9
    violations = tuple((complex(l), float(d - 1.0)) for l, d in
                       zip(lam[bad], dist[bad]))
    return BoundReport("unit-disk", {"center": 1.0, "radius": 1.0},
                       not violations, violations, {"s": s})


def pess_real_interval(extremes: ScalarExtremes, s: float):
    """Real preconditioned eigenvalues lie in (0, xi_max/(1 + s xi_max)]."""
    xi_max = require_extreme(extremes, "xi_max")
    return (0.0, xi_max / (1.0 + s * xi_max))


def check_real_interval(spectrum, extremes: ScalarExtremes, s: float) -> BoundReport:
    lo, hi = pess_real_interval(extremes, s)
    lam = np.asarray(spectrum, dtype=np.complex128)
    real = lam[np.abs(lam.imag) <= CLASSIFY_TOL].real
    violations = []
    for v in real:
        margin = max(lo - v, v - hi)
        if v <= lo - 1e-9 or v > hi + 1e-9:
            violations.append((complex(v), float(margin)))
    return BoundReport("real-interval", {"lower_open": lo, "upper": hi},
                       not violations, tuple(violations),
                       {"s": s, "count_real": int(real.size)})


def mu_transform(lam, s: float):
    """mu = lambda / (1 - s lambda), guarded away from the pole."""
    lam = np.asarray(lam, dtype=np.complex128)
    denom = 1.0 - s * lam
    if np.any(np.abs(denom) <= MU_GUARD):
        raise ValueError("eigenvalue too close to 1/s for the mu-transform")
    return lam / denom


def pess_nonreal_bounds(extremes: ScalarExtremes, s: float) -> dict:
    """Bound values of the two-part non-real localization."""
    xi_max = require_extreme(extremes, "xi_max")
    xi_min = require_extreme(extremes, "xi_min")
    eta_max = require_extreme(extremes, "eta_max")
    eta_min = require_extreme(extremes, "eta_min")
    theta_max = require_extreme(extremes, "theta_max")
    return {
        "mod_lower": xi_min / (2.0 + s * xi_min),
        "mod_upper": np.sqrt(eta_max / (1.0 + s * xi_min + s**2 * eta_max)),
        "re_mu_lower": xi_min * eta_min
        / (2.0 * (xi_max**2 + eta_max + theta_max)),
        "re_mu_upper": xi_max / 2.0,
        "im_mu_bound": np.sqrt(eta_max + theta_max),
    }


def check_pess_nonreal(spectrum, extremes: ScalarExtremes, s: float) -> BoundReport:
    """Each non-real eigenvalue must satisfy the modulus window (part 1) or
    the mu-plane box (part 2)."""
    b = pess_nonreal_bounds(extremes, s)
    lam = np.asarray(spectrum, dtype=np.complex128)
    nonreal = lam[np.abs(lam.imag) > CLASSIFY_TOL]
    branch = []
    violations = []
    for v in nonreal:
        part1 = (b["mod_lower"] - MEMBERSHIP_SLACK <= abs(v)
                 <= b["mod_upper"] + MEMBERSHIP_SLACK)
        mu = mu_transform(v, s)
        part2 = (b["re_mu_lower"] - MEMBERSHIP_SLACK <= mu.real
                 <= b["re_mu_upper"] + MEMBERSHIP_SLACK
                 and abs(mu.imag) <= b["im_mu_bound"] + MEMBERSHIP_SLACK)
        if part1 or part2:
            branch.append((complex(v), 1 if part1 else 2))
        else:
            margin = min(
                max(b["mod_lower"] - abs(v), abs(v) - b["mod_upper"]),
                max(b["re_mu_lower"] - mu.real, mu.real - b["re_mu_upper"],
                    abs(mu.imag) - b["im_mu_bound"]),
            )
            violations.append((complex(v), float(margin)))
    return BoundReport("nonreal-disjunction", b, not violations,
                       tuple(violations),
                       {"s": s, "count_nonreal": int(nonreal.size),
                        "branches": branch})


def lpess_bound_values(extremes: ScalarExtremes, s: float) -> dict:
    vmin = require_extreme(extremes, "vartheta_min")
    vmax = require_extreme(extremes, "vartheta_max")
    ttmin = require_extreme(extremes, "theta_tilde_min")
    ttmax = require_extreme(extremes, "theta_tilde_max")
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


def lpess_bounds(spectrum, extremes: ScalarExtremes, s: float, n: int,
                 cluster_tol=1e-8) -> BoundReport:
    """Dropped-shift localization: (a) n eigenvalues clustered at 1/s,
    (b) remaining real eigenvalues in the stated interval, (c) remaining
    non-real eigenvalues in the modulus window and the annulus around 1/s."""
    b = lpess_bound_values(extremes, s)
    lam = np.asarray(spectrum, dtype=np.complex128)
    at_inv_s = np.abs(lam - 1.0 / s) <= cluster_tol
    multiplicity = int(np.count_nonzero(at_inv_s))
    rest = lam[~at_inv_s]
    real = rest[np.abs(rest.imag) <= CLASSIFY_TOL].real
    nonreal = rest[np.abs(rest.imag) > CLASSIFY_TOL]

    violations = []
    for v in real:
        if (v < b["real_lower"] - MEMBERSHIP_SLACK
                or v > b["real_upper"] + MEMBERSHIP_SLACK):
            violations.append((complex(v),
                               float(max(b["real_lower"] - v, v - b["real_upper"]))))
    for v in nonreal:
        mod_ok = (b["mod_lower"] - MEMBERSHIP_SLACK <= abs(v)
                  <= b["mod_upper"] + MEMBERSHIP_SLACK)
        ring = abs(v - 1.0 / s)
        ann_ok = (b["annulus_lower"] - MEMBERSHIP_SLACK <= ring
                  <= b["annulus_upper"] + MEMBERSHIP_SLACK)
        if not (mod_ok and ann_ok):
            margin = max(b["mod_lower"] - abs(v), abs(v) - b["mod_upper"],
                         b["annulus_lower"] - ring, ring - b["annulus_upper"])
            violations.append((complex(v), float(margin)))

    holds = multiplicity >= n and not violations
    return BoundReport(
        "lpess", b, holds, tuple(violations),
        {"s": s, "n": n, "multiplicity": multiplicity,
         "cluster_tol": cluster_tol,
         "count_real": int(real.size), "count_nonreal": int(nonreal.size),
         "theta_tilde_convention": THETA_TILDE_CONVENTION})


def condition_number(sys: SaddlePointSystem, precond=None) -> float:
    """Two-norm condition number of the densified (preconditioned) operator."""
    M = to_dense(sys)
    if precond is not None:
        M = precond(M)
    return cond2(M)


# -- serialization -------------------------------------------------------


def report_to_dict(report: BoundReport) -> dict:
    def enc(v):
        if isinstance(v, complex):
            return {"re": v.real, "im": v.imag}
        if isinstance(v, np.floating):
            return float(v)
        if isinstance(v, (list, tuple)):
            return [enc(x) for x in v]
        if isinstance(v, dict):
            return {k: enc(x) for k, x in v.items()}
        return v

    return {
        "theorem": report.theorem,
        "bounds": enc(report.bounds),
        "holds": report.holds,
        "violations": enc(list(report.violations)),
        "metadata": enc(report.metadata),
    }


def write_spectral_report(reports, path):
    with open(path, "w") as fh:
        json.dump([report_to_dict(r) for r in reports], fh, indent=2)


def write_eigenvalue_csv(spectrum, path):
    """Scatter data: re, im, classification (real | nonreal)."""
    lam = np.asarray(spectrum, dtype=np.complex128)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["re", "im", "classification"])
        for v in lam:
            tag = "real" if abs(v.imag) <= CLASSIFY_TOL else "nonreal"
            w.writerow([repr(float(v.real)), repr(float(v.imag)), tag])
