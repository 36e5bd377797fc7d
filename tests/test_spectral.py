"""Spectral localization machinery: extremes vs brute-force oracles, the
unit-disk / real-interval / non-real checks on randomized systems, and the
report serialization."""

import json

import numpy as np
import pytest

from saddlekit.dense import NotPositiveDefinite
from saddlekit.precond import build, make_config
from saddlekit.spectral import (InapplicableBound, check_pess_nonreal,
                                check_real_interval, check_unit_disk,
                                condition_number, lpess_bound_values,
                                lpess_bounds, mu_transform,
                                pess_nonreal_bounds, pess_real_interval,
                                preconditioned_spectrum, report_to_dict,
                                scalar_extremes, write_eigenvalue_csv,
                                write_spectral_report)
from saddlekit.system import to_dense

from conftest import random_system


def pess_cfg(s, lam3=0.001):
    return make_config("pess", lambda1=1.0, lambda2=1.0, lambda3=lam3, s=s)


def lpess_cfg(s, lam3=0.001):
    return make_config("lpess", lambda2=1.0, lambda3=lam3, s=s)


# -- spectrum computation -------------------------------------------------


def test_exact_inverse_gives_all_ones(small_system):
    M = to_dense(small_system)
    spec = preconditioned_spectrum(small_system,
                                   lambda r: np.linalg.solve(M, r))
    assert np.allclose(spec, 1.0, atol=1e-8)


def test_spectrum_matches_dense_oracle(small_system):
    cfg = pess_cfg(2.0)
    P = build(small_system, cfg)
    spec = preconditioned_spectrum(small_system, P)
    ref = np.linalg.eigvals(np.linalg.solve(P.matrix.toarray(),
                                            to_dense(small_system)))
    assert np.allclose(np.sort_complex(spec),
                       np.sort_complex(ref), atol=1e-8)


def test_unpreconditioned_spectrum(small_system):
    spec = preconditioned_spectrum(small_system)
    ref = np.linalg.eigvals(to_dense(small_system))
    assert np.allclose(np.sort_complex(spec),
                       np.sort_complex(ref), atol=1e-8)


# -- scalar extremes vs brute force ---------------------------------------


def test_scalar_extremes_oracle(small_system):
    cfg = make_config("pess", lambda1=2.0, lambda2=3.0, lambda3=0.5, s=1.0)
    ex = scalar_extremes(small_system, cfg)
    A = small_system.A.toarray()
    B = small_system.B.toarray()
    C = small_system.C.toarray()
    xi = np.linalg.eigvalsh(A) / 2.0
    assert ex.xi_min == pytest.approx(xi[0], rel=1e-9)
    assert ex.xi_max == pytest.approx(xi[-1], rel=1e-9)
    eta = np.linalg.eigvalsh(B @ B.T / 2.0) / 3.0
    assert ex.eta_min == pytest.approx(eta[0], rel=1e-9, abs=1e-12)
    assert ex.eta_max == pytest.approx(eta[-1], rel=1e-9)
    theta = np.linalg.eigvalsh(C.T @ C / 0.5) / 3.0
    assert ex.theta_max == pytest.approx(theta[-1], rel=1e-9)
    vth = np.linalg.eigvalsh(B @ np.linalg.solve(A, B.T)) / 3.0
    assert ex.vartheta_min == pytest.approx(vth[0], rel=1e-9)
    assert ex.vartheta_max == pytest.approx(vth[-1], rel=1e-9)
    tt = np.linalg.eigvalsh(C @ C.T / 3.0) / 0.5
    assert ex.theta_tilde_min == pytest.approx(tt[0], rel=1e-9)
    assert ex.theta_tilde_max == pytest.approx(tt[-1], rel=1e-9)


def test_dropped_shift_extremes_are_none(small_system):
    ex = scalar_extremes(small_system, lpess_cfg(2.0))
    assert ex.xi_max is None and ex.eta_min is None
    assert ex.vartheta_min is not None
    with pytest.raises(InapplicableBound):
        pess_real_interval(ex, 2.0)
    with pytest.raises(InapplicableBound):
        pess_nonreal_bounds(ex, 2.0)


def test_scalar_extremes_rejects_bad_dense_shifts(small_system):
    # each shift is checked before it reaches the generalized eigensolver
    indefinite = np.diag(np.r_[-1.0, np.ones(small_system.n - 1)])
    cfg = make_config("pess", lambda1=indefinite, lambda2=1.0, lambda3=0.5,
                      s=1.0)
    with pytest.raises(NotPositiveDefinite):
        scalar_extremes(small_system, cfg)
    asymmetric = np.eye(small_system.m)
    asymmetric[0, 1] = 0.5
    cfg = make_config("pess", lambda1=1.0, lambda2=asymmetric, lambda3=0.5,
                      s=1.0)
    with pytest.raises(ValueError):
        scalar_extremes(small_system, cfg)


# -- bound formulas --------------------------------------------------------


def test_mu_transform_inverse():
    lam = np.array([0.3 + 0.2j, 0.1 - 0.4j])
    s = 2.0
    mu = mu_transform(lam, s)
    # inverse map: lambda = mu / (1 + s mu)
    assert np.allclose(mu / (1 + s * mu), lam)
    with pytest.raises(ValueError):
        mu_transform(np.array([1.0 / s]), s)


def test_lpess_bound_values_formulas():
    from saddlekit.spectral import ScalarExtremes
    ex = ScalarExtremes(vartheta_min=0.1, vartheta_max=1.0,
                        theta_tilde_min=0.5, theta_tilde_max=2.0)
    s = 4.0
    b = lpess_bound_values(ex, s)
    assert b["real_upper"] == pytest.approx(1.0 / 5.0)
    assert b["real_lower"] == pytest.approx(min(0.1 / 1.4, 0.5 / 3.0))
    assert b["mod_lower"] == pytest.approx(0.1 / 2.4)
    assert b["mod_upper"] == pytest.approx(np.sqrt(2.0 / (1 + 0.4 + 32.0)))
    assert b["annulus_lower"] == pytest.approx(1 / (4 * (1 + 4 * np.sqrt(2))))
    assert b["annulus_upper"] == pytest.approx(2 / (4 * 2.4))
    # the non-cluster real upper endpoint never reaches the cluster at 1/s
    assert b["real_upper"] < b["real_upper_with_cluster"] == pytest.approx(0.25)


# -- localization checks on randomized systems ------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_localization_on_random_systems(seed):
    """Unit disk + positive real parts + real interval + non-real
    disjunction, all for s >= 1/2."""
    rng = np.random.default_rng(500 + seed)
    sysv = random_system(rng, n=10, m=6, p=4)
    s = [0.5, 1.0, 2.0, 5.0][seed % 4]
    cfg = pess_cfg(s)
    P = build(sysv, cfg)
    spec = preconditioned_spectrum(sysv, P)
    ex = scalar_extremes(sysv, cfg)

    disk = check_unit_disk(spec, s)
    assert disk.holds, disk.violations
    # positivity: every eigenvalue has positive real part
    assert np.all(spec.real > 0)
    ri = check_real_interval(spec, ex, s)
    assert ri.holds, ri.violations
    nr = check_pess_nonreal(spec, ex, s)
    assert nr.holds, nr.violations
    assert ri.metadata["count_real"] + nr.metadata["count_nonreal"] == len(spec)


@pytest.mark.parametrize("seed", range(10))
def test_lpess_localization_on_random_systems(seed):
    rng = np.random.default_rng(900 + seed)
    sysv = random_system(rng, n=10, m=6, p=4)
    s = [1.0, 2.0, 4.0][seed % 3]
    cfg = lpess_cfg(s)
    spec = preconditioned_spectrum(sysv, build(sysv, cfg))
    ex = scalar_extremes(sysv, cfg)
    rep = lpess_bounds(spec, ex, s, sysv.n, cluster_tol=1e-6)
    assert rep.holds, (rep.violations, rep.metadata)
    assert rep.metadata["multiplicity"] >= sysv.n
    assert rep.metadata["theta_tilde_convention"]


# -- condition number --------------------------------------------------------


def test_condition_number_oracle(small_system):
    M = to_dense(small_system)
    assert condition_number(small_system) == pytest.approx(
        np.linalg.cond(M, 2), rel=1e-8)
    P = build(small_system, pess_cfg(2.0))
    PM = np.linalg.solve(P.matrix.toarray(), M)
    assert condition_number(small_system, P) == pytest.approx(
        np.linalg.cond(PM, 2), rel=1e-6)
    # preconditioning improves conditioning here
    assert condition_number(small_system, P) < condition_number(small_system)


# -- serialization -----------------------------------------------------------


def test_report_round_trip(small_system, tmp_path):
    cfg = pess_cfg(2.0)
    spec = preconditioned_spectrum(small_system, build(small_system, cfg))
    ex = scalar_extremes(small_system, cfg)
    reports = [check_unit_disk(spec, 2.0), check_real_interval(spec, ex, 2.0)]
    d = report_to_dict(reports[0])
    assert d["theorem"] == "unit-disk" and d["holds"] in (True, False)
    path = tmp_path / "reports.json"
    write_spectral_report(reports, path)
    loaded = json.loads(path.read_text())
    assert len(loaded) == 2
    assert loaded[1]["bounds"]["upper"] == pytest.approx(
        pess_real_interval(ex, 2.0)[1])

    csv_path = tmp_path / "eigs.csv"
    write_eigenvalue_csv(spec, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "re,im,classification"
    assert len(lines) == 1 + len(spec)
    assert all(ln.endswith(("real", "nonreal")) for ln in lines[1:])
