"""Parameter-selection strategies: the splitting-norm quadratic and the
norm-balancing estimates from ARPACK 2-norms."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from saddlekit.dense import ConvergenceFailure
from saddlekit.params import estimate_params, phi, phi_minimizer
from saddlekit.precond import make_config, operand_sparse
from saddlekit.problems import example1
from saddlekit.system import assemble

from conftest import arpack_fails, random_system


def pess_cfg(s=1.0):
    return make_config("pess", lambda1=1.0, lambda2=1.0, lambda3=0.001, s=s)


def direct_phi(sys, cfg, s):
    """Independent oracle: form Q = Sigma - (1-s) Amat explicitly and take
    the squared Frobenius norm."""
    n, m = sys.n, sys.m
    sigma = np.zeros((sys.size, sys.size))
    sigma[:n, :n] = operand_sparse(cfg.lambda1, n).toarray()
    sigma[n:n + m, n:n + m] = operand_sparse(cfg.lambda2, m).toarray()
    sigma[n + m:, n + m:] = operand_sparse(cfg.lambda3, sys.p).toarray()
    Q = sigma - (1.0 - s) * sys.matrix.toarray()
    return float(np.linalg.norm(Q, "fro") ** 2)


@pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 2.0, 13.0])
def test_phi_closed_form_matches_direct(s, small_system):
    cfg = pess_cfg()
    got = phi(small_system, cfg, s)
    want = direct_phi(small_system, cfg, s)
    assert abs(got - want) / want < 1e-10


def test_phi_closed_form_matrix_shifts():
    sysv = example1(3)
    from saddlekit.problems import case_preset
    cfg = case_preset("II", sysv, s=1.0)
    for s in (0.5, 1.0, 3.0):
        want = direct_phi(sysv, cfg, s)
        assert abs(phi(sysv, cfg, s) - want) / want < 1e-10


def test_phi_minimizer_is_quadratic_vertex(small_system):
    cfg = pess_cfg()
    s_star = phi_minimizer(small_system, cfg)
    f0 = phi(small_system, cfg, s_star)
    for ds in (1e-3, 0.1, 1.0):
        assert phi(small_system, cfg, s_star + ds) > f0
        assert phi(small_system, cfg, s_star - ds) > f0


def test_phi_convex(small_system):
    cfg = pess_cfg()
    grid = np.linspace(-2.0, 4.0, 25)
    vals = np.array([phi(small_system, cfg, s) for s in grid])
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    assert np.all(second > -1e-8 * np.abs(vals[1:-1]))


def test_estimate_params_golden_identity(rng):
    """With C orthogonal-ish replaced by identity blocks the estimates have
    a closed form: ||C^T L3^{-1} C||=1 when C=I, L3=I, so
    beta = ||B||^4/(4 ||A||^2) and s = sqrt(beta)."""
    n, m = 6, 4
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    B = rng.standard_normal((m, n))
    sysv = assemble(sp.csr_matrix(A), sp.csr_matrix(B), sp.identity(m))
    est = estimate_params(sysv, lambda3=1.0)
    na = np.linalg.norm(A, 2)
    nb = np.linalg.norm(B, 2)
    beta = nb**4 / (4 * na**2)
    assert est.beta_est == pytest.approx(beta, rel=1e-6)
    assert est.s_est == pytest.approx(np.sqrt(beta), rel=1e-6)
    assert est.norms["norm_ctl3c"] == pytest.approx(1.0, rel=1e-8)


def test_estimate_params_scaling_law(rng):
    """Scaling C -> c C multiplies ||C^T L3^{-1} C|| by c^2, leaving beta
    divided by c^2 and s divided by c^2."""
    sysv = random_system(np.random.default_rng(42))
    c = 10.0
    scaled = assemble(sysv.A, sysv.B, c * sysv.C)
    e1 = estimate_params(sysv, lambda3=1.0)
    e2 = estimate_params(scaled, lambda3=1.0)
    assert e2.norms["norm_ctl3c"] == pytest.approx(c**2 * e1.norms["norm_ctl3c"],
                                                   rel=1e-6)
    assert e2.beta_est == pytest.approx(e1.beta_est / c**2, rel=1e-6)
    assert e2.s_est == pytest.approx(e1.s_est / c**2, rel=1e-6)


def test_estimate_params_norms_are_exact():
    l = 16
    sysv = example1(l)
    est = estimate_params(sysv, lambda3=0.001)
    # the largest eigenvalue of I (x) G + G (x) I, G = (l+1)^2 tridiag(-1, 2, -1)
    exact_a = 2 * (l + 1) ** 2 * (2 + 2 * np.cos(np.pi / (l + 1)))
    assert est.norms["norm_a"] == pytest.approx(exact_a, rel=1e-10)
    assert est.norms["norm_b"] == pytest.approx(
        np.linalg.norm(sysv.B.toarray(), 2), rel=1e-10)


@pytest.mark.parametrize("zero", ["B", "C"])
def test_estimate_params_rejects_zero_coupling(zero):
    sysv = random_system(np.random.default_rng(3))
    blocks = {"A": sysv.A, "B": sysv.B, "C": sysv.C}
    blocks[zero] = sp.csr_matrix(blocks[zero].shape)
    with pytest.raises(ValueError):
        estimate_params(assemble(**blocks), lambda3=1.0)


def test_estimate_params_rejects_one_constraint():
    sysv = random_system(np.random.default_rng(3), n=4, m=1, p=1)
    with pytest.raises(ValueError):
        estimate_params(sysv, lambda3=1.0)


def test_estimate_params_arpack_failure(small_system, monkeypatch):
    monkeypatch.setattr(spla, "eigsh", arpack_fails)
    with pytest.raises(ConvergenceFailure):
        estimate_params(small_system, lambda3=0.001)


def test_estimate_params_deterministic(small_system):
    a = estimate_params(small_system, lambda3=0.001)
    b = estimate_params(small_system, lambda3=0.001)
    assert a.s_est == b.s_est and a.beta_est == b.beta_est
    assert a.norms == b.norms


def test_estimate_rejects_nonpositive():
    from saddlekit.params import ParamEstimate
    with pytest.raises(ValueError):
        ParamEstimate(s_est=-1.0, beta_est=1.0, norms={})
