"""Shift-splitting preconditioner family: config validation, the block
back-substitution solve against an explicit-matrix oracle, and the splitting
identity P - Q = coefficient matrix."""

import numpy as np
import pytest

from saddlekit.dense import NotPositiveDefinite, Singular
from saddlekit.gmres import gmres, true_residual
from saddlekit.precond import (KINDS, GssConfig, build, build_bd,
                               make_config, splitting_residual)
from saddlekit.problems import case_preset, example1
from saddlekit.system import rhs_for_ones

from conftest import random_system


def all_kind_configs(sys):
    """One representative config per variant for the given system."""
    return {
        "pess": make_config("pess", lambda1=1.0, lambda2=1.0, lambda3=0.001,
                            s=2.0),
        "lpess": make_config("lpess", lambda2=1.0, lambda3=0.001, s=2.0),
        "ss": make_config("ss", alpha=0.1),
        "rss": make_config("rss", alpha=0.1),
        "egss": make_config("egss", alpha=0.1, beta=1.0, gamma=0.001),
        "rpgss": make_config("rpgss", beta=1.0, gamma=0.001),
    }


# -- configuration -------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        GssConfig(1.0, 1.0, 1.0, s=-1.0)
    with pytest.raises(ValueError):
        GssConfig(1.0, None, 1.0, s=1.0)
    with pytest.raises(ValueError):
        GssConfig(1.0, 1.0, None, s=1.0)
    with pytest.raises(ValueError):
        GssConfig(-1.0, 1.0, 1e-3, s=2.0)
    with pytest.raises(ValueError):
        GssConfig(1.0, -0.5, 1e-3, s=2.0)
    with pytest.raises(ValueError):
        GssConfig(1.0, 0.0, 1e-3, s=2.0)


def test_is_pess_property():
    assert GssConfig(1.0, 1.0, 1.0, s=2.0).is_pess
    assert not GssConfig(None, 1.0, 1.0, s=2.0).is_pess


def test_make_config_unknown_kind():
    with pytest.raises(ValueError):
        make_config("nope", alpha=1.0)


def test_make_config_positivity_checks():
    with pytest.raises(ValueError):
        make_config("ss", alpha=0.0)
    with pytest.raises(ValueError):
        make_config("egss", alpha=1.0, beta=-1.0, gamma=1.0)
    with pytest.raises(ValueError):
        make_config("rpgss", beta=1.0, gamma=0.0)


def test_make_config_half_shift_folding():
    cfg = make_config("ss", alpha=0.2)
    assert cfg.lambda1 == cfg.lambda2 == cfg.lambda3 == pytest.approx(0.1)
    assert cfg.s == 0.5
    cfg = make_config("rpgss", beta=2.0, gamma=4.0)
    assert cfg.lambda1 is None
    assert cfg.lambda2 == pytest.approx(2.0)
    assert cfg.s == 1.0


# -- block solve vs explicit matrix ---------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_apply_matches_dense_oracle(kind, small_system, rng):
    cfg = all_kind_configs(small_system)[kind]
    P = build(small_system, cfg)
    M = P.matrix.toarray()
    for _ in range(50):
        r = rng.standard_normal(small_system.size)
        w = P.apply(r)
        ref = np.linalg.solve(M, r)
        assert np.linalg.norm(w - ref) / np.linalg.norm(ref) < 1e-10


def test_apply_block_vector_and_multicolumn(small_system, rng):
    cfg = all_kind_configs(small_system)["lpess"]
    P = build(small_system, cfg)
    d = rhs_for_ones(small_system).to_array()
    assert np.allclose(P.matrix @ P.apply(d), d)
    R = rng.standard_normal((small_system.size, 3))
    W = P.apply(R)
    assert np.allclose(W[:, 1], P.apply(R[:, 1]))


def test_callable_alias(small_system, rng):
    cfg = all_kind_configs(small_system)["ss"]
    P = build(small_system, cfg)
    r = rng.standard_normal(small_system.size)
    assert np.array_equal(P(r), P.apply(r))


def test_build_rejects_indefinite_lambda3(small_system):
    cfg = GssConfig(1.0, 1.0, np.diag(-np.ones(small_system.p)), s=1.0)
    with pytest.raises(NotPositiveDefinite, match="lambda3"):
        build(small_system, cfg)


def test_build_rejects_singular_preconditioner(small_system):
    # L1 + s A = 0 leaves P with n columns of rank at most m < n
    cfg = GssConfig(-small_system.A, 1.0, 1.0, s=1.0)
    with pytest.raises(Singular):
        build(small_system, cfg)


def test_case_presets_converge_at_l64():
    sysv = example1(64)
    d = rhs_for_ones(sysv)
    pess = case_preset("II", sysv, s=12.0)
    lpess = make_config("lpess", lambda2=1.0, lambda3=0.001, s=12.0)
    for cfg in (pess, lpess):
        rep = gmres(sysv, d, precond=build(sysv, cfg).apply, tol=1e-6)
        assert rep.converged and rep.iterations <= 3
        assert true_residual(sysv, rep.solution, d) < 1e-6


@pytest.mark.parametrize("kind", ["pess", "lpess"])
def test_case_ii_matrix_matches_block_oracle(kind):
    sysv = example1(3)
    s = 12.0
    cfg = case_preset("II", sysv, s=s)
    if kind == "lpess":
        cfg = make_config("lpess", lambda2=cfg.lambda2, lambda3=cfg.lambda3,
                          s=s)
    A, B, C = sysv.A.toarray(), sysv.B.toarray(), sysv.C.toarray()
    n, m, p = A.shape[0], B.shape[0], C.shape[0]
    L1 = A if kind == "pess" else np.zeros((n, n))
    want = np.block([[L1 + s * A, s * B.T, np.zeros((n, p))],
                     [-s * B, np.eye(m), -s * C.T],
                     [np.zeros((p, n)), s * C, 0.001 * (C @ C.T)]])
    assert np.array_equal(build(sysv, cfg).matrix.toarray(), want)


# -- splitting identity ----------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_splitting_identity(kind, small_system):
    cfg = all_kind_configs(small_system)[kind]
    assert splitting_residual(small_system, cfg) < 1e-12


def test_splitting_identity_random_systems():
    for seed in range(5):
        sysv = random_system(np.random.default_rng(seed))
        cfg = make_config("pess", lambda1=0.5, lambda2=2.0, lambda3=0.01,
                          s=3.0)
        assert splitting_residual(sysv, cfg) < 1e-12


# -- block diagonal baseline ------------------------------------------------


def test_bd_matches_explicit_blocks(small_system, rng):
    P = build_bd(small_system)
    A = small_system.A.toarray()
    B = small_system.B.toarray()
    C = small_system.C.toarray()
    S = B @ np.linalg.solve(A, B.T)
    CSC = C @ np.linalg.solve(S, C.T)
    import scipy.linalg as sla
    M = sla.block_diag(A, S, CSC)
    r = rng.standard_normal(small_system.size)
    assert np.allclose(P.apply(r), np.linalg.solve(M, r), atol=1e-8)
    R = rng.standard_normal((small_system.size, 3))
    assert np.allclose(P.apply(R)[:, 1], P.apply(R[:, 1]))
