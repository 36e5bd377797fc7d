"""Shift-splitting preconditioner family: config validation, the block
back-substitution solve against an explicit-matrix oracle, and the splitting
identity P - Q = coefficient matrix."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from saddlekit import precond
from saddlekit.dense import NotPositiveDefinite, Singular, require_spd
from saddlekit.gmres import gmres, true_residual
from saddlekit.precond import (KINDS, GssConfig, build, build_bd,
                               make_config, schur, splitting_residual)
from saddlekit.problems import case_operands, case_preset, example1
from saddlekit.system import rhs_for_ones

from conftest import bd_blocks, random_system


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
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^s must be positive and finite"):
            GssConfig(1.0, 1.0, 1e-3, s=bad)
        for k in range(3):
            shifts = [1.0, 1.0, 1e-3]
            shifts[k] = bad
            with pytest.raises(ValueError, match=f"^lambda{k + 1} must be"):
                GssConfig(*shifts, s=2.0)
        with pytest.raises(ValueError, match="^lambda2 must be"):
            GssConfig(1.0, np.array([1.0, bad]), 1e-3, s=2.0)
    with pytest.raises(ValueError, match="^alpha must be"):
        make_config("ss", alpha=np.nan)


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


# ids: the bare kind for Case II, "<kind>-I" for Case I
@pytest.mark.parametrize("kind,case", [
    *(pytest.param(k, "II", id=k) for k in KINDS),
    *(pytest.param(k, "I", id=f"{k}-I") for k in KINDS)])
def test_case_ii_matrix_matches_block_oracle(kind, case):
    """P.matrix equals its explicit blocks bit for bit: each half-shift
    kind folds s * coefficient * operand, and ss/rss read no operands."""
    sysv = example1(3)
    s, alpha, beta, gamma = 12.0, 0.1, 1.0, 0.001
    if kind in ("pess", "lpess"):
        cfg = case_preset(case, sysv, s=s)
        if kind == "lpess":
            cfg = make_config("lpess", lambda2=cfg.lambda2,
                              lambda3=cfg.lambda3, s=s)
    else:
        cfg = make_config(kind, alpha=alpha, beta=beta, gamma=gamma,
                          **dict(zip("PQW", case_operands(case, sysv))))
    A, B, C = sysv.A.toarray(), sysv.B.toarray(), sysv.C.toarray()
    n, m, p = A.shape[0], B.shape[0], C.shape[0]
    In, Im, Ip = np.eye(n), np.eye(m), np.eye(p)
    P, Q, W = (A, Im, C @ C.T) if case == "II" else (In, Im, Ip)
    L1, L2, L3, s = {
        "pess": (P, Q, 0.001 * W, s),
        "lpess": (0 * In, Q, 0.001 * W, s),
        "ss": (0.5 * alpha * In, 0.5 * alpha * Im, 0.5 * alpha * Ip, 0.5),
        "rss": (0 * In, 0.5 * alpha * Im, 0.5 * alpha * Ip, 0.5),
        "egss": (0.5 * alpha * P, 0.5 * beta * Q, 0.5 * gamma * W, 0.5),
        "rpgss": (0 * In, beta * Q, gamma * W, 1.0),
    }[kind]
    want = np.block([[L1 + s * A, s * B.T, np.zeros((n, p))],
                     [-s * B, L2, -s * C.T],
                     [np.zeros((p, n)), s * C, L3]])
    assert cfg.s == s
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


def rel_err(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("sysv", [
    pytest.param(random_system(np.random.default_rng(seed), n=15, m=9, p=4),
                 id=f"random{seed}") for seed in range(3)] + [
    pytest.param(example1(3), id="example1"),
    pytest.param(random_system(np.random.default_rng(7)), id="small_system")])
def test_bd_oracles(sysv):
    """apply, on one and on several columns, against blockdiag(A, S, X)."""
    rng = np.random.default_rng(5)
    P = build_bd(sysv)
    M = sla.block_diag(*bd_blocks(sysv))
    x = rng.standard_normal(sysv.size)
    assert rel_err(P.apply(x), np.linalg.solve(M, x)) < 1e-10
    assert rel_err(M @ P.apply(x), x) < 1e-10
    R = rng.standard_normal((sysv.size, 3))
    W = P.apply(R)
    assert W.shape == R.shape
    for k in range(3):
        assert np.allclose(W[:, k], P.apply(R[:, k]), rtol=1e-13, atol=0)
    assert rel_err(W, np.linalg.solve(M, R)) < 1e-10
    assert np.array_equal(P(x), P.apply(x))


def test_bd_apply_is_exact_on_its_finite_spectrum():
    """P^-1 Amat for the exact diag(A, S, X) is annihilated by
    p4(t) = (t - 1)(t^3 - t^2 + 2t - 1) = t^4 - 2t^3 + 3t^2 - 3t + 1, so four
    applies take a random v to rounding (5e-12 measured at l=16); an X block
    solved inexactly would leave a residual of its error's order."""
    sysv = example1(16)
    P = build_bd(sysv)
    v = np.random.default_rng(0).standard_normal(sysv.size)
    w = [v]
    for _ in range(4):
        w.append(P(sysv.matrix @ w[-1]))
    p4 = w[4] - 2 * w[3] + 3 * w[2] - 3 * w[1] + w[0]
    assert np.linalg.norm(p4) / np.linalg.norm(v) <= 1e-10


def test_schur_is_bit_identical_to_one_multicolumn_solve():
    """m = 121 columns of B^T: fifteen blocks of 8 and a ragged one of 1."""
    sysv = example1(11)
    lu = require_spd(sysv.A, "A")
    S = sysv.B @ lu.solve(sysv.B.T.toarray())
    assert np.array_equal(schur(sysv.B, lu.solve), S)


def test_build_bd_calls_schur_once_for_s(monkeypatch):
    """X = C S^-1 C^T is never formed: the one Schur product is S's."""
    sysv, calls, schur_ = example1(4), [], precond.schur
    monkeypatch.setattr(precond, "schur", lambda X, solve:
                        calls.append(X) or schur_(X, solve))
    build_bd(sysv)
    assert len(calls) == 1 and calls[0] is sysv.B


def test_build_bd_memory_peak():
    """The build holds S's m x m array, 8-column blocks and the sparse LU
    of the coefficient matrix, with no p x p array and no transposed or
    densified copy: the traced peak stays below 1.5 of S's 8 m^2 bytes
    (1.26 measured at l=24)."""
    sysv = example1(24)
    tracemalloc.start()
    try:
        build_bd(sysv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * sysv.m ** 2


def test_build_seconds_recorded(small_system):
    for P in (build(small_system, all_kind_configs(small_system)["pess"]),
              build_bd(small_system)):
        assert isinstance(P.build_seconds, float) and P.build_seconds > 0.0


def test_factor_nnz_counts(small_system):
    cfg = all_kind_configs(small_system)["pess"]
    G = build(small_system, cfg)
    assert G.factor_nnz == G.lu.nnz
    assert G.factor_nnz >= (np.count_nonzero(G.lu.L.toarray())
                            + np.count_nonzero(G.lu.U.toarray()))
    P = build_bd(small_system)
    m = small_system.m
    assert P.factor_nnz == (small_system.a_lu.nnz
                            + small_system.matrix_lu.nnz + m * (m + 1) // 2)
    # the random S is dense, so its factor fills the lower triangle
    assert np.count_nonzero(P.s_factor.lower) == m * (m + 1) // 2
    # a property, not a field: the built dataclasses hold only the factors
    for built in (G, P):
        assert "factor_nnz" not in {f.name for f in dataclasses.fields(built)}
