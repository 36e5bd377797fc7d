"""Stationary fixed-point scheme: the process ``gmres.stationary`` with a
built P, its ``SolveReport``, and its convergence against the
spectral-radius criterion and the closed-form predicate on the scaled
spectrum."""

import importlib

import numpy as np
import pytest

from saddlekit import dense, precond
from saddlekit.gmres import PHASES, Diverged, stationary
from saddlekit.precond import build, make_config, sigma_matrix
from saddlekit.problems import case_preset, example1
from saddlekit.spectral import (analyze, convergence_predicate, s_critical,
                                shift_spectrum)
from saddlekit.system import rhs_for_ones

from conftest import iteration_matrix_radius, random_system

gmres_mod = importlib.import_module("saddlekit.gmres")


def pess_cfg(s, lam3=0.001):
    return make_config("pess", lambda1=1.0, lambda2=1.0, lambda3=lam3, s=s)


def iterate(sys, cfg, d, **kwargs):
    """The process with the pess preconditioner of ``cfg``, built once."""
    return stationary(sys, d, build(sys, cfg), **kwargs)


def test_iteration_recovers_ones(small_system):
    cfg = pess_cfg(2.0)
    rep = iterate(small_system, cfg, rhs_for_ones(small_system), tol=1e-10,
                  maxit=50000)
    assert rep.converged
    assert np.allclose(rep.solution, np.ones(small_system.size), atol=1e-6)
    assert rep.final_res < 1e-10
    assert np.all(np.isfinite(rep.res_history))


def test_iteration_accepts_flat_rhs(small_system):
    cfg = pess_cfg(2.0)
    d = rhs_for_ones(small_system).to_array()
    rep = iterate(small_system, cfg, d, tol=1e-8, maxit=50000)
    assert rep.converged


def test_warm_start_zero_iterations(small_system):
    cfg = pess_cfg(2.0)
    rep = iterate(small_system, cfg, rhs_for_ones(small_system),
                  x0=np.ones(small_system.size), tol=1e-8)
    assert rep.converged and rep.iterations == 0


def test_maxit_reached(small_system):
    cfg = pess_cfg(2.0)
    rep = iterate(small_system, cfg, rhs_for_ones(small_system), tol=1e-14,
                  maxit=3)
    assert not rep.converged
    assert rep.iterations == 3


@pytest.fixture(params=["small_system", "example1-pess-I"])
def built(request, small_system):
    """(system, its P built once): ``small_system`` with pess at s = 2, and
    example1(4) with the Case I preset at s = 1."""
    if request.param == "small_system":
        return small_system, build(small_system, pess_cfg(2.0))
    sysv = example1(4)
    return sysv, build(sysv, case_preset("I", sysv, s=1.0))


def test_report_counts_and_times_the_applies(built, monkeypatch):
    """n_matvec and n_precond are the applies the process made, every phase
    of ``gmres.PHASES`` is reported within the wall time, and the history
    ends at the true residual of the returned iterate."""
    sysv, P = built
    matvecs, applies = [], []
    apply_op = gmres_mod.operator_apply
    monkeypatch.setattr(gmres_mod, "operator_apply", lambda sys_, u:
                        matvecs.append(u) or apply_op(sys_, u))
    rep = stationary(sysv, rhs_for_ones(sysv),
                     lambda r: applies.append(r) or P(r), tol=1e-8)
    assert rep.converged and rep.iterations > 0 and rep.side == "right"
    assert (rep.n_matvec, rep.n_precond) == (len(matvecs), len(applies))
    assert set(rep.phase_seconds) == set(PHASES)
    assert sum(rep.phase_seconds.values()) <= rep.wall_seconds
    assert rep.res_history[-1] == rep.final_res == rep.true_final_res
    assert len(rep.res_history) == rep.iterations + 1


def test_process_never_factors(built, monkeypatch):
    """The process applies the P it is given: with ``build`` and every
    sparse LU refused it still converges."""
    sysv, P = built

    def refuse(*args, **kwargs):
        raise AssertionError("the process factored")

    monkeypatch.setattr(precond, "build", refuse)
    monkeypatch.setattr(dense, "splu", refuse)
    assert stationary(sysv, rhs_for_ones(sysv), P, tol=1e-8).converged


@pytest.mark.parametrize("case, message", [
    pytest.param(case, message, id=case) for case, message in [
        ("tol-nan", "^tol must be positive and finite, got nan$"),
        ("tol-negative", "^tol must be positive and finite, got -1.0$"),
        ("rhs-nan", "^rhs has non-finite entries$"),
        ("rhs-short", "^rhs length does not match system size$"),
        ("u0-nan", "^x0 has non-finite entries$"),
        ("maxit-negative", "^maxit must be at least 1, got -1$")]])
def test_bad_inputs_raise_as_in_gmres(small_system, case, message):
    # each is refused before the first step, with gmres's message
    d = rhs_for_ones(small_system).to_array()
    bad = d.copy()
    bad[0] = np.nan
    kwargs = {"tol-nan": dict(tol=np.nan), "tol-negative": dict(tol=-1.0),
              "rhs-nan": dict(d=bad), "rhs-short": dict(d=d[:-1]),
              "u0-nan": dict(x0=bad), "maxit-negative": dict(maxit=-1)}[case]
    with pytest.raises(ValueError, match=message):
        iterate(small_system, pess_cfg(2.0), **{"d": d, **kwargs})


def test_divergence_raises(small_system):
    # a tiny s with tiny shifts puts the spectral radius far above one
    cfg = pess_cfg(0.01, lam3=1e-6)
    pred = convergence_predicate(small_system, cfg)
    assert not pred.holds
    with pytest.raises(Diverged):
        iterate(small_system, cfg, rhs_for_ones(small_system), maxit=100000)


def test_predicate_requires_symmetric_scheme(small_system):
    cfg = make_config("lpess", lambda2=1.0, lambda3=0.001, s=2.0)
    with pytest.raises(ValueError):
        convergence_predicate(small_system, cfg)


def test_predicate_reports_witness(small_system):
    # s_critical = 1/2 - min Re nu is the threshold of the scaled-spectrum
    # predicate (2s-1)|mu|^2 + 2 Re mu > 0 over mu = 1/nu, the oracle here
    for s in (0.01, 2.0):
        cfg = pess_cfg(s, lam3=1e-6)
        pred = convergence_predicate(small_system, cfg)
        mu = 1 / shift_spectrum(small_system, cfg)
        oracle = np.max(0.5 - mu.real / np.abs(mu) ** 2)
        assert pred.s_critical == pytest.approx(oracle, rel=1e-12)
        lhs = (2 * s - 1) * np.abs(mu) ** 2 + 2 * mu.real
        assert pred.holds == (s > pred.s_critical) == bool(np.all(lhs > 0))


def test_predicate_accepts_precomputed_spectrum(small_system):
    # analyze's unit-disk report and the predicate read one threshold
    cfg = pess_cfg(2.0)
    disk = analyze(small_system, cfg)[2][0]
    assert disk.theorem == "unit-disk"
    assert (disk.metadata["s_critical"]
            == convergence_predicate(small_system, cfg).s_critical)


def test_predicate_matches_spectral_radius_on_random_systems():
    """Equivalence: predicate > 0 for every scaled eigenvalue iff the
    iteration matrix has spectral radius < 1.  Covers s >= 1/2 (always
    convergent) and engineered s < 1/2 violations."""
    s_values = [2.0, 1.0, 0.5, 0.3, 0.05, 0.01]
    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        sysv = random_system(rng, n=10, m=6, p=4)
        s = s_values[seed % len(s_values)]
        lam3 = 1e-4 if s < 0.5 else 0.001
        cfg = pess_cfg(s, lam3=lam3)
        pred = convergence_predicate(sysv, cfg)
        rho = iteration_matrix_radius(sysv, build(sysv, cfg))
        if abs(rho - 1.0) < 1e-8:
            continue  # borderline: both sides are numerically ambiguous
        assert pred.holds == (rho < 1.0), (seed, s, rho, pred.s_critical)
        if s >= 0.5:
            assert pred.holds and rho < 1.0
        checked += 1
    assert checked >= 18


def test_some_engineered_violations_occur():
    violations = 0
    for seed in range(20):
        sysv = random_system(np.random.default_rng(100 + seed), n=10, m=6, p=4)
        if not convergence_predicate(sysv, pess_cfg(0.01, lam3=1e-4)).holds:
            violations += 1
    assert violations > 0


def test_sufficient_bound_guarantees_convergence(small_system):
    # s_critical, the exact threshold, is at most the sufficient bound 1/2
    bound = convergence_predicate(small_system, pess_cfg(1.0)).s_critical
    assert bound <= 0.5
    s = bound + 0.05
    pred = convergence_predicate(small_system, pess_cfg(s))
    rho = iteration_matrix_radius(small_system,
                                  build(small_system, pess_cfg(s)))
    assert pred.holds and rho < 1.0


def dense_sufficient_bound(sys, cfg):
    """The bound formula on dense matrices: Shat = L^{-1} A L^{-T} for the
    Cholesky factor L of Sigma."""
    L = np.linalg.cholesky(sigma_matrix(sys, cfg).toarray())
    Linv = np.linalg.inv(L)
    M = Linv @ sys.matrix.toarray() @ Linv.T
    lmin = np.linalg.eigvalsh(M + M.T)[0]
    rho = np.max(np.abs(np.linalg.eigvals(M)))
    return max(0.5 * (1.0 - lmin / rho**2), 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_sufficient_bound_matches_dense_formula(seed):
    # the paper's formula is exactly 1/2, and the exact threshold is below it
    sysv = random_system(np.random.default_rng(300 + seed), n=10, m=6, p=4)
    cfg = pess_cfg([0.3, 1.0, 2.0][seed % 3])
    assert dense_sufficient_bound(sysv, cfg) == pytest.approx(0.5, abs=1e-12)
    assert convergence_predicate(sysv, cfg).s_critical <= 0.5


@pytest.mark.parametrize("case", ["I", "II"])
def test_sufficient_bound_matches_dense_formula_example1(case):
    sysv = example1(3)
    cfg = case_preset(case, sysv, s=1.0)
    assert dense_sufficient_bound(sysv, cfg) == pytest.approx(0.5, abs=1e-12)
    assert convergence_predicate(sysv, cfg).s_critical <= 0.5


@pytest.mark.parametrize("seed", range(5))
def test_predicate_holds_exactly_above_s_critical(seed):
    # s_critical is the predicate's threshold; nu does not depend on s, so
    # one spectrum gives the threshold of every s
    sysv = random_system(np.random.default_rng(400 + seed), n=10, m=6, p=4)
    s_crit = s_critical(shift_spectrum(sysv, pess_cfg(1.0, lam3=1e-4)))
    assert s_crit <= 0.5
    for s in (0.01, s_crit - 0.05, s_crit - 1e-6, s_crit + 1e-6,
              s_crit + 0.05, 0.5, 2.0):
        pred = convergence_predicate(sysv, pess_cfg(s, lam3=1e-4))
        assert pred.s_critical == s_crit
        assert pred.holds == (s > s_crit), (seed, s, s_crit)


def test_s_critical_separates_divergence_on_example1():
    # example1(8), Case I: s_critical is 1/2 to about 1e-13, and the
    # stationary iteration diverges just below it and converges just above
    sysv = example1(8)
    s_crit = convergence_predicate(sysv, case_preset("I", sysv, s=1.0)).s_critical
    assert 0.49 < s_crit <= 0.5
    d = rhs_for_ones(sysv)
    with pytest.raises(Diverged):
        iterate(sysv, case_preset("I", sysv, s=s_crit - 0.01), d)
    rep = iterate(sysv, case_preset("I", sysv, s=s_crit + 0.01), d)
    assert rep.converged
