"""Full GMRES: correctness against direct solves, residual monotonicity,
and the two preconditioning conventions."""

import numpy as np
import pytest

from saddlekit.gmres import gmres, true_residual
from saddlekit.precond import build, make_config
from saddlekit.system import rhs_for_ones, to_dense

from conftest import random_system


def test_unpreconditioned_solves(small_system, rng):
    d = rng.standard_normal(small_system.size)
    rep = gmres(small_system, d, tol=1e-10)
    assert rep.converged
    assert np.allclose(to_dense(small_system) @ rep.solution, d, atol=1e-7)
    assert rep.final_res < 1e-10
    assert rep.true_final_res < 1e-9


def test_exact_solution_in_n_steps():
    # on an N-dimensional system full GMRES terminates within N steps
    sysv = random_system(np.random.default_rng(3), n=6, m=4, p=2)
    d = rhs_for_ones(sysv)
    rep = gmres(sysv, d, tol=1e-12, maxit=100)
    assert rep.converged
    assert rep.iterations <= sysv.size
    assert np.allclose(rep.solution, np.ones(sysv.size), atol=1e-6)


def test_right_preconditioned_true_residual(small_system):
    cfg = make_config("pess", lambda1=1.0, lambda2=1.0, lambda3=0.001, s=2.0)
    P = build(small_system, cfg)
    d = rhs_for_ones(small_system)
    rep = gmres(small_system, d, precond=P, tol=1e-10, side="right")
    assert rep.converged and rep.side == "right"
    # the monitored least-squares residual estimates the true residual under
    # right preconditioning, and convergence is confirmed on the true one
    assert rep.true_final_res < 1e-10
    assert rep.true_final_res == true_residual(small_system, rep.solution, d)
    assert rep.final_res == pytest.approx(rep.true_final_res, rel=1e-6)


def test_right_side_converges_only_on_true_residual(small_system):
    # a preconditioner that drifts with every call: the Arnoldi columns and
    # the assembled iterate see different P, so the monitored residual drops
    # below tol while the true residual of the iterate does not
    P = build(small_system, make_config("pess", lambda1=1.0, lambda2=1.0,
                                        lambda3=0.001, s=2.0))
    calls = []

    def drifting(r):
        calls.append(1)
        return P(r) * (1.0 + 0.01 * len(calls))

    tol = 1e-8
    rep = gmres(small_system, rhs_for_ones(small_system), precond=drifting,
                tol=tol, side="right")
    assert np.any(rep.res_history < tol)
    assert not (rep.converged and rep.true_final_res >= tol)


def test_left_preconditioned_reports_both(small_system):
    cfg = make_config("ss", alpha=0.1)
    P = build(small_system, cfg)
    d = rhs_for_ones(small_system)
    rep = gmres(small_system, d, precond=P, tol=1e-10, side="left")
    assert rep.converged and rep.side == "left"
    # the monitored residual is preconditioned; the true one is recorded too
    assert rep.true_final_res < 1e-6
    assert np.allclose(to_dense(small_system) @ rep.solution, d.to_array(),
                       atol=1e-5)


def test_preconditioning_accelerates(small_system):
    d = rhs_for_ones(small_system)
    plain = gmres(small_system, d, tol=1e-8)
    cfg = make_config("pess", lambda1=1.0, lambda2=1.0, lambda3=0.001, s=2.0)
    pre = gmres(small_system, d, precond=build(small_system, cfg), tol=1e-8)
    assert pre.iterations < plain.iterations


def test_residual_history_monotone(small_system, rng):
    # full GMRES minimizes the monitored residual over a growing subspace;
    # each Givens step scales it by |sn| <= 1, so it never increases
    for side in ("right", "left"):
        cfg = make_config("pess", lambda1=1.0, lambda2=1.0, lambda3=0.001,
                          s=2.0)
        rep = gmres(small_system, rng.standard_normal(small_system.size),
                    precond=build(small_system, cfg), tol=1e-12, side=side)
        diffs = np.diff(rep.res_history)
        assert np.all(diffs <= 0)


def test_zero_rhs_immediate_return(small_system):
    rep = gmres(small_system, np.zeros(small_system.size))
    assert rep.converged and rep.iterations == 0
    assert np.array_equal(rep.solution, np.zeros(small_system.size))


def test_warm_start(small_system):
    d = rhs_for_ones(small_system)
    exact = np.ones(small_system.size)
    rep = gmres(small_system, d, x0=exact, tol=1e-8)
    assert rep.converged and rep.iterations == 0


def test_maxit_stall(small_system):
    d = rhs_for_ones(small_system)
    rep = gmres(small_system, d, tol=1e-14, maxit=2)
    assert not rep.converged
    assert rep.iterations == 2
    assert len(rep.res_history) == 3


def test_bad_side_and_rhs_length(small_system):
    with pytest.raises(ValueError):
        gmres(small_system, np.ones(small_system.size), side="middle")
    with pytest.raises(ValueError):
        gmres(small_system, np.ones(3))


def test_report_str(small_system):
    rep = gmres(small_system, rhs_for_ones(small_system), tol=1e-6)
    text = str(rep)
    assert "converged" in text and "it=" in text
