"""Full GMRES: correctness against direct solves, residual monotonicity,
and the two preconditioning conventions."""

import importlib
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lstsq

from saddlekit.gmres import (BASIS_BLOCK, BREAKDOWN, PHASES, gmres,
                             true_residual)
from saddlekit.precond import build, build_bd, make_config
from saddlekit.problems import case_preset, example1
from saddlekit.system import rhs_for_ones

from conftest import random_system

# the module, whose ``operator_apply`` global the solver calls (the package
# attribute ``saddlekit.gmres`` is the function)
gmres_mod = importlib.import_module("saddlekit.gmres")


def count_operator_applies(monkeypatch, drift=0.0):
    """Wrap the solver's operator apply, call k scaled by 1 + drift * k;
    returns the list it appends to."""
    calls = []
    real = gmres_mod.operator_apply

    def counting(sys_, u):
        calls.append(1)
        return real(sys_, u) * (1.0 + drift * len(calls))

    monkeypatch.setattr(gmres_mod, "operator_apply", counting)
    return calls


def test_unpreconditioned_solves(small_system, rng):
    d = rng.standard_normal(small_system.size)
    rep = gmres(small_system, d, tol=1e-10)
    assert rep.converged
    assert np.allclose(small_system.matrix @ rep.solution, d, atol=1e-7)
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


def test_right_side_converges_only_on_true_residual(small_system,
                                                    monkeypatch):
    # an operator that drifts with every call: the Arnoldi columns and the
    # confirms see different A, so the monitored residual drops below tol
    # while the true residual of the iterate does not
    P = build(small_system, make_config("pess", lambda1=1.0, lambda2=1.0,
                                        lambda3=0.001, s=2.0))
    ops = count_operator_applies(monkeypatch, drift=0.01)
    calls = []

    def counting(r):
        calls.append(1)
        return P(r)

    tol = 1e-8
    rep = gmres(small_system, rhs_for_ones(small_system), precond=counting,
                tol=tol, side="right")
    assert np.any(rep.res_history < tol)
    assert not rep.converged and rep.true_final_res >= tol
    # every iterate checked on the way is counted, the continuation included
    assert (rep.n_matvec, rep.n_precond) == (len(ops), len(calls))
    assert rep.n_matvec > rep.iterations + 1


def test_right_side_flexible_under_drifting_preconditioner():
    # the iterate is built from the kept P^-1 v_j, so A u matches the
    # Arnoldi columns whatever P each apply used: the monitored and the true
    # residual agree, and the drifting P converges
    sysv = example1(4)
    P = build(sysv, case_preset("II", sysv, 12.0))
    calls = []

    def drifting(r):
        calls.append(1)
        return P(r) * (1.0 + 0.01 * len(calls))

    rep = gmres(sysv, rhs_for_ones(sysv), precond=drifting, tol=1e-8)
    assert rep.converged and rep.true_final_res < 1e-8
    assert rep.n_precond == len(calls) == rep.iterations


def test_right_side_stops_on_stalled_confirm(monkeypatch):
    # an operator that drifts with every call, on the paper's problem: the
    # Arnoldi columns and the confirm see different A, so the monitored
    # residual falls toward 0 while the true residual stays put; the solve
    # stops at the first failed confirm at rounding level instead of
    # confirming every further step
    sysv = example1(4)
    P = build(sysv, case_preset("II", sysv, 12.0))
    ops = count_operator_applies(monkeypatch, drift=0.01)
    calls = []

    def counting(r):
        calls.append(1)
        return P(r)

    rep = gmres(sysv, rhs_for_ones(sysv), precond=counting, tol=1e-8)
    assert not rep.converged and rep.true_final_res >= 1e-8
    # the last monitored residual is the first at rounding level
    assert np.flatnonzero(rep.res_history <= BREAKDOWN).tolist() == [
        rep.iterations]
    assert rep.iterations < 10
    assert (rep.n_matvec, rep.n_precond) == (len(ops), len(calls))


@pytest.mark.parametrize("kind,params,side", [
    (None, {}, "right"),
    ("pess", {"lambda1": 1.0, "lambda2": 1.0, "lambda3": 0.001, "s": 2.0},
     "right"),
    ("ss", {"alpha": 0.1}, "left"),
])
def test_apply_counts_match_counting_wrappers(small_system, monkeypatch,
                                              kind, params, side):
    ops = count_operator_applies(monkeypatch)
    calls = []
    P = None
    if kind is not None:
        built = build(small_system, make_config(kind, **params))

        def P(r):
            calls.append(1)
            return built(r)

    rep = gmres(small_system, rhs_for_ones(small_system), precond=P,
                tol=1e-10, side=side)
    assert rep.converged
    assert (rep.n_matvec, rep.n_precond) == (len(ops), len(calls))
    # one apply per step plus the one confirming residual: from zero, r0
    # is d, and the delayed second Gram-Schmidt pass costs no apply
    assert rep.n_matvec == rep.iterations + 1
    if P is None:
        assert rep.n_precond == 0
    elif side == "right":  # the iterate is built from the kept P^-1 v_j
        assert rep.n_precond == rep.iterations
    else:  # left: P^-1 of d, which from the zero start is r0 as well, so
        # one apply serves both
        assert rep.n_precond == rep.iterations + 1


def test_left_start_applies(small_system):
    """An explicit x0 costs P^-1 of r0 and of d; from the zero start the
    one P^-1 d serves both and the iterates are unchanged."""
    P = build(small_system, make_config("ss", alpha=0.1))
    d = rhs_for_ones(small_system)
    reps = [gmres(small_system, d, precond=P, tol=1e-10, side="left", x0=x0)
            for x0 in (None, np.zeros(small_system.size),
                       np.full(small_system.size, 0.5))]
    for rep in reps:
        assert rep.converged
    assert [rep.n_precond - rep.iterations for rep in reps] == [1, 2, 2]
    assert np.array_equal(reps[0].solution, reps[1].solution)
    assert np.array_equal(reps[0].res_history, reps[1].res_history)


def test_left_preconditioned_reports_both(small_system):
    cfg = make_config("ss", alpha=0.1)
    P = build(small_system, cfg)
    d = rhs_for_ones(small_system)
    rep = gmres(small_system, d, precond=P, tol=1e-10, side="left")
    assert rep.converged and rep.side == "left"
    # the monitored residual is preconditioned; the true one is recorded too
    assert rep.true_final_res < 1e-6
    assert np.allclose(small_system.matrix @ rep.solution, d.to_array(),
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


@pytest.mark.parametrize("kwargs,message", [
    ({"tol": 0.0}, "tol must be positive and finite"),
    ({"tol": -1.0}, "tol must be positive and finite"),
    ({"tol": float("nan")}, "tol must be positive and finite"),
    ({"tol": float("inf")}, "tol must be positive and finite"),
    ({"maxit": 0}, "maxit must be at least 1"),
], ids=["tol-zero", "tol-negative", "tol-nan", "tol-inf", "maxit-zero"])
def test_bad_tol_and_maxit(small_system, kwargs, message):
    with pytest.raises(ValueError, match=message):
        gmres(small_system, rhs_for_ones(small_system), **kwargs)


@pytest.mark.parametrize("kind", ["none", "pess-II"])
def test_result_independent_of_rhs_scale(kind):
    # breakdown is judged against ||Op(v_k)||, which does not see the scale
    # of d: every scale takes the same steps to the same relative residual
    sysv = example1(8)
    P = (None if kind == "none"
         else build(sysv, case_preset("II", sysv, s=12.0)).apply)
    d = rhs_for_ones(sysv).to_array()
    reps = [gmres(sysv, c * d, precond=P) for c in (1e-12, 1.0, 1e12)]
    assert all(r.converged for r in reps)
    assert len({r.iterations for r in reps}) == 1
    np.testing.assert_allclose([r.true_final_res for r in reps],
                               reps[1].true_final_res, rtol=1e-6)


def test_bad_side_and_rhs_length(small_system):
    with pytest.raises(ValueError):
        gmres(small_system, np.ones(small_system.size), side="middle")
    with pytest.raises(ValueError):
        gmres(small_system, np.ones(3))


@pytest.mark.parametrize("arg,bad,message", [
    ("d", np.nan, "rhs has non-finite entries"),
    ("d", np.inf, "rhs has non-finite entries"),
    ("x0", np.nan, "x0 has non-finite entries"),
    ("x0", -np.inf, "x0 has non-finite entries"),
    ("x0", "short", "x0 length does not match system size"),
], ids=["rhs-nan", "rhs-inf", "x0-nan", "x0-inf", "x0-length"])
def test_bad_rhs_and_x0(small_system, arg, bad, message):
    # before any apply: a NaN rhs would otherwise run maxit steps to a NaN
    kwargs = {"d": np.ones(small_system.size), "x0": None}
    if bad == "short":
        kwargs[arg] = np.zeros(small_system.size - 1)
    else:
        kwargs[arg] = np.ones(small_system.size)
        kwargs[arg][3] = bad
    with pytest.raises(ValueError, match=message):
        gmres(small_system, **kwargs)


@pytest.mark.parametrize("kind,side", [(None, "right"), ("pess", "right"),
                                       ("ss", "left")])
def test_phase_seconds(small_system, kind, side):
    P = None
    if kind == "pess":
        P = build(small_system, make_config("pess", lambda1=1.0, lambda2=1.0,
                                            lambda3=0.001, s=2.0)).apply
    elif kind == "ss":
        P = build(small_system, make_config("ss", alpha=0.1)).apply
    rep = gmres(small_system, rhs_for_ones(small_system), precond=P,
                tol=1e-10, side=side)
    assert rep.converged
    assert tuple(rep.phase_seconds) == PHASES
    assert all(t >= 0.0 for t in rep.phase_seconds.values())
    assert sum(rep.phase_seconds.values()) <= rep.wall_seconds
    # the identity preconditioner is neither counted nor timed
    assert (rep.phase_seconds["precond_apply"] == 0.0) == (P is None)


def test_report_str(small_system):
    rep = gmres(small_system, rhs_for_ones(small_system), tol=1e-6)
    text = str(rep)
    assert "converged" in text and "it=" in text


def reference_history(sys_, d, precond, side, steps):
    """Dense full GMRES from x0 = 0: modified Gram-Schmidt with full
    reorthogonalization and an lstsq solve at every step; returns the
    monitored relative residual after 0..steps steps."""
    A = sys_.matrix.toarray()
    P = (lambda r: r) if precond is None else precond
    op = (lambda v: A @ P(v)) if side == "right" else (lambda v: P(A @ v))
    r0 = d if side == "right" else P(d)
    beta = np.linalg.norm(r0)
    V = np.zeros((steps + 1, sys_.size))
    H = np.zeros((steps + 1, steps))
    V[0] = r0 / beta
    hist = [1.0]
    for k in range(steps):
        w = op(V[k])
        for _ in range(2):
            for j in range(k + 1):
                h = V[j] @ w
                H[j, k] += h
                w -= h * V[j]
        H[k + 1, k] = np.linalg.norm(w)
        V[k + 1] = w / H[k + 1, k]
        e1 = np.zeros(k + 2)
        e1[0] = beta
        y = lstsq(H[:k + 2, :k + 1], e1, lapack_driver="gelsy")[0]
        hist.append(np.linalg.norm(e1 - H[:k + 2, :k + 1] @ y) / beta)
    return np.array(hist)


def reference_case(case):
    """(system, preconditioner apply, side) of a reference-history case."""
    sysv = example1(8 if case.endswith("l8") else 6)
    if case == "none-l6":
        return sysv, None, "right"
    if case == "ss-right-l6":  # a weak fixed P: the flexible path, 132 steps
        return sysv, build(sysv, make_config("ss", alpha=1000.0)).apply, \
            "right"
    if case == "pess-II-right-l8":
        return sysv, build(sysv, case_preset("II", sysv, s=12.0)).apply, \
            "right"
    return sysv, build(sysv, make_config("ss", alpha=0.1)).apply, "left"


@pytest.mark.parametrize("case,maxit", [
    pytest.param("none-l6", 7000, id="none-l6"),
    # the 139-step run cut on both sides of the block boundaries
    *(pytest.param("none-l6", m, id=f"none-l6-maxit{m}")
      for m in (BASIS_BLOCK - 1, BASIS_BLOCK, BASIS_BLOCK + 1,
                2 * BASIS_BLOCK)),
    # the flexible path settles Z too, across two block boundaries
    pytest.param("ss-right-l6", 7000, id="ss-right-l6"),
    *(pytest.param("ss-right-l6", m, id=f"ss-right-l6-maxit{m}")
      for m in (BASIS_BLOCK - 1, BASIS_BLOCK, BASIS_BLOCK + 1)),
    pytest.param("pess-II-right-l8", 7000, id="pess-II-right-l8"),
    pytest.param("ss-left-l8", 7000, id="ss-left-l8"),
])
def test_history_matches_dense_reference(case, maxit):
    # the delayed second Gram-Schmidt pass, the open columns settled once
    # per block and the one-dot Givens update reproduce the textbook
    # recurrence step by step
    sysv, P, side = reference_case(case)
    d = rhs_for_ones(sysv).to_array()
    rep = gmres(sysv, d, precond=P, tol=1e-6, side=side, maxit=maxit)
    assert rep.converged == (rep.iterations < maxit)
    assert case != "ss-right-l6" or rep.iterations == min(maxit, 132)
    ref = reference_history(sysv, d, P, side, rep.iterations)
    np.testing.assert_allclose(rep.res_history, ref, rtol=1e-8, atol=0)
    if side == "right":  # the iterate assembled across the blocks
        assert rep.true_final_res == pytest.approx(ref[-1], rel=1e-6)


def test_workspace_peak():
    # the basis and Hessenberg blocks are allocated once and never copied;
    # a basis block has one spare row, and the Hessenberg block b is only
    # BASIS_BLOCK * (b + 1) + 1 wide.  The iterate is solved for one block
    # column of R at a time: the (k + 1) x k factor R does not fit under
    # the bound
    sysv = example1(8)
    d = rhs_for_ones(sysv).to_array()
    sysv.matrix  # the operator is built before the solve, not during it
    tracemalloc.start()
    try:
        rep = gmres(sysv, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k, N = rep.iterations, sysv.size
    assert rep.converged and k == 242
    blocks = -(-(k + 1) // BASIS_BLOCK)
    basis = blocks * (BASIS_BLOCK + 1) * N * 8
    hessenberg = sum(BASIS_BLOCK * (BASIS_BLOCK * (b + 1) + 1) * 8
                     for b in range(blocks))
    r_factor = (k + 1) * k * 8
    assert peak < basis + hessenberg + r_factor / 2


@pytest.mark.parametrize("case,steps", [("none-l6", 140),
                                        ("ss-right-l6", 133)])
def test_failed_confirm_across_blocks(monkeypatch, case, steps):
    # the first confirm, in the middle of the third block, is told that the
    # true residual failed: it settled the open columns, the solve goes on
    # from the Hessenberg blocks (and, flexible, the Z blocks) the confirm
    # read with new open columns in the same block, and the next step
    # confirms again and stops
    real = gmres_mod.true_residual
    calls = []

    def fail_first(*args):
        calls.append(1)
        return 1.0 if len(calls) == 1 else real(*args)

    monkeypatch.setattr(gmres_mod, "true_residual", fail_first)
    sysv, P, side = reference_case(case)
    d = rhs_for_ones(sysv).to_array()
    rep = gmres(sysv, d, precond=P, tol=1e-6)
    assert rep.converged and rep.iterations == steps and len(calls) == 2
    assert 2 * BASIS_BLOCK < rep.iterations - 1 < 3 * BASIS_BLOCK - 1
    ref = reference_history(sysv, d, P, side, rep.iterations)
    np.testing.assert_allclose(rep.res_history, ref, rtol=1e-8, atol=0)
    assert rep.true_final_res == true_residual(sysv, rep.solution, d) < 1e-6


def test_bd_right_converges_at_l48():
    # bd on the right at l=48: the monitored residual reaches rounding
    # level within a few steps, and the iterate built from the kept
    # P^-1 v_j has a true residual below tol too
    sysv = example1(48)
    rep = gmres(sysv, rhs_for_ones(sysv), precond=build_bd(sysv).apply)
    assert rep.converged and rep.true_final_res < 1e-6
    assert rep.n_precond == rep.iterations
