"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria:
1. Iteration-count table on the generated problem at l = 16 and l = 32.
2. Iteration counts under the norm-balancing estimated parameters.
3. Spectral-bound table at l = 16, Case II, s = 13.
4. Condition numbers.
5. Solution sensitivity to coupling-block noise.
6. Property suites (solver oracles, splitting identity, localization,
   stationary-convergence equivalence, splitting-norm quadratic, GMRES
   residual monotonicity over every run recorded by this suite).
"""

import numpy as np
import pytest

from saddlekit.gmres import Diverged, gmres, stationary
from saddlekit.params import estimate_params, phi, phi_minimizer
from saddlekit.precond import (KINDS, build, build_bd, make_config,
                               splitting_residual)
from saddlekit.problems import NoiseSpec, case_preset, example1, perturb
from saddlekit.spectral import (analyze, condition_number,
                                convergence_predicate,
                                preconditioned_spectrum)
from saddlekit.system import rhs_for_ones

from conftest import iteration_matrix_radius, random_system

MONITORED_RUNS = []  # every gmres run issued by this suite


def run(sys_, precond, side="right", tol=1e-6, maxit=7000, d=None):
    if d is None:
        d = rhs_for_ones(sys_)
    apply_p = None if precond is None else precond.apply
    rep = gmres(sys_, d, precond=apply_p, tol=tol, maxit=maxit, side=side)
    MONITORED_RUNS.append(rep)
    return rep


def verdict(name, failures):
    line = f"[{'FAIL' if failures else 'PASS'}] {name}"
    for f in failures:
        line += f"\n        {f}"
    print(line, flush=True)
    assert not failures, line


def sig3(x):
    """Round to three significant digits (the table-matching resolution)."""
    return float(f"{x:.3g}")


@pytest.fixture(scope="module")
def l16():
    return example1(16)


@pytest.fixture(scope="module")
def l32():
    return example1(32)


def baseline_preconds(sys_):
    """The compared baselines, each paired with its preconditioning side."""
    return {
        "ss": (build(sys_, make_config("ss", alpha=0.1)), "left"),
        "rss": (build(sys_, make_config("rss", alpha=0.1)), "left"),
        "egss": (build(sys_, make_config("egss", alpha=0.1, beta=1.0,
                                         gamma=0.001)), "left"),
        "bd": (build_bd(sys_), "left"),
    }


def shift_preconds(sys_):
    out = {}
    for case, it in (("I", 2), ("II", 3)):
        cfg = case_preset(case, sys_, s=12.0)
        out[f"pess-{case}"] = (build(sys_, cfg), "right", it)
        lcfg = make_config("lpess", lambda2=cfg.lambda2, lambda3=cfg.lambda3,
                           s=12.0)
        out[f"lpess-{case}"] = (build(sys_, lcfg), "right", it)
    return out


# -- criterion 1: iteration-count table -----------------------------------


def test_criterion1_unpreconditioned_l16(l16):
    failures = []
    rep = run(l16, None, tol=1e-6)
    if not rep.converged:
        failures.append("unpreconditioned run did not converge")
    if not (779 <= rep.iterations <= 951):  # 865 +- 10%
        failures.append(f"IT={rep.iterations}, expected 865 +- 10%")
    if not rep.final_res < 1e-6:
        failures.append(f"RES={rep.final_res:.3e} >= 1e-6")
    if not rep.wall_seconds < 60.0:
        failures.append(f"wall={rep.wall_seconds:.1f}s >= 60s")
    verdict("criterion 1a: unpreconditioned GMRES, l=16 "
            f"(IT={rep.iterations}, RES={rep.final_res:.4e})", failures)


def counts_failures(sys_, limit):
    failures = []
    for label, (P, side, want) in shift_preconds(sys_).items():
        rep = run(sys_, P, side=side)
        if rep.iterations != want or not rep.converged:
            failures.append(f"{label} s=12: IT={rep.iterations}, want {want}")
        if rep.wall_seconds >= limit:
            failures.append(f"{label}: wall={rep.wall_seconds:.1f}s")
    for label, (P, side) in baseline_preconds(sys_).items():
        rep = run(sys_, P, side=side)
        if rep.iterations != 4 or not rep.converged:
            failures.append(f"{label}: IT={rep.iterations}, want 4")
        if rep.wall_seconds >= limit:
            failures.append(f"{label}: wall={rep.wall_seconds:.1f}s")
    return failures


def test_criterion1_preconditioned_counts_l16(l16):
    verdict("criterion 1b: preconditioned iteration counts, l=16",
            counts_failures(l16, limit=5.0))


def test_criterion1_preconditioned_counts_l32(l32):
    verdict("criterion 1c: preconditioned iteration counts, l=32",
            counts_failures(l32, limit=60.0))


# -- criterion 2: estimated parameters --------------------------------------


def test_criterion2_estimated_parameters(l16, l32):
    failures = []
    for sys_, tag in ((l16, "l=16"), (l32, "l=32")):
        lam3 = case_preset("II", sys_, s=1.0, lambda3_coef=1e-4).lambda3
        est = estimate_params(sys_, lam3)
        pess = make_config("pess", lambda1=sys_.A, lambda2=est.beta_est,
                           lambda3=lam3, s=est.s_est)
        lpess = make_config("lpess", lambda2=est.beta_est, lambda3=lam3,
                            s=est.s_est)
        for label, cfg in (("pess-II", pess), ("lpess-II", lpess)):
            rep = run(sys_, build(sys_, cfg))
            if rep.iterations != 3:
                failures.append(
                    f"{label} {tag} (s_est={est.s_est:.3e}, "
                    f"beta_est={est.beta_est:.3e}): IT={rep.iterations}, want 3")
    verdict("criterion 2: estimated-parameter presets give IT=3", failures)


# -- criterion 3: spectral-bound table ---------------------------------------


@pytest.fixture(scope="module")
def case_ii(l16):
    """The pess and lpess configs of Case II at s=13, keyed by kind."""
    cfg = case_preset("II", l16, s=13.0)
    return {"pess": cfg, "lpess": make_config(
        "lpess", lambda2=cfg.lambda2, lambda3=cfg.lambda3, s=cfg.s)}


@pytest.fixture(scope="module")
def spectral_case(l16, case_ii):
    """The bound reports ``analyze`` gives pess and lpess at Case II, s=13,
    keyed "<kind> <theorem>", and s."""
    reports = {}
    for label, c in case_ii.items():
        _, _, reps = analyze(l16, c)
        reports.update((f"{label} {r.theorem}", r) for r in reps)
    return reports, 13.0


def test_criterion3_pess_real_interval(spectral_case):
    reports, s = spectral_case
    failures = []
    rep = reports["pess real-interval"]
    hi = rep.bounds["upper"]
    if abs(hi - 0.071429) > 1e-6:
        failures.append(f"real upper endpoint {hi:.6f} != 0.071429 +- 1e-6")
    if not rep.holds:
        failures.append(f"{len(rep.violations)} real eigenvalues escape "
                        f"(0, {hi:.6f}]")
    verdict("criterion 3a: real eigenvalues in (0, 0.071429]", failures)


def test_criterion3_pess_nonreal_table(spectral_case):
    reports, _ = spectral_case
    failures = []
    rep = reports["pess nonreal-disjunction"]
    b = rep.bounds
    table = {"mod_lower": 0.0667, "mod_upper": 0.0739,
             "re_mu_lower": 4.258e-5, "re_mu_upper": 0.5,
             "im_mu_bound": 31.6386}
    for key, want in table.items():
        if sig3(b[key]) != sig3(want):
            failures.append(f"{key}: computed {b[key]:.5g}, table {want:.5g}")
    if not rep.holds:
        failures.append(f"{len(rep.violations)} non-real eigenvalues violate "
                        f"the disjunction")
    verdict("criterion 3b: non-real localization table, 3 significant digits",
            failures)


def test_criterion3_lpess_table(spectral_case, case_ii, l16):
    reports, s = spectral_case
    failures = []
    n = 512
    rep = reports["lpess lpess"]
    b = rep.bounds
    table = {"mod_lower": 0.0285, "mod_upper": 0.07693,
             "annulus_lower": 1.8666e-4, "annulus_upper": 0.04384,
             "real_lower": 0.0416, "real_upper_with_cluster": 0.0769}
    for key, want in table.items():
        if sig3(b[key]) != sig3(want):
            failures.append(f"{key}: computed {b[key]:.5g}, table {want:.5g}")
    if rep.metadata["n"] != n or rep.metadata["cluster_tol"] != 1e-8:
        failures.append(f"checked with n={rep.metadata['n']}, cluster_tol="
                        f"{rep.metadata['cluster_tol']:g}")
    if rep.metadata["multiplicity"] < n:
        failures.append(f"cluster multiplicity {rep.metadata['multiplicity']} "
                        f"< {n} at 1/{s:g}")
    # analyze's cluster is exact by construction; count it independently
    # on eig(P^{-1} A)
    lam = preconditioned_spectrum(l16, build(l16, case_ii["lpess"]))
    count = int(np.count_nonzero(np.abs(lam - 1.0 / s) <= 1e-8))
    if count < n:
        failures.append(f"eig(P^-1 A) has {count} eigenvalues within 1e-8 "
                        f"of 1/{s:g}, < {n}")
    if rep.violations:
        failures.append(f"{len(rep.violations)} eigenvalues escape the "
                        f"dropped-shift localization")
    verdict("criterion 3c: dropped-shift table, cluster multiplicity 512",
            failures)


# -- criterion 4: condition numbers ------------------------------------------


def test_criterion4_condition_numbers(l32):
    failures = []
    kappa = condition_number(l32)
    if abs(kappa - 5.4289e4) > 0.01 * 5.4289e4:
        failures.append(f"kappa(A) l=32 = {kappa:.5g}, want 5.4289e4 +- 1%")
    P = build(l32, case_preset("II", l32, s=50.0))
    kp = condition_number(l32, P)
    if abs(kp - 3.4221) > 0.01 * 3.4221:
        failures.append(f"kappa(P^-1 A) s=50 = {kp:.5g}, want 3.4221 +- 1%")
    l8 = example1(8)
    kappas = [condition_number(l8, build(l8, case_preset("II", l8, s=s)))
              for s in (5.0, 10.0, 20.0, 50.0)]
    if not np.all(np.diff(kappas) < 0):
        failures.append(f"kappa(s) not strictly decreasing: {kappas}")
    verdict(f"criterion 4: condition numbers (kappa={kappa:.5g}, "
            f"kappa_pre={kp:.5g})", failures)


# -- criterion 5: sensitivity -------------------------------------------------


def test_criterion5_sensitivity(l16):
    failures = []
    cfg = case_preset("II", l16, s=12.0)
    base = run(l16, build(l16, cfg), tol=1e-10)
    worst = 0.0
    for pct in range(5, 45, 5):
        pert = perturb(l16, NoiseSpec(percentage=pct, seed=0))
        rep = run(pert, build(pert, case_preset("II", pert, s=12.0)),
                  tol=1e-10, d=rhs_for_ones(pert))
        err = float(np.linalg.norm(rep.solution - base.solution))
        worst = max(worst, err)
        if err >= 1e-8:
            failures.append(f"noise {pct}%: error {err:.3e} >= 1e-8")
    verdict(f"criterion 5: noise sensitivity (worst error {worst:.3e})",
            failures)


# -- criterion 6: property suites ---------------------------------------------


def test_criterion6_algorithm1_oracle():
    failures = []
    sizes = [(12, 8, 5), (60, 40, 25), (300, 200, 100)]
    for idx, (n, m, p) in enumerate(sizes):
        rng = np.random.default_rng(2000 + idx)
        sysv = random_system(rng, n=n, m=m, p=p)
        for kind in KINDS:
            cfg = {
                "pess": dict(lambda1=1.0, lambda2=1.0, lambda3=0.001, s=2.0),
                "lpess": dict(lambda2=1.0, lambda3=0.001, s=2.0),
                "ss": dict(alpha=0.1), "rss": dict(alpha=0.1),
                "egss": dict(alpha=0.1, beta=1.0, gamma=0.001),
                "rpgss": dict(beta=1.0, gamma=0.001),
            }[kind]
            P = build(sysv, make_config(kind, **cfg))
            R = rng.standard_normal((sysv.size, 50))
            W = P.apply(R)
            ref = np.linalg.solve(P.matrix.toarray(), R)
            rel = np.linalg.norm(W - ref) / np.linalg.norm(ref)
            if rel >= 1e-10:
                failures.append(f"size {n+m+p} {kind}: relative error {rel:.2e}")
    verdict("criterion 6a: block solve vs explicit-matrix LU, 50 rhs",
            failures)


def test_criterion6_splitting_identity():
    failures = []
    for seed in range(10):
        sysv = random_system(np.random.default_rng(3000 + seed))
        s = 0.5 + 3.0 * (seed / 10.0)
        cfg = make_config("pess", lambda1=1.0, lambda2=2.0, lambda3=0.01, s=s)
        rel = splitting_residual(sysv, cfg) / np.linalg.norm(
            sysv.matrix.toarray(), "fro")
        if rel >= 1e-12:
            failures.append(f"seed {seed} s={s:g}: residual {rel:.2e}")
    verdict("criterion 6b: splitting identity P - Q = coefficient matrix",
            failures)


def test_criterion6_localization_random():
    failures = []
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        sysv = random_system(rng, n=10, m=6, p=4)
        s = [0.5, 1.0, 2.0, 5.0][seed % 4]
        cfg = make_config("pess", lambda1=1.0, lambda2=1.0, lambda3=0.001, s=s)
        spec, _, reports = analyze(sysv, cfg)
        theorems = tuple(rep.theorem for rep in reports)
        if theorems != ("unit-disk", "real-interval", "nonreal-disjunction"):
            failures.append(f"seed {seed}: checked {theorems}")
        for rep in reports:
            if not rep.holds:
                failures.append(f"seed {seed}: {rep.theorem} violated")
        if not np.all(spec.real > 0):
            failures.append(f"seed {seed}: not positive stable")
        # real within |im| <= 1e-8 max(1, |re|)
        real = spec[np.abs(spec.imag)
                    <= 1e-8 * np.maximum(1.0, np.abs(spec.real))].real
        if real.size and not np.all((real > 0) & (real < 1.0 / s + 1e-9)):
            failures.append(f"seed {seed}: real eigenvalue outside (0, 1/s)")
    verdict("criterion 6c: disk/positivity/interval on 20 random systems",
            failures)


def test_criterion6_stationary_equivalence():
    failures = []
    s_values = [2.0, 1.0, 0.5, 0.3, 0.05, 0.01]
    violations_seen = 0
    for seed in range(20):
        sysv = random_system(np.random.default_rng(5000 + seed), n=10, m=6,
                             p=4)
        s = s_values[seed % len(s_values)]
        lam3 = 1e-4 if s < 0.5 else 0.001
        cfg = make_config("pess", lambda1=1.0, lambda2=1.0, lambda3=lam3, s=s)
        pred = convergence_predicate(sysv, cfg)
        P = build(sysv, cfg)
        rho = iteration_matrix_radius(sysv, P)
        if abs(rho - 1.0) < 1e-8:
            continue
        if pred.holds != (rho < 1.0):
            failures.append(f"seed {seed} s={s:g}: predicate {pred.holds}, "
                            f"rho={rho:.4f}")
        if not pred.holds:
            violations_seen += 1
            try:
                rep = stationary(sysv, rhs_for_ones(sysv), P, tol=1e-8,
                                 maxit=5000)
            except Diverged:
                continue
            if rep.converged:
                failures.append(f"seed {seed} s={s:g}: predicate fails but "
                                f"the iteration converged")
            continue
        if rho < 0.999:  # enough headroom for a finite-iteration confirmation
            rep = stationary(sysv, rhs_for_ones(sysv), P, tol=1e-8,
                             maxit=200000)
            if not rep.converged:
                failures.append(f"seed {seed} s={s:g}: predicate holds but "
                                f"the iteration stalled")
    if violations_seen == 0:
        failures.append("no engineered s < 1/2 violation was exercised")
    verdict("criterion 6d: stationary convergence iff predicate, 20 systems",
            failures)


def test_criterion6_phi_quadratic():
    failures = []
    sysv = random_system(np.random.default_rng(6000))
    cfg = make_config("pess", lambda1=1.0, lambda2=1.0, lambda3=0.001, s=1.0)
    from saddlekit.precond import operand_sparse
    n, m = sysv.n, sysv.m
    sigma = np.zeros((sysv.size, sysv.size))
    sigma[:n, :n] = operand_sparse(cfg.lambda1, n).toarray()
    sigma[n:n + m, n:n + m] = operand_sparse(cfg.lambda2, m).toarray()
    sigma[n + m:, n + m:] = operand_sparse(cfg.lambda3, sysv.p).toarray()
    Amat = sysv.matrix.toarray()
    grid = np.linspace(-1.0, 3.0, 17)
    vals = []
    for s in grid:
        direct = float(np.linalg.norm(sigma - (1.0 - s) * Amat, "fro") ** 2)
        got = phi(sysv, cfg, s)
        vals.append(got)
        if abs(got - direct) / direct >= 1e-10:
            failures.append(f"s={s:g}: closed form {got:.6e} vs direct "
                            f"{direct:.6e}")
    second = np.diff(vals, 2)
    if not np.all(second > 0):
        failures.append("phi is not convex on the grid")
    s_star = phi_minimizer(sysv, cfg)
    if not (phi(sysv, cfg, s_star) <= min(vals)):
        failures.append("analytic minimizer is not the minimum")
    verdict("criterion 6e: splitting-norm quadratic closed form + convexity",
            failures)


def test_criterion6_gmres_monotonicity():
    # its own runs, so that the check stands when selected alone: every
    # kind, none and bd included, on both sides at two small sizes
    settings = dict(lambda1=1.0, lambda2=1.0, lambda3=0.001, s=1.0,
                    alpha=0.1, beta=1.0, gamma=0.001)
    for sysv in (example1(3), example1(4)):
        shifts = [build(sysv, make_config(k, **settings)) for k in KINDS]
        for P in [None, build_bd(sysv), *shifts]:
            for side in ("right", "left"):
                run(sysv, P, side=side)
    failures = []
    if len(MONITORED_RUNS) < 20:
        failures.append(f"only {len(MONITORED_RUNS)} runs were recorded")
    for i, rep in enumerate(MONITORED_RUNS):
        h = rep.res_history
        diffs = np.diff(h)
        if not np.all(diffs <= 0):
            failures.append(f"run {i} ({rep.side}): history not monotone")
    verdict(f"criterion 6f: residual monotonicity over "
            f"{len(MONITORED_RUNS)} recorded runs", failures)
