"""The benchmark's four workloads and the gates that check their answers.

A workload has a set-up (problem generation or loading plus every
preconditioner build) and a body (the solves or the analysis).  Both call
saddlekit through module attributes only, so the traced run can swap in
timing wrappers.  ``smoke=True`` shrinks every problem so the harness runs
in seconds; the paper-table gates apply at full size only.

The gates deliberately leave out the criterion 3b/3c bound-table values and
the criterion-2 estimated parameters: those are open, known mismatches of
the program, not properties a performance change may alter.
"""

from __future__ import annotations

import dataclasses
import importlib
from time import perf_counter

import numpy as np

from saddlekit import dense, mmio, precond, problems, spectral, system

# The package attribute ``saddlekit.gmres`` is the re-exported function; the
# tracer needs the module, whose ``operator_apply`` global the solver calls.
gmres_mod = importlib.import_module("saddlekit.gmres")

TOL = 1e-6


def true_residual(sys_, x, d):
    """||A x - d|| / ||d||, recomputed outside the solver."""
    return float(np.linalg.norm(system.operator_apply(sys_, x) - d)
                 / np.linalg.norm(d))


def factor_bytes(P):
    """Bytes of the arrays a built preconditioner holds (computed from array
    sizes, not measured)."""
    total = 0
    for f in dataclasses.fields(P):
        value = getattr(P, f.name)
        if isinstance(value, dense.CholeskyFactor):
            value = value.lower
        if isinstance(value, np.ndarray):
            total += value.nbytes
    return total


class Round:
    """What one pass of a workload timed, counted and checked.

    ``wrap_precond`` maps a built preconditioner to the callable handed to
    the library: ``P.apply`` normally, a timed wrapper when tracing.
    """

    def __init__(self, wrap_precond):
        self.wrap_precond = wrap_precond
        self.setup_s = None
        self.wall_s = None
        self.solve_s = 0.0
        self.gmres_it = 0
        self.rhs = 0
        self.factor_bytes = 0
        self.attempted = 0
        self.failures = []

    def call(self, fn, *args, **kwargs):
        """Call a solve-phase function, adding its time to ``solve_s``."""
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.solve_s += perf_counter() - t0

    def gmres(self, sys_, d, P, **kwargs):
        apply_p = None if P is None else self.wrap_precond(P)
        rep = self.call(gmres_mod.gmres, sys_, d, precond=apply_p, **kwargs)
        self.gmres_it += rep.iterations
        self.rhs += 1
        return rep

    def built(self, P):
        self.factor_bytes += factor_bytes(P)
        return P

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Workload:
    name = None

    def prepare(self, workdir):
        """Untimed preparation before the first round."""


class KrylovL16(Workload):
    """Unpreconditioned right GMRES on example1(16), the paper's 865-iteration
    row: all Krylov layer, no preconditioner code."""

    name = "krylov-l16"

    def __init__(self, smoke=False, seed=0):
        self.l = 4 if smoke else 16
        self.want_it = None if smoke else 865

    def setup(self, rnd):
        sys_ = problems.example1(self.l)
        return sys_, system.rhs_for_ones(sys_).to_array()

    def body(self, rnd, state):
        sys_, d = state
        rep = rnd.gmres(sys_, d, None, tol=TOL)
        res = true_residual(sys_, rep.solution, d)
        rnd.check(rep.converged and res < TOL
                  and self.want_it in (None, rep.iterations),
                  f"unpreconditioned: converged={rep.converged} "
                  f"it={rep.iterations} want {self.want_it} res={res:.3e}")


class CompareL32(Workload):
    """Criterion 1c's comparison table at l=32: four shift-splitting builds
    solved on the right, four baselines on the left.  Dominated by
    preconditioner factoring; GMRES takes 2-4 iterations per solve."""

    name = "compare-l32"
    S = 12.0
    PAPER_IT = {"pess-I": 2, "lpess-I": 2, "pess-II": 3, "lpess-II": 3,
                "ss": 4, "rss": 4, "egss": 4, "bd": 4}
    BASELINES = (("ss", {"alpha": 0.1}), ("rss", {"alpha": 0.1}),
                 ("egss", {"alpha": 0.1, "beta": 1.0, "gamma": 1e-3}))

    def __init__(self, smoke=False, seed=0):
        self.l = 4 if smoke else 32
        self.want = None if smoke else self.PAPER_IT

    def setup(self, rnd):
        sys_ = problems.example1(self.l)
        d = system.rhs_for_ones(sys_).to_array()
        runs = []
        for case in ("I", "II"):
            cfg = problems.case_preset(case, sys_, s=self.S)
            lcfg = precond.make_config("lpess", lambda2=cfg.lambda2,
                                       lambda3=cfg.lambda3, s=self.S)
            runs.append((f"pess-{case}", rnd.built(precond.build(sys_, cfg)),
                         "right"))
            runs.append((f"lpess-{case}",
                         rnd.built(precond.build(sys_, lcfg)), "right"))
        for kind, params in self.BASELINES:
            cfg = precond.make_config(kind, **params)
            runs.append((kind, rnd.built(precond.build(sys_, cfg)), "left"))
        runs.append(("bd", rnd.built(precond.build_bd(sys_)), "left"))
        return sys_, d, runs

    def body(self, rnd, state):
        sys_, d, runs = state
        for label, P, side in runs:
            rep = rnd.gmres(sys_, d, P, tol=TOL, side=side)
            ok = rep.converged and (self.want is None
                                    or rep.iterations == self.want[label])
            what = (f"{label} ({side}): converged={rep.converged} "
                    f"it={rep.iterations}")
            if side == "right":
                res = true_residual(sys_, rep.solution, d)
                ok = ok and res < TOL
                what += f" res={res:.3e}"
            rnd.check(ok, what)


class ManyRhsL32(Workload):
    """pess-II (s=12) built once on l=32 blocks loaded from Matrix Market
    files, then K seeded random right-hand sides at tol 1e-10: the
    preconditioner's apply path with its build paid once."""

    name = "many-rhs-l32"
    K = 8
    RHS_TOL = 1e-10

    def __init__(self, smoke=False, seed=0):
        self.l = 4 if smoke else 32
        self.seed = seed
        self.paths = None

    def prepare(self, workdir):
        sys_ = problems.example1(self.l)
        self.paths = [workdir / f"{block}{self.l}.mtx" for block in "ABC"]
        for M, path in zip((sys_.A, sys_.B, sys_.C), self.paths):
            mmio.write_matrix_market(M, path)

    def setup(self, rnd):
        sys_ = problems.load_external(*self.paths)
        cfg = problems.case_preset("II", sys_, s=12.0)
        return sys_, rnd.built(precond.build(sys_, cfg))

    def body(self, rnd, state):
        sys_, P = state
        rng = np.random.default_rng(self.seed)
        for k in range(self.K):
            d = rng.standard_normal(sys_.size)
            rep = rnd.gmres(sys_, d, P, tol=self.RHS_TOL)
            res = true_residual(sys_, rep.solution, d)
            rnd.check(rep.converged and res < self.RHS_TOL,
                      f"rhs {k}: converged={rep.converged} "
                      f"it={rep.iterations} res={res:.3e}")


class Analysis(Workload):
    """Criterion 3's spectra and bound checks at l=16 (Case II, s=13), then
    criterion 4's kappa(A) at l=32: the only workload in spectral/dense."""

    name = "analysis"
    S = 13.0
    KAPPA = 5.4289e4

    def __init__(self, smoke=False, seed=0):
        self.l_spec, self.l_cond = (4, 8) if smoke else (16, 32)
        self.kappa = None if smoke else self.KAPPA

    def setup(self, rnd):
        s_spec = problems.example1(self.l_spec)
        s_cond = problems.example1(self.l_cond)
        cfg = problems.case_preset("II", s_spec, s=self.S)
        lcfg = precond.make_config("lpess", lambda2=cfg.lambda2,
                                   lambda3=cfg.lambda3, s=self.S)
        return (s_spec, s_cond, cfg, rnd.built(precond.build(s_spec, cfg)),
                rnd.built(precond.build(s_spec, lcfg)))

    def body(self, rnd, state):
        s_spec, s_cond, cfg, P, LP = state
        s = self.S
        pess = rnd.call(spectral.preconditioned_spectrum, s_spec,
                        rnd.wrap_precond(P))
        lpess = rnd.call(spectral.preconditioned_spectrum, s_spec,
                         rnd.wrap_precond(LP))
        ext = rnd.call(spectral.scalar_extremes, s_spec, cfg)
        for rep in (rnd.call(spectral.check_unit_disk, pess, s),
                    rnd.call(spectral.check_real_interval, pess, ext, s),
                    rnd.call(spectral.check_pess_nonreal, pess, ext, s)):
            rnd.check(rep.holds, f"{rep.theorem}: "
                      f"{len(rep.violations)} violations")
        rep = rnd.call(spectral.lpess_bounds, lpess, ext, s, s_spec.n)
        mult = rep.metadata["multiplicity"]
        rnd.check(rep.holds and mult >= s_spec.n,
                  f"lpess: {len(rep.violations)} violations, "
                  f"multiplicity {mult} want >= {s_spec.n}")
        kappa = rnd.call(spectral.condition_number, s_cond)
        if self.kappa is None:
            ok = np.isfinite(kappa) and kappa >= 1.0
        else:
            ok = abs(kappa - self.kappa) <= 0.01 * self.kappa
        rnd.check(ok, f"kappa(A) l={self.l_cond} = {kappa:.5g}, "
                  f"want {self.kappa} +- 1%")


WORKLOADS = {w.name: w for w in (KrylovL16, CompareL32, ManyRhsL32, Analysis)}
