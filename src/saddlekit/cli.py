"""Command-line interface wiring generators, solvers, spectral checks, and
report writers.

Exit codes: 0 success/converged, 1 usage or configuration error (including
an input that is not SPD, a singular preconditioner or a failed eigensolve),
2 non-convergence (for ``compare`` and ``sweep-s``, of any row; an error
row counts as not converged).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys as _sys

import numpy as np

from . import mmio, params, precond, problems, spectral
from .dense import ConvergenceFailure, NotPositiveDefinite, Singular
from .gmres import gmres
from .system import rhs_for_ones

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOCONV = 2

PRECOND_KINDS = ("none", "pess", "lpess", "ss", "rss", "egss", "rpgss", "bd")


class CliError(Exception):
    pass


def _add_problem_args(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--gen-l", type=int, metavar="L",
                     help="generate the Kronecker test problem of order 4*L^2")
    src.add_argument("--load", nargs=3, metavar=("A.mtx", "B.mtx", "C.mtx"),
                     help="load the three blocks from Matrix Market files")
    p.add_argument("--shift-a", type=float, default=0.0,
                   help="diagonal shift added to a loaded A block")


def _add_solver_args(p):
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--maxit", type=int, default=7000)
    p.add_argument("--side", choices=["right", "left"], default="right",
                   help="preconditioning side; left stops on the "
                        "preconditioned residual as MATLAB's gmres does")


def _add_precond_args(p, kinds=PRECOND_KINDS):
    p.add_argument("--precond", choices=kinds, default="none")
    p.add_argument("--case", choices=["I", "II"], default="I",
                   help="shift preset (I: identity shifts, II: A and C C^T)")
    p.add_argument("--s", type=float, default=12.0)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.001)
    p.add_argument("--lambda3-coef", type=float, default=None,
                   help="coefficient of the case preset's third shift "
                        "(default 0.001)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="saddlekit",
        description="Shift-splitting preconditioned solvers for "
                    "three-by-three block saddle point systems.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="one (preconditioner, problem) run")
    _add_problem_args(p)
    _add_precond_args(p)
    _add_solver_args(p)
    p.add_argument("--report", metavar="PATH", help="CSV report path")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("compare", help="run a list of preconditioners")
    _add_problem_args(p)
    _add_precond_args(p)
    _add_solver_args(p)
    p.add_argument("--kinds", default="ss,rss,egss,pess,lpess",
                   help="comma-separated preconditioner kinds")
    p.add_argument("--report", metavar="PATH", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues and bound verdicts")
    _add_problem_args(p)
    _add_precond_args(p)
    p.add_argument("--eig-csv", metavar="PATH")
    p.add_argument("--report", metavar="PATH", help="bound-report JSON path")

    p = sub.add_parser("sweep-s", help="iteration counts over a range of s")
    _add_problem_args(p)
    _add_precond_args(p)
    _add_solver_args(p)
    p.add_argument("--s-values", required=True,
                   help="comma-separated s values, e.g. 1,2,5,10")
    p.add_argument("--with-cond", action="store_true",
                   help="also record the condition number per s")
    p.add_argument("--report", metavar="PATH", required=True)

    p = sub.add_parser("sensitivity",
                       help="solution error under coupling-block noise")
    _add_problem_args(p)
    _add_precond_args(p)
    _add_solver_args(p)
    p.add_argument("--noise", default="5,10,15,20,25,30,35,40",
                   help="comma-separated noise percentages")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", metavar="PATH")

    p = sub.add_parser("params", help="balancing estimates and phi table")
    _add_problem_args(p)
    _add_solver_args(p)
    p.add_argument("--preset", choices=["pess-II", "lpess-II"],
                   help="solve immediately with the estimated parameters")
    p.add_argument("--phi-grid", default=None,
                   help="comma-separated s grid for the phi table")
    p.add_argument("--case", choices=["I", "II"], default="II")

    return ap


def _make_system(args):
    if args.gen_l is not None:
        if args.gen_l < 2:
            raise CliError("--gen-l must be at least 2")
        return problems.example1(args.gen_l), f"gen-l{args.gen_l}"
    try:
        sys_ = problems.load_external(*args.load, shift_a=args.shift_a)
    except (OSError, ValueError) as exc:
        raise CliError(f"failed to load system: {exc}") from exc
    return sys_, "external"


def _make_precond(kind, sys_, args):
    if kind == "none":
        return None, {}
    if kind == "bd":
        return precond.build_bd(sys_), {}
    coef = args.lambda3_coef
    if kind in ("pess", "lpess"):
        base = problems.case_preset(args.case, sys_, s=args.s,
                                    lambda3_coef=coef)
        if kind == "lpess":
            cfg = precond.make_config("lpess", lambda2=base.lambda2,
                                      lambda3=base.lambda3, s=args.s)
        else:
            cfg = base
        meta = {"case": args.case, "s": args.s}
    elif kind == "ss":
        cfg = precond.make_config("ss", alpha=args.alpha)
        meta = {"alpha": args.alpha}
    elif kind == "rss":
        cfg = precond.make_config("rss", alpha=args.alpha)
        meta = {"alpha": args.alpha}
    elif kind in ("egss", "rpgss"):
        # Case I pairs the scalars with identity operands; Case II with
        # P = A, Q = I, W = C C^T
        if args.case == "II":
            ops = {"P": sys_.A, "Q": 1.0, "W": sys_.C @ sys_.C.T}
        else:
            ops = {}
        if kind == "egss":
            cfg = precond.make_config("egss", alpha=args.alpha,
                                      beta=args.beta, gamma=args.gamma, **ops)
            meta = {"case": args.case, "alpha": args.alpha,
                    "beta": args.beta, "gamma": args.gamma}
        else:
            ops.pop("P", None)
            cfg = precond.make_config("rpgss", beta=args.beta,
                                      gamma=args.gamma, **ops)
            meta = {"case": args.case, "beta": args.beta,
                    "gamma": args.gamma}
    return precond.build(sys_, cfg), meta


def _solve_one(kind, sys_, problem_id, args):
    """Build the preconditioner and solve for the right-hand side whose
    solution is all ones; return the report, its record and the
    preconditioner (None for "none")."""
    P, meta = _make_precond(kind, sys_, args)
    d = rhs_for_ones(sys_)
    apply_p = None if P is None else P.apply
    rep = gmres(sys_, d, precond=apply_p, tol=args.tol, maxit=args.maxit,
                side=args.side)
    record = mmio.ReportRecord(
        process=kind, problem=problem_id, size=sys_.size,
        it=rep.iterations, res=rep.final_res, wall_seconds=rep.wall_seconds,
        params={**meta, "tol": args.tol, "maxit": args.maxit,
                "side": rep.side},
        converged=rep.converged)
    return rep, record, P


def _exit_code(records):
    """EXIT_NOCONV when any row did not converge (error rows included)."""
    return EXIT_OK if all(r.converged for r in records) else EXIT_NOCONV


def cmd_solve(args):
    sys_, pid = _make_system(args)
    rep, record, _ = _solve_one(args.precond, sys_, pid, args)
    print(f"{record.process} {record.problem} size={record.size} "
          f"it={record.it} res={mmio.format_res(record.res)} "
          f"wall={record.wall_seconds:.3f}s")
    if args.report:
        mmio.write_report([record], args.format, args.report)
    return EXIT_OK if rep.converged else EXIT_NOCONV


def cmd_compare(args):
    sys_, pid = _make_system(args)
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    for k in kinds:
        if k not in PRECOND_KINDS:
            raise CliError(f"unknown preconditioner kind {k!r}")
    records = []
    for k in kinds:
        try:
            _, record, _ = _solve_one(k, sys_, pid, args)
        except Exception as exc:  # record the failing row, keep going
            record = mmio.ReportRecord(process=k, problem=pid, size=sys_.size,
                                       it=-1, res=float("nan"),
                                       wall_seconds=0.0,
                                       params={"error": str(exc),
                                               "error_type": type(exc).__name__},
                                       converged=False)
        records.append(record)
        print(f"{record.process:8s} it={record.it:5d} "
              f"res={mmio.format_res(record.res)}")
    mmio.write_report(records, "csv", args.report)
    return _exit_code(records)


def cmd_spectrum(args):
    sys_, pid = _make_system(args)
    reports = []
    if args.precond == "none":
        spec = spectral.preconditioned_spectrum(sys_)
        print(f"{pid}: {len(spec)} eigenvalues of the "
              f"unpreconditioned operator")
    elif args.precond in ("pess", "lpess"):
        P, _ = _make_precond(args.precond, sys_, args)
        spec = spectral.preconditioned_spectrum(sys_, P)
        ext = spectral.scalar_extremes(sys_, P.config)
        reports.append(spectral.check_unit_disk(spec, args.s))
        if args.precond == "pess":
            reports.append(spectral.check_real_interval(spec, ext, args.s))
            reports.append(spectral.check_pess_nonreal(spec, ext, args.s))
        else:
            reports.append(spectral.lpess_bounds(spec, ext, args.s, sys_.n))
        for r in reports:
            print(f"{r.theorem}: {'holds' if r.holds else 'VIOLATED'} "
                  f"({len(r.violations)} violations)")
    else:
        P, _ = _make_precond(args.precond, sys_, args)
        spec = spectral.preconditioned_spectrum(sys_, P)
        if hasattr(P, "config"):  # the shift-splitting family
            reports.append(spectral.check_unit_disk(spec, P.config.s))
            print(f"unit-disk: {'holds' if reports[0].holds else 'VIOLATED'}")
        else:
            print(f"{pid}: {len(spec)} eigenvalues of the "
                  f"preconditioned operator")
    if args.eig_csv:
        spectral.write_eigenvalue_csv(spec, args.eig_csv)
    if args.report:
        spectral.write_spectral_report(reports, args.report)
    return EXIT_OK


def cmd_sweep_s(args):
    sys_, pid = _make_system(args)
    s_values = [float(t) for t in args.s_values.split(",") if t.strip()]
    if not s_values:
        raise CliError("empty s range")
    records = []
    for s in s_values:
        args.s = s
        _, record, P = _solve_one(args.precond, sys_, pid, args)
        if args.with_cond:
            record.params["cond"] = spectral.condition_number(sys_, P)
        records.append(record)
        extra = (f" cond={record.params['cond']:.4e}"
                 if args.with_cond else "")
        print(f"s={s:g} it={record.it}{extra}")
    mmio.write_report(records, "csv", args.report)
    return _exit_code(records)


def cmd_sensitivity(args):
    sys_, pid = _make_system(args)
    levels = [float(t) for t in args.noise.split(",") if t.strip()]
    base_rep, _, _ = _solve_one(args.precond, sys_, pid, args)
    if not base_rep.converged:
        print("baseline solve did not converge")
        return EXIT_NOCONV
    records = []
    for np_pct in levels:
        pert = problems.perturb(
            sys_, problems.NoiseSpec(percentage=np_pct, seed=args.seed))
        rep, record, _ = _solve_one(args.precond, pert, pid, args)
        err = float(np.linalg.norm(rep.solution - base_rep.solution))
        print(f"noise={np_pct:g}% error={err:.4e}")
        record.params.update(noise_pct=np_pct, seed=args.seed,
                             solution_error=err)
        records.append(dataclasses.replace(
            record, process=f"{args.precond}+noise"))
    if args.report:
        mmio.write_report(records, "csv", args.report)
    return EXIT_OK


def cmd_params(args):
    sys_, pid = _make_system(args)
    lam3 = problems.case_preset("II", sys_, s=1.0, lambda3_coef=1e-4).lambda3
    est = params.estimate_params(sys_, lam3)
    print(f"s_est={est.s_est:.6g} beta_est={est.beta_est:.6g}")
    for k, v in est.norms.items():
        print(f"  {k}={v:.6g}")
    if args.phi_grid:
        cfg = problems.case_preset(args.case, sys_, s=1.0)
        smin = params.phi_minimizer(sys_, cfg)
        print(f"phi minimizer s*={smin:.6g}")
        for s in (float(t) for t in args.phi_grid.split(",") if t.strip()):
            print(f"  phi({s:g}) = {params.phi(sys_, cfg, s):.8e}")
    if args.preset:
        if args.preset == "pess-II":
            cfg = precond.GssConfig(sys_.A, est.beta_est, lam3, s=est.s_est)
        else:
            cfg = precond.make_config("lpess", lambda2=est.beta_est,
                                      lambda3=lam3, s=est.s_est)
        P = precond.build(sys_, cfg)
        d = rhs_for_ones(sys_)
        rep = gmres(sys_, d, precond=P.apply, tol=args.tol, maxit=args.maxit,
                    side=args.side)
        print(f"{args.preset} it={rep.iterations} "
              f"res={mmio.format_res(rep.final_res)}")
        return EXIT_OK if rep.converged else EXIT_NOCONV
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "compare": cmd_compare,
    "spectrum": cmd_spectrum,
    "sweep-s": cmd_sweep_s,
    "sensitivity": cmd_sensitivity,
    "params": cmd_params,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (CliError, ValueError, FileNotFoundError, NotPositiveDefinite,
            Singular, ConvergenceFailure) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
