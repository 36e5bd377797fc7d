"""Command-line interface wiring generators, solvers, spectral checks, and
report writers (JSON for a ``--report`` path ending in ``.json``, else CSV).

Exit codes: 0 success/converged, 1 usage or configuration error (including
an input that is not SPD, a singular preconditioner or coefficient matrix, a
failed eigensolve, a ``spectrum`` or ``sensitivity`` system above the
densification guard, an output path that is a directory or lies in a
missing one, refused before any work, or one that cannot be written), 2
non-convergence (for ``compare``, ``sweep-s`` and ``sensitivity``, of any
row; ``compare`` alone keeps going past a kind that fails and records it as
an unconverged error row).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys as _sys

import numpy as np

from . import mmio, params, precond, problems, spectral
from .dense import ConvergenceFailure, NotPositiveDefinite, Singular
from .gmres import gmres
from .system import require_densifiable, rhs_for_ones

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOCONV = 2

PRECOND_KINDS = ("none", *precond.KINDS, "bd")
# example1's peak memory while it builds its blocks, per grid cell (about
# 890 bytes at every l from 32 to 256)
GEN_BYTES_PER_CELL = 900


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


def _add_case_args(p):
    p.add_argument("--case", choices=["I", "II"], default="I",
                   help="shift preset (I: identity shifts, II: A and C C^T)")
    p.add_argument("--lambda3-coef", type=float, default=0.001,
                   help="coefficient of the case preset's third shift "
                        "(default 0.001)")


def _add_shift_args(p):
    _add_case_args(p)
    p.add_argument("--s", type=float, default=12.0)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.001)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="saddlekit",
        description="Shift-splitting preconditioned solvers for "
                    "three-by-three block saddle point systems.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="one (preconditioner, problem) run")
    _add_problem_args(p)
    p.add_argument("--precond", choices=PRECOND_KINDS, default="none")
    _add_shift_args(p)
    _add_solver_args(p)
    p.add_argument("--report", metavar="PATH")

    p = sub.add_parser("compare", help="run a list of preconditioners")
    _add_problem_args(p)
    _add_shift_args(p)
    _add_solver_args(p)
    p.add_argument("--kinds", default="ss,rss,egss,pess,lpess",
                   help="comma-separated preconditioner kinds")
    p.add_argument("--report", metavar="PATH", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues and bound verdicts")
    _add_problem_args(p)
    p.add_argument("--precond", choices=PRECOND_KINDS, default="none")
    _add_shift_args(p)
    p.add_argument("--eig-csv", metavar="PATH")
    p.add_argument("--report", metavar="PATH", help="bound-report JSON path")

    p = sub.add_parser("sweep-s", help="iteration counts over a range of s")
    _add_problem_args(p)
    p.add_argument("--precond", choices=["pess", "lpess"], default="pess")
    _add_case_args(p)
    _add_solver_args(p)
    p.add_argument("--s-values", required=True,
                   help="comma-separated s values, e.g. 1,2,5,10")
    p.add_argument("--with-cond", action="store_true",
                   help="also record the condition number per s")
    p.add_argument("--report", metavar="PATH", required=True)

    p = sub.add_parser("sensitivity",
                       help="solution error under coupling-block noise")
    _add_problem_args(p)
    p.add_argument("--precond", choices=PRECOND_KINDS, default="none")
    _add_shift_args(p)
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
    p.add_argument("--report", metavar="PATH",
                   help="report of the --preset solve")

    return ap


def _comma_list(text, convert, empty_message):
    items = [convert(t) for t in text.split(",") if t.strip()]
    if not items:
        raise CliError(empty_message)
    return items


def _finite_list(text, option, empty_message):
    """The comma-separated floats of ``option``, each finite."""
    items = _comma_list(text, float, empty_message)
    if not all(map(math.isfinite, items)):
        raise CliError(f"{option} takes finite values, got {text!r}")
    return items


def _make_system(args):
    if args.gen_l is not None:
        if args.gen_l < 2:
            raise CliError("--gen-l must be at least 2")
        if args.shift_a:
            raise CliError("--shift-a applies only to --load")
        need = GEN_BYTES_PER_CELL * args.gen_l ** 2
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise CliError(f"--gen-l {args.gen_l} needs about "
                           f"{need / 2**30:.3g} GiB to build its blocks, "
                           f"more than this machine's {have / 2**30:.3g} GiB")
        return problems.example1(args.gen_l), f"gen-l{args.gen_l}"
    try:
        sys_ = problems.load_external(*args.load, shift_a=args.shift_a)
    except (OSError, ValueError) as exc:
        raise CliError(f"failed to load system: {exc}") from exc
    return sys_, "external"


def _gss_config(kind, sys_, args):
    """The config of the shift-splitting ``kind`` from the command's
    settings, and the settings it read, for a report's params."""
    if kind in ("pess", "lpess"):
        # the case preset (P, Q, coef*W), without L1 for lpess
        cfg = problems.case_preset(args.case, sys_, args.s, args.lambda3_coef)
        if kind == "lpess":
            cfg = dataclasses.replace(cfg, lambda1=None)
        return cfg, {"case": args.case, "s": args.s,
                     "lambda3_coef": args.lambda3_coef}
    # the half-shift kinds scale the case operands by their coefficients
    P, Q, W = problems.case_operands(args.case, sys_)
    cfg = precond.make_config(kind, alpha=args.alpha, beta=args.beta,
                              gamma=args.gamma, P=P, Q=Q, W=W)
    coefs, _, reads_operands = precond.HALF_SHIFTS[kind]
    meta = {"case": args.case} if reads_operands else {}
    meta.update((c, getattr(args, c)) for c in coefs if c)
    return cfg, meta


def _solve_one(kind, sys_, problem_id, args):
    """Build the preconditioner and solve for the right-hand side whose
    solution is all ones; return the report, its record and the
    preconditioner (None for "none")."""
    P, meta = None, {}
    if kind == "bd":
        P = precond.build_bd(sys_)
    elif kind != "none":
        cfg, meta = _gss_config(kind, sys_, args)
        P = precond.build(sys_, cfg)
    return (*_solve_with(kind, P, meta, sys_, problem_id, args), P)


def _solve_with(kind, P, meta, sys_, problem_id, args):
    """Solve with the built preconditioner ``P`` (None for the identity) for
    the right-hand side whose solution is all ones; return the report and
    its record, which carries the monitored and the true residual, the
    apply counts, the seconds of each solver phase (``<phase>_s``) and the
    preconditioner's build seconds and factor entries (0 without one)."""
    rep = gmres(sys_, rhs_for_ones(sys_),
                precond=None if P is None else P.apply, tol=args.tol,
                maxit=args.maxit, side=args.side)
    record = mmio.ReportRecord(
        process=kind, problem=problem_id, size=sys_.size,
        it=rep.iterations, res=rep.final_res, wall_seconds=rep.wall_seconds,
        params={**meta, "tol": args.tol, "maxit": args.maxit,
                "side": rep.side, "true_res": rep.true_final_res,
                "n_matvec": rep.n_matvec, "n_precond": rep.n_precond,
                "build_seconds": 0.0 if P is None else P.build_seconds,
                "factor_nnz": 0 if P is None else P.factor_nnz,
                **{f"{k}_s": t for k, t in rep.phase_seconds.items()}},
        converged=rep.converged)
    return rep, record


def _res_fields(record):
    true_res = record.params.get("true_res", float("nan"))
    return (f"res={mmio.format_res(record.res)} "
            f"true_res={mmio.format_res(true_res)}")


def _exit_code(records):
    """EXIT_NOCONV when any row did not converge (error rows included)."""
    return EXIT_OK if all(r.converged for r in records) else EXIT_NOCONV


def cmd_solve(args):
    sys_, pid = _make_system(args)
    rep, record, _ = _solve_one(args.precond, sys_, pid, args)
    print(f"{record.process} {record.problem} size={record.size} "
          f"it={record.it} {_res_fields(record)} "
          f"wall={record.wall_seconds:.3f}s")
    if args.report:
        mmio.write_report([record], args.report)
    return EXIT_OK if rep.converged else EXIT_NOCONV


def cmd_compare(args):
    kinds = _comma_list(args.kinds, str.strip, "empty kind list")
    for k in kinds:
        if k not in PRECOND_KINDS:
            raise CliError(f"unknown preconditioner kind {k!r}")
    sys_, pid = _make_system(args)
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
        print(f"{record.process:8s} it={record.it:5d} {_res_fields(record)}")
    mmio.write_report(records, args.report)
    return _exit_code(records)


def cmd_spectrum(args):
    """The verdicts of a shift-splitting kind come from its config alone,
    so no P is built for one; bd is built only below the densification
    guard.  No bound applies to none or bd, so they refuse ``--report``."""
    kind, reports = args.precond, ()
    if args.report and kind not in precond.KINDS:
        raise CliError(f"--report needs a shift-splitting --precond: "
                       f"no bound applies to {kind}")
    sys_, pid = _make_system(args)
    if kind in precond.KINDS:
        spec, _, reports = spectral.analyze(
            sys_, _gss_config(kind, sys_, args)[0])
    else:
        require_densifiable(sys_)
        spec = spectral.preconditioned_spectrum(
            sys_, None if kind == "none" else precond.build_bd(sys_))
        what = "unpreconditioned" if kind == "none" else "preconditioned"
        print(f"{pid}: {len(spec)} eigenvalues of the {what} operator")
    for r in reports:
        print(f"{r.theorem}: {'holds' if r.holds else 'VIOLATED'} "
              f"({len(r.violations)} violations)")
    if args.eig_csv:
        spectral.write_eigenvalue_csv(spec, args.eig_csv)
    if args.report:
        mmio.write_json(reports, args.report)
    return EXIT_OK


def cmd_sweep_s(args):
    s_values = _finite_list(args.s_values, "--s-values", "empty s range")
    sys_, pid = _make_system(args)
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
    mmio.write_report(records, args.report)
    return _exit_code(records)


def cmd_sensitivity(args):
    noises = [problems.NoiseSpec(percentage=pct, seed=args.seed)
              for pct in _finite_list(args.noise, "--noise",
                                      "empty noise list")]
    sys_, pid = _make_system(args)
    require_densifiable(sys_)  # perturb densifies B and C
    base_rep, _, _ = _solve_one(args.precond, sys_, pid, args)
    if not base_rep.converged:
        print("baseline solve did not converge")
        return EXIT_NOCONV
    records = []
    for noise in noises:
        pert = problems.perturb(sys_, noise)
        rep, record, _ = _solve_one(args.precond, pert, pid, args)
        err = float(np.linalg.norm(rep.solution - base_rep.solution))
        print(f"noise={noise.percentage:g}% error={err:.4e}")
        record.params.update(noise_pct=noise.percentage, seed=noise.seed,
                             solution_error=err)
        records.append(dataclasses.replace(
            record, process=f"{args.precond}+noise"))
    if args.report:
        mmio.write_report(records, args.report)
    return _exit_code(records)


def cmd_params(args):
    if args.report and not args.preset:
        raise CliError("--report needs --preset")
    grid = (None if args.phi_grid is None
            else _finite_list(args.phi_grid, "--phi-grid", "empty phi grid"))
    sys_, pid = _make_system(args)
    A, _, W = problems.case_operands("II", sys_)
    coef = 1e-4
    lam3 = coef * W
    est = params.estimate_params(sys_, lam3)
    print(f"s_est={est.s_est:.6g} beta_est={est.beta_est:.6g}")
    for k, v in est.norms.items():
        print(f"  {k}={v:.6g}")
    if grid:
        cfg = problems.case_preset(args.case, sys_, s=1.0)
        smin = params.phi_minimizer(sys_, cfg)
        print(f"phi minimizer s*={smin:.6g}")
        for s in grid:
            print(f"  phi({s:g}) = {params.phi(sys_, cfg, s):.8e}")
    if args.preset:
        cfg = precond.make_config(args.preset.removesuffix("-II"),
                                  lambda1=A, lambda2=est.beta_est,
                                  lambda3=lam3, s=est.s_est)
        meta = {"s_est": est.s_est, "beta_est": est.beta_est,
                "lambda3_coef": coef}
        _, record = _solve_with(args.preset, precond.build(sys_, cfg), meta,
                                sys_, pid, args)
        print(f"{args.preset} it={record.it} {_res_fields(record)}")
        if args.report:
            mmio.write_report([record], args.report)
        return _exit_code([record])
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
        # refuse an output path before any work; the writes still come last
        for path in filter(None, (args.report, vars(args).get("eig_csv"))):
            if os.path.isdir(path):
                raise CliError(f"{path} is a directory")
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise CliError(f"{path}: its directory does not exist")
        return _COMMANDS[args.command](args)
    except (CliError, ValueError, OSError, NotPositiveDefinite, Singular,
            ConvergenceFailure) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
