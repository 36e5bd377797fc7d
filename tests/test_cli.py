"""Command-line interface: exit codes and end-to-end subcommand flows on a
tiny generated problem."""

import csv
import json
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from saddlekit import cli, precond
from saddlekit.cli import EXIT_NOCONV, EXIT_OK, EXIT_USAGE, main
from saddlekit.dense import Singular
from saddlekit.gmres import PHASES, gmres
from saddlekit.mmio import write_matrix_market
from saddlekit.problems import NoiseSpec, example1, perturb
from saddlekit.spectral import analyze
from saddlekit.system import rhs_for_ones

from conftest import arpack_fails, cli_env, count_factors

GEN = ["--gen-l", "3"]


def printed_field(line, name):
    """The value of ``name=value`` in a printed row."""
    return line.split(f" {name}=")[1].split()[0]


def test_solve_unpreconditioned(capsys):
    rc = main(["solve", *GEN])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "none" in out and "it=" in out and "res=" in out
    assert float(printed_field(out, "true_res")) < 1e-6


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "saddlekit", "solve", *GEN],
                          capture_output=True, text=True, timeout=120,
                          env=cli_env())
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "it=" in proc.stdout


# each child runs spectrum for both kinds in one interpreter and prints
# {kind: [exit code, stdout]} as JSON
THREADS_CHILD = """
import contextlib, io, json
from saddlekit.cli import main
out = {}
for kind in ("pess", "lpess"):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["spectrum", "--gen-l", "12", "--precond", kind,
                   "--case", "I"])
    out[kind] = [rc, buf.getvalue()]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def spectrum_by_threads():
    """The children's outputs at 1 and at 2 BLAS threads, one child each."""
    procs = [subprocess.Popen([sys.executable, "-c", THREADS_CHILD],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True,
                              env=cli_env(OPENBLAS_NUM_THREADS=n,
                                          OMP_NUM_THREADS=n))
             for n in ("1", "2")]
    outs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (_, err) in zip(procs, outs):
        assert proc.returncode == 0, err
    return [json.loads(out) for out, _ in outs]


@pytest.mark.parametrize("kind,theorem", [("pess", "nonreal-disjunction"),
                                          ("lpess", "lpess")],
                         ids=["pess", "lpess"])
def test_spectrum_verdict_does_not_depend_on_blas_threads(kind, theorem,
                                                          spectrum_by_threads):
    # pess Case I, s=12, has non-real eigenvalues within 1e-7 of 1/s, and
    # lpess its cluster at 1/s; no verdict may move with the BLAS thread
    # count
    one, two = (out[kind] for out in spectrum_by_threads)
    assert one[0] == two[0] == EXIT_OK
    assert one[1] == two[1]
    assert f"{theorem}: holds (0 violations)\n" in one[1]


def test_solve_pess_with_report(tmp_path, capsys):
    report = tmp_path / "r.csv"
    rc = main(["solve", *GEN, "--precond", "pess", "--case", "I",
               "--s", "12", "--report", str(report)])
    assert rc == EXIT_OK
    rows = list(csv.reader(report.read_text().splitlines()))
    assert rows[1][0] == "pess"
    assert int(rows[1][3]) < 20  # preconditioned count is small
    params = dict(kv.split("=", 1) for kv in rows[1][6].split(";"))
    assert float(params["true_res"]) < 1e-6


def test_solve_json_report(tmp_path):
    report = tmp_path / "r.json"
    rc = main(["solve", *GEN, "--precond", "lpess", "--case", "II",
               "--s", "13", "--report", str(report)])
    assert rc == EXIT_OK
    payload = json.loads(report.read_text())
    assert payload[0]["process"] == "lpess" and payload[0]["converged"]
    params = payload[0]["params"]
    assert params["true_res"] < 1e-6
    # every setting the shifts were made from
    assert (params["case"], params["s"], params["lambda3_coef"]) == (
        "II", 13.0, 0.001)
    # one apply of each per step, plus the confirming residual; from zero,
    # r0 is d, and the iterate is built from the kept P^-1 of the basis
    assert (params["n_matvec"], params["n_precond"]) == (payload[0]["it"] + 1,
                                                         payload[0]["it"])
    phases = [params[f"{k}_s"] for k in PHASES]
    assert all(isinstance(t, float) and t >= 0.0 for t in phases)
    # JSON keeps every float exact, so only the sum's rounding is allowed
    assert sum(phases) <= payload[0]["wall_seconds"] * (1 + 1e-12)
    assert isinstance(params["maxit"], int)
    assert isinstance(params["n_matvec"], int)
    assert isinstance(params["build_seconds"], float)
    assert params["build_seconds"] > 0.0
    assert isinstance(params["factor_nnz"], int) and params["factor_nnz"] > 0


@pytest.mark.parametrize("command", [
    ["compare", "--kinds", "pess,bd"],
    ["sweep-s", "--precond", "pess", "--s-values", "5,10"],
    ["sensitivity", "--precond", "pess", "--noise", "5,10"],
], ids=["compare", "sweep-s", "sensitivity"])
def test_json_report_from_the_suffix(tmp_path, command):
    # the same rows as the CSV report, as JSON numbers of their own type
    csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
    for path in (csv_path, json_path):
        assert main([command[0], *GEN, *command[1:],
                     "--report", str(path)]) == EXIT_OK
    rows = list(csv.reader(csv_path.read_text().splitlines()))[1:]
    payload = json.loads(json_path.read_text())
    assert [r["process"] for r in payload] == [row[0] for row in rows]
    for r, row in zip(payload, rows):
        assert type(r["it"]) is int and r["it"] == int(row[3])
        keys = [kv.split("=", 1)[0] for kv in row[6].split(";")]
        assert sorted(r["params"]) == keys


@pytest.mark.parametrize("command,option,target", [
    pytest.param(command, option, target,
                 id=f"{command[0]}-{option[2:]}-{target}")
    for command, option, target in [
        (["solve"], "--report", "dir"),
        (["solve"], "--report", "missing"),
        (["compare"], "--report", "missing"),
        (["sweep-s", "--s-values", "1,2"], "--report", "dir"),
        (["sensitivity", "--precond", "pess"], "--report", "missing"),
        (["params", "--preset", "pess-II"], "--report", "dir"),
        (["spectrum", "--precond", "pess"], "--report", "dir"),
        (["spectrum", "--precond", "pess"], "--eig-csv", "missing")]])
def test_report_path_that_is_a_directory_is_a_usage_error(command, option,
                                                          target, tmp_path,
                                                          capsys):
    # an output path that is a directory or lies in a missing one is refused
    # before any work, so no row or verdict is printed ahead of the error
    path = tmp_path if target == "dir" else tmp_path / "missing" / "x.json"
    rc = main([command[0], *GEN, *command[1:], option, str(path)])
    assert rc == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_solve_nonconvergence_exit_code():
    rc = main(["solve", *GEN, "--tol", "1e-14", "--maxit", "2"])
    assert rc == EXIT_NOCONV


def test_solve_left_side(capsys):
    rc = main(["solve", *GEN, "--precond", "ss", "--alpha", "0.1",
               "--side", "left"])
    assert rc == EXIT_OK


def test_compare_flow(tmp_path, capsys):
    report = tmp_path / "cmp.csv"
    rc = main(["compare", *GEN, "--kinds", "ss,rss,pess,bd",
               "--report", str(report)])
    assert rc == EXIT_OK
    rows = list(csv.reader(report.read_text().splitlines()))
    assert [r[0] for r in rows[1:]] == ["ss", "rss", "pess", "bd"]
    for row in rows[1:]:
        params = dict(kv.split("=", 1) for kv in row[6].split(";"))
        assert int(params["n_matvec"]) == int(row[3]) + 1
        assert all(float(params[f"{k}_s"]) >= 0.0 for k in PHASES)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    # right side by default: every converged row's true residual is below tol
    assert all(float(printed_field(ln, "true_res")) < 1e-6 for ln in lines)


def test_compare_refuses_precond(tmp_path, capsys):
    # compare runs the kinds of --kinds and has no --precond to ignore; it
    # keeps the case and shift options its kinds read
    report = tmp_path / "r.json"
    rc = main(["compare", *GEN, "--precond", "pess", "--report", str(report)])
    assert rc == EXIT_USAGE
    assert "unrecognized arguments: --precond pess" in capsys.readouterr().err
    assert not report.exists()
    shifts = ["--case", "II", "--lambda3-coef", "0.01", "--s", "5",
              "--alpha", "1", "--beta", "2", "--gamma", "3"]
    args = cli.build_parser().parse_args(
        ["compare", *GEN, *shifts, "--report", str(report)])
    assert (args.case, args.lambda3_coef, args.s, args.alpha, args.beta,
            args.gamma) == ("II", 0.01, 5.0, 1.0, 2.0, 3.0)
    assert not hasattr(args, "precond")
    for command in ("solve", "spectrum", "sensitivity"):
        args = cli.build_parser().parse_args(
            [command, *GEN, "--precond", "pess", *shifts])
        assert args.precond == "pess" and args.gamma == 3.0


def test_compare_error_row_prints_nan(tmp_path, monkeypatch, capsys):
    def failing_build_bd(sys_):
        raise Singular("bd is singular")

    monkeypatch.setattr(precond, "build_bd", failing_build_bd)
    rc = main(["compare", *GEN, "--kinds", "bd",
               "--report", str(tmp_path / "cmp.csv")])
    assert rc == EXIT_NOCONV
    assert capsys.readouterr().out == "bd       it=   -1 res=nan true_res=nan\n"


def test_compare_nonconvergence_exit_code(tmp_path):
    rc = main(["compare", *GEN, "--kinds", "none,ss", "--maxit", "1",
               "--report", str(tmp_path / "cmp.csv")])
    assert rc == EXIT_NOCONV


def test_compare_unknown_kind(tmp_path):
    rc = main(["compare", *GEN, "--kinds", "warp",
               "--report", str(tmp_path / "x.csv")])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("kinds", [",", " , ,", ""])
def test_compare_empty_kind_list(tmp_path, capsys, kinds):
    report = tmp_path / "x.csv"
    rc = main(["compare", *GEN, "--kinds", kinds, "--report", str(report)])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "error: empty kind list\n"
    assert not report.exists()


def test_spectrum_flow(tmp_path, capsys):
    eig_csv = tmp_path / "eigs.csv"
    report = tmp_path / "bounds.json"
    rc = main(["spectrum", *GEN, "--precond", "pess", "--case", "I",
               "--s", "12", "--eig-csv", str(eig_csv),
               "--report", str(report)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "unit-disk: holds" in out
    assert "real-interval: holds" in out
    assert "nonreal-disjunction: holds" in out
    assert eig_csv.read_text().startswith("re,im,classification")
    payload = json.loads(report.read_text())
    assert all(r["holds"] for r in payload)


def test_spectrum_lpess(capsys):
    rc = main(["spectrum", *GEN, "--precond", "lpess", "--case", "II",
               "--s", "13"])
    assert rc == EXIT_OK
    assert "lpess: holds" in capsys.readouterr().out


def test_spectrum_baseline_kind(capsys):
    # ss keeps an SPD L1, so it gets the same checks as pess
    rc = main(["spectrum", *GEN, "--precond", "ss"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == ("unit-disk: holds (0 violations)\n"
                                       "real-interval: holds (0 violations)\n"
                                       "nonreal-disjunction: holds "
                                       "(0 violations)\n")


KEEPS_L1 = ("unit-disk", "real-interval", "nonreal-disjunction")
DROPS_L1 = ("unit-disk", "lpess")
EXPECTED_THEOREMS = {"pess": KEEPS_L1, "ss": KEEPS_L1, "egss": KEEPS_L1,
                     "lpess": DROPS_L1, "rss": DROPS_L1, "rpgss": DROPS_L1}


def expected_violations(kind, n):
    """(theorem, violation count) of each report at the CLI's defaults on a
    system with n x-unknowns: rss drops L1 at s = 1/2, so its n eigenvalues
    lambda = 1/s = 2 lie on the unit circle around 1, outside the open disk;
    every other report holds."""
    return [(t, n if kind == "rss" and t == "unit-disk" else 0)
            for t in EXPECTED_THEOREMS[kind]]


@pytest.mark.parametrize("case", ["I", "II"])
@pytest.mark.parametrize("kind", precond.KINDS)
def test_analyze_picks_checks_from_the_config(kind, case, tiny_example):
    # every shift-splitting kind with the CLI's default parameters
    args = cli.build_parser().parse_args(
        ["spectrum", *GEN, "--precond", kind, "--case", case])
    cfg, _ = cli._gss_config(kind, tiny_example, args)
    spec, ext, reports = analyze(tiny_example, cfg)
    assert spec.shape == (tiny_example.size,)
    assert [(r.theorem, len(r.violations)) for r in reports] == (
        expected_violations(kind, tiny_example.n))
    assert ext is not None
    assert all(r.holds == (not r.violations) for r in reports)
    # the circle's points are violations at margin 0
    assert all(v == 2.0 and margin == 0.0
               for r in reports for v, margin in r.violations)


def refuse_to_build(*args):
    raise AssertionError("spectrum built a preconditioner")


@pytest.mark.parametrize("case", ["I", "II"])
@pytest.mark.parametrize("kind", precond.KINDS)
def test_spectrum_builds_no_preconditioner(kind, case, tiny_example,
                                           monkeypatch, capsys):
    # the verdicts come from the config alone
    monkeypatch.setattr(precond, "build", refuse_to_build)
    rc = main(["spectrum", *GEN, "--precond", kind, "--case", case])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == "".join(
        f"{t}: {'VIOLATED' if k else 'holds'} ({k} violations)\n"
        for t, k in expected_violations(kind, tiny_example.n))


@pytest.mark.parametrize("kind", ["pess", "bd"])
def test_spectrum_refuses_above_the_guard_before_any_build(kind, monkeypatch,
                                                           capsys):
    monkeypatch.setattr(precond, "build", refuse_to_build)
    monkeypatch.setattr(precond, "build_bd", refuse_to_build)
    rc = main(["spectrum", "--gen-l", "36", "--precond", kind])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == ("error: system size 5184 exceeds "
                                       "densification guard 5000\n")


@pytest.mark.parametrize("kind,what", [("none", "unpreconditioned"),
                                       ("bd", "preconditioned")])
def test_spectrum_eigenvalue_count(kind, what, capsys):
    rc = main(["spectrum", *GEN, "--precond", kind])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out == f"gen-l3: 36 eigenvalues of the {what} operator\n"


@pytest.mark.parametrize("kind", ["none", "bd"])
def test_spectrum_report_needs_a_bound(kind, tmp_path, monkeypatch, capsys):
    """No bound applies to none or bd: --report is refused before the
    system is made, and --eig-csv still writes their spectrum."""
    report, eig_csv = tmp_path / "bounds.json", tmp_path / "eigs.csv"
    monkeypatch.setattr(cli, "_make_system",
                        lambda args: pytest.fail("made the system"))
    rc = main(["spectrum", *GEN, "--precond", kind, "--report", str(report)])
    assert rc == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: --report needs a shift-splitting "
                                 f"--precond: no bound applies to {kind}\n")
    assert not report.exists()
    monkeypatch.undo()
    rc = main(["spectrum", *GEN, "--precond", kind, "--eig-csv", str(eig_csv)])
    assert rc == EXIT_OK
    assert len(eig_csv.read_text().splitlines()) == 1 + 36


def test_sweep_s_flow(tmp_path, capsys):
    report = tmp_path / "sweep.csv"
    rc = main(["sweep-s", *GEN, "--precond", "pess", "--case", "I",
               "--s-values", "5,10", "--with-cond", "--report", str(report)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "s=5" in out and "cond=" in out
    rows = list(csv.reader(report.read_text().splitlines()))
    assert len(rows) == 3


def test_sweep_s_builds_one_preconditioner_per_s(tmp_path, monkeypatch):
    built = []
    real_build = precond.build

    def counting_build(sys_, cfg):
        built.append(cfg.s)
        return real_build(sys_, cfg)

    monkeypatch.setattr(precond, "build", counting_build)
    rc = main(["sweep-s", *GEN, "--precond", "pess", "--case", "I",
               "--s-values", "5,10", "--with-cond",
               "--report", str(tmp_path / "sweep.csv")])
    assert rc == EXIT_OK
    assert built == [5.0, 10.0]


def test_sweep_s_with_cond_factors_the_matrix_once(tmp_path, monkeypatch):
    # the coefficient matrix does not depend on s: one LU serves every kappa
    made, _ = count_factors(monkeypatch, example1(3).matrix)
    rc = main(["sweep-s", *GEN, "--precond", "pess", "--s-values",
               "1,2,5,10", "--with-cond", "--report",
               str(tmp_path / "sweep.csv")])
    assert rc == EXIT_OK and len(made) == 1


def test_sweep_s_cond_above_densification_limit(tmp_path):
    # 4 * 36^2 = 5184 unknowns, above system.DENSIFY_LIMIT
    report = tmp_path / "sweep.csv"
    rc = main(["sweep-s", "--gen-l", "36", "--precond", "pess", "--case",
               "II", "--s-values", "5,10", "--with-cond",
               "--report", str(report)])
    assert rc == EXIT_OK
    rows = list(csv.reader(report.read_text().splitlines()))[1:]
    assert len(rows) == 2
    for row in rows:
        params = dict(kv.split("=", 1) for kv in row[6].split(";"))
        assert np.isfinite(float(params["cond"]))


def test_sweep_s_arpack_failure_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(spla, "svds", arpack_fails)
    rc = main(["sweep-s", *GEN, "--precond", "pess", "--s-values", "5",
               "--with-cond", "--report", str(tmp_path / "sweep.csv")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "ARPACK did not converge" in err and "Traceback" not in err


def test_sweep_s_nonconvergence_exit_code(tmp_path):
    rc = main(["sweep-s", *GEN, "--precond", "pess", "--case", "I",
               "--s-values", "5,10", "--maxit", "1",
               "--report", str(tmp_path / "sweep.csv")])
    assert rc == EXIT_NOCONV


@pytest.mark.parametrize("flags", [["--precond", "ss"],
                                   ["--precond", "pess", "--alpha", "0.2"],
                                   ["--precond", "lpess", "--s", "3"]],
                         ids=["ss", "alpha", "s"])
def test_sweep_s_takes_only_settings_it_reads(tmp_path, flags):
    # only pess and lpess read s; the sweep sets s itself
    report = tmp_path / "sweep.csv"
    rc = main(["sweep-s", *GEN, *flags, "--s-values", "1,5",
               "--report", str(report)])
    assert rc == EXIT_USAGE
    assert not report.exists()


def test_sweep_s_empty_range(tmp_path):
    rc = main(["sweep-s", *GEN, "--precond", "pess",
               "--s-values", ",", "--report", str(tmp_path / "x.csv")])
    assert rc == EXIT_USAGE


def test_sensitivity_flow(tmp_path, capsys):
    report = tmp_path / "sens.csv"
    rc = main(["sensitivity", *GEN, "--precond", "pess", "--case", "I",
               "--s", "12", "--noise", "5,10", "--tol", "1e-10",
               "--report", str(report)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "noise=5%" in out and "error=" in out
    rows = list(csv.reader(report.read_text().splitlines()))
    assert len(rows) == 3


def test_sensitivity_honours_side(tmp_path):
    # ss with alpha 0.01 needs a different number of steps on each side
    pert = perturb(example1(3), NoiseSpec(percentage=5.0, seed=0))
    P = precond.build(pert, precond.make_config("ss", alpha=0.01))
    its = {}
    for side in ("left", "right"):
        report = tmp_path / f"{side}.csv"
        rc = main(["sensitivity", *GEN, "--precond", "ss", "--alpha", "0.01",
                   "--noise", "5", "--side", side, "--report", str(report)])
        assert rc == EXIT_OK
        its[side] = int(list(csv.reader(report.read_text().splitlines()))[1][3])
        assert its[side] == gmres(pert, rhs_for_ones(pert), precond=P,
                                  side=side).iterations
    assert its["left"] != its["right"]


def test_sensitivity_rows_carry_solver_params(tmp_path):
    report = tmp_path / "sens.csv"
    rc = main(["sensitivity", *GEN, "--precond", "ss", "--noise", "5",
               "--side", "left", "--report", str(report)])
    assert rc == EXIT_OK
    row = list(csv.reader(report.read_text().splitlines()))[1]
    assert row[0] == "ss+noise"
    params = dict(kv.split("=", 1) for kv in row[6].split(";"))
    assert params["side"] == "left"
    assert params["tol"] == "1e-06" and params["maxit"] == "7000"
    assert params["noise_pct"] == "5.0" and params["seed"] == "0"
    assert "solution_error" in params


def test_sensitivity_nonconvergence_exit_code(tmp_path, monkeypatch):
    # the baseline solve converges; the perturbed one is cut to one step
    calls = []

    def gmres_after_baseline(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:
            kwargs["maxit"] = 1
        return gmres(*args, **kwargs)

    monkeypatch.setattr(cli, "gmres", gmres_after_baseline)
    report = tmp_path / "sens.csv"
    rc = main(["sensitivity", *GEN, "--noise", "5", "--report", str(report)])
    assert rc == EXIT_NOCONV
    assert len(calls) == 2
    rows = list(csv.reader(report.read_text().splitlines()))
    assert rows[1][0] == "none+noise" and rows[1][3] == "1"


def test_sensitivity_refuses_above_the_densification_guard(capsys,
                                                          monkeypatch):
    # 4 * 36^2 = 5184 unknowns: every perturbed system has dense B and C,
    # so the command exits before its baseline solve
    def no_solve(*args):
        raise AssertionError("a solve started above the guard")

    monkeypatch.setattr(cli, "_solve_one", no_solve)
    t0 = time.perf_counter()
    rc = main(["sensitivity", "--gen-l", "36", "--precond", "pess"])
    assert time.perf_counter() - t0 < 1.0
    assert rc == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: system size 5184 exceeds "
                                 "densification guard 5000\n")


def test_sensitivity_rejects_a_bad_noise_level_first(capsys):
    # the noise levels are checked before the system or the
    # preconditioner (here with a bad s) is built
    rc = main(["sensitivity", *GEN, "--precond", "pess", "--s", "-1",
               "--noise=-5"])
    assert rc == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == "error: percentage must be nonnegative\n"


@pytest.mark.parametrize("command,message", [
    (["sensitivity", "--noise", ","], "empty noise list"),
    (["params", "--phi-grid", ","], "empty phi grid"),
], ids=["noise", "phi-grid"])
def test_empty_comma_list_is_a_usage_error(command, message, capsys):
    assert main([command[0], *GEN, *command[1:]]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("command,option", [
    (["sensitivity", "--precond", "pess", "--noise", "5,nan"], "--noise"),
    (["params", "--phi-grid", "nan"], "--phi-grid"),
    (["sweep-s", "--s-values", "1,inf", "--report", "r.csv"], "--s-values"),
], ids=["noise", "phi-grid", "s-values"])
def test_non_finite_list_value_is_a_usage_error(command, option, capsys,
                                                tmp_path, monkeypatch):
    # refused before anything is built, naming the option
    monkeypatch.chdir(tmp_path)
    assert main([command[0], *GEN, *command[1:]]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {option} takes finite")
    assert err.count("\n") == 1


def test_gen_l_beyond_memory_is_refused(capsys):
    # refused before the blocks are allocated: one line, no traceback
    assert main(["solve", "--gen-l", "100000"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --gen-l 100000 needs about")
    assert err.count("\n") == 1


def test_params_flow(capsys):
    rc = main(["params", *GEN, "--phi-grid", "0.5,1,2"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "s_est=" in out and "phi minimizer" in out


def test_params_arpack_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(spla, "eigsh", arpack_fails)
    assert main(["params", *GEN]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "ARPACK did not converge" in err and "Traceback" not in err


def test_params_preset_solve(capsys):
    rc = main(["params", *GEN, "--preset", "lpess-II", "--tol", "1e-6"])
    assert rc in (EXIT_OK, EXIT_NOCONV)
    assert "lpess-II it=" in capsys.readouterr().out


def test_params_preset_json_report(tmp_path, capsys):
    report = tmp_path / "preset.json"
    rc = main(["params", *GEN, "--preset", "pess-II",
               "--report", str(report)])
    assert rc in (EXIT_OK, EXIT_NOCONV)
    out_all = capsys.readouterr().out.splitlines()
    out = out_all[-1]
    [row] = json.loads(report.read_text())
    assert row["process"] == "pess-II"
    assert type(row["it"]) is int
    assert row["it"] == int(printed_field(out, "it"))
    params = row["params"]
    assert type(params["n_matvec"]) is int
    assert type(params["factor_nnz"]) is int and params["factor_nnz"] > 0
    assert type(params["true_res"]) is float
    assert type(params["build_seconds"]) is float
    # the estimates and the L3 coefficient the preset solved with
    printed = dict(kv.split("=") for kv in out_all[0].split())
    for k in ("s_est", "beta_est"):
        assert params[k] == pytest.approx(float(printed[k]), rel=1e-5)
    assert params["lambda3_coef"] == 1e-4


def test_params_report_needs_preset(tmp_path, capsys):
    report = tmp_path / "preset.json"
    assert main(["params", *GEN, "--report", str(report)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --report needs --preset\n"
    assert not report.exists()


def test_params_preset_honours_side(capsys):
    its = {}
    for side in ("left", "right"):
        main(["params", *GEN, "--preset", "lpess-II", "--side", side])
        line = capsys.readouterr().out.splitlines()[-1]
        its[side] = int(line.split("it=")[1].split()[0])
    assert its["left"] != its["right"]


def test_shift_a_needs_load(capsys):
    assert main(["solve", *GEN, "--shift-a", "5"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "--load" in err
    assert err.count("\n") == 1


def test_usage_errors(tmp_path):
    assert main(["solve"]) == EXIT_USAGE  # missing problem source
    assert main(["solve", "--gen-l", "1"]) == EXIT_USAGE
    assert main(["solve", "--load", "a", "b", "c"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert main(["--help"]) == 0


def write_blocks(tmp_path, blocks):
    """Matrix Market files of the blocks; returns their paths."""
    paths = []
    for name, M in blocks.items():
        path = tmp_path / f"{name}.mtx"
        write_matrix_market(sp.csr_matrix(M), path)
        paths.append(str(path))
    return paths


def test_indefinite_load_is_a_usage_error(tmp_path, capsys):
    blocks = {"A": -np.eye(4), "B": np.eye(2, 4), "C": np.ones((1, 2))}
    rc = main(["solve", "--load", *write_blocks(tmp_path, blocks),
               "--precond", "bd"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: A is not positive definite\n"


def test_rank_deficient_b_names_the_schur_complement(tmp_path, capsys):
    # B's zero second row leaves S = B A^-1 B^T singular
    blocks = {"A": np.eye(4), "B": np.eye(2, 4) * [[1.0], [0.0]],
              "C": np.ones((1, 2))}
    rc = main(["solve", "--load", *write_blocks(tmp_path, blocks),
               "--precond", "bd"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: S = B A^-1 B^T is not positive definite\n"


@pytest.mark.parametrize("kind", ["pess", "lpess"])
def test_singular_coefficient_matrix_is_a_usage_error(tmp_path, capsys,
                                                      kind):
    # row 1 of C equal to row 0 makes the coefficient matrix singular while
    # P = Sigma + s A stays nonsingular; no verdict is printed
    sysv = example1(6)
    C = sysv.C.tolil()
    C[1] = C[0]
    blocks = {"A": sysv.A, "B": sysv.B, "C": C}
    rc = main(["spectrum", "--load", *write_blocks(tmp_path, blocks),
               "--precond", kind])
    assert rc == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: coefficient matrix is singular: ")
    assert err.count("\n") == 1


def test_non_finite_load_names_the_block(tmp_path, capsys):
    B = np.eye(2, 4)
    B[0, 0] = np.nan
    blocks = {"A": np.eye(4), "B": B, "C": np.ones((1, 2))}
    rc = main(["solve", "--load", *write_blocks(tmp_path, blocks),
               "--precond", "pess"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: failed to load system: B has non-finite entries\n"


@pytest.mark.parametrize("flags,message", [
    (["--precond", "pess", "--s", "nan"], "s must be positive and finite"),
    (["--precond", "pess", "--s", "inf"], "s must be positive and finite"),
    (["--precond", "ss", "--alpha", "nan"], "alpha must be positive"),
    (["--precond", "lpess", "--lambda3-coef", "nan"],
     "lambda3 must be positive"),
    (["--precond", "lpess", "--case", "II", "--lambda3-coef", "nan"],
     "lambda3 has non-finite entries"),
    (["--precond", "pess", "--case", "II", "--lambda3-coef", "inf"],
     "lambda3 has non-finite entries"),
    (["--precond", "egss", "--case", "II", "--alpha", "nan"],
     "alpha must be positive"),
    (["--precond", "rpgss", "--case", "II", "--gamma", "inf"],
     "gamma must be positive"),
    (["--precond", "pess", "--case", "II", "--lambda3-coef", "0"],
     "lambda3 must be positive and finite"),
    (["--precond", "lpess", "--case", "II", "--lambda3-coef", "-1"],
     "lambda3 must be positive and finite"),
    (["--precond", "pess", "--case", "II", "--tol", "nan"],
     "tol must be positive and finite"),
    (["--precond", "pess", "--case", "II", "--tol", "-1"],
     "tol must be positive and finite"),
    (["--precond", "pess", "--case", "II", "--maxit", "0"],
     "maxit must be at least 1"),
])
def test_non_finite_parameters_are_usage_errors(flags, message, capsys):
    assert main(["solve", *GEN, *flags]) == EXIT_USAGE
    assert message in capsys.readouterr().err
