"""Command-line interface: exit codes and end-to-end subcommand flows on a
tiny generated problem."""

import csv
import json

import numpy as np
import pytest
import scipy.sparse as sp

from saddlekit import precond
from saddlekit.cli import EXIT_NOCONV, EXIT_OK, EXIT_USAGE, main
from saddlekit.gmres import gmres
from saddlekit.mmio import write_matrix_market
from saddlekit.problems import NoiseSpec, example1, perturb
from saddlekit.system import rhs_for_ones

GEN = ["--gen-l", "3"]


def test_solve_unpreconditioned(capsys):
    rc = main(["solve", *GEN])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "none" in out and "it=" in out and "res=" in out


def test_solve_pess_with_report(tmp_path, capsys):
    report = tmp_path / "r.csv"
    rc = main(["solve", *GEN, "--precond", "pess", "--case", "I",
               "--s", "12", "--report", str(report)])
    assert rc == EXIT_OK
    rows = list(csv.reader(report.read_text().splitlines()))
    assert rows[1][0] == "pess"
    assert int(rows[1][3]) < 20  # preconditioned count is small


def test_solve_json_report(tmp_path):
    report = tmp_path / "r.json"
    rc = main(["solve", *GEN, "--precond", "lpess", "--case", "II",
               "--s", "13", "--report", str(report), "--format", "json"])
    assert rc == EXIT_OK
    payload = json.loads(report.read_text())
    assert payload[0]["process"] == "lpess" and payload[0]["converged"]


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


def test_compare_nonconvergence_exit_code(tmp_path):
    rc = main(["compare", *GEN, "--kinds", "none,ss", "--maxit", "1",
               "--report", str(tmp_path / "cmp.csv")])
    assert rc == EXIT_NOCONV


def test_compare_unknown_kind(tmp_path):
    rc = main(["compare", *GEN, "--kinds", "warp",
               "--report", str(tmp_path / "x.csv")])
    assert rc == EXIT_USAGE


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
    rc = main(["spectrum", *GEN, "--precond", "ss"])
    assert rc == EXIT_OK
    assert "unit-disk" in capsys.readouterr().out


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


def test_sweep_s_nonconvergence_exit_code(tmp_path):
    rc = main(["sweep-s", *GEN, "--precond", "pess", "--case", "I",
               "--s-values", "5,10", "--maxit", "1",
               "--report", str(tmp_path / "sweep.csv")])
    assert rc == EXIT_NOCONV


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


def test_params_flow(capsys):
    rc = main(["params", *GEN, "--phi-grid", "0.5,1,2"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "s_est=" in out and "phi minimizer" in out


def test_params_preset_solve(capsys):
    rc = main(["params", *GEN, "--preset", "lpess-II", "--tol", "1e-6"])
    assert rc in (EXIT_OK, EXIT_NOCONV)
    assert "lpess-II it=" in capsys.readouterr().out


def test_params_preset_honours_side(capsys):
    its = {}
    for side in ("left", "right"):
        main(["params", *GEN, "--preset", "lpess-II", "--side", side])
        line = capsys.readouterr().out.splitlines()[-1]
        its[side] = int(line.split("it=")[1].split()[0])
    assert its["left"] != its["right"]


def test_usage_errors(tmp_path):
    assert main(["solve"]) == EXIT_USAGE  # missing problem source
    assert main(["solve", "--gen-l", "1"]) == EXIT_USAGE
    assert main(["solve", "--load", "a", "b", "c"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert main(["--help"]) == 0


def test_indefinite_load_is_a_usage_error(tmp_path, capsys):
    blocks = {"A": -np.eye(4), "B": np.eye(2, 4), "C": np.ones((1, 2))}
    paths = []
    for name, M in blocks.items():
        path = tmp_path / f"{name}.mtx"
        write_matrix_market(sp.csr_matrix(M), path)
        paths.append(str(path))
    rc = main(["solve", "--load", *paths, "--precond", "bd"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
