"""Matrix Market I/O and the experiment-report writers."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from saddlekit.cli import EXIT_USAGE, main
from saddlekit.mmio import (CSV_COLUMNS, MatrixMarketError, ReportRecord,
                            format_res, read_matrix_market, write_matrix_market,
                            write_report)

from conftest import cli_env


def test_write_read_round_trip(tmp_path, rng):
    D = rng.standard_normal((5, 7))
    D[np.abs(D) < 0.5] = 0.0
    path = tmp_path / "m.mtx"
    write_matrix_market(sp.csr_matrix(D), path)
    back = read_matrix_market(path)
    # 17 significant digits make the round trip value-exact
    assert np.array_equal(back.toarray(), D)


def test_read_symmetric_coordinate(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "3 3 3\n"
                    "1 1 2.0\n"
                    "2 1 -1.0\n"
                    "3 3 4.5\n")
    M = read_matrix_market(path).toarray()
    expect = np.array([[2.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 4.5]])
    assert np.array_equal(M, expect)


def test_read_array_layout(tmp_path):
    path = tmp_path / "a.mtx"
    # column-major listing of [[1, 3], [2, 4]]
    path.write_text("%%MatrixMarket matrix array real general\n"
                    "2 2\n1\n2\n3\n4\n")
    assert np.array_equal(read_matrix_market(path).toarray(),
                          np.array([[1.0, 3.0], [2.0, 4.0]]))


def test_read_array_symmetric(tmp_path):
    path = tmp_path / "as.mtx"
    # lower triangle of [[1, 2], [2, 5]]
    path.write_text("%%MatrixMarket matrix array real symmetric\n"
                    "2 2\n1\n2\n5\n")
    assert np.array_equal(read_matrix_market(path).toarray(),
                          np.array([[1.0, 2.0], [2.0, 5.0]]))


def test_read_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "% a comment\n\n"
                    "2 2 1\n"
                    "% another\n"
                    "2 2 7.0\n")
    M = read_matrix_market(path).toarray()
    assert M[1, 1] == 7.0 and M.sum() == 7.0


@pytest.mark.parametrize("body", [
    "%\n2 2 1\n2 2 7.0\n",  # the writer's layout: no regex pass
    "% c\n\n  \n2 2 1\n\n2 2 7.0\n",
    "2 2 1\n2 2 7.0\n\n",
    "2 2 1\n2 2 7.0\n  ",
    "2 2 1\r\n\r\n 2 2 7.0\r\n% c",
    "2 2 1\n%\n2 2 7.0",
])
def test_read_skips_lines_after_the_size_line(tmp_path, body):
    path = tmp_path / "c.mtx"
    path.write_bytes(b"%%MatrixMarket matrix coordinate real general\n"
                     + body.encode())
    M = read_matrix_market(path).toarray()
    assert M[1, 1] == 7.0 and M.sum() == 7.0


ENDINGS = {"space": " ", "tab": "\t", "carriage-return": "\r"}


@pytest.fixture(scope="module")
def endings_read_in_child(tmp_path_factory):
    """One file per last-line ending, all read by one child process, and
    the child's (process, {ending: printed matrix}).  scipy's reader kills
    the process on such an ending, so a crash fails every case instead of
    the test run."""
    paths = []
    for name, end in ENDINGS.items():
        paths.append(tmp_path_factory.mktemp("endings") / f"{name}.mtx")
        paths[-1].write_bytes(b"%%MatrixMarket matrix coordinate real "
                              b"general\n2 2 1\n2 2 3.0" + end.encode())
    code = ("import sys; from saddlekit.mmio import read_matrix_market\n"
            "for p in sys.argv[1:]: "
            "print(read_matrix_market(p).toarray().tolist())")
    proc = subprocess.run([sys.executable, "-c", code, *map(str, paths)],
                          capture_output=True, text=True, timeout=60,
                          env=cli_env())
    return proc, dict(zip(ENDINGS, proc.stdout.splitlines()))


@pytest.mark.parametrize("end", list(ENDINGS))
def test_read_last_line_without_newline(endings_read_in_child, end):
    proc, printed = endings_read_in_child
    assert proc.returncode == 0, proc.stderr
    assert printed[end] == "[[0.0, 0.0], [0.0, 3.0]]"


@pytest.mark.parametrize("header, body", [
    ("nonsense", "1 1 1\n1 1 1.0\n"),
    ("%%MatrixMarket matrix coordinate complex general", "1 1 1\n1 1 1 0\n"),
    ("%%MatrixMarket matrix coordinate real hermitian", "1 1 1\n1 1 1.0\n"),
    ("%%MatrixMarket matrix elemental real general", "1 1 1\n1 1 1.0\n"),
])
def test_read_rejects_bad_headers(tmp_path, header, body):
    path = tmp_path / "bad.mtx"
    path.write_text(header + "\n" + body)
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)


def test_read_rejects_out_of_bounds_and_truncation(tmp_path):
    path = tmp_path / "oob.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 1\n3 1 1.0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n1 1 1.0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)


TRUNCATED = {
    "array": "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n",
    "no-value": "%%MatrixMarket matrix coordinate real general\n"
                "2 2 1\n1 1\n",
}


@pytest.mark.parametrize("name", sorted(TRUNCATED))
def test_truncated_files_are_typed_errors(tmp_path, capsys, name):
    path = tmp_path / "A.mtx"
    path.write_text(TRUNCATED[name])
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)
    rc = main(["solve", "--load", str(path), str(path), str(path)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_format_res():
    assert format_res(8.28515512e-07) == "8.2852e-07"
    assert format_res(1.0) == "1.0000e+00"


def records():
    return [
        ReportRecord("pess", "generated-l4", 64, 3, 8.28515512e-07, 0.012,
                     {"s": 12, "case": "I"}),
        ReportRecord("none", "generated-l4", 64, 120, 9.9e-07, 0.5),
    ]


def test_write_report_csv(tmp_path):
    path = tmp_path / "r.csv"
    write_report(records(), path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert rows[1][0] == "pess"
    assert rows[1][4] == "8.2852e-07"
    assert rows[1][6] == "case=I;s=12"
    assert len(rows) == 3


def test_write_report_json(tmp_path):
    path = tmp_path / "r.json"
    write_report(records(), path)
    payload = json.loads(path.read_text())
    assert len(payload) == 2
    assert payload[0]["it"] == 3
    assert payload[0]["res"] == 8.28515512e-07
    assert payload[0]["params"]["s"] == 12
    assert payload[0]["converged"] is True


def test_write_report_json_keeps_number_types(tmp_path):
    # the parameters as a solve row carries them: Python and numpy ints,
    # floats, a bool and a string
    params = {"maxit": 7000, "n_matvec": np.int64(5), "tol": 1e-6,
              "true_res": np.float64(1.2345678901234567e-07),
              "flag": np.bool_(True), "side": "right"}
    path = tmp_path / "r.json"
    write_report([ReportRecord("lpess", "generated-l3", 36, 3, 8.5e-07,
                               0.000164, params, np.bool_(False))],
                 path)
    row = json.loads(path.read_text())[0]
    got = row["params"]
    assert got == {"maxit": 7000, "n_matvec": 5, "tol": 1e-6,
                   "true_res": 1.2345678901234567e-07, "flag": True,
                   "side": "right"}
    assert [type(got[k]) for k in params] == [int, int, float, float, bool,
                                              str]
    # seconds keep full precision: a sub-millisecond solve is not 0.0
    assert row["wall_seconds"] == 0.000164
    assert row["converged"] is False
    assert type(row["size"]) is int and type(row["it"]) is int


def test_write_report_format_follows_the_suffix(tmp_path):
    # any case of .json gives JSON; every other suffix, or none, a CSV
    for name in ("r.JSON", "r.Json"):
        write_report(records(), tmp_path / name)
        assert json.loads((tmp_path / name).read_text())[1]["it"] == 120
    for name in ("r.txt", "r.json.csv", "r"):
        write_report(records(), tmp_path / name)
        rows = list(csv.reader((tmp_path / name).read_text().splitlines()))
        assert rows[0] == CSV_COLUMNS and len(rows) == 3
