"""Matrix Market block I/O and machine-readable experiment reports.

The reader accepts real coordinate or array files with the general or
symmetric qualifier (symmetric storage is expanded to full); the writer
always emits coordinate/general with 17 significant digits so a write/read
round trip is value-exact.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

_HEADER = "%%MatrixMarket"
# comment and blank lines, which scipy's reader rejects after the size line
_SKIPPED_LINES = re.compile(rb"^(?:%[^\n]*|\s*?)(?:\n|\Z)", re.MULTILINE)
# the comment and blank lines up to the size line, and the size line: scipy's
# reader passes those, the writer's own comment among them
_HEAD = re.compile(rb"(?:%[^\n]*\n|[ \t\r\f\v]*\n)*[^\n]*")
_BEFORE_BLANK = re.compile(rb"\n\s")  # precedes every blank line


class MatrixMarketError(ValueError):
    pass


def read_matrix_market(path) -> sp.csr_matrix:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", "replace").split()
        if (len(header) < 4 or header[0] != _HEADER
                or header[1].lower() != "matrix"):
            raise MatrixMarketError(f"{path}: malformed Matrix Market header")
        layout = header[2].lower()
        qualifiers = [q.lower() for q in header[3:]]
        if layout not in ("coordinate", "array"):
            raise MatrixMarketError(f"{path}: unsupported layout {layout!r}")
        field_kind = qualifiers[0] if qualifiers else "real"
        if field_kind not in ("real", "integer"):
            raise MatrixMarketError(f"{path}: only real matrices supported, "
                                    f"got {field_kind!r}")
        symmetry = qualifiers[1] if len(qualifiers) > 1 else "general"
        if symmetry not in ("general", "symmetric"):
            raise MatrixMarketError(f"{path}: unsupported symmetry "
                                    f"{symmetry!r}")
        body = fh.read()
    nl = _HEAD.match(body).end()  # the regex pass runs only if needed
    if body.find(b"%", nl) >= 0 or _BEFORE_BLANK.search(body, nl):
        body = _SKIPPED_LINES.sub(b"", body)
    banner = f"{_HEADER} matrix {layout} {field_kind} {symmetry}\n".encode()
    # scipy's reader crashes the process when the last line ends in a space,
    # tab or carriage return instead of a newline: end it in one bare newline
    text = b"".join((banner, body.rstrip(), b"\n"))
    from scipy.io import mmread  # no .mtx, no scipy.io (1.4 MB of RSS)
    try:
        M = mmread(io.BytesIO(text))
    except (ValueError, OverflowError) as exc:
        raise MatrixMarketError(f"{path}: {exc}") from None
    return sp.csr_matrix(M, dtype=np.float64)


def write_matrix_market(M, path):
    """Coordinate format, 1-based indices, 17 significant digits, always
    tagged general."""
    from scipy.io import mmwrite
    with open(path, "wb") as fh:
        mmwrite(fh, sp.csr_matrix(M), precision=17, symmetry="general")


# -- experiment reports ---------------------------------------------------


@dataclass(frozen=True)
class ReportRecord:
    process: str
    problem: str
    size: int
    it: int
    res: float
    wall_seconds: float
    params: dict = field(default_factory=dict)
    converged: bool = True


def format_res(res: float) -> str:
    """Scientific notation with a 4-digit mantissa fraction, e.g.
    8.2852e-07."""
    return f"{res:.4e}"


def _params_str(params: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in sorted(params.items()))


def _json_value(v):
    """``json.dump``'s hook: a complex as {"re": ..., "im": ...}, a numpy
    scalar as its Python value, so ints stay ints; TypeError otherwise."""
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, np.generic):
        return v.item()
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def write_json(records, path):
    """The dataclass ``records`` as one indented JSON list."""
    with open(path, "w") as fh:
        json.dump([asdict(r) for r in records], fh, indent=2,
                  default=_json_value)


CSV_COLUMNS = ["process", "problem", "size", "it", "res", "wall_seconds",
               "params"]


def write_report(records, path):
    """JSON when ``path`` ends in ``.json`` (any case), CSV otherwise."""
    if str(path).lower().endswith(".json"):
        return write_json(records, path)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow([r.process, r.problem, r.size, r.it,
                        format_res(r.res), f"{r.wall_seconds:.3f}",
                        _params_str(r.params)])
