"""Matrix Market coordinate files and experiment report serialization.

Only the `matrix coordinate real general|symmetric` Matrix Market variants
are accepted. Symmetric files are expanded to full storage on read; other
symmetry or field kinds are rejected outright rather than coerced, since a
silently dropped sign or mirrored value would corrupt every scaling result
downstream.
"""

import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from equilibrate.errors import MatrixMarketError
from equilibrate.matrix import SparseMatrix

_BANNER = "%%MatrixMarket"
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def read_matrix_market(path):
    """Parse a Matrix Market coordinate file into a SparseMatrix.

    Symmetric storage is mirrored (off-diagonal entries appear twice in the
    result), indices are converted to 0-based, and duplicate coordinates are
    summed by the SparseMatrix constructor. Entries are decimal integers and
    decimal floats; blank lines and whole-line `%` comments are skipped. A
    malformed entry, an index out of range, an upper-triangle entry in
    symmetric storage, or a nan or infinite value is rejected with its line
    number.
    """
    with open(path, "r", encoding="ascii") as fh:
        content = fh.read()
    lines = content.splitlines()
    if not lines:
        raise MatrixMarketError("empty file", line=1)

    header = lines[0].split()
    if len(header) != 5 or header[0] != _BANNER:
        raise MatrixMarketError(
            f"expected '%%MatrixMarket matrix coordinate real general|symmetric', got {lines[0]!r}",
            line=1,
        )
    _, obj, fmt, field, symmetry = (w.lower() for w in header)
    if obj != "matrix":
        raise MatrixMarketError(f"unsupported object {obj!r}", line=1)
    if fmt != "coordinate":
        raise MatrixMarketError(f"unsupported format {fmt!r} (only 'coordinate')", line=1)
    if field != "real":
        raise MatrixMarketError(f"unsupported field {field!r} (only 'real')", line=1)
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(
            f"unsupported symmetry {symmetry!r} (only 'general' or 'symmetric')", line=1
        )
    symmetric = symmetry == "symmetric"

    lineno = 1
    size_line = None
    for lineno, text in enumerate(lines[1:], start=2):
        stripped = text.strip()
        if not stripped or stripped.startswith("%"):
            continue
        size_line = stripped
        break
    if size_line is None:
        raise MatrixMarketError("missing size line", line=lineno + 1)
    parts = size_line.split()
    if len(parts) != 3:
        raise MatrixMarketError("size line must be 'nrows ncols nnz'", line=lineno)
    try:
        if "_" in size_line:  # int() reads '1_0' as 10; Matrix Market has no separators
            raise ValueError(size_line)
        nrows, ncols, nnz = (int(p) for p in parts)
    except ValueError:
        raise MatrixMarketError("size line must hold three integers", line=lineno) from None
    if nrows <= 0 or ncols <= 0 or nnz < 0:
        raise MatrixMarketError("size line values out of range", line=lineno)
    if symmetric and nrows != ncols:
        raise MatrixMarketError("symmetric matrix must be square", line=lineno)

    body = lines[lineno:]
    # Comment lines between entries are rare; drop them only when the entry
    # part of the file holds a '%' at all. A '%' left on an entry line fails
    # the parse below, so a trailing note is rejected, not ignored.
    if content.count("%") > sum(line.count("%") for line in lines[:lineno]):
        body = [line for line in body if not line.lstrip().startswith("%")]
    if any(map(str.strip, body)):
        try:
            entries = np.loadtxt(body, dtype=_ENTRY, comments=None, ndmin=1)
        except ValueError as exc:
            _raise_first_bad_entry(lines, lineno, nrows, ncols, symmetric, str(exc))
    else:  # np.loadtxt warns on input without data
        entries = np.zeros(0, dtype=_ENTRY)
    i, j, v = entries["i"], entries["j"], entries["v"]
    bad = ~np.isfinite(v) | (i < 1) | (i > nrows) | (j < 1) | (j > ncols)
    if symmetric:
        bad |= j > i
    if bad.any():
        _raise_first_bad_entry(lines, lineno, nrows, ncols, symmetric, "entry check failed")
    if entries.size != nnz:
        raise MatrixMarketError(f"size line promised {nnz} entries, file holds {entries.size}")
    i, j = i - 1, j - 1
    if symmetric:
        off = i != j
        i, j, v = (
            np.concatenate([i, j[off]]),
            np.concatenate([j, i[off]]),
            np.concatenate([v, v[off]]),
        )
    return SparseMatrix.from_coo(nrows, ncols, i, j, v)


def _raise_first_bad_entry(lines, start, nrows, ncols, symmetric, reason):
    """Raise the MatrixMarketError of the first bad entry line after ``start``.

    Runs only after the one-pass parse or one of its whole-array checks has
    failed. It repeats the same checks line by line, in file order, so the
    error names the first line at fault. ``reason`` is raised if no single
    line is at fault.
    """
    for lineno, text in enumerate(lines[start:], start=start + 1):
        stripped = text.strip()
        if not stripped or stripped.startswith("%"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise MatrixMarketError("entry line must be 'row col value'", line=lineno)
        try:
            if "_" in stripped:  # int() and float() read '1_0' as 10
                raise ValueError(stripped)
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise MatrixMarketError(f"malformed entry {stripped!r}", line=lineno) from None
        if not math.isfinite(v):
            raise MatrixMarketError(f"non-finite value {parts[2]!r}", line=lineno)
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise MatrixMarketError(f"index ({i}, {j}) out of range", line=lineno)
        if symmetric and j > i:
            raise MatrixMarketError(
                "symmetric storage must hold the lower triangle only", line=lineno
            )
    raise MatrixMarketError(f"malformed entries: {reason}")


def write_matrix_market(m, path, symmetric=False, comment=None):
    """Write a SparseMatrix as Matrix Market coordinate real.

    With symmetric=True the matrix must be symmetric and only the lower
    triangle is stored under the 'symmetric' header.
    """
    if symmetric and not m.is_symmetric():
        raise MatrixMarketError("symmetric=True requires a symmetric matrix")
    kind = "symmetric" if symmetric else "general"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real {kind}\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"% {line}\n")
        if symmetric:
            keep = m.rows >= m.indices
            rows, cols, vals = m.rows[keep], m.indices[keep], m.data[keep]
        else:
            rows, cols, vals = m.rows, m.indices, m.data
        fh.write(f"{m.nrows} {m.ncols} {len(vals)}\n")
        for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            fh.write(f"{i + 1} {j + 1} {v!r}\n")


@dataclass
class RunReport:
    """One (matrix, algorithm, budget, seed) experiment cell.

    Ratio fields are max/min row (or row/column) 2-norms, so they are >= 1
    whenever defined. Condition numbers are present only when the matrix was
    small enough for a dense SVD. `status` is "ok" or a short failure note;
    metric fields of failed cells are left unset.
    """

    matrix_name: str
    algorithm: str
    seed: int
    nmv: int
    ratio_before: float | None = None
    ratio_after: float | None = None
    cond_before: float | None = None
    cond_after: float | None = None
    wall_time: float | None = None
    status: str = "ok"


REPORT_FIELDS = [f.name for f in dataclasses.fields(RunReport)]


def report_cell(value):
    """One report field as text: empty for None, "inf" or repr for floats."""
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return repr(value)
    return str(value)


def write_report(reports, fmt, path):
    """Serialize reports as CSV (header row, fixed column order) or JSON.

    ``path`` None writes to standard output.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r} (use 'csv' or 'json')")
    if path is None:
        _dump_report(reports, fmt, sys.stdout)
        return
    with open(path, "w", encoding="ascii", newline="") as fh:
        _dump_report(reports, fmt, fh)


def _dump_report(reports, fmt, fh):
    if fmt == "csv":
        writer = csv.writer(fh)
        writer.writerow(REPORT_FIELDS)
        for r in reports:
            writer.writerow([report_cell(getattr(r, name)) for name in REPORT_FIELDS])
        return
    rows = []
    for r in reports:
        row = dataclasses.asdict(r)
        for key, value in row.items():
            if isinstance(value, float) and math.isinf(value):
                row[key] = "inf"
        rows.append(row)
    json.dump(rows, fh, indent=2)
    fh.write("\n")


def read_report_json(path):
    """Parse a JSON report back into RunReport objects (round-trip helper)."""
    with open(path, "r", encoding="ascii") as fh:
        rows = json.load(fh)
    reports = []
    for row in rows:
        for key in ("cond_before", "cond_after"):
            if row.get(key) == "inf":
                row[key] = math.inf
        reports.append(RunReport(**row))
    return reports
