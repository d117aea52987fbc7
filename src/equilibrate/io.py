"""Matrix Market coordinate files, and the CSV and JSON tables the command line writes.

Only the `matrix coordinate real general|symmetric` variants are accepted.
Symmetric files are expanded to full storage on read; other symmetry or
field kinds are rejected outright rather than coerced, since a silently
dropped sign or mirrored value would corrupt every scaling result
downstream. The csv module formats every table cell, and JSON writes a
non-finite float as the string of its CSV cell. No report reader ships.
"""

import csv
import dataclasses
import itertools
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from equilibrate.errors import MatrixMarketError
from equilibrate.matrix import SparseMatrix

_BANNER = "%%MatrixMarket"
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
_CHUNK = 1 << 14  # entries the writer formats at once
_LINE_BREAK = re.compile(rb"\r\n|\r|\n")
# Line breaks to `str.splitlines`, blanks to `np.loadtxt` and `str.split`.
# Searched for one at a time: a regex character class scans about 50 times slower.
_SPLITLINES_ONLY = (b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e")
# A byte `str.strip` keeps: not ASCII whitespace.
_NOT_BLANK = re.compile(rb"[^\t\n\v\f\r\x1c-\x1f ]")
_NON_ASCII = re.compile(rb"[\x80-\xff]")


def read_matrix_market(path):
    """Parse a Matrix Market coordinate file into a SparseMatrix.

    Symmetric storage is mirrored (off-diagonal entries appear twice in the
    result), indices are converted to 0-based, and duplicate coordinates are
    summed by `SparseMatrix.from_coo`. Entries are decimal integers and
    decimal floats; blank lines and whole-line `%` comments are skipped. A
    malformed entry, an index out of range, an upper-triangle entry in
    symmetric storage, or a nan or infinite value is rejected with its line
    number, and so is a byte outside ASCII.

    The banner and size line are parsed from the file's bytes, which are then
    dropped, and `np.loadtxt` parses the entries from the file itself, in
    chunks. `_parse_lines` parses the file from its list of lines instead
    when numpy would split or open it otherwise (`_needs_line_list`), when a
    `%` follows the size line, and when an entry fails a check, since it
    names the first bad line.
    """
    path = os.fsdecode(path)
    data = _read_ascii(path)
    if _needs_line_list(path, data):
        return _parse_lines(data)
    symmetric, nrows, ncols, nnz, lineno = _parse_head(_ascii_lines(data))
    end = _line_end(data, lineno)
    if data.find(b"%", end) >= 0:
        return _parse_lines(data)
    if _NOT_BLANK.search(data, end) is None:  # np.loadtxt warns on input without data
        return _assemble(np.zeros(0, dtype=_ENTRY), nrows, ncols, nnz, symmetric)
    del data  # the entries are read from the file, not from these bytes
    try:
        entries = np.loadtxt(
            path, dtype=_ENTRY, comments=None, ndmin=1, skiprows=lineno, encoding="ascii"
        )
    except ValueError:
        entries = None
    if entries is None or _any_bad_entry(entries, nrows, ncols, symmetric):
        return _parse_lines(_read_ascii(path))
    return _assemble(entries, nrows, ncols, nnz, symmetric)


def _needs_line_list(path, data):
    """Whether the file at ``path``, holding ``data``, must be parsed from its list of lines.

    `np.loadtxt` given a path opens it again, so only a regular file reads
    the same twice, not a pipe. It opens it through numpy's DataSource,
    which decompresses by suffix and fetches what looks like a URL. Its
    reader also takes vertical tab, form feed and the separators 0x1c-0x1e
    for blanks, where `str.splitlines` breaks lines on them.
    """
    if not os.path.isfile(path) or "://" in path:
        return True
    compressed = os.path.splitext(path)[1] in (".bz2", ".gz", ".lzma", ".xz")
    return compressed or any(c in data for c in _SPLITLINES_ONLY)


def _parse_lines(data):
    """The SparseMatrix of the file of ASCII bytes ``data``, parsed from its list of lines.

    The lines are those `str.splitlines` gives. A bad entry is named by its line.
    """
    lines = data.decode("ascii").splitlines()
    symmetric, nrows, ncols, nnz, lineno = _parse_head(lines)
    body = lines[lineno:]
    # Comment lines between entries are rare; drop them only when the entry
    # part of the file holds a '%' at all. A '%' left on an entry line fails
    # the parse below, so a trailing note is rejected, not ignored.
    if any("%" in line for line in body):
        body = [line for line in body if not line.lstrip().startswith("%")]
    if any(map(str.strip, body)):
        try:
            entries = np.loadtxt(body, dtype=_ENTRY, comments=None, ndmin=1)
        except ValueError as exc:
            _raise_first_bad_entry(lines, lineno, nrows, ncols, symmetric, str(exc))
    else:  # np.loadtxt warns on input without data
        entries = np.zeros(0, dtype=_ENTRY)
    if _any_bad_entry(entries, nrows, ncols, symmetric):
        _raise_first_bad_entry(lines, lineno, nrows, ncols, symmetric, "entry check failed")
    return _assemble(entries, nrows, ncols, nnz, symmetric)


def _parse_head(lines):
    """(symmetric, nrows, ncols, nnz, lineno) from the banner and size line of ``lines``.

    ``lineno`` is the 1-based number of the size line, so the entries start at
    ``lines[lineno]``.
    """
    lines = iter(lines)
    banner = next(lines, None)
    if banner is None:
        raise MatrixMarketError("empty file", line=1)
    header = banner.split()
    if len(header) != 5 or header[0] != _BANNER:
        raise MatrixMarketError(
            f"expected '%%MatrixMarket matrix coordinate real general|symmetric', got {banner!r}",
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
    for lineno, text in enumerate(lines, start=2):
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
    if nrows <= 0 or ncols <= 0 or nnz < 0 or nrows * ncols >= 2**63:
        raise MatrixMarketError("size line values out of range", line=lineno)
    if symmetric and nrows != ncols:
        raise MatrixMarketError("symmetric matrix must be square", line=lineno)
    return symmetric, nrows, ncols, nnz, lineno


def _any_bad_entry(entries, nrows, ncols, symmetric):
    """Whether an entry is not finite, out of range, or above the diagonal of symmetric storage."""
    i, j = entries["i"], entries["j"]
    bad = ~np.isfinite(entries["v"]) | (i < 1) | (i > nrows) | (j < 1) | (j > ncols)
    if symmetric:
        bad |= j > i
    return bad.any()


def _assemble(entries, nrows, ncols, nnz, symmetric):
    """The SparseMatrix of checked 1-based ``entries``; symmetric storage is mirrored."""
    if entries.size != nnz:
        raise MatrixMarketError(f"size line promised {nnz} entries, file holds {entries.size}")
    i, j, v = entries["i"], entries["j"], entries["v"]
    i -= 1  # in place: `from_coo` copies these strided views and frees the copies
    j -= 1
    if symmetric:
        off = i != j
        i, j, v = (
            np.concatenate([i, j[off]]),
            np.concatenate([j, i[off]]),
            np.concatenate([v, v[off]]),
        )
    return SparseMatrix.from_coo(nrows, ncols, i, j, v)


def _read_ascii(path):
    """The bytes of the file at ``path``; a byte outside ASCII is rejected with its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.isascii():
        return data
    start = _NON_ASCII.search(data).start()
    # Numbered as by splitlines(): the line the text up to the byte ends on.
    line = len((data[:start].decode("ascii") + " ").splitlines())
    raise MatrixMarketError(f"non-ASCII byte 0x{data[start]:02x}", line=line)


def _ascii_lines(data):
    """The lines of ASCII ``data`` holding no `_SPLITLINES_ONLY` byte, as `str.splitlines` gives them."""
    start = 0
    for brk in _LINE_BREAK.finditer(data):
        yield data[start : brk.start()].decode("ascii")
        start = brk.end()
    if start < len(data):
        yield data[start:].decode("ascii")


def _line_end(data, lineno):
    """The offset in ``data`` just past line ``lineno`` and its line break."""
    for brk in itertools.islice(_LINE_BREAK.finditer(data), lineno - 1, None):
        return brk.end()
    return len(data)


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
    triangle is stored under the 'symmetric' header. Values are written as
    their `repr`, so they read back bitwise. A nan or infinite value, which
    the reader rejects, raises MatrixMarketError naming its 1-based
    (row, col) before the file is opened.
    """
    finite = np.isfinite(m.data)
    if not finite.all():
        k = np.argmin(finite)
        raise MatrixMarketError(
            f"non-finite value {float(m.data[k])!r} at ({m.rows[k] + 1}, {m.indices[k] + 1})"
        )
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
        # One `%` operation formats a chunk of lines; `%r` is the float
        # `repr`. Chunks bound the Python lists to _CHUNK entries each.
        for start in range(0, len(vals), _CHUNK):
            part = slice(start, start + _CHUNK)
            k = len(vals[part])
            flat = [0] * (3 * k)
            flat[0::3] = (rows[part] + 1).tolist()
            flat[1::3] = (cols[part] + 1).tolist()
            flat[2::3] = vals[part].tolist()
            fh.write("%d %d %r\n" * k % tuple(flat))


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


@contextmanager
def open_output(path):
    """ASCII text handle on ``path`` for CSV or JSON output; standard output for None."""
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", encoding="ascii", newline="") as fh:
        yield fh


def write_csv(header, rows, path):
    """Write a ``header`` row, then ``rows``, as CSV to ``path``; standard output for None.

    The csv module formats every cell: None as an empty cell, anything else
    as its `str`, which for a float is its `repr` (`inf` and `nan` included).
    """
    with open_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_report(reports, fmt, path):
    """Write reports as CSV (`write_csv`, `REPORT_FIELDS` order) or as a JSON list of objects.

    JSON has no token for a non-finite float, so one is written as the
    string of its CSV cell (`"inf"`, `"nan"`); a missed case raises rather
    than write invalid JSON. ``path`` None writes to standard output.
    """
    if fmt == "csv":
        write_csv(REPORT_FIELDS, map(dataclasses.astuple, reports), path)
        return
    if fmt != "json":
        raise ValueError(f"unknown report format {fmt!r} (use 'csv' or 'json')")
    rows = [dataclasses.asdict(r) for r in reports]
    for row in rows:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                row[key] = str(value)
    with open_output(path) as fh:
        json.dump(rows, fh, indent=2, allow_nan=False)
        fh.write("\n")
