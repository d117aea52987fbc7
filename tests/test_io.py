import csv
import math

import numpy as np
import pytest

from equilibrate.errors import MatrixMarketError
from equilibrate.io import (
    REPORT_FIELDS,
    RunReport,
    read_matrix_market,
    read_report_json,
    write_matrix_market,
    write_report,
)
from equilibrate.matrix import SparseMatrix

from conftest import random_sparse


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_general_round_trip(tmp_path, rng):
    m = random_sparse(rng, 7, 5)
    p = tmp_path / "m.mtx"
    write_matrix_market(m, p, comment="round trip\ntwo lines")
    assert read_matrix_market(p) == m


def test_symmetric_round_trip(tmp_path, rng):
    dense = rng.standard_normal((6, 6))
    m = SparseMatrix.from_dense(dense + dense.T)
    p = tmp_path / "s.mtx"
    write_matrix_market(m, p, symmetric=True)
    text = p.read_text()
    assert "symmetric" in text.splitlines()[0]
    assert read_matrix_market(p) == m


def test_symmetric_file_stores_lower_triangle_once(tmp_path):
    m = SparseMatrix(2, 2, [(0, 0, 1.0), (0, 1, 3.0), (1, 0, 3.0), (1, 1, 2.0)])
    p = tmp_path / "s.mtx"
    write_matrix_market(m, p, symmetric=True)
    data_lines = [
        ln for ln in p.read_text().splitlines()[1:] if ln and not ln.startswith("%")
    ]
    assert data_lines[0].split() == ["2", "2", "3"]
    assert len(data_lines) == 4


def test_write_symmetric_rejects_nonsymmetric(tmp_path):
    m = SparseMatrix(2, 2, [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(MatrixMarketError):
        write_matrix_market(m, tmp_path / "bad.mtx", symmetric=True)


def test_values_survive_round_trip_bitwise(tmp_path):
    vals = [0.1, 1.0 / 3.0, 1e-300, -7.25e100, math.pi]
    m = SparseMatrix(5, 5, [(i, i, v) for i, v in enumerate(vals)])
    p = tmp_path / "v.mtx"
    write_matrix_market(m, p)
    back = read_matrix_market(p)
    np.testing.assert_array_equal(back.data, m.data)


def test_duplicate_entries_are_summed(tmp_path):
    p = _write(
        tmp_path / "dup.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n1 1 2.5\n2 2 4.0\n",
    )
    m = read_matrix_market(p)
    assert m.entries == [(0, 0, 3.5), (1, 1, 4.0)]


def test_comments_and_blank_lines_are_skipped(tmp_path):
    p = _write(
        tmp_path / "c.mtx",
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n\n2 2 1\n% another\n\n1 2 -3.0\n",
    )
    m = read_matrix_market(p)
    assert m.entries == [(0, 1, -3.0)]


def test_symmetric_read_mirrors_off_diagonals(tmp_path):
    p = _write(
        tmp_path / "s.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 5.0\n3 1 2.0\n",
    )
    m = read_matrix_market(p)
    assert m.entries == [(0, 0, 5.0), (0, 2, 2.0), (2, 0, 2.0)]


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("%%MatrixMarket matrix array real general\n2 2 0\n", 1),
        ("%%MatrixMarket matrix coordinate complex general\n2 2 0\n", 1),
        ("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 0\n", 1),
        ("%%MatrixMarket vector coordinate real general\n2 2 0\n", 1),
        ("not a header at all\n", 1),
        ("%%MatrixMarket matrix coordinate real general\n", 2),
        ("%%MatrixMarket matrix coordinate real general\n2 2\n", 2),
        ("%%MatrixMarket matrix coordinate real general\n2 x 1\n", 2),
        ("%%MatrixMarket matrix coordinate real general\n0 2 1\n", 2),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n", 2),
        ("%%MatrixMarket matrix coordinate real general\n1_0 2 1\n", 2),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", 3),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 1.0\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 nan\n", 4),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n% c\n1 1 -inf\n2 2 1\n", 4),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n% only\n1 1 2\n2 2 2\n", None),
    ],
)
def test_malformed_files_raise_with_line_number(tmp_path, text, line):
    p = _write(tmp_path / "bad.mtx", text)
    with pytest.raises(MatrixMarketError) as exc:
        read_matrix_market(p)
    if line is not None:
        assert f"line {line}" in str(exc.value)


# Five lines the reader skips: comments, an empty line, and blank lines.
_SKIPPED = "% a comment\n\n   \n%another % note\n\t\n"


@pytest.mark.parametrize("tail", ["3 3 3.0", "3 3"], ids=["good-tail", "bad-tail"])
@pytest.mark.parametrize(
    "symmetry,bad,message",
    [
        ("general", "4 1 1.0", "index (4, 1) out of range"),
        ("general", "1 0 1.0", "index (1, 0) out of range"),
        ("symmetric", "1 2 1.0", "symmetric storage must hold the lower triangle only"),
        ("general", "1 2 nan", "non-finite value 'nan'"),
        ("symmetric", "2 2 -inf", "non-finite value '-inf'"),
        ("general", "1 2", "entry line must be 'row col value'"),
        ("general", "1 2 3.0 % note", "entry line must be 'row col value'"),
        ("general", "1 2 3.0%note", "malformed entry '1 2 3.0%note'"),
        ("general", "1_0 2 3.0", "malformed entry '1_0 2 3.0'"),
        ("general", "1 2 1_5", "malformed entry '1 2 1_5'"),
        ("general", "1 2 0x10", "malformed entry '1 2 0x10'"),
    ],
)
def test_bad_entry_after_skipped_lines_names_its_line(tmp_path, symmetry, bad, message, tail):
    # The bad entry is line 16; a later line is either fine or malformed
    # itself, and the first bad line is the one named either way.
    p = _write(
        tmp_path / "bad.mtx",
        f"%%MatrixMarket matrix coordinate real {symmetry}\n% header note\n3 3 4\n"
        f"1 1 1.0\n{_SKIPPED}2 1 2.0\n{_SKIPPED}{bad}\n{tail}\n",
    )
    with pytest.raises(MatrixMarketError) as exc:
        read_matrix_market(p)
    assert str(exc.value) == f"line 16: {message}"
    assert exc.value.line == 16


@pytest.mark.parametrize("symmetry", ["general", "symmetric"])
@pytest.mark.parametrize("after", ["", "% trailing note\n\n  \n"])
def test_file_without_entries_reads_as_empty_matrix(tmp_path, symmetry, after):
    p = _write(tmp_path / "e.mtx", f"%%MatrixMarket matrix coordinate real {symmetry}\n2 2 0\n{after}")
    m = read_matrix_market(p)
    assert (m.nrows, m.ncols, m.nnz) == (2, 2, 0)
    p = _write(tmp_path / "e.mtx", f"%%MatrixMarket matrix coordinate real {symmetry}\n2 2 1\n{after}")
    with pytest.raises(MatrixMarketError, match="promised 1 entries, file holds 0"):
        read_matrix_market(p)


@pytest.mark.parametrize("symmetric", [False, True], ids=["general", "symmetric"])
def test_messy_file_reads_back_its_entries_bitwise(tmp_path, rng, symmetric):
    n, count = 6, 60
    rows = rng.integers(1, n + 1, count)
    cols = rng.integers(1, n + 1, count)
    if symmetric:
        rows, cols = np.maximum(rows, cols), np.minimum(rows, cols)
    # Mixed magnitudes on few coordinates: duplicate sums depend on their order.
    vals = rng.standard_normal(count) * 10.0 ** rng.integers(-12, 13, count)
    lines = [f"%%MatrixMarket matrix coordinate real {'symmetric' if symmetric else 'general'}"]
    lines += ["% generated", "", f"{n} {n} {count}"]
    expected = []  # in the order a line-by-line reader appends them
    for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        pick = rng.integers(4)
        if pick == 0:
            lines.append("% between entries")
        elif pick == 1:
            lines.append(" \t ")
        sep = "\t" if rng.integers(2) else " "
        lines.append(f"{'  ' if rng.integers(2) else ''}{i}{sep}{j} {v!r}")
        expected.append((i - 1, j - 1, v))
        if symmetric and i != j:
            expected.append((j - 1, i - 1, v))
    p = _write(tmp_path / "messy.mtx", "\n".join(lines) + "\n")
    r, c, v = zip(*expected)
    want = SparseMatrix.from_coo(n, n, r, c, v)
    assert read_matrix_market(p) == want
    assert want.nnz < len(expected)  # duplicates were summed


def test_count_mismatch_message(tmp_path):
    p = _write(
        tmp_path / "short.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n",
    )
    with pytest.raises(MatrixMarketError, match="promised 3 entries, file holds 1"):
        read_matrix_market(p)


def _sample_reports():
    return [
        RunReport("a", "ssbin", 0, 64, 3.5, 1.2, 100.0, 9.0, 0.01),
        RunReport("b", "snbin", 2, 128, 7.0, 1.5, math.inf, math.inf, 0.02),
        RunReport("c", "sk_exact", 0, 32, status="error: zero row"),
    ]


def test_csv_report_layout(tmp_path):
    p = tmp_path / "r.csv"
    write_report(_sample_reports(), "csv", p)
    with open(p, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == REPORT_FIELDS
    assert len(rows) == 4
    by_name = {r[0]: dict(zip(rows[0], r)) for r in rows[1:]}
    assert by_name["b"]["cond_before"] == "inf"
    assert by_name["c"]["ratio_after"] == ""
    assert by_name["c"]["status"] == "error: zero row"
    assert float(by_name["a"]["ratio_after"]) == 1.2


def test_json_report_round_trip(tmp_path):
    p = tmp_path / "r.json"
    reports = _sample_reports()
    write_report(reports, "json", p)
    back = read_report_json(p)
    assert back == reports
    assert math.isinf(back[1].cond_before)


def test_unknown_report_format_raises(tmp_path):
    with pytest.raises(ValueError):
        write_report([], "xml", tmp_path / "r.xml")
