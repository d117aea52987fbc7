import csv
import itertools
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from equilibrate.errors import MatrixMarketError
from equilibrate.io import (
    _CHUNK,
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
    path.write_text(text, encoding="utf-8")
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
    m = SparseMatrix.from_dense([[1.0, 3.0], [3.0, 2.0]])
    p = tmp_path / "s.mtx"
    write_matrix_market(m, p, symmetric=True)
    data_lines = [
        ln for ln in p.read_text().splitlines()[1:] if ln and not ln.startswith("%")
    ]
    assert data_lines[0].split() == ["2", "2", "3"]
    assert len(data_lines) == 4


def test_write_symmetric_rejects_nonsymmetric(tmp_path):
    m = SparseMatrix.from_dense([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(MatrixMarketError):
        write_matrix_market(m, tmp_path / "bad.mtx", symmetric=True)


def test_values_survive_round_trip_bitwise(tmp_path):
    vals = [0.1, 1.0 / 3.0, 1e-300, -7.25e100, math.pi]
    m = SparseMatrix.from_dense(np.diag(vals))
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
    assert m == SparseMatrix.from_dense([[3.5, 0.0], [0.0, 4.0]])


def test_comments_and_blank_lines_are_skipped(tmp_path):
    p = _write(
        tmp_path / "c.mtx",
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n\n2 2 1\n% another\n\n1 2 -3.0\n",
    )
    m = read_matrix_market(p)
    assert m == SparseMatrix.from_dense([[0.0, -3.0], [0.0, 0.0]])


def test_symmetric_read_mirrors_off_diagonals(tmp_path):
    p = _write(
        tmp_path / "s.mtx",
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 5.0\n3 1 2.0\n",
    )
    m = read_matrix_market(p)
    assert m == SparseMatrix.from_dense([[5.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])


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
        # 2**63 positions or more: int64 keys row * ncols + col would wrap.
        ("%%MatrixMarket matrix coordinate real general\n5 4611686018427387904 1\n5 6 1.0\n", 2),
        ("%%MatrixMarket matrix coordinate real general\n1 9223372036854775808 1\n1 6 1.0\n", 2),
        (
            "%%MatrixMarket matrix coordinate real general\n10 1000000000000000000 2\n"
            "10 500000000000000000 1.0\n1 1 1.0\n",
            2,
        ),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", 3),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 1.0\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 nan\n", 4),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n% c\n1 1 -inf\n2 2 1\n", 4),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n% caf\u00e9\n1 1 1.0\n", 3),
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


def _assert_same_bits(a, b):
    assert a == b
    np.testing.assert_array_equal(a.data.view(np.int64), b.data.view(np.int64))


def _written(tmp_path, rng, symmetric, name="m.mtx"):
    """A matrix with values over twelve decades, and the text the writer writes for it."""
    dense = rng.standard_normal((40, 40)) * 10.0 ** rng.integers(-6, 7, (40, 40))
    dense[rng.random(dense.shape) < 0.8] = 0.0
    m = SparseMatrix.from_dense(np.tril(dense) + np.tril(dense, -1).T if symmetric else dense)
    p = tmp_path / name
    write_matrix_market(m, p, symmetric=symmetric)
    return m, p.read_text()


def _blank_lines_between(lines):
    blanks = itertools.cycle(["", "  ", "\t", " \t "])
    return "\n".join(line + "\n" + next(blanks) for line in lines)


def _mixed_breaks(lines):
    breaks = itertools.cycle(["\r\n", "\r", "\n", "\r\n \t\r\n", "\n\n"])
    return "".join(f"{' ' * (k % 3)}{line}\t{next(breaks)}" for k, line in enumerate(lines))


@pytest.mark.parametrize("symmetric", [False, True], ids=["general", "symmetric"])
@pytest.mark.parametrize(
    "rewrite",
    [
        lambda lines: "\r\n".join(lines) + "\r\n",
        lambda lines: "\r".join(lines) + "\r",
        _blank_lines_between,
        _mixed_breaks,
    ],
    ids=["crlf", "cr", "blank-lines", "mixed"],
)
def test_line_breaks_and_blank_lines_read_back_bitwise(tmp_path, rng, symmetric, rewrite):
    m, text = _written(tmp_path, rng, symmetric)
    text = rewrite(text.splitlines())
    assert text.count("%") == 2  # the banner's: no comment lines
    p = tmp_path / "rewritten.mtx"
    p.write_bytes(text.encode("ascii"))
    _assert_same_bits(read_matrix_market(p), m)


_HEAD = "%%MatrixMarket matrix coordinate real general"


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e"], ids=repr)
@pytest.mark.parametrize(
    "text, result",
    [
        ("{h}\n2 2 2\n1 1 1.0\n2{s}2 2.0\n", "line 4: entry line must be 'row col value'"),
        ("{h}\n2 2 2\n1 1{s}1.0\n2 2 2.0\n", "line 3: entry line must be 'row col value'"),
        ("{h}\n2{s}2 2\n1 1 1.0\n2 2 2.0\n", "line 2: size line must be 'nrows ncols nnz'"),
        ("{h}\n2 2 2\n1 1 1.0{s}\n2 3 2.0\n", "line 5: index (2, 3) out of range"),
        ("{h}\n2 2 2\n1 1 1.0{s}2 2 2.0\n", [[1.0, 0.0], [0.0, 2.0]]),
        ("{h}\n2 2 2\n1 1 1.0{s}\n2 2 2.0{s}{s}\n", [[1.0, 0.0], [0.0, 2.0]]),
        ("{h}{s}2 2 2\n1 1 1.0\n2 2 2.0\n", [[1.0, 0.0], [0.0, 2.0]]),
    ],
    ids=["between-indices", "before-value", "size-line", "line-after", "line-end", "trailing", "banner-end"],
)
def test_vertical_tab_form_feed_and_separators_break_lines(tmp_path, sep, text, result):
    # `str.splitlines` breaks lines on these five characters, where
    # `np.loadtxt` reading a file takes them for blanks.
    p = _write(tmp_path / "sep.mtx", text.format(h=_HEAD, s=sep))
    if isinstance(result, str):
        with pytest.raises(MatrixMarketError) as exc:
            read_matrix_market(p)
        assert str(exc.value) == result
    else:
        assert read_matrix_market(p) == SparseMatrix.from_dense(result)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_text_with_a_compression_suffix_reads_as_text(tmp_path, rng, suffix):
    m, _ = _written(tmp_path, rng, False, name=f"m.mtx{suffix}")
    _assert_same_bits(read_matrix_market(tmp_path / f"m.mtx{suffix}"), m)
    p = _write(tmp_path / f"bad{suffix}", f"{_HEAD}\n2 2 2\n1 1 1.0\n2 x 2.0\n")
    with pytest.raises(MatrixMarketError, match="^line 4: malformed entry '2 x 2.0'$"):
        read_matrix_market(p)


def test_a_named_pipe_is_read_once(tmp_path, rng):
    m, text = _written(tmp_path, rng, False)
    pipe = tmp_path / "pipe.mtx"
    os.mkfifo(pipe)
    result = {}

    def read():
        try:
            result["matrix"] = read_matrix_market(pipe)
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            result["error"] = exc

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    with open(pipe, "w", encoding="ascii") as fh:
        fh.write(text)
    reader.join(30)
    if reader.is_alive():  # it opened the pipe again and waits for a writer
        with open(pipe, "w", encoding="ascii"):
            pass
        reader.join(30)
    assert not reader.is_alive()
    assert "error" not in result, result.get("error")
    _assert_same_bits(result["matrix"], m)


def test_reading_a_general_file_stays_below_a_memory_bound(tmp_path):
    # Measured with numpy 2.4.6 on x86_64 Linux: 64 bytes per entry (the
    # file holds about 30), against 238 when every line became a Python str.
    rng = np.random.default_rng(5004)
    n, count = 5000, 50000
    vals = rng.standard_normal(count) * 10.0 ** rng.uniform(-3, 3, count)
    m = SparseMatrix.from_coo(n, n, rng.integers(0, n, count), rng.integers(0, n, count), vals)
    p = tmp_path / "m.mtx"
    write_matrix_market(m, p)
    tracemalloc.start()
    try:
        back = read_matrix_market(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == m
    assert peak / m.nnz < 100


def test_count_mismatch_message(tmp_path):
    p = _write(
        tmp_path / "short.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n",
    )
    with pytest.raises(MatrixMarketError, match="promised 3 entries, file holds 1"):
        read_matrix_market(p)


def _per_line_text(m):
    """The file text as a writer formatting one entry per line writes it."""
    lines = [
        "%%MatrixMarket matrix coordinate real general\n",
        f"{m.nrows} {m.ncols} {m.nnz}\n",
    ]
    for i, j, v in zip(m.rows.tolist(), m.indices.tolist(), m.data.tolist()):
        lines.append(f"{i + 1} {j + 1} {v!r}\n")
    return "".join(lines)


@pytest.mark.parametrize("nnz", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_chunk_boundaries_write_the_per_line_text(tmp_path, rng, nnz):
    n = 200
    flat = rng.choice(n * n, nnz, replace=False)
    vals = rng.standard_normal(nnz) * 10.0 ** rng.uniform(-300, 300, nnz)
    m = SparseMatrix.from_coo(n, n, flat // n, flat % n, vals)
    assert m.nnz == nnz
    p = tmp_path / "c.mtx"
    write_matrix_market(m, p)
    assert p.read_text() == _per_line_text(m)
    back = read_matrix_market(p)
    assert back == m
    np.testing.assert_array_equal(back.data.view(np.int64), m.data.view(np.int64))


@pytest.mark.parametrize(
    "dense, symmetric, where",
    [
        ([[1.0, 2.0], [math.nan, 4.0]], False, "(2, 1)"),
        ([[1.0, 0.0, math.inf], [0.0, 2.0, 0.0], [math.inf, 0.0, 3.0]], True, "(1, 3)"),
        ([[1.0, 0.0], [0.0, -math.inf]], True, "(2, 2)"),
    ],
    ids=["general-nan", "symmetric-inf", "symmetric-diagonal"],
)
def test_writer_refuses_non_finite_values(tmp_path, dense, symmetric, where):
    m = SparseMatrix.from_dense(dense)
    p = tmp_path / "nonfinite.mtx"
    message = f"^non-finite value -?(nan|inf) at {re.escape(where)}$"
    with pytest.raises(MatrixMarketError, match=message):
        write_matrix_market(m, p, symmetric=symmetric)
    assert not p.exists()


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
    # An overflowing cell reads ratio_after = inf; a matrix may be named "inf".
    overflowing = RunReport("inf", "jacobi", 0, 32, math.inf, math.inf, wall_time=math.inf)
    reports = _sample_reports() + [overflowing]
    write_report(reports, "json", p)
    back = read_report_json(p)
    assert back == reports
    assert math.isinf(back[1].cond_before)
    assert math.isinf(back[3].ratio_after)
    assert back[3].matrix_name == "inf"


def test_unknown_report_format_raises(tmp_path):
    with pytest.raises(ValueError):
        write_report([], "xml", tmp_path / "r.xml")
