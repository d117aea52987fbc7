import itertools

import numpy as np
import pytest

from equilibrate.errors import DimensionMismatch
from equilibrate.matrix import SparseMatrix
from equilibrate.structure import (
    StructureReport,
    has_support,
    has_total_support,
    is_irreducible,
    structure_report,
)


def _from_pattern(pattern):
    arr = np.asarray(pattern, dtype=float)
    return SparseMatrix.from_dense(arr)


def _support_by_enumeration(pattern):
    n = len(pattern)
    return any(
        all(pattern[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n))
    )


def _total_support_by_enumeration(pattern):
    n = len(pattern)
    covered = [[False] * n for _ in range(n)]
    for p in itertools.permutations(range(n)):
        if all(pattern[i][p[i]] for i in range(n)):
            for i in range(n):
                covered[i][p[i]] = True
    return all(
        covered[i][j] for i in range(n) for j in range(n) if pattern[i][j]
    ) and _support_by_enumeration(pattern)


def _irreducible_by_enumeration(pattern):
    # Strong connectivity via boolean closure of (I + P)^(n-1).
    n = len(pattern)
    reach = [[bool(pattern[i][j]) or i == j for j in range(n)] for i in range(n)]
    for _ in range(n):
        reach = [
            [any(reach[i][k] and reach[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return all(all(row) for row in reach)


def test_identity_has_everything_but_irreducibility():
    m = _from_pattern(np.eye(4))
    assert structure_report(m) == StructureReport(
        has_support=True, has_total_support=True, is_irreducible=False
    )


def test_one_by_one():
    assert structure_report(_from_pattern([[1.0]])) == StructureReport(True, True, True)


def test_triangular_pattern_supported_but_not_total():
    m = _from_pattern([[1, 1], [0, 1]])
    assert has_support(m)
    assert not has_total_support(m)
    assert not is_irreducible(m)


def test_support_without_total_support_three_by_three():
    # Entry (0, 0) lies on no positive diagonal here.
    m = _from_pattern([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert has_total_support(m)
    m2 = _from_pattern([[1, 1, 0], [0, 1, 1], [0, 1, 1]])
    assert has_support(m2)
    assert not has_total_support(m2)


def test_no_support_when_rows_share_single_column():
    m = SparseMatrix.from_dense([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert not has_support(m)
    assert not has_total_support(m)
    report = structure_report(m)
    assert not report.has_total_support


def test_circulant_shift_is_irreducible_with_total_support():
    n = 5
    m = SparseMatrix.from_dense(np.roll(np.eye(n), 1, axis=1))
    assert structure_report(m) == StructureReport(True, True, True)


def test_block_diagonal_reducible_with_total_support():
    m = _from_pattern([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])
    assert has_total_support(m)
    assert not is_irreducible(m)


def test_union_of_two_permutations_has_total_support(rng):
    n = 9
    perms = [rng.permutation(n) for _ in range(2)]
    rows = np.tile(np.arange(n), 2)
    m = SparseMatrix.from_coo(n, n, rows, np.concatenate(perms), np.ones(2 * n))
    assert has_support(m)
    assert has_total_support(m)


def test_dense_positive_pattern(rng):
    m = _from_pattern(np.ones((6, 6)))
    assert structure_report(m) == StructureReport(True, True, True)


def test_rectangular_matrix_rejected():
    m = SparseMatrix.from_dense([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    for fn in (has_support, has_total_support, is_irreducible, structure_report):
        with pytest.raises(DimensionMismatch):
            fn(m)


def test_signs_are_ignored():
    m = _from_pattern([[-1, 0], [0, -1]])
    assert has_total_support(m)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_predicates_match_enumeration_on_all_small_patterns(n):
    # n=4 walks a pseudo-random slice of the 2^(n*n) pattern space; smaller
    # sizes are exhaustive.
    total = 2 ** (n * n)
    if total <= 512:
        masks = range(total)
    else:
        rng = np.random.default_rng(987)
        masks = rng.integers(0, total, size=400, dtype=np.uint64).tolist()
    for mask in masks:
        bits = [(int(mask) >> k) & 1 for k in range(n * n)]
        pattern = [bits[i * n : (i + 1) * n] for i in range(n)]
        m = _from_pattern(pattern)
        assert has_support(m) == _support_by_enumeration(pattern), pattern
        assert has_total_support(m) == _total_support_by_enumeration(pattern), pattern
        assert is_irreducible(m) == _irreducible_by_enumeration(pattern), pattern
