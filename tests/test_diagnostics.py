import math

import numpy as np
import pytest

from equilibrate.diagnostics import (
    CONDITION_SIZE_CAP,
    TABLE,
    col_norms_squared,
    condition_number,
    convergence_history,
    ratio,
    row_norms_squared,
    row_sum_variance,
)
from equilibrate.corpus import CorpusSpec, generate
from equilibrate.errors import SizeCapExceeded, ZeroRowOrColumn
from equilibrate.exact import inf_norm_scale, jacobi_scale
from equilibrate.matrix import DiagonalScaling, SparseMatrix, scale

from conftest import random_sparse


def test_norms_squared_match_dense(rng):
    m = random_sparse(rng, 7, 9)
    dense = m.to_dense()
    np.testing.assert_allclose(row_norms_squared(m), (dense**2).sum(axis=1))
    np.testing.assert_allclose(col_norms_squared(m), (dense**2).sum(axis=0))


def test_ratio_on_known_matrix():
    m = SparseMatrix.from_dense(np.diag([3.0, 4.0, 12.0]))
    r = ratio(m)
    assert type(r) is float
    assert r == pytest.approx(4.0)
    assert ratio(SparseMatrix.from_dense(np.diag([1.0, 10.0]))) == pytest.approx(10.0)


def test_ratio_reports_worse_side_for_nonsymmetric():
    # Rows of the first matrix have norms (5, 5) and so do its columns; the
    # second has row norms (sqrt(5), sqrt(5)) and column norms (sqrt(2),
    # sqrt(8)), so only the column spread is 2.
    m = SparseMatrix.from_dense(np.array([[3.0, 4.0], [4.0, -3.0]]))
    assert ratio(m) == pytest.approx(1.0)
    m2 = SparseMatrix.from_dense(np.array([[1.0, 2.0], [-1.0, 2.0]]))
    assert ratio(m2) == pytest.approx(2.0)


@pytest.mark.parametrize("family", ["spd", "symmetric_indefinite", "reducible_blocks"])
def test_row_and_column_norms_of_symmetric_matrix_are_bitwise_equal(family):
    # ratio needs no symmetry flag because of this: bincount sums column i's
    # squares in the same order as row i's, before and after a symmetric scale.
    for seed in range(3):
        m = generate(CorpusSpec(family=family, n=40, density=0.2, seed=seed, scale_spread=2.0))
        assert m.is_symmetric()
        d = 10.0 ** np.random.default_rng(seed).uniform(-3, 3, m.nrows)
        for a in (m, scale(m, DiagonalScaling.symmetric(d))):
            assert np.array_equal(row_norms_squared(a), col_norms_squared(a))


def test_ratio_is_invariant_under_uniform_scaling(rng):
    m = random_sparse(rng, 6, 6)
    m2 = SparseMatrix.from_coo(6, 6, m.rows, m.indices, m.data * 8.0)
    assert ratio(m2) == pytest.approx(ratio(m), rel=1e-14)


def test_ratio_zero_row_raises():
    with pytest.raises(ZeroRowOrColumn):
        ratio(SparseMatrix.from_dense([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ZeroRowOrColumn):
        ratio(SparseMatrix.from_dense([[1.0, 0.0], [1.0, 0.0]]))


def test_condition_number_closed_forms():
    assert condition_number(SparseMatrix.from_dense(np.eye(5))) == pytest.approx(1.0)
    m = SparseMatrix.from_dense(np.diag([1.0, 10.0, 100.0]))
    assert condition_number(m) == pytest.approx(100.0)


def test_condition_number_matches_eigendecomposition(rng):
    dense = rng.standard_normal((12, 12))
    spd = dense @ dense.T + np.eye(12)
    eigs = np.linalg.eigvalsh(spd)
    m = SparseMatrix.from_dense(spd)
    assert condition_number(m) == pytest.approx(eigs[-1] / eigs[0], rel=1e-9)


def test_condition_number_singular_is_inf():
    m = SparseMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert condition_number(m) == math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_condition_number_rejects_non_finite_entries(bad):
    m = SparseMatrix.from_dense(np.array([[1.0, 0.0], [0.0, bad]]))
    with pytest.raises(ValueError, match="finite"):
        condition_number(m)


def test_condition_number_size_cap():
    n = CONDITION_SIZE_CAP + 1
    m = SparseMatrix.from_coo(n, n, np.arange(n), np.arange(n), np.ones(n))
    with pytest.raises(SizeCapExceeded):
        condition_number(m)
    small = SparseMatrix.from_dense(np.eye(3))
    with pytest.raises(SizeCapExceeded):
        condition_number(small, cap=2)


def test_row_sum_variance_closed_form():
    # Squared row sums are (1, 4, 16): mean 7, variance (36 + 9 + 81)/3 = 42.
    m = SparseMatrix.from_dense(np.diag([1.0, 2.0, 4.0]))
    assert row_sum_variance(m) == pytest.approx(42.0)
    assert row_sum_variance(SparseMatrix.from_dense(np.eye(4))) == 0.0


def test_history_unknown_algorithm_rejected(rng):
    m = random_sparse(rng, 5, 5)
    with pytest.raises(ValueError, match="unknown algorithm"):
        convergence_history(m, "newton")


def test_history_symmetric_only_algorithms_guarded(rng):
    m = SparseMatrix.from_dense(rng.standard_normal((5, 5)))
    assert not m.is_symmetric()
    for alg in ("ssbin", "ssbin_noswitch", "snbin_sym", "sym_sk_exact"):
        with pytest.raises(ValueError, match="symmetric"):
            convergence_history(m, alg)


def test_history_lengths_and_start(rng):
    dense = rng.standard_normal((8, 8))
    sym = SparseMatrix.from_dense(dense + dense.T)
    start = math.log10(ratio(sym))
    for alg in TABLE:
        series = convergence_history(sym, alg, nmv=12, seed=1)
        assert series[0] == pytest.approx(start)
        if alg in ("ssbin", "ssbin_noswitch", "snbin", "snbin_sym"):
            assert len(series) == 13
        elif alg in ("jacobi", "inf_norm"):
            assert len(series) == 2
        else:
            assert 2 <= len(series) <= 13
        assert all(np.isfinite(series))


def test_history_exact_series_converges_to_zero(rng):
    dense = rng.uniform(0.5, 1.5, (6, 6))
    sym = SparseMatrix.from_dense(dense + dense.T)
    series = convergence_history(sym, "sym_sk_exact", nmv=200)
    assert series[-1] == pytest.approx(0.0, abs=1e-4)
    series2 = convergence_history(sym, "sk_exact", nmv=200)
    assert series2[-1] == pytest.approx(0.0, abs=1e-4)


def test_history_is_deterministic_per_seed(rng):
    dense = rng.standard_normal((7, 7))
    sym = SparseMatrix.from_dense(dense + dense.T)
    a = convergence_history(sym, "ssbin", nmv=20, seed=4)
    b = convergence_history(sym, "ssbin", nmv=20, seed=4)
    assert a == b
    c = convergence_history(sym, "ssbin", nmv=20, seed=5)
    assert a != c


def test_history_stochastic_series_descends_on_misscaled_input(rng):
    d = 10.0 ** np.linspace(-2, 2, 10)
    dense = rng.standard_normal((10, 10))
    sym = SparseMatrix.from_dense((dense + dense.T) * (d[:, None] * d))
    series = convergence_history(sym, "ssbin", nmv=64, seed=0)
    assert series[-1] < series[0] - 1.0


def test_history_snbin_on_nonsymmetric(rng):
    m = SparseMatrix.from_dense(rng.standard_normal((6, 6)))
    series = convergence_history(m, "snbin", nmv=10, seed=2)
    assert len(series) == 11
    series_exact = convergence_history(m, "sk_exact", nmv=10)
    assert len(series_exact) >= 2


def test_history_of_one_shot_algorithms_is_two_points(rng):
    dense = rng.standard_normal((8, 8))
    sym = SparseMatrix.from_dense(dense + dense.T + 4 * np.eye(8))
    series = convergence_history(sym, "jacobi", nmv=12)
    after = ratio(scale(sym, jacobi_scale(sym)))
    assert series == [math.log10(ratio(sym)), math.log10(after)]
    m = SparseMatrix.from_dense(rng.standard_normal((6, 6)))
    series = convergence_history(m, "inf_norm", nmv=12)
    after = ratio(scale(m, inf_norm_scale(m)))
    assert series == [math.log10(ratio(m)), math.log10(after)]


# ------------------------------------------------------ algorithm table

_TABLE_SPECS = {
    "symmetric": CorpusSpec(family="spd", n=20, density=0.3, seed=21, scale_spread=1.5),
    "nonsymmetric": CorpusSpec(family="nonsymmetric_general", n=25, density=0.2, seed=22, scale_spread=1.5),
}


def _same_scaling(a, b):
    return a.left.tobytes() == b.left.tobytes() and a.right.tobytes() == b.right.tobytes()


@pytest.mark.parametrize("kind", list(_TABLE_SPECS))
@pytest.mark.parametrize("name", list(TABLE))
def test_table_entry_reports_its_iterations(name, kind):
    m = generate(_TABLE_SPECS[kind])
    alg = TABLE[name]
    if alg.symmetric_only and not m.is_symmetric():
        with pytest.raises(ValueError, match="requires a symmetric matrix"):
            convergence_history(m, name, nmv=8)
        return
    seen = []
    result = alg.scaling(m, 8, 3, on_iteration=lambda k, s: seen.append((k, s)))
    assert [k for k, _ in seen] == list(range(1, len(seen) + 1))
    # Observing a run does not change its result.
    assert _same_scaling(result, alg.scaling(m, 8, 3))
    if alg.uses_seed:  # stochastic: one report per sweep, the last is the result
        assert len(seen) == 8
        assert _same_scaling(seen[-1][1], result)
    elif not alg.uses_budget:  # one-shot: the result, once
        assert len(seen) == 1
        assert _same_scaling(seen[0][1], result)
    else:  # exact: at most one report per iteration of the budget
        assert 1 <= len(seen) <= 8
    if alg.symmetric_only:
        assert all(_same_scaling(s, DiagonalScaling.symmetric(s.left)) for _, s in seen)
