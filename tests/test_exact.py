import numpy as np
import pytest

from equilibrate.diagnostics import ratio
from equilibrate.errors import DimensionMismatch, ZeroRowOrColumn
from equilibrate.exact import (
    ExactOptions,
    equilibrate_2norm,
    inf_norm_scale,
    jacobi_scale,
    sinkhorn_knopp,
    sym_sinkhorn_knopp,
    sym_sk_step,
)
from equilibrate.matrix import DiagonalScaling, SparseMatrix, scale

from conftest import random_sparse


def _doubly_stochastic_dev(m):
    dense = m.to_dense()
    return max(
        np.max(np.abs(dense.sum(axis=1) - 1.0)),
        np.max(np.abs(dense.sum(axis=0) - 1.0)),
    )


def test_options_validation():
    with pytest.raises(ValueError):
        ExactOptions(tol=0.0)
    with pytest.raises(ValueError):
        ExactOptions(tol=-1e-3)
    with pytest.raises(ValueError):
        ExactOptions(max_iters=0)


def test_two_by_two_closed_form():
    # For B = [[1, 4], [9, 16]] the doubly stochastic limit is
    # [[0.4, 0.6], [0.6, 0.4]]: the unique limit has ad/(ad+bc) in the
    # corners with a*d = 16 and b*c = 36, giving 16/52... worked by hand:
    # RBC = [[r1*c1, 4*r1*c2], [9*r2*c1, 16*r2*c2]] with row/col sums 1
    # solves to corner value p satisfying p/(1-p) * p/(1-p) = (1*16)/(4*9),
    # so p = 2/5.
    b = SparseMatrix.from_dense(np.array([[1.0, 4.0], [9.0, 16.0]]))
    s, history = sinkhorn_knopp(b, ExactOptions(tol=1e-14))
    assert history.converged
    scaled = scale(b, s)
    np.testing.assert_allclose(
        scaled.to_dense(), [[0.4, 0.6], [0.6, 0.4]], rtol=1e-12
    )


def test_diagonal_matrix_converges_in_one_iteration():
    b = SparseMatrix.from_dense(np.diag([3.0, 5.0, 0.25]))
    s, history = sinkhorn_knopp(b)
    assert history.converged
    assert history.iterations == 1
    np.testing.assert_allclose(scale(b, s).to_dense(), np.eye(3), rtol=1e-15)


def test_random_positive_matrix_reaches_doubly_stochastic(rng):
    for n in (3, 8, 17):
        b = SparseMatrix.from_dense(rng.uniform(0.1, 2.0, (n, n)))
        s, history = sinkhorn_knopp(b, ExactOptions(tol=1e-12))
        assert history.converged
        assert _doubly_stochastic_dev(scale(b, s)) < 1e-10


def test_sparse_matrix_with_full_diagonal_converges(rng):
    # Keep the pattern fairly dense: very sparse patterns sit near a
    # decomposable one and the alternating iteration slows to a crawl.
    m = random_sparse(rng, 12, 12, density=0.5, signed=False)
    diag = np.arange(12)
    b = SparseMatrix.from_coo(
        12,
        12,
        np.concatenate([m.rows, diag]),
        np.concatenate([m.indices, diag]),
        np.concatenate([m.data, np.ones(12)]),
    )
    s, history = sinkhorn_knopp(b)
    assert history.converged
    assert _doubly_stochastic_dev(scale(b, s)) < 1e-9


def test_history_deviations_decrease_overall(rng):
    b = SparseMatrix.from_dense(rng.uniform(0.5, 1.5, (6, 6)))
    _, history = sinkhorn_knopp(b, ExactOptions(tol=1e-13))
    devs = [max(rd, cd) for _, rd, cd in history.records]
    assert devs[-1] < devs[0]
    ks = [k for k, _, _ in history.records]
    assert ks == list(range(1, len(ks) + 1))


def test_custom_start_vector_changes_first_iterate_not_limit(rng):
    b = SparseMatrix.from_dense(rng.uniform(0.2, 1.0, (5, 5)))
    s1, _ = sinkhorn_knopp(b, ExactOptions(tol=1e-13))
    s2, _ = sinkhorn_knopp(b, ExactOptions(tol=1e-13), c0=np.full(5, 7.0))
    np.testing.assert_allclose(
        scale(b, s1).to_dense(), scale(b, s2).to_dense(), rtol=1e-9
    )
    with pytest.raises(ValueError):
        sinkhorn_knopp(b, c0=np.zeros(5))
    with pytest.raises(ValueError):
        sinkhorn_knopp(b, c0=np.ones(4))


def test_callback_sees_every_iteration(rng):
    b = SparseMatrix.from_dense(rng.uniform(0.2, 1.0, (4, 4)))
    seen = []
    _, history = sinkhorn_knopp(b, on_iteration=lambda k, r, c: seen.append(k))
    assert seen == [k for k, _, _ in history.records]


def _vectors(result):
    return (result.left, result.right) if isinstance(result, DiagonalScaling) else (result,)


BOTH_ITERATIONS = pytest.mark.parametrize(
    "iteration", [sinkhorn_knopp, sym_sinkhorn_knopp], ids=["two_sided", "symmetric"]
)


@BOTH_ITERATIONS
def test_result_survives_a_callback_that_writes_its_iterate(iteration):
    b = SparseMatrix.from_dense([[1.0, 2.0], [2.0, 5.0]])
    expected, history = iteration(b)
    assert history.iterations > 1

    def clobber(k, *vectors):
        for v in vectors:
            v[:] = -1.0

    got, clobbered = iteration(b, on_iteration=clobber)
    for g, e in zip(_vectors(got), _vectors(expected)):
        np.testing.assert_array_equal(g, e)
    assert clobbered.records == history.records


@BOTH_ITERATIONS
def test_an_observer_that_raises_stops_the_iteration(iteration):
    b = SparseMatrix.from_dense([[1.0, 2.0], [2.0, 5.0]])
    opts = ExactOptions(tol=1e-14)
    assert iteration(b, opts)[1].iterations > 3
    seen = []

    class Stop(Exception):
        pass

    def observe(k, *vectors):
        seen.append(k)
        if k == 3:
            raise Stop

    with pytest.raises(Stop):
        iteration(b, opts, on_iteration=observe)
    assert seen == [1, 2, 3]


@pytest.mark.parametrize(
    "iteration,message",
    [(sinkhorn_knopp, "scaling vectors degenerated"), (sym_sinkhorn_knopp, "scaling vector degenerated")],
)
def test_no_usable_iterate_raises(iteration, message):
    # An infinite entry makes every iterate non-finite or zero.
    with pytest.raises(ZeroRowOrColumn, match=message):
        iteration(SparseMatrix.from_dense([[np.inf]]))


def test_zero_row_and_column_raise():
    with pytest.raises(ZeroRowOrColumn, match="zero row"):
        sinkhorn_knopp(SparseMatrix.from_dense([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ZeroRowOrColumn, match="zero column"):
        sinkhorn_knopp(SparseMatrix.from_dense([[1.0, 0.0], [1.0, 0.0]]))


def test_negative_entries_rejected():
    b = SparseMatrix.from_dense(np.array([[1.0, -1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        sinkhorn_knopp(b)
    with pytest.raises(DimensionMismatch):
        sinkhorn_knopp(SparseMatrix.from_dense([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


def test_support_without_total_support_does_not_converge():
    # The pattern [[1, 1], [1, 0]] admits a perfect matching, but the
    # (0, 0) entry lies on none, so the alternating iteration cannot reach
    # a doubly stochastic limit. It must report failure yet still hand back
    # finite positive scaling factors.
    b = SparseMatrix.from_dense([[1.0, 1.0], [1.0, 0.0]])
    s, history = sinkhorn_knopp(b, ExactOptions(max_iters=200))
    assert not history.converged
    assert history.iterations == 200
    assert np.all(np.isfinite(s.left)) and np.all(s.left > 0)
    assert np.all(np.isfinite(s.right)) and np.all(s.right > 0)


def test_symmetric_variant_matches_two_sided(rng):
    dense = rng.uniform(0.1, 1.0, (7, 7))
    b = SparseMatrix.from_dense(dense + dense.T)
    x, history = sym_sinkhorn_knopp(b, ExactOptions(tol=1e-12))
    assert history.converged
    scaled = scale(b, DiagonalScaling.symmetric(x))
    assert _doubly_stochastic_dev(scaled) < 1e-10
    assert scaled.is_symmetric()


def test_symmetric_diag_closed_form():
    b = SparseMatrix.from_dense(np.diag([1.0, 2.0]))
    x, history = sym_sinkhorn_knopp(b, ExactOptions(tol=1e-14))
    assert history.converged
    np.testing.assert_allclose(x, [1.0, 1.0 / np.sqrt(2.0)], rtol=1e-14)


def test_sym_step_oscillates_but_pairing_cancels():
    # On B = [[4]] the reciprocal iterate bounces between 1/4 and 1 forever,
    # while the paired value sqrt(y_new * y_old) = 1/2 is exact immediately.
    b = SparseMatrix.from_dense(np.array([[4.0]]))
    y = np.ones(1)
    iterates = []
    for _ in range(6):
        y = sym_sk_step(b, y)
        iterates.append(y[0])
    assert iterates == [0.25, 1.0, 0.25, 1.0, 0.25, 1.0]
    x, history = sym_sinkhorn_knopp(b)
    assert history.converged and history.iterations == 1
    np.testing.assert_allclose(x, [0.5], rtol=1e-15)


def test_symmetric_variant_requires_symmetry():
    b = SparseMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(DimensionMismatch):
        sym_sinkhorn_knopp(b)
    with pytest.raises(ValueError):
        sym_sinkhorn_knopp(
            SparseMatrix.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]])),
            y0=np.array([1.0, -1.0]),
        )


def test_sym_step_zero_row_raises():
    b = SparseMatrix.from_dense([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ZeroRowOrColumn):
        sym_sk_step(b, np.ones(2))


def test_2norm_equilibration_of_signed_matrix(rng):
    a = SparseMatrix.from_dense(rng.standard_normal((9, 9)))
    s = equilibrate_2norm(a, ExactOptions(tol=1e-13))
    scaled = scale(a, s).to_dense()
    np.testing.assert_allclose(np.sqrt((scaled**2).sum(axis=1)), 1.0, atol=1e-6)
    np.testing.assert_allclose(np.sqrt((scaled**2).sum(axis=0)), 1.0, atol=1e-6)
    assert ratio(scale(a, s)) == pytest.approx(1.0, abs=1e-6)


def test_2norm_symmetric_input_gets_symmetric_scaling(rng):
    dense = rng.standard_normal((8, 8))
    a = SparseMatrix.from_dense(dense + dense.T)
    s = equilibrate_2norm(a)
    np.testing.assert_array_equal(s.left, s.right)
    scaled = scale(a, s)
    assert scaled.is_symmetric()
    np.testing.assert_allclose(
        np.sqrt((scaled.to_dense() ** 2).sum(axis=1)), 1.0, atol=1e-5
    )
    forced = equilibrate_2norm(a, symmetric=False)
    np.testing.assert_allclose(
        np.sqrt((scale(a, forced).to_dense() ** 2).sum(axis=1)), 1.0, atol=1e-5
    )


def test_2norm_diagonal_closed_form():
    a = SparseMatrix.from_dense(np.diag([3.0, -5.0]))
    s = equilibrate_2norm(a)
    np.testing.assert_allclose(scale(a, s).to_dense(), np.diag([1.0, -1.0]), rtol=1e-12)


def test_jacobi_unit_diagonal(rng):
    dense = rng.standard_normal((6, 6))
    a = SparseMatrix.from_dense(dense @ dense.T + 6 * np.eye(6))
    scaled = scale(a, jacobi_scale(a))
    np.testing.assert_allclose(scaled.diagonal(), 1.0, rtol=1e-14)
    assert scaled.is_symmetric()


def test_jacobi_zero_diagonal_entry_kept_at_unit_factor():
    a = SparseMatrix.from_dense([[4.0, 1.0], [1.0, 0.0]])
    scaling = jacobi_scale(a)
    scaled = scale(a, scaling)
    assert scaling.left[1] == 1.0
    np.testing.assert_allclose(scaled.diagonal(), [1.0, 0.0])


def test_jacobi_negative_diagonal_uses_magnitude():
    a = SparseMatrix.from_dense(np.diag([4.0, -9.0]))
    scaled = scale(a, jacobi_scale(a))
    np.testing.assert_allclose(scaled.diagonal(), [1.0, -1.0], rtol=1e-15)


def test_jacobi_requires_symmetric_square():
    with pytest.raises(DimensionMismatch):
        jacobi_scale(SparseMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]])))
    with pytest.raises(DimensionMismatch):
        jacobi_scale(SparseMatrix.from_dense([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]))


def test_inf_norm_single_pass_bounds(rng):
    a = random_sparse(rng, 10, 7)
    scaled = scale(a, inf_norm_scale(a)).to_dense()
    absd = np.abs(scaled)
    np.testing.assert_allclose(absd.max(axis=0), 1.0, rtol=1e-14)
    assert absd.max(axis=1).max() <= 1.0 + 1e-14
    assert absd.max(axis=1).min() > 0.0


def test_inf_norm_zero_row_or_column_raises():
    with pytest.raises(ZeroRowOrColumn):
        inf_norm_scale(SparseMatrix.from_dense([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ZeroRowOrColumn):
        inf_norm_scale(SparseMatrix.from_dense([[1.0, 0.0], [1.0, 0.0]]))
