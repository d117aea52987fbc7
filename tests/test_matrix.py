import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from equilibrate import _kernels
from equilibrate.corpus import CorpusSpec, generate
from equilibrate.errors import DimensionMismatch
from equilibrate.matrix import (
    DiagonalScaling,
    LinearOperator,
    SparseMatrix,
    elementwise_square,
    from_sparse,
    scale,
)

from conftest import random_sparse
from test_pinned import _large_matrix, _large_nonsymmetric_matrix


def _assert_same_storage(a, b):
    assert (a.nrows, a.ncols) == (b.nrows, b.ncols)
    for name in ("rows", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert getattr(a, name).dtype == np.int64
    assert a.data.dtype == b.data.dtype == np.float64
    assert a.data.tobytes() == b.data.tobytes()


def test_from_coo_sorts_and_stores_csr():
    m = SparseMatrix.from_coo(2, 3, [1, 0, 1], [2, 1, 0], [5.0, 2.0, 3.0])
    assert m.nrows == 2 and m.ncols == 3
    assert m.nnz == 3
    assert m.rows.tolist() == [0, 1, 1]
    assert m.indices.tolist() == [1, 0, 2]
    assert m.data.tolist() == [2.0, 3.0, 5.0]
    assert m.indptr.tolist() == [0, 1, 3]


def test_duplicates_are_summed():
    m = SparseMatrix.from_coo(2, 2, [0, 0, 1], [0, 0, 1], [1.5, 2.5, 1.0])
    assert m == SparseMatrix.from_dense(np.diag([4.0, 1.0]))


def test_exact_zero_sums_are_dropped():
    m = SparseMatrix.from_coo(2, 2, [0, 0, 1], [0, 0, 0], [1.0, -1.0, 2.0])
    assert m == SparseMatrix.from_dense([[0.0, 0.0], [2.0, 0.0]])
    assert m.nnz == 1
    assert m.indptr.tolist() == [0, 0, 1]


def test_explicit_zero_values_are_dropped():
    m = SparseMatrix.from_coo(3, 3, [0, 1], [0, 1], [0.0, 4.0])
    assert m.nnz == 1


def test_invalid_shapes_and_indices_raise():
    with pytest.raises(DimensionMismatch):
        SparseMatrix.from_coo(0, 3, [], [], [])
    with pytest.raises(DimensionMismatch):
        SparseMatrix.from_dense(np.zeros((2, 0)))
    with pytest.raises(DimensionMismatch):
        SparseMatrix.from_coo(2, 2, [2], [0], [1.0])
    with pytest.raises(DimensionMismatch):
        SparseMatrix.from_coo(2, 2, [0], [-1], [1.0])
    with pytest.raises(DimensionMismatch):
        SparseMatrix.from_coo(2, 2, [0], [0, 1], [1.0, 2.0])


def test_from_dense_round_trip(rng):
    a = rng.standard_normal((6, 4))
    a[rng.random((6, 4)) < 0.5] = 0.0
    m = SparseMatrix.from_dense(a)
    np.testing.assert_array_equal(m.to_dense(), a)


def test_storage_arrays_are_frozen():
    m = SparseMatrix.from_dense(np.diag([1.0, 2.0]))
    for arr in (m.data, m.indices, m.indptr, m.rows):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 9


@pytest.mark.parametrize("shape", [(5, 5), (7, 3), (3, 8), (1, 1), (20, 20)])
def test_matvec_and_rmatvec_match_dense(rng, shape):
    nrows, ncols = shape
    m = random_sparse(rng, nrows, ncols)
    dense = m.to_dense()
    for trial in range(5):
        x = rng.standard_normal(ncols)
        y = rng.standard_normal(nrows)
        if trial == 0:  # products must accept read-only inputs
            x.setflags(write=False)
            y.setflags(write=False)
        np.testing.assert_allclose(m.matvec(x), dense @ x, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(m.rmatvec(y), dense.T @ y, rtol=1e-13, atol=1e-13)


def test_matvec_shape_checks():
    m = SparseMatrix.from_dense([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        m.matvec(np.ones(2))
    with pytest.raises(DimensionMismatch):
        m.rmatvec(np.ones(3))


def test_matrix_with_empty_rows_multiplies_correctly():
    m = SparseMatrix.from_dense([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(m.matvec(np.ones(3)), [2.0, 0.0, 0.0])
    np.testing.assert_array_equal(m.rmatvec(np.ones(3)), [0.0, 2.0, 0.0])
    empty = SparseMatrix.from_dense(np.zeros((3, 2)))
    for y in (empty.matvec(np.ones(2)), empty.rmatvec(np.ones(3))):
        assert y.dtype == np.float64 and not y.any()


def test_transpose_and_symmetry(rng):
    m = random_sparse(rng, 6, 6)
    t = m.transpose()
    np.testing.assert_array_equal(t.to_dense(), m.to_dense().T)
    assert not m.is_symmetric() or np.array_equal(m.to_dense(), m.to_dense().T)

    sym_dense = m.to_dense() + m.to_dense().T
    sym = SparseMatrix.from_dense(sym_dense)
    assert sym.is_symmetric()
    assert sym.transpose() == sym


def test_diagonal_fills_missing_entries_with_zero():
    m = SparseMatrix.from_dense([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
    np.testing.assert_array_equal(m.diagonal(), [2.0, 0.0, 0.0])


def test_equality_is_structural():
    a = SparseMatrix.from_dense(np.diag([1.0, 2.0]))
    b = SparseMatrix.from_coo(2, 2, [1, 0], [1, 0], [2.0, 1.0])
    c = SparseMatrix.from_dense(np.diag([1.0, 3.0]))
    assert a == b
    assert a != c
    assert a != "not a matrix"


def test_elementwise_square_matches_dense(rng):
    m = random_sparse(rng, 8, 5)
    sq = elementwise_square(m)
    np.testing.assert_array_equal(sq.to_dense(), m.to_dense() ** 2)
    assert sq.data.min() > 0


def test_elementwise_square_drops_underflowed_entries():
    m = SparseMatrix.from_dense([[1e-200, 1.0], [1.0, 0.0]])
    sq = elementwise_square(m)
    # 1e-400 is below the smallest subnormal, so the entry must disappear
    # rather than linger as a stored zero.
    assert sq.nnz == 2
    assert sq.data.all()
    _assert_same_storage(sq, SparseMatrix.from_coo(2, 2, m.rows, m.indices, m.data * m.data))


def test_scale_matches_dense(rng):
    m = random_sparse(rng, 6, 4)
    s = DiagonalScaling(rng.uniform(0.5, 2.0, 6), rng.uniform(0.5, 2.0, 4))
    scaled = scale(m, s)
    expected = np.diag(s.left) @ m.to_dense() @ np.diag(s.right)
    np.testing.assert_allclose(scaled.to_dense(), expected, rtol=1e-15)


def test_scale_dimension_check(rng):
    m = random_sparse(rng, 6, 4)
    with pytest.raises(DimensionMismatch):
        scale(m, DiagonalScaling(np.ones(4), np.ones(4)))
    with pytest.raises(DimensionMismatch):
        scale(m, DiagonalScaling(np.ones(6), np.ones(6)))


def test_scale_drops_underflowed_entries():
    m = SparseMatrix.from_dense([[1e-300, 1.0], [0.0, 2.0]])
    s = DiagonalScaling(np.array([1e-100, 1.0]), np.array([1.0, 1.0]))
    scaled = scale(m, s)
    assert scaled.nnz == 2
    assert scaled.indptr.tolist() == [0, 1, 2]
    _assert_same_storage(scaled, SparseMatrix.from_coo(2, 2, [0, 1], [1, 1], [1e-100, 2.0]))


def _sparse_with_gaps(rng, nrows, ncols, count):
    """Random matrix whose entries avoid some rows and columns entirely."""
    live_rows = rng.choice(nrows, size=max(1, nrows // 2), replace=False)
    live_cols = rng.choice(ncols, size=max(1, ncols // 2), replace=False)
    rows = rng.choice(live_rows, size=count)
    cols = rng.choice(live_cols, size=count)
    return SparseMatrix.from_coo(nrows, ncols, rows, cols, rng.standard_normal(count))


@pytest.mark.parametrize("shape", [(7, 3), (3, 8), (1, 1), (20, 20), (6, 11)])
def test_transpose_matches_sorted_rebuild(rng, shape):
    nrows, ncols = shape
    for m in (
        random_sparse(rng, nrows, ncols),
        _sparse_with_gaps(rng, nrows, ncols, count=nrows * ncols // 3 + 1),
        SparseMatrix.from_coo(nrows, ncols, [], [], []),
    ):
        reference = SparseMatrix.from_coo(ncols, nrows, m.indices, m.rows, m.data)
        _assert_same_storage(m.transpose(), reference)
        _assert_same_storage(m.transpose().transpose(), m)


def test_from_dense_matches_sorted_rebuild(rng):
    a = rng.standard_normal((6, 9))
    a[rng.random(a.shape) < 0.4] = 0.0
    a[0, 1], a[2, 3], a[4, 0] = -0.0, 5e-324, np.nan
    a[5, 7], a[3, 8] = -2.5e-310, np.inf
    for array in (a, np.asfortranarray(a), a.T, np.asfortranarray(a).T, a[::2, 1::3]):
        rows, cols = np.nonzero(array)
        reference = SparseMatrix.from_coo(*array.shape, rows, cols, array[rows, cols])
        _assert_same_storage(SparseMatrix.from_dense(array), reference)
    assert SparseMatrix.from_dense(a).nnz == np.count_nonzero(a)


def test_scale_and_square_share_the_pattern_when_nothing_underflows(rng):
    m = random_sparse(rng, 9, 7)
    s = DiagonalScaling(rng.uniform(0.5, 2.0, 9), rng.uniform(0.5, 2.0, 7))
    for derived in (scale(m, s), elementwise_square(m)):
        assert derived.rows is m.rows
        assert derived.indices is m.indices
        assert derived.indptr is m.indptr
        assert derived.data is not m.data and not derived.data.flags.writeable
        reference = SparseMatrix.from_coo(9, 7, m.rows, m.indices, derived.data)
        _assert_same_storage(derived, reference)


def test_diagonal_scaling_validation():
    with pytest.raises(ValueError):
        DiagonalScaling(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        DiagonalScaling(np.array([1.0, -2.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        DiagonalScaling(np.array([1.0, np.inf]), np.array([1.0, 1.0]))
    with pytest.raises(DimensionMismatch):
        DiagonalScaling(np.array([[1.0]]), np.array([1.0]))
    s = DiagonalScaling.symmetric(np.array([2.0, 3.0]))
    assert s.left is s.right
    ident = DiagonalScaling.identity(3, 2)
    assert ident.left.tolist() == [1.0, 1.0, 1.0]
    assert ident.right.tolist() == [1.0, 1.0]


def test_linear_operator_wraps_and_checks(rng):
    m = random_sparse(rng, 5, 3)
    op = from_sparse(m)
    assert op.nrows == 5 and op.ncols == 3
    x = rng.standard_normal(3)
    y = rng.standard_normal(5)
    np.testing.assert_array_equal(op.apply(x), m.matvec(x))
    np.testing.assert_array_equal(op.apply_transpose(y), m.rmatvec(y))
    with pytest.raises(DimensionMismatch):
        op.apply(y)
    with pytest.raises(DimensionMismatch):
        op.apply_transpose(x)


def test_linear_operator_from_callables():
    op = LinearOperator(2, 2, lambda v: 2.0 * v, lambda v: 0.5 * v)
    np.testing.assert_array_equal(op.apply(np.array([1.0, 3.0])), [2.0, 6.0])
    np.testing.assert_array_equal(op.apply_transpose(np.array([2.0, 4.0])), [1.0, 2.0])


# Slab products. Matrices that `_kernels.wants_slabs` multiply through a
# jagged-diagonal layout; their products must equal the `np.bincount`
# scatter products bit for bit, compared as int64 views so that -0.0 and
# +0.0 differ.


@pytest.fixture
def layout_builds(monkeypatch):
    """Every `_kernels._Layout` built while the test runs, in either direction."""
    built = []

    class Recorded(_kernels._Layout):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(_kernels, "_Layout", Recorded)
    return built


def _bits(y):
    return np.ascontiguousarray(y, dtype=np.float64).view(np.int64)


def _scatter(m, x, transpose=False):
    """M @ x, or M.T @ x, on the scatter path, whichever path m takes."""
    if transpose:
        return _kernels._scatter(m.indices, m.rows, m.data, x, m.ncols)
    return _kernels._scatter(m.rows, m.indices, m.data, x, m.nrows)


def _assert_slab_products_are_scatter_products(m, rng, layout_builds, xs=()):
    assert _kernels.wants_slabs(m)
    op = from_sparse(m)
    xs = [*xs, rng.standard_normal(m.ncols), rng.standard_normal(m.ncols)]
    ys = [rng.standard_normal(m.nrows), rng.standard_normal(m.nrows)]
    for x in xs:
        np.testing.assert_array_equal(_bits(op.apply(x)), _bits(_scatter(m, x)))
        np.testing.assert_array_equal(_bits(m.matvec(x)), _bits(_scatter(m, x)))
    assert len(layout_builds) == 1
    for y in ys:
        expected = _bits(_scatter(m, y, transpose=True))
        np.testing.assert_array_equal(_bits(op.apply_transpose(y)), expected)
        np.testing.assert_array_equal(_bits(m.rmatvec(y)), expected)
    # M.T shares M's layout exactly when M is symmetric.
    assert len(layout_builds) == 1 + (not m.is_symmetric())


@pytest.mark.parametrize(
    "family, density",
    [
        ("spd", 0.003),
        ("symmetric_indefinite", 0.003),
        ("nonsymmetric_general", 0.003),
        ("reducible_blocks", 0.006),
        ("permutation_plus_noise", 0.003),
    ],
)
def test_slab_products_match_on_every_corpus_family(rng, layout_builds, family, density):
    m = generate(CorpusSpec(family, n=3500, density=density, seed=21, scale_spread=2.0))
    _assert_slab_products_are_scatter_products(m, rng, layout_builds)


def test_slab_products_match_below_2_to_the_15_entries(rng, layout_builds):
    # About ten entries per row are wide enough slabs at 3e4 entries, where
    # a size floor of 2^15 entries used to keep the scatter.
    m = generate(CorpusSpec("nonsymmetric_general", n=3000, density=10 / 3000, seed=2))
    assert m.nnz < 1 << 15
    _assert_slab_products_are_scatter_products(m, rng, layout_builds)


def test_slab_products_match_on_a_rectangular_operator(rng, layout_builds):
    m = random_sparse(rng, 2500, 4000, density=0.004)
    assert m.nrows != m.ncols
    _assert_slab_products_are_scatter_products(m, rng, layout_builds)


def test_slab_products_match_with_empty_rows_and_columns(rng, layout_builds):
    n = 12000
    rows = 2 * rng.integers(0, n // 2, size=4 * n)  # odd rows stay empty
    cols = 3 * rng.integers(0, n // 3, size=4 * n)  # so do two columns in three
    m = SparseMatrix.from_coo(n, n, rows, cols, rng.standard_normal(rows.size))
    assert not np.diff(m.indptr)[1::2].any()
    _assert_slab_products_are_scatter_products(m, rng, layout_builds)


def test_slab_products_keep_the_sign_of_zero_sums(rng, layout_builds):
    # Row 0 sums 0.5 + (-0.5) to +0.0; row 1's only term is -2.0 * 0.0 =
    # -0.0, which a sum from +0.0 turns into +0.0. The rest pads the matrix
    # above the floor.
    n = 12000
    rows = np.concatenate([[0, 0, 1], 2 + rng.integers(0, n - 2, size=3 * n)])
    cols = np.concatenate([[5, 6, 7], rng.integers(0, n, size=3 * n)])
    vals = np.concatenate([[1.0, -1.0, -2.0], rng.standard_normal(3 * n)])
    m = SparseMatrix.from_coo(n, n, rows, cols, vals)
    x = rng.standard_normal(n)
    x[5] = x[6] = 0.5
    x[7] = 0.0
    assert _bits(_scatter(m, x))[:2].tolist() == [0, 0]
    _assert_slab_products_are_scatter_products(m, rng, layout_builds, xs=[x])


def test_slab_products_match_with_one_long_row(rng, layout_builds):
    n = 40000
    rows = np.concatenate([rng.integers(0, n, size=3 * n), np.full(100, 17)])
    cols = np.concatenate([rng.integers(0, n, size=3 * n), rng.choice(n, 100, replace=False)])
    m = SparseMatrix.from_coo(n, n, rows, cols, rng.standard_normal(rows.size))
    _assert_slab_products_are_scatter_products(m, rng, layout_builds)
    slabs = sum(len(run) for _, _, run in m._slabs[0]._runs)
    assert slabs == np.diff(m.indptr).max() >= 100
    # Ten times longer, the row would cost more in slab loops than the
    # scatter costs, so the matrix keeps the scatter; so would a long
    # column, for the transposed products.
    rows = np.concatenate([rows, np.full(1000, 17)])
    cols = np.concatenate([cols, np.arange(1000)])
    longer = SparseMatrix.from_coo(n, n, rows, cols, np.ones(rows.size))
    x = rng.standard_normal(n)
    for k in (longer, longer.transpose()):
        assert not _kernels.wants_slabs(k)
        np.testing.assert_array_equal(_bits(k.matvec(x)), _bits(_scatter(k, x)))
        np.testing.assert_array_equal(_bits(k.rmatvec(x)), _bits(_scatter(k, x, True)))
        assert k._slabs == ()
    assert len(layout_builds) == 2


def test_slab_layouts_are_read_only_and_shared_only_when_symmetric(rng):
    sym = generate(CorpusSpec("symmetric_indefinite", n=3500, density=0.003, seed=3))
    nonsym = generate(CorpusSpec("nonsymmetric_general", n=3500, density=0.003, seed=4))
    assert sym.is_symmetric() and not nonsym.is_symmetric()
    for m in (sym, nonsym):
        m.rmatvec(np.ones(m.nrows))
        forward, transposed = m._slabs
        for layout in (forward, transposed):
            for a in (layout.index, layout.value, layout.inverse):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 1
        assert (transposed is forward) == (m is sym)


def test_the_product_path_is_decided_once_per_matrix(rng, monkeypatch):
    decided = []
    wants_slabs = _kernels.wants_slabs

    def counted(m):
        decided.append(m)
        return wants_slabs(m)

    monkeypatch.setattr(_kernels, "wants_slabs", counted)
    large, small = _large_nonsymmetric_matrix(), random_sparse(rng, 50, 50)
    for m in (large, small):
        x = rng.standard_normal(m.ncols)
        for op in [from_sparse(m) for _ in range(3)]:
            op.apply(x), op.apply_transpose(x)
        m.matvec(x), m.rmatvec(x)
    assert [id(m) for m in decided] == [id(large), id(small)]
    assert len(large._slabs) == 2 and small._slabs == ()


def test_a_symmetric_matrix_holds_one_layout(rng, layout_builds):
    # Symmetry is not known when _large_matrix is first multiplied; its
    # first transpose product finds it, and shares the forward layout.
    m = _large_matrix()
    assert m._symmetric is None
    op = from_sparse(m)
    x = rng.standard_normal(m.nrows)
    op.apply(x)
    np.testing.assert_array_equal(_bits(op.apply_transpose(x)), _bits(_scatter(m, x, True)))
    forward, transposed = m._slabs
    assert transposed is forward and len(layout_builds) == 1
    assert m.is_symmetric()
    # Mirrored patterns with one value changed, and a nonsymmetric matrix,
    # get a layout of their own for M.T.
    data = m.data.copy()
    data[np.flatnonzero(m.rows != m.indices)[0]] *= 2.0
    near = SparseMatrix.from_coo(m.nrows, m.ncols, m.rows, m.indices, data)
    for k in (near, _large_nonsymmetric_matrix()):
        y = rng.standard_normal(k.nrows)
        np.testing.assert_array_equal(_bits(k.rmatvec(y)), _bits(_scatter(k, y, True)))
        forward, transposed = k._slabs
        assert transposed is not forward
        assert not k.is_symmetric() and k != k.transpose()
    assert len(layout_builds) == 5


def _race(call, count=4):
    """Run ``call(name)`` on ``count`` threads with a tiny switch interval."""
    callers = [threading.Thread(target=call, args=(name,)) for name in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)


def test_slab_products_start_no_thread_and_serve_concurrent_callers(
    rng, monkeypatch, layout_builds
):
    m = random_sparse(rng, 6000, 6000, density=0.001)
    xs = rng.standard_normal((8, m.ncols))
    expected = [(_bits(_scatter(m, x)), _bits(_scatter(m, x, True))) for x in xs]
    started = []
    original_start = threading.Thread.start

    def start(self):
        started.append(self)
        original_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    op = from_sparse(m)
    op.apply(xs[0])
    assert started == [] and len(layout_builds) == 1

    # More callers than cores race to build the transposed layout on their
    # first call; it is built once, and every result is the scatter's.
    results = {}

    def call(name):
        results[name] = [(_bits(op.apply(x)), _bits(op.apply_transpose(x))) for x in xs]

    _race(call)
    assert len(started) == 4 and len(layout_builds) == 2
    for name in range(4):
        for (y, z), (ey, ez) in zip(results[name], expected):
            np.testing.assert_array_equal(y, ey)
            np.testing.assert_array_equal(z, ez)


def test_slab_layouts_are_built_once_per_matrix(rng, layout_builds):
    m = random_sparse(rng, 6000, 6000, density=0.001)
    x = rng.standard_normal(m.ncols)
    expected = _bits(_scatter(m, x)), _bits(_scatter(m, x, True))
    # Callers race to make the first operator over m and its first products.
    results = {}

    def call(name):
        op = from_sparse(m)
        results[name] = _bits(op.apply(x)), _bits(op.apply_transpose(x))

    _race(call)
    op = from_sparse(m)
    results["later"] = _bits(op.apply(x)), _bits(op.apply_transpose(x))
    assert len(layout_builds) == 2 and m._slabs == layout_builds
    for y, z in results.values():
        np.testing.assert_array_equal(y, expected[0])
        np.testing.assert_array_equal(z, expected[1])
    # Matrices derived from m share its arrays but not its layouts.
    assert scale(m, DiagonalScaling.identity(m.nrows, m.ncols))._slabs is None


@pytest.mark.parametrize("transposed", [False, True])
def test_slab_layouts_die_with_their_matrix(rng, transposed):
    # Without the cycle collector, reference counting alone must free the
    # layouts once the matrix and its operators are gone, whether or not
    # the transposed layout was built.
    m = random_sparse(rng, 6000, 6000, density=0.001)
    ops = [from_sparse(m), from_sparse(m)]
    ops[0].apply(np.ones(m.ncols))
    if transposed:
        ops[1].apply_transpose(np.ones(m.nrows))
    refs = [weakref.ref(layout.index) for layout in m._slabs if layout is not None]
    assert len(refs) == 1 + transposed
    gc.disable()
    try:
        del m, ops
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_slab_products_allocate_about_one_entry_per_row(rng):
    # A product's temporaries hold about one entry per row (the
    # accumulator, the result, and one run of slabs), not one per stored
    # entry, which would take about 1.9 MB here.
    n = 20000
    m = generate(
        CorpusSpec("nonsymmetric_general", n=n, density=6e-4, seed=9, scale_spread=2.0)
    )
    assert m.nnz >= 2e5 and _kernels.wants_slabs(m)
    op = from_sparse(m)
    x = rng.standard_normal(n)
    op.apply(x), op.apply_transpose(x)  # the layouts are built outside the count
    tracemalloc.start()
    try:
        for product in (op.apply, op.apply_transpose):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            product(x)
            assert tracemalloc.get_traced_memory()[1] - before < 4 * 8 * n
    finally:
        tracemalloc.stop()
