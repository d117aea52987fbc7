"""Sparse matrix-vector products, the only way the methods touch a matrix.

Two paths compute the same products, bit for bit:

- **Scatter** (`SparseMatrix.matvec`/`rmatvec`, and operators over small
  matrices): one vectorized gather/scatter over the COO arrays. Gather
  ``x`` at one index array, multiply by the values, and sum into the other
  index array with ``np.bincount``. A matrix with no stored entries makes
  ``np.bincount`` return integer zeros, hence the (otherwise copy-free)
  cast to float64.
- **Slabs** (`from_sparse` operators over matrices that `wants_slabs`: at
  least `SLAB_FLOOR` stored entries, and no row or column long enough to
  make the slabs narrow): a jagged-diagonal layout (Saad, *Iterative
  Methods for Sparse Linear Systems*, 2nd ed., section 3.4). Rows are
  ordered by decreasing stored length, and slab k holds the k-th stored
  entry of every row longer than k. A product is one gather, one multiply
  and one vector add per slab into a prefix of the accumulator, then one
  gather back to row order. It replaces the scatter, which takes about
  half of a product at 2e5 entries.

Why the bits agree: ``np.bincount`` adds each row's terms to +0.0 in stored
order, and the slab loop adds the k-th term of every row in slab k, so each
row is summed from +0.0 in the same order. A layout costs one build per
direction of each operator (one in all when the matrix is known to be
symmetric), and holds a reordered copy of the entries, 16 bytes per stored
entry plus 8 per row, for the operator's lifetime.
"""

import threading

import numpy as np

# Operators over matrices with at least this many stored entries use slabs.
# Below it the per-slab loop and the build cost more than the scatter; see
# benchmarks/products.py and BENCH_products.json.
SLAB_FLOOR = 1 << 15
# Each slab costs a few microseconds of loop overhead, so a matrix whose
# slabs would hold fewer entries than this on average stays on the scatter.
# The longest row sets the number of slabs of M, the longest column that of
# M.T: one long row or column makes one slab per entry.
SLAB_MIN_WIDTH = 1 << 10


def wants_slabs(m):
    """Whether an operator over SparseMatrix m should multiply through `Slabs`."""
    if m.nnz < SLAB_FLOOR:
        return False
    longest = max(np.diff(m.indptr).max(), np.bincount(m.indices).max())
    return int(longest) * SLAB_MIN_WIDTH <= m.nnz


def matvec(m, x):
    """y = M @ x for a SparseMatrix m, or the Slabs of M, and a float64 vector x."""
    if isinstance(m, Slabs):
        return m.forward.product(x)
    y = np.bincount(m.rows, weights=m.data * x[m.indices], minlength=m.nrows)
    return y.astype(np.float64, copy=False)


def rmatvec(m, x):
    """y = M.T @ x for a SparseMatrix m, or the Slabs of M, and a float64 vector x."""
    if isinstance(m, Slabs):
        return m.transposed.product(x)
    y = np.bincount(m.indices, weights=m.data * x[m.rows], minlength=m.ncols)
    return y.astype(np.float64, copy=False)


class Slabs:
    """Slab layouts of a SparseMatrix M, for `matvec` and `rmatvec`.

    The layout of M is built at once, and that of M.T on the first
    `rmatvec`; when M is already known to be symmetric the two are one.
    Layouts are read-only and each product allocates its own buffers, so one
    Slabs can serve several threads at once.
    """

    __slots__ = ("_matrix", "forward", "_transposed", "_lock")

    def __init__(self, m):
        self._matrix = m
        self.forward = _Layout(m)
        self._transposed = self.forward if m._symmetric else None
        self._lock = threading.Lock()

    @property
    def transposed(self):
        if self._transposed is None:
            with self._lock:  # one build, however many threads ask at once
                if self._transposed is None:
                    self._transposed = _Layout(self._matrix.transpose())
        return self._transposed


class _Layout:
    """Jagged-diagonal layout of one SparseMatrix.

    ``index`` and ``value`` hold the stored entries slab after slab. The
    j-th entry of slab k is the k-th stored entry of the j-th longest row
    (ties in row order), so slab k covers a prefix of that order: the rows
    with more than k entries. ``inverse[i]`` is the place of row i in it,
    and ``_slabs`` pairs each slab's prefix with its range of entries.
    """

    __slots__ = ("index", "value", "inverse", "_slabs")

    def __init__(self, m):
        lengths = np.diff(m.indptr)
        order = np.argsort(-lengths, kind="stable")
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.size)
        # widths[k]: the rows with more than k entries, which slab k holds.
        widths = m.nrows - np.cumsum(np.bincount(lengths))[:-1]
        bounds = np.zeros(widths.size + 1, dtype=np.int64)
        np.cumsum(widths, out=bounds[1:])
        # Stored entry p is the (p - indptr[i])-th of its row i.
        dest = bounds[np.arange(m.nnz) - m.indptr[m.rows]] + inverse[m.rows]
        index = np.empty(m.nnz, dtype=np.int64)
        index[dest] = m.indices
        value = np.empty(m.nnz)
        value[dest] = m.data
        for a in (index, value, inverse):
            a.setflags(write=False)
        self.index, self.value, self.inverse = index, value, inverse
        self._slabs = [
            (slice(0, w), slice(b, b + w)) for b, w in zip(bounds.tolist(), widths.tolist())
        ]

    def product(self, x):
        w = x[self.index]
        np.multiply(self.value, w, out=w)
        acc = np.zeros(self.inverse.size)
        for rows, entries in self._slabs:
            acc[rows] += w[entries]
        return acc[self.inverse]
