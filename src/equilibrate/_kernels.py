"""Sparse matrix-vector products, the only way the methods touch a matrix.

`matvec` and `rmatvec` take a SparseMatrix, and its first product decides
which of two paths all its products take; both give the same bits:

- **Scatter** (matrices that do not `wants_slabs`): one vectorized
  gather/scatter over the COO arrays. Gather ``x`` at one index array,
  multiply by the values, and sum into the other index array with
  ``np.bincount``. A matrix with no stored entries makes ``np.bincount``
  return integer zeros, hence the (otherwise copy-free) cast to float64.
- **Slabs** (matrices with no row or column long enough to make the slabs
  narrower than `SLAB_MIN_WIDTH` entries on average): a jagged-diagonal layout
  (Saad, *Iterative Methods for Sparse Linear Systems*, 2nd ed., section
  3.4). Rows are ordered by decreasing stored length, and slab k holds the
  k-th stored entry of every row longer than k. A product gathers and
  multiplies a run of consecutive slabs at a time, about as many entries as
  there are rows, adds each slab of the run into a prefix of the
  accumulator, and ends with one gather back to row order. It replaces the
  scatter, which takes about half of a product at 2e5 entries, and its
  largest temporary holds about one entry per row instead of one per
  stored entry.

Why the bits agree: ``np.bincount`` adds each row's terms to +0.0 in stored
order, and the slab loop adds the k-th term of every row in slab k, so each
row is summed from +0.0 in the same order. The matrix (which is immutable)
keeps the decision in ``m._slabs``: ``()`` for the scatter, or its
``[forward, transposed]`` layouts, the transposed one built on the first
transpose product and shared with the forward one when M equals M.T. Each
layout holds a reordered copy of the entries, 16 bytes per stored entry
plus 8 per row, for as long as the matrix lives. Layouts are read-only and
each product allocates its own buffers, so one matrix can serve several
threads at once.
"""

import threading

import numpy as np

# Each slab costs a few microseconds of loop overhead, so a matrix whose
# slabs would hold fewer entries than this on average stays on the scatter.
# The longest row sets the number of slabs of M, the longest column that of
# M.T: one long row or column makes one slab per entry. With about ten
# entries per row this keeps n = 640 on the scatter and sends n = 3000 to
# the slabs; see benchmarks/products.py and BENCH_products.json.
SLAB_MIN_WIDTH = 1 << 10

# One build of each layout, however many threads ask for it at once.
_build = threading.Lock()


def wants_slabs(m):
    """Whether the products of SparseMatrix m should go through slab layouts."""
    if not m.nnz:  # no entries, and no longest row or column
        return False
    longest = max(np.diff(m.indptr).max(), np.bincount(m.indices).max())
    return int(longest) * SLAB_MIN_WIDTH <= m.nnz


def matvec(m, x):
    """y = M @ x for a SparseMatrix m and a float64 vector x."""
    slabs = _decided(m)
    if not slabs:
        return _scatter(m.rows, m.indices, m.data, x, m.nrows)
    return slabs[0].product(x)


def rmatvec(m, x):
    """y = M.T @ x for a SparseMatrix m and a float64 vector x."""
    slabs = _decided(m)
    if not slabs:
        return _scatter(m.indices, m.rows, m.data, x, m.ncols)
    if slabs[1] is None:
        with _build:
            if slabs[1] is None:
                slabs[1] = _transposed(m, slabs[0])
    return slabs[1].product(x)


def _scatter(into, gather, vals, x, size):
    y = np.bincount(into, weights=vals * x[gather], minlength=size)
    return y.astype(np.float64, copy=False)


def _decided(m):
    """m's product path, decided on its first product: ``()`` or its layouts."""
    if m._slabs is None:
        with _build:
            if m._slabs is None:
                m._slabs = (
                    [_Layout(np.diff(m.indptr), m.rows, m.indices, m.data), None]
                    if wants_slabs(m)
                    else ()
                )
    return m._slabs


def _transposed(m, forward):
    """The layout of M.T, which is ``forward`` when M equals M.T (memoized in m)."""
    if m._symmetric:
        return forward
    # M.T's row lengths and row-major order, as in `SparseMatrix.transpose`:
    # the keys are unique, so any sort orders them the same way.
    lengths = np.bincount(m.indices, minlength=m.ncols)
    order = np.argsort(m.indices * np.int64(m.nrows) + m.rows)
    if m._symmetric is None:  # what `SparseMatrix.is_symmetric` compares
        m._symmetric = np.array_equal(lengths, np.diff(m.indptr)) and all(
            np.array_equal(a[order], b)
            for a, b in ((m.indices, m.rows), (m.rows, m.indices), (m.data, m.data))
        )
        if m._symmetric:
            return forward
    return _Layout(lengths, m.indices, m.rows, m.data, order)


class _Layout:
    """Jagged-diagonal layout of one matrix.

    ``index`` and ``value`` hold the stored entries slab after slab. The
    j-th entry of slab k is the k-th stored entry of the j-th longest row
    (ties in row order), so slab k covers a prefix of that order: the rows
    with more than k entries. ``inverse[i]`` is the place of row i in it.
    A run is as many consecutive slabs as fit in one entry per row (at
    least one). ``_runs`` holds each run's ``index`` and ``value`` and its
    slabs: each pairs its prefix with its entries, counted from the start
    of its run.
    """

    __slots__ = ("index", "value", "inverse", "_runs")

    def __init__(self, lengths, rows, cols, vals, order=None):
        """Lay out entry p, ``vals[p]`` in row ``rows[p]`` and column
        ``cols[p]``, of a matrix with ``lengths[i]`` entries in row i. Taken
        in ``order`` (by default as they come), the entries must run row
        after row, each row's in stored order."""
        n = lengths.size
        longest_first = np.argsort(-lengths, kind="stable")
        inverse = np.empty_like(longest_first)
        inverse[longest_first] = np.arange(n)
        # widths[k]: the rows with more than k entries, which slab k holds.
        widths = n - np.cumsum(np.bincount(lengths))[:-1]
        bounds = np.zeros(widths.size + 1, dtype=np.int64)
        np.cumsum(widths, out=bounds[1:])
        # Entry p is the rank[p]-th of its row: its place in the order, less
        # the place of its row's first entry. The steps run in place where
        # they can, so that a build holds few nnz-sized temporaries at once.
        if order is None:
            rank = np.arange(rows.size)
        else:
            rank = np.empty_like(order)
            rank[order] = np.arange(rows.size)
        rank -= (np.cumsum(lengths) - lengths)[rows]
        dest = bounds[rank]
        del rank
        dest += inverse[rows]
        index = np.empty(rows.size, dtype=np.int64)
        index[dest] = cols
        value = np.empty(rows.size)
        value[dest] = vals
        for a in (index, value, inverse):
            a.setflags(write=False)
        self.index, self.value, self.inverse = index, value, inverse
        edges = bounds.tolist()
        self._runs = []
        first, run = 0, []  # the current run's first entry and its slabs
        for k, w in enumerate(widths.tolist()):
            run.append((slice(0, w), slice(edges[k] - first, edges[k + 1] - first)))
            if k + 2 == len(edges) or edges[k + 2] - first > n:
                entries = slice(first, edges[k + 1])
                self._runs.append((index[entries], value[entries], run))
                first, run = edges[k + 1], []

    def product(self, x):
        acc = np.zeros(self.inverse.size)
        for index, value, slabs in self._runs:
            w = x[index]
            np.multiply(value, w, out=w)
            for rows, entries in slabs:
                acc[rows] += w[entries]
        return acc[self.inverse]
