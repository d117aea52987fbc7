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
  entry of every row longer than k. A product gathers and multiplies a
  run of consecutive slabs at a time, about as many entries as there are
  rows, adds each slab of the run into a prefix of the accumulator, and
  ends with one gather back to row order. It replaces the scatter, which
  takes about half of a product at 2e5 entries, and its largest temporary
  holds about one entry per row instead of one per stored entry.

Why the bits agree: ``np.bincount`` adds each row's terms to +0.0 in stored
order, and the slab loop adds the k-th term of every row in slab k, so each
row is summed from +0.0 in the same order. The layouts of a matrix are
built once, by `slabs`, and kept with the matrix (which is immutable): one
per direction, or one in all when the matrix is known to be symmetric. Each
holds a reordered copy of the entries, 16 bytes per stored entry plus 8
per row, for as long as the matrix lives.
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

# One build of each layout, however many threads ask for it at once.
_build = threading.Lock()


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


def slabs(m):
    """The `Slabs` of SparseMatrix m, built on the first call and kept with m."""
    if m._slabs is None:
        with _build:
            if m._slabs is None:
                m._slabs = Slabs(m)
    return m._slabs


class Slabs:
    """Slab layouts of a SparseMatrix M, for `matvec` and `rmatvec`.

    The layout of M is built at once, and that of M.T on the first
    `rmatvec`; when M is already known to be symmetric the two are one.
    Layouts are read-only and each product allocates its own buffers, so one
    Slabs can serve several threads at once. A Slabs holds M's entry arrays
    until it has built M.T's layout, but not M itself, so the Slabs that
    `slabs` keeps with M dies with M.
    """

    __slots__ = ("forward", "_transposed", "_entries")

    def __init__(self, m):
        self.forward = _Layout(np.diff(m.indptr), m.rows, m.indices, m.data)
        self._transposed = self.forward if m._symmetric else None
        self._entries = None if m._symmetric else (m.nrows, m.ncols, m.rows, m.indices, m.data)

    @property
    def transposed(self):
        if self._transposed is None:
            with _build:
                if self._transposed is None:
                    nrows, ncols, rows, cols, vals = self._entries
                    # M.T's row-major order, as in `SparseMatrix.transpose`:
                    # the keys are unique, so any sort orders them the same way.
                    order = np.argsort(cols * np.int64(nrows) + rows)
                    lengths = np.bincount(cols, minlength=ncols)
                    self._transposed = _Layout(lengths, cols, rows, vals, order)
                    self._entries = None
        return self._transposed


class _Layout:
    """Jagged-diagonal layout of one matrix.

    ``index`` and ``value`` hold the stored entries slab after slab. The
    j-th entry of slab k is the k-th stored entry of the j-th longest row
    (ties in row order), so slab k covers a prefix of that order: the rows
    with more than k entries. ``inverse[i]`` is the place of row i in it.
    A run is as many consecutive slabs as fit in one entry per row (at
    least one). ``_runs`` holds each run's ``index`` and ``value`` and its
    slabs, and ``_slabs`` all slabs in order: each pairs its prefix with
    its entries, counted from the start of its run.
    """

    __slots__ = ("index", "value", "inverse", "_slabs", "_runs")

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
        self._slabs, self._runs = [], []
        first, run = 0, []  # the current run's first entry and its slabs
        for k, w in enumerate(widths.tolist()):
            run.append((slice(0, w), slice(edges[k] - first, edges[k + 1] - first)))
            if k + 2 == len(edges) or edges[k + 2] - first > n:
                entries = slice(first, edges[k + 1])
                self._runs.append((index[entries], value[entries], run))
                self._slabs += run
                first, run = edges[k + 1], []

    def product(self, x):
        acc = np.zeros(self.inverse.size)
        for index, value, slabs in self._runs:
            w = x[index]
            np.multiply(value, w, out=w)
            for rows, entries in slabs:
                acc[rows] += w[entries]
        return acc[self.inverse]
