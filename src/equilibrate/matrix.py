"""Sparse matrices, diagonal scalings, and the matrix-free operator type.

`SparseMatrix` is an explicit matrix used by the exact algorithms, structure
checks, and diagnostics; it stores row-major sorted COO arrays (row index,
column index, value) plus CSR row pointers. `LinearOperator` is the
product-only view of a matrix: the stochastic algorithms accept nothing
else, so they cannot read elements even by accident.
"""

from dataclasses import dataclass

import numpy as np

from equilibrate import _kernels
from equilibrate.errors import DimensionMismatch


def _freeze(a):
    a.setflags(write=False)
    return a


def _check_shape(nrows, ncols):
    if nrows <= 0 or ncols <= 0:
        raise DimensionMismatch("matrix dimensions must be positive")
    if nrows * ncols >= 2**63:  # int64 keys row * ncols + col would wrap
        raise DimensionMismatch("matrix has 2**63 positions or more")


class SparseMatrix:
    """Immutable sparse matrix in canonical form.

    Stored arrays are row-major sorted with unique keys, int64 indices, and
    float64 values, shared read-only; no stored value is zero. `from_coo`
    accepts entries in any order and sums duplicate (row, col) pairs
    (Matrix Market convention); derived matrices are stored without
    re-sorting. Since nothing can change a matrix, the answer of
    `is_symmetric` is memoized (``_symmetric``, set only in this module), and
    so is the product path that `_kernels` picks on the first product, with
    the slab layouts of a large matrix (``_slabs``). The layout for M.T
    products is M's own when M equals M.T, else that of `transpose`; the one
    transpose that decides which also answers `is_symmetric`.
    """

    __slots__ = ("nrows", "ncols", "indptr", "indices", "data", "rows", "_symmetric", "_slabs")

    @classmethod
    def from_coo(cls, nrows, ncols, rows, cols, vals):
        """Build from parallel coordinate arrays in any order (duplicates summed)."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        _check_shape(nrows, ncols)  # before the int64 keys below
        if not (rows.size == cols.size == vals.size):
            raise DimensionMismatch("coordinate arrays must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows:
                raise DimensionMismatch("row index out of range")
            if cols.min() < 0 or cols.max() >= ncols:
                raise DimensionMismatch("column index out of range")
            # One stable sort: duplicates end up adjacent, in input order,
            # and are summed as `np.add.reduceat` sums each run.
            key = rows * np.int64(ncols) + cols
            del rows, cols
            order = np.argsort(key, kind="stable")
            key, vals = key[order], vals[order]
            del order
            first = np.ones(key.size, dtype=bool)
            np.not_equal(key[1:], key[:-1], out=first[1:])
            if not first.all():
                start = np.flatnonzero(first)
                key, vals = key[start], np.add.reduceat(vals, start)
            rows, cols = np.divmod(key, ncols)
        return cls.__new__(cls)._set(nrows, ncols, rows, cols, vals)

    @classmethod
    def from_dense(cls, array):
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise DimensionMismatch("dense input must be 2-D")
        rows, cols = np.nonzero(array)  # row-major, whatever the memory order
        return cls.__new__(cls)._set(*array.shape, rows, cols, array[rows, cols])

    def _set(self, nrows, ncols, rows, cols, vals, indptr=None, symmetric=None):
        """Store row-major sorted, unique coordinates, dropping zero values.

        ``indptr`` must match ``rows`` when given; it is recomputed only if a
        value is dropped, so a caller passing another matrix's pattern
        shares its arrays. ``symmetric`` presets the `is_symmetric` answer.
        """
        _check_shape(nrows, ncols)
        keep = vals != 0.0
        if not keep.all():
            rows, cols, vals, indptr = rows[keep], cols[keep], vals[keep], None
        if indptr is None:
            indptr = np.zeros(nrows + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.rows = _freeze(np.ascontiguousarray(rows, dtype=np.int64))
        self.indices = _freeze(np.ascontiguousarray(cols, dtype=np.int64))
        self.data = _freeze(np.ascontiguousarray(vals, dtype=np.float64))
        self.indptr = _freeze(indptr)
        self._symmetric = symmetric
        self._slabs = None
        return self

    @property
    def nnz(self):
        return self.data.size

    def matvec(self, x):
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise DimensionMismatch(f"expected vector of length {self.ncols}")
        return _kernels.matvec(self, x)

    def rmatvec(self, x):
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.nrows,):
            raise DimensionMismatch(f"expected vector of length {self.nrows}")
        return _kernels.rmatvec(self, x)

    def to_dense(self):
        out = np.zeros((self.nrows, self.ncols))
        out[self.rows, self.indices] = self.data
        return out

    def diagonal(self):
        """Main diagonal as a dense vector (zeros where no entry is stored)."""
        out = np.zeros(min(self.nrows, self.ncols))
        on_diag = self.rows == self.indices
        out[self.rows[on_diag]] = self.data[on_diag]
        return out

    def transpose(self):
        # Transposed keys are unique, so any sort orders them the same way.
        order = np.argsort(self.indices * np.int64(self.nrows) + self.rows)
        return SparseMatrix.__new__(SparseMatrix)._set(
            self.ncols, self.nrows, self.indices[order], self.rows[order], self.data[order]
        )

    def is_symmetric(self):
        """Exact symmetry of both pattern and values.

        Unequal row and column lengths answer False without a transpose.
        """
        if self._symmetric is None:
            self._symmetric = (
                self.nrows == self.ncols
                and np.array_equal(
                    np.diff(self.indptr), np.bincount(self.indices, minlength=self.ncols)
                )
                and self._distinct_transpose() is None
            )
        return self._symmetric

    def _distinct_transpose(self):
        """M.T, or None when M equals it; `is_symmetric` is memoized either way."""
        if self._symmetric:
            return None
        t = self.transpose()
        if self._symmetric is None:
            self._symmetric = self == t
        return None if self._symmetric else t

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    __hash__ = None

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


@dataclass(frozen=True)
class DiagonalScaling:
    """Left/right positive diagonal scaling vectors (equal for symmetric use)."""

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        left = _freeze(np.ascontiguousarray(self.left, dtype=np.float64))
        right = _freeze(np.ascontiguousarray(self.right, dtype=np.float64))
        for name, v in (("left", left), ("right", right)):
            if v.ndim != 1:
                raise DimensionMismatch(f"{name} scaling must be a vector")
            if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
                raise ValueError(f"{name} scaling must be strictly positive and finite")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @classmethod
    def symmetric(cls, x):
        x = np.ascontiguousarray(x, dtype=np.float64)
        return cls(x, x)

    @classmethod
    def identity(cls, nrows, ncols=None):
        return cls(np.ones(nrows), np.ones(nrows if ncols is None else ncols))


class LinearOperator:
    """A matrix exposed only through y = A x and y = A^T x.

    `apply` and `apply_transpose` wrap the supplied callables with shape
    checks; the callables themselves must be deterministic and, for the
    adjoint pair to be consistent, satisfy u.(A v) == (A^T u).v up to
    roundoff. Instances hold no element data and are safe to share across
    threads as long as the callables are.
    """

    __slots__ = ("nrows", "ncols", "_apply", "_apply_transpose")

    def __init__(self, nrows, ncols, apply, apply_transpose):
        if nrows <= 0 or ncols <= 0:
            raise DimensionMismatch("operator dimensions must be positive")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self._apply = apply
        self._apply_transpose = apply_transpose

    def apply(self, x):
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise DimensionMismatch(f"expected vector of length {self.ncols}")
        y = np.asarray(self._apply(x), dtype=np.float64)
        if y.shape != (self.nrows,):
            raise DimensionMismatch("apply callback returned a wrong-sized vector")
        return y

    def apply_transpose(self, x):
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.nrows,):
            raise DimensionMismatch(f"expected vector of length {self.nrows}")
        y = np.asarray(self._apply_transpose(x), dtype=np.float64)
        if y.shape != (self.ncols,):
            raise DimensionMismatch("apply_transpose callback returned a wrong-sized vector")
        return y

    def __repr__(self):
        return f"LinearOperator({self.nrows}x{self.ncols})"


def from_sparse(m):
    """Product-only operator backed by an explicit sparse matrix.

    It multiplies through `SparseMatrix.matvec` and `rmatvec`, so it shares
    the product path that m takes, and the slab layouts of a large m, with
    every other operator over m.
    """
    return LinearOperator(m.nrows, m.ncols, m.matvec, m.rmatvec)


def elementwise_square(m):
    """Entrywise square, preserving the sparsity pattern (underflows dropped).

    Squaring keeps mirrored entries equal, so a symmetric input's square is
    known symmetric; a nonsymmetric input's square may still be symmetric
    (entries differing only in sign), so that answer stays open.
    """
    return SparseMatrix.__new__(SparseMatrix)._set(
        m.nrows, m.ncols, m.rows, m.indices, m.data * m.data, m.indptr, m._symmetric or None
    )


def scale(m, s):
    """Diagonally scaled copy: entry (i, j) becomes left[i] * m[i, j] * right[j].

    Positive factors can still underflow an entry to zero; it is dropped.
    """
    if s.left.shape != (m.nrows,) or s.right.shape != (m.ncols,):
        raise DimensionMismatch("scaling vectors do not conform to the matrix")
    # Group the two diagonal factors so a symmetric scaling of a symmetric
    # matrix stays bitwise symmetric: v * (l_i * r_j) mirrors exactly,
    # (v * l_i) * r_j does not.
    data = m.data * (s.left[m.rows] * s.right[m.indices])
    return SparseMatrix.__new__(SparseMatrix)._set(
        m.nrows, m.ncols, m.rows, m.indices, data, m.indptr
    )
