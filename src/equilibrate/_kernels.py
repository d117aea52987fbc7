"""Sparse matrix-vector products, the only way the methods touch a matrix.

Both products are one vectorized gather/scatter over the COO arrays of a
SparseMatrix: gather ``x`` at one index array, multiply by the values, and
sum into the other index array with ``np.bincount``. A matrix with no
stored entries makes ``np.bincount`` return integer zeros, hence the
(otherwise copy-free) cast to float64.
"""

import numpy as np


def matvec(m, x):
    """y = M @ x for a SparseMatrix m and a float64 vector x."""
    y = np.bincount(m.rows, weights=m.data * x[m.indices], minlength=m.nrows)
    return y.astype(np.float64, copy=False)


def rmatvec(m, x):
    """y = M.T @ x for a SparseMatrix m and a float64 vector x."""
    y = np.bincount(m.indices, weights=m.data * x[m.rows], minlength=m.ncols)
    return y.astype(np.float64, copy=False)
