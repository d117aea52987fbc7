"""Element-access equilibration baselines.

The alternating row/column scaling iteration drives a nonnegative square
matrix toward doubly stochastic form; the symmetric variant iterates a single
vector whose benign even/odd oscillation is resolved by pairing adjacent
iterates under a geometric mean. On top of these sit 2-norm equilibration of
signed matrices, Jacobi scaling, and one-pass infinity-norm scaling.
"""

from dataclasses import dataclass, field

import numpy as np

from equilibrate.errors import DimensionMismatch, ZeroRowOrColumn
from equilibrate.matrix import DiagonalScaling, elementwise_square


@dataclass(frozen=True)
class ExactOptions:
    """Stopping rule: max deviation of scaled row/column sums from 1."""

    tol: float = 1e-10
    max_iters: int = 10000

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class ConvergenceHistory:
    """Per-iteration (iteration, max row-sum deviation, max column-sum deviation)."""

    records: list = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self):
        return len(self.records)


def _require_square(m):
    if m.nrows != m.ncols:
        raise DimensionMismatch("equilibration requires a square matrix")


def _start(b, v0, symmetric=False):
    """Check B and the start vector of either iteration; return the start."""
    _require_square(b)
    if b.data.size and b.data.min() < 0.0:
        raise ValueError("this iteration requires a nonnegative matrix")
    if symmetric and not b.is_symmetric():
        raise DimensionMismatch("symmetric iteration requires a symmetric matrix")
    v = np.ones(b.nrows) if v0 is None else np.ascontiguousarray(v0, dtype=np.float64)
    if v.shape != (b.nrows,) or np.any(v <= 0):
        raise ValueError("starting vector must be positive of matching size")
    return v


def _run(iterates, opts, on_iteration):
    """Take (row_dev, col_dev, vectors) from ``iterates`` until opts.tol or opts.max_iters.

    Records each in the history and copies the least-deviation iterate whose
    vectors are all finite and positive before ``on_iteration(k, *vectors)``
    sees it. Returns the copied vectors and the history.
    """
    opts = opts or ExactOptions()
    history = ConvergenceHistory()
    best, best_dev = None, np.inf
    for k, (row_dev, col_dev, vectors) in zip(range(1, opts.max_iters + 1), iterates):
        history.records.append((k, row_dev, col_dev))
        dev = max(row_dev, col_dev)
        if dev < best_dev and all(np.all(np.isfinite(v)) and np.all(v > 0.0) for v in vectors):
            best, best_dev = [v.copy() for v in vectors], dev
        if on_iteration is not None:
            on_iteration(k, *vectors)
        if dev < opts.tol:
            history.converged = True
            break
    if best is None:
        noun = "scaling vectors" if len(vectors) > 1 else "scaling vector"
        raise ZeroRowOrColumn(f"{noun} degenerated before any usable iterate")
    return best, history


def _sk_iterates(b, c):
    """The alternating iteration from c: yields (row_dev, col_dev, (r, c))."""
    t = b.matvec(c)
    if np.any(t == 0.0):
        raise ZeroRowOrColumn("matrix has a zero row")
    first = True
    while True:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = 1.0 / t
            u = b.rmatvec(r)
            if first and np.any(u == 0.0):
                raise ZeroRowOrColumn("matrix has a zero column")
            c = 1.0 / u
            t = b.matvec(c)  # reused by the next iteration
            row_dev = float(np.max(np.abs(r * t - 1.0)))
            col_dev = float(np.max(np.abs(c * u - 1.0)))
        first = False
        yield row_dev, col_dev, (r, c)


def sinkhorn_knopp(b, opts=None, c0=None, on_iteration=None):
    """Alternate reciprocal row/column scaling of a nonnegative square matrix.

    Returns (DiagonalScaling, ConvergenceHistory); on convergence the scaled
    matrix R B C has all row and column sums within opts.tol of 1. If the
    budget runs out (which includes patterns whose scaling vectors diverge),
    the best iterate seen is returned with history.converged False rather
    than raising.
    """
    (r, c), history = _run(_sk_iterates(b, _start(b, c0)), opts, on_iteration)
    return DiagonalScaling(r, c), history


def sym_sk_step(b, y):
    """One reciprocal step of the symmetric iteration: y -> 1 / (B y)."""
    t = b.matvec(y)
    if np.any(t == 0.0):
        raise ZeroRowOrColumn("matrix has a zero row")
    return 1.0 / t


def _sym_iterates(b, y):
    """The symmetric iteration from y: yields (dev, dev, (x,)), x paired from two y."""
    while True:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            y_old, y = y, sym_sk_step(b, y)
            x = np.sqrt(y * y_old)
            dev = float(np.max(np.abs(x * b.matvec(x) - 1.0)))
        yield dev, dev, (x,)


def sym_sinkhorn_knopp(b, opts=None, y0=None, on_iteration=None):
    """Symmetric scaling of a symmetric nonnegative matrix.

    Only the reciprocal iterate y is advanced; each convergence check (and
    the returned vector) pairs adjacent iterates as x = sqrt(y_new * y_old),
    which cancels the even/odd oscillation of y. On convergence X B X has
    row sums within opts.tol of 1. As in `sinkhorn_knopp`, a budget that
    runs out returns the best iterate seen with history.converged False.
    """
    (x,), history = _run(_sym_iterates(b, _start(b, y0, symmetric=True)), opts, on_iteration)
    return x, history


def equilibrate_2norm(a, opts=None, symmetric=None, on_iteration=None):
    """Scale a signed square matrix to unit row and column 2-norms.

    Runs the 1-norm iteration on the elementwise square and returns the
    square roots of its scaling, so the scaled signed matrix has unit row
    and column 2-norms. ``symmetric`` forces the dispatch; by default the
    symmetric single-vector iteration is used whenever the input is
    symmetric. ``on_iteration(k, scaling)`` observes the square-rooted
    scaling of each iterate.
    """
    _require_square(a)
    if symmetric is None:
        symmetric = a.is_symmetric()
    b = elementwise_square(a)
    if symmetric:
        report = None if on_iteration is None else (
            lambda k, x: on_iteration(k, DiagonalScaling.symmetric(np.sqrt(x)))
        )
        x, _ = sym_sinkhorn_knopp(b, opts, on_iteration=report)
        return DiagonalScaling.symmetric(np.sqrt(x))
    report = None if on_iteration is None else (
        lambda k, r, c: on_iteration(k, DiagonalScaling(np.sqrt(r), np.sqrt(c)))
    )
    s, _ = sinkhorn_knopp(b, opts, on_iteration=report)
    return DiagonalScaling(np.sqrt(s.left), np.sqrt(s.right))


def jacobi_scale(a):
    """Symmetric scaling to unit-magnitude diagonal.

    The factor at index i is 1/sqrt(|a_ii|); a zero diagonal element gets
    factor exactly 1, so it stays zero in the scaled matrix.
    """
    _require_square(a)
    if not a.is_symmetric():
        raise DimensionMismatch("Jacobi scaling requires a symmetric matrix")
    diag = a.diagonal()
    safe = np.where(diag != 0.0, np.abs(diag), 1.0)
    return DiagonalScaling.symmetric(1.0 / np.sqrt(safe))


def inf_norm_scale(a):
    """One-pass infinity-norm scaling: rows to unit max-abs, then columns.

    After the row pass every entry is at most 1 in magnitude, so the column
    pass cannot push any row maximum above 1: a single sweep equilibrates
    both sides in the infinity norm.
    """
    absdata = np.abs(a.data)
    row_max = np.zeros(a.nrows)
    np.maximum.at(row_max, a.rows, absdata)
    if np.any(row_max == 0.0):
        raise ZeroRowOrColumn("matrix has a zero row")
    left = 1.0 / row_max
    col_max = np.zeros(a.ncols)
    np.maximum.at(col_max, a.indices, left[a.rows] * absdata)
    if np.any(col_max == 0.0):
        raise ZeroRowOrColumn("matrix has a zero column")
    return DiagonalScaling(left, 1.0 / col_max)
