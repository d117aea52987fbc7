"""Measurements taken before and after scaling.

The headline metric is the spread of row (and column) 2-norms: a perfectly
equilibrated matrix scores exactly 1. Condition numbers are computed densely
and are therefore size-capped. Convergence histories replay an algorithm
iteration by iteration and measure the spread after each sweep, which is how
the comparison plots in the reports are produced.
"""

import math
from dataclasses import dataclass

import numpy as np

from equilibrate.errors import SizeCapExceeded, ZeroRowOrColumn
from equilibrate.exact import (
    ExactOptions,
    sinkhorn_knopp,
    sym_sinkhorn_knopp,
)
from equilibrate.matrix import (
    DiagonalScaling,
    elementwise_square,
    from_sparse,
    scale,
)
from equilibrate.stochastic import ProbeSource, snbin, ssbin

CONDITION_SIZE_CAP = 2000

HISTORY_ALGORITHMS = (
    "ssbin",
    "ssbin_noswitch",
    "snbin",
    "snbin_sym",
    "sk_exact",
    "sym_sk_exact",
)


@dataclass(frozen=True)
class RatioMetric:
    """Norm-spread measurement; side records which norms were compared."""

    value: float
    side: str  # "rows" or "max_of_both"


def row_norms_squared(m):
    return np.bincount(m.rows, weights=m.data * m.data, minlength=m.nrows)


def col_norms_squared(m):
    return np.bincount(m.indices, weights=m.data * m.data, minlength=m.ncols)


def ratio(m, symmetric=None):
    """Largest over smallest row 2-norm; 1 means perfectly equilibrated.

    For symmetric matrices the row spread is the whole story. Otherwise the
    column spread is measured too and the larger of the two is reported.
    Pass ``symmetric`` to skip the detection when the caller already knows.
    """
    if symmetric is None:
        symmetric = m.is_symmetric()
    rs = row_norms_squared(m)
    if rs.min() == 0.0:
        raise ZeroRowOrColumn("matrix has a zero row")
    value = math.sqrt(rs.max() / rs.min())
    if symmetric:
        return RatioMetric(value, "rows")
    cs = col_norms_squared(m)
    if cs.min() == 0.0:
        raise ZeroRowOrColumn("matrix has a zero column")
    value = max(value, math.sqrt(cs.max() / cs.min()))
    return RatioMetric(value, "max_of_both")


def condition_number(m, cap=CONDITION_SIZE_CAP):
    """2-norm condition number via dense singular values.

    Densifies the matrix, so inputs beyond the cap raise SizeCapExceeded.
    Returns inf when the smallest singular value is zero or negligible
    relative to the largest. A nan or infinite entry raises ValueError.
    """
    if max(m.nrows, m.ncols) > cap:
        raise SizeCapExceeded(
            f"condition number needs a dense decomposition; size cap is {cap}"
        )
    if not np.isfinite(m.data).all():
        raise ValueError("condition number needs finite entries")
    sv = np.linalg.svd(m.to_dense(), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return math.inf
    tiny = sv[0] * max(m.nrows, m.ncols) * np.finfo(np.float64).eps
    if sv[-1] <= tiny:
        return math.inf
    return float(sv[0] / sv[-1])


def row_sum_variance(m):
    """Population variance of the row sums of the elementwise square."""
    s = row_norms_squared(m)
    return float(np.mean((s - s.mean()) ** 2))


def _sym_pair(s):
    return np.sqrt(s.left * s.right)


def convergence_history(a, algorithm, nmv=100, seed=0):
    """Norm-spread trajectory of one algorithm on one matrix.

    Entry 0 is log10 of the unscaled spread; entry k is the spread after
    sweep k of the algorithm. Stochastic algorithms consume a fresh probe
    stream built from ``seed``. Exact algorithms run with their usual
    stopping rule capped at nmv iterations, so their series may be shorter.
    The ``snbin_sym`` and ``sym_sk_exact`` variants symmetrize two-sided
    scalings through a geometric mean before applying them, which keeps a
    symmetric input symmetric.
    """
    if algorithm not in HISTORY_ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    symmetric = a.is_symmetric()
    if algorithm in ("ssbin", "ssbin_noswitch", "snbin_sym", "sym_sk_exact") and not symmetric:
        raise ValueError(f"{algorithm} requires a symmetric matrix")

    series = [math.log10(ratio(a, symmetric=symmetric).value)]

    def record(s, still_symmetric):
        scaled = scale(a, s)
        series.append(math.log10(ratio(scaled, symmetric=still_symmetric).value))

    op = from_sparse(a)
    if algorithm in ("ssbin", "ssbin_noswitch"):
        ssbin(
            op,
            nmv,
            ProbeSource(seed),
            no_switch=(algorithm == "ssbin_noswitch"),
            on_iteration=lambda k, x: record(DiagonalScaling.symmetric(x), True),
        )
    elif algorithm == "snbin":
        snbin(
            op,
            nmv,
            ProbeSource(seed),
            on_iteration=lambda k, s: record(s, False),
        )
    elif algorithm == "snbin_sym":
        snbin(
            op,
            nmv,
            ProbeSource(seed),
            on_iteration=lambda k, s: record(DiagonalScaling.symmetric(_sym_pair(s)), True),
        )
    else:
        b = elementwise_square(a)
        opts = ExactOptions(max_iters=nmv)
        if algorithm == "sym_sk_exact":
            sym_sinkhorn_knopp(
                b,
                opts,
                on_iteration=lambda k, x: record(
                    DiagonalScaling.symmetric(np.sqrt(x)), True
                ),
            )
        else:
            sinkhorn_knopp(
                b,
                opts,
                on_iteration=lambda k, r, c: record(
                    DiagonalScaling(np.sqrt(r), np.sqrt(c)), False
                ),
            )
    return series
