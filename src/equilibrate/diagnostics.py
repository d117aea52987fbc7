"""Measurements taken before and after scaling, and the algorithm table.

The headline metric is the worse of the row and column 2-norm spreads: a
perfectly equilibrated matrix scores exactly 1. Condition numbers are
computed densely and are therefore size-capped. `TABLE` says how each named
algorithm scales a matrix; batch runs and convergence histories both go
through it, and a history measures the spread after each sweep, which is
how the comparison plots in the reports are produced.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from equilibrate.errors import SizeCapExceeded, ZeroRowOrColumn
from equilibrate.exact import (
    ExactOptions,
    equilibrate_2norm,
    inf_norm_scale,
    jacobi_scale,
)
from equilibrate.matrix import DiagonalScaling, from_sparse, scale
from equilibrate.stochastic import ProbeSource, snbin, ssbin

CONDITION_SIZE_CAP = 2000


def row_norms_squared(m):
    return np.bincount(m.rows, weights=m.data * m.data, minlength=m.nrows)


def col_norms_squared(m):
    return np.bincount(m.indices, weights=m.data * m.data, minlength=m.ncols)


def ratio(m):
    """Worse of the row and column 2-norm spreads; 1 means equilibrated.

    Each spread is the largest over the smallest norm. On a bitwise
    symmetric matrix the two are the same number, since column i's squares
    are summed in the same order as row i's.
    """
    rs = row_norms_squared(m)
    if rs.min() == 0.0:
        raise ZeroRowOrColumn("matrix has a zero row")
    cs = col_norms_squared(m)
    if cs.min() == 0.0:
        raise ZeroRowOrColumn("matrix has a zero column")
    return math.sqrt(max(rs.max() / rs.min(), cs.max() / cs.min()))


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


@dataclass(frozen=True)
class Algorithm:
    """How one named algorithm scales a matrix, and what its result reads.

    ``scaling(m, budget, seed, on_iteration=None)`` returns a
    DiagonalScaling of ``m``; budgets cap iterations for every algorithm
    that reads them. ``on_iteration(k, scaling)``, when given, sees the
    scaling after each sweep or iteration; one-shot algorithms call it once
    with their result. ``symmetric_only`` algorithms take symmetric inputs
    only. ``uses_seed`` and ``uses_budget`` say whether the result can
    change with those parameters.
    """

    scaling: Callable
    symmetric_only: bool = False
    uses_seed: bool = False
    uses_budget: bool = False


def _observe(on_iteration, convert):
    """Observer passing each iterate through ``convert``, or None."""
    if on_iteration is None:
        return None
    return lambda k, v: on_iteration(k, convert(v))


def _once(scaling, on_iteration):
    if on_iteration is not None:
        on_iteration(1, scaling)
    return scaling


def _geometric_mean(s):
    """Symmetric scaling sqrt(left * right) of a two-sided one."""
    return DiagonalScaling.symmetric(np.sqrt(s.left * s.right))


def _snbin(m, budget, seed, on_iteration=None):
    return snbin(from_sparse(m), budget, ProbeSource(seed), on_iteration=on_iteration)


def _snbin_sym(m, budget, seed, on_iteration=None):
    observe = _observe(on_iteration, _geometric_mean)
    return _geometric_mean(snbin(from_sparse(m), budget, ProbeSource(seed), on_iteration=observe))


def _ssbin(m, budget, seed, on_iteration=None, no_switch=False):
    observe = _observe(on_iteration, DiagonalScaling.symmetric)
    x = ssbin(from_sparse(m), budget, ProbeSource(seed), no_switch, on_iteration=observe)
    return DiagonalScaling.symmetric(x)


def _sk_exact(m, budget, seed, on_iteration=None, symmetric=False):
    opts = ExactOptions(max_iters=budget)
    return equilibrate_2norm(m, opts, symmetric=symmetric, on_iteration=on_iteration)


# The entries call each algorithm through its module-global name, so code
# that rebinds those names (profilers, tracers) sees every call.
TABLE = {
    "snbin": Algorithm(_snbin, uses_seed=True, uses_budget=True),
    "snbin_sym": Algorithm(_snbin_sym, symmetric_only=True, uses_seed=True, uses_budget=True),
    "ssbin": Algorithm(_ssbin, symmetric_only=True, uses_seed=True, uses_budget=True),
    "ssbin_noswitch": Algorithm(
        partial(_ssbin, no_switch=True), symmetric_only=True, uses_seed=True, uses_budget=True
    ),
    "sk_exact": Algorithm(_sk_exact, uses_budget=True),
    "sym_sk_exact": Algorithm(
        partial(_sk_exact, symmetric=True), symmetric_only=True, uses_budget=True
    ),
    "jacobi": Algorithm(
        lambda m, b, s, on_iteration=None: _once(jacobi_scale(m), on_iteration),
        symmetric_only=True,
    ),
    "inf_norm": Algorithm(
        lambda m, b, s, on_iteration=None: _once(inf_norm_scale(m), on_iteration)
    ),
}


def convergence_history(a, algorithm, nmv=100, seed=0):
    """Norm-spread trajectory of one algorithm on one matrix.

    Entry 0 is log10 of the unscaled spread; entry k is the spread after
    sweep k of the algorithm, run through its `TABLE` entry with budget
    ``nmv``. Stochastic algorithms consume a fresh probe stream built from
    ``seed``. Exact algorithms stop early when they converge, so their
    series may be shorter, and one-shot algorithms give two entries. The
    ``snbin_sym`` variant symmetrizes each two-sided scaling through a
    geometric mean, which keeps a symmetric input symmetric.
    """
    alg = TABLE.get(algorithm)
    if alg is None:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if alg.symmetric_only and not a.is_symmetric():
        raise ValueError(f"{algorithm} requires a symmetric matrix")

    series = [math.log10(ratio(a))]

    def record(k, s):
        series.append(math.log10(ratio(scale(a, s))))

    alg.scaling(a, nmv, seed, on_iteration=record)
    return series
