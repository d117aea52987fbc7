"""Product layer benchmark: operator products and slab builds at four sizes.

Records, for n in {640, 3000, 8000, 20000} on a nonsymmetric corpus matrix
with about ten entries per row:

- the median seconds of one ``apply`` and one ``apply_transpose`` of
  `from_sparse`, on whichever path the package picks (``matvec_s``,
  ``rmatvec_s``; ``slabs_chosen`` says which);
- the median seconds of a `from_sparse` call with its first ``apply``, and
  of its first ``apply_transpose`` after it, on a matrix that no operator
  has multiplied yet (``first_apply_s``, ``first_apply_transpose_s``) and
  then again through a second operator on the same matrix
  (``later_apply_s``, ``later_apply_transpose_s``): where the package keeps
  its layouts with the matrix, only the first pays for building them;
- when the package has slab layouts, both paths at every size: the
  ``np.bincount`` scatter, written out here as the package writes it
  (``scatter_*``), and products of the slab layouts (``slab_*``), plus the
  build of the forward and of the transposed layout (``build_s``,
  ``build_transposed_s``, the latter with the transpose).

With slab layouts it also records, at n = 20000, both paths on the same
matrix with one row lengthened to 50..800 entries (``long_rows``): each
entry of the longest row adds a slab, which is what the width bound guards.
``slabs_chosen`` says whether the package's products take the slabs there.

Last, with slab layouts, ``exact`` holds the median seconds of
`equilibrate_2norm` at n = 3000 and 20000 on a nonsymmetric and an spd
corpus matrix at budgets 4, 16 and 64: ``default_s`` on the path the
package picks for the squared matrix (``slabs_chosen``), and ``scatter_s``
with `_kernels.wants_slabs` answering no, where the package decides its
path through it.

The result is stored with `harness.py` under ``--label`` in
``BENCH_products.json``; with ``--src``, a parent checkout is measured
alternately with this one, for example:

    python3 benchmarks/products.py --label change --src ../parent/src
"""

import itertools
import statistics
import time

import numpy as np

import harness
from harness import ROW_FILL, SIZES, median_s

LONG_ROWS = (50, 100, 200, 400, 800)
EXACT_SIZES = (3000, 20000)
EXACT_BUDGETS = (4, 16, 64)


def _nonsymmetric(eq, n):
    return eq.generate(
        eq.CorpusSpec("nonsymmetric_general", n=n, density=ROW_FILL / n, seed=2, scale_spread=2.0)
    )


def _scatter(m, x, transpose=False):
    into, gather, size = (m.indices, m.rows, m.ncols) if transpose else (m.rows, m.indices, m.nrows)
    y = np.bincount(into, weights=m.data * x[gather], minlength=size)
    return y.astype(np.float64, copy=False)


def _layout(kernels, m):
    """The slab layout of m, built whatever path m's products take."""
    return kernels._Layout(np.diff(m.indptr), m.rows, m.indices, m.data)


def _paths(kernels, m, x, y, repeats):
    forward, transposed = _layout(kernels, m), _layout(kernels, m.transpose())
    return {
        "scatter_matvec_s": median_s(lambda: _scatter(m, x), repeats),
        "scatter_rmatvec_s": median_s(lambda: _scatter(m, y, transpose=True), repeats),
        "slab_matvec_s": median_s(lambda: forward.product(x), repeats),
        "slab_rmatvec_s": median_s(lambda: transposed.product(y), repeats),
    }


def _slabs_chosen(eq, m):
    """Whether operators over m take slabs, recorded with m by a product."""
    op = eq.from_sparse(m)
    op.apply(np.ones(m.ncols))
    op.apply_transpose(np.ones(m.nrows))
    return bool(m._slabs)


def _exact(eq, kernels, repeats):
    rows = []
    for family, n in itertools.product(("nonsymmetric_general", "spd"), EXACT_SIZES):
        m = eq.generate(
            eq.CorpusSpec(family, n=n, density=ROW_FILL / n, seed=2, scale_spread=2.0)
        )
        squared = eq.elementwise_square(m)
        squared.matvec(np.ones(n))
        for budget in EXACT_BUDGETS:
            opts = eq.ExactOptions(max_iters=budget)
            row = {"family": family, "n": n, "nnz": m.nnz, "budget": budget}
            row["slabs_chosen"] = bool(squared._slabs)
            row["default_s"] = median_s(lambda: eq.equilibrate_2norm(m, opts), repeats)
            wants_slabs = kernels.wants_slabs
            kernels.wants_slabs = lambda m: False
            try:
                row["scatter_s"] = median_s(lambda: eq.equilibrate_2norm(m, opts), repeats)
            finally:
                kernels.wants_slabs = wants_slabs
            rows.append(row)
    return rows


def _first_and_later(eq, m, x, y, repeats):
    times = {}
    identity = eq.DiagonalScaling.identity(m.nrows, m.ncols)
    for _ in range(repeats):
        fresh = eq.scale(m, identity)  # the same entries, and no layouts yet
        for when in ("first", "later"):
            start = time.perf_counter()
            op = eq.from_sparse(fresh)
            op.apply(x)
            middle = time.perf_counter()
            op.apply_transpose(y)
            end = time.perf_counter()
            times.setdefault(f"{when}_apply_s", []).append(middle - start)
            times.setdefault(f"{when}_apply_transpose_s", []).append(end - middle)
    return {k: statistics.median(v) for k, v in times.items()}


def measure(eq, args):
    from equilibrate import _kernels

    repeats = args.repeats
    slabs = hasattr(_kernels, "_Layout")
    out = {
        "repeats": repeats,
        "slab_min_width": getattr(_kernels, "SLAB_MIN_WIDTH", None),
        "sizes": [],
    }
    rng = np.random.default_rng(6)
    for n in SIZES:
        m = _nonsymmetric(eq, n)
        op = eq.from_sparse(m)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        op.apply_transpose(y)  # a lazily built layout is not timed here
        row = {
            "n": n,
            "nnz": m.nnz,
            "matvec_s": median_s(lambda: op.apply(x), repeats),
            "rmatvec_s": median_s(lambda: op.apply_transpose(y), repeats),
            "slabs_chosen": bool(m._slabs),
            **_first_and_later(eq, m, x, y, repeats // 5),
        }
        if slabs:
            row.update(_paths(_kernels, m, x, y, repeats))
            row["build_s"] = median_s(lambda: _layout(_kernels, m), repeats // 5)
            row["build_transposed_s"] = median_s(
                lambda: _layout(_kernels, m.transpose()), repeats // 5
            )
        out["sizes"].append(row)
    if slabs:
        out["long_rows"] = []
        m = _nonsymmetric(eq, SIZES[-1])
        for length in LONG_ROWS:
            cols = np.concatenate([m.indices, rng.choice(m.ncols, length, replace=False)])
            rows = np.concatenate([m.rows, np.zeros(length, dtype=np.int64)])
            vals = np.concatenate([m.data, np.ones(length)])
            longer = eq.SparseMatrix.from_coo(m.nrows, m.ncols, rows, cols, vals)
            x = rng.standard_normal(m.ncols)
            out["long_rows"].append(
                {
                    "longest_row": int(np.diff(longer.indptr).max()),
                    "nnz": longer.nnz,
                    "slabs_chosen": _slabs_chosen(eq, longer),
                    **_paths(_kernels, longer, x, x, repeats),
                }
            )
        out["exact"] = _exact(eq, _kernels, max(3, repeats // 10))
    return out


if __name__ == "__main__":
    harness.main(__file__, __doc__, lambda p: p.add_argument("--repeats", type=int, default=51))
