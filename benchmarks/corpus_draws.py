"""Corpus layer benchmark: the pair draw of symmetric patterns, and whole generation.

Records:

- for each (n, density) in `DRAWS`, the off-diagonal pairs a symmetric spec
  of that order and density draws (``pairs``), the median seconds of one
  `corpus._upper_pairs` of them (``draw_s``) and the tracemalloc peak of
  one such draw in MB (``draw_peak_mb``);
- for each corpus spec that the benchmark workloads in
  `perfbench/workloads.py` generate (at size `SIZE`), and for each dense
  ``cond_target`` spec in `DENSE`, every one at seed `SEED` and spread 2,
  the median seconds of one `generate` (``generate_s``) and its
  tracemalloc peak in MB (``generate_peak_mb``).

The n = 20000 rows at density 0.02, 0.021 and 0.03 straddle the count,
n(n-1)/100 pairs, above which numpy's draw without replacement shuffles an
array of all n(n-1)/2 pair numbers. The result is stored with `harness.py`
under ``--label`` in ``BENCH_corpus_draws.json``; with ``--src``, a parent
checkout is measured alternately with this one, for example:

    python3 benchmarks/corpus_draws.py --label change --src ../parent/src
"""

import sys
import tracemalloc

import numpy as np

import harness
from harness import median_s

sys.path.insert(0, str(harness.ROOT / "perfbench"))
from workloads import BatchRun, StochasticScale, StructureIO  # noqa: E402

DRAWS = (
    (20000, 5e-4),  # stochastic_scale's symmetric matrix
    (400, 1.0),  # every pair: a saturated draw
    (3000, 0.05),
    (3000, 0.3),
    (20000, 0.02),
    (20000, 0.021),
    (20000, 0.03),
)
# (family, n, density, cond_target): one QR and a symmetrization, and two
# QRs and a sparsifying sort.
DENSE = (("spd", 2000, 1.0, 1e6), ("nonsymmetric_general", 2000, 0.05, 1e6))
SIZE = "full"
SEED = 2801
REPEATS = 3


def measure(eq, args):
    from equilibrate.corpus import _upper_pairs

    out = {"seed": SEED, "size": SIZE, "repeats": REPEATS, "draws": [], "generate": []}
    for n, density in DRAWS:
        # As `corpus._sym_sparse_parts` counts them.
        pairs = max(0, int(round(density * n * n - n))) // 2
        rng = np.random.default_rng(SEED)
        out["draws"].append(
            {
                "n": n,
                "density": density,
                "pairs": pairs,
                "draw_s": median_s(lambda: _upper_pairs(rng, n, pairs), REPEATS),
                "draw_peak_mb": _peak_mb(lambda: _upper_pairs(rng, n, pairs)),
            }
        )
    for workload, family, n, density, cond in _generate_specs():
        spec = eq.CorpusSpec(
            family, n=n, density=density, cond_target=cond, seed=SEED, scale_spread=2.0
        )
        out["generate"].append(
            {
                "workload": workload,
                "spec": eq.spec_name(spec),
                "generate_s": median_s(lambda: eq.generate(spec), REPEATS),
                "generate_peak_mb": _peak_mb(lambda: eq.generate(spec)),
            }
        )
    return out


def _generate_specs():
    """(workload, family, n, density, cond_target) of each matrix the
    workloads generate, then of each `DENSE` spec (workload "dense")."""
    batch = BatchRun.SIZES[SIZE]
    yield "batch_run", "spd", *batch["spd"], None
    yield "batch_run", "nonsymmetric_general", *batch["nonsym"], None
    yield "batch_run", "symmetric_indefinite", *batch["big"], None
    for family in ("symmetric_indefinite", "nonsymmetric_general"):
        yield "stochastic_scale", family, *StochasticScale.SIZES[SIZE], None
    for family, n, density in StructureIO.FAMILIES[SIZE]:
        yield "structure_io", family, n, density, None
    for row in DENSE:
        yield "dense", *row


def _peak_mb(fn):
    """The tracemalloc peak, in MB, of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    harness.main(__file__, __doc__)
