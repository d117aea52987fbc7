"""Matrix Market layer benchmark: the structure_io workload's files, one layer at a time.

Records, on the inputs that `perfbench/workloads.py`'s `StructureIO` builds
at seed `SEED`:

- for its 2e5-entry general matrix and its symmetric one (order 1e5,
  values spread over six decades), the median seconds of one
  `write_matrix_market` (``write_s``) and of one `read_matrix_market` of
  that file (``read_s``), the tracemalloc peak of one such read in MB
  (``read_peak_mb``), and the file's size (``file_mb``);
- the median seconds of `equilibrate gen` on its five corpus families
  (``gen_s``), which writes one file per family.

The result is stored with `harness.py` under ``--label`` in
``BENCH_matrix_market.json``; with ``--src``, a parent checkout is measured
alternately with this one, for example:

    python3 benchmarks/matrix_market.py --label change --src ../parent/src
"""

import sys
import tempfile
import tracemalloc
from pathlib import Path

import harness
from harness import median_s

sys.path.insert(0, str(harness.ROOT / "perfbench"))
from workloads import StructureIO, _quiet  # noqa: E402

SEED = 1701
SIZE = "full"
REPEATS = 7


def measure(eq, args):
    from equilibrate import cli

    out = {"seed": SEED, "size": SIZE, "repeats": REPEATS}
    with tempfile.TemporaryDirectory() as tmp:
        workload = StructureIO(eq, SEED, SIZE, tmp)
        workload.setup()
        for label, m, symmetric in (
            ("general", workload.general, False),
            ("symmetric", workload.symmetric, True),
        ):
            path = Path(tmp) / f"{label}.mtx"
            out[label] = {
                "nnz": m.nnz,
                "write_s": median_s(lambda: eq.write_matrix_market(m, path, symmetric), REPEATS),
                "read_s": median_s(lambda: eq.read_matrix_market(path), REPEATS),
                "read_peak_mb": _read_peak_mb(eq, path),
                "file_mb": path.stat().st_size / 1e6,
            }
            if eq.read_matrix_market(path) != m:
                raise AssertionError(f"{label}: the file does not read back as written")
        argv = ["gen", "--spec", str(workload.spec), "--out-dir", str(Path(tmp) / "gen")]
        codes = []
        out["gen_s"] = median_s(lambda: codes.append(_quiet(cli.main, argv)[0]), REPEATS)
        if set(codes) != {0}:
            raise AssertionError(f"gen exited {codes}")
    return out


def _read_peak_mb(eq, path):
    """The tracemalloc peak, in MB, of one `read_matrix_market` of ``path``."""
    tracemalloc.start()
    try:
        eq.read_matrix_market(path)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    harness.main(__file__, __doc__)
