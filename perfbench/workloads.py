"""The three benchmark workloads.

Each workload derives all of its inputs from the workload seed in `setup`,
which writes them under the run's temporary directory, so the package only
ever sees generated files and values. `run_round(k)` performs one round of
user-visible operations and returns an `Op` per timed operation, already
checked for correctness; `finish()` adds the checks that need every round.

Operations are timed beside pieces of reference work (see `reference.py`),
run before them in even rounds and after them in odd ones; `Op.ref` carries
the reference's seconds.

Why these three:

- `batch_run` is `equilibrate run` on a seeded config. Dense SVDs in
  `diagnostics.condition_number` dominate it, so it exercises the cli,
  diagnostics and exact layers and only lightly the products.
- `stochastic_scale` is `ssbin`/`snbin` at 128 products on n = 20k
  matrices. Products, probe draws and blend arithmetic do the work; there is
  no SVD, structure check or file I/O, so it bypasses those layers.
- `structure_io` is `equilibrate gen` and `check` on small corpus families
  (small enough that total support is verified) plus a Matrix Market write
  and read-back of about 2e5 nonzeros per matrix. Structure predicates and
  Matrix Market parsing and formatting do the work; `stochastic_scale`
  never calls them.

Sizes are fixed per `size` ("full" for measurements, "tiny" for the smoke
check) so that every seed asks for the same amount of work.
"""

import contextlib
import csv
import io
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference


@dataclass
class Op:
    """One timed operation and whether its output was correct."""

    kind: str
    seconds: float
    ok: bool
    note: str = ""
    ref: float = 0.0


@dataclass
class Named:
    """A workload-specific figure shown in the table, with its samples."""

    values: list
    unit: str
    better: str

    def median(self):
        return statistics.median(self.values) if self.values else float("nan")


def derived_seeds(seed, tag, count):
    """Independent nonnegative seeds for one workload, fixed by ``seed``."""
    state = np.random.SeedSequence([seed, tag]).generate_state(count)
    return [int(s) % 2**31 for s in state]


def _quiet(fn, *args):
    """Call ``fn`` with stdout captured; returns (result, captured text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _paired(k, fn, ref_fn):
    """Time ``fn`` and ``ref_fn`` back to back, the reference first in even
    rounds; returns (result of fn, its seconds, the reference's seconds)."""
    if k % 2:
        result, seconds = _timed(fn)
        _, ref_seconds = _timed(ref_fn)
    else:
        _, ref_seconds = _timed(ref_fn)
        result, seconds = _timed(fn)
    return result, seconds, ref_seconds


def _row_ratio(rows, cols, data, n):
    norms = np.bincount(rows, weights=data * data, minlength=n)
    return float(np.sqrt(norms.max() / norms.min())) if norms.min() > 0 else float("inf")


def scaled_ratio(m, left, right, symmetric):
    """Row (and column) norm spread of diag(left) m diag(right).

    Computed here from the stored arrays rather than by the package's own
    `ratio`, so the check does not trust the code it checks.
    """
    data = m.data * (left[m.rows] * right[m.indices])
    value = _row_ratio(m.rows, m.indices, data, m.nrows)
    if not symmetric:
        value = max(value, _row_ratio(m.indices, m.rows, data, m.ncols))
    return value


def _positive_finite(*vectors):
    return all(np.all(np.isfinite(v)) and np.all(v > 0.0) for v in vectors)


class BatchRun:
    """`equilibrate run` through `cli.main` on a config written from the seed."""

    name = "batch_run"
    min_rounds = 2  # two reports are needed for the repeatability check
    SIZES = {
        "full": dict(spd=(400, 0.015), nonsym=(640, 0.01), big=(3000, 2e-3), cond_cap=2000),
        "tiny": dict(spd=(40, 0.1), nonsym=(60, 0.05), big=(240, 0.02), cond_cap=200),
    }
    ALGORITHMS = ("snbin", "ssbin", "sk_exact", "sym_sk_exact", "jacobi", "inf_norm")
    # ssbin, sym_sk_exact and jacobi need a symmetric input.
    NONSYMMETRIC_ALGORITHMS = 3
    BUDGETS = (32, 64, 128)
    SEEDS = 3
    REFERENCE_REPEATS = 8

    def __init__(self, eq, seed, size, tmp):
        self.eq = eq
        self.size = self.SIZES[size]
        self.seeds = derived_seeds(seed, 1, 3)
        self.tmp = Path(tmp)
        self.config = self.tmp / "batch.cfg"
        cells = len(self.BUDGETS) * self.SEEDS
        # spd and the .mtx input are symmetric, the corpus nonsym one is not.
        self.expected_rows = cells * (2 * len(self.ALGORITHMS) + self.NONSYMMETRIC_ALGORITHMS)
        self.first_report = None
        self.batch_s = []
        self.cond_reduction = []
        self.ratio_after = []

    def setup(self):
        eq = self.eq
        spd_s, nonsym_s, big_s = self.seeds
        big_n, big_density = self.size["big"]
        big = eq.generate(
            eq.CorpusSpec(
                "symmetric_indefinite", n=big_n, density=big_density, seed=big_s, scale_spread=2.0
            )
        )
        big_path = self.tmp / "symmetric_big.mtx"
        eq.write_matrix_market(big, big_path, symmetric=True)
        spd_n, spd_density = self.size["spd"]
        nonsym_n, nonsym_density = self.size["nonsym"]
        # The corpus inputs again, for the reference work only: the run
        # generates its own from the config.
        spd = eq.generate(eq.CorpusSpec("spd", n=spd_n, density=spd_density, seed=spd_s, scale_spread=2.0))
        nonsym = eq.generate(
            eq.CorpusSpec(
                "nonsymmetric_general", n=nonsym_n, density=nonsym_density, seed=nonsym_s, scale_spread=2.0
            )
        )
        self.reference_inputs = (spd, nonsym, big, spd.to_dense(), nonsym.to_dense())
        self.config.write_text(
            f"corpus = family=spd n={spd_n} density={spd_density} seed={spd_s} scale_spread=2\n"
            f"corpus = family=nonsymmetric_general n={nonsym_n} density={nonsym_density} "
            f"seed={nonsym_s} scale_spread=2\n"
            f"matrix = {big_path}\n"
            f"algorithms = {','.join(self.ALGORITHMS)}\n"
            f"budgets = {','.join(str(b) for b in self.BUDGETS)}\n"
            f"seeds_per_run = {self.SEEDS}\n"
            f"cond_cap = {self.size['cond_cap']}\n"
            "format = csv\n",
            encoding="utf-8",
        )

    def _reference(self):
        """Dense singular values and stochastic sweeps, the run's main work."""
        spd, nonsym, big, spd_dense, nonsym_dense = self.reference_inputs
        for _ in range(self.REFERENCE_REPEATS):
            reference.singular_values(spd_dense)
            reference.singular_values(nonsym_dense)
            reference.ssbin(spd, 128, 0)
            reference.ssbin(big, 128, 0)
            reference.snbin(nonsym, 128, 0)

    def run_round(self, k):
        out = self.tmp / f"report-{k}.csv"
        argv = ["run", "--config", str(self.config), "--out", str(out)]
        (rc, _), seconds, ref_seconds = _paired(
            k, lambda: _quiet(self.eq.cli.main, argv), self._reference
        )
        self.batch_s.append(seconds)
        return [Op("run", seconds, *self._check(rc, out), ref=ref_seconds)]

    def _check(self, rc, out):
        if rc != 0:
            return False, f"run exited with {rc}"
        with open(out, newline="", encoding="ascii") as fh:
            table = list(csv.reader(fh))
        header, rows = table[0], table[1:]
        if len(rows) != self.expected_rows:
            return False, f"{len(rows)} rows, expected {self.expected_rows}"
        col = {name: i for i, name in enumerate(header)}
        if any(r[col["status"]] != "ok" for r in rows):
            return False, "a cell failed"
        # Everything but wall_time is a pure function of the config.
        stripped = [r[: col["wall_time"]] + r[col["wall_time"] + 1 :] for r in rows]
        if self.first_report is None:
            self.first_report = stripped
            for r in rows:
                self.ratio_after.append(float(r[col["ratio_after"]]))
                before, after = r[col["cond_before"]], r[col["cond_after"]]
                if before and after and float(before) < np.inf and float(after) < np.inf:
                    self.cond_reduction.append(float(after) / float(before))
        elif stripped != self.first_report:
            return False, "report differs from the first repetition"
        return True, ""

    def finish(self):
        return []

    def named(self):
        return {
            "batch_s": Named(self.batch_s, "s", "lower"),
            "cond_reduction_p50": Named(self.cond_reduction, "ratio", "lower"),
            "ratio_after_p50": Named(self.ratio_after, "ratio", "lower"),
        }


class StochasticScale:
    """`ssbin` and `snbin` through `from_sparse` at 128 products."""

    name = "stochastic_scale"
    # The quality figure comes from the first rounds only, so that it is the
    # same for every run with one seed however many rounds fit in the time.
    min_rounds = 5
    SIZES = {"full": (20000, 5e-4), "tiny": (2000, 5e-3)}
    NMV = 128
    BAND = (1.5, 6.0)  # the paper's range of scaled ratios at ~100 products

    def __init__(self, eq, seed, size, tmp):
        self.eq = eq
        self.n, self.density = self.SIZES[size]
        self.seeds = derived_seeds(seed, 2, 3)
        self.ssbin_ms = []
        self.snbin_ms = []
        self.ratio_after = []

    def setup(self):
        eq = self.eq
        sym_s, nonsym_s, _ = self.seeds
        self.sym = eq.generate(
            eq.CorpusSpec(
                "symmetric_indefinite", n=self.n, density=self.density, seed=sym_s, scale_spread=2.0
            )
        )
        self.nonsym = eq.generate(
            eq.CorpusSpec(
                "nonsymmetric_general", n=self.n, density=self.density, seed=nonsym_s, scale_spread=2.0
            )
        )

    def run_round(self, k):
        eq = self.eq
        nmv = self.NMV
        probe_seed = self.seeds[2] + 2 * k
        x, seconds, ref_seconds = _paired(
            k,
            lambda: eq.ssbin(eq.from_sparse(self.sym), nmv, eq.ProbeSource(probe_seed)),
            lambda: reference.ssbin(self.sym, nmv, probe_seed),
        )
        self.ssbin_ms.append(seconds * 1e3)
        ops = [self._check("ssbin", seconds, ref_seconds, self.sym, x, x, True)]
        s, seconds, ref_seconds = _paired(
            k,
            lambda: eq.snbin(eq.from_sparse(self.nonsym), nmv, eq.ProbeSource(probe_seed + 1)),
            lambda: reference.snbin(self.nonsym, nmv, probe_seed + 1),
        )
        self.snbin_ms.append(seconds * 1e3)
        ops.append(self._check("snbin", seconds, ref_seconds, self.nonsym, s.left, s.right, False))
        return ops

    def _check(self, kind, seconds, ref_seconds, m, left, right, symmetric):
        if not _positive_finite(left, right):
            return Op(kind, seconds, False, "scaling not positive and finite", ref_seconds)
        if len(self.ratio_after) < 2 * self.min_rounds:
            self.ratio_after.append(scaled_ratio(m, left, right, symmetric))
        return Op(kind, seconds, True, ref=ref_seconds)

    def finish(self):
        low, high = self.BAND
        p50 = statistics.median(self.ratio_after) if self.ratio_after else float("nan")
        ok = low <= p50 <= high
        return [Op("ratio_band", 0.0, ok, "" if ok else f"ratio_after_p50 {p50:.3g}")]

    def named(self):
        return {
            "ssbin_ms_p50": Named(self.ssbin_ms, "ms", "lower"),
            "snbin_ms_p50": Named(self.snbin_ms, "ms", "lower"),
            "ratio_after_p50": Named(self.ratio_after, "ratio", "lower"),
        }


class StructureIO:
    """`gen` and `check` through `cli.main`, and a Matrix Market round trip."""

    name = "structure_io"
    min_rounds = 1
    # (family, n, density): n <= 600 and nnz <= 20000, so `gen` verifies
    # total support for each of them.
    FAMILIES = {
        "full": (
            ("spd", 400, 0.02),
            ("symmetric_indefinite", 300, 0.03),
            ("nonsymmetric_general", 500, 0.01),
            ("reducible_blocks", 200, 0.05),
            ("permutation_plus_noise", 600, 0.008),
        ),
        "tiny": (
            ("spd", 40, 0.1),
            ("symmetric_indefinite", 30, 0.2),
            ("nonsymmetric_general", 50, 0.1),
            ("reducible_blocks", 20, 0.3),
            ("permutation_plus_noise", 60, 0.05),
        ),
    }
    MM = {"full": (100000, 200000), "tiny": (1000, 5000)}  # (n, nnz)

    def __init__(self, eq, seed, size, tmp):
        self.eq = eq
        self.families = self.FAMILIES[size]
        self.mm_n, self.mm_nnz = self.MM[size]
        self.seed = seed
        self.tmp = Path(tmp)
        self.spec = self.tmp / "corpus.spec"
        self.gen_dir = self.tmp / "gen"
        self.gen_s = []
        self.check_ms = []
        self.write_mb_s = []
        self.read_mb_s = []

    def setup(self):
        seeds = derived_seeds(self.seed, 3, len(self.families) + 1)
        self.spec.write_text(
            "".join(
                f"family={family} n={n} density={density} seed={s} scale_spread=2\n"
                for (family, n, density), s in zip(self.families, seeds)
            ),
            encoding="utf-8",
        )
        rng = np.random.default_rng(seeds[-1])
        n, nnz = self.mm_n, self.mm_nnz
        values = rng.standard_normal(nnz) * 10.0 ** rng.uniform(-3, 3, nnz)
        rows = rng.integers(0, n, nnz)
        cols = rng.integers(0, n, nnz)
        self.general = self.eq.SparseMatrix.from_coo(n, n, rows, cols, values)
        # Mirror half as many entries to get a symmetric matrix of about
        # the same size; the diagonal is not mirrored.
        half = nnz // 2
        i, j, v = rows[:half], cols[:half], values[:half]
        off = i != j
        self.symmetric = self.eq.SparseMatrix.from_coo(
            n, n, np.concatenate([i, j[off]]), np.concatenate([j, i[off]]), np.concatenate([v, v[off]])
        )

    def _graph_reference(self):
        for m in (self.general, self.symmetric):
            reference.reachable(m)

    def run_round(self, k):
        ops, _, ref_seconds = _paired(k, self._gen_and_check, self._graph_reference)
        # The reference covers gen and every check; its time rides on gen.
        ops[0].ref = ref_seconds
        for label, m, symmetric in (
            ("general", self.general, False),
            ("symmetric", self.symmetric, True),
        ):
            ops.extend(self._round_trip(k, label, m, symmetric))
        return ops

    def _gen_and_check(self):
        cli = self.eq.cli
        for old in self.gen_dir.glob("*.mtx"):
            old.unlink()
        (rc, _), seconds = _timed(
            _quiet, cli.main, ["gen", "--spec", str(self.spec), "--out-dir", str(self.gen_dir)]
        )
        self.gen_s.append(seconds)
        files = sorted(self.gen_dir.glob("*.mtx"))
        ok = rc == 0 and len(files) == len(self.families)
        ops = [Op("gen", seconds, ok, "" if ok else f"gen exited {rc}, {len(files)} files")]
        for path in files:
            (rc, text), seconds = _timed(_quiet, cli.main, ["check", "--matrix", str(path)])
            self.check_ms.append(seconds * 1e3)
            family = next(f for f, _, _ in self.families if path.name.startswith(f))
            ops.append(Op(f"check:{family}", seconds, *self._check_flags(path.name, rc, text)))
        return ops

    def _check_flags(self, filename, rc, text):
        if rc != 0:
            return False, f"check {filename} exited {rc}"
        flags = {}
        for line in text.splitlines():
            key, sep, value = line.partition(": ")
            if sep:
                flags[key] = value.strip()
        # Every family is built to have total support; the reducible one
        # must also come out reducible.
        expected = {"has_support": "True", "has_total_support": "True"}
        if filename.startswith("reducible_blocks"):
            expected["is_irreducible"] = "False"
        wrong = [key for key, value in expected.items() if flags.get(key) != value]
        return not wrong, f"{filename}: wrong {', '.join(wrong)}" if wrong else ""

    def _round_trip(self, k, label, m, symmetric):
        eq = self.eq
        path = self.tmp / f"{label}.mtx"
        ref_path = self.tmp / f"{label}-reference.mtx"
        _, write_s, ref_write_s = _paired(
            k,
            lambda: eq.write_matrix_market(m, path, symmetric),
            lambda: reference.write_coordinates(m, ref_path),
        )
        mb = path.stat().st_size / 1e6
        back, read_s, ref_read_s = _paired(
            k, lambda: eq.read_matrix_market(path), lambda: reference.read_coordinates(ref_path)
        )
        self.write_mb_s.append(mb / write_s)
        self.read_mb_s.append(mb / read_s)
        same = (
            (back.nrows, back.ncols) == (m.nrows, m.ncols)
            and np.array_equal(back.rows, m.rows)
            and np.array_equal(back.indices, m.indices)
            and np.array_equal(back.data, m.data)
        )
        note = "" if same else f"{path.name} read back differs"
        return [
            Op(f"mm_write:{label}", write_s, True, ref=ref_write_s),
            Op(f"mm_read:{label}", read_s, same, note, ref_read_s),
        ]

    def finish(self):
        return []

    def named(self):
        return {
            "gen_s": Named(self.gen_s, "s", "lower"),
            "check_ms_p50": Named(self.check_ms, "ms", "lower"),
            "mm_write_mb_s": Named(self.write_mb_s, "MB/s", "higher"),
            "mm_read_mb_s": Named(self.read_mb_s, "MB/s", "higher"),
        }


WORKLOADS = {w.name: w for w in (BatchRun, StochasticScale, StructureIO)}
