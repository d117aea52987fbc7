"""Batch experiment driver.

Four subcommands: ``run`` executes a config-driven batch of (matrix,
algorithm, budget, seed) cells and writes a report table; ``history`` emits
per-iteration convergence series for plotting; ``gen`` materializes corpus
specs as Matrix Market files; ``check`` prints a structure report. Exit
status is 0 on full success, 1 when any per-matrix cell failed, 2 on
configuration problems.
"""

import argparse
import csv
import dataclasses
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from equilibrate.corpus import CorpusSpec, generate, parse_spec_line, read_spec_file, spec_name
from equilibrate.diagnostics import (
    CONDITION_SIZE_CAP,
    condition_number,
    convergence_history,
    ratio,
)
from equilibrate.errors import ConfigError, EquilibrateError, MatrixMarketError
from equilibrate.exact import (
    ExactOptions,
    equilibrate_2norm,
    inf_norm_scale,
    jacobi_scale,
)
from equilibrate.io import (
    REPORT_FIELDS,
    RunReport,
    read_matrix_market,
    report_cell,
    write_matrix_market,
    write_report,
)
from equilibrate.matrix import DiagonalScaling, from_sparse, scale
from equilibrate.stochastic import ProbeSource, snbin, ssbin
from equilibrate.structure import structure_report

DEFAULT_BUDGETS = (32, 64, 128)
DEFAULT_NMV = 100


@dataclass(frozen=True)
class Algorithm:
    """How ``run`` computes one algorithm's scaling, and what the cell reads.

    ``scaling(m, budget, seed)`` returns a DiagonalScaling; budgets cap
    iterations for every algorithm that reads them. ``uses_seed`` and
    ``uses_budget`` say whether the result can change with those cell
    parameters. ``keeps_symmetry`` means a symmetric input stays bitwise
    symmetric after scaling (``matrix.scale`` groups the two factors so a
    symmetric scaling mirrors exactly).
    """

    scaling: Callable
    symmetric_only: bool = False
    uses_seed: bool = False
    uses_budget: bool = False
    keeps_symmetry: bool = False


# The entries call each algorithm through its module-global name, so code
# that rebinds those names (profilers, tracers) sees every call.
TABLE = {
    "snbin": Algorithm(
        lambda m, b, s: snbin(from_sparse(m), b, ProbeSource(s)),
        uses_seed=True,
        uses_budget=True,
    ),
    "ssbin": Algorithm(
        lambda m, b, s: DiagonalScaling.symmetric(ssbin(from_sparse(m), b, ProbeSource(s))),
        symmetric_only=True,
        uses_seed=True,
        uses_budget=True,
        keeps_symmetry=True,
    ),
    "sk_exact": Algorithm(
        lambda m, b, s: equilibrate_2norm(m, ExactOptions(max_iters=b), symmetric=False),
        uses_budget=True,
    ),
    "sym_sk_exact": Algorithm(
        lambda m, b, s: equilibrate_2norm(m, ExactOptions(max_iters=b), symmetric=True),
        symmetric_only=True,
        uses_budget=True,
        keeps_symmetry=True,
    ),
    "jacobi": Algorithm(
        lambda m, b, s: jacobi_scale(m)[0],
        symmetric_only=True,
        keeps_symmetry=True,
    ),
    "inf_norm": Algorithm(lambda m, b, s: inf_norm_scale(m)),
}
ALGORITHMS = tuple(TABLE)
SYMMETRIC_ONLY = frozenset(name for name, alg in TABLE.items() if alg.symmetric_only)
# What a bad matrix can raise inside a cell; np.linalg.LinAlgError is a
# ValueError. Anything else is a bug and aborts the batch.
CELL_ERRORS = (EquilibrateError, ValueError, FloatingPointError)


@dataclass
class ExperimentConfig:
    """Parsed batch description: inputs, algorithms, budgets, seeds, output."""

    inputs: list = field(default_factory=list)  # str paths and CorpusSpec values
    algorithms: tuple = ()
    budgets: tuple = DEFAULT_BUDGETS
    seeds_per_run: int = 5
    out: str | None = None
    fmt: str = "csv"
    cond_cap: int = CONDITION_SIZE_CAP

    def validate(self):
        if not self.inputs:
            raise ConfigError("config names no matrices (matrix= or corpus= lines)")
        if not self.algorithms:
            raise ConfigError("config names no algorithms")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {alg!r}")
        if not self.budgets or any(b < 1 for b in self.budgets):
            raise ConfigError("budgets must be positive integers")
        if self.seeds_per_run < 1:
            raise ConfigError("seeds_per_run must be at least 1")
        if self.fmt not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        if self.cond_cap < 1:
            raise ConfigError("cond_cap must be positive")
        return self


def parse_config(path):
    """Read a ``key = value`` config file into an ExperimentConfig.

    ``matrix`` and ``corpus`` lines may repeat; a ``corpus`` value is a spec
    line as understood by the corpus module. Remaining keys are scalar:
    algorithms, budgets (comma-separated), seeds_per_run, out, format,
    cond_cap.
    """
    cfg = ExperimentConfig()
    seen = set()
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        try:
            if key == "matrix":
                cfg.inputs.append(value)
            elif key == "corpus":
                cfg.inputs.append(parse_spec_line(value))
            elif key in seen:
                raise ConfigError(f"duplicate key {key!r}")
            elif key == "algorithms":
                cfg.algorithms = tuple(a.strip() for a in value.split(",") if a.strip())
            elif key == "budgets":
                cfg.budgets = tuple(int(b) for b in value.split(","))
            elif key == "seeds_per_run":
                cfg.seeds_per_run = int(value)
            elif key == "out":
                cfg.out = value
            elif key == "format":
                cfg.fmt = value
            elif key == "cond_cap":
                cfg.cond_cap = int(value)
            else:
                raise ConfigError(f"unknown key {key!r}")
            seen.add(key)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return cfg.validate()


def _input_name(source):
    if isinstance(source, CorpusSpec):
        return spec_name(source)
    return Path(source).stem


def _load_input(source):
    if isinstance(source, CorpusSpec):
        return generate(source)
    return read_matrix_market(source)


def _failure_rows(name, algorithms, budgets, seeds, message):
    return [
        RunReport(name, alg, seed, budget, status=f"error: {message}")
        for alg in algorithms
        for budget in budgets
        for seed in range(seeds)
    ]


def _measure_cell(row, m, alg, symmetric, cond_cap):
    """Scale ``m`` for ``row``'s cell and fill in its outcome fields.

    ``symmetric`` says whether ``m`` is. Only scalings that keep symmetry
    skip the detection on the scaled matrix; for the others it decides
    whether the column spread counts.
    """
    scaled_symmetric = True if symmetric and alg.keeps_symmetry else None
    start = time.perf_counter()
    try:
        scaling = alg.scaling(m, row.nmv, row.seed)
        row.wall_time = time.perf_counter() - start
        scaled = scale(m, scaling)
        row.ratio_after = ratio(scaled, symmetric=scaled_symmetric).value
        if row.cond_before is not None:
            row.cond_after = condition_number(scaled, cap=cond_cap)
    except CELL_ERRORS as exc:
        row.wall_time = time.perf_counter() - start
        row.status = f"error: {exc}"


def run_experiment(cfg):
    """Run every applicable (matrix, algorithm, budget, seed) cell.

    Symmetric-only algorithms are skipped for nonsymmetric inputs. Cell
    failures are recorded in the row's status instead of aborting the
    batch. A cell whose algorithm ignores the seed or the budget repeats
    the row computed first for the same (algorithm, parameters it reads),
    wall_time included. Rows come back sorted by (matrix, algorithm, nmv,
    seed), and everything except wall_time is a pure function of the
    config.
    """
    reports = []
    for source in cfg.inputs:
        name = _input_name(source)
        try:
            m = _load_input(source)
        except (EquilibrateError, OSError) as exc:
            reports.extend(
                _failure_rows(name, cfg.algorithms, cfg.budgets, cfg.seeds_per_run, exc)
            )
            continue
        symmetric = m.is_symmetric()
        algorithms = [
            a for a in cfg.algorithms if symmetric or not TABLE[a].symmetric_only
        ]
        try:
            ratio_before = ratio(m, symmetric=symmetric).value
            cond_before = None
            if m.nrows == m.ncols and max(m.nrows, m.ncols) <= cfg.cond_cap:
                cond_before = condition_number(m, cap=cfg.cond_cap)
        except CELL_ERRORS as exc:
            reports.extend(
                _failure_rows(name, algorithms, cfg.budgets, cfg.seeds_per_run, exc)
            )
            continue
        computed = {}
        for algorithm in algorithms:
            alg = TABLE[algorithm]
            for budget in cfg.budgets:
                for seed in range(cfg.seeds_per_run):
                    key = (
                        algorithm,
                        budget if alg.uses_budget else None,
                        seed if alg.uses_seed else None,
                    )
                    if key not in computed:
                        row = RunReport(
                            name,
                            algorithm,
                            seed,
                            budget,
                            ratio_before=ratio_before,
                            cond_before=cond_before,
                        )
                        _measure_cell(row, m, alg, symmetric, cfg.cond_cap)
                        computed[key] = row
                    reports.append(dataclasses.replace(computed[key], nmv=budget, seed=seed))
    reports.sort(key=lambda r: (r.matrix_name, r.algorithm, r.nmv, r.seed))
    return reports


def emit_history(m, algorithm, nmv, seeds):
    """Convergence series for plotting, one row per (iteration, seed).

    Columns are iteration, seed, log10_ratio. When the algorithm is the
    symmetric stochastic one, two comparison series are attached as extra
    columns: the two-sided method symmetrized through a geometric mean, and
    the no-switch variant.
    """
    columns = ["iteration", "seed", "log10_ratio"]
    variants = []
    if algorithm == "ssbin" and m.is_symmetric():
        variants = ["snbin_sym", "ssbin_noswitch"]
        columns += ["log10_ratio_snbin_sym", "log10_ratio_noswitch"]
    rows = []
    for seed in seeds:
        series = [convergence_history(m, algorithm, nmv=nmv, seed=seed)]
        for variant in variants:
            series.append(convergence_history(m, variant, nmv=nmv, seed=seed))
        for iteration in range(max(len(s) for s in series)):
            row = [iteration, seed]
            for s in series:
                row.append(repr(s[iteration]) if iteration < len(s) else "")
            rows.append(row)
    return columns, rows


def _write_csv(columns, rows, out):
    if out is None:
        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        writer.writerows(rows)
        return
    with open(out, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _cmd_run(args):
    cfg = parse_config(args.config)
    if args.out is not None:
        cfg.out = args.out
    if args.format is not None:
        cfg.fmt = args.format
    cfg.validate()
    reports = run_experiment(cfg)
    if cfg.out is None:
        rows = [
            [report_cell(getattr(r, name)) for name in REPORT_FIELDS]
            for r in reports
        ]
        _write_csv(REPORT_FIELDS, rows, None)
    else:
        write_report(reports, cfg.fmt, cfg.out)
        print(f"wrote {len(reports)} rows to {cfg.out}")
    failures = sum(1 for r in reports if r.status != "ok")
    if failures:
        print(f"{failures} cells failed", file=sys.stderr)
        return 1
    return 0


def _cmd_history(args):
    m = read_matrix_market(args.matrix)
    columns, rows = emit_history(m, args.alg, args.nmv, range(args.seeds))
    _write_csv(columns, rows, args.out)
    return 0


def _cmd_gen(args):
    specs = read_spec_file(args.spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for spec in specs:
        name = spec_name(spec)
        try:
            m = generate(spec)
        except EquilibrateError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            failures += 1
            continue
        path = out_dir / f"{name}.mtx"
        write_matrix_market(m, path, symmetric=m.is_symmetric())
        print(f"wrote {path} ({m.nrows}x{m.ncols}, nnz={m.nnz})")
    return 1 if failures else 0


def _cmd_check(args):
    m = read_matrix_market(args.matrix)
    report = structure_report(m)
    print(f"matrix: {args.matrix}")
    print(f"shape: {m.nrows}x{m.ncols}, nnz: {m.nnz}, symmetric: {m.is_symmetric()}")
    print(f"has_support: {report.has_support}")
    print(f"has_total_support: {report.has_total_support}")
    print(f"is_irreducible: {report.is_irreducible}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="equilibrate",
        description="Matrix-free stochastic and exact equilibration experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a batch experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("csv", "json"), default=None)
    p_run.set_defaults(func=_cmd_run)

    p_hist = sub.add_parser("history", help="emit per-iteration convergence series")
    p_hist.add_argument("--matrix", required=True)
    p_hist.add_argument("--alg", default="ssbin")
    p_hist.add_argument("--nmv", type=int, default=DEFAULT_NMV)
    p_hist.add_argument("--seeds", type=int, default=10)
    p_hist.add_argument("--out", default=None)
    p_hist.set_defaults(func=_cmd_history)

    p_gen = sub.add_parser("gen", help="generate corpus matrices as Matrix Market files")
    p_gen.add_argument("--spec", required=True)
    p_gen.add_argument("--out-dir", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_check = sub.add_parser("check", help="print a structure report for one matrix")
    p_check.add_argument("--matrix", required=True)
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MatrixMarketError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
