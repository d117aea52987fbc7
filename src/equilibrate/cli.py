"""Batch experiment driver.

Four subcommands: ``run`` executes a config-driven batch of (matrix,
algorithm, budget, seed) cells and writes a report table; ``history`` emits
per-iteration convergence series for plotting; ``gen`` materializes corpus
specs as Matrix Market files; ``check`` prints a structure report. Exit
status is 0 on full success, 1 when any per-matrix cell failed, 2 on
configuration problems and on any other package error that stops the
command.

``run`` loads, measures and scales each input on the calling thread, in
config order. numpy releases the GIL for an SVD stack whose count x order
exceeds 500, and never for one matrix of order 500 or less. So the cells'
cond_after are stacked by order, and each stack of ceil(501 / order)
matrices goes to one background thread as soon as it is full, overlapping
its SVD with the scaling of the next cells; that costs a few MB of
resident memory. Each order's short last stack goes after the last cell,
and the calling thread then takes back the stacks the background thread
has not started and computes them itself. A cell's ``wall_time`` covers
its scaling only.
"""

import argparse
import dataclasses
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from equilibrate.corpus import CorpusSpec, generate, parse_spec_line, read_spec_file, spec_name
from equilibrate.diagnostics import (
    CONDITION_SIZE_CAP,
    TABLE,
    condition_number,
    condition_numbers,
    convergence_history,
    ratio,
)
from equilibrate.errors import ConfigError, EquilibrateError
from equilibrate.io import (
    RunReport,
    read_matrix_market,
    write_csv,
    write_matrix_market,
    write_report,
)
from equilibrate.matrix import scale
from equilibrate.structure import structure_report

DEFAULT_BUDGETS = (32, 64, 128)
DEFAULT_NMV = 100
ALGORITHMS = tuple(TABLE)
# What a bad matrix can raise inside a cell; np.linalg.LinAlgError is a
# ValueError. Anything else is a bug and aborts the batch.
CELL_ERRORS = (EquilibrateError, ValueError, FloatingPointError)
# numpy 2.4.6 releases the GIL for an SVD stack of at least this many rows
# (count x order) and holds it for a smaller one; run_experiment fills its
# stacks of one order up to this.
_GIL_FREE_ROWS = 501


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
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ConfigError("algorithms must not repeat")
        if not self.budgets or any(b < 1 for b in self.budgets):
            raise ConfigError("budgets must be positive integers")
        if len(set(self.budgets)) < len(self.budgets):
            raise ConfigError("budgets must not repeat")
        if self.seeds_per_run < 1:
            raise ConfigError("seeds_per_run must be at least 1")
        if self.fmt not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        if self.cond_cap < 1:
            raise ConfigError("cond_cap must be positive")
        _refuse_repeated_names(self.inputs)
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


def _refuse_repeated_names(sources):
    """Refuse two inputs that would share a report row name or a file name."""
    seen = {}
    for source in sources:
        name = _input_name(source)
        if name in seen:
            raise ConfigError(f"inputs {seen[name]!r} and {source!r} share the name {name!r}")
        seen[name] = source


def _load_input(source):
    if isinstance(source, CorpusSpec):
        return generate(source)
    return read_matrix_market(source)


def _failure_rows(name, algorithms, cfg, message):
    return [
        RunReport(name, alg, seed, budget, status=f"error: {message}")
        for alg in algorithms
        for budget in cfg.budgets
        for seed in range(cfg.seeds_per_run)
    ]


def _scale_cell(row, m, alg):
    """Scale ``m`` with ``alg`` for ``row``'s cell; fill in wall_time and ratio_after.

    wall_time covers the scaling only, whether or not it succeeds. Returns
    the scaled matrix, or None when the cell failed and its status says why.
    """
    start = time.perf_counter()
    try:
        scaling = alg.scaling(m, row.nmv, row.seed)
    except CELL_ERRORS as exc:
        row.status = f"error: {exc}"
        return None
    finally:
        row.wall_time = time.perf_counter() - start
    try:
        scaled = scale(m, scaling)
        row.ratio_after = ratio(scaled)
    except CELL_ERRORS as exc:
        row.status = f"error: {exc}"
        return None
    return scaled


def run_experiment(cfg):
    """Run every applicable (matrix, algorithm, budget, seed) cell.

    Symmetric-only algorithms are skipped for nonsymmetric inputs. An input
    that fails to load or to measure (ratio_before, cond_before) gets a
    failure row for each of its cells, for every configured algorithm when
    its symmetry is unknown. Cell failures are recorded in the row's status
    instead of aborting the batch. A cell whose algorithm ignores the seed
    or the budget repeats the row computed first for the same (algorithm,
    parameters it reads), wall_time included. Rows come back sorted by
    (matrix, algorithm, nmv, seed), and everything except wall_time is a
    pure function of the config.

    Inputs are loaded, measured and scaled on this thread in config order.
    cond_after is computed on the scaled matrix ratio_after was measured
    on, in stacks of one order: a stack goes to one worker thread as soon
    as it holds ceil(_GIL_FREE_ROWS / order) matrices, so that its SVD
    releases the GIL while this thread scales the next cells, and each
    order's short last stack goes after the last cell. This thread then
    walks the stacks from the last one sent: it takes back each one the
    worker has not started and computes it itself, and waits for the
    others. wall_time covers the scaling only.
    """
    reports = []
    cells = []  # (computed row, budget, seed) of every computed input's cells
    filling = {}  # order: (rows, scaled matrices) of the stack not yet sent
    sent = []  # (rows, scaled matrices, future of their condition numbers)
    worker = ThreadPoolExecutor(max_workers=1)

    def send(order):
        rows, matrices = filling.pop(order)
        sent.append((rows, matrices, worker.submit(condition_numbers, matrices, cfg.cond_cap)))

    try:
        for source in cfg.inputs:
            name = _input_name(source)
            algorithms = cfg.algorithms
            try:
                m = _load_input(source)
                symmetric = m.is_symmetric()
                algorithms = [a for a in algorithms if symmetric or not TABLE[a].symmetric_only]
                ratio_before = ratio(m)
                cond_before = None
                if m.nrows == m.ncols <= cfg.cond_cap:
                    cond_before = condition_number(m, cfg.cond_cap)
            except (*CELL_ERRORS, OSError) as exc:
                reports.extend(_failure_rows(name, algorithms, cfg, exc))
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
                                name, algorithm, seed, budget, ratio_before, cond_before=cond_before
                            )
                            scaled = _scale_cell(row, m, alg)
                            if cond_before is not None and scaled is not None:
                                rows, matrices = filling.setdefault(m.nrows, ([], []))
                                rows.append(row)
                                matrices.append(scaled)
                                if len(rows) * m.nrows >= _GIL_FREE_ROWS:
                                    send(m.nrows)
                            computed[key] = row
                        cells.append((computed[key], budget, seed))
        for order in list(filling):
            send(order)
        for rows, matrices, future in reversed(sent):
            if future.cancel():
                results = condition_numbers(matrices, cfg.cond_cap)
            else:
                results = future.result()
            for row, result in zip(rows, results):
                _set_cond_after(row, result)
        reports.extend(dataclasses.replace(row, nmv=b, seed=s) for row, b, s in cells)
    finally:
        worker.shutdown(cancel_futures=True)
    reports.sort(key=lambda r: (r.matrix_name, r.algorithm, r.nmv, r.seed))
    return reports


def _set_cond_after(row, result):
    """Record a cond_after, or the error `condition_numbers` returned in its place."""
    if isinstance(result, Exception):
        row.status = f"error: {result}"
    else:
        row.cond_after = result


def emit_history(m, algorithm, nmv, seeds):
    """Convergence series for plotting, one row per (iteration, seed).

    Columns are iteration, seed, log10_ratio. When the algorithm is the
    symmetric stochastic one, two comparison series are attached as extra
    columns: the two-sided method symmetrized through a geometric mean, and
    the no-switch variant. A series that stopped early is None past its end.
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
                row.append(s[iteration] if iteration < len(s) else None)
            rows.append(row)
    return columns, rows


def _cmd_run(args):
    cfg = parse_config(args.config)
    if args.out is not None:
        cfg.out = args.out
    if args.format is not None:
        cfg.fmt = args.format
    cfg.validate()
    reports = run_experiment(cfg)
    write_report(reports, cfg.fmt, cfg.out)
    if cfg.out is not None:
        print(f"wrote {len(reports)} rows to {cfg.out}")
    failures = sum(1 for r in reports if r.status != "ok")
    if failures:
        print(f"{failures} cells failed", file=sys.stderr)
        return 1
    return 0


def _cmd_history(args):
    for flag, count in (("--nmv", args.nmv), ("--seeds", args.seeds)):
        if count < 1:
            raise ValueError(f"{flag} must be at least 1")
    m = read_matrix_market(args.matrix)
    columns, rows = emit_history(m, args.alg, args.nmv, range(args.seeds))
    write_csv(columns, rows, args.out)
    return 0


def _cmd_gen(args):
    specs = read_spec_file(args.spec)
    _refuse_repeated_names(specs)
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
    except (EquilibrateError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
