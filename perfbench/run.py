"""Benchmark harness for equilibrate.

Run one workload in this process, from the root of a checkout:

    python3 perfbench/run.py --workload batch_run --seed 1 --trace 0

or every workload, each in a fresh process of its own:

    python3 perfbench/run.py --workload all --seed 1

Workloads are described in `workloads.py`; metric names, units, directions
and bounds, and the workloads whose runs gate a change, are in
`BENCHMARK.json` at the checkout root. Each run

1. imports the package from `src/` (never an installed copy) with BLAS
   pinned to one thread;
2. times the import of the package in fresh processes and the workload's
   set-up in this one, several times each; `setup_s` is the sum of the two
   medians (one set-up when tracing);
3. repeats rounds of the workload until `--seconds` have passed, checking
   every output and timing each operation beside its frozen reference work
   (`reference.py`). `round_vs_ref` is the median over rounds of the
   round's time divided by its reference time. The host runs through
   phases in which all code is faster or slower; the package and its
   reference see the same phase, so the ratio is steady where absolute
   times are not. Medians of the workload's own absolute figures are
   printed and written too.

With `--trace 1`, rounds alternate between untraced and traced; the
per-layer figures cover one traced set-up plus the mean traced round.
`round_s` and `reference_s` are the medians of the untraced rounds' package
and reference seconds, and `trace.overhead_s` is the median traced round
minus the median untraced one.

The last line on stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. A fuller result, stamped with the machine and the
software, is written to `.perfbench/results/` in the checkout; compare two
sets of them with `perfbench/compare.py`.
"""

import os

# One BLAS thread: the runs measure a single-threaded process. This must
# happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from stamp import stamp  # noqa: E402
from tracing import Tracer, derive, summarize, unavailable  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"perfbench: {path.name} not found at the checkout root")
    return json.loads(path.read_text(encoding="utf-8"))


def import_package():
    """Import equilibrate from this checkout's sources, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "equilibrate" / "__init__.py").is_file():
        sys.exit(f"perfbench: no equilibrate sources under {src}")
    sys.path.insert(0, str(src))
    import equilibrate
    import equilibrate.cli

    if Path(equilibrate.__file__).resolve().parent != (src / "equilibrate").resolve():
        sys.exit(f"perfbench: imported {equilibrate.__file__}, not the checkout's copy")
    return equilibrate


def _median(values):
    return statistics.median(values) if values else float("nan")


def import_seconds():
    """Time from spawning a fresh interpreter to the package being imported."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "import equilibrate, equilibrate.cli; print(time.monotonic())"
    )
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")],
        capture_output=True,
        text=True,
        check=True,
    )
    return float(proc.stdout) - start


def round_seconds(rounds):
    return [sum(op.seconds for op in ops) for ops in rounds]


def vs_reference(rounds):
    """Median over rounds of package time over reference time."""
    ratios = []
    for ops in rounds:
        ref = sum(op.ref for op in ops)
        if ref > 0:
            ratios.append(sum(op.seconds for op in ops) / ref)
    return _median(ratios), len(ratios)


def _round_ops(workload, k):
    """One round; an exception fails the round instead of the run."""
    start = time.perf_counter()
    try:
        return workload.run_round(k)
    except Exception:  # noqa: BLE001 - the run must go on and count it
        text = traceback.format_exc()
        print(text, file=sys.stderr)
        last = text.strip().splitlines()[-1]
        return [Op("round", time.perf_counter() - start, False, last)]


def op_samples(rounds):
    """Seconds per operation kind and round."""
    samples = {}
    for ops in rounds:
        per_kind = {}
        for op in ops:
            per_kind[op.kind] = per_kind.get(op.kind, 0.0) + op.seconds
        for kind, seconds in per_kind.items():
            samples.setdefault(kind, []).append(seconds)
    return samples


def measure(eq, workload_cls, args, tmp):
    workload = workload_cls(eq, args.seed, args.size, tmp)
    tracer = Tracer() if args.trace else None
    traces = []  # (phase, spans, counts, digests)

    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        if tracer:
            tracer.install(eq)
        start = time.perf_counter()
        try:
            workload.setup()
        finally:
            setups.append(time.perf_counter() - start)
            if tracer:
                tracer.uninstall()
                traces.append(("setup", *tracer.take()))

    rounds = []  # (traced, ops)
    min_rounds = max(workload.min_rounds, 2 if args.trace else 1)
    start = time.perf_counter()
    k = 0
    while k < min_rounds or time.perf_counter() - start < args.seconds:
        traced = bool(tracer) and k % 2 == 1
        if traced:
            tracer.install(eq)
        try:
            ops = _round_ops(workload, k)
        finally:
            if traced:
                tracer.uninstall()
                traces.append((f"round{k}", *tracer.take()))
        rounds.append((traced, ops))
        k += 1

    ops = [op for _, round_ops in rounds for op in round_ops] + workload.finish()
    failed = [op for op in ops if not op.ok]
    plain = [r for traced, r in rounds if not traced]
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "failures": [f"{op.kind}: {op.note}" for op in failed],
        "rounds": len(rounds),
        "setup_samples": setups,
        "round_samples": round_seconds(plain),
        "reference_samples": [sum(op.ref for op in r) for r in plain],
        "op_samples": op_samples(plain),
        "named": {
            name: {"value": n.median(), "unit": n.unit, "better": n.better, "n": len(n.values)}
            for name, n in workload.named().items()
        },
    }
    result["named"]["error_rate"] = {
        "value": len(failed) / len(ops),
        "unit": "ratio",
        "better": "lower",
        "n": len(ops),
    }
    if not tracer:
        imports = [import_seconds() for _ in range(SETUP_REPEATS)]
        result["import_samples"] = imports
        result["end_to_end"] = {
            "setup_s": (_median(imports) + _median(setups), len(setups)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "round_vs_ref": vs_reference(plain),
        }
        return result

    traced_rounds = [r for traced, r in rounds if traced]
    round_sums = Counter()
    for _, spans, counts, digests in traces[1:]:
        round_sums.update(summarize(spans, counts, digests))
    sums = summarize(*traces[0][1:])
    for key, value in round_sums.items():
        # Dividing whole totals keeps counts exact, so they repeat run to run.
        sums[key] += value / len(traced_rounds)
    layers = derive(sums)
    layers["round_s"] = _median(result["round_samples"])
    layers["reference_s"] = _median(result["reference_samples"])
    layers["trace.overhead_s"] = _median(round_seconds(traced_rounds)) - layers["round_s"]
    result["per_layer"] = layers
    result["unavailable"] = tracer.missing
    result["spans"] = [{"phase": phase, "spans": spans} for phase, spans, _, _ in traces]
    return result


def report(spec, args, result, machine):
    """Print the table and the final JSON line; write the full result."""
    if args.trace:
        wanted = spec["per_layer"]
        missing = result["unavailable"]
        metrics = {
            m["name"]: {"value": float(result["per_layer"].get(m["name"], 0.0)), "unit": m["unit"]}
            for m in wanted
        }
        counts = {m["name"]: "unavailable" if unavailable(m["name"], missing) else "" for m in wanted}
    else:
        wanted = spec["end_to_end"]
        metrics, counts = {}, {}
        for m in wanted:
            value, n = result["end_to_end"][m["name"]]
            metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
            counts[m["name"]] = f"n={n}"

    blas = machine["blas"]
    print(
        f"{args.workload}  seed={args.seed}  size={args.size}  trace={args.trace}  "
        f"backend={machine['backend']}  rounds={result['rounds']}"
    )
    print(
        f"  {machine['cpu_model']}, {machine['affinity']} CPUs, caches {machine['caches']}; "
        f"python {machine['python']}, numpy {machine['numpy']}, scipy {machine['scipy']}, "
        f"{blas['name']} {blas['version']} with {blas['threads']} thread(s) "
        f"(default {machine['blas_threads_default']})"
    )
    rows = [(name, m["value"], m["unit"], counts[name]) for name, m in metrics.items()]
    if not args.trace:
        rows += [
            (name, n["value"], n["unit"], f"n={n['n']}  ({n['better']} is better)")
            for name, n in result["named"].items()
        ]
    for name, value, unit, note in rows:
        print(f"  {name:<42} {value:>14.6g} {unit:<6} {note}")
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"  verdict: {verdict} ({result['failed']} of {result['attempted']} operations failed)")
    for line in result["failures"][:10]:
        print(f"    {line}")

    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "stamp": machine,
        "metrics": metrics,
        **result,
    }
    path.write_text(json.dumps(full) + "\n", encoding="utf-8")
    print(f"  full result: {path.relative_to(ROOT)}")
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)


def run_all(args, workloads):
    """Each workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--size", args.size,
        ]  # fmt: skip
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        last = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged), flush=True)


def main(argv=None):
    spec = load_spec()
    names = list(WORKLOADS)
    parser = argparse.ArgumentParser(description="equilibrate benchmark")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="input sizes; 'tiny' is for the smoke check only",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        run_all(args, names)
        return 0

    eq = import_package()
    # A terminated run still removes its inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        result = measure(eq, WORKLOADS[args.workload], args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report(spec, args, result, stamp(eq))
    return 0


if __name__ == "__main__":
    sys.exit(main())
