"""Condition-number layer benchmark: the GIL during dense SVDs, and `run`.

Records two things.

- ``gil``: for n in {400, 500, 501, 640}, how often the calling thread gets
  through ``y * y`` on 5,000 elements per second while a second thread
  runs `condition_number` on an order-n nonsymmetric corpus matrix in a
  loop (``loop_per_s``), the longest gap between two of its iterations
  (``longest_gap_s``) and the median seconds of one condition number
  (``cond_s``). The row with ``n`` null has no second thread. Where numpy
  holds the GIL through the SVD, the loop stops for the length of each
  one; this is the threshold behind `cli._WORKER_MIN_ORDER`.
- ``run_experiment``: `run_experiment` on a config shaped like the
  batch_run workload (spd n = 400, nonsymmetric n = 640 and a symmetric
  n = 3000 file read from disk, six algorithms, budgets 32/64/128, three
  seeds), each time in a fresh process after one warm-up run. Per run:
  ``wall_s``, the calling thread's CPU seconds (``cpu_s``), the seconds of
  condition numbers on each thread (``cond_here_s``, ``cond_worker_s``),
  and per input order the wall and CPU seconds of the calling thread's
  cell scalings (``scale_wall_s``, ``scale_cpu_s``): a scaling stalled by
  an SVD that holds the GIL on another thread takes more wall time than
  CPU time.

BLAS and LAPACK run on one thread each, as in the benchmark workloads.
With ``--src``, the ``run_experiment`` runs alternate between that
checkout's package (``parent``) and this one's (``change``) in one
invocation, so that both sides see the same host phases.

The result is stored under ``--label`` in a JSON file (by default
``BENCH_condition_numbers.json`` at the repository root), next to the runs
already there, with a stamp naming the machine and each checkout, for
example:

    python3 benchmarks/condition_numbers.py --label gil-threshold --src ../parent/src
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread counts are set)

from probe_draws import ROOT, ROW_FILL, _stamp  # noqa: E402

GIL_SIZES = (400, 500, 501, 640)
LOOP_SIZE = 5000
ALGORITHMS = ("snbin", "ssbin", "sk_exact", "sym_sk_exact", "jacobi", "inf_norm")


def _loop_rate(fn, seconds):
    """The calling thread's ``y * y`` loop while ``fn`` runs repeatedly on another thread."""
    stop = threading.Event()
    times = []

    def background():
        while not stop.is_set():
            t = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t)

    thread = threading.Thread(target=background) if fn is not None else None
    if thread is not None:
        thread.start()
    y = np.ones(LOOP_SIZE)
    count, gap = 0, 0.0
    start = last = time.perf_counter()
    while last - start < seconds:
        y * y
        now = time.perf_counter()
        count, gap, last = count + 1, max(gap, now - last), now
    stop.set()
    if thread is not None:
        thread.join()
    return {
        "loop_per_s": count / (last - start),
        "longest_gap_s": gap,
        "cond_s": statistics.median(times) if times else None,
    }


def measure_gil(eq, seconds):
    rows = [{"n": None, **_loop_rate(None, seconds)}]
    for n in GIL_SIZES:
        m = eq.generate(
            eq.CorpusSpec("nonsymmetric_general", n=n, density=ROW_FILL / n, seed=2, scale_spread=2.0)
        )
        rows.append({"n": n, **_loop_rate(lambda: eq.condition_number(m), seconds)})
    return rows


def write_inputs(eq, directory):
    """The batch_run-shaped config and its matrix file, written into ``directory``."""
    big = eq.generate(eq.CorpusSpec("symmetric_indefinite", n=3000, density=2e-3, seed=3, scale_spread=2.0))
    big_path = directory / "symmetric_big.mtx"
    eq.write_matrix_market(big, big_path, symmetric=True)
    config = directory / "batch.cfg"
    config.write_text(
        "corpus = family=spd n=400 density=0.015 seed=1 scale_spread=2\n"
        "corpus = family=nonsymmetric_general n=640 density=0.01 seed=2 scale_spread=2\n"
        f"matrix = {big_path}\n"
        f"algorithms = {','.join(ALGORITHMS)}\n"
        "budgets = 32,64,128\n"
        "seeds_per_run = 3\n"
        "cond_cap = 2000\n",
        encoding="utf-8",
    )
    return config


def measure_run(config):
    """One timed `run_experiment` on ``config`` with the imported package, after a warm-up."""
    from equilibrate import cli

    here = threading.get_ident()
    cond = {"here": 0.0, "worker": 0.0}
    scaling = {}
    condition_number, scale_cell = cli.condition_number, cli._scale_cell

    def timed_cond(m, cap):
        t = time.perf_counter()
        try:
            return condition_number(m, cap=cap)
        finally:
            cond["here" if threading.get_ident() == here else "worker"] += time.perf_counter() - t

    def timed_scale(row, m, alg):
        t, c = time.perf_counter(), time.thread_time()
        try:
            return scale_cell(row, m, alg)
        finally:
            wall, cpu = scaling.setdefault(str(m.nrows), [0.0, 0.0])
            scaling[str(m.nrows)] = [wall + time.perf_counter() - t, cpu + time.thread_time() - c]

    cfg = cli.parse_config(config)
    cli.run_experiment(cfg)
    cli.condition_number, cli._scale_cell = timed_cond, timed_scale
    t, c = time.perf_counter(), time.thread_time()
    rows = cli.run_experiment(cfg)
    wall, cpu = time.perf_counter() - t, time.thread_time() - c
    assert all(r.status == "ok" for r in rows)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "cond_here_s": cond["here"],
        "cond_worker_s": cond["worker"],
        "scale_wall_s": {n: w for n, (w, _) in scaling.items()},
        "scale_cpu_s": {n: c for n, (_, c) in scaling.items()},
    }


def _run_in_process(src, config):
    out = subprocess.run(
        [sys.executable, __file__, "--measure-run", str(config), "--src", str(src)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def _medians(runs):
    keys = ("wall_s", "cpu_s", "cond_here_s", "cond_worker_s")
    return {k: statistics.median(r[k] for r in runs) for k in keys}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="name of this run in the output file")
    parser.add_argument("--src", type=Path, help="package source of the checkout to compare against")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_condition_numbers.json")
    parser.add_argument("--repeats", type=int, default=5, help="run_experiment runs per side")
    parser.add_argument("--seconds", type=float, default=1.0, help="length of each loop-rate window")
    parser.add_argument("--measure-run", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.measure_run is not None:
        sys.path.insert(0, str(args.src.resolve()))
        print(json.dumps(measure_run(args.measure_run)))
        return
    if args.label is None:
        parser.error("--label is required")

    sys.path.insert(0, str((ROOT / "src").resolve()))
    import equilibrate as eq
    from equilibrate import cli

    sides = {"change": ROOT / "src"}
    if args.src is not None:
        sides = {"parent": args.src, **sides}
    run = {
        "stamp": _stamp(ROOT / "src"),
        "worker_min_order": cli._WORKER_MIN_ORDER,
        "gil": measure_gil(eq, args.seconds),
        "run_experiment": {side: {"stamp": _stamp(src), "runs": []} for side, src in sides.items()},
    }
    with tempfile.TemporaryDirectory() as tmp:
        config = write_inputs(eq, Path(tmp))
        for k in range(args.repeats):
            # Alternate which side goes first, so neither always runs second.
            for side in sorted(sides, reverse=k % 2 == 1):
                run["run_experiment"][side]["runs"].append(_run_in_process(sides[side], config))
    for side in run["run_experiment"].values():
        side["median"] = _medians(side["runs"])

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("benchmark", "condition_numbers")
    data.setdefault("runs", {})[args.label] = run
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    for row in run["gil"]:
        print(" ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in row.items()))
    for name, side in run["run_experiment"].items():
        print(name, " ".join(f"{k}={v:.3f}" for k, v in side["median"].items()))


if __name__ == "__main__":
    main()
