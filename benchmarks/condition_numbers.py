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
  seeds), timed after one warm-up run. It records ``wall_s``, the calling
  thread's CPU seconds (``cpu_s``), the seconds of condition numbers on
  each thread (``cond_here_s``, ``cond_worker_s``), and per input order
  the wall and CPU seconds of the calling thread's cell scalings
  (``scale_wall_s``, ``scale_cpu_s``): a scaling stalled by an SVD that
  holds the GIL on another thread takes more wall time than CPU time.

The result is stored with `harness.py` under ``--label`` in
``BENCH_condition_numbers.json``; with ``--src``, a parent checkout is
measured alternately with this one, for example:

    python3 benchmarks/condition_numbers.py --label gil-threshold --src ../parent/src
"""

import statistics
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import harness
from harness import ROW_FILL

GIL_SIZES = (400, 500, 501, 640)
LOOP_SIZE = 5000
# The config's corpus inputs and the spec of its matrix file.
CORPUS = (
    "family=spd n=400 density=0.015 seed=1 scale_spread=2",
    "family=nonsymmetric_general n=640 density=0.01 seed=2 scale_spread=2",
)
FILE_SPEC = {"family": "symmetric_indefinite", "n": 3000, "density": 2e-3, "seed": 3}
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
    big = eq.generate(eq.CorpusSpec(**FILE_SPEC, scale_spread=2.0))
    big_path = directory / "symmetric_big.mtx"
    eq.write_matrix_market(big, big_path, symmetric=True)
    config = directory / "batch.cfg"
    config.write_text(
        "".join(f"corpus = {spec}\n" for spec in CORPUS)
        + f"matrix = {big_path}\n"
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
    try:
        t, c = time.perf_counter(), time.thread_time()
        rows = cli.run_experiment(cfg)
        wall, cpu = time.perf_counter() - t, time.thread_time() - c
    finally:
        cli.condition_number, cli._scale_cell = condition_number, scale_cell
    assert all(r.status == "ok" for r in rows)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "cond_here_s": cond["here"],
        "cond_worker_s": cond["worker"],
        "scale_wall_s": {n: w for n, (w, _) in scaling.items()},
        "scale_cpu_s": {n: c for n, (_, c) in scaling.items()},
    }


def measure(eq, args):
    from equilibrate import cli

    with tempfile.TemporaryDirectory() as tmp:
        run = measure_run(write_inputs(eq, Path(tmp)))
    return {
        "worker_min_order": getattr(cli, "_WORKER_MIN_ORDER", None),
        "gil": measure_gil(eq, args.seconds),
        "run_experiment": run,
    }


if __name__ == "__main__":
    harness.main(
        __file__,
        __doc__,
        lambda p: p.add_argument("--seconds", type=float, default=1.0, help="loop-rate window"),
    )
