"""Condition-number layer benchmark: the GIL during dense SVDs, and `run`.

Records two things.

- ``gil``: for n in {400, 500, 501, 640}, how often the calling thread gets
  through ``y * y`` on 5,000 elements per second while a second thread
  runs `condition_number` on an order-n nonsymmetric corpus matrix in a
  loop (``loop_per_s``), the longest gap between two of its iterations
  (``longest_gap_s``) and the median seconds of one condition number
  (``cond_s``). Rows with ``count`` above 1 run `condition_numbers` on a
  stack of ``count`` such matrices instead, for (count, n) in {(2, 250),
  (2, 251), (2, 400)}. The row
  with ``n`` null has no second thread. Where numpy holds the GIL through
  the SVD, the loop stops for the length of each one. numpy 2.4.6 holds it
  unless count x n exceeds 500; this is the threshold behind
  `cli._GIL_FREE_ROWS` and the stacks of `run`.
- ``run_experiment``: `run_experiment` on a config shaped like the
  batch_run workload (spd n = 400, nonsymmetric n = 640 and a symmetric
  n = 3000 file read from disk, six algorithms, budgets 32/64/128, three
  seeds), timed after one warm-up run. It records ``wall_s``, the calling
  thread's CPU seconds (``cpu_s``), the seconds of condition numbers on
  each thread (``cond_here_s``, ``cond_worker_s``; cond_before counts on
  the calling thread), the stacks of cond_after each thread computed
  (``stacks_here``, ``stacks_worker``: calls of `condition_numbers`, so a
  stack on the calling thread is one it took back from the worker), the
  worker's CPU seconds in its condition numbers (``cond_worker_cpu_s``),
  its idle seconds
  (``worker_idle_s``: its wall time from the first submit to the end of
  its last condition number, minus ``cond_worker_cpu_s``, so that waits
  for the GIL inside a call count as well as gaps between calls), the
  calling thread's idle seconds (``here_idle_s``: its wall time blocked on
  the worker's results), and per input order the wall and CPU seconds of
  the calling thread's cell scalings (``scale_wall_s``, ``scale_cpu_s``):
  a scaling stalled by an SVD that holds the GIL on another thread takes
  more wall time than CPU time. ``gil_free_rows`` is the count x order
  from which `run` takes a stack to release the GIL.

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
GIL_STACKS = ((2, 250), (2, 251), (2, 400))  # (count, n)
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
    def matrix(n, seed):
        return eq.generate(
            eq.CorpusSpec("nonsymmetric_general", n=n, density=ROW_FILL / n, seed=seed, scale_spread=2.0)
        )

    rows = [{"n": None, "count": None, **_loop_rate(None, seconds)}]
    for n in GIL_SIZES:
        m = matrix(n, 2)
        rows.append({"n": n, "count": 1, **_loop_rate(lambda: eq.condition_number(m), seconds)})
    for count, n in GIL_STACKS:
        stack = [matrix(n, 2 + k) for k in range(count)]
        loop = _loop_rate(lambda: eq.diagnostics.condition_numbers(stack), seconds)
        rows.append({"n": n, "count": count, **loop})
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
    cond = {"here": 0.0, "worker": 0.0, "worker_cpu": 0.0, "stacks_here": 0, "stacks_worker": 0}
    worker = {"first_submit": None, "last_end": None}
    here_idle = [0.0]
    scaling = {}
    originals = {
        name: getattr(cli, name)
        for name in ("condition_number", "condition_numbers", "_scale_cell", "ThreadPoolExecutor")
    }

    def timed(fn, stacked):
        def call(*args, **kwargs):
            t, c = time.perf_counter(), time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if threading.get_ident() == here:
                    cond["here"] += end - t
                    cond["stacks_here"] += stacked
                else:
                    cond["worker"] += end - t
                    cond["worker_cpu"] += time.thread_time() - c
                    cond["stacks_worker"] += stacked
                    worker["last_end"] = end

        return call

    class Executor(originals["ThreadPoolExecutor"]):
        def submit(self, *args, **kwargs):
            if worker["first_submit"] is None:
                worker["first_submit"] = time.perf_counter()
            future = super().submit(*args, **kwargs)
            result = future.result

            def timed_result(*args, **kwargs):
                t = time.perf_counter()
                try:
                    return result(*args, **kwargs)
                finally:
                    here_idle[0] += time.perf_counter() - t

            future.result = timed_result
            return future

    def timed_scale(row, m, alg):
        t, c = time.perf_counter(), time.thread_time()
        try:
            return originals["_scale_cell"](row, m, alg)
        finally:
            wall, cpu = scaling.setdefault(str(m.nrows), [0.0, 0.0])
            scaling[str(m.nrows)] = [wall + time.perf_counter() - t, cpu + time.thread_time() - c]

    cfg = cli.parse_config(config)
    cli.run_experiment(cfg)
    for name in ("condition_number", "condition_numbers"):
        setattr(cli, name, timed(originals[name], name == "condition_numbers"))
    cli._scale_cell, cli.ThreadPoolExecutor = timed_scale, Executor
    try:
        t, c = time.perf_counter(), time.thread_time()
        rows = cli.run_experiment(cfg)
        wall, cpu = time.perf_counter() - t, time.thread_time() - c
    finally:
        for name, value in originals.items():
            setattr(cli, name, value)
    assert all(r.status == "ok" for r in rows)
    idle = None
    if worker["last_end"] is not None:
        idle = worker["last_end"] - worker["first_submit"] - cond["worker_cpu"]
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "cond_here_s": cond["here"],
        "cond_worker_s": cond["worker"],
        "stacks_here": cond["stacks_here"],
        "stacks_worker": cond["stacks_worker"],
        "cond_worker_cpu_s": cond["worker_cpu"],
        "worker_idle_s": idle,
        "here_idle_s": here_idle[0],
        "scale_wall_s": {n: w for n, (w, _) in scaling.items()},
        "scale_cpu_s": {n: c for n, (_, c) in scaling.items()},
    }


def measure(eq, args):
    from equilibrate import cli

    with tempfile.TemporaryDirectory() as tmp:
        run = measure_run(write_inputs(eq, Path(tmp)))
    return {
        "gil_free_rows": cli._GIL_FREE_ROWS,
        "gil": measure_gil(eq, args.seconds),
        "run_experiment": run,
    }


if __name__ == "__main__":
    harness.main(
        __file__,
        __doc__,
        lambda p: p.add_argument("--seconds", type=float, default=1.0, help="loop-rate window"),
    )
