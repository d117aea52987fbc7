"""The options, sides, stamp and output file that the layer benchmarks share.

Each script defines ``measure(eq, args)``, which times the package ``eq``
and returns a JSON-ready dict, and hands itself to `main`. Every script
takes ``--label``, the name of the run in the output file; ``--out``, by
default ``BENCH_<script>.json`` at the repository root; and ``--src``, the
package source of a parent checkout, measured alternately with this one so
that both sides see the same host phases.

Each side is measured `PAIRS` times, each time in a fresh process with
BLAS pinned to one thread as the benchmark workloads pin it, and the side
that goes first swaps every pair. The run goes under its label, next to
the runs already in the file. Per side it holds every measurement, their
median (of each float) and one stamp: `perfbench/stamp.py`'s, the
checkout's commit, whether its ``src/`` has uncommitted changes and the
resolved path of that ``src/``. Layer timings have been seen to move with
the length of that path alone, so when the two sides' paths differ in
length a warning goes to stderr before anything is measured. A fresh
process runs this file to measure one side:

    python3 benchmarks/harness.py SCRIPT SRC SETTINGS_JSON
"""

import argparse
import json
import os
import runpy
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
# The sizes of the product and probe-draw benchmarks, about ten entries per row.
SIZES = (640, 3000, 8000, 20000)
ROW_FILL = 10
_PINNED = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def median_s(fn, repeats):
    """The median seconds of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def main(script, doc, options=None):
    """Parse the options (the script adds its own through ``options(parser)``),
    measure each side and store the run."""
    name = Path(script).stem
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of this run in the output file")
    parser.add_argument("--src", type=Path, help="package source of a parent checkout")
    parser.add_argument("--out", type=Path, default=ROOT / f"BENCH_{name}.json")
    if options is not None:
        options(parser)
    args = parser.parse_args()
    sides = {"parent": args.src} if args.src is not None else {}
    sides["change"] = ROOT / "src"
    sides = {side: str(path.resolve()) for side, path in sides.items()}
    if len(set(map(len, sides.values()))) > 1:
        print(
            "warning: the sides' sources sit on paths of different lengths, which has moved "
            f"layer timings on its own: {' and '.join(sides.values())}",
            file=sys.stderr,
        )
    label, out = args.label, args.out
    del args.label, args.src, args.out
    run = {"pairs": PAIRS, "order": []}
    for k in range(PAIRS):
        run["order"] += list(sides)[:: -1 if k % 2 else 1]
    for side in run["order"]:
        child = subprocess.run(
            [sys.executable, __file__, script, sides[side], json.dumps(vars(args))],
            stdout=subprocess.PIPE, text=True, env={**os.environ, **_PINNED}, check=True,
        )  # fmt: skip
        measured = json.loads(child.stdout.splitlines()[-1])
        record = run.setdefault(side, {"stamp": measured["stamp"], "runs": []})
        record["runs"].append(measured["result"])
    for side in sides:
        run[side]["median"] = _median(run[side]["runs"])

    data = json.loads(out.read_text()) if out.exists() else {}
    data.setdefault("benchmark", name)
    data.setdefault("runs", {})[label] = run
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    medians = {side: dict(_leaves(run[side]["median"])) for side in sides}
    for path in medians["change"]:
        print(path, *(f"{side}={medians[side].get(path, float('nan')):.4g}" for side in sides))


def _median(runs):
    """The median of each float across ``runs``, in the shape of one run."""
    if isinstance(runs[0], dict):
        return {k: _median([r[k] for r in runs]) for k in runs[0]}
    if isinstance(runs[0], list):
        return [_median(list(items)) for items in zip(*runs)]
    return statistics.median(runs) if isinstance(runs[0], float) else runs[0]


def _leaves(value, path=""):
    """(path, value) for each float in ``value``, a tree of dicts and lists."""
    if isinstance(value, float):
        yield path, value
    elif isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaves(item, f"{path}.{key}" if path else str(key))


def _measure_side(script, src, settings):
    """One measurement of the package in ``src`` by ``script``, with its stamp."""
    sys.path.insert(0, src)
    import equilibrate

    sys.path.insert(0, str(ROOT / "perfbench"))
    from stamp import stamp

    def git(*args):
        out = subprocess.run(["git", "-C", src, *args], capture_output=True, text=True, check=False)
        return out.stdout.strip() if out.returncode == 0 else None

    record = {
        "stamp": {
            **stamp(equilibrate),
            "commit": git("rev-parse", "HEAD"),
            "uncommitted_src_changes": bool(git("status", "--porcelain", "--", ".")),
            "src": src,
        }
    }
    measure = runpy.run_path(script)["measure"]
    record["result"] = measure(equilibrate, argparse.Namespace(**json.loads(settings)))
    return record


if __name__ == "__main__":
    print(json.dumps(_measure_side(*sys.argv[1:])))
