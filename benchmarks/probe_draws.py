"""Probe-draw layer benchmark: sweeps and single draws at four sizes.

Records, for n in {640, 3000, 8000, 20000}:

- the median seconds of a 128-sweep `ssbin` (symmetric indefinite corpus
  matrix) and `snbin` (nonsymmetric corpus matrix), about ten entries per
  row, through `from_sparse`;
- when the package draws probes ahead on a worker thread above a size
  floor, the same two figures on each path at every size: ``inline_*``
  with the floor raised out of reach and ``ahead_*`` with it lowered to 0;
- the median seconds of one `ProbeSource.normal(n)`.

The result is stored under ``--label`` in a JSON file (by default
``BENCH_probe_draws.json`` at the repository root), next to the runs already
there, with a stamp naming the machine and the checkout. Run it once per
checkout to compare them, for example:

    python3 benchmarks/probe_draws.py --label parent --src ../parent/src
    python3 benchmarks/probe_draws.py --label change
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (640, 3000, 8000, 20000)
SWEEPS = 128
ROW_FILL = 10


def _commit(src):
    def git(*args):
        out = subprocess.run(
            ["git", "-C", str(src), *args], capture_output=True, text=True, check=False
        )
        return out.stdout.strip() if out.returncode == 0 else None

    return {
        "commit": git("rev-parse", "HEAD"),
        "uncommitted_src_changes": bool(git("status", "--porcelain", "--", ".")),
    }


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _stamp(src):
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        **_commit(src),
    }


def _median_s(fn, repeats):
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _operators(eq, n):
    sym = eq.generate(
        eq.CorpusSpec("symmetric_indefinite", n=n, density=ROW_FILL / n, seed=1, scale_spread=2.0)
    )
    nonsym = eq.generate(
        eq.CorpusSpec("nonsymmetric_general", n=n, density=ROW_FILL / n, seed=2, scale_spread=2.0)
    )
    return eq.from_sparse(sym), eq.from_sparse(nonsym)


def _sweeps(eq, ops, repeats):
    sym_op, nonsym_op = ops
    return {
        "ssbin_s": _median_s(lambda: eq.ssbin(sym_op, SWEEPS, eq.ProbeSource(3)), repeats),
        "snbin_s": _median_s(lambda: eq.snbin(nonsym_op, SWEEPS, eq.ProbeSource(4)), repeats),
    }


def measure(eq, repeats):
    from equilibrate import stochastic

    floor = getattr(stochastic, "_AHEAD_FLOOR", None)
    out = {"sweeps": SWEEPS, "repeats": repeats, "ahead_floor": floor, "sizes": []}
    for n in SIZES:
        ops = _operators(eq, n)
        source = eq.ProbeSource(5)
        row = {
            "n": n,
            **_sweeps(eq, ops, repeats),
            "normal_s": _median_s(lambda: source.normal(n), 20 * repeats),
        }
        # Both paths at every size, whichever one the floor picks.
        for path, forced in (("inline", 1 << 62), ("ahead", 0)) if floor is not None else ():
            stochastic._AHEAD_FLOOR = forced
            try:
                row.update({f"{path}_{k}": v for k, v in _sweeps(eq, ops, repeats).items()})
            finally:
                stochastic._AHEAD_FLOOR = floor
        out["sizes"].append(row)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of this run in the output file")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="package source to measure")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_probe_draws.json")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    import equilibrate as eq

    run = {"stamp": _stamp(args.src), **measure(eq, args.repeats)}
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("benchmark", "probe_draws")
    data.setdefault("runs", {})[args.label] = run
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    for row in run["sizes"]:
        print(row["n"], " ".join(f"{k}={v * 1e3:.2f}ms" for k, v in sorted(row.items()) if k != "n"))


if __name__ == "__main__":
    main()
