"""Probe-draw layer benchmark: sweeps and single draws at four sizes.

Records, for n in {640, 3000, 8000, 20000}:

- the median seconds of a 128-sweep `ssbin` (symmetric indefinite corpus
  matrix) and `snbin` (nonsymmetric corpus matrix), about ten entries per
  row, through `from_sparse`;
- when the package draws probes ahead on a worker thread above a size
  floor, the same two figures on each path at every size: ``inline_*``
  with the floor raised out of reach and ``ahead_*`` with it lowered to 0;
- the median seconds of one `ProbeSource.normal(n)`.

The result is stored with `harness.py` under ``--label`` in
``BENCH_probe_draws.json``; with ``--src``, a parent checkout is measured
alternately with this one, for example:

    python3 benchmarks/probe_draws.py --label change --src ../parent/src
"""

import harness
from harness import ROW_FILL, SIZES, median_s

SWEEPS = 128


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
        "ssbin_s": median_s(lambda: eq.ssbin(sym_op, SWEEPS, eq.ProbeSource(3)), repeats),
        "snbin_s": median_s(lambda: eq.snbin(nonsym_op, SWEEPS, eq.ProbeSource(4)), repeats),
    }


def measure(eq, args):
    from equilibrate import stochastic

    repeats = args.repeats
    floor = getattr(stochastic, "_AHEAD_FLOOR", None)
    out = {"sweeps": SWEEPS, "repeats": repeats, "ahead_floor": floor, "sizes": []}
    for n in SIZES:
        ops = _operators(eq, n)
        source = eq.ProbeSource(5)
        row = {
            "n": n,
            **_sweeps(eq, ops, repeats),
            "normal_s": median_s(lambda: source.normal(n), 20 * repeats),
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


if __name__ == "__main__":
    harness.main(__file__, __doc__, lambda p: p.add_argument("--repeats", type=int, default=7))
