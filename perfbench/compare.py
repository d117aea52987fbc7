"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds result files written by `run.py` (the
`.perfbench/results/` directory of a checkout). For every workload, trace
setting and metric, the table gives each side's median over its runs, the
distance between its quartiles as a share of the median, and the change of
the head median against the base median. Results measured on different
product backends are not comparable, so the script refuses them (exit
status 2), as it does a set that mixes backends.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory):
    """``{(workload, size, trace): {metric: (values, unit, better)}}``, backends."""
    table = defaultdict(dict)
    backends = set()
    files = sorted(Path(directory).glob("*.json"))
    if not files:
        sys.exit(f"compare: no result files in {directory}")
    for path in files:
        result = json.loads(path.read_text(encoding="utf-8"))
        backends.add(result["stamp"]["backend"])
        group = table[result["workload"], result["size"], result["trace"]]
        figures = {name: (m["value"], m["unit"], None) for name, m in result["metrics"].items()}
        if not result["trace"]:
            figures.update(
                (name, (m["value"], m["unit"], m["better"])) for name, m in result["named"].items()
            )
        for name, (value, unit, better) in figures.items():
            values, _, _ = group.setdefault(name, ([], unit, better))
            values.append(value)
    return table, backends


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def main(argv=None):
    parser = argparse.ArgumentParser(description="compare two sets of benchmark results")
    parser.add_argument("base")
    parser.add_argument("head")
    args = parser.parse_args(argv)

    base, base_backends = load(args.base)
    head, head_backends = load(args.head)
    for label, backends in (("base", base_backends), ("head", head_backends)):
        if len(backends) != 1:
            print(f"compare: the {label} set mixes backends {sorted(backends)}", file=sys.stderr)
            return 2
    if base_backends != head_backends:
        print(
            f"compare: backends differ (base {base_backends.pop()}, "
            f"head {head_backends.pop()}); refusing to compare",
            file=sys.stderr,
        )
        return 2

    print(f"{'workload':<17} {'metric':<42} {'unit':<6} {'base':>12} {'head':>12} "
          f"{'change':>8} {'spread b/h':>14}")  # fmt: skip
    for key in sorted(set(base) & set(head)):
        workload, size, trace = key
        for name in sorted(set(base[key]) & set(head[key])):
            b_values, unit, better = base[key][name]
            h_values = head[key][name][0]
            b, h = statistics.median(b_values), statistics.median(h_values)
            change = (h - b) / abs(b) if b else float("nan")
            label = f"{workload}{'' if size == 'full' else f' ({size})'}{' (traced)' if trace else ''}"
            print(
                f"{label:<17} {name:<42} {unit:<6} {b:>12.5g} {h:>12.5g} {change:>+8.1%} "
                f"{spread(b_values):>6.1%}/{spread(h_values):<6.1%}"
                + (f" {better} is better" if better else "")
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
