"""Smoke check of the layer benchmarks and their harness.

    python3 -m pytest benchmarks/test_layer_smoke.py

Runs a stand-in benchmark through `harness.py` in a throwaway pair of git
checkouts, and each script's measurement in this process at a tiny size.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

STAND_IN = '''"""Stand-in benchmark: which package it measured, and in which process."""
import os
import time

import harness


def measure(eq, args):
    return {"side": eq.SIDE, "pid": os.getpid(), "at": time.time(), "value": args.value}


if __name__ == "__main__":
    harness.main(__file__, __doc__, lambda parser: parser.add_argument("--value", type=float))
'''


def _git(repo, *args):
    out = subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=b", "-c", "user.email=b@localhost", *args],
        capture_output=True, text=True, check=True,
    )  # fmt: skip
    return out.stdout.strip()


def _checkout(path, side, files=()):
    """A git checkout at ``path`` whose package says which side it is."""
    package = path / "src" / "equilibrate"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(f"SIDE = {side!r}\n")
    for name, text in files:
        (path / name).parent.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(text)
    _git(path, "init", "-q")
    _git(path, "add", "-A")
    _git(path, "commit", "-qm", side)
    return _git(path, "rev-parse", "HEAD")


def _harness_files():
    """The files a checkout needs to run the stand-in benchmark."""
    return [
        ("benchmarks/harness.py", (HERE / "harness.py").read_text()),
        ("benchmarks/stand_in.py", STAND_IN),
        ("perfbench/stamp.py", (ROOT / "perfbench" / "stamp.py").read_text()),
    ]


def test_harness_alternates_sides_and_keeps_earlier_runs(tmp_path):
    commits = {
        "change": _checkout(tmp_path / "change", "change", _harness_files()),
        "parent": _checkout(tmp_path / "parent", "parent"),
    }
    (tmp_path / "parent" / "src" / "equilibrate" / "extra.py").write_text("")
    out = tmp_path / "out.json"

    def bench(*args):
        return subprocess.run(
            [sys.executable, "benchmarks/stand_in.py", "--out", str(out), *args],
            cwd=tmp_path / "change", capture_output=True, text=True, timeout=300, check=True,
        )  # fmt: skip

    # "parent" and "change" are names of one length, so no path warning.
    first = bench("--label", "first", "--src", str(tmp_path / "parent" / "src"), "--value", "2.5")
    assert "different lengths" not in first.stderr
    bench("--label", "second", "--value", "1.5")
    data = json.loads(out.read_text())
    assert data["benchmark"] == "stand_in" and set(data["runs"]) == {"first", "second"}

    first = data["runs"]["first"]
    pairs = first["pairs"]
    swapped = [["parent", "change"], ["change", "parent"]]
    assert first["order"] == [side for k in range(pairs) for side in swapped[k % 2]]
    ran = sorted((r["at"], side) for side in ("parent", "change") for r in first[side]["runs"])
    assert [side for _, side in ran] == first["order"]
    pids = set()
    for side in ("parent", "change"):
        record = first[side]
        assert [r["side"] for r in record["runs"]] == [side] * pairs
        assert record["median"]["value"] == 2.5
        assert record["stamp"]["commit"] == commits[side]
        assert record["stamp"]["uncommitted_src_changes"] == (side == "parent")
        assert record["stamp"]["src"] == str((tmp_path / side / "src").resolve())
        assert {"cpu_model", "numpy", "blas"} <= set(record["stamp"])
        pids |= {r["pid"] for r in record["runs"]}
    assert len(pids) == 2 * pairs  # a fresh process for every measurement

    second = data["runs"]["second"]
    assert set(second) == {"pairs", "order", "change"}
    assert second["change"]["median"]["value"] == 1.5


def test_harness_warns_before_measuring_sides_on_paths_of_different_lengths(tmp_path):
    _checkout(tmp_path / "change", "change", _harness_files())
    parent = tmp_path / "longer-parent" / "src"
    (parent / "equilibrate").mkdir(parents=True)
    # The parent side goes first and fails at once, so nothing is measured.
    (parent / "equilibrate" / "__init__.py").write_text("raise ImportError('not measured')\n")
    child = subprocess.run(
        [sys.executable, "benchmarks/stand_in.py", "--label", "x", "--src", str(parent)],
        cwd=tmp_path / "change", capture_output=True, text=True, timeout=300,
    )  # fmt: skip
    assert child.returncode != 0
    assert child.stderr.startswith("warning: the sides' sources sit on paths of different lengths")
    assert child.stderr.count("warning:") == 1
    assert not (tmp_path / "change" / "BENCH_stand_in.json").exists()


TINY = {
    "corpus_draws": (
        {
            "DRAWS": ((30, 0.2), (20, 1.0)),
            "DENSE": (("spd", 40, 1.0, 1e6), ("nonsymmetric_general", 40, 0.2, 1e6)),
            "SIZE": "tiny",
            "REPEATS": 1,
        },
        {},
    ),
    "matrix_market": ({"SIZE": "tiny", "REPEATS": 1}, {}),
    "probe_draws": ({"SIZES": (200,), "SWEEPS": 4}, {"repeats": 1}),
    "products": (
        {"SIZES": (300,), "LONG_ROWS": (5,), "EXACT_SIZES": (300,), "EXACT_BUDGETS": (2,)},
        {"repeats": 5},
    ),
    "condition_numbers": (
        {
            "GIL_SIZES": (40,),
            "GIL_STACKS": ((2, 20),),
            "CORPUS": ("family=spd n=30 density=0.2 seed=1 scale_spread=2",),
            "FILE_SPEC": {"family": "symmetric_indefinite", "n": 40, "density": 0.2, "seed": 3},
            "ALGORITHMS": ("snbin", "jacobi"),
        },
        {"seconds": 0.02},
    ),
}


@pytest.mark.parametrize("script", sorted(TINY))
def test_measurement_runs_at_a_tiny_size(script, monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import equilibrate

    module = __import__(script)
    constants, settings = TINY[script]
    for name, value in constants.items():
        monkeypatch.setattr(module, name, value)
    result = module.measure(equilibrate, argparse.Namespace(**settings))
    assert json.loads(json.dumps(result)) == result
    if script == "products":
        assert [row["n"] for row in result["exact"]] == [300, 300]
        assert "slab_floor" not in result and "slabs_chosen" in result["sizes"][0]
    if script == "probe_draws":
        # Every path draws exactly what the 4 sweeps use: n = 200 per ssbin
        # sweep, 2n per snbin sweep.
        row = result["sizes"][0]
        for path in ("", "inline_", "ahead_"):
            assert row[f"{path}ssbin_elements_drawn"] == 4 * 200
            assert row[f"{path}snbin_elements_drawn"] == 2 * 4 * 200
    if script == "corpus_draws":
        # (30 * 30 * 0.2 - 30) // 2 pairs, and all 20 * 19 / 2 at density 1.
        assert [row["pairs"] for row in result["draws"]] == [75, 190]
        assert len(result["generate"]) == 12
        rows = result["draws"] + result["generate"]
        assert all(value > 0.0 for row in rows for key, value in row.items() if key.endswith("_mb"))
    if script == "matrix_market":
        for label in ("general", "symmetric"):
            assert result[label]["nnz"] > 0
            # Each entry of the matrix takes 24 bytes as coordinates.
            assert result[label]["read_peak_mb"] > 24 * result[label]["nnz"] / 1e6
    if script == "condition_numbers":
        assert set(result["run_experiment"]["scale_wall_s"]) == {"30", "40"}
        assert [(row["n"], row["count"]) for row in result["gil"]] == [(None, None), (40, 1), (20, 2)]
        assert result["gil_free_rows"] == 501
        run = result["run_experiment"]
        # Each input's 10 cond_after make one short stack (17 and 13 would
        # fill them); which thread takes which is a race.
        assert run["stacks_here"] + run["stacks_worker"] == 2
        assert run["cond_here_s"] > 0.0 and run["here_idle_s"] >= 0.0
        assert run["worker_idle_s"] is None or run["worker_idle_s"] >= 0.0

