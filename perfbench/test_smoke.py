"""Smoke check: every workload runs at a tiny size and reports every metric.

    python3 -m pytest perfbench/test_smoke.py

Runs `run.py` as a subprocess, as the benchmark is run, with and without
tracing, and checks the last output line against `BENCHMARK.json`. It also
checks that a run fails without the package sources, that the tracer lists
names it cannot find instead of crashing, and that `compare.py` refuses
result sets from different backends.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["batch_run", "stochastic_scale", "structure_io"])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(
        "--workload", workload, "--seed", "7", "--seconds", "0.5",
        "--trace", str(trace), "--size", "tiny",
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        reported = last["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], float)
        if not trace:
            assert reported["value"] > 0


def test_fails_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_run", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )  # fmt: skip
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_compare_refuses_other_backend(tmp_path):
    result = {
        "workload": "stochastic_scale",
        "trace": 0,
        "size": "tiny",
        "stamp": {"backend": "compiled"},
        "metrics": {"round_vs_ref": {"value": 1.0, "unit": "ratio"}},
        "named": {},
    }
    for side, backend in (("base", "compiled"), ("head", "fallback")):
        (tmp_path / side).mkdir()
        result["stamp"]["backend"] = backend
        (tmp_path / side / "r.json").write_text(json.dumps(result), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(tmp_path / "base"), str(tmp_path / "head")],
        capture_output=True, text=True, timeout=60, check=False,
    )  # fmt: skip
    assert proc.returncode == 2
    assert "backends differ" in proc.stderr


def test_tracer_lists_names_it_cannot_find(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import equilibrate._kernels
    import equilibrate.cli  # noqa: F401 - the tracer wraps names in every module
    from tracing import Tracer, unavailable

    monkeypatch.delattr(equilibrate._kernels, "matvec")
    tracer = Tracer()
    tracer.install(equilibrate)
    tracer.uninstall()
    assert tracer.missing == ["kernels.matvec"]
    assert unavailable("kernels.matvec_s", tracer.missing)
    assert not unavailable("kernels.rmatvec_s", tracer.missing)
