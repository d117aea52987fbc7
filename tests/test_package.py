import os
import subprocess
import sys
from pathlib import Path

import equilibrate


def test_all_names_resolve_are_unique_and_sorted():
    names = equilibrate.__all__
    missing = [name for name in names if not hasattr(equilibrate, name)]
    assert missing == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_import_loads_no_scipy():
    # Importing scipy.sparse adds about 22 MB of memory and 0.3 s to every
    # start-up, twice what the package itself takes to import.
    src = str(Path(equilibrate.__file__).resolve().parents[1])
    code = (
        "import sys, equilibrate, equilibrate.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_module_entry_point_reports_a_package_error_without_traceback(tmp_path):
    p = tmp_path / "rect.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n2 3 3\n1 1 1.0\n2 2 2.0\n1 3 1.0\n")
    src = str(Path(equilibrate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-m", "equilibrate", "check", "--matrix", str(p)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr
