"""Every demo script runs to the end.

Each script is copied under ``tmp_path`` and run there in a fresh
interpreter that imports the package under test, so the gallery demo
writes its SVGs into the copy's ``out/`` and not into ``demos/out/``.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import minkplanar

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"
PACKAGE_ROOT = pathlib.Path(minkplanar.__file__).resolve().parents[1]


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, name):
    script = tmp_path / "demos" / name
    script.parent.mkdir()
    shutil.copy(DEMOS / name, script)
    path = os.pathsep.join(filter(None, [str(PACKAGE_ROOT),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
