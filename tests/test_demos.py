import os
import pathlib
import subprocess
import sys

import pytest

import quasilat as ql

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # the child imports the same quasilat as this test, installed or not
    src = str(pathlib.Path(ql.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout
