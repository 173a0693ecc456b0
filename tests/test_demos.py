import os
import pathlib
import re
import subprocess
import sys

import pytest

import quasilat as ql

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.S | re.M)


def run_python(args):
    # the child imports the same quasilat as this test, installed or not
    src = str(pathlib.Path(ql.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    out = run_python([str(demo)])
    assert out.returncode == 0, out.stderr
    assert out.stdout


def test_readme_blocks_found():
    assert len(README_BLOCKS) >= 4


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_runs(block):
    out = run_python(["-c", block])
    assert out.returncode == 0, out.stderr
    assert out.stdout
