import argparse
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import quasilat as ql
from quasilat.cli import build_parser, main
from quasilat.scenarios import SECTION_KEYS

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)


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


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # every quasilat line of the sh block under "Command line", in order, so a
    # removed flag cannot survive in the docs
    section = README[README.index("## Command line"):]
    block = re.search(r"^```sh\n(.*?)^```", section, re.S | re.M).group(1)
    lines = [ln for ln in block.replace("\\\n", " ").splitlines() if ln.startswith("quasilat ")]
    assert len(lines) == 15
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my-scenario.cfg").write_text(
        "[scenario]\nname = my-scenario\n[points]\nkind = lattice\nbasis = 1\n"
        "[density]\nradii = 2, 4\ntruncation = 10\n")
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


def test_readme_counts_every_option_and_key():
    # the sentence under "Command line" counts both, so a new option or key
    # changes README in the same change
    def options(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                yield from (o for sub in action.choices.values() for o in options(sub))
            elif not isinstance(action, argparse._HelpAction):
                yield action

    stated = re.search(r"the CLI\s+has (\d+) options, and scenario files have (\d+) keys",
                       README)
    counted = (len(list(options(build_parser()))), sum(map(len, SECTION_KEYS.values())))
    assert stated and counted == tuple(map(int, stated.groups())) == (36, 24)


def test_readme_scenario_is_the_builtin(tmp_path):
    # the ini block under "Scenario files" is the shipped lattice-frame-half,
    # so a retired key left in it fails as an unknown key
    block = re.search(r"^```ini\n(.*?)^```", README, re.S | re.M).group(1)
    path = tmp_path / "lattice-frame-half.cfg"
    path.write_text(block)
    builtin = ql.parse_scenario(ql.builtin_scenario_path("lattice-frame-half"))
    assert ql.parse_scenario(path).settings == builtin.settings
