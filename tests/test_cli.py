import json
import os
import pathlib
import subprocess
import sys

import pytest

import quasilat as ql
from quasilat.cli import build_parser, main

TINY_SCENARIO = """
[scenario]
name = cli-tiny

[points]
kind = lattice
basis = 1

[density]
radii = 2, 4
truncation = 10
"""


def gen_line(tmp_path, radius=10.0, name="line.csv"):
    path = tmp_path / name
    rc = main(["gen", "--kind", "lattice", "--basis", "1",
               "--radius", str(radius), "--out", str(path)])
    assert rc == 0
    return path


def test_version_subprocess():
    # the child imports the same quasilat as this test, installed or not
    src = str(pathlib.Path(ql.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c",
                          "from quasilat.cli import main; main(['--version'])"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0
    assert ql.__version__ in out.stdout


def test_import_and_light_scenarios_load_no_scipy():
    # SciPy submodules load inside the functions that use them, so the CLI
    # import and scenarios without KD-trees, splines, gammaln or pivoted-QR
    # solves leave them unloaded; the exact subadditivity count needs no KD-tree
    src = str(pathlib.Path(ql.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import json, sys\n"
            "heavy = ('scipy.spatial', 'scipy.linalg', 'scipy.special', 'scipy.interpolate')\n"
            "from quasilat.cli import main\n"
            "loaded = [[m for m in heavy if m in sys.modules]]\n"
            "code = main(['run', 'padic-2', 'lattice-riesz-2'])\n"
            "loaded.append([m for m in heavy if m in sys.modules])\n"
            "sym = main(['run', 'symmetrized-sparse'])\n"
            "print(json.dumps([code, loaded, sym, 'scipy.spatial' in sys.modules]))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [0, [[], []], 0, False]


def test_gen_writes_loadable_csv(tmp_path):
    path = gen_line(tmp_path, radius=5.0)
    ps = ql.load_pointset(path)
    assert len(ps) == 11
    assert ps.source["kind"] == "lattice"


def test_gen_2d_kinds(tmp_path):
    fib = tmp_path / "fib.csv"
    assert main(["gen", "--kind", "fibonacci", "--radius", "10",
                 "--out", str(fib)]) == 0
    assert ql.load_pointset(fib).dim == 1
    sym = tmp_path / "sym.csv"
    assert main(["gen", "--kind", "symmetrized_sparse", "--q", "4",
                 "--radius", "8", "--out", str(sym)]) == 0
    assert ql.load_pointset(sym).dim == 2


def test_density_command(tmp_path):
    path = gen_line(tmp_path)
    out = tmp_path / "density.json"
    rc = main(["density", "--points", str(path), "--radii", "2,4",
               "--out", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["D_minus"] == pytest.approx(1.0, abs=1e-9)
    assert blob["translate_step"] is None


def test_density_rejects_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n")
    rc = main(["density", "--points", str(bad), "--radii", "1"])
    assert rc == 2
    assert "missing dim=" in capsys.readouterr().err


def test_density_truncation_guard_exits_2(tmp_path, capsys):
    path = gen_line(tmp_path, radius=5.0)
    rc = main(["density", "--points", str(path), "--radii", "8"])
    assert rc == 2
    assert "truncation" in capsys.readouterr().err


def test_approx_command(tmp_path):
    base = gen_line(tmp_path, radius=20.0)
    out = tmp_path / "cover.json"
    rc = main(["approx", "--base", str(base), "--sumset-radius", "10",
               "--out", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["k"] == 1
    assert blob["reverified"] is True
    assert blob["delone"]["min_separation"] == 1.0


def test_gabor_commands(tmp_path):
    pts = tmp_path / "nodes.csv"
    assert main(["gen", "--kind", "lattice", "--basis", "2,0,0,1",
                 "--radius", "9", "--out", str(pts)]) == 0
    out = tmp_path / "frame.json"
    rc = main(["gabor", "frame-bounds", "--points", str(pts),
               "--hermite-N", "20", "--hermite-step", "10", "--out", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["A_est"] >= 0.0
    assert blob["B_est"] >= blob["A_est"]

    out2 = tmp_path / "riesz.json"
    rc = main(["gabor", "riesz", "--points", str(pts),
               "--edge-margin", "5", "--out", str(out2)])
    assert rc == 0
    assert json.loads(out2.read_text())["subspace_dim"] > 0


def test_gabor_commands_match_scenario_blocks(tmp_path):
    # non-default options on both sides pin each flag to its option key
    cfg = tmp_path / "gabor.cfg"
    cfg.write_text("[scenario]\nname = gabor-tiny\n"
                   "[points]\nkind = lattice\nbasis = 2, 0, 0, 1\n"
                   "[density]\nradii = 2, 4\ntruncation = 10\n"
                   "[gabor]\nradius = 6\nchecks = riesz, dual, hap, complete\n"
                   "riesz_margin = 1.5\nhap_box = 3\nhap_x_extent = 0.5\n"
                   "hap_x_count = 2\nprobe_count = 4\n")
    report = ql.run_scenario(ql.parse_scenario(cfg))
    blocks = json.loads(report.to_json())["results"]["gabor"]
    pts = tmp_path / "nodes.csv"
    assert main(["gen", "--kind", "lattice", "--basis", "2,0,0,1",
                 "--radius", "6", "--out", str(pts)]) == 0
    flags = {"riesz": ["--edge-margin", "1.5"], "dual": ["--edge-margin", "1.5"],
             "hap": ["--K", "3", "--x-extent", "0.5", "--x-grid", "2"],
             "complete": ["--probes", "4"]}
    for check, extra in flags.items():
        out = tmp_path / f"{check}.json"
        assert main(["gabor", check, "--points", str(pts),
                     "--out", str(out)] + extra) == 0
        assert json.loads(out.read_text()) == blocks[check], check


def test_negative_edge_margin_exits_2(tmp_path, capsys):
    pts = tmp_path / "nodes.csv"
    assert main(["gen", "--kind", "lattice", "--basis", "2,0,0,1",
                 "--radius", "6", "--out", str(pts)]) == 0
    for check in ("riesz", "dual"):
        assert main(["gabor", check, "--points", str(pts), "--edge-margin", "-1"]) == 2
        assert "exceeds the truncation radius" in capsys.readouterr().err
    cfg = tmp_path / "margin.cfg"
    cfg.write_text(TINY_SCENARIO.replace("basis = 1\n", "basis = 2, 0, 0, 1\n")
                   + "\n[gabor]\nradius = 8\nchecks = riesz\nriesz_margin = -1\n")
    assert main(["run", str(cfg)]) == 2
    assert "exceeds the truncation radius" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, flag, key, value", [
    ("frame-bounds", "--hermite-N", "hermite_n", "0"),
    ("frame-bounds", "--hermite-step", "hermite_step", "0"),
    ("frame-bounds", "--hermite-step", "hermite_step", "-5"),
    ("riesz", "--edge-margin", "riesz_margin", "-0.5"),
    ("hap", "--K", "hap_box", "-1"),
    ("hap", "--K", "hap_box", "nan"),
    ("hap", "--x-extent", "hap_x_extent", "-1"),
    ("hap", "--x-grid", "hap_x_count", "0"),
    ("complete", "--probes", "probe_count", "0"),
])
def test_gabor_option_below_its_minimum_exits_2(tmp_path, capsys, cmd, flag, key, value):
    pts = tmp_path / "z2.csv"
    assert main(["gen", "--kind", "lattice", "--basis", "1,0,0,1",
                 "--radius", "12", "--out", str(pts)]) == 0
    assert main(["gabor", cmd, "--points", str(pts), flag, value]) == 2
    err = capsys.readouterr().err
    assert f"[gabor] {key} = " in err and "is below" in err
    assert "Traceback" not in err
    check = "frame" if cmd == "frame-bounds" else cmd
    cfg = tmp_path / "minimum.cfg"
    cfg.write_text(TINY_SCENARIO.replace("basis = 1\n", "basis = 1, 0, 0, 1\n")
                   + f"\n[gabor]\nradius = 10\nchecks = {check}\n{key} = {value}\n")
    assert main(["run", str(cfg)]) == 2
    assert f"[gabor] {key} = " in capsys.readouterr().err
    with pytest.raises(ql.ScenarioValidationError, match=key):
        ql.scenarios.gabor_options({key: value})


def test_csv_scenario_restricts_to_each_radius(tmp_path, capsys):
    pts = tmp_path / "z2.csv"
    assert main(["gen", "--kind", "lattice", "--basis", "1,0,0,1",
                 "--radius", "12", "--out", str(pts)]) == 0
    text = ("[scenario]\nname = csv-z2\n"
            f"[points]\nkind = csv\npath = {pts}\n"
            "[density]\nradii = 2, 4\ntruncation = 10\n"
            "[approx]\nbase_radius = 6\nsumset_radius = 3\n"
            "[gabor]\nradius = 6\nchecks = riesz\n")
    cfg = tmp_path / "csv.cfg"
    cfg.write_text(text)
    results = ql.run_scenario(ql.parse_scenario(cfg)).results
    assert results["density"]["point_count"] == 21 ** 2
    assert results["density"]["scan_region_radius"] == 6.0
    assert results["gabor"]["point_count"] == 13 ** 2
    assert results["gabor"]["riesz"]["subspace_dim"] == 9 ** 2  # radius 6 - margin 2
    assert results["approx"]["k"] == 1
    # a radius beyond the file's truncation, or no file at all, is refused
    for old, new in (("truncation = 10", "truncation = 13"),
                     ("radius = 6", "radius = 13"),
                     ("base_radius = 6", "base_radius = 13"),
                     (f"path = {pts}", f"path = {tmp_path / 'absent.csv'}")):
        cfg.write_text(text.replace(old, new))
        with pytest.raises(ql.ScenarioValidationError, match="points csv"):
            ql.parse_scenario(cfg)
        assert main(["run", str(cfg)]) == 2
        assert "points csv" in capsys.readouterr().err


def test_gen_unknown_kind_exits_2(tmp_path, capsys):
    rc = main(["gen", "--kind", "hexagon", "--radius", "3",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "unknown points kind" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_gabor_guard_exits_2(tmp_path, capsys):
    pts = tmp_path / "nodes.csv"
    assert main(["gen", "--kind", "lattice", "--basis", "2,0,0,1",
                 "--radius", "6", "--out", str(pts)]) == 0
    rc = main(["gabor", "frame-bounds", "--points", str(pts), "--hermite-N", "60"])
    assert rc == 2
    assert "guard" in capsys.readouterr().err


def test_padic_commands(tmp_path, capsys):
    out = tmp_path / "padic.json"
    rc = main(["padic", "density", "-p", "2", "-w", "1", "-n", "6",
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["density"] == "2"
    rc = main(["padic", "cover", "-p", "2", "-w", "1", "-n", "3",
               "--max-size", "1"])
    assert rc == 2
    assert "cover" in capsys.readouterr().err.lower()


def test_run_list(capsys):
    assert main(["run", "--list"]) == 0
    listed = capsys.readouterr().out
    assert "padic-2" in listed


def test_run_scenario_file_and_out_dir(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_SCENARIO)
    out_dir = tmp_path / "reports"
    rc = main(["run", str(cfg), "--out-dir", str(out_dir)])
    assert rc == 0
    assert "ALL PASS" in capsys.readouterr().out
    blob = json.loads((out_dir / "cli-tiny.json").read_text())
    assert blob["passed"] is True


def test_run_failing_scenario_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_SCENARIO +
                   "\n[approx]\nbase_radius = 8\nsumset_radius = 4\n"
                   "[expect]\nk = 2\n")
    rc = main(["run", str(cfg)])
    assert rc == 1
    assert "FAILURES PRESENT" in capsys.readouterr().out


def test_lattice_without_basis_exits_2(tmp_path, capsys):
    cfg = tmp_path / "nobasis.cfg"
    cfg.write_text(TINY_SCENARIO.replace("basis = 1\n", ""))
    assert main(["run", str(cfg)]) == 2
    assert "basis" in capsys.readouterr().err
    rc = main(["gen", "--kind", "lattice", "--radius", "3",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "basis" in capsys.readouterr().err


def test_incomplete_scenario_blocks_exit_2(tmp_path, capsys):
    for block, missing in (("[approx]\nbase_radius = 8\n", "sumset_radius"),
                           ("[gabor]\nchecks = riesz\n", "missing radius"),
                           ("[gabor]\nradius = 8\nchecks = riesz\nriesz_margn = 5\n",
                            "riesz_margn")):
        cfg = tmp_path / "incomplete.cfg"
        cfg.write_text(TINY_SCENARIO + "\n" + block)
        assert main(["run", str(cfg)]) == 2
        assert missing in capsys.readouterr().err


def test_run_unknown_target_exits_2(capsys):
    rc = main(["run", "definitely-not-a-scenario"])
    assert rc == 2
    assert capsys.readouterr().err


def test_run_validates_every_target_before_running_any(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(ql.cli, "run_scenario", ran.append)
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_SCENARIO + "\n[expect]\nframe = ture\n")
    assert main(["run", "lattice-riesz-2", str(bad)]) == 2
    captured = capsys.readouterr()
    assert ran == []
    assert captured.out == ""
    assert "[expect] frame" in captured.err


def test_gabor_checks_never_sample(tmp_path, monkeypatch):
    # every check runs on closed-form Hermite coordinates: the sampled
    # synthesis matrix and Hermite basis stay off the check path
    def refuse(*args, **kwargs):
        raise AssertionError("a Gabor check sampled the grid")
    monkeypatch.setattr(ql.GaborSystem, "synthesis_matrix", refuse)
    original = ql.gabor.hermite_basis
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quasilat" and getattr(module, "hermite_basis", None) is original:
            monkeypatch.setattr(module, "hermite_basis", refuse)

    cfg = tmp_path / "all-checks.cfg"
    cfg.write_text("[scenario]\nname = all-checks\n"
                   "[points]\nkind = lattice\nbasis = 1, 0, 0, 1\n"
                   "[density]\nradii = 2, 4\ntruncation = 10\n"
                   "[gabor]\nradius = 9\nchecks = frame, riesz, dual, hap, complete\n"
                   "hermite_n = 20\nhap_box = 3\nhap_x_extent = 0.5\n"
                   "hap_x_count = 2\nprobe_count = 4\n")
    report = ql.run_scenario(ql.parse_scenario(cfg))
    assert set(report.results["gabor"]) >= {"frame", "riesz", "dual", "hap", "complete"}

    pts = tmp_path / "nodes.csv"
    assert main(["gen", "--kind", "lattice", "--basis", "1,0,0,1",
                 "--radius", "9", "--out", str(pts)]) == 0
    flags = {"frame-bounds": ["--hermite-N", "20"], "riesz": [], "dual": [],
             "hap": ["--K", "3", "--x-extent", "0.5", "--x-grid", "2"],
             "complete": ["--probes", "4"]}
    for check, extra in flags.items():
        assert main(["gabor", check, "--points", str(pts)] + extra) == 0, check


def test_non_finite_window_exits_2(tmp_path, capsys):
    assert main(["padic", "density", "-p", "2", "-w", "inf", "-n", "3"]) == 2
    err = capsys.readouterr().err
    assert "cannot parse window half-width" in err
    assert "Traceback" not in err
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("[scenario]\nname = inf-window\n\n[padic]\np = 2\nw = inf\nn_max = 3\n")
    assert main(["run", str(cfg)]) == 2
    assert "cannot parse window half-width" in capsys.readouterr().err


def test_float_overflowing_window_exits_2(tmp_path, capsys):
    for w in ("1e308", "1e400"):
        assert main(["padic", "density", "-p", "2", "-w", w, "-n", "3"]) == 2
        err = capsys.readouterr().err
        assert "cannot parse window half-width" in err
        assert "Traceback" not in err
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"[scenario]\nname = huge-window\n\n[padic]\np = 2\nw = {w}\nn_max = 3\n")
        assert main(["run", str(cfg)]) == 2
        assert "cannot parse window half-width" in capsys.readouterr().err
    out = tmp_path / "padic.json"
    assert main(["padic", "density", "-p", "2", "-w", "8e307", "-n", "3",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["density_float"] == 2 * 8e307


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    assert build_parser() is build_parser()
    out = tmp_path / "padic.json"
    assert main(["padic", "cover", "-p", "7", "-w", "3/4", "-n", "2",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["k"] == 2
    with pytest.raises(SystemExit) as exc:
        main(["padic", "density", "-p", "two", "-w", "1", "-n", "3"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert main(["run", "--list"]) == 0
    assert capsys.readouterr().out.split() == ql.builtin_scenario_names()
