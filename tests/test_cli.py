import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
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
    # import and scenarios without KD-trees, splines or pivoted-QR solves
    # leave them unloaded; the exact subadditivity count needs no KD-tree, and
    # the Hermite coordinates (a ratio recurrence) need no scipy.special, so
    # lattice-frame-half's frame, HAP and completeness checks leave it unloaded
    src = str(pathlib.Path(ql.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import json, sys\n"
            "heavy = ('scipy.spatial', 'scipy.linalg', 'scipy.special', 'scipy.interpolate')\n"
            "from quasilat.cli import main\n"
            "loaded = [[m for m in heavy if m in sys.modules]]\n"
            "code = main(['run', 'padic-2', 'lattice-riesz-2'])\n"
            "loaded.append([m for m in heavy if m in sys.modules])\n"
            "sym = main(['run', 'symmetrized-sparse'])\n"
            "spatial = 'scipy.spatial' in sys.modules\n"
            "half = main(['run', 'lattice-frame-half'])\n"
            "print(json.dumps([code, loaded, sym, spatial, half,\n"
            "                  'scipy.special' in sys.modules]))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [0, [[], []], 0, False, 0, False]


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
    # a NaN once passed the reader and failed later as a negative scan radius
    bad.write_text("dim=1\nnan\n1\n2\n")
    assert main(["density", "--points", str(bad), "--radii", "1"]) == 2
    assert "line 2 is not 1 comma-separated finite numbers" in capsys.readouterr().err
    bad.write_text("dim=0\n")
    assert main(["density", "--points", str(bad), "--radii", "1"]) == 2
    assert "bad dimension" in capsys.readouterr().err


def test_density_truncation_guard_exits_2(tmp_path, capsys):
    path = gen_line(tmp_path, radius=5.0)
    rc = main(["density", "--points", str(path), "--radii", "8"])
    assert rc == 2
    assert "truncation" in capsys.readouterr().err


def test_sidecar_count_and_dim_must_match_the_csv(tmp_path, capsys):
    path = gen_line(tmp_path, radius=30.0)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))  # one row deleted: 60 rows, the sidecar says 61
    with pytest.raises(ValueError, match=r"line\.csv\.json has count 61, the CSV body 60"):
        ql.load_pointset(path)
    assert main(["density", "--points", str(path), "--radii", "5"]) == 2
    assert "line.csv.json has count 61" in capsys.readouterr().err
    path.write_text("".join(lines))
    sidecar = pathlib.Path(f"{path}.json")
    meta = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps({**meta, "dim": 2}))
    with pytest.raises(ValueError, match=r"line\.csv\.json has dim 2, the CSV body 1"):
        ql.load_pointset(path)
    del meta["count"], meta["dim"]  # a sidecar without them is not checked against the body
    sidecar.write_text(json.dumps(meta))
    assert len(ql.load_pointset(path)) == 61


def test_density_sidecar_without_truncation_radius_exits_2(tmp_path, capsys):
    path = gen_line(tmp_path)
    sidecar = pathlib.Path(f"{path}.json")
    meta = json.loads(sidecar.read_text())
    del meta["truncation_radius"]
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="no truncation_radius"):
        ql.load_pointset(path)
    rc = main(["density", "--points", str(path), "--radii", "0.5"])
    assert rc == 2
    assert "no truncation_radius" in capsys.readouterr().err


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
    assert blob["verified_region_radius"] == 10.0  # the whole sumset truncation


def test_approx_refuses_a_sumset_beyond_half_the_base(tmp_path, capsys):
    # above half the base truncation a coverage witness s - f can fall outside
    # the base, so k could be inflated and still be reported as minimal
    base = gen_line(tmp_path, radius=20.0)
    assert main(["approx", "--base", str(base), "--sumset-radius", "10"]) == 0
    capsys.readouterr()
    assert main(["approx", "--base", str(base), "--sumset-radius", "10.5"]) == 2
    err = capsys.readouterr().err
    assert ("cover base reach (2 x the sumset radius) 21.0 exceeds the truncation radius 20.0"
            in err)


@pytest.mark.parametrize("argv, message", [
    (["density", "--radii", "2", "--scan-region", "1"], "unrecognized arguments: --scan-region"),
    (["approx", "--sumset", "5"], "unrecognized arguments: --sumset"),
    (["approx", "--coverage-tol", "1e-6"], "unrecognized arguments: --coverage-tol"),
    (["approx", "--delone-margin", "2"], "unrecognized arguments: --delone-margin"),
    (["gabor", "frame-bounds", "--hermite-step", "10"], "unrecognized arguments: --hermite-step"),
    (["gabor", "frame-bounds", "--hermite", "60"], "unrecognized arguments: --hermite"),
    (["gabor", "riesz", "--edge-margin", "2"], "unrecognized arguments: --edge-margin"),
    (["gabor", "dual", "--edge-margin", "2"], "unrecognized arguments: --edge-margin"),
    (["gabor", "hap", "--K", "6"], "unrecognized arguments: --K"),
    (["gabor", "hap", "--x-grid", "5"], "unrecognized arguments: --x-grid"),
    (["gabor", "hap", "--x-extent", "1"], "unrecognized arguments: --x-extent"),
    (["gabor", "complete", "--probes", "10"], "unrecognized arguments: --probes"),
    (["approx", "--region", "5"], "unrecognized arguments: --region"),
    (["padic", "cover", "--max-size", "8"], "unrecognized arguments: --max-size"),
], ids=["scan-region", "sumset", "coverage-tol", "delone-margin", "hermite-step", "hermite",
        "edge-margin-riesz", "edge-margin-dual", "K", "x-grid", "x-extent", "probes",
        "region", "max-size"])
def test_retired_flags_exit_2(tmp_path, capsys, argv, message):
    # each flag was only ever given one value; the value is now a constant
    # (--region: the sumset truncation; --max-size: none, as a p-adic cover
    # needs at most 2 translates). No flag takes a prefix, so --sumset and
    # --hermite are not --sumset-radius and --hermite-N
    points = str(gen_line(tmp_path))
    given = {"approx": ["--base", points], "padic": ["-p", "2", "-w", "1", "-n", "3"]}
    with pytest.raises(SystemExit) as exit_info:
        main([*argv[:-2], *given.get(argv[0], ["--points", points]), *argv[-2:]])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_gabor_commands(tmp_path):
    pts = tmp_path / "nodes.csv"
    assert main(["gen", "--kind", "lattice", "--basis", "2,0,0,1",
                 "--radius", "9", "--out", str(pts)]) == 0
    out = tmp_path / "frame.json"
    rc = main(["gabor", "frame-bounds", "--points", str(pts),
               "--hermite-N", "20", "--out", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["A_est"] >= 0.0
    assert blob["B_est"] >= blob["A_est"]

    out2 = tmp_path / "riesz.json"
    rc = main(["gabor", "riesz", "--points", str(pts), "--out", str(out2)])
    assert rc == 0
    assert json.loads(out2.read_text())["subspace_dim"] > 0


def test_gabor_commands_match_scenario_blocks(tmp_path):
    # hermite_n on both sides pins --hermite-N to its key; no option on either
    # side pins each subcommand to the scenario's defaults and constants
    cases = [(10, "hermite_n = 20\n", {"frame-bounds": ["--hermite-N", "20"]}),
             (10, "", {"frame-bounds": [], "riesz": [], "dual": [], "hap": [], "complete": []})]
    for radius, options, flags in cases:
        checks = ", ".join("frame" if c == "frame-bounds" else c for c in flags)
        cfg = tmp_path / "gabor.cfg"
        cfg.write_text("[scenario]\nname = gabor-tiny\n"
                       "[points]\nkind = lattice\nbasis = 2, 0, 0, 1\n"
                       "[density]\nradii = 2, 4\ntruncation = 10\n"
                       f"[gabor]\nradius = {radius}\nchecks = {checks}\n" + options)
        report = ql.run_scenario(ql.parse_scenario(cfg))
        blocks = json.loads(report.to_json())["results"]["gabor"]
        pts = tmp_path / "nodes.csv"
        assert main(["gen", "--kind", "lattice", "--basis", "2,0,0,1",
                     "--radius", str(radius), "--out", str(pts)]) == 0
        for check, extra in flags.items():
            out = tmp_path / f"{check}.json"
            assert main(["gabor", check, "--points", str(pts),
                         "--out", str(out)] + extra) == 0
            got, block = json.loads(out.read_text()), blocks[
                "frame" if check == "frame-bounds" else check]
            if check == "hap":  # the scenario knows its lattice and centres each box on it
                assert got.pop("solves") > block.pop("solves")
                for key in ("residuals", "max_residual"):
                    assert np.max(np.abs(np.subtract(got.pop(key), block.pop(key)))) <= 1e-12
            assert got == block, (radius, check)


def test_gabor_hap_on_a_csv_shares_equal_centred_sets(tmp_path):
    # a CSV carries no lattice, so each box is centred at x; on Z^2 the grid
    # points an integer offset apart (the corners, the edge midpoints and the
    # centre) see one centred set and share a solve: 4 where one per orbit took 6
    pts = tmp_path / "z2.csv"
    assert main(["gen", "--kind", "lattice", "--basis", "1,0,0,1",
                 "--radius", "11", "--out", str(pts)]) == 0
    out = tmp_path / "hap.json"
    assert main(["gabor", "hap", "--points", str(pts), "--out", str(out)]) == 0
    block = json.loads(out.read_text())
    assert (block["solves"], block["rotation_order"], block["reflection_axis"]) == (4, 4, 0.0)
    # the first cell of each D4 orbit in row-major order, solved alone, gives the
    # same bits as the shared solves; the rest of its orbit reads that value
    grid, axis = np.array(block["residuals"]), block["x_axis"]
    assert np.array_equal(grid, grid.T) and np.array_equal(grid, grid[::-1])
    system = ql.GaborSystem(ql.load_pointset(pts))
    for i, j in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]:
        assert grid[i, j] == ql.hap_residual(system, (axis[i], axis[j]), block["box_radius"])


@pytest.mark.parametrize("cmd, flag, key, value", [
    ("frame-bounds", "--hermite-N", "hermite_n", "0"),
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
        ql.scenarios.parse_value("gabor", key, value)


def test_csv_scenario_restricts_to_each_radius(tmp_path, capsys, monkeypatch):
    pts = tmp_path / "z2 100%.csv"  # a % in a cfg value is literal
    assert main(["gen", "--kind", "lattice", "--basis", "1,0,0,1",
                 "--radius", "12", "--out", str(pts)]) == 0
    text = ("[scenario]\nname = csv-z2 5%\n"
            f"[points]\nkind = csv\npath = {pts}\n"
            "[density]\nradii = 2, 4\ntruncation = 10\n"
            "[approx]\nsumset_radius = 3\n"
            "[gabor]\nradius = 6\nchecks = riesz\n")
    cfg = tmp_path / "csv.cfg"
    cfg.write_text(text)
    loads = []
    monkeypatch.setattr(ql.scenarios, "load_pointset",
                        lambda path: loads.append(path) or ql.load_pointset(path))
    report = ql.run_scenario(ql.parse_scenario(cfg))
    assert loads == [str(pts)]  # once, by validation; the run restricts it to each radius
    assert report.scenario["name"] == "csv-z2 5%"
    assert report.scenario["points"]["path"] == str(pts)
    results = report.results
    assert results["density"]["point_count"] == 21 ** 2
    assert results["density"]["scan_region_radius"] == 6.0
    assert results["gabor"]["point_count"] == 13 ** 2
    assert results["gabor"]["riesz"]["subspace_dim"] == 9 ** 2  # radius 6 - margin 2
    assert results["approx"]["k"] == 1
    # a radius beyond the file's truncation, or no file at all, is refused
    for old, new in (("truncation = 10", "truncation = 13"),
                     ("radius = 6", "radius = 13"),
                     ("sumset_radius = 3", "sumset_radius = 6.5"),  # base radius 13
                     (f"path = {pts}", f"path = {tmp_path / 'absent.csv'}")):
        cfg.write_text(text.replace(old, new))
        with pytest.raises(ql.ScenarioValidationError, match="points csv"):
            ql.parse_scenario(cfg)
        assert main(["run", str(cfg)]) == 2
        assert "points csv" in capsys.readouterr().err


def test_gen_unknown_kind_exits_2(tmp_path, capsys):
    # gen has no --path flag, so a csv kind has no file to read
    for kind, message in (("hexagon", "unknown points kind"), ("csv", "csv points need a path")):
        rc = main(["gen", "--kind", kind, "--radius", "3",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()
    # a radius that is not positive and finite is refused before any enumeration
    for kind, extra in (("lattice", ["--basis", "1,0,0,1"]), ("fibonacci", []),
                        ("symmetrized_sparse", [])):
        for radius in ("nan", "inf", "0"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
                rc = main(["gen", "--kind", kind, *extra, "--radius", radius,
                           "--out", str(tmp_path / "x.csv")])
            assert rc == 2, (kind, radius)
            err = capsys.readouterr().err
            assert "radius must be positive and finite" in err and "Traceback" not in err
            assert not (tmp_path / "x.csv").exists()


def test_gabor_guard_exits_2(tmp_path, capsys):
    pts = tmp_path / "nodes.csv"
    assert main(["gen", "--kind", "lattice", "--basis", "2,0,0,1",
                 "--radius", "6", "--out", str(pts)]) == 0
    rc = main(["gabor", "frame-bounds", "--points", str(pts), "--hermite-N", "60"])
    assert rc == 2
    assert "guard" in capsys.readouterr().err


def test_gabor_riesz_and_dual_refuse_a_truncation_inside_the_margin(tmp_path, capsys):
    pts = tmp_path / "nodes.csv"
    assert main(["gen", "--kind", "lattice", "--basis", "1,0,0,1",
                 "--radius", "1.5", "--out", str(pts)]) == 0
    for cmd in ("riesz", "dual"):
        assert main(["gabor", cmd, "--points", str(pts)]) == 2
        assert "riesz margin 2.0 exceeds the truncation radius 1.5" in capsys.readouterr().err
    # a truncation past the margin with every point near its edge leaves no family
    ql.save_pointset(ql.from_points([[2.5, 0.0], [-2.5, 1.0]], 2, 2.5), pts)
    for cmd in ("riesz", "dual"):
        assert main(["gabor", cmd, "--points", str(pts)]) == 2
        assert "the riesz margin 2 leaves no interior point" in capsys.readouterr().err


def test_padic_commands(tmp_path):
    out = tmp_path / "padic.json"
    rc = main(["padic", "density", "-p", "2", "-w", "1", "-n", "6",
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["density"] == "2"
    rc = main(["padic", "cover", "-p", "2", "-w", "1", "-n", "3", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["k"] == 2


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


def test_run_refuses_a_name_that_leaves_the_out_dir(tmp_path, capsys):
    # a report is written to <out-dir>/<name>.json, so a name that is a path
    # would write beside or below the directory; nothing runs or prints first
    out_dir = tmp_path / "reports"
    for name in ("..", ".", "../evil", "sub/x", "a\\b"):
        cfg = tmp_path / "named.cfg"
        cfg.write_text(TINY_SCENARIO.replace("name = cli-tiny", f"name = {name}"))
        assert main(["run", str(cfg), "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"[scenario] name = {name!r}: " in captured.err
    assert sorted(os.listdir(tmp_path)) == ["named.cfg"]
    with pytest.raises(ql.ScenarioValidationError, match="name"):
        ql.scenarios.parse_value("scenario", "name", "")


def test_run_refuses_two_targets_with_one_report_file(tmp_path, capsys):
    # both cfgs leave name at its default, so both reports would be unnamed.json
    out_dir = tmp_path / "reports"
    paths = []
    for i in range(2):
        paths.append(str(tmp_path / f"t{i}.cfg"))
        pathlib.Path(paths[-1]).write_text(TINY_SCENARIO.replace("name = cli-tiny\n", ""))
    for targets, report in ((paths, "unnamed"), (["lattice-riesz-2"] * 2, "lattice-riesz-2")):
        assert main(["run", *targets, "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"two targets would write {out_dir / report}.json" in captured.err
    assert not out_dir.exists()
    assert main(["run", *paths]) == 0  # without --out-dir nothing is overwritten


def test_run_failing_scenario_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_SCENARIO +
                   "\n[approx]\nsumset_radius = 4\n"
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
    for block, missing in (("[approx]\n", "[approx] missing sumset_radius"),
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
    assert "unknown builtin scenario 'definitely-not-a-scenario'" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["dir/missing.cfg", "missing.cfg", "dir/missing"])
def test_run_missing_path_names_the_file(tmp_path, capsys, monkeypatch, target):
    # a target with a path separator or a .cfg suffix is a path, not a builtin name
    monkeypatch.chdir(tmp_path)
    assert main(["run", target]) == 2
    err = capsys.readouterr().err
    assert f"scenario file not found: {target}" in err and "builtin" not in err


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
                   "hermite_n = 20\n")
    report = ql.run_scenario(ql.parse_scenario(cfg))
    assert set(report.results["gabor"]) >= {"frame", "riesz", "dual", "hap", "complete"}

    pts = tmp_path / "nodes.csv"
    assert main(["gen", "--kind", "lattice", "--basis", "1,0,0,1",
                 "--radius", "9", "--out", str(pts)]) == 0
    flags = {"frame-bounds": ["--hermite-N", "20"], "riesz": [], "dual": [], "hap": [],
             "complete": []}
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
