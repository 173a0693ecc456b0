import json
import re

import numpy as np
import pytest

import quasilat as ql
from quasilat.cli import main
from quasilat.scenarios import SECTION_KEYS, build_point_source, validate_scenario

TINY = """
[scenario]
name = tiny-line

[points]
kind = lattice
basis = 1

[density]
radii = 2, 4
truncation = 10
"""


def write_cfg(tmp_path, text, name="sc.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_builtin_listing():
    names = ql.builtin_scenario_names()
    assert len(names) >= 8
    assert any("fibonacci-gabor" in n for n in names)
    assert any("symmetrized" in n for n in names)
    assert names == sorted(names)
    path = ql.builtin_scenario_path(names[0])
    sc = ql.parse_scenario(path)
    assert sc.name
    with pytest.raises(ql.ScenarioValidationError):
        ql.builtin_scenario_path("no-such-scenario")


def test_parse_and_run_tiny_scenario(tmp_path):
    sc = ql.parse_scenario(write_cfg(tmp_path, TINY))
    assert sc.name == "tiny-line"
    assert sc.slack == 0.05
    report = ql.run_scenario(sc)
    assert report.passed
    names = [v["name"] for v in report.verdicts]
    assert "density_matches_formula" in names
    blob = json.loads(report.to_json())
    assert blob["provenance"]["package"] == "quasilat"
    assert all(line.startswith(("PASS", "FAIL")) for line in report.verdict_lines())


def test_settings_hash_deterministic(tmp_path):
    path = write_cfg(tmp_path, TINY)
    h1 = ql.run_scenario(ql.parse_scenario(path)).provenance["settings_hash"]
    h2 = ql.run_scenario(ql.parse_scenario(path)).provenance["settings_hash"]
    assert h1 == h2


def test_parse_rejects_missing_pieces(tmp_path):
    with pytest.raises(ql.ScenarioValidationError, match="not found"):
        ql.parse_scenario(tmp_path / "absent.cfg")
    with pytest.raises(ql.ScenarioValidationError, match="scenario"):
        ql.parse_scenario(write_cfg(tmp_path, "[points]\nkind = lattice\n"))
    no_points = "[scenario]\nname = x\n"
    with pytest.raises(ql.ScenarioValidationError, match="points"):
        ql.parse_scenario(write_cfg(tmp_path, no_points))
    bad_kind = TINY.replace("kind = lattice", "kind = hexagon")
    with pytest.raises(ql.ScenarioValidationError, match="kind"):
        ql.parse_scenario(write_cfg(tmp_path, bad_kind))
    no_radii = TINY.replace("radii = 2, 4", "")
    with pytest.raises(ql.ScenarioValidationError, match="radii"):
        ql.parse_scenario(write_cfg(tmp_path, no_radii))
    shallow = TINY.replace("truncation = 10", "truncation = 3")
    with pytest.raises(ql.ScenarioValidationError, match="truncation"):
        ql.parse_scenario(write_cfg(tmp_path, shallow))
    no_basis = TINY.replace("basis = 1\n", "")
    with pytest.raises(ql.ScenarioValidationError, match="basis"):
        ql.parse_scenario(write_cfg(tmp_path, no_basis))
    no_base_radius = TINY + "\n[approx]\nsumset_radius = 2\n"
    with pytest.raises(ql.ScenarioValidationError, match="base_radius"):
        ql.parse_scenario(write_cfg(tmp_path, no_base_radius))


FULL = TINY + """
[approx]
base_radius = 8
sumset_radius = 4

[gabor]
radius = 8
checks = riesz
"""

PADIC = """
[scenario]
name = tiny-padic

[padic]
p = 2
w = 1
n_max = 3
"""


def test_each_required_key_is_checked(tmp_path, capsys):
    for base in (FULL, PADIC):
        ql.parse_scenario(write_cfg(tmp_path, base))
    checked = 0
    for section, (required, _) in SECTION_KEYS.items():
        for key in required:
            base = PADIC if section == "padic" else FULL
            lines = base.splitlines()
            kept = [ln for ln in lines if ln.partition("=")[0].strip() != key]
            assert len(kept) == len(lines) - 1, (section, key)
            path = write_cfg(tmp_path, "\n".join(kept) + "\n")
            match = re.escape(f"[{section}] missing {key}")
            with pytest.raises(ql.ScenarioValidationError, match=match):
                ql.parse_scenario(path)
            assert main(["run", str(path)]) == 2
            assert f"[{section}] missing {key}" in capsys.readouterr().err
            checked += 1
    assert checked == 9


def test_parse_rejects_inconsistent_gabor(tmp_path):
    guard = TINY + "\n[gabor]\nradius = 8\nchecks = frame\nhermite_N = 60\n"
    with pytest.raises(ql.ScenarioValidationError, match="guard"):
        ql.parse_scenario(write_cfg(tmp_path, guard))
    hap_box = TINY + ("\n[gabor]\nradius = 8\nchecks = hap\n"
                      "hap_box = 7.5\nhap_x_extent = 1\n")
    with pytest.raises(ql.ScenarioValidationError, match="hap box"):
        ql.parse_scenario(write_cfg(tmp_path, hap_box))
    misspelled = TINY + "\n[gabor]\nradius = 8\nchecks = riesz, reisz\n"
    with pytest.raises(ql.ScenarioValidationError, match="unknown gabor checks.*reisz"):
        ql.parse_scenario(write_cfg(tmp_path, misspelled))
    no_radius = TINY + "\n[gabor]\nchecks = riesz\n"
    with pytest.raises(ql.ScenarioValidationError, match="missing radius"):
        ql.parse_scenario(write_cfg(tmp_path, no_radius))


def test_parse_rejects_unknown_sections_and_keys(tmp_path):
    gabor = "\n[gabor]\nradius = 8\nchecks = riesz\n"
    assert ql.parse_scenario(write_cfg(tmp_path, TINY + gabor)).gabor["radius"] == "8"
    cases = [(TINY + gabor + "riesz_margn = 5\n", "riesz_margn.*\\[gabor\\]"),
             (TINY + gabor + "[expect]\nfram = true\n", "fram.*\\[expect\\]"),
             (TINY + gabor + "grid_t = 16\n", "grid_t.*\\[gabor\\]"),  # stale
             (TINY.replace("basis = 1", "basis = 1\nradius = 8"), "radius.*\\[points\\]"),
             (TINY.replace("truncation = 10", "truncation = 10\nradi = 3"),
              "radi.*\\[density\\]"),
             (TINY + "\n[gabbor]\nradius = 8\n", "unknown section \\[gabbor\\]")]
    for text, match in cases:
        with pytest.raises(ql.ScenarioValidationError, match=match):
            ql.parse_scenario(write_cfg(tmp_path, text))


def test_validate_padic_requirements():
    sc = ql.Scenario("x", {}, {}, padic={"p": "2", "w": "1"})
    with pytest.raises(ql.ScenarioValidationError, match="n_max"):
        validate_scenario(sc)


def test_point_source_recipes():
    lat = build_point_source({"kind": "lattice", "basis": "2, 0, 0, 1"}, 5.0)
    assert lat["basis"] == [[2.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ql.ScenarioValidationError, match="dim"):
        build_point_source({"kind": "lattice", "basis": "1, 2, 3"}, 5.0)

    fib = build_point_source({"kind": "fibonacci", "window": "1.0"}, 20.0)
    ps = ql.regenerate(fib)
    assert ps.dim == 1 and len(ps) > 0

    sym = build_point_source({"kind": "symmetrized_sparse", "q": "4"}, 12.0)
    base_pts = np.array(sym["base"]["points"])
    np.testing.assert_allclose(base_pts[:, 0] * 4.0, base_pts[:, 1])
    assert sym["sublattice_basis"] == [[4.0, 0.0], [0.0, 1.0]]

    with pytest.raises(ql.ScenarioValidationError):
        build_point_source({"kind": "hexagon"}, 5.0)


def test_expected_flag_mismatch_fails(tmp_path):
    # pin an expectation that cannot hold: a 1d lattice cover has k = 1
    text = TINY + "\n[approx]\nbase_radius = 8\nsumset_radius = 4\n[expect]\nk = 2\n"
    report = ql.run_scenario(ql.parse_scenario(write_cfg(tmp_path, text)))
    assert not report.passed
    failed = [v for v in report.verdicts if not v["passed"]]
    assert any(v["name"] == "expected_k" for v in failed)
