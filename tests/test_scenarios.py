import configparser
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasilat as ql
from quasilat.cli import main
from quasilat.pointset import DEDUP_TOL
from quasilat.scenarios import (REQUIRED, SECTION_KEYS, _run_subadditivity, parse_section,
                                point_kind)

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
    # a [scenario] header with no keys takes the defaults
    unnamed = write_cfg(tmp_path, TINY.replace("name = tiny-line", ""))
    assert ql.parse_scenario(unnamed).name == "unnamed"


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


FULL = TINY + """
[approx]
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
    for section, rows in SECTION_KEYS.items():
        for key in [k for k, (_, default) in rows.items() if default is REQUIRED]:
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
    assert checked == 8


def test_parse_rejects_inconsistent_gabor(tmp_path):
    guard = TINY + "\n[gabor]\nradius = 8\nchecks = frame\nhermite_N = 60\n"
    with pytest.raises(ql.ScenarioValidationError, match="guard"):
        ql.parse_scenario(write_cfg(tmp_path, guard))
    hap_box = TINY + "\n[gabor]\nradius = 6.5\nchecks = hap\n"  # the box reaches 7
    with pytest.raises(ql.ScenarioValidationError, match="hap box"):
        ql.parse_scenario(write_cfg(tmp_path, hap_box))
    misspelled = TINY + "\n[gabor]\nradius = 8\nchecks = riesz, reisz\n"
    with pytest.raises(ql.ScenarioValidationError, match="unknown gabor checks.*reisz"):
        ql.parse_scenario(write_cfg(tmp_path, misspelled))
    no_radius = TINY + "\n[gabor]\nchecks = riesz\n"
    with pytest.raises(ql.ScenarioValidationError, match="missing radius"):
        ql.parse_scenario(write_cfg(tmp_path, no_radius))
    twice = TINY + "\n[gabor]\nradius = 8\nchecks = riesz, hap, riesz\n"
    with pytest.raises(ql.ScenarioValidationError, match="\\['riesz'\\] are listed more than once"):
        ql.parse_scenario(write_cfg(tmp_path, twice))
    assert main(["run", str(write_cfg(tmp_path, twice))]) == 2


def test_parse_rejects_unknown_sections_and_keys(tmp_path):
    gabor = "\n[gabor]\nradius = 8\nchecks = riesz\n"
    assert ql.parse_scenario(write_cfg(tmp_path, TINY + gabor)).gabor["radius"] == 8.0
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


def test_retired_keys_are_unknown(tmp_path, capsys):
    # each key was only ever set to one value: the cover base is twice
    # sumset_radius, coverage_tol is COVERAGE_TOL, the frame sweep steps by 10,
    # a p-adic cover may have at most 3 translates, and the Riesz margin, HAP
    # grid, probe count and density tolerance are the scenarios module's constants
    cases = [(FULL.replace("sumset_radius = 4", "sumset_radius = 4\nbase_radius = 8"),
              "approx", "base_radius"),
             (FULL.replace("sumset_radius = 4", "sumset_radius = 4\ncoverage_tol = 1e-6"),
              "approx", "coverage_tol"),
             (PADIC + "max_k = 3\n", "padic", "max_k"),
             (TINY + "\n[expect]\ndensity_rtol = 0.02\n", "expect", "density_rtol")]
    for key, value in (("hermite_step", 10), ("riesz_margin", 2), ("hap_box", 6),
                       ("hap_x_extent", 1.0), ("hap_x_count", 5), ("probe_count", 10)):
        cases.append((FULL.replace("checks = riesz", f"checks = riesz\n{key} = {value}"),
                      "gabor", key))
    for text, section, key in cases:
        path = write_cfg(tmp_path, text)
        message = f"unknown keys ['{key}'] in [{section}]"
        with pytest.raises(ql.ScenarioValidationError, match=re.escape(message)):
            ql.parse_scenario(path)
        assert main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_validate_padic_requirements(tmp_path):
    path = write_cfg(tmp_path, PADIC.replace("n_max = 3\n", ""))
    with pytest.raises(ql.ScenarioValidationError, match="n_max"):
        ql.parse_scenario(path)


def test_booleans_take_configparser_words_only(tmp_path, capsys):
    cases = [("[expect] frame", lambda v: TINY + "\n[gabor]\nradius = 10\nchecks = frame\n"
              f"\n[expect]\nframe = {v}\n")]
    for key, cfg in cases:
        for word in ("ture", "treu", "flase", "2", "y", ""):
            path = write_cfg(tmp_path, cfg(word))
            if key == "[expect] frame" and not word:
                ql.parse_scenario(path)  # an empty flag pins nothing
                continue
            with pytest.raises(ql.ScenarioValidationError, match=re.escape(key)):
                ql.parse_scenario(path)
            assert main(["run", str(path)]) == 2
            assert f"{key} = {word!r}: not a boolean" in capsys.readouterr().err
        for word in ("1", "0", "yes", "No", "TRUE", "false", "On", "oFF"):
            ql.parse_scenario(write_cfg(tmp_path, cfg(word)))


def test_padic_scenario_refuses_other_sections(tmp_path, capsys):
    blocks = {"points": "kind = lattice\nbasis = 1\n",
              "density": "radii = 2, 4\ntruncation = 10\n",
              "approx": "sumset_radius = 4\n",
              "gabor": "radius = 6\nchecks = riesz\n",
              "expect": "k = 1\n"}
    for section, body in blocks.items():
        path = write_cfg(tmp_path, PADIC + f"\n[{section}]\n{body}")
        with pytest.raises(ql.ScenarioValidationError, match=re.escape(f"found [{section}]")):
            ql.parse_scenario(path)
        assert main(["run", str(path)]) == 2
        assert f"[{section}]" in capsys.readouterr().err
    path = write_cfg(tmp_path, PADIC + "".join(f"\n[{s}]\n{b}" for s, b in blocks.items()))
    with pytest.raises(ql.ScenarioValidationError,
                       match=re.escape("found [points], [density], [approx], [gabor], [expect]")):
        ql.parse_scenario(path)
    for name in ("padic-2", "padic-3-half"):
        assert ql.parse_scenario(ql.builtin_scenario_path(name)).padic


def test_point_source_recipes(tmp_path):
    def points(**written):
        return parse_section("points", written)
    lat = point_kind(points(kind="lattice", basis="2, 0, 0, 1"))[0](5.0)
    assert lat.source["basis"] == [[2.0, 0.0], [0.0, 1.0]]
    # only product kinds have factors: a swap-symmetric basis is not diagonal
    assert point_kind(points(kind="lattice", basis="0.7, 0.2, 0.2, 0.7"))[3] is None
    assert point_kind(points(kind="symmetrized_sparse", q="4"))[3] is None
    ql.save_pointset(lat, tmp_path / "lat.csv")
    assert point_kind(points(kind="csv", path=str(tmp_path / "lat.csv")))[3] is None
    with pytest.raises(ql.ScenarioValidationError, match="dim"):
        points(kind="lattice", basis="1, 2, 3")  # the basis parser refuses it

    ps = point_kind(points(kind="fibonacci", window="1.0"))[0](20.0)
    assert ps.dim == 1 and len(ps) > 0

    sym = point_kind(points(kind="symmetrized_sparse", q="4"))[0](12.0)
    base_pts = np.array(sym.source["base"]["points"])
    np.testing.assert_allclose(base_pts[:, 0] * 4.0, base_pts[:, 1])
    assert sym.source["sublattice_basis"] == [[4.0, 0.0], [0.0, 1.0]]

    with pytest.raises(ql.ScenarioValidationError):
        point_kind(points(kind="hexagon"))


def test_expected_flag_mismatch_fails(tmp_path):
    # pin an expectation that cannot hold: a 1d lattice cover has k = 1
    text = TINY + "\n[approx]\nsumset_radius = 4\n[expect]\nk = 2\n"
    report = ql.run_scenario(ql.parse_scenario(write_cfg(tmp_path, text)))
    assert not report.passed
    failed = [v for v in report.verdicts if not v["passed"]]
    assert any(v["name"] == "expected_k" for v in failed)


def test_refused_cfgs_run_nothing(tmp_path, capsys, monkeypatch):
    # subadditivity runs for every symmetrize recipe and the p-adic cover
    # always, so neither takes a switch; an [expect] flag needs its check
    ran = []
    monkeypatch.setattr(ql.cli, "run_scenario", ran.append)
    cases = [(TINY.replace("truncation = 10", "truncation = 10\nsubadditivity = true"),
              "unknown keys ['subadditivity'] in [density]"),
             (PADIC + "cover = true\n", "unknown keys ['cover'] in [padic]"),
             (FULL + "\n[expect]\nriesz = true\nhap = true\n",
              "[expect] hap pins the flag of the hap check")]
    for text, message in cases:
        path = write_cfg(tmp_path, text)
        with pytest.raises(ql.ScenarioValidationError, match=re.escape(message)):
            ql.parse_scenario(path)
        assert main(["run", "lattice-riesz-2", str(path)]) == 2
        captured = capsys.readouterr()
        assert ran == [] and captured.out == ""
        assert message in captured.err
    # an empty flag pins nothing, so it needs no check
    ql.parse_scenario(write_cfg(tmp_path, FULL + "\n[expect]\nriesz = true\nhap =\n"))


def test_expect_pins_need_what_they_pin(tmp_path, capsys, monkeypatch):
    # an [expect] key that nothing would check is refused before anything runs
    ran = []
    monkeypatch.setattr(ql.cli, "run_scenario", ran.append)
    sparse = TINY.replace("basis = 1", "q = 4").replace("lattice", "symmetrized_sparse")
    cases = [(TINY + "\n[expect]\nframe = true\n",
              "[expect] frame pins the flag of the frame check"),
             (TINY + "\n[expect]\nk = 1\n",
              "[expect] k pins the cover size k, which needs an [approx] block")]
    for text, message in cases:
        path = write_cfg(tmp_path, text)
        with pytest.raises(ql.ScenarioValidationError, match=re.escape(message)):
            ql.parse_scenario(path)
        assert main(["run", "lattice-riesz-2", str(path)]) == 2
        captured = capsys.readouterr()
        assert ran == [] and captured.out == ""
        assert message in captured.err
    ql.parse_scenario(write_cfg(tmp_path, sparse))


def _with_value(text, section, key, value):
    """The cfg text with [section] key set to value; the section is added if absent."""
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read_string(text)
    if not cfg.has_section(section):
        cfg.add_section(section)
    cfg[section][key] = value
    out = io.StringIO()
    cfg.write(out)
    return out.getvalue()


def test_expect_values_parse_before_anything_runs(tmp_path, capsys, monkeypatch):
    # a value that does not parse is refused at parse time, so no earlier
    # target runs first: [expect] k, a junk value ("junk/", which only str
    # takes) for every key whose parser can refuse one, the [padic] prime and depth checks, a %
    # (cfgs are read without interpolation, so it is the parser that refuses),
    # box radii that FolnerBoxes refuses and radii that are not positive and finite;
    # a Fibonacci window that is not positive and finite, a q whose sublattice
    # diag(q, 1) is degenerate, and a Riesz margin beyond the [gabor] radius
    ran = []
    monkeypatch.setattr(ql.cli, "run_scenario", ran.append)
    approx = TINY + "\n[approx]\nsumset_radius = 2\n"
    cases = [(approx + "\n[expect]\nk = two\n", "[expect] k = "),
             (approx + "\n[expect]\nk = 2.0\n", "[expect] k = "),
             (PADIC.replace("p = 2", "p = 4"), "[padic] p = 4 is not prime"),
             (PADIC.replace("n_max = 3", "n_max = -1"), "[padic] n_max must be nonnegative"),
             (TINY.replace("truncation = 10", "truncation = 10 %"),
              "[density] truncation = '10 %': ")]
    for radii in ("5, 3", "-1, 2", ",", "nan"):
        cases.append((TINY.replace("radii = 2, 4", f"radii = {radii}"),
                      f"[density] radii = '{radii}': "))
    for truncation in ("inf", "nan"):
        cases.append((TINY.replace("truncation = 10", f"truncation = {truncation}"),
                      f"[density] truncation = '{truncation}': "))
    cases += [(approx.replace("sumset_radius = 2", "sumset_radius = 0"),
               "[approx] sumset_radius = '0': "),
              (TINY + "\n[gabor]\nradius = -2\nchecks = riesz\n", "[gabor] radius = '-2': ")]
    fibonacci = TINY.replace("kind = lattice", "kind = fibonacci")
    for window in ("nan", "inf"):
        cases.append((fibonacci.replace("basis = 1", f"window = {window}"),
                      "[points] window half-width must be positive and finite"))
    sparse = TINY.replace("kind = lattice", "kind = symmetrized_sparse")
    for q in ("0", "nan", "inf", "-inf"):
        cases.append((sparse.replace("basis = 1", f"q = {q}"), "[points] degenerate lattice"))
    for check in ("riesz", "dual"):
        cases.append((TINY + f"\n[gabor]\nradius = 1.5\nchecks = {check}\n",
                      "[gabor] riesz margin 2.0 exceeds the truncation radius 1.5"))
    for section, rows in SECTION_KEYS.items():
        for key, (parse, _) in rows.items():
            if parse is not str:  # a str value is never refused
                base = PADIC if section == "padic" else FULL
                cases.append((_with_value(base, section, key, "junk/"),
                              f"[{section}] {key} = 'junk/': "))
    assert len(cases) == 21 + 22
    for text, message in cases:
        path = write_cfg(tmp_path, text)
        with pytest.raises(ql.ScenarioValidationError, match=re.escape(message)):
            ql.parse_scenario(path)
        assert main(["run", "lattice-riesz-2", str(path)]) == 2
        captured = capsys.readouterr()
        assert ran == [] and captured.out == ""
        assert message in captured.err
    ql.parse_scenario(write_cfg(tmp_path, approx + "\n[expect]\nk = 2\n"))


K_FROM_COVER = """
[scenario]
name = k-from-cover

[points]
kind = fibonacci_product
window = 1
beta = 0.5

[density]
radii = 10, 20
truncation = 30

[approx]
sumset_radius = 4

[gabor]
radius = 8
checks = complete
"""


def test_k_comes_from_the_cover(tmp_path):
    # the window-1 Fibonacci product is a 2-approximate lattice; a pin only
    # checks the cover's k and never replaces it in the completeness bound.
    # density_matches_formula is not asserted: these radii are too short for it
    for pin, pin_holds in (("", None), ("\n[expect]\nk = 1\n", False)):
        report = ql.run_scenario(ql.parse_scenario(write_cfg(tmp_path, K_FROM_COVER + pin)))
        assert report.results["approx"]["k"] == 2
        assert report.results["approx"]["k_minimal"] is True
        verdicts = {v["name"]: v for v in report.verdicts}
        complete = verdicts["complete_proxy_lower_density"]
        assert complete["inequality"].endswith("/ k")
        assert complete["rhs"] == pytest.approx(0.95 / 2, rel=1e-12)
        if pin_holds is None:
            assert "expected_k" not in verdicts
        else:
            assert verdicts["expected_k"]["passed"] is pin_holds
            assert (verdicts["expected_k"]["lhs"], verdicts["expected_k"]["rhs"]) == (2, 1)


def test_complete_needs_a_lattice_or_a_cover(tmp_path, capsys, monkeypatch):
    # D_minus >= d_pi / k is proven for k-approximate lattices: a kind that is
    # not a lattice needs [approx] for its k, else it would be tested as if k = 1
    ran = []
    monkeypatch.setattr(ql.cli, "run_scenario", ran.append)
    sparse = TINY.replace("kind = lattice", "kind = symmetrized_sparse").replace("basis = 1",
                                                                                "q = 4")
    gabor = "\n[gabor]\nradius = 8\nchecks = hap, complete\n"
    no_cover = K_FROM_COVER.replace("[approx]\nsumset_radius = 4\n", "")
    message = "[gabor] checks lists complete, whose bound D_minus >= d_pi / k holds for"
    for text in (sparse + gabor, no_cover):
        path = write_cfg(tmp_path, text)
        with pytest.raises(ql.ScenarioValidationError, match=re.escape(message)):
            ql.parse_scenario(path)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert ran == [] and captured.out == ""
        assert message in captured.err
    square = TINY.replace("basis = 1", "basis = 1, 0, 0, 1")
    for text in (square + gabor, sparse + gabor.replace(", complete", ""), K_FROM_COVER):
        ql.parse_scenario(write_cfg(tmp_path, text))


def test_dual_on_a_non_minimal_set_clears_the_flag(tmp_path, monkeypatch):
    # (1/sqrt2) Z^2 has density 2: its Gram is numerically singular, so no dual
    text = """
[scenario]
name = dual-half

[points]
kind = lattice
basis = 0.7071067811865476, 0, 0, 0.7071067811865476

[density]
radii = 10, 20
truncation = 30

[gabor]
radius = 6
checks = dual

[expect]
minimal = false
"""
    monkeypatch.setattr(ql.scenarios, "DENSITY_RTOL", 0.05)
    report = ql.run_scenario(ql.parse_scenario(write_cfg(tmp_path, text)))
    assert report.passed
    block = report.results["gabor"]["dual"]
    assert block["delta"] <= 1e-2
    assert block["B_sup"] is block["biorth_residual"] is None
    assert "delta_times_max_dual_norm" not in block  # delta sqrt(B_sup) is 1 by definition
    verdict = {v["name"]: v for v in report.verdicts}["minimal_upper_density"]
    assert not verdict["flagged"] and verdict["passed"]
    assert main(["run", str(write_cfg(tmp_path, text))]) == 0


def test_dual_and_complete_blocks_decompose_once(monkeypatch):
    # the dual block takes delta from the dual's own eigh of the Gram, singular or
    # not, and the complete block its shapes from the split completeness_residual solved on
    system = ql.GaborSystem(ql.lattice_points_in_box(ql.Lattice(np.diag([2.0, 1.0])), 4.0))
    delta = ql.uniform_min_delta(system)
    # 0.5 Z^2 has a singular Gram: 169 atoms at radius 3, whose least eigenvalue
    # rounds below 0 (delta 0), and 25 at radius 1, whose delta is positive
    singular = [ql.GaborSystem(ql.lattice_points_in_box(ql.Lattice(0.5 * np.eye(2)), r))
                for r in (3.0, 1.0)]
    singular_deltas = [ql.uniform_min_delta(s) for s in singular]
    assert singular_deltas[1] > 0.0
    eighs, splits = [], []
    eigh, split = np.linalg.eigh, ql.gabor._split_problems
    monkeypatch.setattr(np.linalg, "eigh", lambda G: eighs.append(G.shape) or eigh(G))
    monkeypatch.setattr(ql.gabor, "_split_problems", lambda p: splits.append(len(p)) or split(p))
    dual, _ = ql.scenarios.GABOR_CHECKS["dual"][0](system, {})
    complete, _ = ql.scenarios.GABOR_CHECKS["complete"][0](system, {})
    assert (len(eighs), len(splits)) == (1, 1)
    assert dual["delta"] == delta
    assert complete["max_residual"] == ql.completeness_residual(system, complete["probe_count"])
    for family, want in zip(singular, singular_deltas):
        eighs.clear()
        block, flag = ql.scenarios.GABOR_CHECKS["dual"][0](family, {})
        assert eighs == [(len(family.points),) * 2]
        assert block == {"B_sup": None, "biorth_residual": None, "delta": want} and not flag


def test_lattice_frame_half_hap_is_one_solve():
    # every x-grid point of the builtin sees the same 17 x 17 block of the
    # lattice once centred, so the 25 residuals share one class split
    sc = ql.parse_scenario(ql.builtin_scenario_path("lattice-frame-half"))
    hap = ql.run_scenario(sc).results["gabor"]["hap"]
    assert (hap["solves"], hap["rotation_order"], hap["reflection_axis"]) == (1, 4, 0.0)
    assert hap["max_residual"] < 1e-14


def _box_counts(points, centres, radius):
    """Brute-force count of points in each closed box centre + [-radius, radius]^2."""
    inside = np.abs(points[None, :, :] - centres[:, None, :]) <= radius + DEDUP_TOL
    return np.all(inside, axis=2).sum(axis=1)


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2.0, 3.0, 4.0, math.sqrt(2.0)]),
       halves=st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                       min_size=1, max_size=10),
       on_lattice=st.lists(st.tuples(st.integers(-1, 1), st.integers(-4, 4),
                                     st.sampled_from([0.0, 1e-15, -4e-10])), max_size=6),
       mirrored=st.integers(0, 16))
def test_subadditivity_excess_is_exact(q, halves, on_lattice, mirrored):
    # half-integer rows, rows on the sublattice q Z x Z and mirrored rows make
    # base, -base and the sublattice overlap; a shifted on-lattice row and
    # the multiples 2k/q against k q at q = sqrt 2 meet their lattice row
    # within DEDUP_TOL without being equal to it
    trunc, radii = 4.0, (1.0, 1.5)
    near = [(k * q + shift, m) for k, m, shift in on_lattice]
    near += [(2.0 * k / q, m) for k, m, _ in on_lattice]
    pts = np.vstack([np.array(halves) / 2.0, np.array(near).reshape(-1, 2)])
    base = ql.from_points(np.vstack([pts, -pts[:mirrored]]), dim=2, truncation_radius=trunc)
    sub = ql.Lattice(np.diag([q, 1.0]))
    union = ql.symmetrize(base, sub, trunc)
    dens = ql.density_scan(union, ql.FolnerBoxes(2, radii))
    results, verdicts = {}, []
    _run_subadditivity(ql.Scenario("x", {}, {}), union, base, sub, dens, results, verdicts)
    excess = results["subadditivity"]["max_excess_per_n"]
    assert results["subadditivity"]["D_plus_union"] == dens.D_plus

    neg = ql.from_points(-base.points, dim=2, truncation_radius=trunc)
    parts = [base, neg, ql.lattice_points_in_box(sub, trunc)]
    scan = dens.scan_region_radius
    sep = ql.min_separation(union.points)
    step = sep / 2.0 if math.isfinite(sep) else 1.0
    for r, got in zip(radii, excess):
        # the count along each axis changes only at p +- r: test every
        # breakpoint and every cell between two of them
        axes = []
        for j in range(2):
            coords = np.concatenate([ps.points[:, j] for ps in (union, *parts)])
            cuts = np.unique(np.clip(np.concatenate(
                [coords - r - DEDUP_TOL, coords + r + DEDUP_TOL, [-scan, scan]]),
                -scan, scan))
            axes.append(np.concatenate([cuts, (cuts[1:] + cuts[:-1]) / 2.0]))
        centres = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        brute = _box_counts(union.points, centres, r) - sum(
            _box_counts(ps.points, centres, r) for ps in parts if len(ps))
        assert got == int(brute.max())
        # the sep/2 grid samples a subset of the translates
        grid = ql.translate_count_grid(union, r, step, scan)[1] - sum(
            ql.translate_count_grid(ps, r, step, scan)[1] for ps in parts)
        assert got >= int(grid.max())
    assert verdicts[0]["name"] == "union_count_subadditivity"
    assert verdicts[0]["passed"] == (max(excess) <= 0)


def test_symmetrized_sparse_runs_at_irrational_q(tmp_path):
    # 2/q rounds one ulp below q = sqrt 2, so base row (2/q, 2) and sublattice
    # row (q, 2) merge in the union without being equal
    text = ("[scenario]\nname = sym-sqrt2\n[points]\nkind = symmetrized_sparse\n"
            "q = 1.4142135623730951\n[density]\nradii = 5, 10, 15\ntruncation = 60\n")
    report = ql.run_scenario(ql.parse_scenario(write_cfg(tmp_path, text)))
    verdicts = {v["name"]: v for v in report.verdicts}
    assert verdicts["union_count_subadditivity"]["passed"]
    assert verdicts["symmetrized_upper_density_bound"]["passed"]
    assert main(["run", str(write_cfg(tmp_path, text))]) == 0
