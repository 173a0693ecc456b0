"""Scenario harness: run a point-set recipe through density and spectral checks.

A scenario is an INI file (key=value with sections) describing a point set,
a density scan, optional covering and Gabor checks, and expected outcomes.
run_scenario evaluates every applicable consistency verdict: whenever a
spectral flag fires (frame, completeness proxy, homogeneous approximation,
Riesz, minimality), the corresponding density inequality must hold with the
configured slack.
"""

import configparser
import hashlib
import importlib.resources
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .approxcheck import find_cover_set, verify_cover
from .density import DensityReport, FolnerBoxes, density_scan, translate_count_grid
from .errors import ScenarioValidationError
from .gabor import (D_PI, GaborSystem, GridSpec, biorthogonal_dual,
                    completeness_residual, frame_bounds, gaussian_window,
                    hap_residual, hermite_basis, riesz_bounds, uniform_min_delta)
from .padic import PAdicModelSet, padic_cover_set, padic_density
from .pointset import (Lattice, from_points, lattice_points_in_box,
                       min_separation, regenerate, sumset_truncated, symmetrize)

# Decision thresholds for the spectral flags.
A_FLOOR = 1e-2          # frame / Riesz lower bounds below this do not count
COMPLETE_FLOOR = 1e-3   # max probe residual for the completeness proxy
HAP_FLOOR = 0.05        # max local approximation residual
DELTA_FLOOR = 1e-2      # uniform minimality gap
DEFAULT_SLACK = 0.05


@dataclass
class Scenario:
    name: str
    points: dict
    density: dict
    approx: dict = field(default_factory=dict)
    gabor: dict = field(default_factory=dict)
    padic: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    slack: float = DEFAULT_SLACK

    def to_dict(self):
        return {"name": self.name, "points": self.points, "density": self.density,
                "approx": self.approx, "gabor": self.gabor, "padic": self.padic,
                "expect": self.expect, "slack": self.slack}


def _section(cfg, name):
    return {k: v for k, v in cfg[name].items()} if cfg.has_section(name) else {}


def _floats(text):
    return [float(x) for x in str(text).replace(";", ",").split(",") if x.strip()]


def _get_bool(value):
    return str(value).strip().lower() in ("1", "true", "yes", "on")


def parse_scenario(path):
    """Read and validate a scenario cfg file."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = cfg.read(str(path))
    if not read:
        raise ScenarioValidationError(f"scenario file not found: {path}")
    if not cfg.has_section("scenario"):
        raise ScenarioValidationError("missing [scenario] section")
    name = cfg["scenario"].get("name", "unnamed")
    slack = float(cfg["scenario"].get("slack", DEFAULT_SLACK))
    sc = Scenario(name, _section(cfg, "points"), _section(cfg, "density"),
                  _section(cfg, "approx"), _section(cfg, "gabor"),
                  _section(cfg, "padic"), _section(cfg, "expect"), slack)
    validate_scenario(sc)
    return sc


def validate_scenario(sc):
    """Structural checks; raises ScenarioValidationError before any heavy work."""
    if sc.padic:
        for key in ("p", "w", "n_max"):
            if key not in sc.padic:
                raise ScenarioValidationError(f"[padic] missing {key}")
        return
    if not sc.points:
        raise ScenarioValidationError("missing [points] section")
    kind = sc.points.get("kind")
    if kind not in ("lattice", "fibonacci", "fibonacci_product",
                    "symmetrized_sparse", "csv"):
        raise ScenarioValidationError(f"unknown points kind: {kind!r}")
    if kind == "csv":
        import os
        if not os.path.exists(sc.points.get("path", "")):
            raise ScenarioValidationError(
                f"points csv does not exist: {sc.points.get('path')!r}")
    if not sc.density or "radii" not in sc.density:
        raise ScenarioValidationError("missing [density] radii")
    radii = _floats(sc.density["radii"])
    trunc = float(sc.density.get("truncation", 0) or 0)
    if kind != "csv" and trunc < max(radii):
        raise ScenarioValidationError("density truncation below largest box radius")
    if sc.gabor:
        radius = float(sc.gabor.get("radius", sc.points.get("radius", 0)))
        grid_T = float(sc.gabor.get("grid_t", sc.gabor.get("grid_T", 0)))
        grid_dt = float(sc.gabor.get("grid_dt", 0.01))
        if grid_T < 2.0 * radius:
            raise ScenarioValidationError("gabor grid_T must be at least twice the radius")
        if radius > 1.0 / (4.0 * grid_dt):
            raise ScenarioValidationError("gabor modulations exceed the 1/(4 dt) cap")
        checks = [c.strip() for c in sc.gabor.get("checks", "").split(",") if c.strip()]
        if "frame" in checks:
            n = int(sc.gabor.get("hermite_n", sc.gabor.get("hermite_N", 40)))
            if radius + 1e-9 < math.sqrt(n / math.pi) + 6.0:
                raise ScenarioValidationError(
                    "gabor radius below the test-basis guard margin sqrt(N/pi) + 6")
        if "hap" in checks:
            extent = float(sc.gabor.get("hap_x_extent", 1.0))
            box = float(sc.gabor.get("hap_box", 6.0))
            if extent + box > radius + 1e-9:
                raise ScenarioValidationError("hap box leaves the gabor truncation")


def _sparse_diagonal_points(q, radius):
    m_max = int(math.floor(radius + 1e-9))
    ms = np.arange(-m_max, m_max + 1, dtype=float)
    return np.stack([ms / q, ms], axis=1)


def build_point_source(points_cfg, radius):
    """Recipe dict for the scenario point set at the given truncation radius."""
    kind = points_cfg.get("kind")
    radius = float(radius)
    if kind == "lattice":
        basis = _floats(points_cfg["basis"])
        d = int(points_cfg.get("dim", round(math.isqrt(len(basis)))))
        if d * d != len(basis):
            raise ScenarioValidationError("lattice basis length must be dim^2")
        rows = [basis[i * d:(i + 1) * d] for i in range(d)]
        return {"kind": "lattice", "basis": rows, "radius": radius}
    if kind == "fibonacci":
        w = float(points_cfg.get("window", 1.0))
        tau = (1.0 + math.sqrt(5.0)) / 2.0
        return {"kind": "cut_and_project",
                "total_basis": [[1.0, tau], [1.0, 1.0 - tau]],
                "d": 1, "m": 1, "window": [w], "radius": radius}
    if kind == "fibonacci_product":
        w = float(points_cfg.get("window", 1.0))
        beta = float(points_cfg.get("beta", 0.5))
        tau = (1.0 + math.sqrt(5.0)) / 2.0
        return {"kind": "cut_and_project",
                "total_basis": [[1.0, tau, 0.0], [0.0, 0.0, beta],
                                [1.0, 1.0 - tau, 0.0]],
                "d": 2, "m": 1, "window": [w], "radius": radius}
    if kind == "symmetrized_sparse":
        q = float(points_cfg.get("q", 4))
        base_pts = _sparse_diagonal_points(q, radius)
        return {"kind": "symmetrize",
                "base": {"kind": "explicit", "points": base_pts.tolist(),
                         "truncation_radius": radius},
                "sublattice_basis": [[q, 0.0], [0.0, 1.0]],
                "radius": radius}
    if kind == "csv":
        from .pointset import load_pointset
        return load_pointset(points_cfg["path"]).source
    raise ScenarioValidationError(f"unknown points kind: {kind!r}")


def _intrinsic_density(source):
    """Exact density of a lattice or model-set recipe, None otherwise."""
    if source.get("kind") == "lattice":
        det = abs(float(np.linalg.det(np.array(source["basis"]))))
        return 1.0 / det
    if source.get("kind") == "cut_and_project":
        det = abs(float(np.linalg.det(np.array(source["total_basis"]))))
        measure = float(np.prod([2.0 * h for h in source["window"]]))
        return measure / det
    return None


def _verdict(name, inequality, flagged, lhs, rhs, passed, note=""):
    return {"name": name, "inequality": inequality, "flagged": bool(flagged),
            "lhs": lhs, "rhs": rhs, "passed": bool(passed), "note": note}


def _run_padic(sc):
    p = int(sc.padic["p"])
    n_max = int(sc.padic["n_max"])
    ms = PAdicModelSet.build(p, sc.padic["w"], n_max)
    dens = padic_density(ms)
    results = {"density": dens.to_dict()}
    verdicts = []
    target = 2 * dens.w
    verdicts.append(_verdict(
        "padic_density_formula", "density == 2w (exact extrapolation)", True,
        float(dens.density), float(target), dens.density == target))
    c_max = float(sc.padic.get("max_deviation", 1.0))
    c = float(dens.deviation_constant())
    verdicts.append(_verdict(
        "padic_ratio_deviation", "max_n |ratio_n - 2w| p^n <= c", True,
        c, c_max, c <= c_max + 1e-12))
    if _get_bool(sc.padic.get("cover", "true")):
        # Cover at depth min(n_max, 6) by default. The centres then lie in
        # (1/p^6) Z, the depth at which perfbench rechecks scenario covers;
        # a depth-12 centre such as 4097/4096 would fail that recheck.
        cover_n = int(sc.padic.get("cover_n_max", min(n_max, 6)))
        cover_ms = ms if cover_n == n_max else PAdicModelSet.build(
            p, sc.padic["w"], cover_n)
        cover = padic_cover_set(cover_ms)
        results["cover"] = cover.to_dict()
        k_max = int(sc.padic.get("max_k", 3))
        verdicts.append(_verdict(
            "padic_cover_size", "minimal cover size k <= k_max", True,
            cover.k, k_max, cover.verified and cover.k <= k_max))
    return results, verdicts


def _run_gabor(sc, results, verdicts, flags):
    gc = sc.gabor
    radius = float(gc.get("radius", sc.points.get("radius", 0)))
    grid = GridSpec(float(gc.get("grid_t", gc.get("grid_T"))),
                    float(gc.get("grid_dt", 0.01)))
    source = build_point_source(sc.points, radius)
    pts = regenerate(source)
    window = gaussian_window(grid)
    sys = GaborSystem(window, pts)
    out = {"radius": radius, "grid_T": grid.T, "grid_dt": grid.dt,
           "point_count": len(pts)}
    checks = [c.strip() for c in gc.get("checks", "").split(",") if c.strip()]

    if "frame" in checks:
        n = int(gc.get("hermite_n", gc.get("hermite_N", 40)))
        step = int(gc.get("hermite_step", 10))
        fb = frame_bounds(sys, n, n_step=step)
        out["frame"] = fb.to_dict()
        flags["frame"] = fb.converged and fb.A_est > A_FLOOR
    if "riesz" in checks:
        margin = float(gc.get("riesz_margin", 2.0))
        rb = riesz_bounds(sys, edge_margin=margin)
        out["riesz"] = rb.to_dict()
        flags["riesz"] = rb.A_est > A_FLOOR
    if "dual" in checks:
        margin = float(gc.get("riesz_margin", 2.0))
        interior = GaborSystem(window, pts.restrict(pts.truncation_radius - margin))
        dual = biorthogonal_dual(interior)
        delta = uniform_min_delta(interior)
        out["dual"] = {"B_sup": dual.B_sup, "biorth_residual": dual.biorth_residual,
                       "delta": delta,
                       "delta_times_max_dual_norm": delta * math.sqrt(dual.B_sup)}
        flags["minimal"] = delta > DELTA_FLOOR
    if "hap" in checks:
        box = float(gc.get("hap_box", 6.0))
        extent = float(gc.get("hap_x_extent", 1.0))
        count = int(gc.get("hap_x_count", 5))
        axis = np.linspace(-extent, extent, count)
        residuals = [[float(hap_residual(sys, window, (x1, x2), box))
                      for x2 in axis] for x1 in axis]
        out["hap"] = {"box_radius": box, "x_axis": [float(v) for v in axis],
                      "residuals": residuals,
                      "max_residual": float(np.max(residuals))}
        flags["hap"] = out["hap"]["max_residual"] < HAP_FLOOR
    if "complete" in checks:
        count = int(gc.get("probe_count", 10))
        probes = hermite_basis(grid, count)
        res = completeness_residual(sys, probes)
        out["complete"] = {"probe_count": count, "max_residual": res}
        flags["complete_proxy"] = res < COMPLETE_FLOOR
    results["gabor"] = out


def _run_subadditivity(sc, source, results, verdicts):
    """Exact per-translate count subadditivity for symmetrized unions."""
    if source.get("kind") != "symmetrize":
        raise ScenarioValidationError("subadditivity check needs a symmetrize recipe")
    radii = _floats(sc.density["radii"])
    union = regenerate(source)
    base = regenerate(source["base"])
    neg = from_points(-base.points, dim=base.dim,
                      truncation_radius=base.truncation_radius)
    lat = lattice_points_in_box(Lattice(np.array(source["sublattice_basis"])),
                                source["radius"])
    scan = union.truncation_radius - max(radii)
    step = float(sc.density.get("translate_step", 0) or 0)
    if step <= 0:
        sep = min_separation(union.points)
        step = sep / 2.0 if math.isfinite(sep) else 1.0
    worst = -10 ** 9
    per_n = []
    for r in radii:
        _, cu = translate_count_grid(union, r, step, scan)
        _, cb = translate_count_grid(base, r, step, scan)
        _, cn = translate_count_grid(neg, r, step, scan)
        _, cl = translate_count_grid(lat, r, step, scan)
        excess = int(np.max(cu - cb - cn - cl))
        per_n.append(excess)
        worst = max(worst, excess)
    results["subadditivity"] = {"radii": radii, "max_excess_per_n": per_n,
                                "translate_step": step, "scan_region_radius": scan}
    verdicts.append(_verdict(
        "union_count_subadditivity",
        "count(union in xK) <= count(base) + count(-base) + count(sublattice), all scanned (x, n)",
        True, worst, 0, worst <= 0))

    boxes = FolnerBoxes(union.dim, tuple(radii))
    du = density_scan(union, boxes, translate_step=step, scan_region_radius=scan)
    db = density_scan(base, boxes, translate_step=step, scan_region_radius=scan)
    dl = density_scan(lat, boxes, translate_step=step, scan_region_radius=scan)
    rhs = 2.0 * db.D_plus + dl.D_plus * (1.0 + sc.slack)
    verdicts.append(_verdict(
        "symmetrized_upper_density_bound",
        "D_plus(union) <= 2 D_plus(base) + D_plus(sublattice) (with slack)",
        True, du.D_plus, rhs, du.D_plus <= rhs))
    results["subadditivity"]["D_plus_union"] = du.D_plus
    results["subadditivity"]["D_plus_base"] = db.D_plus
    results["subadditivity"]["D_plus_sublattice"] = dl.D_plus


def run_scenario(sc):
    """Execute a scenario and return a Report."""
    results = {}
    verdicts = []
    flags = {}

    if sc.padic:
        results, verdicts = _run_padic(sc)
        return _finalize(sc, results, verdicts)

    radii = _floats(sc.density["radii"])
    trunc = float(sc.density.get("truncation", max(radii)))
    source = build_point_source(sc.points, trunc)
    ps = regenerate(source)
    boxes = FolnerBoxes(ps.dim, tuple(radii))
    step = sc.density.get("translate_step")
    step = float(step) if step else None
    dens = density_scan(ps, boxes, translate_step=step)
    results["density"] = dens.to_dict()
    results["density"]["point_count"] = len(ps)

    formula = _intrinsic_density(source)
    if formula is not None:
        rtol = float(sc.expect.get("density_rtol", 0.02))
        err = max(abs(dens.D_minus - formula), abs(dens.D_plus - formula)) / formula
        verdicts.append(_verdict(
            "density_matches_formula",
            "max(|D- - rho|, |D+ - rho|) / rho <= rtol, rho = window measure / covolume",
            True, err, rtol, err <= rtol,
            note=f"rho = {formula!r}"))

    k_eff = 1
    if sc.approx:
        base_r = float(sc.approx.get("base_radius"))
        sum_r = float(sc.approx.get("sumset_radius"))
        tol = float(sc.approx.get("coverage_tol", 1e-6))
        base = regenerate(build_point_source(sc.points, base_r))
        sumset = sumset_truncated(base, base, sum_r)
        cover = find_cover_set(sumset, base, coverage_tol=tol)
        ok = verify_cover(sumset, base, cover.defect_set, tol,
                          cover.verified_region_radius)
        results["approx"] = cover.to_dict()
        results["approx"]["reverified"] = ok
        k_eff = cover.k if cover.k >= 1 else 1
        if not ok:
            verdicts.append(_verdict("cover_reverified", "independent cover check",
                                     True, 0, 1, False))
    if "k" in sc.expect:
        k_eff = int(sc.expect["k"])

    if sc.gabor:
        _run_gabor(sc, results, verdicts, flags)

    if _get_bool(sc.density.get("subadditivity", "false")):
        _run_subadditivity(sc, source, results, verdicts)

    slack = sc.slack
    d_pi = D_PI
    if "frame" in flags:
        verdicts.append(_verdict(
            "frame_lower_density", "D_minus >= d_pi (1 - slack) / k",
            flags["frame"], dens.D_minus, d_pi * (1.0 - slack) / k_eff,
            (not flags["frame"]) or dens.D_minus >= d_pi * (1.0 - slack) / k_eff))
    if "complete_proxy" in flags:
        verdicts.append(_verdict(
            "complete_proxy_lower_density", "D_minus >= d_pi (1 - slack) / k",
            flags["complete_proxy"], dens.D_minus, d_pi * (1.0 - slack) / k_eff,
            (not flags["complete_proxy"])
            or dens.D_minus >= d_pi * (1.0 - slack) / k_eff))
    if "hap" in flags:
        verdicts.append(_verdict(
            "hap_lower_density", "D_minus >= d_pi (1 - slack)",
            flags["hap"], dens.D_minus, d_pi * (1.0 - slack),
            (not flags["hap"]) or dens.D_minus >= d_pi * (1.0 - slack)))
    if "riesz" in flags:
        verdicts.append(_verdict(
            "riesz_upper_density", "D_plus <= d_pi (1 + slack)",
            flags["riesz"], dens.D_plus, d_pi * (1.0 + slack),
            (not flags["riesz"]) or dens.D_plus <= d_pi * (1.0 + slack)))
    if "minimal" in flags:
        verdicts.append(_verdict(
            "minimal_upper_density", "D_plus <= d_pi (1 + slack)",
            flags["minimal"], dens.D_plus, d_pi * (1.0 + slack),
            (not flags["minimal"]) or dens.D_plus <= d_pi * (1.0 + slack)))

    for key, flag_name in (("frame", "frame"), ("riesz", "riesz"), ("hap", "hap"),
                           ("complete_proxy", "complete_proxy"),
                           ("minimal", "minimal")):
        if key in sc.expect and str(sc.expect[key]).strip() != "":
            want = _get_bool(sc.expect[key])
            got = flags.get(flag_name)
            verdicts.append(_verdict(
                f"expected_{key}", f"{flag_name} flag == expectation",
                True, got, want, got == want))
    if "k" in sc.expect and "approx" in results:
        want = int(sc.expect["k"])
        verdicts.append(_verdict("expected_k", "cover size k == expectation",
                                 True, results["approx"]["k"], want,
                                 results["approx"]["k"] == want))
    return _finalize(sc, results, verdicts)


@dataclass
class Report:
    scenario: dict
    results: dict
    verdicts: list
    passed: bool
    provenance: dict

    def to_dict(self):
        return {"scenario": self.scenario, "results": self.results,
                "verdicts": self.verdicts, "passed": self.passed,
                "provenance": self.provenance}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=1, sort_keys=True,
                          default=_json_default)

    def verdict_lines(self):
        lines = []
        for v in self.verdicts:
            status = "PASS" if v["passed"] else "FAIL"
            applic = "" if v["flagged"] else " (not flagged; vacuous)"
            lines.append(f"{status} {self.scenario['name']}::{v['name']}: "
                         f"lhs={v['lhs']!r} rhs={v['rhs']!r}{applic}")
        return lines


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _finalize(sc, results, verdicts):
    blob = json.dumps(sc.to_dict(), sort_keys=True).encode()
    provenance = {"package": "quasilat", "version": __version__,
                  "settings_hash": hashlib.sha256(blob).hexdigest(),
                  "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    passed = all(v["passed"] for v in verdicts)
    return Report(sc.to_dict(), results, verdicts, passed, provenance)


def builtin_scenario_names():
    root = importlib.resources.files("quasilat") / "scenarios"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def builtin_scenario_path(name):
    path = importlib.resources.files("quasilat") / "scenarios" / f"{name}.cfg"
    if not path.is_file():
        raise ScenarioValidationError(
            f"unknown builtin scenario {name!r}; have {builtin_scenario_names()}")
    return str(path)
