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
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .approxcheck import COVERAGE_TOL, checked_cover
from .density import FolnerBoxes, density_scan, extreme_counts
from .errors import NotMinimalError, ScenarioValidationError
from .gabor import (D_PI, FRAME_GUARD, GaborSystem, biorthogonal_dual,
                    completeness_residual, frame_bounds, hap_residual, reflection_angle,
                    riesz_bounds, rotation_order, solve_shapes, uniform_min_delta)
from .padic import PAdicModelSet, padic_cover_set, padic_density
from .pointset import (CutAndProjectScheme, Lattice, Window, fibonacci_scheme, from_points,
                       lattice_points_in_box, load_pointset, regenerate,
                       sumset_truncated)

# Decision thresholds for the spectral flags.
A_FLOOR = 1e-2          # frame / Riesz lower bounds below this do not count
COMPLETE_FLOOR = 1e-3   # max probe residual for the completeness proxy
HAP_FLOOR = 0.05        # max local approximation residual
DELTA_FLOOR = 1e-2      # uniform minimality gap
DEFAULT_SLACK = 0.05

# [gabor] option -> (default, least value, what a smaller one would mean); a
# cfg key or a CLI flag overrides the default, cast to the default's type.
GABOR_OPTIONS = {
    "hermite_n": (40, 1, "the test basis would be empty"),
    "hermite_step": (10, 1, "the frame sweep would not advance"),
    "riesz_margin": (2.0, 0, "the interior radius exceeds the truncation radius"),
    "hap_box": (6.0, 0, "the local box would be empty"),
    "hap_x_extent": (1.0, 0, "the x-grid would be reversed"),
    "hap_x_count": (5, 1, "the x-grid would be empty"),
    "probe_count": (10, 1, "there would be no probe")}

# Defaults of the [points] options; a cfg key or a gen flag overrides each one.
POINT_OPTIONS = {"window": 1.0, "beta": 0.5, "q": 4.0}


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


def _floats(text):
    return [float(x) for x in str(text).replace(";", ",").split(",") if x.strip()]


def _get_bool(value, key="value"):
    """configparser's boolean words (1/0, yes/no, true/false, on/off, any case)."""
    word = str(value).strip().lower()
    if word not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ScenarioValidationError(
            f"{key} = {value!r} is not a boolean; use 1/0, yes/no, true/false or on/off")
    return configparser.ConfigParser.BOOLEAN_STATES[word]


def gabor_options(gc):
    """The GABOR_OPTIONS defaults overridden by the keys of gc.

    Raises ScenarioValidationError for a value below its least value (or NaN).
    """
    opt = {}
    for key, (default, least, meaning) in GABOR_OPTIONS.items():
        opt[key] = value = type(default)(gc.get(key, default))
        if not value >= least:
            raise ScenarioValidationError(
                f"[gabor] {key} = {value} is below {least}: {meaning}")
    return opt


def _gabor_checks(gc):
    return [c.strip() for c in gc.get("checks", "").split(",") if c.strip()]


def _pins(expect):
    """The [expect] entries that pin something; an empty one pins nothing."""
    return {key: value for key, value in expect.items() if str(value).strip()}


def parse_scenario(path):
    """Read and validate a scenario cfg file."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = cfg.read(str(path))
    if not read:
        raise ScenarioValidationError(f"scenario file not found: {path}")
    if not cfg.has_section("scenario"):
        raise ScenarioValidationError("missing [scenario] section")
    for section in cfg.sections():
        if section not in SECTION_KEYS:
            raise ScenarioValidationError(
                f"unknown section [{section}]; known: {', '.join(SECTION_KEYS)}")
        known = set().union(*SECTION_KEYS[section])
        unknown = sorted(set(cfg[section]) - known)
        if unknown:
            raise ScenarioValidationError(
                f"unknown keys {unknown} in [{section}]; known: {', '.join(sorted(known))}")
    name = cfg["scenario"].get("name", "unnamed")
    slack = float(cfg["scenario"].get("slack", DEFAULT_SLACK))
    sc = Scenario(name, *(dict(cfg[s]) if cfg.has_section(s) else {} for s in
                          ("points", "density", "approx", "gabor", "padic", "expect")), slack)
    validate_scenario(sc)
    return sc


def validate_scenario(sc):
    """Structural checks; raises ScenarioValidationError before any heavy work."""
    if sc.padic:
        extra = [s for s in ("points", "density", "approx", "gabor", "expect")
                 if getattr(sc, s)]
        if extra:
            raise ScenarioValidationError(
                "a [padic] scenario takes no other check sections; found "
                + ", ".join(f"[{s}]" for s in extra))
    sections = ["padic"] if sc.padic else ["points", "density"] + [
        s for s in ("approx", "gabor") if getattr(sc, s)]
    for section in sections:
        missing = [k for k in SECTION_KEYS[section][0] if k not in getattr(sc, section)]
        if missing:
            raise ScenarioValidationError(f"[{section}] missing {missing[0]}")
    if sc.padic:
        return
    requested = [float(sc.density["truncation"])]
    if requested[0] < max(_floats(sc.density["radii"])):
        raise ScenarioValidationError("density truncation below largest box radius")
    if sc.approx:
        requested.append(float(sc.approx["base_radius"]))
    checks = _gabor_checks(sc.gabor)
    if sc.gabor:
        radius = float(sc.gabor["radius"])
        requested.append(radius)
        unknown = [c for c in checks if c not in GABOR_CHECKS]
        if unknown:
            raise ScenarioValidationError(
                f"unknown gabor checks {unknown}; known: {', '.join(GABOR_CHECKS)}")
        opt = gabor_options(sc.gabor)
        need = math.sqrt(opt["hermite_n"] / math.pi) + FRAME_GUARD
        if "frame" in checks and radius + 1e-9 < need:
            raise ScenarioValidationError(
                f"gabor radius below the test-basis guard margin sqrt(N/pi) + {FRAME_GUARD:g}")
        if "hap" in checks and opt["hap_x_extent"] + opt["hap_box"] > radius + 1e-9:
            raise ScenarioValidationError("hap box leaves the gabor truncation")
    # checks the kind, its keys and, for a csv, that every radius fits the file
    source = build_point_source(sc.points, max(requested))
    # [expect] key -> (what it pins, why this scenario lacks it, whether it has it)
    pinnable = {"k": ("the cover size k", "needs an [approx] block", bool(sc.approx)),
                "density_rtol": ("the tolerance of density_matches_formula",
                                 f"does not run on {sc.points['kind']} points "
                                 "(no closed-form density)",
                                 _intrinsic_density(source) is not None)}
    for check, (_, flag, *_) in GABOR_CHECKS.items():
        pinnable[flag] = (f"the flag of the {check} check", "[gabor] checks does not list",
                          check in checks)
    for key, value in _pins(sc.expect).items():
        if key in EXPECT_FLAGS:
            _get_bool(value, f"[expect] {key}")
        what, lack, has = pinnable[key]
        if not has:
            raise ScenarioValidationError(f"[expect] {key} pins {what}, which {lack}")


def build_point_source(points_cfg, radius):
    """Recipe dict for the scenario point set at the given truncation radius.

    The one place that knows the point kinds; validation and `quasilat gen`
    both go through it. A csv set is restricted to the radius.
    """
    kind = points_cfg.get("kind")
    radius = float(radius)
    opt = {k: float(points_cfg.get(k, v)) for k, v in POINT_OPTIONS.items()}
    if kind == "lattice":
        if not points_cfg.get("basis"):
            raise ScenarioValidationError("lattice points need a basis")
        basis = _floats(points_cfg["basis"])
        d = math.isqrt(len(basis))
        if d * d != len(basis):
            raise ScenarioValidationError("lattice basis length must be dim^2")
        rows = [basis[i * d:(i + 1) * d] for i in range(d)]
        return {"kind": "lattice", "basis": rows, "radius": radius}
    if kind in ("fibonacci", "fibonacci_product"):
        w = opt["window"]
        top, bottom = fibonacci_scheme(w).total_basis.tolist()
        if kind == "fibonacci":
            return {"kind": "cut_and_project", "total_basis": [top, bottom],
                    "d": 1, "m": 1, "window": [w], "radius": radius}
        return {"kind": "cut_and_project",
                "total_basis": [top + [0.0], [0.0, 0.0, opt["beta"]], bottom + [0.0]],
                "d": 2, "m": 1, "window": [w], "radius": radius}
    if kind == "symmetrized_sparse":
        q = opt["q"]
        m_max = math.floor(radius + 1e-9)
        ms = np.arange(-m_max, m_max + 1, dtype=float)
        return {"kind": "symmetrize",
                "base": from_points(np.stack([ms / q, ms], axis=1), 2, radius).source,
                "sublattice_basis": [[q, 0.0], [0.0, 1.0]],
                "radius": radius}
    if kind == "csv":
        path = points_cfg.get("path", "")
        try:
            return load_pointset(path).restrict(radius).source
        except (OSError, ValueError) as exc:
            raise ScenarioValidationError(
                f"points csv {path!r} at radius {radius}: {exc}") from exc
    raise ScenarioValidationError(f"unknown points kind: {kind!r}")


def _intrinsic_density(source):
    """Exact density of a lattice or model-set recipe, None otherwise."""
    if source.get("kind") == "lattice":
        return 1.0 / Lattice(np.array(source["basis"])).covolume
    if source.get("kind") == "cut_and_project":
        return CutAndProjectScheme(np.array(source["total_basis"]), source["d"],
                                   source["m"], Window(tuple(source["window"]))).density()
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
    target = 2 * dens.w
    c_max = float(sc.padic.get("max_deviation", 1.0))
    c = float(dens.deviation_constant())
    verdicts = [_verdict("padic_density_formula", "density == 2w (exact extrapolation)",
                         True, float(dens.density), float(target), dens.density == target),
                _verdict("padic_ratio_deviation", "max_n |ratio_n - 2w| p^n <= c",
                         True, c, c_max, c <= c_max + 1e-12)]
    # Cover at depth min(n_max, 6). The centres then lie in (1/p^6) Z, the
    # depth at which perfbench rechecks scenario covers; a depth-12 centre
    # such as 4097/4096 would fail that recheck.
    cover_n = min(n_max, 6)
    cover_ms = ms if cover_n == n_max else PAdicModelSet.build(p, sc.padic["w"], cover_n)
    cover = padic_cover_set(cover_ms)
    results["cover"] = cover.to_dict()
    k_max = int(sc.padic.get("max_k", 3))
    verdicts.append(_verdict(
        "padic_cover_size", "minimal cover size k <= k_max", True,
        cover.k, k_max, cover.verified and cover.k <= k_max))
    return results, verdicts


def _check_frame(system, opt):
    fb = frame_bounds(system, opt["hermite_n"], n_step=opt["hermite_step"])
    return fb.to_dict(), fb.converged and fb.A_est > A_FLOOR


def _check_riesz(system, opt):
    rb = riesz_bounds(system, edge_margin=opt["riesz_margin"])
    return rb.to_dict(), rb.A_est > A_FLOOR


def _check_dual(system, opt):
    """Minimality gap of the interior family; a singular Gram has no dual and no flag."""
    pts = system.points
    interior = GaborSystem(pts.restrict(pts.truncation_radius - opt["riesz_margin"]))
    delta = uniform_min_delta(interior)
    try:
        dual = biorthogonal_dual(interior)
    except NotMinimalError:
        return ({"B_sup": None, "biorth_residual": None, "delta": delta,
                 "delta_times_max_dual_norm": None}, False)
    return ({"B_sup": dual.B_sup, "biorth_residual": dual.biorth_residual,
             "delta": delta, "delta_times_max_dual_norm": delta * math.sqrt(dual.B_sup)},
            delta > DELTA_FLOOR)


def _check_hap(system, opt):
    """HAP residuals over the x-grid, one solve per orbit of grid points.

    A rotation or reflection S that preserves the point set maps the box
    around x onto the box around S x, so residual(S x) = residual(x). The
    axis is symmetric, so S acts on the doubled index offsets
    w = (2 i - n + 1) + i (2 j - n + 1) from the grid centre as on z = x + i xi.
    """
    box = opt["hap_box"]
    axis = np.linspace(-opt["hap_x_extent"], opt["hap_x_extent"], opt["hap_x_count"])
    n = len(axis)
    pts = system.points.points
    order, theta = rotation_order(pts), reflection_angle(pts)
    residuals = [[None] * n for _ in range(n)]
    solves = 0
    for i in range(n):
        for j in range(n):
            if residuals[i][j] is not None:
                continue
            value = hap_residual(system, (axis[i], axis[j]), box)
            solves += 1
            w = complex(2 * i - n + 1, 2 * j - n + 1)
            orbit = [w * 1j ** (4 // order * k) for k in range(order)]
            if theta is not None:   # z -> exp(2 i theta) conj(z)
                orbit += [1j ** round(4 * theta / math.pi) * v.conjugate() for v in orbit]
            for v in orbit:
                residuals[round(v.real + n - 1) // 2][round(v.imag + n - 1) // 2] = value
    worst = float(np.max(residuals))
    return ({"box_radius": box, "x_axis": [float(v) for v in axis],
             "residuals": residuals, "max_residual": worst, "rotation_order": order,
             "reflection_axis": None if theta is None else theta / math.pi,
             "solves": solves}, worst < HAP_FLOOR)


def _check_complete(system, opt):
    count = opt["probe_count"]
    res = completeness_residual(system, count)
    order, theta, shapes = solve_shapes(system.points.points, count)
    return ({"probe_count": count, "max_residual": res, "rotation_order": order,
             "reflection_axis": None if theta is None else theta / math.pi,
             "solve_shapes": [list(s) for s in shapes]}, res < COMPLETE_FLOOR)


# check -> (runner(system, options) -> (report block, flag value), flag name,
# verdict, density the flag bounds, whether the bound is divided by k), in
# verdict order. A flag bounding D_minus implies D_minus >= d_pi (1 - slack)
# [/ k]; one bounding D_plus implies D_plus <= d_pi (1 + slack). Only the
# completeness theorem for k-approximate lattices carries 1/k; the frame
# condition holds for every discrete set.
GABOR_CHECKS = {
    "frame": (_check_frame, "frame", "frame_lower_density", "D_minus", False),
    "riesz": (_check_riesz, "riesz", "riesz_upper_density", "D_plus", False),
    "hap": (_check_hap, "hap", "hap_lower_density", "D_minus", False),
    "complete": (_check_complete, "complete_proxy", "complete_proxy_lower_density",
                 "D_minus", True),
    "dual": (_check_dual, "minimal", "minimal_upper_density", "D_plus", False)}

# Flags that an [expect] block may pin, in verdict order; each is a boolean,
# and an empty one pins nothing.
EXPECT_FLAGS = tuple(row[1] for row in GABOR_CHECKS.values())

# Each section's (required keys, optional keys); configparser lowercases keys.
SECTION_KEYS = {
    "scenario": ((), ("name", "slack")),
    "points": (("kind",), ("basis", "path", *POINT_OPTIONS)),
    "density": (("radii", "truncation"), ()),
    "approx": (("base_radius", "sumset_radius"), ("coverage_tol",)),
    "gabor": (("radius",), ("checks", *GABOR_OPTIONS)),
    "padic": (("p", "w", "n_max"), ("max_k", "max_deviation")),
    "expect": ((), ("k", "density_rtol", *EXPECT_FLAGS)),
}


def _run_gabor(sc, results, flags):
    gc = sc.gabor
    radius = float(gc["radius"])
    pts = regenerate(build_point_source(sc.points, radius))
    system = GaborSystem(pts)
    out = {"radius": radius, "point_count": len(pts)}
    opt = gabor_options(gc)
    for name in _gabor_checks(gc):
        run, flag = GABOR_CHECKS[name][:2]
        out[name], flags[flag] = run(system, opt)
    results["gabor"] = out


def _run_subadditivity(sc, union, dens, results, verdicts):
    """Count subadditivity of a symmetrized union, exact over all translates.

    symmetrize keeps the lex-first of each group of rows within DEDUP_TOL,
    so every union row is a row of base, -base or the sublattice, and
    count(parts in B) - count(union in B) is the count in B of the other
    rows, repeats included. The worst excess of the union over its parts is
    minus the exact inf of that count. The union's D_plus is the density
    stage's own.
    """
    source = union.source
    base = regenerate(source["base"])
    lat = lattice_points_in_box(Lattice(np.array(source["sublattice_basis"])),
                                source["radius"])
    rows, copies = np.unique(np.vstack([base.points, -base.points, lat.points]) + 0.0,
                             axis=0, return_counts=True)
    both, at = np.unique(np.vstack([rows, union.points]), axis=0, return_inverse=True)
    if len(both) != len(rows):
        raise ValueError("symmetrized union has a row that none of its parts has")
    copies[at.reshape(-1)[len(rows):]] -= 1
    scan = dens.scan_region_radius
    per_n = [-inf for inf, _ in
             extreme_counts(np.repeat(rows, copies, axis=0), dens.radii, scan)]
    boxes = FolnerBoxes(union.dim, tuple(dens.radii))
    db, dl = (density_scan(ps, boxes, scan_region_radius=scan).D_plus for ps in (base, lat))
    du = dens.D_plus
    rhs = 2.0 * db + dl * (1.0 + sc.slack)
    results["subadditivity"] = {"radii": dens.radii, "max_excess_per_n": per_n,
                                "scan_region_radius": scan,
                                "D_plus_union": du, "D_plus_base": db,
                                "D_plus_sublattice": dl}
    verdicts.append(_verdict(
        "union_count_subadditivity",
        "count(union in xK) <= count(base) + count(-base) + count(sublattice), all scanned (x, n)",
        True, max(per_n), 0, max(per_n) <= 0))
    verdicts.append(_verdict(
        "symmetrized_upper_density_bound",
        "D_plus(union) <= 2 D_plus(base) + D_plus(sublattice) (with slack)",
        True, du, rhs, du <= rhs))


def run_scenario(sc):
    """Execute a scenario and return a Report."""
    if sc.padic:
        return _finalize(sc, *_run_padic(sc))

    results, verdicts, flags = {}, [], {}
    source = build_point_source(sc.points, sc.density["truncation"])
    ps = regenerate(source)
    dens = density_scan(ps, FolnerBoxes(ps.dim, tuple(_floats(sc.density["radii"]))))
    results["density"] = dens.to_dict()
    results["density"]["point_count"] = len(ps)

    pins = _pins(sc.expect)
    formula = _intrinsic_density(source)
    if formula is not None:
        rtol = float(pins.get("density_rtol", 0.02))
        err = max(abs(dens.D_minus - formula), abs(dens.D_plus - formula)) / formula
        verdicts.append(_verdict(
            "density_matches_formula",
            "max(|D- - rho|, |D+ - rho|) / rho <= rtol, rho = window measure / covolume",
            True, err, rtol, err <= rtol,
            note=f"rho = {formula!r}"))

    k = 1  # the cover's k; [expect] k only pins it
    if sc.approx:
        base = regenerate(build_point_source(sc.points, float(sc.approx["base_radius"])))
        sumset = sumset_truncated(base, base, float(sc.approx["sumset_radius"]))
        results["approx"] = checked_cover(
            sumset, base, float(sc.approx.get("coverage_tol", COVERAGE_TOL)))
        k = max(results["approx"]["k"], 1)
        if not results["approx"]["reverified"]:
            verdicts.append(_verdict("cover_reverified", "independent cover check",
                                     True, 0, 1, False))

    if sc.gabor:
        _run_gabor(sc, results, flags)

    if source.get("kind") == "symmetrize":
        _run_subadditivity(sc, ps, dens, results, verdicts)

    for _, flag, name, side, per_k in GABOR_CHECKS.values():
        if flag not in flags:
            continue
        lhs = getattr(dens, side)
        if side == "D_minus":
            inequality = "D_minus >= d_pi (1 - slack)" + (" / k" if per_k else "")
            rhs = D_PI * (1.0 - sc.slack) / (k if per_k else 1)
            holds = lhs >= rhs
        else:
            inequality = "D_plus <= d_pi (1 + slack)"
            rhs = D_PI * (1.0 + sc.slack)
            holds = lhs <= rhs
        verdicts.append(_verdict(name, inequality, flags[flag], lhs, rhs,
                                 not flags[flag] or holds))

    for flag in EXPECT_FLAGS:
        if flag in pins:
            want = _get_bool(pins[flag])
            got = flags.get(flag)
            verdicts.append(_verdict(f"expected_{flag}", f"{flag} flag == expectation",
                                     True, got, want, got == want))
    if "k" in pins:
        want = int(pins["k"])
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
        return dict(vars(self))

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
    if isinstance(obj, (np.integer, np.floating, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _finalize(sc, results, verdicts):
    scenario = asdict(sc)
    blob = json.dumps(scenario, sort_keys=True).encode()
    provenance = {"package": "quasilat", "version": __version__,
                  "settings_hash": hashlib.sha256(blob).hexdigest(),
                  "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    passed = all(v["passed"] for v in verdicts)
    return Report(scenario, results, verdicts, passed, provenance)


def builtin_scenario_names():
    root = importlib.resources.files("quasilat") / "scenarios"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def builtin_scenario_path(name):
    path = importlib.resources.files("quasilat") / "scenarios" / f"{name}.cfg"
    if not path.is_file():
        raise ScenarioValidationError(
            f"unknown builtin scenario {name!r}; have {builtin_scenario_names()}")
    return str(path)
