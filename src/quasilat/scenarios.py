"""Scenario harness: run a point set through density and spectral checks.

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
from functools import partial

import numpy as np

from . import __version__
from .approxcheck import BASE_REACH, checked_cover
from .density import FolnerBoxes, Product, density_scan, extreme_counts
from .errors import (DegenerateLatticeError, InsufficientTruncationError, NotMinimalError,
                     ScenarioValidationError)
from .gabor import (D_PI, FRAME_GUARD, GaborSystem, biorthogonal_dual,
                    completeness_residual, frame_bounds, frame_guard, hap_residual,
                    riesz_bounds, solve_shapes)
from .padic import PAdicModelSet, padic_cover_set, padic_density, parse_window
from .pointset import (CutAndProjectScheme, Lattice, fibonacci_scheme, from_points,
                       lattice_points_in_box, load_pointset, model_set_generate,
                       positive_finite, require_reach, sumset_truncated, symmetrize,
                       unique_rows)

# Decision thresholds for the spectral flags.
A_FLOOR = 1e-2          # frame / Riesz lower bounds below this do not count
COMPLETE_FLOOR = 1e-3   # max probe residual for the completeness proxy
HAP_FLOOR = 0.05        # max local approximation residual
DELTA_FLOOR = 1e-2      # uniform minimality gap
DENSITY_RTOL = 0.02     # relative tolerance of density_matches_formula
PADIC_MAX_K = 3         # largest p-adic cover size a [padic] scenario accepts
DEFAULT_SLACK = 0.05

# Sizes of the truncated Gabor checks, the same in every builtin. Any Riesz
# margin is valid: a sub-family's Gram is a principal submatrix, so its
# spectrum interlaces into [A, B].
RIESZ_MARGIN = 2.0      # the INTERIOR_CHECKS drop the points this close to the truncation edge
INTERIOR_CHECKS = {"riesz", "dual"}
HAP_BOX = 6.0           # half-width of the local box around each HAP x-grid point
HAP_X_EXTENT = 1.0      # the HAP x-grid spans [-extent, extent] on both axes
HAP_X_COUNT = 5         # HAP x-grid points per axis
PROBE_COUNT = 10        # completeness probes h_0 .. h_9

# Defaults of the [points] options; a cfg key or a gen flag overrides each one.
POINT_OPTIONS = {"window": 1.0, "beta": 0.5, "q": 4.0}


@dataclass
class Scenario:
    """The parsed sections (empty where unused), `settings`, the file as written
    (name, slack and raw sections), which a report quotes and hashes, and the
    point_kind of [points] that validation resolved, so a csv is read once."""
    name: str
    points: dict
    density: dict
    approx: dict = field(default_factory=dict)
    gabor: dict = field(default_factory=dict)
    padic: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    slack: float = DEFAULT_SLACK
    settings: dict = field(default_factory=dict)
    point_kind: tuple = None


def _floats(text):
    return [float(x) for x in str(text).replace(";", ",").split(",") if x.strip()]


def _radii(text):
    """Box radii under FolnerBoxes's own rule."""
    return FolnerBoxes(1, _floats(text)).radii


def _basis(text):
    """d^2 row-major entries as d rows."""
    entries = _floats(text)
    if (d := math.isqrt(len(entries))) ** 2 != len(entries):
        raise ValueError("lattice basis length must be dim^2")
    return [entries[i * d:(i + 1) * d] for i in range(d)]


def _bool(text):
    """configparser's boolean words (1/0, yes/no, true/false, on/off, any case)."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError("not a boolean; use 1/0, yes/no, true/false or on/off") from None


def _checks(text):
    checks = [c.strip() for c in text.split(",") if c.strip()]
    if unknown := [c for c in checks if c not in GABOR_CHECKS]:
        raise ValueError(f"unknown gabor checks {unknown}; known: {', '.join(GABOR_CHECKS)}")
    if repeated := sorted({c for c in checks if checks.count(c) > 1}):
        raise ValueError(f"gabor checks {repeated} are listed more than once")
    return checks


def _report_name(text):
    if text in ("", ".", "..") or "/" in text or "\\" in text:
        raise ValueError("is not a report file name: it is empty, . or .., or holds / or \\")
    return text


def _hermite_n(text):
    if (n := int(text)) < 1:
        raise ValueError("is below 1: the test basis would be empty")
    return n


def parse_value(section, key, text):
    """text parsed by the SECTION_KEYS row of [section] key; a refusal names both."""
    try:
        return SECTION_KEYS[section][key][0](text)
    except ValueError as exc:
        raise ScenarioValidationError(f"[{section}] {key} = {text!r}: {exc}") from exc


def parse_section(section, written):
    """Each written key parsed, each other at its default; an empty value is unwritten."""
    values = {}
    for key, (_, default) in SECTION_KEYS[section].items():
        if written.get(key):
            values[key] = parse_value(section, key, written[key])
        elif default is REQUIRED:
            raise ScenarioValidationError(f"[{section}] missing {key}")
        elif default is not None:
            values[key] = default
    return values


def parse_scenario(path):
    """Read a scenario cfg file; every value is parsed and checked before any heavy work."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    if not cfg.read(str(path)):
        raise ScenarioValidationError(f"scenario file not found: {path}")
    if not cfg.has_section("scenario"):
        raise ScenarioValidationError("missing [scenario] section")
    for section in cfg.sections():
        if section not in SECTION_KEYS:
            raise ScenarioValidationError(
                f"unknown section [{section}]; known: {', '.join(SECTION_KEYS)}")
        if unknown := sorted(set(cfg[section]) - set(SECTION_KEYS[section])):
            raise ScenarioValidationError(f"unknown keys {unknown} in [{section}]; known: "
                                          f"{', '.join(sorted(SECTION_KEYS[section]))}")
    written = {s: dict(cfg[s]) if cfg.has_section(s) else {} for s in SECTION_KEYS}
    # a section counts from its header on, so an empty one misses its required keys
    extra = [s for s in ("points", "density", "approx", "gabor", "expect") if cfg.has_section(s)]
    if cfg.has_section("padic") and extra:
        raise ScenarioValidationError("a [padic] scenario takes no other check sections; "
                                      "found " + ", ".join(f"[{s}]" for s in extra))
    needed = () if cfg.has_section("padic") else ("points", "density", "expect")
    values = {s: parse_section(s, written[s]) if cfg.has_section(s) or s in needed else {}
              for s in SECTION_KEYS}
    head = values.pop("scenario")
    sc = Scenario(head["name"], **values, slack=head["slack"],
                  settings={**head, **{s: written[s] for s in values}})
    validate_scenario(sc)
    return sc


def validate_scenario(sc):
    """Checks of a parsed scenario's keys against each other and against its point set."""
    if sc.padic:
        try:
            PAdicModelSet.build(sc.padic["p"], sc.padic["w"], sc.padic["n_max"])
        except ValueError as exc:
            raise ScenarioValidationError(f"[padic] {exc}") from exc
        return
    try:  # checks the kind, its keys and a csv path; a window or q its construction refuses
        sc.point_kind = point_kind(sc.points)
    except (ValueError, DegenerateLatticeError) as exc:
        raise ScenarioValidationError(f"[points] {exc}") from exc
    g = sc.gabor
    checks = g.get("checks", ())
    if "complete" in checks and sc.points["kind"] != "lattice" and not sc.approx:
        raise ScenarioValidationError(
            "[gabor] checks lists complete, whose bound D_minus >= d_pi / k holds for "
            "k-approximate lattices: it needs kind = lattice or an [approx] block for k")
    widest = max(sc.density["truncation"], BASE_REACH * sc.approx.get("sumset_radius", 0),
                 g.get("radius", 0))
    # (needed, truncation, what): every box that the run counts or solves on
    reaches = [(max(sc.density["radii"]), sc.density["truncation"], "[density] largest box"),
               (widest, sc.point_kind[2], f"points csv {sc.points['path']!r}: the widest radius")]
    if g:
        reaches += [(needed, g["radius"], f"[gabor] {what}") for users, needed, what in (
            ({"frame"}, frame_guard(g["hermite_n"]),
             f"guard radius sqrt(hermite_n / pi) + {FRAME_GUARD:g}"),
            ({"hap"}, HAP_X_EXTENT + HAP_BOX, "hap box reach"),
            (INTERIOR_CHECKS, RIESZ_MARGIN, "riesz margin"))
            if not users.isdisjoint(checks)]
    for needed, truncation, what in reaches:
        try:
            require_reach(needed, truncation, what)
        except InsufficientTruncationError as exc:
            raise ScenarioValidationError(str(exc)) from exc
    # [expect] key -> (what it pins, why this scenario lacks it, whether it has it)
    pinnable = {"k": ("the cover size k", "needs an [approx] block", bool(sc.approx))}
    for check, (_, flag, *_) in GABOR_CHECKS.items():
        pinnable[flag] = (f"the flag of the {check} check", "[gabor] checks does not list",
                          check in checks)
    for key, text in sc.settings["expect"].items():
        what, lack, has = pinnable[key]
        if text and not has:
            raise ScenarioValidationError(f"[expect] {key} pins {what}, which {lack}")


def _sparse_parts(q, radius):
    """The symmetrized_sparse base {(m/q, m) : |m| <= radius} and its sublattice diag(q, 1)."""
    m_max = math.floor(positive_finite(radius) + 1e-9)
    ms = np.arange(-m_max, m_max + 1, dtype=float)
    return from_points(np.stack([ms / q, ms], axis=1), 2, radius), Lattice(np.diag([q, 1.0]))


def _product(*lines):
    """factors(radius): the Product of the 1-d kinds that lines generate, at radius."""
    return lambda radius: Product([line(radius).points[:, 0] for line in lines], radius)


def point_kind(points):
    """(generate, density, reach, factors, lattice) of parsed [points] values, as parse_section
    or the `quasilat gen` flags give them; the one place that knows the point kinds.
    generate(radius) truncates the set, density is its closed form or None, reach is a
    csv file's truncation radius (the file is read here, once), else inf, factors(radius)
    the truncation's Product if the kind is one, and lattice the kind's Lattice, if any."""
    kind = points["kind"]
    if kind == "lattice":
        if not points.get("basis"):
            raise ScenarioValidationError("lattice points need a basis")
        lattice = Lattice(points["basis"])
        diag = np.diag(lattice.basis)
        factors = (_product(*(partial(lattice_points_in_box, Lattice([[b]])) for b in diag))
                   if np.array_equal(lattice.basis, np.diag(diag)) else None)
        return (partial(lattice_points_in_box, lattice), 1.0 / lattice.covolume, math.inf,
                factors, lattice)
    if kind in ("fibonacci", "fibonacci_product"):
        scheme = fibonacci_scheme(points["window"])
        lines = [partial(model_set_generate, scheme)]
        if kind == "fibonacci_product":  # the chain times beta Z
            total = np.zeros((3, 3))
            total[[0, 2], :2], total[1, 2] = scheme.total_basis, points["beta"]
            scheme = CutAndProjectScheme(total, 2, 1, scheme.window)
            lines.append(partial(lattice_points_in_box, Lattice([[points["beta"]]])))
        return (partial(model_set_generate, scheme), scheme.density(), math.inf,
                _product(*lines), None)
    if kind == "symmetrized_sparse":
        q = points["q"]
        Lattice(np.diag([q, 1.0])).covolume  # the sublattice refuses q = 0, NaN and +-inf
        return lambda r: symmetrize(*_sparse_parts(q, r), r), None, math.inf, None, None
    if kind == "csv":
        if not (path := points.get("path")):
            raise ScenarioValidationError("csv points need a path")
        try:
            ps = load_pointset(path)
        except (OSError, ValueError) as exc:
            raise ScenarioValidationError(f"points csv {path!r}: {exc}") from exc
        return ps.restrict, None, ps.truncation_radius, None, None
    raise ScenarioValidationError(f"unknown points kind: {kind!r}")


def _verdict(name, inequality, flagged, lhs, rhs, passed, note=""):
    return {"name": name, "inequality": inequality, "flagged": bool(flagged),
            "lhs": lhs, "rhs": rhs, "passed": bool(passed), "note": note}


def _run_padic(sc):
    p, w, n_max = sc.padic["p"], sc.padic["w"], sc.padic["n_max"]
    ms = PAdicModelSet.build(p, w, n_max)
    dens = padic_density(ms)
    results = {"density": dens.to_dict()}
    target = 2 * dens.w
    c_max = sc.padic["max_deviation"]
    c = float(dens.deviation_constant())
    verdicts = [_verdict("padic_density_formula", "density == 2w (exact extrapolation)",
                         True, float(dens.density), float(target), dens.density == target),
                _verdict("padic_ratio_deviation", "max_n |ratio_n - 2w| p^n <= c",
                         True, c, c_max, c <= c_max + 1e-12)]
    # Cover at depth min(n_max, 6). The centres then lie in (1/p^6) Z, the
    # depth at which perfbench rechecks scenario covers; a depth-12 centre
    # such as 4097/4096 would fail that recheck.
    cover_n = min(n_max, 6)
    cover_ms = ms if cover_n == n_max else PAdicModelSet.build(p, w, cover_n)
    cover = padic_cover_set(cover_ms)
    results["cover"] = cover.to_dict()
    verdicts.append(_verdict(
        "padic_cover_size", "minimal cover size k <= k_max", True,
        cover.k, PADIC_MAX_K, cover.verified and cover.k <= PADIC_MAX_K))
    return results, verdicts


def _check_frame(system, opt):
    fb = frame_bounds(system, opt["hermite_n"])
    return fb.to_dict(), fb.converged and fb.A_est > A_FLOOR


def _check_riesz(interior, opt):
    rb = riesz_bounds(interior)
    return rb.to_dict(), rb.A_est > A_FLOOR


def _check_dual(interior, opt):
    """Minimality gap of the interior family; a singular Gram has no dual and no flag."""
    try:
        dual = biorthogonal_dual(interior)
    except NotMinimalError as exc:
        return {"B_sup": None, "biorth_residual": None, "delta": exc.delta}, False
    return ({"B_sup": dual.B_sup, "biorth_residual": dual.biorth_residual,
             "delta": dual.delta}, dual.delta > DELTA_FLOOR)


def _check_hap(system, opt):
    """HAP residuals over the x-grid; hap_residual decides which points share a solve."""
    axis = np.linspace(-HAP_X_EXTENT, HAP_X_EXTENT, HAP_X_COUNT)
    values, solves = hap_residual(system, [(a, b) for a in axis for b in axis], HAP_BOX)
    order, theta = system.class_split[:2]
    worst = float(np.max(values))
    return ({"box_radius": HAP_BOX, "x_axis": axis.tolist(),
             "residuals": values.reshape(len(axis), -1).tolist(), "max_residual": worst,
             "rotation_order": order, "reflection_axis": None if theta is None else theta / math.pi,
             "solves": solves}, worst < HAP_FLOOR)


def _check_complete(system, opt):
    res = completeness_residual(system, PROBE_COUNT)
    order, theta, shapes = solve_shapes(system, PROBE_COUNT)
    return ({"probe_count": PROBE_COUNT, "max_residual": res, "rotation_order": order,
             "reflection_axis": None if theta is None else theta / math.pi,
             "solve_shapes": [list(s) for s in shapes]}, res < COMPLETE_FLOOR)


# check -> (runner(family, [gabor] values) -> (report block, flag value), flag name,
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

# Each section's keys: key -> (parser of the written text, default). A
# REQUIRED key must be written; a key whose default is None is absent from
# the parsed section unless written. configparser lowercases keys.
REQUIRED = object()
SECTION_KEYS = {
    "scenario": {"name": (_report_name, "unnamed"), "slack": (float, DEFAULT_SLACK)},
    "points": {"kind": (str, REQUIRED), "basis": (_basis, None), "path": (str, ""),
               **{key: (float, default) for key, default in POINT_OPTIONS.items()}},
    "density": {"radii": (_radii, REQUIRED), "truncation": (positive_finite, REQUIRED)},
    "approx": {"sumset_radius": (positive_finite, REQUIRED)},
    "gabor": {"radius": (positive_finite, REQUIRED), "checks": (_checks, ()),
              "hermite_n": (_hermite_n, 40)},
    "padic": {"p": (int, REQUIRED), "w": (parse_window, REQUIRED), "n_max": (int, REQUIRED),
              "max_deviation": (float, 1.0)},
    "expect": {"k": (int, None), **{flag: (_bool, None) for flag in EXPECT_FLAGS}},
}


def gabor_blocks(system, checks, opt):
    """check -> (report block, flag value) for each of checks, run in order; the
    INTERIOR_CHECKS share one interior family."""
    pts, interior = system.points, None
    if not INTERIOR_CHECKS.isdisjoint(checks):
        require_reach(RIESZ_MARGIN, pts.truncation_radius, "riesz margin")
        interior = GaborSystem(pts.restrict(pts.truncation_radius - RIESZ_MARGIN))
        if len(interior.points) == 0:
            raise ValueError(f"the riesz margin {RIESZ_MARGIN:g} leaves no interior point")
    return {name: GABOR_CHECKS[name][0](interior if name in INTERIOR_CHECKS else system, opt)
            for name in checks}


def _run_subadditivity(sc, union, base, sublattice, dens, results, verdicts):
    """Count subadditivity of a symmetrized union, exact over all translates.

    symmetrize keeps the lex-first of each group of rows within DEDUP_TOL,
    so every union row is a row of base, -base or the sublattice, and
    count(parts in B) - count(union in B) is the count in B of the other
    rows, repeats included. The worst excess of the union over its parts is
    minus the exact inf of that count. The union's D_plus is the density
    stage's own; base and the sublattice share the union's truncation, so
    their scans cover the union's scan region.
    """
    lat = lattice_points_in_box(sublattice, union.truncation_radius)
    parts = np.vstack([base.points, -base.points, lat.points]) + 0.0
    rows, at, counts = unique_rows(np.vstack([parts, union.points]))
    # copies in the parts (counts - u) less the union's own u (0 or 1); < 0 where no part has it
    copies = counts - 2 * np.bincount(at[len(parts):], minlength=len(rows))
    if np.any(copies < 0):
        raise ValueError("symmetrized union has a row that none of its parts has")
    scan = dens.scan_region_radius
    per_n = [-inf for inf, _ in
             extreme_counts(np.repeat(rows, copies, axis=0), dens.radii, scan)]
    boxes = FolnerBoxes(union.dim, tuple(dens.radii))
    db, dl = (density_scan(ps, boxes).D_plus for ps in (base, lat))
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
    generate, formula, _, factors, lattice = sc.point_kind or point_kind(sc.points)
    ps = (factors or generate)(sc.density["truncation"])  # rows only where rows are read
    dens = density_scan(ps, FolnerBoxes(ps.dim, sc.density["radii"]))
    results["density"] = {**dens.to_dict(), "point_count": len(ps)}

    if formula is not None:
        err = max(abs(dens.D_minus - formula), abs(dens.D_plus - formula)) / formula
        verdicts.append(_verdict(
            "density_matches_formula",
            "max(|D- - rho|, |D+ - rho|) / rho <= rtol, rho = window measure / covolume",
            True, err, DENSITY_RTOL, err <= DENSITY_RTOL, note=f"rho = {formula!r}"))

    k = 1  # the cover's k; [expect] k only pins it
    if sc.approx:
        radius = sc.approx["sumset_radius"]
        base = generate(BASE_REACH * radius)
        results["approx"] = checked_cover(sumset_truncated(base, base, radius), base)
        k = max(results["approx"]["k"], 1)
        if not results["approx"]["reverified"]:
            verdicts.append(_verdict("cover_reverified", "independent cover check",
                                     True, 0, 1, False))

    if sc.gabor:
        system = GaborSystem(generate(sc.gabor["radius"]), lattice)
        results["gabor"] = {"radius": sc.gabor["radius"], "point_count": len(system.points)}
        for name, (block, value) in gabor_blocks(system, sc.gabor["checks"], sc.gabor).items():
            results["gabor"][name], flags[GABOR_CHECKS[name][1]] = block, value

    if sc.points["kind"] == "symmetrized_sparse":
        parts = _sparse_parts(sc.points["q"], ps.truncation_radius)
        _run_subadditivity(sc, ps, *parts, dens, results, verdicts)

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

    # [expect] key -> (what the scenario computed, what it is); validation
    # refused a pin on anything this scenario does not compute
    pinned = {flag: (flags.get(flag), f"{flag} flag") for flag in EXPECT_FLAGS}
    pinned["k"] = (results.get("approx", {}).get("k"), "cover size k")
    for key, (got, what) in pinned.items():
        if key in sc.expect:
            verdicts.append(_verdict(f"expected_{key}", f"{what} == expectation", True,
                                     got, sc.expect[key], got == sc.expect[key]))
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
        return json_text(self.to_dict())

    def verdict_lines(self):
        lines = []
        for v in self.verdicts:
            status = "PASS" if v["passed"] else "FAIL"
            applic = "" if v["flagged"] else " (not flagged; vacuous)"
            lines.append(f"{status} {self.scenario['name']}::{v['name']}: "
                         f"lhs={v['lhs']!r} rhs={v['rhs']!r}{applic}")
        return lines


def json_text(payload):
    """The one JSON form of reports and CLI output: indent 1, sorted keys, numpy as lists."""
    def default(obj):
        if isinstance(obj, (np.integer, np.floating, np.ndarray)):
            return obj.tolist()
        raise TypeError(f"not JSON serializable: {type(obj)}")
    return json.dumps(payload, indent=1, sort_keys=True, default=default)


def _finalize(sc, results, verdicts):
    scenario = sc.settings
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
