"""Command line entry point.

Subcommands mirror the library layers: gen / density / approx for point
sets, gabor for spectral diagnostics, padic for the non-archimedean model
sets, run for scenario files. Exit code 0 on success, 1 when a scenario
verdict or expectation fails, 2 for usage and validation errors.
"""

import argparse
import os
import sys
from functools import cache, partial

from . import __version__
from .approxcheck import BASE_REACH, checked_cover, delone_report
from .density import FolnerBoxes, density_scan
from .errors import QuasilatError, ScenarioValidationError
from .gabor import GaborSystem
from .padic import PAdicModelSet, padic_cover_set, padic_density
from .pointset import load_pointset, save_pointset, sumset_truncated
from .scenarios import (GABOR_CHECKS, POINT_OPTIONS, SECTION_KEYS, builtin_scenario_names,
                        builtin_scenario_path, gabor_blocks, json_text, parse_scenario,
                        parse_value, point_kind, run_scenario)


def _emit(payload, out_path):
    text = json_text(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _add_gen(sub):
    p = sub.add_parser("gen", help="generate a point set and write it to CSV", allow_abbrev=False)
    p.add_argument("--kind", required=True, help="a scenario [points] kind")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--basis", type=partial(parse_value, "points", "basis"),
                   help="row-major lattice basis entries, comma separated")
    # the flags below fill the POINT_OPTIONS keys that scenario files use
    for key, default in POINT_OPTIONS.items():
        p.add_argument(f"--{key}", type=partial(parse_value, "points", key), default=default)
    p.add_argument("--out", required=True)


def _add_density(sub):
    p = sub.add_parser("density", help="Beurling density scan over box sequences",
                       allow_abbrev=False)
    p.add_argument("--points", required=True, help="point CSV path")
    p.add_argument("--radii", required=True, type=partial(parse_value, "density", "radii"),
                   help="comma separated box radii")
    p.add_argument("--out")


def _add_approx(sub):
    p = sub.add_parser("approx", help="Delone stats and finite-cover search", allow_abbrev=False)
    p.add_argument("--base", required=True, help="point CSV for the base set")
    p.add_argument("--sumset-radius", type=float,
                   help=f"truncation of the base+base sumset; at most 1/{BASE_REACH} "
                   "of the base's, which is the default")
    p.add_argument("--out")


def _add_gabor(sub):
    p = sub.add_parser("gabor", help="coherent system diagnostics", allow_abbrev=False)
    gsub = p.add_subparsers(dest="gabor_cmd", required=True)
    for check in GABOR_CHECKS:
        q = gsub.add_parser("frame-bounds" if check == "frame" else check, allow_abbrev=False)
        q.add_argument("--points", required=True, help="time-frequency node CSV")
        q.add_argument("--out")
        if check == "frame":  # the [gabor] hermite_n key; the other check sizes are constants
            q.add_argument("--hermite-N", dest="hermite_n",
                           type=partial(parse_value, "gabor", "hermite_n"),
                           default=SECTION_KEYS["gabor"]["hermite_n"][1])


def _add_padic(sub):
    p = sub.add_parser("padic", help="p-adic model set density and covers", allow_abbrev=False)
    psub = p.add_subparsers(dest="padic_cmd", required=True)
    for name in ("density", "cover"):
        q = psub.add_parser(name, allow_abbrev=False)
        q.add_argument("-p", type=int, required=True)
        q.add_argument("-w", required=True, help="window radius, e.g. 1 or 1/2")
        q.add_argument("-n", type=int, required=True, help="max denominator exponent")
        q.add_argument("--out")


def _add_run(sub):
    p = sub.add_parser("run", help="run scenario files or builtin presets", allow_abbrev=False)
    p.add_argument("targets", nargs="*",
                   help="scenario cfg paths or builtin names; 'all' for every builtin")
    p.add_argument("--list", action="store_true", help="list builtin scenarios")
    p.add_argument("--out-dir", help="write one JSON report per scenario here")


def _cmd_gen(args):
    ps = point_kind(vars(args))[0](args.radius)
    save_pointset(ps, args.out)
    print(f"wrote {len(ps)} points to {args.out}")
    return 0


def _cmd_density(args):
    ps = load_pointset(args.points)
    boxes = FolnerBoxes(ps.dim, args.radii)
    _emit(density_scan(ps, boxes).to_dict(), args.out)
    return 0


def _cmd_approx(args):
    base = load_pointset(args.base)
    radius = args.sumset_radius
    if radius is None:
        radius = base.truncation_radius / BASE_REACH
    payload = checked_cover(sumset_truncated(base, base, radius), base)
    payload["delone"] = delone_report(base, interior_margin=2.0).to_dict()
    _emit(payload, args.out)
    return 0 if payload["reverified"] else 1


def _cmd_gabor(args):
    system = GaborSystem(load_pointset(args.points))
    check = "frame" if args.gabor_cmd == "frame-bounds" else args.gabor_cmd
    _emit(gabor_blocks(system, [check], vars(args))[check][0], args.out)
    return 0


def _cmd_padic(args):
    ms = PAdicModelSet.build(args.p, args.w, args.n)
    rep = padic_density(ms) if args.padic_cmd == "density" else padic_cover_set(ms)
    _emit(rep.to_dict(), args.out)
    return 0


def _cmd_run(args):
    if args.list:
        for name in builtin_scenario_names():
            print(name)
        return 0
    if not args.targets:
        raise ScenarioValidationError("run needs scenario paths, builtin names, or 'all'")
    paths = []
    for target in args.targets:
        if target == "all":
            paths.extend(builtin_scenario_path(n) for n in builtin_scenario_names())
        elif os.path.exists(target) or os.path.dirname(target) or target.endswith(".cfg"):
            paths.append(target)   # a path; parse_scenario names a missing one
        else:
            paths.append(builtin_scenario_path(target))
    scenarios = [parse_scenario(p) for p in paths]  # validate all first
    names = [sc.name for sc in scenarios]
    if args.out_dir and (twice := sorted({n for n in names if names.count(n) > 1})):
        raise ScenarioValidationError(
            f"two targets would write {os.path.join(args.out_dir, twice[0])}.json")
    all_passed = True
    for report in map(run_scenario, scenarios):
        for line in report.verdict_lines():
            print(line)
        all_passed = all_passed and report.passed
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            name = report.scenario["name"]
            with open(os.path.join(args.out_dir, f"{name}.json"), "w") as fh:
                fh.write(report.to_json() + "\n")
    print("ALL PASS" if all_passed else "FAILURES PRESENT")
    return 0 if all_passed else 1


@cache
def build_parser():
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="quasilat", allow_abbrev=False,
        description="approximate lattices, Beurling densities, Gabor diagnostics")
    parser.add_argument("--version", action="version",
                        version=f"quasilat {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)
    _add_gen(sub)
    _add_density(sub)
    _add_approx(sub)
    _add_gabor(sub)
    _add_padic(sub)
    _add_run(sub)
    return parser


def main(argv=None):
    handlers = {"gen": _cmd_gen, "density": _cmd_density, "approx": _cmd_approx,
                "gabor": _cmd_gabor, "padic": _cmd_padic, "run": _cmd_run}
    try:  # a flag that sets a cfg key is refused by its SECTION_KEYS parser, exit 2
        args = build_parser().parse_args(argv)
        return handlers[args.cmd](args)
    except (QuasilatError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
