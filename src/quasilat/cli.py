"""Command line entry point.

Subcommands mirror the library layers: gen / density / approx for point
sets, gabor for spectral diagnostics, padic for the non-archimedean model
sets, run for scenario files. Exit code 0 on success, 1 when a scenario
verdict or expectation fails, 2 for usage and validation errors.
"""

import argparse
import json
import os
import sys
from functools import cache

from . import __version__
from .approxcheck import COVERAGE_TOL, checked_cover, delone_report
from .density import FolnerBoxes, density_scan
from .errors import QuasilatError, ScenarioValidationError
from .gabor import GaborSystem
from .padic import PAdicModelSet, padic_cover_set, padic_density
from .pointset import load_pointset, regenerate, save_pointset, sumset_truncated
from .scenarios import (GABOR_CHECKS, GABOR_OPTIONS, POINT_OPTIONS,
                        builtin_scenario_names, builtin_scenario_path,
                        build_point_source, gabor_options, parse_scenario,
                        run_scenario, _floats, _json_default)


def _emit(payload, out_path):
    text = json.dumps(payload, indent=1, sort_keys=True, default=_json_default)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _add_gen(sub):
    p = sub.add_parser("gen", help="generate a point set and write it to CSV")
    p.add_argument("--kind", required=True, help="a scenario [points] kind")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--basis", help="row-major lattice basis entries, comma separated")
    # the flags below fill the POINT_OPTIONS keys that scenario files use
    for key, default in POINT_OPTIONS.items():
        p.add_argument(f"--{key}", type=float, default=default)
    p.add_argument("--out", required=True)


def _add_density(sub):
    p = sub.add_parser("density", help="Beurling density scan over box sequences")
    p.add_argument("--points", required=True, help="point CSV path")
    p.add_argument("--radii", required=True, help="comma separated box radii")
    p.add_argument("--scan-region", type=float)
    p.add_argument("--out")


def _add_approx(sub):
    p = sub.add_parser("approx", help="Delone stats and finite-cover search")
    p.add_argument("--base", required=True, help="point CSV for the base set")
    p.add_argument("--sumset", help="point CSV for the sumset; default: base+base")
    p.add_argument("--sumset-radius", type=float,
                   help="truncation for the internally built base+base sumset")
    p.add_argument("--coverage-tol", type=float, default=COVERAGE_TOL)
    p.add_argument("--region", type=float, help="verified region radius override")
    p.add_argument("--delone-margin", type=float, default=2.0)
    p.add_argument("--out")


def _add_gabor(sub):
    p = sub.add_parser("gabor", help="coherent system diagnostics")
    gsub = p.add_subparsers(dest="gabor_cmd", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--points", required=True, help="time-frequency node CSV")
    common.add_argument("--out")
    # the flags below fill the GABOR_OPTIONS keys that scenario files use
    common.set_defaults(**{key: row[0] for key, row in GABOR_OPTIONS.items()})

    fp = gsub.add_parser("frame-bounds", parents=[common])
    fp.add_argument("--hermite-N", type=int, dest="hermite_n")
    fp.add_argument("--hermite-step", type=int)

    rp = gsub.add_parser("riesz", parents=[common])
    rp.add_argument("--edge-margin", type=float, dest="riesz_margin")

    dp = gsub.add_parser("dual", parents=[common])
    dp.add_argument("--edge-margin", type=float, default=0.0, dest="riesz_margin")

    hp = gsub.add_parser("hap", parents=[common])
    hp.add_argument("--K", type=float, dest="hap_box")
    hp.add_argument("--x-grid", type=int, dest="hap_x_count")
    hp.add_argument("--x-extent", type=float, dest="hap_x_extent")

    cp = gsub.add_parser("complete", parents=[common])
    cp.add_argument("--probes", type=int, dest="probe_count")


def _add_padic(sub):
    p = sub.add_parser("padic", help="p-adic model set density and covers")
    psub = p.add_subparsers(dest="padic_cmd", required=True)
    for name in ("density", "cover"):
        q = psub.add_parser(name)
        q.add_argument("-p", type=int, required=True)
        q.add_argument("-w", required=True, help="window radius, e.g. 1 or 1/2")
        q.add_argument("-n", type=int, required=True, help="max denominator exponent")
        q.add_argument("--out")
        if name == "cover":
            q.add_argument("--max-size", type=int)


def _add_run(sub):
    p = sub.add_parser("run", help="run scenario files or builtin presets")
    p.add_argument("targets", nargs="*",
                   help="scenario cfg paths or builtin names; 'all' for every builtin")
    p.add_argument("--list", action="store_true", help="list builtin scenarios")
    p.add_argument("--out-dir", help="write one JSON report per scenario here")


def _cmd_gen(args):
    ps = regenerate(build_point_source(vars(args), args.radius))
    save_pointset(ps, args.out)
    print(f"wrote {len(ps)} points to {args.out}")
    return 0


def _cmd_density(args):
    ps = load_pointset(args.points)
    boxes = FolnerBoxes(ps.dim, tuple(_floats(args.radii)))
    _emit(density_scan(ps, boxes, scan_region_radius=args.scan_region).to_dict(), args.out)
    return 0


def _cmd_approx(args):
    base = load_pointset(args.base)
    if args.sumset:
        sumset = load_pointset(args.sumset)
    else:
        radius = args.sumset_radius
        if radius is None:
            radius = base.truncation_radius / 2.0
        sumset = sumset_truncated(base, base, radius)
    payload = checked_cover(sumset, base, args.coverage_tol, args.region)
    payload["delone"] = delone_report(base, args.delone_margin).to_dict()
    _emit(payload, args.out)
    return 0 if payload["reverified"] else 1


def _cmd_gabor(args):
    system = GaborSystem(load_pointset(args.points))
    run = GABOR_CHECKS["frame" if args.gabor_cmd == "frame-bounds" else args.gabor_cmd][0]
    block, _ = run(system, gabor_options(vars(args)))
    _emit(block, args.out)
    return 0


def _cmd_padic(args):
    ms = PAdicModelSet.build(args.p, args.w, args.n)
    rep = (padic_density(ms) if args.padic_cmd == "density"
           else padic_cover_set(ms, max_cover_size=args.max_size))
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
        elif os.path.exists(target):
            paths.append(target)
        else:
            paths.append(builtin_scenario_path(target))
    all_passed = True
    for report in map(run_scenario, [parse_scenario(p) for p in paths]):  # validate all first
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
        prog="quasilat",
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
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen": _cmd_gen, "density": _cmd_density, "approx": _cmd_approx,
                "gabor": _cmd_gabor, "padic": _cmd_padic, "run": _cmd_run}
    try:
        return handlers[args.cmd](args)
    except (QuasilatError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
