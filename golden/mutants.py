#!/usr/bin/env python3
"""Kept mutants: small breaks of the program that named tests must catch.

Each entry of MUTANTS is (what the mutant breaks, file under src/quasilat,
exact old snippet, new snippet, test node ids under tests/). For each entry
the script copies src/ to a temporary directory, replaces the old snippet by
the new one and runs only the named tests against the copy (PYTHONPATH and
pytest's pythonpath both point at it). The mutant is killed when pytest
reports a failing test; it survives when the tests pass, and any other
pytest exit (a node id that is gone, a collection error) counts as an error.

The script fails if an old snippet does not occur exactly once in its file,
so a change that rewrites a snippet must update its entry, or if any mutant
is not killed. Hypothesis runs with a fixed seed, so a kill is repeatable.

Usage: python3 golden/mutants.py
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKERS = 2

MUTANTS = [
    # product point sets stay factored
    ("extreme boxes reused for any equal-length axis", "density.py",
     "if np.array_equal(c, coords)]", "if len(c) == len(coords)]",
     ["test_density.py::test_exact_scan_at_tolerance_edges"]),
    ("one factor point dropped", "scenarios.py",
     "Product([line(radius).points[:, 0] for line in lines], radius)",
     "Product([line(radius).points[1:, 0] for line in lines], radius)",
     ["test_density.py::test_factored_scan_of_diagonal_lattices_matches_rows"]),
    # Hermite coordinates by the ratio recurrence, subadditivity by one lexsort
    ("no log-space guard on the coordinate seed", "gabor.py",
     "SEED_EXPONENT_MAX = 700.0", "SEED_EXPONENT_MAX = 1e9",
     ["test_gabor.py::test_coordinates_match_log_space"]),
    ("unique_rows: np.all for np.any", "pointset.py",
     "new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)",
     "new[1:] = np.all(ranked[1:] != ranked[:-1], axis=1)",
     ["test_pointset.py::test_unique_rows_matches_numpy_unique"]),
    ("subadditivity copies less the union's row once", "scenarios.py",
     "copies = counts - 2 * np.bincount", "copies = counts - 1 * np.bincount",
     ["test_scenarios.py::test_subadditivity_excess_is_exact"]),
    # covers on a line by one sorted search
    ("line cover: lower neighbour index shifted by one", "approxcheck.py",
     "line[np.maximum(j - 1, 0)]", "line[np.maximum(j - 2, 0)]",
     ["test_approxcheck.py::test_coverage_matrix_on_a_line_matches_kd_tree"]),
    ("line cover: upper neighbour index shifted by one", "approxcheck.py",
     "line[np.minimum(j, len(line) - 1)]", "line[np.minimum(j + 1, len(line) - 1)]",
     ["test_approxcheck.py::test_coverage_matrix_on_a_line_matches_kd_tree"]),
    ("verify_cover shares the cover search's _coverage_matrix", "approxcheck.py",
     "        dist, _ = tree.query(targets - f, k=1, p=np.inf)\n"
     "        covered |= dist <= coverage_tol\n",
     "        covered |= _coverage_matrix(f[None], targets, base.points, coverage_tol)[0]\n",
     ["test_approxcheck.py::test_reverified_does_not_share_the_coverage_search"]),
    ("CSV cells at 16 significant digits", "pointset.py",
     '"%.17g" % v', '"%.16g" % v',
     ["test_pointset.py::test_save_pointset_text_matches_per_element_format"]),
    ("CSV columns grouped by float value, not bits", "pointset.py",
     "np.unique(points[:, c].view(np.int64), return_inverse=True)",
     "np.unique(points[:, c], return_inverse=True)",
     ["test_pointset.py::test_save_pointset_text_matches_per_element_format"]),
    ("CSV body rows not checked for finiteness", "pointset.py",
     "rows if rows.shape[1] == dim and np.isfinite(rows).all() else None",
     "rows if rows.shape[1] == dim else None",
     ["test_pointset.py::test_non_finite_coordinates_and_bad_dimension_are_refused"]),
    ("library points not checked for finiteness", "pointset.py",
     "    if not np.isfinite(pts).all():\n        raise ValueError(\"non-finite point coordinate\")",
     "    if False:\n        raise ValueError(\"non-finite point coordinate\")",
     ["test_pointset.py::test_non_finite_coordinates_and_bad_dimension_are_refused"]),
    ("dim=0 header accepted", "pointset.py",
     "        if dim < 1:\n", "        if dim < 0:\n",
     ["test_pointset.py::test_non_finite_coordinates_and_bad_dimension_are_refused"]),
    ("min_separation's distance bound without nextafter", "pointset.py",
     "distance_upper_bound=np.nextafter(bound, np.inf)", "distance_upper_bound=bound",
     ["test_pointset.py::test_min_separation_paths"]),
    # only the options callers set
    ("dim= header digits without isascii", "pointset.py",
     "digits.isascii() and digits.isdigit()", "digits.isdigit()",
     ["test_pointset.py::test_non_finite_coordinates_and_bad_dimension_are_refused"]),
    ("empty interior family not refused", "scenarios.py",
     "        if len(interior.points) == 0:\n", "        if False:\n",
     ["test_cli.py::test_gabor_riesz_and_dual_refuse_a_truncation_inside_the_margin"]),
    # HAP on lattices by lattice translation
    ("lattice HAP centred on the integer minimum, not the midpoint", "gabor.py",
     "j = (n.min(axis=0) + n.max(axis=0)) / 2", "j = n.min(axis=0)",
     ["test_gabor.py::test_lattice_hap_matches_the_general_path"]),
    ("lattice HAP without the row check", "gabor.py",
     "            if not np.array_equal(column_sums(n, B), near):\n",
     "            if False:\n",
     ["test_gabor.py::test_lattice_hap_refuses_a_basis_that_misses_the_rows"]),
    ("lattice HAP atoms as rows minus c", "gabor.py",
     "centred, atoms, c = n - j, column_sums(n - j, B), column_sums(j, B)",
     "centred, atoms, c = n - j, near - column_sums(j, B), column_sums(j, B)",
     ["test_gabor.py::test_lattice_hap_matches_the_general_path"]),
    ("probe points enter with their real parts only", "gabor.py",
     "_class_coordinates(probes, k, max(cutoff, hermite_cutoff(probes)), 1, theta)",
     "_class_coordinates(probes, 0, max(cutoff, hermite_cutoff(probes)), 1, theta)",
     ["test_gabor.py::test_lattice_hap_matches_the_general_path"]),
    ("one HAP problem per x", "gabor.py",
     "problems.setdefault(lexsorted(centred).tobytes(), (atoms, []))",
     "problems.setdefault(i, (atoms, []))",
     ["test_scenarios.py::test_lattice_frame_half_hap_is_one_solve"]),
    # one solve-sharing rule for HAP
    ("HAP reflection images dropped", "gabor.py",
     "        if theta is not None:   # z -> exp(2 i theta) conj(z)\n            turns +=",
     "        if False:\n            turns +=",
     ["test_gabor.py::test_hap_grid_orbits_under_a_diagonal_reflection"]),
    ("HAP images matched within a tolerance", "gabor.py",
     "turns = [complex(*at) * 1j", "turns = [complex(*np.round(at, 6)) * 1j",
     ["test_gabor.py::test_hap_image_one_ulp_off_gets_its_own_solve"]),
    ("singular dual's delta not from its own decomposition", "gabor.py",
     "numerically singular\",\n                              _min_delta(eigs, U))",
     "numerically singular\",\n                              0.0)",
     ["test_scenarios.py::test_dual_and_complete_blocks_decompose_once"]),
    ("a gabor check listed twice accepted", "scenarios.py",
     "checks.count(c) > 1", "checks.count(c) > 2",
     ["test_scenarios.py::test_parse_rejects_inconsistent_gabor"]),
    ("a missing cfg path taken for a builtin name", "cli.py",
     "os.path.exists(target) or os.path.dirname(target) or target.endswith(\".cfg\")",
     "os.path.exists(target)",
     ["test_cli.py::test_run_missing_path_names_the_file"]),
    # report names, report files and sidecars
    ("a report name holding / accepted", "scenarios.py",
     'if text in ("", ".", "..") or "/" in text or', 'if text in ("", ".", "..") or',
     ["test_cli.py::test_run_refuses_a_name_that_leaves_the_out_dir"]),
    ("two targets with one report file accepted", "cli.py",
     "names.count(n) > 1", "names.count(n) > 2",
     ["test_cli.py::test_run_refuses_two_targets_with_one_report_file"]),
    ("sidecar count not checked against the CSV body", "pointset.py",
     '(("count", len(pts)), ("dim", dim))', '(("dim", dim),)',
     ["test_cli.py::test_sidecar_count_and_dim_must_match_the_csv"]),
    ("a csv scenario read again to run", "scenarios.py",
     "sc.point_kind or point_kind(sc.points)", "point_kind(sc.points)",
     ["test_cli.py::test_csv_scenario_restricts_to_each_radius"]),
    # exactness claims of earlier changes
    ("extreme boxes: logical_or for logical_and", "density.py",
     "is_right = ~np.logical_and.reduceat", "is_right = ~np.logical_or.reduceat",
     ["test_density.py::test_axis_extreme_boxes_match_unique_and_isin"]),
    ("class coordinates: rotation phase sign flipped", "gabor.py",
     "U[r::order] *= np.exp(-1j * r * alpha)", "U[r::order] *= np.exp(1j * r * alpha)",
     ["test_gabor.py::test_coordinates_match_log_space"]),
    ("require_reach without its DEDUP_TOL", "pointset.py",
     "if not needed <= truncation + DEDUP_TOL:", "if not needed <= truncation:",
     ["test_pointset.py::test_restrict_refuses_radius_beyond_truncation"]),
    ("_canonical keeps only the first point of a chain", "pointset.py",
     "np.flatnonzero(np.any(spread > DEDUP_TOL, axis=1))", "np.flatnonzero(spread[:, 0] < 0)",
     ["test_pointset.py::test_canonical_drops_copy_separated_in_lex_order"]),
]


def stale_snippets():
    """Entries whose old snippet does not occur exactly once in its file."""
    out = []
    for what, path, old, _, _ in MUTANTS:
        count = (ROOT / "src" / "quasilat" / path).read_text().count(old)
        if count != 1:
            out.append(f"{what}: the old snippet occurs {count} times in {path}")
    return out


def run_mutant(mutant):
    """(pytest's exit code, seconds) for the named tests against the mutated copy."""
    what, path, old, new, tests = mutant
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "quasilat" / path
        target.write_text(target.read_text().replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1",
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-o", f"pythonpath={src}", "--hypothesis-seed=0",
               *(str(ROOT / "tests" / test) for test in tests)]
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
    return proc.returncode, time.perf_counter() - start


def main():
    if stale := stale_snippets():
        print(*stale, sep="\n")
        return 1
    start = time.perf_counter()
    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(run_mutant, MUTANTS))
    failed = 0
    for (what, *_), (code, seconds) in zip(MUTANTS, results):
        status = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
        failed += code != 1
        print(f"{status:<8} {seconds:5.1f} s  {what}")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
