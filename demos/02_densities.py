"""Estimate lower/upper Beurling densities over centered box sequences.

Per-box counts are exact extrema over every translate in the scan region;
each count carries an O(1/r) boundary term, so the reported densities come
from a linear fit in 1/r. The van Hove ratios quantify how quickly boundary
effects vanish.
"""

import math

import numpy as np

import quasilat as ql

RADII = (10.0, 15.0, 20.0, 25.0)


def van_hove_ratio(boxes, n, half_width):
    """Share ((2r + 2a)^d - (2r - 2a)^d) / (2r)^d of the n-th box taken by its
    boundary thickened by a = half_width; it tends to 0 in n (strong Folner)."""
    r, d = boxes.radii[n], boxes.dim
    outer = (2.0 * r + 2.0 * half_width) ** d
    inner = max(2.0 * r - 2.0 * half_width, 0.0) ** d
    return (outer - inner) / (2.0 * r) ** d


def scan_lattice(alpha, beta):
    lat = ql.Lattice(np.diag([alpha, beta]))
    ps = ql.lattice_points_in_box(lat, 100.0)
    rep = ql.density_scan(ps, ql.FolnerBoxes(2, RADII))
    rho = 1.0 / (alpha * beta)
    print(f"  {alpha} Z x {beta} Z: D- = {rep.D_minus:.4f}, D+ = {rep.D_plus:.4f} "
          f"(exact {rho}, worst rel err "
          f"{max(abs(rep.D_minus - rho), abs(rep.D_plus - rho)) / rho:.1e})")


def main():
    print("separable lattices, truncation 100:")
    for alpha, beta in ((0.5, 1.0), (1.0, 1.0), (2.0, 0.5)):
        scan_lattice(alpha, beta)

    fib = ql.model_set_generate(ql.fibonacci_scheme(1.0), 500.0)
    rep = ql.density_scan(fib, ql.FolnerBoxes(1, (50.0, 100.0, 200.0)))
    print(f"\nFibonacci model set: D- = {rep.D_minus:.5f}, D+ = {rep.D_plus:.5f}, "
          f"exact 2/sqrt(5) = {2.0 / math.sqrt(5.0):.5f}")
    print(f"  per-box lower estimates: {[round(v, 4) for v in rep.lower_estimates]}")
    print(f"  per-box upper estimates: {[round(v, 4) for v in rep.upper_estimates]}")

    boxes = ql.FolnerBoxes(1, (50.0, 100.0, 200.0))
    print("\nvan Hove boundary ratios (half-width 2):",
          [round(van_hove_ratio(boxes, n, 2.0), 4) for n in range(3)])

    # a uniform translate grid can miss the worst phase entirely when the
    # step is commensurate with the point spacing; the exact mode cannot.
    # Truncation 40 leaves the scan region [-10, 10] for the box of radius 30.
    alpha = 2.0 ** -0.5
    line = ql.lattice_points_in_box(ql.Lattice(np.array([[alpha]])), 40.0)
    exact = ql.density_scan(line, ql.FolnerBoxes(1, (30.0,)))
    grid = ql.density_scan(line, ql.FolnerBoxes(1, (30.0,)), translate_step=alpha / 2.0)
    print(f"\nspacing 1/sqrt(2), box radius 30: exact worst count "
          f"{exact.lower_counts[0]}, grid-of-translates worst count "
          f"{grid.lower_counts[0]} (grid anchored off the bad phase)")


if __name__ == "__main__":
    main()
