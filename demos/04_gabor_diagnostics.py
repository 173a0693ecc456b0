"""Diagnose coherent Gabor systems pi(x, xi) g over 2d time-frequency node sets.

The density of the node set controls which properties are attainable:
oversampled Gaussian systems are frames, undersampled ones leave holes the
finite sections expose, and sparse interior families are Riesz with a
well-conditioned biorthogonal dual.
"""

import math

import numpy as np

import quasilat as ql


def lattice_system(a, b, radius):
    return ql.GaborSystem(ql.lattice_points_in_box(ql.Lattice(np.diag([a, b])), radius))


def main():
    grid = ql.GridSpec(20.0, 0.01)
    g = ql.gaussian_window(grid)

    val = ql.orthogonality_check(g, g)
    print(f"orthogonality relation, Gaussian window: integral = {val:.5f} "
          f"(formal degree {ql.D_PI})")

    z, zp = (0.25, 1.5), (-0.4, 0.8)
    sigma = ql.cocycle(z, zp)
    print(f"cocycle sigma(z, z') for z={z}, z'={zp}: {sigma:.4f}")

    print("\nframe bounds via finite sections (Hermite test basis, N=40):")
    a = 2.0 ** -0.5
    dense = lattice_system(a, a, 10.0)
    fb = ql.frame_bounds(dense, 40)
    print(f"  cell area 0.5 ({len(dense.points)} nodes): A = {fb.A_est:.4f}, "
          f"B = {fb.B_est:.4f}, converged {fb.converged}")
    sparse = lattice_system(3.5, 0.3, 10.0)
    fb2 = ql.frame_bounds(sparse, 40)
    print(f"  cell area 1.05 ({len(sparse.points)} nodes): A = {fb2.A_est:.2e} "
          f"-> no frame at this tolerance (A sweep {[f'{x:.1e}' for x in fb2.A_sweep]})")

    # the interior family: the nodes at least 2 inside the truncation radius 6
    interior = ql.GaborSystem(lattice_system(2.0, 1.0, 6.0).points.restrict(4.0))
    rb = ql.riesz_bounds(interior)
    print(f"\nRiesz bounds for 2Z x Z (interior {rb.subspace_dim} nodes): "
          f"A = {rb.A_est:.4f}, B = {rb.B_est:.4f}")

    dual = ql.biorthogonal_dual(interior)
    delta = ql.uniform_min_delta(interior)
    max_norm = max(w.norm() for w in dual.duals(ql.GridSpec(12.0, 0.01)))
    print(f"  biorthogonal dual: residual {dual.biorth_residual:.1e}, "
          f"minimality gap delta = {delta:.4f}, delta * max dual norm = "
          f"{delta * max_norm:.6f}")

    res = [ql.hap_residual(dense, (0.3, -0.7), k) for k in (4.0, 5.0, 6.0)]
    print(f"\nlocal approximation residuals at x=(0.3,-0.7), K=4,5,6: "
          f"{[f'{r:.2e}' for r in res]} (non-increasing in K up to rounding)")

    critical = lattice_system(1.0, 1.0, 10.0)
    # sampled cross-check: least squares of the Hermite probes on the grid,
    # one right-hand side per probe
    V = critical.synthesis_matrix(grid)
    B = np.sqrt(grid.quad_weights)[:, None] * np.stack(
        [h.samples for h in ql.hermite_basis(grid, 6)], axis=1)
    per = np.linalg.norm(B - V @ np.linalg.lstsq(V, B, rcond=None)[0], axis=0)
    print(f"\ncell area exactly 1: per-Hermite completeness residuals "
          f"{[f'{r:.2e}' for r in per]}")
    print(f"  max in Hermite coordinates (completeness_residual): "
          f"{ql.completeness_residual(critical, 6):.2e}")
    print("  indices 1 and 5 stay high: expanding those functions needs "
          "unboundedly large coefficients, so the truncated least squares "
          "cannot drive the residual down.")


if __name__ == "__main__":
    main()
