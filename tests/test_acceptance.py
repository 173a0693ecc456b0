"""End-to-end acceptance battery: eleven scripted checks, one verdict line each.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASS/FAIL line per
criterion; the printed lines repeat the measured numbers next to the stated
tolerances.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import quasilat as ql


def _verdict(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {label}")
    assert ok, f"criterion {num}: {label}"


def _density(basis_diag, truncation=200.0, radii=(10.0, 20.0, 30.0, 40.0, 50.0)):
    lat = ql.Lattice(np.diag(basis_diag))
    ps = ql.lattice_points_in_box(lat, truncation)
    return ql.density_scan(ps, ql.FolnerBoxes(len(basis_diag), radii))


def test_01_lattice_density_trio():
    worst = 0.0
    for alpha, beta in ((0.5, 1.0), (1.0, 1.0), (2.0, 0.5)):
        rho = 1.0 / (alpha * beta)
        rep = _density((alpha, beta))
        err = max(abs(rep.D_minus - rho), abs(rep.D_plus - rho)) / rho
        worst = max(worst, err)
    _verdict(1, f"separable lattice densities: max rel err {worst:.2e} <= 0.02",
             worst <= 0.02)


def test_02_model_set_density():
    ps = ql.model_set_generate(ql.fibonacci_scheme(1.0), 2000.0)
    rep = ql.density_scan(ps, ql.FolnerBoxes(1, (250.0, 500.0, 1000.0)))
    rho = 2.0 / math.sqrt(5.0)
    err = max(abs(rep.D_minus - rho), abs(rep.D_plus - rho)) / rho
    _verdict(2, f"cut-and-project density: rel err {err:.2e} <= 0.02", err <= 0.02)


def test_03_padic_density_and_ratios():
    rep = ql.padic_density(ql.PAdicModelSet.build(2, 1, 12))
    err = abs(float(rep.density) - 2.0)
    exact = all(r == 2 + Fraction(1, 2 ** n) for n, r in enumerate(rep.ratios))
    _verdict(3, f"dyadic model set: density err {err:.1e} <= 2e-4, "
                f"ratios exactly 2 + 2^-n: {exact}", err <= 2e-4 and exact)


def test_04_cover_axioms(golden):
    base = ql.lattice_points_in_box(ql.Lattice(np.eye(2)), 20.0)
    sumset = ql.sumset_truncated(base, base, 10.0)
    lat_cover = ql.find_cover_set(sumset, base)
    lat_ok = (lat_cover.k == 1
              and np.allclose(lat_cover.defect_set, [[0.0, 0.0]])
              and ql.verify_cover(sumset, base, lat_cover.defect_set))

    fib = ql.model_set_generate(ql.fibonacci_scheme(1.0), 30.0)
    fib_sum = ql.sumset_truncated(fib, fib, 15.0)
    fib_cover = ql.find_cover_set(fib_sum, fib)
    k_ref = golden["fibonacci"]["cover_k_exhaustive"]
    fib_ok = (fib_cover.k == k_ref
              and ql.verify_cover(fib_sum, fib, fib_cover.defect_set, 1e-6))
    _verdict(4, f"covers: lattice k={lat_cover.k} F={{0}}, "
                f"fibonacci k={fib_cover.k} == frozen {k_ref}", lat_ok and fib_ok)


def test_05_orthogonality_relations(grid12, gauss12):
    h1 = ql.hermite_basis(grid12, 2)[1]
    v_gg = ql.orthogonality_check(gauss12, gauss12)
    v_gh = ql.orthogonality_check(gauss12, h1)
    ok = abs(v_gg - 1.0) <= 0.01 and abs(v_gh - 1.0) <= 0.01
    _verdict(5, f"orthogonality relations: gaussian {v_gg:.4f}, "
                f"hermite1 {v_gh:.4f}, both 1 +- 1%", ok)


def test_06_cocycle_unitarity_battery(grid12, gauss12):
    # grid-aligned time shifts keep the operators exact at any modulation;
    # off-grid draws stay within the interpolation budget when |xi| <= 1
    rng = np.random.default_rng(20260825)
    w = grid12.quad_weights
    worst = 0.0
    for trial in range(100):
        if trial % 2 == 0:
            x1, x2 = rng.integers(-300, 301, size=2) * grid12.dt
            xi1, xi2 = rng.uniform(-5.0, 5.0, size=2)
        else:
            x1, x2 = rng.uniform(-3.0, 3.0, size=2)
            xi1, xi2 = rng.uniform(-1.0, 1.0, size=2)
        lhs = ql.tf_shift(ql.tf_shift(gauss12, x2, xi2), x1, xi1)
        rhs = ql.tf_shift(gauss12, x1 + x2, xi1 + xi2)
        sigma = ql.cocycle((x1, xi1), (x2, xi2))
        comp = math.sqrt(float(np.sum(w * np.abs(lhs.samples - sigma * rhs.samples) ** 2)))
        worst = max(worst, comp, abs(lhs.norm() - 1.0))
    _verdict(6, f"cocycle/unitarity battery (100 draws): worst {worst:.2e} <= 1e-6",
             worst <= 1e-6)


def test_07_frame_bound_separation(golden, oversampled_system, undersampled_system):
    fb_lo = ql.frame_bounds(oversampled_system, 60)
    fb_hi = ql.frame_bounds(undersampled_system, 60)
    mono = (all(a1 <= a0 + 1e-9 for a0, a1 in zip(fb_lo.A_sweep, fb_lo.A_sweep[1:]))
            and all(a1 <= a0 + 1e-9 for a0, a1 in zip(fb_hi.A_sweep, fb_hi.A_sweep[1:]))
            and all(b1 >= b0 - 1e-9 for b0, b1 in zip(fb_lo.B_sweep, fb_lo.B_sweep[1:]))
            and all(b1 >= b0 - 1e-9 for b0, b1 in zip(fb_hi.B_sweep, fb_hi.B_sweep[1:])))
    golden_ok = (np.isclose(fb_lo.A_est, golden["frame_half"]["A_60"], rtol=1e-3)
                 and np.isclose(fb_hi.A_est, golden["frame_105"]["A_60"],
                                rtol=1e-3, atol=1e-12)
                 and np.isclose(fb_hi.B_est, golden["frame_105"]["B_60"], rtol=1e-3))
    ok = (fb_lo.converged and fb_lo.A_est > 1e-1 and fb_hi.A_est < 1e-3
          and mono and golden_ok)
    _verdict(7, f"frame separation at N=60: dense A={fb_lo.A_est:.4f} > 0.1, "
                f"sparse A={fb_hi.A_est:.2e} < 1e-3, sweeps monotone: {mono}", ok)


def test_08_riesz_minimality_and_upper_density(golden, grid12):
    ref = golden["riesz_2"]
    pts = ql.lattice_points_in_box(ql.Lattice(np.diag([2.0, 1.0])), 6.0)
    interior = ql.GaborSystem(pts.restrict(4.0))  # the Riesz margin 2 dropped
    rb = ql.riesz_bounds(interior)
    riesz_ok = (rb.subspace_dim == ref["subspace_dim"] and rb.A_est > 0.2
                and np.isclose(rb.A_est, ref["A"], rtol=1e-3)
                and np.isclose(rb.B_est, ref["B"], rtol=1e-3))

    dual = ql.biorthogonal_dual(interior)
    delta = ql.uniform_min_delta(interior)
    max_dual_norm = max(wf.norm() for wf in dual.duals(grid12))
    product = delta * max_dual_norm
    minimal_ok = (dual.biorth_residual < 1e-6
                  and abs(product - 1.0) <= 1e-3
                  and np.isclose(delta, ref["delta"], rtol=1e-3))

    rep = _density((2.0, 1.0))
    dens_ok = abs(rep.D_plus - 0.5) <= 0.01 and rep.D_plus <= ql.D_PI
    _verdict(8, f"riesz family: A={rb.A_est:.4f} > 0.2, biorth residual "
                f"{dual.biorth_residual:.1e} < 1e-6, delta*max_norm={product:.6f} "
                f"= 1 +- 1e-3, D+={rep.D_plus:.4f} <= 1",
             riesz_ok and minimal_ok and dens_ok)


def test_09_local_approximation(golden, oversampled_system):
    bound = golden["hap_half"]["residual_bound"]
    axis = np.linspace(-1.0, 1.0, 5)
    worst = 0.0
    mono = True
    for x1 in axis:
        for x2 in axis:
            res = [ql.hap_residual(oversampled_system, (x1, x2), k)
                   for k in (4.0, 5.0, 6.0)]
            mono &= res[0] + 1e-12 >= res[1] >= res[2] - 1e-12
            worst = max(worst, res[2])
    _verdict(9, f"local approximation on 5x5 grid: max residual {worst:.2e} "
                f"<= frozen {bound:.1e}, non-increasing in K: {mono}",
             worst <= bound and mono)


def test_10_scenario_battery():
    names = ql.builtin_scenario_names()
    all_ok = len(names) >= 8
    for name in names:
        report = ql.run_scenario(ql.parse_scenario(ql.builtin_scenario_path(name)))
        for line in report.verdict_lines():
            print("   ", line)
        all_ok &= report.passed
    _verdict(10, f"scenario battery: {len(names)} scenarios, every density "
                 f"consistency verdict holds at 5% slack", all_ok)


def test_11_union_count_subadditivity():
    q, trunc = 4.0, 60.0
    ms = np.arange(-trunc, trunc + 1.0)
    base = ql.from_points(np.stack([ms / q, ms], axis=1), truncation_radius=trunc)
    neg = ql.from_points(-base.points, truncation_radius=trunc)
    sub = ql.Lattice(np.diag([q, 1.0]))
    union = ql.symmetrize(base, sub, trunc)
    lat = ql.lattice_points_in_box(sub, trunc)
    ok = True
    for radius in (5.0, 10.0, 15.0):
        scan = trunc - 15.0
        _, cu = ql.translate_count_grid(union, radius, 0.5, scan)
        _, cb = ql.translate_count_grid(base, radius, 0.5, scan)
        _, cn = ql.translate_count_grid(neg, radius, 0.5, scan)
        _, cl = ql.translate_count_grid(lat, radius, 0.5, scan)
        ok &= bool(np.all(cu <= cb + cn + cl))
    _verdict(11, "union counts: count(union in xK) <= count(base) + count(-base)"
                 " + count(sublattice) at every scanned (x, n)", ok)
