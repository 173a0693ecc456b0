import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasilat as ql
from quasilat import gabor
from quasilat.pointset import DEDUP_TOL


def closed_form_gram(pts):
    """Analytic <pi(z')g, pi(z)g> for the unit Gaussian, rows z, columns z'."""
    x, w = pts[:, 0], pts[:, 1]
    dx = x[None, :] - x[:, None]
    dw = w[None, :] - w[:, None]
    sx = x[None, :] + x[:, None]
    return np.exp(1j * math.pi * dw * sx) * np.exp(-math.pi * (dx ** 2 + dw ** 2) / 2.0)


def sparse_system():
    return ql.GaborSystem(ql.lattice_points_in_box(ql.Lattice(np.diag([2.0, 2.0])), 4.0))


def test_grid_spec_properties():
    grid = ql.GridSpec(12.0, 0.01)
    assert grid.size == 2401
    assert grid.times[0] == pytest.approx(-12.0)
    assert grid.times[-1] == pytest.approx(12.0)
    assert grid.xi_max == pytest.approx(25.0)
    assert grid.quad_weights.sum() == pytest.approx(24.0)
    with pytest.raises(ValueError):
        ql.GridSpec(1.0, 2.0)
    with pytest.raises(ValueError):
        ql.GridSpec(1.0, 0.3)  # only 7 samples


def test_gaussian_is_normalized(gauss12):
    assert gauss12.norm() == pytest.approx(1.0, abs=1e-12)


def test_hermite_orthonormality(grid12):
    basis = ql.hermite_basis(grid12, 12)
    G = np.array([[ql.inner(a, b) for b in basis] for a in basis])
    assert np.max(np.abs(G - np.eye(12))) < 1e-8
    with pytest.raises(ValueError):
        ql.hermite_basis(grid12, 0)


def test_inner_product_symmetry(grid12, gauss12):
    h1 = ql.hermite_basis(grid12, 2)[1]
    mixed = ql.tf_shift(gauss12, 0.13, 0.4)
    assert ql.inner(mixed, h1) == pytest.approx(np.conj(ql.inner(h1, mixed)))
    other = ql.Waveform(ql.GridSpec(12.0, 0.02), np.zeros(1201))
    with pytest.raises(ValueError):
        ql.inner(gauss12, other)


def test_tf_shift_on_grid_is_exact(grid12, gauss12):
    x = 0.07  # exactly 7 grid steps
    shifted = ql.tf_shift(gauss12, x, 0.0)
    t = grid12.times
    ref = (2.0 ** 0.25) * np.exp(-math.pi * (t - x) ** 2)
    assert np.max(np.abs(shifted.samples - ref)) < 1e-12


def test_tf_shift_off_grid_within_budget(grid12, gauss12):
    x = 0.0051  # misses every grid node
    shifted = ql.tf_shift(gauss12, x, 0.0)
    t = grid12.times
    ref = (2.0 ** 0.25) * np.exp(-math.pi * (t - x) ** 2)
    err = math.sqrt(float(np.sum(grid12.quad_weights
                                 * np.abs(shifted.samples - ref) ** 2)))
    assert err < 1e-6


def test_modulation_is_exact(grid12, gauss12):
    out = ql.tf_shift(gauss12, 0.0, 3.0)
    ref = gauss12.samples * np.exp(2j * math.pi * 3.0 * grid12.times)
    assert np.max(np.abs(out.samples - ref)) < 1e-12
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_shift_range_guards(gauss12):
    with pytest.raises(ql.ShiftRangeError):
        ql.tf_shift(gauss12, 6.5, 0.0)
    with pytest.raises(ql.ShiftRangeError):
        ql.tf_shift(gauss12, 0.0, 26.0)


def test_cocycle_values():
    assert ql.cocycle((0.5, 0.3), (0.7, 0.5)) == pytest.approx(-1j)
    assert ql.cocycle((0.0, 1.0), (1.0, 0.0)) == pytest.approx(1.0)
    x, xi = 0.31, 1.7
    assert ql.cocycle((x, 0.0), (0.0, xi)) == pytest.approx(
        np.exp(-2j * math.pi * xi * x))


def test_composition_identity_on_grid(grid12, gauss12):
    z, zp = (0.25, 1.5), (-0.13, 0.8)
    lhs = ql.tf_shift(ql.tf_shift(gauss12, zp[0], zp[1]), z[0], z[1])
    rhs = ql.tf_shift(gauss12, z[0] + zp[0], z[1] + zp[1])
    sigma = ql.cocycle(z, zp)
    err = np.max(np.abs(lhs.samples - sigma * rhs.samples))
    assert err < 1e-10


def test_orthogonality_relation_unit_value(grid12, gauss12):
    val = ql.orthogonality_check(gauss12, gauss12, tf_grid_step=0.5, tf_radius=4.0)
    assert val == pytest.approx(1.0, rel=0.01)


def test_system_requires_2d_points():
    with pytest.raises(ValueError):
        ql.GaborSystem(ql.from_points([0.0, 1.0]))


def test_synthesis_columns_are_unit_atoms(grid12):
    V = sparse_system().synthesis_matrix(grid12)
    norms = np.linalg.norm(V, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-10
    for far in ([[20.0, 0.0]], [[0.0, 30.0]]):  # beyond T/2, beyond 1/(4 dt)
        with pytest.raises(ql.ShiftRangeError):
            ql.GaborSystem(ql.from_points(far)).synthesis_matrix(grid12)


def test_gram_matches_closed_form(grid12):
    sys = ql.GaborSystem(ql.lattice_points_in_box(ql.Lattice(np.diag([2.0, 1.0])), 2.0))
    G = ql.gram_matrix(sys)
    ref = closed_form_gram(sys.points.points)
    assert np.max(np.abs(G - ref)) < 1e-9
    # the sampled synthesis matrix cross-checks the closed form
    V = sys.synthesis_matrix(grid12)
    assert np.max(np.abs(V.conj().T @ V - G)) < 1e-9
    with pytest.raises(ValueError, match="cap"):
        ql.gram_matrix(sys, max_points=2)


@functools.lru_cache(maxsize=None)
def _sampled_hermite_rows(grid, count):
    """Rows sqrt(w) h_n of the sampled Hermite basis, so rows @ V are coordinates."""
    H = np.stack([h.samples for h in ql.hermite_basis(grid, count)])
    return H * np.sqrt(grid.quad_weights)


@settings(max_examples=40, deadline=None)
@given(pts=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
                    min_size=1, max_size=5))
def test_atom_coordinates_match_sampled(grid12, pts):
    # |x| <= T/2 = 6 keeps the shifted atoms on the grid; |xi| <= 6 is far
    # below the 1/(4 dt) = 25 aliasing cap
    ps = ql.from_points(pts, dim=2, truncation_radius=6.0)
    sampled = _sampled_hermite_rows(grid12, 30) @ ql.GaborSystem(ps).synthesis_matrix(grid12)
    C = ql.atom_coordinates(ps.points, 30)
    assert np.max(np.abs(C - sampled)) <= 1e-8


def test_coordinate_gram_matches_closed_form():
    pts = ql.lattice_points_in_box(ql.Lattice(np.diag([2.0 ** -0.5, 0.6])), 5.0)
    C = ql.atom_coordinates(pts.points, ql.hermite_cutoff(pts.points))
    G = ql.gram_matrix(ql.GaborSystem(pts))
    assert np.max(np.abs(C.conj().T @ C - G)) <= 1e-12
    origin = ql.atom_coordinates([[0.0, 0.0]], 5)[:, 0]
    assert np.array_equal(origin, [1, 0, 0, 0, 0])  # pi(0) g = h_0


def test_residuals_stable_in_coordinate_count(monkeypatch):
    dense = ql.GaborSystem(ql.lattice_points_in_box(
        ql.Lattice(np.diag([2.0 ** -0.5, 2.0 ** -0.5])), 5.0))
    sparse = sparse_system()

    def residuals():
        return [ql.hap_residual(dense, (0.3, -0.4), 3.0),
                ql.hap_residual(sparse, (0.5, 0.5), 2.0),
                ql.completeness_residual(dense, 10),
                ql.completeness_residual(sparse, 10)]
    before = residuals()
    cutoff = gabor.hermite_cutoff
    monkeypatch.setattr(gabor, "hermite_cutoff", lambda pts: cutoff(pts) + 100)
    after = residuals()
    assert np.max(np.abs(np.subtract(after, before))) <= 1e-13
    assert before[1] > 0.1 and before[3] > 0.1  # nontrivial residuals compared too


def test_frame_bounds_monotone_sweeps():
    lat = ql.Lattice(np.diag([2.0 ** -0.5, 2.0 ** -0.5]))
    sys = ql.GaborSystem(ql.lattice_points_in_box(lat, 10.0))
    fb = ql.frame_bounds(sys, 20, n_step=5)
    assert fb.converged
    assert 0.5 < fb.A_est <= fb.B_est < 4.0
    assert all(a1 <= a0 + 1e-10 for a0, a1 in zip(fb.A_sweep, fb.A_sweep[1:]))
    assert all(b1 >= b0 - 1e-10 for b0, b1 in zip(fb.B_sweep, fb.B_sweep[1:]))
    assert fb.test_sizes[-1] == 20


def test_frame_bounds_guard():
    sys = sparse_system()  # truncation 4 < sqrt(60/pi) + 6
    with pytest.raises(ql.TruncationTooSmallError):
        ql.frame_bounds(sys, 60)


def test_riesz_bounds_nearly_orthonormal():
    sys = sparse_system()
    rb = ql.riesz_bounds(sys, edge_margin=0.0)
    assert rb.subspace_dim == 25
    assert rb.A_est == pytest.approx(1.0, abs=0.02)
    assert rb.B_est == pytest.approx(1.0, abs=0.02)
    with pytest.raises(ValueError):
        ql.riesz_bounds(sys, edge_margin=10.0)


def test_biorthogonal_dual_properties(grid12, gauss12):
    sys = sparse_system()
    dual = ql.biorthogonal_dual(sys)
    assert dual.biorth_residual < 1e-10
    duals = dual.duals(grid12)
    norms_sq = [w.norm() ** 2 for w in duals]
    assert max(norms_sq) == pytest.approx(dual.B_sup, rel=1e-9)
    # spot-check biorthogonality with independently built atoms
    pts = sys.points.points
    for i in (0, 12):
        atom = ql.tf_shift(gauss12, pts[i, 0], pts[i, 1])
        assert abs(ql.inner(atom, duals[i]) - 1.0) < 1e-8
        assert abs(ql.inner(atom, duals[(i + 3) % 25])) < 1e-8


def test_near_duplicate_points_not_minimal():
    pts = ql.from_points([[0.0, 0.0], [1e-6, 0.0]], truncation_radius=1.0)
    sys = ql.GaborSystem(pts)
    with pytest.raises(ql.NotMinimalError):
        ql.biorthogonal_dual(sys)


def test_uniform_min_delta():
    sys = sparse_system()
    delta = ql.uniform_min_delta(sys)
    assert delta == pytest.approx(1.0, abs=0.01)
    single = ql.GaborSystem(ql.from_points([[0.0, 0.0]], truncation_radius=1.0))
    assert ql.uniform_min_delta(single) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        ql.uniform_min_delta(sys, interior_margin=100.0)


def test_hap_residual_behaviour():
    sys = sparse_system()
    at_node = ql.hap_residual(sys, (0.0, 0.0), 3.0)
    assert at_node < 1e-10  # pi(0) g belongs to the local family
    off = (0.3, 0.4)
    r_small = ql.hap_residual(sys, off, 2.0)
    r_large = ql.hap_residual(sys, off, 3.5)
    assert r_large <= r_small + 1e-12
    with pytest.raises(ql.InsufficientTruncationError):
        ql.hap_residual(sys, (3.0, 3.0), 2.0)


def test_completeness_residual_basics():
    sys = sparse_system()
    res = ql.completeness_residual(sys, 1)
    assert res < 1e-10  # the window h_0 itself sits in the family
    assert ql.completeness_residual(sys, 3) >= 0.0
    with pytest.raises(ValueError):
        ql.completeness_residual(sys, 0)


def _lstsq_residual_norms(A, B):
    """Reference: residual norms from the SVD-based np.linalg.lstsq."""
    return np.linalg.norm(B - A @ np.linalg.lstsq(A, B, rcond=None)[0], axis=0)


def test_pivoted_qr_residuals_match_svd_lstsq():
    rng = np.random.default_rng(7)
    for rows, cols, probes in [(30, 12, 3), (60, 59, 1), (200, 150, 10), (8, 8, 2)]:
        A = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        B = np.eye(rows, probes) + rng.normal(size=(rows, probes))
        got = gabor._residual_norms(A, B)
        assert np.max(np.abs(got - _lstsq_residual_norms(A, B))) <= 1e-12
        # rank 5, with unit targets inside that span
        A = (rng.normal(size=(rows, 5)) @ rng.normal(size=(5, cols))
             + 1j * rng.normal(size=(rows, 5)) @ rng.normal(size=(5, cols)))
        B = A @ rng.normal(size=(cols, probes))
        B /= np.linalg.norm(B, axis=0)
        assert np.max(gabor._residual_norms(A, B)) <= 1e-12
        assert np.max(_lstsq_residual_norms(A, B)) <= 1e-12


def test_centred_hap_matches_uncentred_stacking(oversampled_system):
    def uncentred(sys, x, box):
        pts = sys.points.points
        atoms = np.vstack([x, pts[np.all(np.abs(pts - x) <= box + 1e-9, axis=1)]])
        C = ql.atom_coordinates(atoms, ql.hermite_cutoff(atoms))
        return float(_lstsq_residual_norms(C[:, 1:], C[:, :1])[0])

    sparse = sparse_system()
    cases = [(sparse, (0.3, 0.4), 2.0), (sparse, (-1.0, 0.7), 3.0),
             (sparse, (0.0, 0.0), 3.0), (oversampled_system, (1.0, -1.0), 6.0),
             (oversampled_system, (0.3, 0.2), 4.0)]
    for sys, x, box in cases:
        assert abs(ql.hap_residual(sys, x, box) - uncentred(sys, x, box)) <= 1e-12
    assert ql.hap_residual(sparse, (0.3, 0.4), 2.0) > 0.1  # a nontrivial one compared
    # no atom within the box: the distance is ||pi(x) g|| = 1
    far = ql.GaborSystem(ql.from_points([[3.0, 3.0]], truncation_radius=4.0))
    assert abs(ql.hap_residual(far, (0.0, 0.0), 1.0) - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(want=st.sampled_from([1, 2, 4]), scale=st.floats(0.3, 1.0),
       ks=st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1,
                   max_size=9),
       probes=st.integers(1, 12))
def test_rotation_class_solves_match_full_svd(want, scale, ks, probes):
    # a set made exactly C1, C2 or C4 by adding its exact rotated images
    pts = scale * np.array(ks, dtype=float)
    turned = np.column_stack([-pts[:, 1], pts[:, 0]])
    pts = np.vstack([pts, -pts, turned, -turned][:want])
    system = ql.GaborSystem(ql.from_points(pts, truncation_radius=6.0))
    assert gabor.rotation_order(system.points.points) % want == 0
    N = max(ql.hermite_cutoff(system.points.points), probes)
    C = ql.atom_coordinates(system.points.points, N)
    full = _lstsq_residual_norms(C, np.eye(N, probes))
    assert np.max(np.abs(gabor._probe_residual_norms(system.points.points, probes)
                         - full)) <= 1e-12
    assert abs(ql.completeness_residual(system, probes) - np.max(full)) <= 1e-12
    N = ql.hermite_cutoff(system.points.points)
    hap = _lstsq_residual_norms(ql.atom_coordinates(system.points.points, N),
                                np.eye(N, 1))[0]
    assert abs(ql.hap_residual(system, (0.0, 0.0), 6.0) - hap) <= 1e-12


def test_rotation_order_is_exact(oversampled_system):
    pts = oversampled_system.points.points
    assert gabor.rotation_order(pts) == 4
    rect = ql.lattice_points_in_box(ql.Lattice(np.diag([2.0 ** -0.5, 0.6])), 11.0)
    assert gabor.rotation_order(rect.points) == 2
    for base in (pts, rect.points):
        moved = base.copy()
        moved[0, 0] += DEDUP_TOL / 2.0
        assert gabor.rotation_order(moved) == 1
    assert gabor.rotation_order(np.zeros((0, 2))) == 4  # the empty set


@settings(max_examples=60, deadline=None)
@given(want=st.sampled_from([1, 2, 4]), axis=st.integers(0, 3), scale=st.floats(0.3, 1.0),
       ks=st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1,
                   max_size=7),
       probes=st.integers(1, 12))
def test_reflection_class_solves_match_full_svd(want, axis, scale, ks, probes):
    # a set made exactly D1, D2 or D4 by adding its rotated and reflected images
    pts = scale * np.array(ks, dtype=float)
    turned = np.column_stack([-pts[:, 1], pts[:, 0]])
    pts = np.vstack([pts, -pts, turned, -turned][:want])
    x, xi = pts.T   # the image under z -> exp(2 i theta) conj(z), theta = axis pi/4
    pts = np.vstack([pts, np.column_stack([(x, -xi), (xi, x), (-x, xi), (-xi, -x)][axis])])
    system = ql.GaborSystem(ql.from_points(pts, truncation_radius=6.0))
    assert gabor.reflection_angle(system.points.points) is not None
    if want == 4:   # D4 holds every reflection, the first found is theta = 0
        assert gabor.reflection_angle(system.points.points) == 0.0
    # each real class solve has the column count of the complex one
    order, _, shapes = gabor.solve_shapes(system.points.points, probes)
    reps, _ = gabor._orbit_representatives(system.points.points, order, None)
    assert [cols for _, cols, _ in shapes] == [len(reps)] * min(order, probes)
    N = max(ql.hermite_cutoff(system.points.points), probes)
    C = ql.atom_coordinates(system.points.points, N)
    full = _lstsq_residual_norms(C, np.eye(N, probes))
    assert np.max(np.abs(gabor._probe_residual_norms(system.points.points, probes)
                         - full)) <= 1e-12
    assert abs(ql.completeness_residual(system, probes) - np.max(full)) <= 1e-12
    N = ql.hermite_cutoff(system.points.points)
    hap = _lstsq_residual_norms(ql.atom_coordinates(system.points.points, N),
                                np.eye(N, 1))[0]
    assert abs(ql.hap_residual(system, (0.0, 0.0), 6.0) - hap) <= 1e-12


def test_reflection_angle_is_exact(oversampled_system):
    pts = oversampled_system.points.points
    assert gabor.reflection_angle(pts) == 0.0
    rect = ql.lattice_points_in_box(ql.Lattice(np.diag([2.0 ** -0.5, 0.6])), 11.0)
    assert gabor.reflection_angle(rect.points) == 0.0
    # a linear shear keeps the negation but no reflection
    sheared = np.column_stack([pts[:, 0] + pts[:, 1], pts[:, 1]])
    assert gabor.rotation_order(sheared) == 2
    assert gabor.reflection_angle(sheared) is None
    for base in (pts, rect.points):
        moved = base.copy()
        moved[0, 0] += DEDUP_TOL / 2.0
        assert gabor.reflection_angle(moved) is None
    assert gabor.reflection_angle(np.zeros((0, 2))) == 0.0  # the empty set


def test_hap_grid_solves_one_point_per_orbit(monkeypatch, oversampled_system):
    rect = ql.GaborSystem(ql.lattice_points_in_box(
        ql.Lattice(np.diag([2.0 ** -0.5, 0.6])), 11.0))
    moved = oversampled_system.points.points + [0.1, 0.2]
    shifted = ql.GaborSystem(ql.from_points(
        moved[np.all(np.abs(moved) <= 10.5, axis=1)], truncation_radius=10.5))
    solve = gabor._residual_norms
    calls = []
    monkeypatch.setattr(gabor, "_residual_norms",
                        lambda A, B: calls.append(A.shape) or solve(A, B))
    run = ql.scenarios.GABOR_CHECKS["hap"][0]
    opt = ql.scenarios.gabor_options({"hap_box": 4.0})  # a smaller box, same grid
    for system, order, solves in [(oversampled_system, 4, 6), (rect, 2, 9),
                                  (shifted, 1, 25)]:
        calls.clear()
        block, _ = run(system, opt)
        assert len(calls) == solves
        assert (block["rotation_order"], block["solves"]) == (order, solves)
        if order > 1:
            axis = block["x_axis"]
            direct = [[ql.hap_residual(system, (a, b), opt["hap_box"]) for b in axis]
                      for a in axis]
            assert np.max(np.abs(np.subtract(block["residuals"], direct))) <= 1e-12


def test_hap_grid_orbits_under_a_diagonal_reflection(monkeypatch):
    # m (1.4, 0.4) + n (0.4, 1.4) is exactly closed under the swap (x, xi) -> (xi, x)
    # and the negation, not under the 90-degree rotation: D2 with theta = pi/4
    m, n = np.mgrid[-12:13, -12:13].reshape(2, -1)
    pts = np.column_stack([m * 1.4 + n * 0.4, m * 0.4 + n * 1.4])
    system = ql.GaborSystem(ql.from_points(pts[np.all(np.abs(pts) <= 10.5, axis=1)],
                                           truncation_radius=10.5))
    assert gabor.rotation_order(system.points.points) == 2
    assert gabor.reflection_angle(system.points.points) == math.pi / 4
    solve = gabor._residual_norms
    dtypes = []
    monkeypatch.setattr(gabor, "_residual_norms",
                        lambda A, B: dtypes.append(A.dtype) or solve(A, B))
    run = ql.scenarios.GABOR_CHECKS["hap"][0]
    opt = ql.scenarios.gabor_options({"hap_box": 4.0})
    block, _ = run(system, opt)
    # centre, two orbits on each diagonal, four of the sixteen other points
    assert (block["rotation_order"], block["reflection_axis"], block["solves"]) == (2, 0.25, 9)
    assert len(dtypes) == 9 and dtypes[0] == np.float64  # the centred set keeps the reflection
    axis = block["x_axis"]
    direct = [[ql.hap_residual(system, (a, b), opt["hap_box"]) for b in axis] for a in axis]
    assert np.max(np.abs(np.subtract(block["residuals"], direct))) <= 1e-12
    assert np.ptp(direct) > 0.1  # a residual map that varies over the grid


def test_critical_lattice_completeness_residual():
    # the integer lattice at critical density: the probes h_1 mod 4 keep a
    # residual near 0.114 at this truncation, so the proxy stays unflagged
    system = ql.GaborSystem(ql.lattice_points_in_box(ql.Lattice(np.eye(2)), 11.0))
    res = ql.completeness_residual(system, 10)
    assert abs(res - 0.11423354226583607) <= 1e-12
    assert res > ql.scenarios.COMPLETE_FLOOR


def test_formal_degree_constant():
    assert ql.D_PI == 1.0
