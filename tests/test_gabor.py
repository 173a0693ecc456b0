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


def test_gram_matches_closed_form(grid12, monkeypatch):
    sys = ql.GaborSystem(ql.lattice_points_in_box(ql.Lattice(np.diag([2.0, 1.0])), 2.0))
    G = ql.gram_matrix(sys)
    ref = closed_form_gram(sys.points.points)
    assert np.max(np.abs(G - ref)) < 1e-9
    # the sampled synthesis matrix cross-checks the closed form
    V = sys.synthesis_matrix(grid12)
    assert np.max(np.abs(V.conj().T @ V - G)) < 1e-9
    monkeypatch.setattr(ql.gabor, "GRAM_MAX_POINTS", 2)
    with pytest.raises(ValueError, match="cap"):
        ql.gram_matrix(sys)


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


def _log_space_coordinates(pts, N):
    """Reference: log |C[n, j]| (-inf where C vanishes) and arg z_j, with SciPy's gammaln."""
    from scipy.special import gammaln
    x, xi = pts.T
    r2 = x * x + xi * xi
    n = np.arange(N, dtype=float)[:, None]
    log_mod = (0.5 * n * np.log(math.pi * np.where(r2 == 0.0, 1.0, r2))
               - 0.5 * gammaln(n + 1.0) - 0.5 * math.pi * r2)
    log_mod[1:, r2 == 0.0] = -np.inf   # pi(0) g = h_0
    return log_mod, np.arctan2(xi, x)


# unit directions at k pi / 4, exact; a multiple lies on a sector ray
_RAYS = np.array([(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)],
                 dtype=float)


@st.composite
def _coordinate_points(draw):
    """Points mixing the origin, points on the rays k pi / 4, general points
    and points with 21 <= |z| <= 30, where the recurrence hands over to log space."""
    def general():
        return tuple(draw(st.floats(-12.0, 12.0)) for _ in range(2))

    def ray():
        k, t = draw(st.integers(0, 7)), draw(st.floats(0.01, 14.0))
        return tuple(t * _RAYS[k] / np.hypot(*_RAYS[k]))

    def far():
        t, a = draw(st.floats(21.0, 30.0)), draw(st.floats(-math.pi, math.pi))
        return (t * math.cos(a), t * math.sin(a))

    kinds = {"origin": lambda: (0.0, 0.0), "general": general, "ray": ray, "far": far}
    names = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=6))
    return np.array([kinds[k]() for k in names], dtype=float).reshape(-1, 2)


@settings(max_examples=40, deadline=None)
@given(pts=_coordinate_points(), order=st.sampled_from([1, 2, 4]),
       k=st.integers(0, 3), data=st.data())
def test_coordinates_match_log_space(pts, order, k, data):
    N = data.draw(st.sampled_from([1, 2, 30, ql.hermite_cutoff(pts)]))
    log_mod, angle = _log_space_coordinates(pts, N)
    n = np.arange(N, dtype=float)[:, None]
    want = np.exp(log_mod + 1j * (n * angle + math.pi * pts[:, 0] * pts[:, 1]))
    got = ql.atom_coordinates(pts, N)
    assert np.all(np.isfinite(got)) and np.max(np.abs(got - want)) <= 1e-12
    # the reflection branch: rows |C_n| cos((n - r) alpha), then |C_n| sin((n - r) alpha)
    theta = k * math.pi / 4
    inside = data.draw(st.integers(0, len(pts)))
    phase = (np.arange(N) // order * order)[:, None] * (angle - theta)
    modulus = np.exp(log_mod)
    want = np.hstack([modulus * np.cos(phase), (modulus * np.sin(phase))[:, :inside]])
    got = gabor._class_coordinates(pts, inside, N, order, theta)
    assert got.shape == want.shape and np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-12


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


def test_frame_bounds_monotone_sweeps(monkeypatch):
    lat = ql.Lattice(np.diag([2.0 ** -0.5, 2.0 ** -0.5]))
    sys = ql.GaborSystem(ql.lattice_points_in_box(lat, 10.0))
    monkeypatch.setattr(ql.gabor, "FRAME_STEP", 5)
    fb = ql.frame_bounds(sys, 20)
    assert fb.converged
    assert 0.5 < fb.A_est <= fb.B_est < 4.0
    assert all(a1 <= a0 + 1e-10 for a0, a1 in zip(fb.A_sweep, fb.A_sweep[1:]))
    assert all(b1 >= b0 - 1e-10 for b0, b1 in zip(fb.B_sweep, fb.B_sweep[1:]))
    assert fb.test_sizes[-1] == 20


def test_frame_bounds_guard():
    sys = sparse_system()  # truncation 4 < sqrt(60/pi) + 6
    with pytest.raises(ql.InsufficientTruncationError, match="guard radius"):
        ql.frame_bounds(sys, 60)


def test_riesz_bounds_nearly_orthonormal():
    sys = sparse_system()
    rb = ql.riesz_bounds(sys)
    assert rb.subspace_dim == 25
    assert rb.A_est == pytest.approx(1.0, abs=0.02)
    assert rb.B_est == pytest.approx(1.0, abs=0.02)
    with pytest.raises(ValueError):  # an empty family has no Gram
        ql.riesz_bounds(ql.GaborSystem(ql.from_points(np.zeros((0, 2)), 2)))


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
    assert gabor.symmetry(system.points.points)[0] % want == 0
    N = max(ql.hermite_cutoff(system.points.points), probes)
    C = ql.atom_coordinates(system.points.points, N)
    full = _lstsq_residual_norms(C, np.eye(N, probes))
    assert np.max(np.abs(gabor._probe_residual_norms(system.class_split, probes)
                         - full)) <= 1e-12
    assert abs(ql.completeness_residual(system, probes) - np.max(full)) <= 1e-12
    N = ql.hermite_cutoff(system.points.points)
    hap = _lstsq_residual_norms(ql.atom_coordinates(system.points.points, N),
                                np.eye(N, 1))[0]
    assert abs(ql.hap_residual(system, (0.0, 0.0), 6.0) - hap) <= 1e-12


def test_rotation_order_is_exact(oversampled_system):
    pts = oversampled_system.points.points
    assert gabor.symmetry(pts)[0] == 4
    rect = ql.lattice_points_in_box(ql.Lattice(np.diag([2.0 ** -0.5, 0.6])), 11.0)
    assert gabor.symmetry(rect.points)[0] == 2
    for base in (pts, rect.points):
        moved = base.copy()
        moved[0, 0] += DEDUP_TOL / 2.0
        assert gabor.symmetry(moved)[0] == 1
    assert gabor.symmetry(np.zeros((0, 2)))[0] == 4  # the empty set


@settings(max_examples=60, deadline=None)
@given(want=st.sampled_from([1, 2, 4]), axis=st.integers(0, 3), scale=st.floats(0.3, 1.0),
       ks=st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1,
                   max_size=7),
       probes=st.integers(1, 12), data=st.data())
def test_reflection_class_solves_match_full_svd(want, axis, scale, ks, probes, data):
    # a set made exactly D1, D2 or D4 by adding its rotated and reflected images
    pts = scale * np.array(ks, dtype=float)
    turned = np.column_stack([-pts[:, 1], pts[:, 0]])
    pts = np.vstack([pts, -pts, turned, -turned][:want])
    x, xi = pts.T   # the image under z -> exp(2 i theta) conj(z), theta = axis pi/4
    pts = np.vstack([pts, np.column_stack([(x, -xi), (xi, x), (-x, xi), (-xi, -x)][axis])])
    system = ql.GaborSystem(ql.from_points(pts, truncation_radius=6.0))
    order, theta = gabor.symmetry(system.points.points)
    assert theta is not None
    if want == 4:   # D4 holds every reflection, the first found is theta = 0
        assert theta == 0.0
    # the exact turn (x, xi) -> (-xi, x) keeps the order and has a reflection
    # exactly when the set has one; the row order of the set changes nothing
    x, xi = system.points.points.T
    turned_order, turned_theta = gabor.symmetry(np.column_stack([-xi, x]))
    assert turned_order == order and (turned_theta is None) == (theta is None)
    perm = data.draw(st.permutations(range(len(x))))
    assert gabor.symmetry(system.points.points[perm]) == (order, theta)
    # each real class solve has the column count of the complex one
    order, _, shapes = gabor.solve_shapes(system, probes)
    reps, _ = gabor._orbit_representatives(system.points.points, order, None)
    assert [cols for _, cols, _ in shapes] == [len(reps)] * min(order, probes)
    N = max(ql.hermite_cutoff(system.points.points), probes)
    C = ql.atom_coordinates(system.points.points, N)
    full = _lstsq_residual_norms(C, np.eye(N, probes))
    assert np.max(np.abs(gabor._probe_residual_norms(system.class_split, probes)
                         - full)) <= 1e-12
    assert abs(ql.completeness_residual(system, probes) - np.max(full)) <= 1e-12
    N = ql.hermite_cutoff(system.points.points)
    hap = _lstsq_residual_norms(ql.atom_coordinates(system.points.points, N),
                                np.eye(N, 1))[0]
    assert abs(ql.hap_residual(system, (0.0, 0.0), 6.0) - hap) <= 1e-12


def test_reflection_angle_is_exact(oversampled_system):
    pts = oversampled_system.points.points
    assert gabor.symmetry(pts)[1] == 0.0
    rect = ql.lattice_points_in_box(ql.Lattice(np.diag([2.0 ** -0.5, 0.6])), 11.0)
    assert gabor.symmetry(rect.points)[1] == 0.0
    # a linear shear keeps the negation but no reflection
    sheared = np.column_stack([pts[:, 0] + pts[:, 1], pts[:, 1]])
    assert gabor.symmetry(sheared)[0] == 2
    assert gabor.symmetry(sheared)[1] is None
    for base in (pts, rect.points):
        moved = base.copy()
        moved[0, 0] += DEDUP_TOL / 2.0
        assert gabor.symmetry(moved)[1] is None
    assert gabor.symmetry(np.zeros((0, 2)))[1] == 0.0  # the empty set


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_swap_symmetric_lattice_takes_real_class_solves(monkeypatch, scale):
    # the basis columns (0.7, 0.2) and (0.2, 0.7) swap under (x, xi) -> (xi, x);
    # generated as sums of integer multiples of the columns, the truncation is
    # closed under the swap bit for bit, so its class solves are real
    basis = scale * np.array([[0.7, 0.2], [0.2, 0.7]])
    pts = ql.lattice_points_in_box(ql.Lattice(basis), 11.0).points
    assert gabor.symmetry(pts) == (2, math.pi / 4)
    solve = gabor._residual_norms
    dtypes = []
    monkeypatch.setattr(gabor, "_residual_norms",
                        lambda A, B: dtypes.append(A.dtype) or solve(A, B))
    got = gabor._probe_residual_norms(gabor._split_problems(pts), 10)
    assert dtypes == [np.float64, np.float64]
    N = ql.hermite_cutoff(pts)
    full = _lstsq_residual_norms(ql.atom_coordinates(pts, N), np.eye(N, 10))
    assert np.max(np.abs(got - full)) <= 1e-12
    assert (np.max(full) > 0.1) == (scale == 2.0)  # the sparser lattice leaves residuals


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
    monkeypatch.setattr(ql.scenarios, "HAP_BOX", 4.0)  # the same grid, smaller solves
    run = ql.scenarios.GABOR_CHECKS["hap"][0]
    for system, order, solves in [(oversampled_system, 4, 6), (rect, 2, 9),
                                  (shifted, 1, 25)]:
        calls.clear()
        block, _ = run(system, {})
        assert len(calls) == solves
        assert (block["rotation_order"], block["solves"]) == (order, solves)
        if order > 1:
            axis = block["x_axis"]
            direct = [[ql.hap_residual(system, (a, b), 4.0) for b in axis] for a in axis]
            assert np.max(np.abs(np.subtract(block["residuals"], direct))) <= 1e-12


def test_hap_grid_orbits_under_a_diagonal_reflection(monkeypatch):
    # m (1.4, 0.4) + n (0.4, 1.4) is exactly closed under the swap (x, xi) -> (xi, x)
    # and the negation, not under the 90-degree rotation: D2 with theta = pi/4
    m, n = np.mgrid[-12:13, -12:13].reshape(2, -1)
    pts = np.column_stack([m * 1.4 + n * 0.4, m * 0.4 + n * 1.4])
    system = ql.GaborSystem(ql.from_points(pts[np.all(np.abs(pts) <= 10.5, axis=1)],
                                           truncation_radius=10.5))
    assert gabor.symmetry(system.points.points)[0] == 2
    assert gabor.symmetry(system.points.points)[1] == math.pi / 4
    solve = gabor._residual_norms
    dtypes = []
    monkeypatch.setattr(gabor, "_residual_norms",
                        lambda A, B: dtypes.append(A.dtype) or solve(A, B))
    monkeypatch.setattr(ql.scenarios, "HAP_BOX", 4.0)
    block, _ = ql.scenarios.GABOR_CHECKS["hap"][0](system, {})
    # centre, two orbits on each diagonal, four of the sixteen other points
    assert (block["rotation_order"], block["reflection_axis"], block["solves"]) == (2, 0.25, 9)
    assert len(dtypes) == 9 and dtypes[0] == np.float64  # the centred set keeps the reflection
    axis = block["x_axis"]
    direct = [[ql.hap_residual(system, (a, b), 4.0) for b in axis] for a in axis]
    assert np.max(np.abs(np.subtract(block["residuals"], direct))) <= 1e-12
    assert np.ptp(direct) > 0.1  # a residual map that varies over the grid


HAP_AXIS = np.linspace(-1.0, 1.0, 5)


LATTICE_HAP_CASES = [   # basis, solves without and with the lattice
    (np.eye(2) * 2 ** -0.5, 6, 1), (np.eye(2), 4, 4), (np.diag([3.5, 0.3]), 9, 4),
    ([[1.4, 0.4], [0.4, 1.4]], 9, 8), (0.5 * np.array([[3.0, 1.0], [0.0, 1.0]]), 3, 3)]


@pytest.mark.parametrize("basis, general_solves, solves", LATTICE_HAP_CASES,
                         ids=[f"basis{i}-{case[2]}" for i, case in enumerate(LATTICE_HAP_CASES)])
def test_lattice_hap_matches_the_general_path(monkeypatch, basis, general_solves, solves):
    # the grid of the scenario check; on Z^2 the box edges at integer x pass
    # through lattice points, so the centred sets there are one point wider
    lattice = ql.Lattice(basis)
    points = ql.lattice_points_in_box(lattice, 7.5)
    grid = [(a, b) for a in HAP_AXIS for b in HAP_AXIS]
    general, count = ql.hap_residual(ql.GaborSystem(points), grid, 6.0)
    # a single x shares nothing: each grid point gets its own x-centred solve
    single = [ql.hap_residual(ql.GaborSystem(points), x, 6.0) for x in grid]
    solve = gabor._residual_norms
    shapes = []
    monkeypatch.setattr(gabor, "_residual_norms",
                        lambda A, B: shapes.append(A.shape) or solve(A, B))
    centred, got = ql.hap_residual(ql.GaborSystem(points, lattice), grid, 6.0)
    assert (count, got) == (general_solves, solves)
    assert np.max(np.abs(general - single)) <= 1e-12
    assert np.max(np.abs(centred - single)) <= 1e-12
    if solves == 1:   # I / sqrt 2: one 17 x 17 block, four real class solves
        assert len(shapes) == 4 and max(cols for _, cols in shapes) < 80
    # a single x takes the same path
    assert abs(ql.hap_residual(ql.GaborSystem(points, lattice), grid[7], 6.0)
               - single[7]) <= 1e-12


@pytest.mark.parametrize("basis, on_lattice, solves", [
    (np.eye(2) * 2 ** -0.5, False, 6), (np.diag([2 ** -0.5, 0.6]), False, 9),
    ([[1.4, 0.4], [0.4, 1.4]], False, 9), (np.diag([2 ** -0.5, 0.6]), True, 4)])
def test_hap_shares_solves_in_any_order(basis, on_lattice, solves):
    # no two orbits of these grids share a centred set, so the count is the
    # same whichever point of an orbit comes first (on Z^2 it is not: (1, 0.5) and
    # (0, 0.5) see one centred set, and their orbits hold (0.5, 1) and (0.5, 0),
    # which see its mirror image)
    lattice = ql.Lattice(basis)
    system = ql.GaborSystem(ql.lattice_points_in_box(lattice, 7.5),
                            lattice if on_lattice else None)
    grid = np.array([(a, b) for a in HAP_AXIS for b in HAP_AXIS])
    values, count = ql.hap_residual(system, grid, 4.0)
    assert count == solves
    for seed in range(4):
        perm = np.random.default_rng(seed).permutation(len(grid))
        shuffled, got = ql.hap_residual(system, grid[perm], 4.0)
        assert got == solves
        assert np.max(np.abs(shuffled - values[perm])) <= 1e-12


def test_hap_image_one_ulp_off_gets_its_own_solve(oversampled_system):
    # (-0.5, 0.25) is the exact mirror image of (0.5, 0.25) under (x, xi) -> (-x, xi),
    # a symmetry of (1/sqrt2) Z^2; one unit in the last place off, it is not
    x = (0.5, 0.25)
    mirror = (-0.5, 0.25)
    off = (np.nextafter(-0.5, -1.0), 0.25)
    values, solves = ql.hap_residual(oversampled_system, [x, mirror], 4.0)
    assert solves == 1 and values[0] == values[1]
    values, solves = ql.hap_residual(oversampled_system, [x, off], 4.0)
    assert solves == 2
    assert values[1] == ql.hap_residual(oversampled_system, off, 4.0)
    assert abs(values[1] - values[0]) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.5, 1.6), b=st.floats(0.5, 1.6),
       shear=st.one_of(st.just(0.0), st.floats(-0.8, 0.8)),
       xs=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1,
                   max_size=4))
def test_lattice_hap_property(a, b, shear, xs):
    lattice = ql.Lattice([[a, shear], [0.0, b]])
    points = ql.lattice_points_in_box(lattice, 4.5)
    centred, _ = ql.hap_residual(ql.GaborSystem(points, lattice), xs, 3.0)
    general, _ = ql.hap_residual(ql.GaborSystem(points), xs, 3.0)
    assert np.max(np.abs(centred - general)) <= 1e-12


def test_lattice_hap_refuses_a_basis_that_misses_the_rows():
    points = ql.lattice_points_in_box(ql.Lattice(np.eye(2) * 2 ** -0.5), 7.5)
    # one unit in the last place off: the integer coordinates are right, the rows are not
    for basis in (np.eye(2) * np.nextafter(2 ** -0.5, 0.0), np.eye(2) * 0.7):
        system = ql.GaborSystem(points, ql.Lattice(basis))
        with pytest.raises(ValueError, match="does not reproduce"):
            ql.hap_residual(system, (0.5, 0.0), 6.0)


def test_critical_lattice_completeness_residual():
    # the integer lattice at critical density: the probes h_1 mod 4 keep a
    # residual near 0.114 at this truncation, so the proxy stays unflagged
    system = ql.GaborSystem(ql.lattice_points_in_box(ql.Lattice(np.eye(2)), 11.0))
    res = ql.completeness_residual(system, 10)
    assert abs(res - 0.11423354226583607) <= 1e-12
    assert res > ql.scenarios.COMPLETE_FLOOR


def test_formal_degree_constant():
    assert ql.D_PI == 1.0
