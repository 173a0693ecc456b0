import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasilat as ql
from quasilat.pointset import DEDUP_TOL


def unit_line(radius):
    return ql.lattice_points_in_box(ql.Lattice(np.array([[1.0]])), radius)


def test_folner_boxes_validation_and_measure():
    boxes = ql.FolnerBoxes(3, (2.0, 4.0))
    assert boxes.measure(0) == pytest.approx(64.0)
    with pytest.raises(ValueError):
        ql.FolnerBoxes(1, ())
    with pytest.raises(ValueError):
        ql.FolnerBoxes(1, (2.0, 2.0))
    with pytest.raises(ValueError):
        ql.FolnerBoxes(1, (-1.0, 2.0))


def test_van_hove_ratio_closed_form_and_decay():
    boxes = ql.FolnerBoxes(2, (10.0, 20.0, 40.0))
    assert ql.van_hove_ratio(boxes, 0, 1.0) == pytest.approx(0.4)
    assert ql.van_hove_ratio(boxes, 1, 1.0) == pytest.approx(0.2)
    assert ql.van_hove_ratio(boxes, 2, 1.0) == pytest.approx(0.1)
    assert ql.van_hove_ratio(boxes, 0, 0.0) == 0.0
    with pytest.raises(ValueError):
        ql.van_hove_ratio(boxes, 0, -1.0)


def test_count_in_translate_exact_values():
    ps = ql.lattice_points_in_box(ql.Lattice(np.eye(2)), 10.0)
    assert ql.count_in_translate(ps, (0.0, 0.0), 1.0) == 9
    assert ql.count_in_translate(ps, (0.5, 0.5), 0.4) == 0
    assert ql.count_in_translate(ps, (0.5, 0.5), 0.5) == 4  # boundary inclusive
    assert ql.count_in_translate(ps, (9.5, 9.5), 0.5) == 4
    with pytest.raises(ql.InsufficientTruncationError):
        ql.count_in_translate(ps, (10.0, 10.0), 1.0)
    with pytest.raises(ValueError):
        ql.count_in_translate(ps, (0.0,), 1.0)


def test_translate_count_grid_phases():
    ps = unit_line(10.0)
    centers, counts = ql.translate_count_grid(ps, 1.0, 0.5, 2.0)
    np.testing.assert_allclose(centers, np.arange(-2.0, 2.5, 0.5))
    np.testing.assert_array_equal(counts, [3, 2, 3, 2, 3, 2, 3, 2, 3])
    with pytest.raises(ql.InsufficientTruncationError):
        ql.translate_count_grid(ps, 1.0, 0.5, 9.5)


def test_exact_extrema_hand_case_1d():
    ps = ql.from_points([0.0, 1.0, 3.0], truncation_radius=10.0)
    report = ql.density_scan(ps, ql.FolnerBoxes(1, (1.0,)), scan_region_radius=2.0)
    assert report.lower_counts == [0]
    assert report.upper_counts == [2]
    assert report.translate_step is None


def test_exact_extrema_hand_case_2d():
    ps = ql.from_points([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], truncation_radius=5.0)
    report = ql.density_scan(ps, ql.FolnerBoxes(2, (1.0,)), scan_region_radius=1.0)
    assert report.lower_counts == [1]
    assert report.upper_counts == [3]


def test_unit_line_densities_are_exact():
    # box [x-r, x+r] holds 2r integers at worst phase, 2r+1 at best, so the
    # per-box estimates are affine in 1/r and the fit recovers them exactly
    ps = unit_line(20.0)
    report = ql.density_scan(ps, ql.FolnerBoxes(1, (2.0, 4.0, 8.0)))
    assert report.lower_counts == [4, 8, 16]
    assert report.upper_counts == [5, 9, 17]
    assert report.D_minus == pytest.approx(1.0, abs=1e-9)
    assert report.D_plus == pytest.approx(1.0, abs=1e-9)
    assert report.slope_plus == pytest.approx(0.5, abs=1e-9)
    assert report.scan_region_radius == pytest.approx(12.0)


def test_square_lattice_density_near_one():
    ps = ql.lattice_points_in_box(ql.Lattice(np.eye(2)), 40.0)
    report = ql.density_scan(ps, ql.FolnerBoxes(2, (5.0, 10.0, 20.0)))
    assert report.D_minus == pytest.approx(1.0, rel=0.01)
    assert report.D_plus == pytest.approx(1.0, rel=0.01)
    assert report.D_minus <= report.D_plus


def test_exact_mode_brackets_grid_mode():
    ps = ql.model_set_generate(ql.fibonacci_scheme(1.0), 100.0)
    boxes = ql.FolnerBoxes(1, (5.0, 10.0, 20.0))
    exact = ql.density_scan(ps, boxes)
    grid = ql.density_scan(ps, boxes, translate_step=0.25)
    for ex_lo, g_lo in zip(exact.lower_counts, grid.lower_counts):
        assert ex_lo <= g_lo
    for ex_hi, g_hi in zip(exact.upper_counts, grid.upper_counts):
        assert ex_hi >= g_hi


def test_exact_mode_finds_worst_phase_missed_by_grid():
    # spacing 1/sqrt2 with a scan grid anchored at -scan and commensurate with
    # the step: the uniform grid sees only a few phases, the exact mode must
    # not exceed any directly measured translate count
    alpha = 2.0 ** -0.5
    ps = ql.lattice_points_in_box(ql.Lattice(np.array([[alpha]])), 200.0)
    boxes = ql.FolnerBoxes(1, (30.0,))
    exact = ql.density_scan(ps, boxes, scan_region_radius=10.0)
    probe = ql.count_in_translate(ps, (alpha / 2.0,), 30.0)
    assert exact.lower_counts[0] <= probe
    grid = ql.density_scan(ps, boxes, translate_step=alpha / 2.0,
                           scan_region_radius=10.0)
    assert exact.lower_counts[0] <= grid.lower_counts[0]
    assert exact.upper_counts[0] >= grid.upper_counts[0]


def test_empty_set_density_zero():
    ps = ql.from_points([], truncation_radius=10.0)
    report = ql.density_scan(ps, ql.FolnerBoxes(1, (1.0, 2.0)))
    assert report.D_minus == 0.0
    assert report.D_plus == 0.0
    assert report.lower_counts == [0, 0]


def test_density_scan_guards():
    ps = unit_line(10.0)
    with pytest.raises(ql.InsufficientTruncationError):
        ql.density_scan(ps, ql.FolnerBoxes(1, (15.0,)))
    with pytest.raises(ql.InsufficientTruncationError):
        ql.density_scan(ps, ql.FolnerBoxes(1, (5.0,)), scan_region_radius=6.0)
    with pytest.raises(ValueError):
        ql.density_scan(ps, ql.FolnerBoxes(1, (5.0,)), translate_step=0.0)
    with pytest.raises(ValueError):
        ql.density_scan(ps, ql.FolnerBoxes(2, (5.0,)))


def test_report_to_dict_roundtrips_to_json():
    import json
    ps = unit_line(20.0)
    report = ql.density_scan(ps, ql.FolnerBoxes(1, (2.0, 4.0)))
    blob = json.dumps(report.to_dict())
    back = json.loads(blob)
    assert back["D_minus"] == report.D_minus
    assert back["translate_step"] is None


def _brute_force_extremes(points, radius, scan):
    """(inf, sup) of the closed-box count, counted directly at every translate
    whose coordinates are breakpoints p_j +- radius, the scan ends, or midpoints
    between consecutive ones: the count is constant between breakpoints."""
    axes = []
    for j in range(points.shape[1]):
        b = np.concatenate([points[:, j] - radius, points[:, j] + radius, [-scan, scan]])
        b = np.unique(b[(b >= -scan) & (b <= scan)])
        axes.append(np.concatenate([b, (b[:-1] + b[1:]) / 2.0]))
    xs = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    inside = np.all(np.abs(points[None, :, :] - xs[:, None, :]) <= radius + DEDUP_TOL, axis=2)
    counts = inside.sum(axis=1)
    return int(counts.min()), int(counts.max())


_coord = st.one_of(st.integers(-24, 24).map(lambda k: k / 4.0), st.floats(-6.0, 6.0))


@settings(max_examples=80, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), data=st.data(),
       radii=st.lists(st.sampled_from([0.5, 1.0, 1.25, 2.0, 2.75]), min_size=1,
                      max_size=3, unique=True))
def test_exact_scan_matches_brute_force(dim, data, radii):
    # in 3-d the brute force counts at up to (4 n + 3)^3 translates
    pts = data.draw(st.lists(st.tuples(*[_coord] * dim), min_size=1,
                             max_size=25 if dim < 3 else 8))
    ps = ql.from_points(pts, dim=dim, truncation_radius=6.0)
    radii = sorted(radii)
    rep = ql.density_scan(ps, ql.FolnerBoxes(dim, tuple(radii)))
    scan = 6.0 - radii[-1]
    for n, r in enumerate(radii):
        lo, hi = _brute_force_extremes(ps.points, r, scan)
        assert (rep.lower_counts[n], rep.upper_counts[n]) == (lo, hi)


def _chain(start, radius, offset, count):
    """count coordinates, consecutive ones 2 radius apart up to the offset."""
    xs = [start]
    for _ in range(count - 1):
        if offset in ("+ulp", "-ulp"):
            xs.append(np.nextafter(xs[-1] + 2.0 * radius, np.inf if offset == "+ulp" else -np.inf))
        else:
            xs.append(xs[-1] + 2.0 * radius + offset * DEDUP_TOL)
    return np.array(xs)


@pytest.mark.parametrize("radius", [1.0, 0.75])
def test_exact_scan_at_tolerance_edges(radius):
    # Chains spaced 2r apart up to a tolerance-sized offset, junctions inside
    # the scan region: neighbouring boxes (inflated by DEDUP_TOL) overlap when
    # the spacing is below 2r + 2 tol, so per axis the sup is 2 and the inf 1;
    # above it they leave a gap (sup 1, inf 0). The chain starts keep every
    # box face far from the scan ends, where rounding would decide a tie.
    offsets = [0.0, "+ulp", "-ulp", 0.5, -0.5, 1.5, -1.5, 3.0, -3.0]
    scan = 2.5

    def expected(offset):
        overlap = offset in ("+ulp", "-ulp") or offset < 2.0
        return (1, 2) if overlap else (0, 1)
    for offset in offsets:
        xs = _chain(-3.3, radius, offset, 6)
        ps = ql.from_points(xs, truncation_radius=10.0)
        rep = ql.density_scan(ps, ql.FolnerBoxes(1, (radius,)), scan_region_radius=scan)
        counts = (rep.lower_counts[0], rep.upper_counts[0])
        assert counts == _brute_force_extremes(ps.points, radius, scan) == expected(offset)
    for ox, oy in [(1.5, -0.5), (3.0, 1.5), ("+ulp", 3.0), (-1.5, "-ulp"), (0.0, -3.0)]:
        xs, ys = _chain(-3.3, radius, ox, 6), _chain(-2.7, radius, oy, 6)
        ps = ql.from_points(np.stack(np.meshgrid(xs, ys, indexing="ij"), -1).reshape(-1, 2),
                            truncation_radius=10.0)
        rep = ql.density_scan(ps, ql.FolnerBoxes(2, (radius,)), scan_region_radius=scan)
        counts = (rep.lower_counts[0], rep.upper_counts[0])
        (lx, ux), (ly, uy) = expected(ox), expected(oy)
        assert counts == _brute_force_extremes(ps.points, radius, scan) == (lx * ly, ux * uy)
