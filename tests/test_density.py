import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasilat as ql
from quasilat import density
from quasilat.pointset import DEDUP_TOL
from quasilat.scenarios import builtin_scenario_path, point_kind


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
    ps = ql.from_points([0.0, 1.0, 3.0], truncation_radius=3.0)  # scan region [-2, 2]
    report = ql.density_scan(ps, ql.FolnerBoxes(1, (1.0,)))
    assert report.lower_counts == [0]
    assert report.upper_counts == [2]
    assert report.translate_step is None


def test_exact_extrema_hand_case_2d():
    ps = ql.from_points([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], truncation_radius=2.0)
    report = ql.density_scan(ps, ql.FolnerBoxes(2, (1.0,)))  # scan region [-1, 1]^2
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


@pytest.mark.parametrize("spacings", [(2.0 ** -0.5, 2.0 ** -0.5), (3.5, 0.3)])
def test_separable_lattice_extremes_match_closed_form(spacings):
    # a Z x b Z at truncation 100: per axis a closed box of side 2r holds
    # floor(2r / a) points at the worst translate and one more at the best,
    # and the counts multiply across the axes; no 2r / a here is near an integer
    radii = (10.0, 25.0, 40.0)
    ps = ql.lattice_points_in_box(ql.Lattice(np.diag(spacings)), 100.0)
    rep = ql.density_scan(ps, ql.FolnerBoxes(2, radii))
    per_axis = [[math.floor(2.0 * r / a) for a in spacings] for r in radii]
    assert rep.lower_counts == [math.prod(m) for m in per_axis]
    assert rep.upper_counts == [math.prod(k + 1 for k in m) for m in per_axis]


def test_square_lattice_density_near_one():
    ps = ql.lattice_points_in_box(ql.Lattice(np.eye(2)), 40.0)
    report = ql.density_scan(ps, ql.FolnerBoxes(2, (5.0, 10.0, 20.0)))
    assert report.D_minus == pytest.approx(1.0, rel=0.01)
    assert report.D_plus == pytest.approx(1.0, rel=0.01)
    assert report.D_minus <= report.D_plus


def _unique_isin_extreme_boxes(coords, reach, scan):
    """Reference: _axis_extreme_boxes's cells by np.unique and np.isin."""
    tops = coords[(coords - reach >= -scan) & (coords - reach <= scan)]
    sup_high = np.append(-scan + reach, tops)
    lefts = np.append(np.clip(coords - reach, -scan, scan), scan)
    rights = np.append(np.clip(coords + reach, -scan, scan), -scan)
    cuts = np.unique(np.concatenate([lefts, rights]))
    cells = np.isin(cuts[:-1], rights) & np.isin(cuts[1:], lefts)
    mids = ((cuts[:-1] + cuts[1:]) / 2.0)[cells] if len(cuts) > 1 else cuts
    return (sup_high - 2.0 * reach, sup_high), (mids - reach, mids + reach)


@settings(max_examples=200, deadline=None)
@given(coords=st.lists(st.one_of(st.integers(-12, 12).map(lambda k: k / 4),
                                 st.floats(-6.0, 6.0)), min_size=1, max_size=30),
       reach=st.sampled_from([0.25, 0.5, 1.0, 2.5]).map(lambda r: r + DEDUP_TOL)
       | st.floats(0.01, 4.0),
       scan=st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 6.0))
def test_axis_extreme_boxes_match_unique_and_isin(coords, reach, scan):
    # quarter-integer coordinates put ends on one another and, with the sampled
    # reaches and scans, clip several of them to the same +-scan
    coords = np.sort(np.array(coords, dtype=float))
    got = density._axis_extreme_boxes(coords, reach, scan)
    want = _unique_isin_extreme_boxes(coords, reach, scan)
    for g, w in zip([*got[0], *got[1]], [*want[0], *want[1]]):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


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
    # not exceed any directly measured translate count; truncation 40 leaves
    # the scan region [-10, 10]
    alpha = 2.0 ** -0.5
    ps = ql.lattice_points_in_box(ql.Lattice(np.array([[alpha]])), 40.0)
    boxes = ql.FolnerBoxes(1, (30.0,))
    exact = ql.density_scan(ps, boxes)
    assert exact.scan_region_radius == 10.0
    probe = ql.count_in_translate(ps, (alpha / 2.0,), 30.0)
    assert exact.lower_counts[0] <= probe
    grid = ql.density_scan(ps, boxes, translate_step=alpha / 2.0)
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
    with pytest.raises(ValueError):
        ql.density_scan(ps, ql.FolnerBoxes(1, (5.0,)), translate_step=0.0)
    # a box as wide as the truncation leaves the centred box alone
    centred = ql.density_scan(ps.restrict(5.0), ql.FolnerBoxes(1, (5.0,)))
    assert centred.scan_region_radius == 0.0
    assert centred.lower_counts == centred.upper_counts == [11]
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
    whose coordinates are breakpoints p_j +- (radius + DEDUP_TOL), the scan
    ends, or midpoints between consecutive ones: the count is constant between
    breakpoints."""
    axes = []
    reach = radius + DEDUP_TOL
    for j in range(points.shape[1]):
        b = np.concatenate([points[:, j] - reach, points[:, j] + reach, [-scan, scan]])
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
        ps = ql.from_points(xs, truncation_radius=10.0).restrict(radius + scan)
        rep = ql.density_scan(ps, ql.FolnerBoxes(1, (radius,)))
        counts = (rep.lower_counts[0], rep.upper_counts[0])
        assert counts == _brute_force_extremes(ps.points, radius, scan) == expected(offset)
    for ox, oy in [(1.5, -0.5), (3.0, 1.5), ("+ulp", 3.0), (-1.5, "-ulp"), (0.0, -3.0)]:
        xs, ys = _chain(-3.3, radius, ox, 6), _chain(-2.7, radius, oy, 6)
        ps = ql.from_points(np.stack(np.meshgrid(xs, ys, indexing="ij"), -1).reshape(-1, 2),
                            truncation_radius=10.0).restrict(radius + scan)
        rep = ql.density_scan(ps, ql.FolnerBoxes(2, (radius,)))
        counts = (rep.lower_counts[0], rep.upper_counts[0])
        (lx, ux), (ly, uy) = expected(ox), expected(oy)
        assert counts == _brute_force_extremes(ps.points, radius, scan) == (lx * ly, ux * uy)


def _axis(radius, most):
    """Sorted distinct coordinates: free ones, or a _chain 2 radius apart up to
    an ulp or DEDUP_TOL (offset +-1) or exactly."""
    free = st.lists(_coord, min_size=1, max_size=most, unique=True).map(
        lambda xs: np.unique(np.array(xs) + 0.0))
    chain = st.tuples(st.floats(-5.0, -1.0), st.sampled_from([0.0, "+ulp", "-ulp", 1.0, -1.0]),
                      st.integers(1, most)).map(lambda t: _chain(t[0], radius, t[1], t[2]))
    return st.one_of(free, chain)


@settings(max_examples=120, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), data=st.data(),
       radius=st.sampled_from([0.5, 1.0, 1.25, 2.0]),
       change=st.sampled_from(["none", "drop", "repeat", "repeat all", "nudge"]))
def test_product_counts_match_brute_force_and_table(dim, data, radius, change):
    # A product X_1 x ... x X_d in lex order is counted axis by axis; a near
    # product (one row dropped or repeated, every row repeated, one coordinate
    # moved by less than DEDUP_TOL) must count as the d-dim table does
    axes = [data.draw(_axis(radius, 4 if dim < 3 else 3)) for _ in range(dim)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, dim)
    i = data.draw(st.integers(0, len(pts) - 1))
    if change == "drop":
        pts = np.delete(pts, i, axis=0)
    elif change == "repeat":
        pts = np.insert(pts, i, pts[i], axis=0)
    elif change == "repeat all":
        pts = np.repeat(pts, 2, axis=0)
    elif change == "nudge":
        j = data.draw(st.integers(0, dim - 1))
        pts[i, j] += data.draw(st.sampled_from([-0.5, 0.5])) * DEDUP_TOL
    if change == "none":
        assert density._PrefixCounter(pts).table is None
    if change in ("repeat", "repeat all"):
        assert density._PrefixCounter(pts).table is not None
    scan = 6.0 - radius
    counts = density.extreme_counts(pts, [radius], scan)
    with mock.patch.object(density, "_product_factors", return_value=None):
        table = density.extreme_counts(pts, [radius], scan)
    expected = _brute_force_extremes(pts, radius, scan) if len(pts) else (0, 0)
    assert counts == table == [expected]


@pytest.mark.parametrize("name, product", [
    ("lattice-critical", True), ("lattice-frame-half", True), ("lattice-noframe-1p05", True),
    ("lattice-riesz-2", True), ("lattice-riesz-sqrt2", True), ("fibonacci-gabor", True),
    ("fibonacci-density", True), ("symmetrized-sparse", False)])
def test_builtin_sets_take_the_expected_counting_path(name, product):
    # a product kind hands the scan the factors of its rows, bit for bit, and
    # the factored scan reports what the scan of the rows reports
    sc = ql.parse_scenario(builtin_scenario_path(name))
    generate, _, _, factors, _ = point_kind(sc.points)
    radius = sc.density["truncation"]
    ps = generate(radius)
    assert (density._PrefixCounter(ps.points).table is None) == product
    assert (factors is not None) == product
    if product:
        factored, rows = factors(radius), density._product_factors(ps.points)
        assert [f.tobytes() for f in factored.factors] == [f.tobytes() for f in rows]
        assert factored.truncation_radius == ps.truncation_radius
        assert len(factored) == len(ps) and factored.dim == ps.dim
        boxes = ql.FolnerBoxes(ps.dim, sc.density["radii"])
        assert (density.density_scan(factored, boxes).to_dict()
                == density.density_scan(ps, boxes).to_dict())


def _assert_factored_scan_matches_rows(generate, factors, radius, radii):
    ps, factored = generate(radius), factors(radius)
    assert [f.tobytes() for f in factored.factors] == [
        f.tobytes() for f in density._product_factors(ps.points)]
    assert len(factored) == len(ps)
    boxes = ql.FolnerBoxes(ps.dim, radii)
    assert (density.density_scan(factored, boxes).to_dict()
            == density.density_scan(ps, boxes).to_dict())
    assert (density.density_scan(factored, boxes, translate_step=0.25).to_dict()
            == density.density_scan(ps, boxes, translate_step=0.25).to_dict())


_spacing = st.floats(0.6, 3.0).flatmap(lambda b: st.sampled_from([b, -b]))


@settings(max_examples=40, deadline=None)
@given(diagonal=st.lists(_spacing, min_size=1, max_size=3), same=st.booleans())
def test_factored_scan_of_diagonal_lattices_matches_rows(diagonal, same):
    # equal axes (same spacing up to sign) share their extreme boxes
    if same:
        diagonal = [diagonal[0] * (-1) ** j for j in range(len(diagonal))]
    generate, _, _, factors, _ = point_kind({"kind": "lattice",
                                             "basis": np.diag(diagonal).tolist()})
    _assert_factored_scan_matches_rows(generate, factors, 5.0, (1.0, 1.5, 2.5))


@settings(max_examples=25, deadline=None)
@given(window=st.floats(0.3, 2.0), beta=_spacing)
def test_factored_scan_of_fibonacci_products_matches_rows(window, beta):
    generate, _, _, factors, _ = point_kind({"kind": "fibonacci_product", "window": window,
                                          "beta": beta})
    _assert_factored_scan_matches_rows(generate, factors, 9.0, (1.0, 2.0, 4.0))


def test_non_diagonal_lattice_counts_by_table():
    ps = ql.lattice_points_in_box(ql.Lattice(np.array([[0.7, 0.2], [0.2, 0.7]])), 11.0)
    assert density._PrefixCounter(ps.points).table is not None
