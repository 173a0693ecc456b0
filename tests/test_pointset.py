import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import quasilat as ql
from quasilat import pointset
from quasilat.pointset import DEDUP_TOL, _canonical, lexsorted


def test_integer_lattice_box_count_and_order():
    ps = ql.lattice_points_in_box(ql.Lattice(np.eye(2)), 2.0)
    assert len(ps) == 25
    assert ps.dim == 2
    # canonical order is lexicographic
    np.testing.assert_allclose(ps.points[0], [-2.0, -2.0])
    np.testing.assert_allclose(ps.points[-1], [2.0, 2.0])
    assert ql.min_separation(ps.points) == 1.0


def test_rectangular_lattice_count():
    ps = ql.lattice_points_in_box(ql.Lattice(np.diag([0.5, 1.0])), 2.0)
    assert len(ps) == 9 * 5


def test_box_membership_is_boundary_inclusive():
    ps = ql.lattice_points_in_box(ql.Lattice(np.array([[1.0]])), 1.0)
    np.testing.assert_allclose(ps.points[:, 0], [-1.0, 0.0, 1.0])


def test_singular_basis_raises():
    with pytest.raises(ql.DegenerateLatticeError):
        ql.lattice_points_in_box(ql.Lattice(np.array([[1.0, 1.0], [1.0, 1.0]])), 2.0)
    with pytest.raises(ql.DegenerateLatticeError):
        ql.Lattice(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])).covolume


def test_enumeration_cap():
    with pytest.raises(ql.EnumerationBoundError):
        ql.lattice_points_in_box(ql.Lattice(np.eye(2)), 3000.0)


def _whole_box_points(transform, bounds, d):
    """Reference: one exact filter over the whole interval-arithmetic box."""
    bounds = np.asarray(bounds, dtype=float)
    amp = np.abs(np.linalg.inv(transform)) @ (bounds + 1e-12)
    lo = np.ceil(-amp - 1e-12).astype(np.int64)
    hi = np.floor(amp + 1e-12).astype(np.int64)
    z = np.indices(hi - lo + 1).reshape(len(lo), -1).T + lo
    coords = z[:, :1] * transform[:, 0]  # the program's coordinate rule: column sums in order
    for k in range(1, len(lo)):
        coords += z[:, k:k + 1] * transform[:, k]
    return coords[np.all(np.abs(coords) <= bounds, axis=1), :d]


def _assert_fiber_enumeration_exact(transform, bounds, d):
    got = pointset._projected_points(transform, bounds, d)
    want = _whole_box_points(transform, bounds, d)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


_entry = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0 ** -0.5, 1e-17]),
                   st.floats(-2.0, 2.0, allow_subnormal=False))


@st.composite
def _enumeration_boxes(draw):
    n = draw(st.integers(1, 3))
    T = np.array(draw(st.lists(_entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    if n > 1:  # zero last-column entries, as in the Fibonacci product
        T[:-1, -1] *= np.array(draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)))
    assume(abs(np.linalg.det(T)) >= 0.2)
    bound = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.3, 5.0))
    bounds = np.array(draw(st.lists(bound, min_size=n, max_size=n)))
    amp = np.abs(np.linalg.inv(T)) @ bounds
    assume(np.prod(2.0 * amp + 2.0) <= 200_000)
    return T, bounds, draw(st.integers(1, n))


@settings(max_examples=150, deadline=None)
@given(box=_enumeration_boxes())
def test_fiber_enumeration_is_bit_identical(box):
    _assert_fiber_enumeration_exact(*box)


def test_fiber_enumeration_on_schemes_and_large_boxes():
    tol = DEDUP_TOL
    chain = ql.fibonacci_scheme(1.0).total_basis
    product = np.array(ql.scenarios.point_kind(
        {"kind": "fibonacci_product", "window": 1.0, "beta": 0.5})[0](1.0).source["total_basis"])
    skew = np.array([[1.0, 0.3, 0.0], [0.0, 0.7, 0.2], [0.1, 0.0, 1.1]])
    for transform, bounds, d in [
            (chain, [500 + tol, 1.0], 1), (chain, [2000 + tol, 0.4], 1),
            (product, [40 + tol, 40 + tol, 1.0], 2), (product, [25 + tol, 9 + tol, 0.3], 2),
            (skew, [12 + tol] * 3, 3),
            (np.array([[0.7]]), [4000 + tol], 1),  # one fiber of 11,429 candidates
            (np.diag([1.0, 0.001]), [3 + tol] * 2, 2),
            # 1 + 1e-17 k rounds to 1 <= 1 for every k: rounding, not the interval, decides
            (np.array([[1.0, 1e-17], [0.0, 1.0]]), [1.0, 2.0], 2)]:
        _assert_fiber_enumeration_exact(transform, bounds, d)
    # the cap still counts the whole box, not the candidates left in the fibers
    with pytest.raises(ql.EnumerationBoundError, match=re.escape(
            "enumeration bound exceeded: 36012001 integer candidates (cap 20000000); "
            "reduce the radius")):
        pointset._projected_points(np.eye(2), [3000 + tol] * 2, 2)
    with pytest.raises(ql.EnumerationBoundError, match="integer candidates"):
        pointset._projected_points(product, [300 + tol, 300 + tol, 1.0], 2)


def test_nonpositive_radius_rejected():
    with pytest.raises(ValueError):
        ql.lattice_points_in_box(ql.Lattice(np.eye(1)), 0.0)


def test_lattice_covolume():
    assert ql.Lattice(np.diag([2.0, 0.5])).covolume == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ql.Lattice(np.zeros((2, 3)))


def test_window_validation_and_measure():
    w = ql.Window((1.0, 0.5))
    assert w.dim == 2
    assert w.measure == pytest.approx(2.0)
    with pytest.raises(ValueError):
        ql.Window((1.0, 0.0))
    with pytest.raises(ValueError):
        ql.Window(())


def test_fibonacci_scheme_density():
    scheme = ql.fibonacci_scheme(1.0)
    assert scheme.covolume == pytest.approx(math.sqrt(5.0), rel=1e-12)
    assert scheme.density() == pytest.approx(2.0 / math.sqrt(5.0), rel=1e-12)


def test_scheme_validation():
    with pytest.raises(ValueError):
        ql.CutAndProjectScheme(np.eye(3), d=1, m=1, window=ql.Window((1.0,)))
    with pytest.raises(ValueError):
        ql.CutAndProjectScheme(np.eye(2), d=1, m=1, window=ql.Window((1.0, 1.0)))
    with pytest.raises(ql.DegenerateLatticeError):
        ql.CutAndProjectScheme(np.ones((2, 2)), d=1, m=1, window=ql.Window((1.0,)))


def test_fibonacci_truncation_matches_golden(golden):
    ps = ql.model_set_generate(ql.fibonacci_scheme(1.0), 10.0)
    assert len(ps) == golden["fibonacci"]["count_r10"]
    assert np.max(np.abs(ps.points)) <= 10.0 + 1e-9
    assert ql.min_separation(ps.points) == pytest.approx(
        golden["fibonacci"]["min_gap"], abs=1e-9)


def test_model_set_window_monotone():
    wide = ql.model_set_generate(ql.fibonacci_scheme(1.0), 30.0)
    narrow = ql.model_set_generate(ql.fibonacci_scheme(0.4), 30.0)
    assert len(narrow) < len(wide)
    wide_set = {round(float(x), 9) for x in wide.points[:, 0]}
    assert all(round(float(x), 9) in wide_set for x in narrow.points[:, 0])


def test_model_set_rejects_noninjective_projection():
    # physical map n + m/2 collides ((1,0) vs (0,2)) once the window admits m=2
    scheme = ql.CutAndProjectScheme(np.array([[1.0, 0.5], [0.0, 1.0]]),
                                    d=1, m=1, window=ql.Window((2.5,)))
    with pytest.raises(ValueError, match="not injective"):
        ql.model_set_generate(scheme, 5.0)


def test_symmetrize_union():
    base = ql.from_points([0.3, 1.7])
    out = ql.symmetrize(base, ql.Lattice(np.array([[2.0]])), 4.0)
    expect = [-4.0, -2.0, -1.7, -0.3, 0.0, 0.3, 1.7, 2.0, 4.0]
    np.testing.assert_allclose(out.points[:, 0], expect, atol=1e-12)
    assert out.truncation_radius == 4.0
    with pytest.raises(ValueError):
        ql.symmetrize(base, ql.Lattice(np.eye(2)), 4.0)


def test_sumset_truncated_values_and_safety_flag():
    a = ql.from_points([0.0, 1.0])
    s = ql.sumset_truncated(a, a, 2.0)
    np.testing.assert_allclose(s.points[:, 0], [0.0, 1.0, 2.0])
    assert s.source["boundary_safe"] is False  # operand truncation 1 < 2 + 1

    wide = ql.from_points([0.0, 1.0], truncation_radius=3.0)
    s2 = ql.sumset_truncated(wide, a, 2.0)
    assert s2.source["boundary_safe"] is True

    with pytest.raises(ValueError):
        ql.sumset_truncated(a, ql.from_points([[0.0, 0.0]]), 1.0)
    with pytest.raises(ValueError):
        ql.sumset_truncated(a, a, 0.0)
    big = ql.from_points(np.arange(5000.0), truncation_radius=5000.0)
    with pytest.raises(ql.EnumerationBoundError):
        ql.sumset_truncated(big, big, 1.0)


def test_from_points_dedup_and_dim():
    ps = ql.from_points([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    assert len(ps) == 2
    assert ps.dim == 2
    one_d = ql.from_points([3.0, -1.0])
    assert one_d.dim == 1
    assert one_d.truncation_radius == 3.0
    with pytest.raises(ValueError):
        ql.from_points([[0.0, 0.0]], dim=3)


def test_pointset_radius_invariant():
    with pytest.raises(ValueError):
        ql.PointSet(1, np.array([[2.0]]), 1.0)


def test_restrict_and_translate():
    ps = ql.lattice_points_in_box(ql.Lattice(np.array([[1.0]])), 3.0)
    sub = ps.restrict(1.5)
    np.testing.assert_allclose(sub.points[:, 0], [-1.0, 0.0, 1.0])
    moved = ps.translate([0.5])
    assert moved.truncation_radius == pytest.approx(3.5)
    np.testing.assert_allclose(moved.points[:, 0], np.arange(-2.5, 4.0))


def test_restrict_refuses_radius_beyond_truncation():
    # a larger label would let density_scan's guard pass on a set with holes
    ps = ql.lattice_points_in_box(ql.Lattice(np.eye(2)), 3.0)
    with pytest.raises(ql.InsufficientTruncationError, match="exceeds the truncation radius"):
        ps.restrict(10.0)
    assert len(ps.restrict(3.0)) == 49


def test_min_separation_paths():
    assert ql.min_separation(np.array([[0.0]])) == math.inf
    assert ql.min_separation(np.array([[0.0], [0.25]])) == 0.25
    small = ql.lattice_points_in_box(ql.Lattice(np.eye(2)), 5.0)
    assert ql.min_separation(small.points) == 1.0
    large = ql.lattice_points_in_box(ql.Lattice(np.eye(2)), 35.0)  # 5,041 points
    assert ql.min_separation(large.points) == 1.0


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_min_separation_matches_pdist(dim, data):
    from scipy.spatial.distance import pdist
    coord = st.one_of(st.integers(-8, 8).map(lambda k: k / 4.0),
                      st.floats(-10.0, 10.0, allow_nan=False))
    pts = np.array(data.draw(st.lists(st.tuples(*[coord] * dim), min_size=2,
                                      max_size=40)))
    assert ql.min_separation(pts) == float(np.min(pdist(pts, metric="chebyshev")))


def test_save_load_roundtrip(tmp_path):
    ps = ql.model_set_generate(ql.fibonacci_scheme(1.0), 10.0)
    path = tmp_path / "fib.csv"
    ql.save_pointset(ps, path)
    back = ql.load_pointset(path)
    assert back.dim == ps.dim
    assert back.truncation_radius == ps.truncation_radius
    np.testing.assert_array_equal(back.points, ps.points)
    assert back.source == ps.source

    regen = ql.regenerate(back.source)
    np.testing.assert_array_equal(regen.points, ps.points)


def test_save_load_roundtrip_is_bit_exact(tmp_path):
    # random bit patterns cover every exponent, subnormals included
    rng = np.random.default_rng(5)
    special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.7976931348623157e308]
    values = np.r_[special, np.frombuffer(rng.bytes(8 * 20_000), dtype=float)]
    values = values[np.isfinite(values)]
    ps = ql.from_points(np.column_stack([np.arange(len(values)), values]))
    path = tmp_path / "bits.csv"
    ql.save_pointset(ps, path)
    back = ql.load_pointset(path)
    np.testing.assert_array_equal(back.points.view(np.int64), ps.points.view(np.int64))


def test_load_without_sidecar(tmp_path):
    ps = ql.from_points([[0.5, 1.0], [-2.0, 0.0]])
    path = tmp_path / "pts.csv"
    ql.save_pointset(ps, path)
    (tmp_path / "pts.csv.json").unlink()
    back = ql.load_pointset(path)
    assert back.source["kind"] == "explicit"
    assert back.truncation_radius == 2.0
    np.testing.assert_array_equal(back.points, ps.points)


def test_load_rejects_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n")
    with pytest.raises(ValueError, match="missing dim="):
        ql.load_pointset(bad)
    bad.write_text("dim=2\n1.0\n")
    with pytest.raises(ValueError, match="line 2"):
        ql.load_pointset(bad)
    bad.write_text("dim=1\nxyz\n")
    with pytest.raises(ValueError, match="line 2"):
        ql.load_pointset(bad)
    bad.write_text("dim=zz\n")
    with pytest.raises(ValueError, match="bad dimension"):
        ql.load_pointset(bad)


_EXTREMES = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308]
_COORD = st.one_of(st.sampled_from(_EXTREMES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _csv_files(draw):
    """(dim, points, rows with a blank line before them, a corruption or None, its row)."""
    d = draw(st.integers(1, 3))
    pts = np.array(draw(st.lists(st.tuples(*[_COORD] * d), max_size=12)), dtype=float)
    blanks = draw(st.lists(st.integers(0, len(pts)), max_size=4))  # len(pts): at the end
    bad = draw(st.sampled_from([None, "extra field", "junk", "trailing comma", "1#2", "1_000"]))
    row = draw(st.integers(0, len(pts) - 1)) if len(pts) and bad else None
    return d, pts.reshape(-1, d), blanks, bad, row


@settings(max_examples=80, deadline=None)
@given(case=_csv_files(), sidecar=st.booleans())
@example(case=(1, np.array([[-_EXTREMES[-2]], [_EXTREMES[-2]]]), [], None, None),
         sidecar=False)  # their gap overflows to inf in _canonical
def test_csv_reader_round_trips_and_names_the_bad_line(case, sidecar):
    # save_pointset writes %.17g, which numpy reads back bit for bit; blank
    # lines anywhere are skipped, an empty body is an empty set without a
    # warning, and one corrupted line is refused by its file line number
    d, pts, blanks, bad, row = case
    source = {"kind": "explicit", "dim": d}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pts.csv")
        ql.save_pointset(ql.PointSet(d, pts, math.inf, source), path)
        if not sidecar:
            os.remove(path + ".json")
        with open(path) as fh:
            header, *rows = fh.read().splitlines()
        if row is not None:
            cells = rows[row].split(",")
            cells[-1] = {"extra field": cells[-1] + ",0", "junk": "x1",
                         "trailing comma": cells[-1] + ",", "1#2": "1#2",
                         "1_000": "1_000"}[bad]
            rows[row] = ",".join(cells)
        lines = [header]
        for i, text in enumerate(rows + [None]):
            lines += [""] * blanks.count(i)
            if i == row:
                bad_line = len(lines) + 1
            if text is not None:
                lines.append(text)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        if row is not None:
            with pytest.raises(ValueError, match=f"line {bad_line} is not {d} "):
                ql.load_pointset(path)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            back = ql.load_pointset(path)
            raw = pointset._csv_rows(path, d, skiprows=1) if len(pts) else pts
    assert raw.view(np.int64).tolist() == pts.view(np.int64).tolist()  # -0.0 included
    assert back.dim == d
    assert back.points.view(np.int64).tolist() == _canonical(pts).view(np.int64).tolist()
    assert back.source == source if sidecar else back.source["kind"] == "explicit"


def test_regenerate_every_recipe_kind():
    lat = ql.lattice_points_in_box(ql.Lattice(np.diag([0.5, 1.0])), 3.0)
    fib = ql.model_set_generate(ql.fibonacci_scheme(1.0), 12.0)
    sym = ql.symmetrize(ql.from_points([0.3]), ql.Lattice(np.array([[2.0]])), 4.0)
    sums = ql.sumset_truncated(ql.from_points([0.0, 1.0]), ql.from_points([0.0, 1.0]), 2.0)
    for ps in (lat, fib, sym, sums):
        regen = ql.regenerate(ps.source)
        np.testing.assert_array_equal(regen.points, ps.points)
        assert regen.truncation_radius == ps.truncation_radius
    # every builtin [points] set at its density truncation, as the scenario
    # generators make it, among them the 3-d Fibonacci product scheme and the
    # q = 4 symmetrized union, regenerates bit for bit from its recipe
    kinds = set()
    for name in ql.builtin_scenario_names():
        sc = ql.parse_scenario(ql.builtin_scenario_path(name))
        if sc.padic:
            continue
        kinds.add(sc.points["kind"])
        ps = ql.scenarios.point_kind(sc.points)[0](sc.density["truncation"])
        regen = ql.regenerate(ps.source)
        assert regen.points.tobytes() == ps.points.tobytes()
        assert regen.truncation_radius == ps.truncation_radius
        assert regen.source == ps.source
    assert kinds == {"lattice", "fibonacci", "fibonacci_product", "symmetrized_sparse"}
    with pytest.raises(ValueError, match="unknown point set recipe"):
        ql.regenerate({"kind": "mystery"})


def test_explicit_recipe_keeps_its_dimension():
    empty = ql.from_points(np.zeros((0, 2)), dim=2, truncation_radius=3)
    assert ql.regenerate(empty.source).dim == 2
    assert empty.source == {"kind": "explicit", "dim": 2, "points": [],
                            "truncation_radius": 3.0}
    union = {"kind": "symmetrize", "base": empty.source,
             "sublattice_basis": [[2.0, 0.0], [0.0, 1.0]], "radius": 3.0}
    lat = ql.lattice_points_in_box(ql.Lattice(np.diag([2.0, 1.0])), 3.0)
    np.testing.assert_array_equal(ql.regenerate(union).points, lat.points)
    # restrict and translate write the same recipe as from_points
    for ps in (lat.restrict(2.0), lat.translate([0.5, 0.0])):
        assert ps.source == ql.from_points(ps.points, 2, ps.truncation_radius).source
    # a recipe written before "dim" regenerates with the dimension inferred
    old = {k: v for k, v in ql.from_points([[0.5, 1.0]]).source.items() if k != "dim"}
    assert ql.regenerate(old).dim == 2


def _dedup_rule(points):
    """Reference rule: in lex order, drop a point within DEDUP_TOL of an earlier kept one."""
    pts = points + 0.0
    kept = []
    for p in pts[np.lexsort(pts.T[::-1])]:
        if all(np.max(np.abs(p - q)) > DEDUP_TOL for q in kept):
            kept.append(p)
    return np.array(kept).reshape(-1, points.shape[1])


# integer centres plus noise around DEDUP_TOL, so clusters, chains and exact copies occur
_NOISE = [0.0, 0.3, -0.3, 0.6, -0.6, 0.9, 1.0, -1.0, 1.1, 1.6, -1.6, 2.2]
_coord = st.builds(lambda c, e: c + e * DEDUP_TOL,
                   st.sampled_from([-2.0, 0.0, 1.0 / 3.0, 1.0]), st.sampled_from(_NOISE))


@st.composite
def _noisy_sets(draw):
    dim = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[_coord] * dim), min_size=1, max_size=40))
    return np.array(rows, dtype=float)


@settings(max_examples=200, deadline=None)
@given(pts=_noisy_sets(), data=st.data())
def test_canonical_properties(pts, data):
    out = _canonical(pts)
    np.testing.assert_array_equal(out, _dedup_rule(pts))
    gaps = np.max(np.abs(out[:, None, :] - out[None, :, :]), axis=2)
    assert np.all(gaps[np.triu_indices(len(out), 1)] > DEDUP_TOL)
    np.testing.assert_array_equal(_canonical(out), out)
    perm = data.draw(st.permutations(range(len(pts))))
    np.testing.assert_array_equal(_canonical(pts[perm]), out)
    # already sorted input skips the sort; -0.0 rows must still come out as +0.0
    flip = np.array(data.draw(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts))))
    signed = np.where(flip[:, None] & (pts == 0.0), -0.0, pts)
    assert _canonical(lexsorted(signed)).tobytes() == out.tobytes()
    assert all(np.any(np.all(row == pts, axis=1)) for row in out)
    reach = np.max(np.abs(pts[:, None, :] - out[None, :, :]), axis=2)
    assert np.all(np.min(reach, axis=1) <= DEDUP_TOL)


def test_canonical_drops_copy_separated_in_lex_order():
    pts = np.array([[1.0, 5.0], [1.0 + 5e-13, 0.0], [1.0 + 1e-12, 5.0]])
    np.testing.assert_array_equal(_canonical(pts), pts[:2])


def test_sumset_float_noise_copies_merge():
    # sums of (1/sqrt 2) Z^2 land on (1/sqrt 2) Z^2 up to rounding noise
    base = ql.lattice_points_in_box(ql.Lattice(math.sqrt(0.5) * np.eye(2)), 8.0)
    sumset = ql.sumset_truncated(base, base, 4.0)
    assert len(sumset) == 121
    rep = ql.density_scan(sumset, ql.FolnerBoxes(2, (1.0, 2.0, 3.0)))
    assert rep.lower_counts == [4, 25, 64]
    assert rep.upper_counts == [9, 36, 81]


# few distinct values, so columns repeat them; -0.0 and 0.0 stay apart by bits
_ROW_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.79e308, -1.79e308,
                                        1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5e16]),
                       st.floats(allow_nan=False, allow_infinity=False))
_ROWS = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.tuples(*[_ROW_VALUE] * d), max_size=12).map(
        lambda rows: np.array(rows, dtype=float).reshape(-1, d)))


@settings(max_examples=150, deadline=None)
@given(pts=_ROWS)
@example(pts=np.array([0.1, 1.0 / 3.0, 1e-300, -2.5e16, 0.0, 5e-324, -1.5, 123456789.125,
                       -0.0, 5e-324]).reshape(-1, 2))
@example(pts=np.array([[-0.0], [0.0], [-0.0], [1.79e308], [-1.79e308]]))
@example(pts=np.zeros((0, 3)))
def test_save_pointset_text_matches_per_element_format(pts):
    # the file's bytes are those of formatting every coordinate with %.17g
    d = pts.shape[1]
    want = f"dim={d}\n" + "".join(",".join("%.17g" % x for x in p) + "\n" for p in pts.tolist())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.csv")
        ql.save_pointset(ql.PointSet(d, pts, math.inf, {"kind": "explicit"}), path)
        with open(path, "rb") as fh:
            assert fh.read() == want.encode()


def test_non_finite_coordinates_and_bad_dimension_are_refused(tmp_path):
    # NaN gaps in _canonical once dropped 2.0 here without a word
    for points in ([[1.0], [math.nan], [2.0]], [[0.0, math.inf]], [-math.inf]):
        with pytest.raises(ValueError, match="non-finite"):
            ql.from_points(points)
    path = tmp_path / "pts.csv"
    for body, line in (("nan\n1\n2\n", 2), ("1\n\n2\n-inf\n", 5), ("1\n1e999\n", 3)):
        path.write_text("dim=1\n" + body)
        with pytest.raises(ValueError, match=f"line {line} is not 1 comma-separated finite"):
            ql.load_pointset(path)
    # with a sidecar the points skip from_points, and are refused all the same
    ql.save_pointset(ql.from_points([[0.5, 1.0], [-2.0, 0.0]]), path)
    path.write_text(path.read_text().replace("0.5,1", "0.5,nan"))
    with pytest.raises(ValueError, match="line 3 is not 2 comma-separated finite"):
        ql.load_pointset(path)
    # int() would read 10, 2 and 2 from the last three: only ASCII digits are a dimension
    for header in ("dim=0", "dim=-1", "dim=1_0", "dim=+2", "dim=\u0662"):
        path.write_text(header + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad dimension"):
            ql.load_pointset(path)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), n=st.integers(0, 40))
def test_unique_rows_matches_numpy_unique(data, dim, n):
    # few distinct values, so rows repeat; +-0.0 compare equal in both
    value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0 ** -0.5, 1e300])
    pts = np.array(data.draw(st.lists(value, min_size=n * dim, max_size=n * dim)),
                   dtype=float).reshape(n, dim)
    rows, inverse, counts = pointset.unique_rows(pts)
    want, want_inverse, want_counts = np.unique(pts, axis=0, return_inverse=True,
                                                return_counts=True)
    assert rows.shape == want.shape and np.array_equal(rows, want)
    assert np.array_equal(inverse, want_inverse.reshape(-1))
    assert np.array_equal(counts, want_counts)
    assert np.array_equal(rows[inverse], pts)
