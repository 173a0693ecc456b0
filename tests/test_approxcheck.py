import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import quasilat as ql
from quasilat import approxcheck
from quasilat.pointset import DEDUP_TOL


def toy_pair():
    base = ql.from_points([-1.0, 0.0, 1.0])
    sumset = ql.sumset_truncated(base, base, 2.0)
    return base, sumset


def test_delone_report_square_lattice():
    ps = ql.lattice_points_in_box(ql.Lattice(np.eye(2)), 3.0)
    rep = ql.delone_report(ps, interior_margin=1.0)
    assert rep.min_separation == 1.0
    assert rep.covering_radius == 0.5
    assert rep.is_symmetric
    assert rep.contains_identity
    d = rep.to_dict()
    assert d["min_separation"] == 1.0
    assert d["probes"] == 9 ** 2  # axis -2, -1.5, ..., 2
    assert 0 < d["probes_queried"] <= d["probes"]


def full_grid_covering_radius(ps, margin):
    """Largest distance over the whole probe grid of delone_report's step rule."""
    sep = ql.min_separation(ps.points)
    span = ps.truncation_radius - margin
    step = min(sep / 2.0 if math.isfinite(sep) else span / 8.0, span / 2.0)
    k = int(math.floor(span / step + 1e-12))
    axis = np.concatenate([-step * np.arange(k, 0, -1), [0.0], step * np.arange(1, k + 1)])
    mesh = np.meshgrid(*([axis] * ps.dim), indexing="ij")
    probes = np.stack([m.ravel() for m in mesh], axis=1)
    return float(np.max(cKDTree(ps.points).query(probes, k=1, p=np.inf)[0])), len(probes)


def test_delone_report_ties_beyond_first_candidate():
    # every 4th probe of the axis -40, -39.5, ..., 40 is an integer, so the
    # first candidate is 0; the 19,360 probes with a half-integer coordinate
    # tie at the maximum 0.5 and take a sampled second raster
    ps = ql.lattice_points_in_box(ql.Lattice(np.eye(2)), 40.0)
    rep = ql.delone_report(ps, interior_margin=0.0)
    assert rep.covering_radius == 0.5
    assert rep.probes == 161 ** 2
    assert 41 ** 2 < rep.probes_queried < 41 ** 2 + 2 * approxcheck.EXACT_QUERY_MAX


@settings(max_examples=150, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), scale=st.sampled_from([1.0, 0.5, 0.3, 2.0 ** 0.5]),
       shear=st.sampled_from([0.0, 0.5, 1.0 / 3.0]), jitter=st.sampled_from([0.0, 1e-3, 0.1]),
       keep=st.sampled_from([1.0, 0.7, 0.3]), margin=st.floats(0.0, 0.99),
       exact_query_max=st.sampled_from([1, 16, approxcheck.EXACT_QUERY_MAX]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_covering_radius_equals_full_probe_grid(dim, scale, shear, jitter, keep, margin,
                                                exact_query_max, seed, data):
    radius = data.draw(st.floats(1.0, {1: 40.0, 2: 8.0, 3: 3.0}[dim]))
    basis = scale * (np.eye(dim) + shear * np.eye(dim, k=1))
    pts = ql.lattice_points_in_box(ql.Lattice(basis), radius).points
    rng = np.random.default_rng(seed)
    pts = pts + rng.uniform(-jitter, jitter, size=pts.shape)
    kept = rng.random(len(pts)) < keep
    kept[rng.integers(len(pts))] = True
    pts = pts[kept & (np.max(np.abs(pts), axis=1) <= radius)]
    if len(pts) == 0:
        pts = np.zeros((1, dim))
    ps = ql.from_points(pts, dim=dim, truncation_radius=radius)
    # small exact-query limits force the sampled re-raster on small grids
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(approxcheck, "EXACT_QUERY_MAX", exact_query_max)
        rep = ql.delone_report(ps, interior_margin=margin * radius)
    want, probes = full_grid_covering_radius(ps, margin * radius)
    assert rep.covering_radius == want
    assert rep.probes == probes
    assert 0 < rep.probes_queried <= probes


@settings(max_examples=200, deadline=None)
@given(dim=st.sampled_from([1, 2]), kind=st.sampled_from(["random", "lattice", "symmetrized"]),
       jitter=st.sampled_from([0.0, 1e-10, 1e-3]), with_origin=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_delone_separation_and_symmetry_match_own_trees(dim, kind, jitter, with_origin, seed):
    # the report's shared tree and exact symmetry test agree with a KD-tree
    # per statistic: min_separation, and the DEDUP_TOL query of the negation
    # (jitter 1e-10 is symmetric only within the tolerance)
    rng = np.random.default_rng(seed)
    radius = 6.0  # points lie within 5 before jitter
    if kind == "lattice":
        scale = rng.choice([0.5, 1.0, 2.0 ** 0.5])
        pts = ql.lattice_points_in_box(ql.Lattice(scale * np.eye(dim)), 5.0).points
    else:
        pts = 0.25 * rng.integers(-20, 21, size=(int(rng.integers(1, 40)), dim))
        if kind == "symmetrized":
            base = ql.from_points(pts, dim=dim, truncation_radius=5.0)
            pts = ql.symmetrize(base, ql.Lattice(2.0 * np.eye(dim)), 5.0).points
    if with_origin:
        pts = np.vstack([pts, np.zeros((1, dim))])
    # distinct points stay >= 0.25 apart before jitter, so the probe grid stays small
    pts = np.unique(pts, axis=0)
    pts = pts + rng.uniform(-jitter, jitter, size=pts.shape)
    ps = ql.from_points(pts, dim=dim, truncation_radius=radius)
    rep = ql.delone_report(ps, interior_margin=radius / 2)
    assert rep.min_separation == ql.min_separation(ps.points)
    nearest = cKDTree(ps.points).query(-ps.points, k=1, p=np.inf)[0]
    assert rep.is_symmetric == bool(np.max(nearest) <= DEDUP_TOL)


def test_delone_flags_asymmetric_set():
    ps = ql.from_points([[0.2, 0.0], [1.0, 1.0]], truncation_radius=2.0)
    rep = ql.delone_report(ps, interior_margin=0.5)
    assert not rep.is_symmetric
    assert not rep.contains_identity
    with pytest.raises(ValueError):
        ql.delone_report(ps, interior_margin=2.5)
    with pytest.raises(ValueError):
        ql.delone_report(ql.from_points([]), interior_margin=0.0)


def test_greedy_cover_toy_set():
    # greedy takes {0, -1, 1}; the pair search finds the 2-cover {-1, 1}
    base, sumset = toy_pair()
    cover = ql.find_cover_set(sumset, base)
    assert cover.k == 2
    np.testing.assert_allclose(cover.defect_set[:, 0], [-1.0, 1.0])
    assert cover.verified_region_radius == 2.0
    assert ql.verify_cover(sumset, base, cover.defect_set)
    assert not ql.verify_cover(sumset, base, [[0.0]])
    assert not ql.verify_cover(sumset, base, np.zeros((0, 1)))


def test_greedy_k_upper_bounds_exhaustive(golden):
    # k <= 3 is minimal: it equals the exhaustive search on the toy instance
    base, sumset = toy_pair()
    cover = ql.find_cover_set(sumset, base)
    assert cover.k == golden["fibonacci"]["toy_k_exhaustive"]


def test_pair_search_finds_fibonacci_two_cover():
    # greedy alone needs 3 translates here although 2 suffice
    base = ql.model_set_generate(ql.fibonacci_scheme(1.0), 60.0)
    sumset = ql.sumset_truncated(base, base, 30.0)
    cover = ql.find_cover_set(sumset, base)
    assert cover.k == 2
    assert cover.to_dict()["k_minimal"] is True
    assert ql.verify_cover(sumset, base, cover.defect_set, cover.coverage_tol,
                           cover.verified_region_radius)


def test_lattice_covers_itself():
    base = ql.lattice_points_in_box(ql.Lattice(np.array([[1.0]])), 20.0)
    sumset = ql.sumset_truncated(base, base, 10.0)
    cover = ql.find_cover_set(sumset, base)
    assert cover.k == 1
    np.testing.assert_allclose(cover.defect_set, [[0.0]])
    assert ql.verify_cover(sumset, base, cover.defect_set)


def test_verified_region_restriction():
    # the cover's region is the sumset's truncation: a smaller one is a restricted sumset
    base, sumset = toy_pair()
    cover = ql.find_cover_set(sumset.restrict(1.0), base)
    assert cover.k == 1  # {0} reaches -1..1
    assert ql.verify_cover(sumset, base, cover.defect_set,
                           verified_region_radius=1.0)
    empty = ql.find_cover_set(sumset.restrict(0.0), base)
    assert empty.k == 1  # only the origin remains a target
    assert ql.verify_cover(sumset, base, [], verified_region_radius=-1.0)


def test_cover_failure_modes(monkeypatch):
    base, sumset = toy_pair()
    with monkeypatch.context() as patch:
        patch.setattr(approxcheck, "COVER_MAX_PICKS", 1)
        with pytest.raises(ql.CoverError, match="iterations"):
            ql.find_cover_set(sumset, base)
    with pytest.raises(ql.CoverError, match="empty base"):
        ql.find_cover_set(sumset, ql.from_points([]))
    origin = ql.from_points([0.0])
    far = ql.from_points([5.0], truncation_radius=5.0)
    with pytest.raises(ql.CoverError, match="no candidate"):
        ql.find_cover_set(ql.sumset_truncated(origin, origin, 1.0), far)
    with pytest.raises(ValueError):
        ql.find_cover_set(sumset, ql.from_points([[0.0, 0.0]]))


def test_cover_result_serializes():
    base, sumset = toy_pair()
    d = ql.find_cover_set(sumset, base).to_dict()
    assert d["k"] == 2
    assert d["k_minimal"] is True
    assert isinstance(d["defect_set"][0][0], float)


@settings(max_examples=250, deadline=None)
@given(dim=st.sampled_from([1, 2]), scale=st.sampled_from([1.0, 0.5, 2.0 ** 0.5]),
       data=st.data())
def test_cover_matches_exhaustive_pair_search(dim, scale, data):
    span = 8 if dim == 1 else 3
    coords = data.draw(st.lists(st.tuples(*[st.integers(-span, span)] * dim),
                                min_size=1, max_size=16 if dim == 1 else 8, unique=True))
    # base radius twice the sumset radius, and 0 in the base, as covers assume
    base = ql.from_points([[0] * dim] + coords, dim=dim, truncation_radius=span)
    base = ql.from_points(base.points * scale, dim=dim, truncation_radius=span * scale)
    sumset = ql.sumset_truncated(base, base, span * scale / 2.0)
    cover = ql.find_cover_set(sumset, base)
    assert ql.verify_cover(sumset, base, cover.defect_set)

    # exhaustive: does translate f cover target t, i.e. t - f within tol of base?
    cand = sumset.points
    diff = cand[None, :, None, :] - cand[:, None, None, :] - base.points[None, None, :, :]
    covers = (np.max(np.abs(diff), axis=3) <= 1e-6).any(axis=2)  # [f, t]
    k_min = None
    if covers.all(axis=1).any():
        k_min = 1
    elif any((covers[i] | covers[j]).all()
             for i, j in itertools.combinations(range(len(cand)), 2)):
        k_min = 2
    if k_min is not None:
        assert cover.k == k_min
    else:
        assert cover.k >= 3
    if cover.k <= 3:
        assert cover.to_dict()["k_minimal"]
        assert cover.k == (k_min or 3)  # no pair covers, so 3 is the minimum


# base points and translates on a line: a one-point base, exact tol offsets
# from base points, values past both ends of any base, and -0.0
_LINE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-6, -1e-6, 0.5, 2.5, 1e3, -1e3]),
                  st.floats(-50.0, 50.0))


@settings(max_examples=200, deadline=None)
@given(base=st.lists(_LINE, min_size=1, max_size=10),
       candidates=st.lists(_LINE, min_size=1, max_size=6),
       targets=st.lists(_LINE, min_size=1, max_size=8))
@example(base=[0.0], candidates=[0.0, -0.0],
         targets=[1e-6, float(np.nextafter(1e-6, 1.0)), -1e-6, -5.0, 5.0])
@example(base=[2.0, -1.0, 0.5], candidates=[1e-6],
         targets=[-1e3, 0.5, 0.5 + 2e-6, 1e3])
def test_coverage_matrix_on_a_line_matches_kd_tree(base, candidates, targets):
    # the sorted search must return the KD-tree's distance bit for bit: a
    # threshold at every distance the tree returns, and one ulp below it,
    # tells any two different floats apart
    base, candidates, targets = (np.array(v, dtype=float)[:, None]
                                 for v in (base, candidates, targets))
    diffs = (targets[None, :, :] - candidates[:, None, :]).reshape(-1, 1)
    dist = cKDTree(base).query(diffs, k=1, p=np.inf)[0].reshape(len(candidates), -1)
    for d in np.unique(dist):
        for tol in (d, np.nextafter(d, -np.inf)):
            got = approxcheck._coverage_matrix(candidates, targets, base, tol)
            assert got.shape == dist.shape and np.array_equal(got, dist <= tol)


def test_reverified_does_not_share_the_coverage_search(monkeypatch):
    # a coverage search that claims every translate covers everything yields
    # k = 1 with defect {0}; verify_cover, on its own KD-tree, must refuse it
    base = ql.model_set_generate(ql.fibonacci_scheme(1.0), 60.0)
    sumset = ql.sumset_truncated(base, base, 30.0)
    monkeypatch.setattr(approxcheck, "_coverage_matrix",
                        lambda candidates, targets, *_: np.ones((len(candidates), len(targets)),
                                                                dtype=bool))
    out = approxcheck.checked_cover(sumset, base)
    assert out["k"] == 1 and out["defect_set"] == [[0.0]]
    assert out["reverified"] is False
