"""Delone diagnostics and covering of truncated sumsets.

A set is approximately closed (with constant k) when its sumset is covered by
k translates of the set. find_cover_set certifies an upper bound for k on the
truncation by greedy set cover, then searches all candidate pairs when greedy
needs three or more, so a k of at most 3 is the minimum over sumset-point
translates (``k_minimal``); verify_cover re-checks a cover with no search
state shared.
"""

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CoverError
from .pointset import DEDUP_TOL, lexsorted, min_separation

COVERAGE_TOL = 1e-6      # sup-norm slack of a coverage witness: dist(s - f, base) <= this
RASTER_STRIDE = 4        # candidate covering radius from every 4th probe per axis
EXACT_QUERY_MAX = 4096   # probes beyond the candidate queried outright up to this many


@dataclass
class DeloneReport:
    """Delone statistics; ``probes`` is the probe-grid size and
    ``probes_queried`` the number of exact KD-tree distances evaluated."""

    min_separation: float
    covering_radius: float
    is_symmetric: bool
    contains_identity: bool
    probes: int
    probes_queried: int

    def to_dict(self):
        sep = self.min_separation
        return {**asdict(self), "min_separation": sep if math.isfinite(sep) else None}


@dataclass
class CoverResult:
    """Cover: sumset within the verified region lies in defect_set + base.

    ``to_dict`` reports ``k_minimal``: true when k <= 3, where k is the minimum
    over translates by sumset points; a larger k is an upper bound.
    """

    defect_set: np.ndarray
    k: int
    coverage_tol: float
    verified_region_radius: float

    def to_dict(self):
        return {**asdict(self), "k_minimal": self.k <= 3,
                "defect_set": [list(map(float, f)) for f in self.defect_set]}


def delone_report(ps, interior_margin):
    """Min separation, interior covering radius (sup-norm), and symmetry flags.

    The covering radius is the max over a probe grid in the interior region
    [-(R - margin), R - margin]^d of the sup-norm distance to the set, so it
    is a lower bound on the true covering radius with grid resolution error.
    The grid is the product of the axis {j * step : |j| <= k}, where
    step = min(sep / 2, span / 2) (span / 8 for a single point),
    span = R - margin and k = floor(span / step + 1e-12).

    The maximum is certified by exact box coverage, not by querying every
    probe: a candidate L is the largest distance on every RASTER_STRIDE-th
    probe per axis; the probes within L of some point are the union of one
    index box per point, rasterised exactly; the probes left over are
    exactly those farther than L. All of them (at most EXACT_QUERY_MAX), or a
    strided sample of that size, are queried to raise L, and the raster
    repeats until it leaves no probe beyond L. Every value is a KD-tree
    distance and every comparison exact, so the result equals the maximum
    over the full grid bit for bit.
    """
    if len(ps) == 0:
        raise ValueError("empty point set")
    if interior_margin < 0 or interior_margin >= ps.truncation_radius:
        raise ValueError("interior_margin must lie in [0, truncation_radius)")
    from scipy.spatial import cKDTree
    tree = cKDTree(ps.points)
    sep = min_separation(ps.points, tree)

    span = ps.truncation_radius - interior_margin
    probe_step = sep / 2.0 if math.isfinite(sep) else span / 8.0
    probe_step = min(probe_step, span / 2.0)
    k = int(math.floor(span / probe_step + 1e-12))
    axis = np.concatenate([-probe_step * np.arange(k, 0, -1), [0.0],
                           probe_step * np.arange(1, k + 1)])
    shape = (len(axis),) * ps.dim

    def distances(flat):
        probes = axis[np.stack(np.unravel_index(flat, shape), axis=1)]
        return tree.query(probes, k=1, p=np.inf)[0]

    sub = np.meshgrid(*[np.arange(0, len(axis), RASTER_STRIDE)] * ps.dim, indexing="ij")
    sample = np.ravel_multi_index(sub, shape).ravel()
    covering, queried = -math.inf, 0
    while len(sample):
        # each sample after the first lies beyond L, so L grows until a raster
        # at L leaves no probe beyond it
        top = float(np.max(distances(sample)))
        if top <= covering:
            raise RuntimeError("probe raster disagrees with the KD-tree distance")
        covering, queried = top, queried + len(sample)
        far = _probes_beyond(ps.points, axis, covering)
        sample = far[::max(1, len(far) // EXACT_QUERY_MAX)]

    # exact symmetry needs no tolerance query
    symmetric = (np.array_equal(lexsorted(ps.points), lexsorted(-ps.points))
                 or bool(np.max(tree.query(-ps.points, k=1, p=np.inf)[0]) <= DEDUP_TOL))
    identity = bool(np.min(np.max(np.abs(ps.points), axis=1)) <= DEDUP_TOL)
    return DeloneReport(sep, covering, symmetric, identity, math.prod(shape), queried)


def _first_beyond(axis, x, t, strict):
    """Per entry x, the least j with fl(axis[j] - x) >= t (> t if strict), else len(axis).

    fl(a - x) is monotone in a, so the answer is one cut of the sorted axis;
    searchsorted on fl(x + t) lands within rounding of it, and the loops move
    each cut onto the exact predicate.
    """
    n = len(axis)

    def beyond(j):
        d = axis[np.clip(j, 0, n - 1)] - x
        return d > t if strict else d >= t

    j = np.searchsorted(axis, x + t, side="right" if strict else "left")
    while (move := (j > 0) & beyond(j - 1)).any():
        j[move] -= 1
    while (move := (j < n) & ~beyond(j)).any():
        j[move] += 1
    return j


def _probes_beyond(points, axis, radius):
    """Flat indices of the probes (axis^d) at sup-norm distance > radius from every point.

    Point x covers the index box whose axis i runs over the j with
    |fl(axis[j] - x_i)| <= radius, the same rounding as the KD-tree distance.
    The boxes are summed in a difference array, one bincount per corner,
    and integrated by a prefix sum along each axis; a point with an empty
    range (lo == hi) adds corners that cancel.
    """
    dim = points.shape[1]
    lo = _first_beyond(axis, points, -radius, False)
    hi = _first_beyond(axis, points, radius, True)
    shape = (len(axis) + 1,) * dim
    diff = np.zeros(math.prod(shape), dtype=np.int64)
    for corner in itertools.product((False, True), repeat=dim):
        idx = np.ravel_multi_index(tuple(np.where(corner, hi, lo).T), shape)
        diff += (-1) ** sum(corner) * np.bincount(idx, minlength=diff.size)
    cover = diff.reshape(shape)
    for i in range(dim):
        np.cumsum(cover, axis=i, out=cover)
    return np.flatnonzero(cover[(slice(0, len(axis)),) * dim] == 0)


def _coverage_matrix(candidates, targets, base_tree, tol):
    """Boolean matrix: candidate f covers target p iff dist(p - f, base) <= tol."""
    diffs = (targets[None, :, :] - candidates[:, None, :]).reshape(-1, targets.shape[1])
    dist, _ = base_tree.query(diffs, k=1, p=np.inf)
    return (dist <= tol).reshape(len(candidates), len(targets))


def find_cover_set(sumset, base, coverage_tol=COVERAGE_TOL, verified_region_radius=None,
                   max_iterations=64):
    """Cover of the sumset truncation by translates of base: greedy, then pairs.

    Candidates are the sumset's own points. Ties are broken by sup-norm, then
    lexicographically, so a lattice always yields k = 1 with defect set {0}.
    Greedy finds a 1-cover whenever one exists; when it needs three or more
    translates, the first candidate pair in that order that covers every
    target replaces its answer, so k <= 3 is minimal over the candidates.
    The default verified region is the whole sumset truncation; generating
    the base out to at least twice the sumset radius guarantees every
    coverage witness s - f lies inside the base truncation, so truncation
    effects cannot inflate the returned k.
    """
    if sumset.dim != base.dim:
        raise ValueError("sumset and base dimensions differ")
    if verified_region_radius is None:
        verified_region_radius = sumset.truncation_radius
    if len(sumset) == 0:
        return CoverResult(np.zeros((0, sumset.dim)), 0, coverage_tol,
                           float(verified_region_radius))
    if len(base) == 0:
        raise CoverError("not approximately closed at this truncation: empty base")

    targets = sumset.points[
        np.max(np.abs(sumset.points), axis=1) <= verified_region_radius + DEDUP_TOL]
    if len(targets) == 0:
        return CoverResult(np.zeros((0, sumset.dim)), 0, coverage_tol,
                           float(verified_region_radius))

    # candidate order: sup-norm ascending, then lexicographic
    norms = np.max(np.abs(sumset.points), axis=1)
    order = np.lexsort(tuple(sumset.points.T[::-1]) + (norms,))
    candidates = sumset.points[order]

    from scipy.spatial import cKDTree
    base_tree = cKDTree(base.points)
    cover = _coverage_matrix(candidates, targets, base_tree, coverage_tol)

    uncovered = np.ones(len(targets), dtype=bool)
    picks = []
    while uncovered.any():
        if len(picks) >= max_iterations:
            raise CoverError("not approximately closed at this truncation: "
                             f"no cover within {max_iterations} iterations")
        gains = cover[:, uncovered].sum(axis=1)
        best = int(np.argmax(gains))  # first max in (norm, lex) order
        if gains[best] == 0:
            raise CoverError("not approximately closed at this truncation: "
                             "uncovered sumset point with no candidate translate")
        picks.append(best)
        uncovered &= ~cover[best]

    if len(picks) >= 3:
        # a pair (i, j) covers every target iff no target is missed by both
        missed = (~cover).astype(np.float32)
        pairs = np.argwhere(np.triu(missed @ missed.T == 0, 1))
        if len(pairs):
            picks = list(pairs[0])  # first pair in (norm, lex) candidate order

    defect = candidates[sorted(picks)]
    lex = np.lexsort(defect.T[::-1])
    return CoverResult(defect[lex], len(picks), float(coverage_tol),
                       float(verified_region_radius))


def verify_cover(sumset, base, defect_set, coverage_tol=COVERAGE_TOL,
                 verified_region_radius=None):
    """Independent re-check that every sumset point in the region lies in defect_set + base."""
    if verified_region_radius is None:
        verified_region_radius = sumset.truncation_radius
    targets = sumset.points[
        np.max(np.abs(sumset.points), axis=1) <= verified_region_radius + DEDUP_TOL]
    if len(targets) == 0:
        return True
    defect = np.asarray(defect_set, dtype=float).reshape(-1, sumset.dim)
    if len(defect) == 0:
        return False
    from scipy.spatial import cKDTree
    tree = cKDTree(base.points)
    covered = np.zeros(len(targets), dtype=bool)
    for f in defect:
        dist, _ = tree.query(targets - f, k=1, p=np.inf)
        covered |= dist <= coverage_tol
    return bool(covered.all())


def checked_cover(sumset, base, coverage_tol, verified_region_radius=None):
    """find_cover_set re-checked by verify_cover: the cover's dict plus ``reverified``."""
    cover = find_cover_set(sumset, base, coverage_tol=coverage_tol,
                           verified_region_radius=verified_region_radius)
    out = cover.to_dict()
    out["reverified"] = verify_cover(sumset, base, cover.defect_set, coverage_tol,
                                     cover.verified_region_radius)
    return out
