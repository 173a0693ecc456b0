"""Delone diagnostics and covering of truncated sumsets.

A set is approximately closed (with constant k) when its sumset is covered by
k translates of the set. find_cover_set certifies an upper bound for k on the
truncation by greedy set cover, then searches all candidate pairs when greedy
needs three or more, so a k of at most 3 is the minimum over sumset-point
translates (``k_minimal``); verify_cover re-checks a cover with no search
state shared.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import CoverError
from .pointset import DEDUP_TOL, min_separation


@dataclass
class DeloneReport:
    min_separation: float
    covering_radius: float
    is_symmetric: bool
    contains_identity: bool

    def to_dict(self):
        sep = self.min_separation
        return {"min_separation": sep if math.isfinite(sep) else None,
                "covering_radius": self.covering_radius,
                "is_symmetric": self.is_symmetric,
                "contains_identity": self.contains_identity}


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
        return {"k": self.k,
                "k_minimal": self.k <= 3,
                "defect_set": [list(map(float, f)) for f in self.defect_set],
                "coverage_tol": self.coverage_tol,
                "verified_region_radius": self.verified_region_radius}


def delone_report(ps, interior_margin, probe_step=None):
    """Min separation, interior covering radius (sup-norm), and symmetry flags.

    The covering radius is the max over a probe grid in the interior region
    [-(R - margin), R - margin]^d of the sup-norm distance to the set, so it
    is a lower bound on the true covering radius with grid resolution error.
    """
    if len(ps) == 0:
        raise ValueError("empty point set")
    if interior_margin < 0 or interior_margin >= ps.truncation_radius:
        raise ValueError("interior_margin must lie in [0, truncation_radius)")
    sep = min_separation(ps.points)

    span = ps.truncation_radius - interior_margin
    if probe_step is None:
        probe_step = sep / 2.0 if math.isfinite(sep) else span / 8.0
        probe_step = min(probe_step, span / 2.0)
    k = int(math.floor(span / probe_step + 1e-12))
    axis = np.concatenate([-probe_step * np.arange(k, 0, -1), [0.0],
                           probe_step * np.arange(1, k + 1)])
    mesh = np.meshgrid(*([axis] * ps.dim), indexing="ij")
    probes = np.stack([m.ravel() for m in mesh], axis=1)
    tree = cKDTree(ps.points)
    dist, _ = tree.query(probes, k=1, p=np.inf)
    covering = float(np.max(dist))

    nearest, _ = tree.query(-ps.points, k=1, p=np.inf)
    symmetric = bool(np.max(nearest) <= DEDUP_TOL)
    identity = bool(np.min(np.max(np.abs(ps.points), axis=1)) <= DEDUP_TOL)
    return DeloneReport(sep, covering, symmetric, identity)


def _coverage_matrix(candidates, targets, base_tree, tol):
    """Boolean matrix: candidate f covers target p iff dist(p - f, base) <= tol."""
    diffs = (targets[None, :, :] - candidates[:, None, :]).reshape(-1, targets.shape[1])
    dist, _ = base_tree.query(diffs, k=1, p=np.inf)
    return (dist <= tol).reshape(len(candidates), len(targets))


def find_cover_set(sumset, base, coverage_tol=1e-6, verified_region_radius=None,
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


def verify_cover(sumset, base, defect_set, coverage_tol=1e-6,
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
