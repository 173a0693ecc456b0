"""Beurling-type density estimates over centered box Folner sequences.

Counting is boundary inclusive: a point within DEDUP_TOL of the closed box
counts as inside. Per-box lower/upper estimates are the exact inf/sup of the
normalized count over all translates in the scan region, or over an explicit
uniform translate grid when a step is requested. The exact extrema need two
finite grids: per axis the count is a sum of closed-interval indicators, so
its sup is attained at a left endpoint (boxes with a face on a point) and its
inf inside a cell between a right and the next left endpoint (boxes centred
at the cell midpoints). Each axis's sorted distinct coordinates are built
once per scan; equal axes share their boxes. On a product X_1 x ... x X_d
a box count is the product of per-axis counts, with no d-dim prefix table.
A Product hands its sorted factors X_j straight to the scan; lex-sorted
rows without repeats are recognised as one. D_minus/D_plus extrapolate the
per-box estimates linearly in 1/radius (each has an O(1/radius) boundary term).
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .pointset import DEDUP_TOL, _within, positive_finite, require_reach


@dataclass(frozen=True)
class FolnerBoxes:
    """Strictly increasing radii r_n of centered boxes [-r_n, r_n]^dim."""

    dim: int
    radii: tuple

    def __post_init__(self):
        r = tuple(positive_finite(x, "box radius") for x in self.radii)
        if not r:
            raise ValueError("no box radii")
        if any(b <= a for a, b in zip(r, r[1:])):
            raise ValueError("box radii must be strictly increasing")
        object.__setattr__(self, "radii", r)

    def measure(self, n):
        """Lebesgue measure (2 r_n)^dim of the n-th box."""
        return (2.0 * self.radii[n]) ** self.dim


@dataclass
class DensityReport:
    """Per-box inf/sup counts plus extrapolated lower/upper densities."""

    radii: list
    lower_counts: list
    upper_counts: list
    lower_estimates: list
    upper_estimates: list
    D_minus: float
    D_plus: float
    slope_minus: float
    slope_plus: float
    translate_step: float | None  # None: exact extrema over all translates
    scan_region_radius: float

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class Product:
    """X_1 x ... x X_d truncated at truncation_radius, held as its sorted factors X_j."""

    factors: list
    truncation_radius: float

    @property
    def dim(self):
        return len(self.factors)

    def __len__(self):  # the row count
        return math.prod(len(f) for f in self.factors)


def count_in_translate(ps, x, radius):
    """Exact count of points in the closed box x + [-radius, radius]^dim.

    The box must sit inside the truncation region, else the count would be a
    truncation artifact and an InsufficientTruncationError is raised.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (ps.dim,):
        raise ValueError("translate must have the point set's dimension")
    require_reach(np.max(np.abs(x)) + radius, ps.truncation_radius, "translated box reach")
    if len(ps) == 0:
        return 0
    return int(np.count_nonzero(_within(ps.points - x, [radius + DEDUP_TOL] * ps.dim)))


def _product_factors(points):
    """Sorted factors X_j if the rows are exactly X_1 x ... x X_d in lex order, else None."""
    factors, block = [], points
    for _ in range(points.shape[1]):
        col = block[:, 0]
        values = col[np.r_[True, col[1:] != col[:-1]]]
        reps, extra = divmod(len(col), len(values))
        tiles = block[:len(col) - extra].reshape(len(values), reps, -1)
        if (extra or np.any(values[1:] <= values[:-1]) or np.any(tiles[:, :, 0] != values[:, None])
                or np.any(tiles[:, :, 1:] != tiles[:1, :, 1:])):
            return None
        factors.append(values)
        block = tiles[0, :, 1:]
    return factors if len(block) == 1 else None


class _PrefixCounter:
    """Exact box counts via per-axis coordinate compression: per-axis counts multiply
    on a product set, else a prefix-sum table (int32: holds any count, halves lookups)."""

    def __init__(self, points):  # rows, or a Product
        self.axes, self.table = getattr(points, "factors", None) or _product_factors(points), None
        if self.axes is not None:
            return
        self.axes, cell = [], 0  # cell: raveled table index of each point
        for j in range(points.shape[1]):
            col = points[:, j]
            if np.all(col[1:] >= col[:-1]):  # sorted, as lex order's first column
                new = np.r_[True, col[1:] != col[:-1]]
                values, rank = col[new], np.cumsum(new) - 1
            else:
                values = np.unique(col)
                rank = np.searchsorted(values, col)
            self.axes.append(values)
            cell = cell * (len(values) + 1) + rank + 1
        shape = tuple(len(a) + 1 for a in self.axes)
        if math.prod(shape) > 200_000_000:
            raise MemoryError("coordinate grid too large for prefix counting")
        table = np.bincount(cell, minlength=math.prod(shape)).reshape(shape)
        for axis in range(table.ndim):
            np.cumsum(table, axis=axis, out=table)
        self.table = table.astype(np.int32)

    def counts_grid(self, lows, highs):
        """Counts for every box in the product grid lows[j][i]..highs[j][i].

        One prefix difference per axis: after axis j, out holds for every
        interval on the axes 0..j the prefix counts along the later axes.
        """
        out = np.int32(1) if self.table is None else self.table
        for j, axis in enumerate(self.axes):
            lo = np.searchsorted(axis, lows[j], side="left")
            hi = np.searchsorted(axis, highs[j], side="right")
            out = (np.multiply.outer(out, (hi - lo).astype(np.int32)) if self.table is None
                   else np.take(out, hi, axis=j) - np.take(out, lo, axis=j))
        return out

    def translate_counts(self, centers, radius):
        """Counts in x + [-radius, radius]^dim for x over the product grid centers^dim."""
        return self.counts_grid([centers - radius - DEDUP_TOL] * len(self.axes),
                                [centers + radius + DEDUP_TOL] * len(self.axes))


def _translate_centers(step, scan_radius):
    """Centres -scan_radius + step k up to scan_radius; 0 alone when scan_radius <= 0."""
    if scan_radius <= 0:
        return np.array([0.0])
    k = int(math.floor(2.0 * scan_radius / step + 1e-12))
    return -scan_radius + step * np.arange(k + 1)


def translate_count_grid(ps, radius, step, scan_radius):
    """Counts of ps in x + [-radius, radius]^d for x over the grid step*Z^d in [-scan, scan]^d.

    Returns (centers_1d, counts) with counts indexed by the per-axis grid,
    the full count field rather than only its extrema.
    """
    require_reach(scan_radius + radius, ps.truncation_radius, "scan region plus box")
    centers = _translate_centers(step, scan_radius)
    if len(ps) == 0:
        shape = tuple([len(centers)] * ps.dim)
        return centers, np.zeros(shape, dtype=np.int32)
    return centers, _PrefixCounter(ps.points).translate_counts(centers, radius)


def _axis_extreme_boxes(coords, reach, scan):
    """(lows, highs) of the boxes on one axis that attain the sup, then the inf.

    Along one axis the count at translate x sums the indicators of the closed
    intervals [p - reach, p + reach] over the point coordinates p. Such a sum
    rises only at a left endpoint, so its sup over [-scan, scan] is attained
    at -scan or at some p - reach; the box there is [p - 2 reach, p], with its
    upper face on the point. It falls only just after a right endpoint, so its
    inf is attained inside a cell that opens at a right endpoint (or -scan)
    and closes at a left endpoint (or scan); the box is centred at the
    midpoint of such a cell.
    """
    tops = coords[(coords - reach >= -scan) & (coords - reach <= scan)]
    sup_high = np.append(-scan + reach, tops)
    lefts = np.append(np.clip(coords - reach, -scan, scan), scan)
    rights = np.append(-scan, np.clip(coords + reach, -scan, scan))
    ends = np.concatenate([lefts, rights])
    order = np.argsort(ends, kind="stable")  # merges the two sorted runs
    merged, from_left = ends[order], order < len(lefts)
    first = np.flatnonzero(np.append(True, merged[1:] != merged[:-1]))
    cuts = merged[first]  # each distinct end once: is some copy of it a left, a right end?
    is_left = np.logical_or.reduceat(from_left, first)
    is_right = ~np.logical_and.reduceat(from_left, first)
    cells = is_right[:-1] & is_left[1:]
    mids = ((cuts[:-1] + cuts[1:]) / 2.0)[cells] if len(cuts) > 1 else cuts  # scan 0
    return (sup_high - 2.0 * reach, sup_high), (mids - reach, mids + reach)


def _extreme_counts(counter, radius, scan):
    """Exact (inf, sup) of the box count over all translates in [-scan, scan]^d.

    _axis_extreme_boxes holds on each axis whatever the other coordinates
    are, so products of the per-axis boxes attain both extrema.
    """
    axes = []  # an axis equal to an earlier one reuses its boxes
    for coords in counter.axes:
        same = [b for c, b in zip(counter.axes, axes) if np.array_equal(c, coords)]
        axes.append(same[0] if same else _axis_extreme_boxes(coords, radius + DEDUP_TOL, scan))
    sup = counter.counts_grid(*zip(*[a[0] for a in axes]))
    inf = counter.counts_grid(*zip(*[a[1] for a in axes]))
    return int(inf.min()), int(sup.max())


def extreme_counts(points, radii, scan, step=None):
    """Per radius, (inf, sup) of the box count over translates in [-scan, scan]^d.

    points are rows, which may repeat (each copy counts), or a Product. With
    step=None the extrema are exact over all translates, else over step*Z^d.
    """
    if len(points) == 0:
        return [(0, 0)] * len(radii)
    counter = _PrefixCounter(points)
    if step is None:
        return [_extreme_counts(counter, r, scan) for r in radii]
    centers = _translate_centers(step, scan)
    fields = (counter.translate_counts(centers, r) for r in radii)
    return [(int(c.min()), int(c.max())) for c in fields]


def _extrapolate(radii, values):
    """Intercept and slope of a least-squares line in h = 1/r over the box radii."""
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(v) == 1:
        return float(v[0]), 0.0
    h = 1.0 / r
    design = np.stack([np.ones(len(v)), h], axis=1)
    coef, *_ = np.linalg.lstsq(design, v, rcond=None)
    return float(max(coef[0], 0.0)), float(coef[1])


def density_scan(ps, boxes, translate_step=None):
    """Lower/upper Beurling density estimates of a PointSet or Product over the boxes.

    The scan region is [-s, s]^d with s = max(truncation - largest box radius, 0),
    so every box stays inside the truncation. With translate_step=None (default)
    each per-box count is the exact inf/sup over every translate in it. With an
    explicit step the extrema are taken over the uniform grid step*Z^d instead,
    which is cheaper in high dimension but can miss the worst translate phase.
    """
    if boxes.dim != ps.dim:
        raise ValueError("box dimension must match point set dimension")
    r_max = boxes.radii[-1]
    scan = max(ps.truncation_radius - r_max, 0.0)
    require_reach(r_max, ps.truncation_radius, "largest box")
    if translate_step is not None:
        positive_finite(translate_step, "translate_step")

    extremes = extreme_counts(ps if isinstance(ps, Product) else ps.points, boxes.radii,
                              scan, translate_step)
    lower_counts = [lo for lo, _ in extremes]
    upper_counts = [hi for _, hi in extremes]
    lower_est = [c / boxes.measure(n) for n, c in enumerate(lower_counts)]
    upper_est = [c / boxes.measure(n) for n, c in enumerate(upper_counts)]

    d_minus, slope_minus = _extrapolate(boxes.radii, lower_est)
    d_plus, slope_plus = _extrapolate(boxes.radii, upper_est)
    if d_minus > d_plus:  # independent fits may cross; restore the ordering
        d_minus, d_plus = min(d_minus, d_plus), max(d_minus, d_plus)
    step_out = None if translate_step is None else float(translate_step)
    return DensityReport(list(boxes.radii), lower_counts, upper_counts,
                         lower_est, upper_est, d_minus, d_plus,
                         slope_minus, slope_plus, step_out, float(scan))
