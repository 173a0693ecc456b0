"""Beurling-type density estimates over centered box Folner sequences.

Counting is boundary inclusive: a point within DEDUP_TOL of the closed box
counts as inside. Per-box lower/upper estimates are the exact inf/sup of the
normalized count over all translates in the scan region, or over an explicit
uniform translate grid when a step is requested. The exact extrema need two
finite grids: per axis the count is a sum of closed-interval indicators, so
its sup is attained at a left endpoint (boxes with a face on a point) and its
inf inside a cell between a right and the next left endpoint (boxes centred
at the cell midpoints). Each axis's sorted distinct coordinates are built
once per scan and shared by every radius. D_minus/D_plus extrapolate the
per-box estimates linearly in 1/radius (each has an O(1/radius) boundary term).
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InsufficientTruncationError
from .pointset import DEDUP_TOL


@dataclass(frozen=True)
class FolnerBoxes:
    """Strictly increasing radii r_n of centered boxes [-r_n, r_n]^dim."""

    dim: int
    radii: tuple

    def __post_init__(self):
        r = tuple(float(x) for x in self.radii)
        if not r or any(x <= 0 for x in r):
            raise ValueError("box radii must be positive")
        if any(b <= a for a, b in zip(r, r[1:])):
            raise ValueError("box radii must be strictly increasing")
        object.__setattr__(self, "radii", r)

    def measure(self, n):
        """Lebesgue measure (2 r_n)^dim of the n-th box."""
        return (2.0 * self.radii[n]) ** self.dim


def van_hove_ratio(boxes, n, half_width):
    """Relative measure of the half_width-thickened boundary of the n-th box.

    Closed form ((2r+2a)^d - max(2r-2a, 0)^d) / (2r)^d; tends to 0 in n for
    fixed a, which is the strong Folner property of the box sequence.
    """
    if half_width < 0:
        raise ValueError("half_width must be nonnegative")
    r = boxes.radii[n]
    d = boxes.dim
    outer = (2.0 * r + 2.0 * half_width) ** d
    inner = max(2.0 * r - 2.0 * half_width, 0.0) ** d
    return (outer - inner) / (2.0 * r) ** d


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


def count_in_translate(ps, x, radius):
    """Exact count of points in the closed box x + [-radius, radius]^dim.

    The box must sit inside the truncation region, else the count would be a
    truncation artifact and an InsufficientTruncationError is raised.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (ps.dim,):
        raise ValueError("translate must have the point set's dimension")
    if np.max(np.abs(x)) + radius > ps.truncation_radius + DEDUP_TOL:
        raise InsufficientTruncationError(
            "translated box leaves the truncation region")
    if len(ps) == 0:
        return 0
    inside = np.all(np.abs(ps.points - x) <= radius + DEDUP_TOL, axis=1)
    return int(np.count_nonzero(inside))


class _PrefixCounter:
    """Exact box counts via per-axis coordinate compression and a prefix-sum table
    (int32 holds any count here and halves the memory the box lookups read)."""

    def __init__(self, points):
        self.dim = points.shape[1]
        self.axes, cell = [], 0  # cell: raveled table index of each point
        for j in range(self.dim):
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
        for axis in range(self.dim):
            np.cumsum(table, axis=axis, out=table)
        self.table = table.astype(np.int32)

    def counts_grid(self, lows, highs):
        """Counts for every box in the product grid lows[j][i]..highs[j][i].

        One prefix difference per axis: after axis j, out holds for every
        interval on the axes 0..j the prefix counts along the later axes.
        """
        out = self.table
        for j in range(self.dim):
            lo = np.searchsorted(self.axes[j], lows[j], side="left")
            hi = np.searchsorted(self.axes[j], highs[j], side="right")
            out = np.take(out, hi, axis=j) - np.take(out, lo, axis=j)
        return out

    def translate_counts(self, centers, radius):
        """Counts in x + [-radius, radius]^dim for x over the product grid centers^dim."""
        return self.counts_grid([centers - radius - DEDUP_TOL] * self.dim,
                                [centers + radius + DEDUP_TOL] * self.dim)


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
    if scan_radius + radius > ps.truncation_radius + DEDUP_TOL:
        raise InsufficientTruncationError("scan region plus box leaves the truncation")
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
    rights = np.append(np.clip(coords + reach, -scan, scan), -scan)
    cuts = np.unique(np.concatenate([lefts, rights]))
    cells = np.isin(cuts[:-1], rights) & np.isin(cuts[1:], lefts)
    mids = ((cuts[:-1] + cuts[1:]) / 2.0)[cells] if len(cuts) > 1 else cuts  # scan 0
    return (sup_high - 2.0 * reach, sup_high), (mids - reach, mids + reach)


def _extreme_counts(counter, radius, scan):
    """Exact (inf, sup) of the box count over all translates in [-scan, scan]^d.

    _axis_extreme_boxes holds on each axis whatever the other coordinates
    are, so products of the per-axis boxes attain both extrema.
    """
    axes = [_axis_extreme_boxes(coords, radius + DEDUP_TOL, scan) for coords in counter.axes]
    sup = counter.counts_grid(*zip(*[a[0] for a in axes]))
    inf = counter.counts_grid(*zip(*[a[1] for a in axes]))
    return int(inf.min()), int(sup.max())


def extreme_counts(points, radii, scan, step=None):
    """Per radius, (inf, sup) of the box count over translates in [-scan, scan]^d.

    Rows may repeat; each copy counts. With step=None the extrema are exact
    over all translates, else over the grid step*Z^d.
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


def density_scan(ps, boxes, translate_step=None, scan_region_radius=None):
    """Lower/upper Beurling density estimates of ps over the given box sequence.

    With translate_step=None (default) each per-box count is the exact
    inf/sup over every translate in the scan region. With an explicit step
    the extrema are taken over the uniform grid step*Z^d instead, which is
    cheaper in high dimension but can miss the worst translate phase.
    """
    if boxes.dim != ps.dim:
        raise ValueError("box dimension must match point set dimension")
    r_max = boxes.radii[-1]
    if scan_region_radius is None:
        scan = ps.truncation_radius - r_max
        if scan < -DEDUP_TOL:
            raise InsufficientTruncationError(
                "largest box exceeds the truncation region")
        scan = max(scan, 0.0)
    else:
        scan = float(scan_region_radius)
        if scan + r_max > ps.truncation_radius + DEDUP_TOL:
            raise InsufficientTruncationError(
                "scan region plus largest box exceeds the truncation region")
    if translate_step is not None and translate_step <= 0:
        raise ValueError("translate_step must be positive")

    extremes = extreme_counts(ps.points, boxes.radii, scan, translate_step)
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
