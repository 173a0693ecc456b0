"""Finite truncations of lattices, cut-and-project model sets, and derived point sets.

Every construction returns a :class:`PointSet`: a deduplicated, lexicographically
ordered array of points together with the sup-norm truncation radius and a JSON-able
``source`` recipe from which the set can be regenerated bit for bit.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateLatticeError, EnumerationBoundError, InsufficientTruncationError

# Sup-norm tolerance for deduplication and boundary-inclusive membership.
# Assumed far below the minimum gap of every set handled here.
DEDUP_TOL = 1e-9

# Cap on the integer box of one enumeration and on sumset pair counts.
MAX_CANDIDATES = 20_000_000


def positive_finite(value, what="radius"):
    """value as a float; ValueError unless positive and finite, the rule of every radius."""
    if not 0 < (value := float(value)) < math.inf:
        raise ValueError(f"{what} must be positive and finite")
    return value


def require_reach(needed, truncation, what):
    """Refuse a centred box of sup-radius needed that leaves a truncation of this radius.

    The one rule behind every count and solve on a truncation: the box fits
    when needed <= truncation + DEDUP_TOL, else the truncation would cut the
    box and bias the result, and InsufficientTruncationError is raised.
    """
    if not needed <= truncation + DEDUP_TOL:
        raise InsufficientTruncationError(
            f"{what} {float(needed)} exceeds the truncation radius {float(truncation)}")


def _as_points(points, dim):
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return np.zeros((0, dim))
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("non-finite point coordinate")
    return pts


def lexsorted(points):
    """Rows of a 2-d array in lexicographic order; sorted input is returned as is."""
    prev, last = points[:-1], points[1:]
    tie = np.ones(len(last), dtype=bool)
    for c in range(points.shape[1]):
        if np.any(tie & (last[:, c] < prev[:, c])):
            return points[np.lexsort(points.T[::-1])]
        tie &= last[:, c] == prev[:, c]
    return points


def unique_rows(points):
    """np.unique(points, axis=0, return_inverse=True, return_counts=True) by one lexsort.

    The rows come out in lexicographic order; inverse maps every input row
    to its unique row, and counts are the sizes of those groups.
    """
    order = np.lexsort(points.T[::-1])
    ranked = points[order]
    new = np.ones(len(ranked), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    inverse = np.empty(len(ranked), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    return ranked[starts], inverse, np.diff(np.append(starts, len(ranked)))


def _within(coords, bounds):
    """Mask of rows with |coords[:, j]| <= bounds[j] for all j, compared per column."""
    inside = np.abs(coords[:, 0]) <= bounds[0]
    for j in range(1, coords.shape[1]):
        inside &= np.abs(coords[:, j]) <= bounds[j]
    return inside


@np.errstate(over="ignore")  # a gap between -DBL_MAX and DBL_MAX is inf: still a split
def _canonical(points):
    """Lex-sorted points with sup-norm near-duplicates removed.

    Rule: in lexicographic order, a point is dropped exactly when it lies
    within DEDUP_TOL (sup norm) of an earlier point that was kept. The result
    depends only on the input set, not on its order.

    Method: sort-and-chain grouping. For each coordinate in turn, points are
    sorted by (group, coordinate) and a new group starts wherever the group
    changes or the coordinate gap exceeds DEDUP_TOL; any two points within
    DEDUP_TOL therefore share a final group. A group whose spread is at most
    DEDUP_TOL in every coordinate keeps its lex-first member; only a wider
    group (a chain) applies the rule above member by member.
    """
    n = len(points)
    if n == 0:
        return points
    pts = lexsorted(points + 0.0)  # + 0.0 normalizes -0.0 to +0.0
    # order: lex indices sorted by (group, coordinate c), None for lex order itself,
    # which is sorted by the first coordinate; re-sorting keeps the group boundaries
    order = None
    split = np.zeros(n - 1, dtype=bool)
    for c in range(pts.shape[1]):
        x = pts[:, c] if order is None else pts[order, c]
        gaps = np.diff(x)
        if np.any((gaps < 0) & ~split):
            sub = np.lexsort((x, np.cumsum(np.r_[0, split])))
            order, x = sub if order is None else order[sub], x[sub]
            gaps = np.diff(x)
        split |= gaps > DEDUP_TOL
    first = np.flatnonzero(np.r_[True, split])
    if len(first) == n:  # no two points within DEDUP_TOL
        return pts
    order = np.arange(n) if order is None else order
    members = pts[order]
    spread = (np.maximum.reduceat(members, first, axis=0)
              - np.minimum.reduceat(members, first, axis=0))
    keep = np.zeros(n, dtype=bool)
    keep[np.minimum.reduceat(order, first)] = True  # lex-first member of each group
    bounds = np.r_[first, n]
    for g in np.flatnonzero(np.any(spread > DEDUP_TOL, axis=1)):
        lex = np.sort(order[bounds[g]:bounds[g + 1]])
        kept = [lex[0]]
        for i in lex[1:]:
            if np.min(np.max(np.abs(pts[kept] - pts[i]), axis=1)) > DEDUP_TOL:
                kept.append(i)
        keep[kept] = True
    return pts[keep]


@dataclass(frozen=True)
class PointSet:
    """Finite truncation of a point set in R^dim.

    Attributes
    ----------
    dim : int
        Ambient dimension.
    points : ndarray, shape (N, dim)
        Canonically ordered (lexicographic), deduplicated points.
    truncation_radius : float
        Every point lies in the closed sup-ball of this radius.
    source : dict
        Generation recipe; ``regenerate(source)`` reproduces the set.
    """

    dim: int
    points: np.ndarray
    truncation_radius: float
    source: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = self.points
        if len(pts) and max(pts.max(), -pts.min()) > self.truncation_radius + DEDUP_TOL:
            raise ValueError("point outside the declared truncation radius")

    def __len__(self):
        return len(self.points)

    def restrict(self, radius):
        """Sub-truncation: points with sup-norm <= radius (boundary inclusive)."""
        require_reach(radius, self.truncation_radius, "restriction radius")
        pts = self.points[_within(self.points, [radius + DEDUP_TOL] * self.dim)]
        return from_points(pts, self.dim, radius)

    def translate(self, v):
        return from_points(self.points + np.asarray(v, dtype=float), self.dim)


def from_points(points, dim=None, truncation_radius=None):
    """Wrap an explicit list of points as a PointSet.

    Its recipe, ``{"kind": "explicit", "dim", "points", "truncation_radius"}``,
    is the only explicit one; the truncation radius defaults to the largest
    sup norm. Without ``dim`` a 1-d array or an empty set is 1-d.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and dim is None:
        pts = pts[:, None]
    if dim is None:
        dim = pts.shape[1] if pts.size else 1
    pts = _canonical(_as_points(pts, dim))
    if truncation_radius is None:
        truncation_radius = float(np.max(np.abs(pts))) if len(pts) else 0.0
    radius = float(truncation_radius)
    src = {"kind": "explicit", "dim": dim, "points": pts.tolist(), "truncation_radius": radius}
    return PointSet(dim, pts, radius, src)


def _covolume(basis):
    """|det basis|; DegenerateLatticeError unless it is finite and at least 1e-12."""
    with np.errstate(invalid="ignore"):  # an infinite or NaN entry fails the test below
        d = abs(float(np.linalg.det(basis)))
    if not np.isfinite(d) or d < 1e-12:
        raise DegenerateLatticeError(f"degenerate lattice: |det| = {d}, not in [1e-12, inf)")
    return d


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice B Z^d given by the columns of ``basis`` acting on Z^d rows."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("lattice basis must be a square matrix")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def covolume(self):
        """Volume of a fundamental domain, |det basis|."""
        return _covolume(self.basis)


@dataclass(frozen=True)
class Window:
    """Centered box in internal space: product of [-h_j, h_j]."""

    half_widths: tuple

    def __post_init__(self):
        hw = tuple(positive_finite(h, "window half-width") for h in self.half_widths)
        if not hw:
            raise ValueError("no window half-widths")
        object.__setattr__(self, "half_widths", hw)

    @property
    def dim(self):
        return len(self.half_widths)

    @property
    def measure(self):
        return float(np.prod([2.0 * h for h in self.half_widths]))


@dataclass(frozen=True)
class CutAndProjectScheme:
    """Cut-and-project data: lattice in R^(d+m), physical dim d, internal dim m, box window.

    ``total_basis`` rows 0..d-1 give physical coordinates of the generator columns,
    rows d..d+m-1 internal coordinates. Integer combinations z map to
    ``total_basis @ z``.
    """

    total_basis: np.ndarray
    d: int
    m: int
    window: Window

    def __post_init__(self):
        b = np.asarray(self.total_basis, dtype=float)
        n = self.d + self.m
        if b.shape != (n, n):
            raise ValueError(f"total_basis must be {n}x{n}")
        if self.window.dim != self.m:
            raise ValueError("window dimension must equal internal dimension m")
        object.__setattr__(self, "total_basis", b)
        self.covolume  # validates invertibility eagerly

    @property
    def covolume(self):
        return _covolume(self.total_basis)

    def density(self):
        """Density of the model set: window measure / covolume."""
        return self.window.measure / self.covolume


def fibonacci_scheme(window_half_width=1.0):
    """Quadratic-irrational scheme with star map n + m*tau -> n + m*tau' (tau golden)."""
    tau = (1.0 + math.sqrt(5.0)) / 2.0
    tau_conj = (1.0 - math.sqrt(5.0)) / 2.0
    basis = np.array([[1.0, tau], [1.0, tau_conj]])
    return CutAndProjectScheme(basis, d=1, m=1, window=Window((float(window_half_width),)))


def _projected_points(transform, bounds, d):
    """First d coordinates of transform z over integer z with |transform z| <= bounds.

    Interval arithmetic bounds z by a box. The box is walked along its leading
    axes, and each last-axis fiber is cut to the interval on which every row
    with a nonzero last entry holds its bound plus a 1e-9 relative slack,
    widened by one; a row with a zero last entry keeps or drops the whole
    fiber against the same slackened bound. The candidates left are filtered
    exactly, in meshgrid ("ij") order, so the rows equal those of one filter
    over the whole box; MAX_CANDIDATES still caps the box. The coordinates
    are column_sums(z, transform), not a matrix product: a basis whose columns
    swap or negate under a map of the coordinates gives a set that map fixes exactly.
    """
    bounds = np.asarray(bounds, dtype=float)
    amp = np.abs(np.linalg.inv(transform)) @ (bounds + 1e-12)
    lo = np.ceil(-amp - 1e-12).astype(np.int64)
    hi = np.floor(amp + 1e-12).astype(np.int64)
    sizes = hi - lo + 1
    total = math.prod(int(s) for s in sizes)
    if total > MAX_CANDIDATES:
        raise EnumerationBoundError(
            f"enumeration bound exceeded: {total} integer candidates "
            f"(cap {MAX_CANDIDATES}); reduce the radius")
    n = len(sizes)
    lead = np.indices(sizes[:-1]).reshape(n - 1, total // int(sizes[-1])).T + lo[:-1]
    partial = lead @ transform[:, :-1].T  # each row's value at last coordinate 0
    last = transform[:, -1]
    free = last == 0.0
    # the fibers only pre-select: the slack need merely exceed the rows' rounding
    reach = bounds * (1.0 + 1e-9) + 1e-9
    kept = np.all(np.abs(partial[:, free]) <= reach[free], axis=1)  # constant on a fiber
    with np.errstate(over="ignore"):
        ends = (np.array([[-1.0], [1.0]]) * reach[~free] - partial[:, None, ~free]) / last[~free]
    start = np.ceil(np.max(np.min(ends, axis=1), axis=1, initial=-np.inf)) - 1
    stop = np.floor(np.min(np.max(ends, axis=1), axis=1, initial=np.inf)) + 1
    start, stop = np.clip(start, lo[-1], hi[-1] + 1), np.minimum(stop, hi[-1])
    length = np.where(kept, np.maximum(stop - start + 1, 0), 0).astype(np.int64)
    # a fiber's start less its first row index; adding the row index walks the fiber
    offset = start.astype(np.int64) - (np.cumsum(length) - length)
    z = np.repeat(np.hstack([lead, offset[:, None]]), length, axis=0)
    z[:, -1] += np.arange(len(z))
    coords = column_sums(z, transform)
    return np.compress(_within(coords, bounds), coords[:, :d], axis=0)


def column_sums(z, transform):
    """z_0 T[:, 0] + z_1 T[:, 1] + ... for each row z, each product rounded and summed in order."""
    coords = z[..., :1] * transform[:, 0]
    for k in range(1, transform.shape[1]):
        coords += z[..., k:k + 1] * transform[:, k]
    return coords


def lattice_points_in_box(lattice, radius):
    """All lattice points in the closed box [-radius, radius]^d, canonically ordered."""
    radius = positive_finite(radius)
    lattice.covolume  # raises DegenerateLatticeError on singular bases
    d = lattice.dim
    pts = _canonical(_projected_points(lattice.basis, [radius + DEDUP_TOL] * d, d))
    src = {"kind": "lattice", "basis": lattice.basis.tolist(), "radius": radius}
    return PointSet(d, pts, radius, src)


def model_set_generate(scheme, radius):
    """Physical projections of scheme lattice points whose internal part lies in the window.

    Internal parts are recomputed from the integer coordinates, never from the
    floating physical parts, so exact schemes stay exact at the window boundary.
    """
    radius = positive_finite(radius)
    bounds = [radius + DEDUP_TOL] * scheme.d + list(scheme.window.half_widths)
    phys = lexsorted(_projected_points(scheme.total_basis, bounds, scheme.d))
    # injectivity of the physical projection on the truncation
    if np.any(_within(np.diff(phys, axis=0), [DEDUP_TOL] * scheme.d)):
        raise ValueError("physical projection not injective on this truncation")
    src = {"kind": "cut_and_project", "total_basis": scheme.total_basis.tolist(),
           "d": scheme.d, "m": scheme.m,
           "window": list(scheme.window.half_widths), "radius": radius}
    return PointSet(scheme.d, phys + 0.0, radius, src)


def symmetrize(ps, sublattice, radius):
    """ps together with -ps and a sublattice truncation; contains 0 and is symmetric."""
    if sublattice.dim != ps.dim:
        raise ValueError("sublattice dimension must match point set dimension")
    lat = lattice_points_in_box(sublattice, radius)
    stacked = np.vstack([ps.points, -ps.points, lat.points]) if len(ps) else lat.points
    pts = _canonical(stacked)
    out_radius = float(max(ps.truncation_radius, radius))
    src = {"kind": "symmetrize", "base": ps.source,
           "sublattice_basis": sublattice.basis.tolist(), "radius": float(radius)}
    return PointSet(ps.dim, pts, out_radius, src)


def sumset_truncated(a, b, radius):
    """All pairwise sums with sup-norm <= radius, deduplicated."""
    if a.dim != b.dim:
        raise ValueError("sumset operands must share a dimension")
    radius = positive_finite(radius)
    if len(a) * len(b) > MAX_CANDIDATES:
        raise EnumerationBoundError("enumeration bound exceeded: sumset pair count too large")
    if len(a) == 0 or len(b) == 0:
        pts = np.zeros((0, a.dim))
    else:
        sums = (a.points[:, None, :] + b.points[None, :, :]).reshape(-1, a.dim)
        pts = _canonical(sums[_within(sums, [radius + DEDUP_TOL] * a.dim)])
    src = {"kind": "sumset", "a": a.source, "b": b.source, "radius": radius}
    return PointSet(a.dim, pts, radius, src)


def min_separation(points, tree=None):
    """Minimum pairwise sup-norm distance; inf for fewer than two points.

    ``tree``, a scipy cKDTree of the same points, saves building another.
    The least 2nd-neighbour distance over every 64th point prunes the full query.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        return math.inf
    if tree is None:
        from scipy.spatial import cKDTree
        tree = cKDTree(pts)
    bound = np.min(tree.query(pts[::64], k=2, p=np.inf)[0][:, 1])
    dist, _ = tree.query(pts, k=2, p=np.inf, distance_upper_bound=np.nextafter(bound, np.inf))
    return float(np.min(dist[:, 1]))


def regenerate(source):
    """Rebuild a PointSet from its recipe. Deterministic: same recipe, same floats."""
    kind = source.get("kind")
    if kind == "lattice":
        return lattice_points_in_box(Lattice(np.array(source["basis"])), source["radius"])
    if kind == "cut_and_project":
        scheme = CutAndProjectScheme(np.array(source["total_basis"]), source["d"],
                                     source["m"], Window(tuple(source["window"])))
        return model_set_generate(scheme, source["radius"])
    if kind == "explicit":  # a recipe without "dim" predates it; from_points infers it
        return from_points(source["points"], source.get("dim"), source["truncation_radius"])
    if kind == "symmetrize":
        base = regenerate(source["base"])
        return symmetrize(base, Lattice(np.array(source["sublattice_basis"])),
                          source["radius"])
    if kind == "sumset":
        return sumset_truncated(regenerate(source["a"]), regenerate(source["b"]),
                                source["radius"])
    raise ValueError(f"unknown point set recipe kind: {kind!r}")


def save_pointset(ps, path):
    """Write a point CSV (header ``dim=<d>``, 17 significant digits) plus a JSON sidecar.

    The sidecar path is ``<path>.json`` and mirrors the source recipe verbatim.
    """
    path = str(path)
    points = np.asarray(ps.points, dtype=float)
    cells = np.empty(points.shape, dtype=object)
    for c in range(ps.dim):  # each distinct bit pattern (-0.0 is not 0.0) formatted once
        bits, inverse = np.unique(points[:, c].view(np.int64), return_inverse=True)
        cells[:, c] = np.array(["%.17g" % v for v in bits.view(float).tolist()], object)[inverse]
    with open(path, "w") as fh:
        fh.write(f"dim={ps.dim}\n")
        row = ",".join(["%s"] * ps.dim) + "\n"
        fh.write(row * len(ps) % tuple(cells.ravel().tolist()))
    sidecar = {"source": ps.source, "truncation_radius": ps.truncation_radius,
               "dim": ps.dim, "count": len(ps)}
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _csv_rows(lines, dim, skiprows=0):
    """numpy's rows of comma-separated numbers (a path or list); None unless dim wide, finite."""
    try:
        rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, skiprows=skiprows)
    except ValueError:
        return None
    return rows if rows.shape[1] == dim and np.isfinite(rows).all() else None


def load_pointset(path):
    """Read a point CSV written by save_pointset; the sidecar is optional, but its
    count and dim, where it has them, must be the body's row count and dim.

    numpy's reader parses the body and skips empty lines. Only when it
    refuses the body, or a coordinate is not finite, is the file read line by
    line, to name the first bad line. A ``dim=`` that is not ASCII digits, or
    is below 1, is refused.
    """
    path = str(path)
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("dim="):
            raise ValueError(f"malformed point CSV {path}: missing dim= header")
        digits = header[4:]
        dim = int(digits) if digits.isascii() and digits.isdigit() else 0
        if dim < 1:
            raise ValueError(f"malformed point CSV {path}: bad dimension")
        empty = not any(line.strip("\r\n") for line in fh)  # loadtxt warns on one
    pts = np.zeros((0, dim)) if empty else _csv_rows(path, dim, skiprows=1)
    if pts is None:
        with open(path) as fh:
            for ln, line in enumerate(fh, start=1):
                if ln > 1 and line.strip("\r\n") and _csv_rows([line], dim) is None:
                    raise ValueError(f"malformed point CSV {path}: line {ln} is not "
                                     f"{dim} comma-separated finite numbers")
    try:
        with open(path + ".json") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        meta = {}
    for key, body in (("count", len(pts)), ("dim", dim)):
        if meta.get(key, body) != body:
            raise ValueError(f"sidecar {path}.json has {key} {meta[key]}, the CSV body {body}")
    if meta.get("source") is None:
        return from_points(pts, dim, meta.get("truncation_radius"))
    if meta.get("truncation_radius") is None:
        raise ValueError(f"sidecar {path}.json has a source but no truncation_radius")
    return PointSet(dim, _canonical(pts), float(meta["truncation_radius"]), meta["source"])
