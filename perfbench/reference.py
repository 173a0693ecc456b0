"""Reference values computed without the quasilat package.

Every function here uses a different algorithm from the library: integer
arithmetic for lattice and p-adic counts, direct enumeration over Z[tau] for
Fibonacci sets, exhaustive search or a left-to-right sweep for minimal covers,
and the closed-form Gaussian Gram kernel for Riesz bounds. Nothing imports
quasilat, so a fault in the library cannot cancel out against its check.
"""

import math
from fractions import Fraction
from math import isqrt

import numpy as np
from scipy.spatial import cKDTree

TAU = (1.0 + math.sqrt(5.0)) / 2.0
TAU_CONJ = 1.0 - TAU
# Inputs whose exact answer sits closer than this to a boundary are refused,
# because float rounding in either side could then decide the count.
BOUNDARY_MARGIN = 1e-7


class AmbiguousInput(ValueError):
    """A point lies so near a boundary that the expected count is not robust."""


# ------------------------------------------------------------------ lattices

def floor_div_sqrt(r, q):
    """floor(r / sqrt(q)) for rationals r >= 0 and q > 0, in exact integers."""
    x = Fraction(r) ** 2 / Fraction(q)
    return isqrt(x.numerator // x.denominator)


def axis_count(r, q):
    """Points k * sqrt(q) of the 1-D lattice in the closed interval [-r, r]."""
    return 2 * floor_div_sqrt(r, q) + 1


def box_extremes(length, q):
    """(min, max) over translates of lattice points in a closed interval of this length."""
    m = floor_div_sqrt(length, q)
    return m, m + 1


def congruence_lattice_count(k, mod, sign):
    """#{(x, y) in Z^2 : |x|, |y| <= k, x == sign * y (mod mod)}, by counting per row."""
    total = 0
    for y in range(-k, k + 1):
        target = (sign * y) % mod
        # x in [-k, k] with x == target (mod mod)
        lo = -k + ((target + k) % mod)
        if lo <= k:
            total += (k - lo) // mod + 1
    return total


def congruence_lattice_min_sup(mod, sign):
    """Smallest sup norm of a nonzero vector of {x == sign * y (mod mod)}."""
    best = mod
    for x in range(-mod, mod + 1):
        for y in range(-mod, mod + 1):
            if (x, y) != (0, 0) and (x - sign * y) % mod == 0:
                best = min(best, max(abs(x), abs(y)))
    return best


def near_integer(value):
    """True when value is within the boundary margin of an integer without being one."""
    return 0.0 < abs(value - round(value)) < BOUNDARY_MARGIN


# ---------------------------------------------------------- Fibonacci sets

def fibonacci_chain(radius, window=1.0):
    """Sorted x = n + m tau with |n + m tau'| <= window and |x| <= radius.

    Enumerates m directly and solves for the few admissible n per m,
    instead of masking an integer box as the library does.
    """
    m_max = int(math.ceil((radius + window) / math.sqrt(5.0))) + 2
    m = np.arange(-m_max, m_max + 1, dtype=np.int64)
    lo = np.ceil(-window - m * TAU_CONJ).astype(np.int64)
    width = int(math.floor(2 * window)) + 2
    n = lo[:, None] + np.arange(width, dtype=np.int64)[None, :]
    mm = np.broadcast_to(m[:, None], n.shape)
    star = n + mm * TAU_CONJ
    x = n + mm * TAU
    edge = np.minimum(np.abs(np.abs(star) - window), np.abs(np.abs(x) - radius))
    if np.any((edge > 0) & (edge < BOUNDARY_MARGIN)):
        raise AmbiguousInput("Fibonacci point within the boundary margin")
    keep = (np.abs(star) <= window) & (np.abs(x) <= radius)
    return np.sort(x[keep]), n[keep], mm[keep]


def fibonacci_density(window=1.0, beta=None):
    rho = 2.0 * window / math.sqrt(5.0)
    return rho if beta is None else rho / beta


def fibonacci_sumset(n, m, radius):
    """Exact sumset of a Fibonacci truncation as Z[tau] pairs, returned as sorted floats."""
    pairs = np.unique(np.stack([(n[:, None] + n[None, :]).ravel(),
                                (m[:, None] + m[None, :]).ravel()], axis=1), axis=0)
    x = pairs[:, 0] + pairs[:, 1] * TAU
    edge = np.abs(np.abs(x) - radius)
    if np.any((edge > 0) & (edge < BOUNDARY_MARGIN)):
        raise AmbiguousInput("sumset point within the boundary margin")
    return np.sort(x[np.abs(x) <= radius])


# ------------------------------------------------------------------ covers

def cover_rows(targets, candidates, base, tol):
    """Boolean matrix: candidate f covers target s iff some base point is within tol of s - f."""
    tree = cKDTree(np.asarray(base, dtype=float).reshape(len(base), -1))
    dim = tree.m
    t = np.asarray(targets, dtype=float).reshape(len(targets), dim)
    c = np.asarray(candidates, dtype=float).reshape(len(candidates), dim)
    diffs = (t[None, :, :] - c[:, None, :]).reshape(-1, dim)
    dist, _ = tree.query(diffs, k=1, p=np.inf)
    return (dist <= tol).reshape(len(c), len(t))


def covers_all(targets, defect, base, tol):
    if len(defect) == 0:
        return len(targets) == 0
    return bool(cover_rows(targets, defect, base, tol).any(axis=0).all())


def min_cover_size(rows, k_cap=2):
    """Exhaustive smallest number of rows whose union is all targets, or None above k_cap."""
    if rows.all(axis=1).any():
        return 1
    if k_cap >= 2:
        miss = (~rows).astype(np.float32)
        both_miss = miss @ miss.T  # (i, j): targets missed by both i and j
        if (both_miss == 0).any():
            return 2
    return None


# ------------------------------------------------------------------- p-adic

def padic_strata(p, w, depth):
    """Closed-form stratum counts: k = 0 has 2 floor(w) + 1, k >= 1 has 2 (M - floor(M / p))."""
    w = Fraction(w)
    out = []
    for k in range(depth + 1):
        big_m = (w * p ** k).numerator // (w * p ** k).denominator
        out.append(2 * big_m + 1 if k == 0 else 2 * (big_m - big_m // p))
    return out


def padic_cumulative(p, w, depth):
    counts, total = [], 0
    for c in padic_strata(p, w, depth):
        total += c
        counts.append(total)
    return counts


def padic_ratios(p, w, depth):
    return [Fraction(c, p ** n) for n, c in enumerate(padic_cumulative(p, w, depth))]


def padic_extrapolated_density(p, w, depth):
    r = padic_ratios(p, w, depth)
    return r[-1] + (r[-1] - r[-2]) / (p - 1) if depth >= 1 else r[-1]


def padic_numerators(p, w, depth):
    """Model-set elements a / p^k (k <= depth) as integers over the common denominator p^depth."""
    w = Fraction(w)
    out = []
    for k in range(depth + 1):
        big_m = (w * p ** k).numerator // (w * p ** k).denominator
        a = np.arange(-big_m, big_m + 1, dtype=np.int64)
        if k > 0:
            a = a[a % p != 0]
        out.append(a * p ** (depth - k))
    return np.sort(np.concatenate(out))


def padic_sumset(p, w, depth):
    """Sumset numerators over p^depth, as the support of the self-convolution of the element indicator."""
    el = padic_numerators(p, w, depth)
    lo = int(el[0])
    ind = np.zeros(int(el[-1]) - lo + 1, dtype=np.int64)
    ind[el - lo] = 1
    return np.nonzero(np.convolve(ind, ind))[0] + 2 * lo


def padic_sweep_cover(p, w, depth):
    """Minimal k: left-to-right sweep over the sumset with centres drawn from it.

    A centre f covers s exactly when |s - f| <= w, i.e. |N_s - N_f| * den(w)
    <= num(w) * p^depth in integer numerators. Taking the leftmost uncovered
    s and the largest centre f <= s + w is optimal for covering points on a
    line by intervals.
    """
    w = Fraction(w)
    sums = [int(v) for v in padic_sumset(p, w, depth)]
    num, den, scale = w.numerator, w.denominator, p ** depth
    k, i, n = 0, 0, len(sums)
    while i < n:
        s = sums[i]
        j = i
        while j + 1 < n and (sums[j + 1] - s) * den <= num * scale:
            j += 1
        f = sums[j]
        k += 1
        while i < n and (sums[i] - f) * den <= num * scale:
            i += 1
    return k


def padic_cover_holds(p, w, depth, defect_values):
    """Every sumset element lies within w of some defect value (exact integers)."""
    w = Fraction(w)
    scale = p ** depth
    centres = []
    for v in defect_values:
        f = Fraction(v) * scale
        if f.denominator != 1:
            return False
        centres.append(int(f))
    sums = padic_sumset(p, w, depth).astype(object)
    num, den = w.numerator, w.denominator
    return all(any(abs(int(s) - f) * den <= num * scale for f in centres) for s in sums)


# -------------------------------------------------------------------- Gabor

def closed_form_gram(points):
    """G_ij = exp(-pi |l_j - l_i|^2 / 2) exp(pi i (xi_j - xi_i)(x_j + x_i)) for g = 2^(1/4) e^(-pi t^2)."""
    x, xi = points[:, 0], points[:, 1]
    dx = x[None, :] - x[:, None]
    dxi = xi[None, :] - xi[:, None]
    sx = x[None, :] + x[:, None]
    return np.exp(-np.pi * (dx ** 2 + dxi ** 2) / 2.0 + 1j * np.pi * dxi * sx)


def separable_lattice_points(q_x, q_xi, radius):
    """Points (a sqrt(q_x), b sqrt(q_xi)) in the closed box of this radius."""
    ka, kb = floor_div_sqrt(radius, q_x), floor_div_sqrt(radius, q_xi)
    a = np.arange(-ka, ka + 1) * math.sqrt(q_x)
    b = np.arange(-kb, kb + 1) * math.sqrt(q_xi)
    return np.array([(u, v) for u in a for v in b])


def riesz_extremes(points):
    eigs = np.linalg.eigvalsh(closed_form_gram(points))
    return float(eigs[0]), float(eigs[-1])


# ---------------------------------------------------------------- point sets

def near_pairs(points, tol):
    """Pairs of points within tol of each other in the sup norm."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        return 0
    return len(cKDTree(pts.reshape(len(pts), -1)).query_pairs(r=tol, p=np.inf))


def is_lex_sorted(points):
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        return True
    order = np.lexsort(pts.T[::-1])
    return bool(np.array_equal(order, np.arange(len(pts))))


def read_point_csv(path):
    """Parse a point CSV (header dim=<d>) with numpy, apart from the library's reader."""
    with open(path) as fh:
        header = fh.readline().strip()
    dim = int(header.split("=", 1)[1])
    pts = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return pts.reshape(-1, dim)
