"""Time-frequency analysis for Gaussian coherent systems pi(lambda) g over point sets.

pi(x, xi) f(t) = exp(2 pi i xi t) f(t - x), so pi(z) pi(z') = cocycle(z, z')
pi(z + z') with cocycle = exp(-2 pi i xi' x). The formal degree is 1 under
Lebesgue normalization: integral |<f, pi(z) g>|^2 dz = ||f||^2 ||g||^2.
The window is always g = h_0, so a GaborSystem is its point set alone and
the checks are grid-free: every atom has closed-form Hermite coordinates
(atom_coordinates), built down the rows by the ratio recurrence C[n] =
C[n - 1] sqrt(pi) z / sqrt(n) (in log space where exp(-pi |z|^2 / 2) would
be subnormal), and the Gram matrix is analytic. Only the sampled
cross-check API takes a grid, a uniform one on [-T, T] with trapezoidal
quadrature: Waveform, tf_shift, hermite_basis, orthogonality_check,
GaborSystem.synthesis_matrix(grid) and DualFamily.duals(grid). That API is
the only user of scipy.interpolate, and only for a time shift that is not a
whole number of grid steps; like every SciPy import here it is made inside
the function that needs it.

The least-squares residuals use the point set's exact rotation symmetry.
The Fourier transform F rotates phase space by 90 degrees, (x, xi) ->
(-xi, x), and F h_n = (-i)^n h_n, F g = g; parity maps lambda to -lambda
and h_n to (-1)^n h_n. So the coordinates of pi(R lambda) g are those of
pi(lambda) g times i^n (rotation) or (-1)^n (parity), up to a unimodular
phase. If R preserves the set, the span of the atoms is the orthogonal sum
over the classes n mod order(R) of the spans of one representative per
orbit, restricted to that class: a probe's squared residual sums over its
classes (h_k lies in class k mod order, pi(z) g in all). symmetry detects R by
exact comparison only: a set symmetric up to rounding takes the order 1 solve.
On the critical lattice Z^2 the largest probe residual, ~0.114 at h_9,
sits in class 1 mod 4 with the next largest, h_1 and h_5.

A reflection S z = exp(2 i theta) conj(z) of the set (symmetry's theta,
exact) makes every class solve real: g is real, so S acts anti-unitarily.
The coordinates u_n(z) = exp(-i n theta) exp(-pi |z|^2 / 2) (sqrt(pi) z)^n /
sqrt(n!) differ from C by column phases and row phases, which a probe takes
too, and u(S z) = conj(u(z)); so the span is closed under conjugation, its
projector is real, and a probe's real and imaginary parts are solved apart.
The sector theta <= arg z <= theta + pi/order meets each dihedral orbit once.
With alpha = arg z - theta, a point inside it gives the real and imaginary parts of
exp(-i r alpha) u on class r, a point on its rays (alpha = 0 or pi/order,
where that vector is real) one column: per class the complex solve's column
count, at about a third of its cost.
"""

import cmath
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import NotMinimalError, ShiftRangeError
from .pointset import DEDUP_TOL, Lattice, PointSet, _within, column_sums, lexsorted, require_reach

# Formal degree of the representation under Lebesgue normalization.
D_PI = 1.0

# frame_bounds: the point truncation must reach sqrt(N / pi) + FRAME_GUARD, and
# the sweep has converged when its last two lower bounds differ by at most
# FRAME_REL_TOL * max(last, FRAME_A_FLOOR).
FRAME_GUARD = 6.0
FRAME_STEP = 10         # the sweep's section sizes: FRAME_STEP, 2 FRAME_STEP, ... and N
FRAME_REL_TOL = 0.1
FRAME_A_FLOOR = 1e-2

# gram_matrix refuses a family of more than GRAM_MAX_POINTS atoms, and
# biorthogonal_dual counts a Gram whose least eigenvalue is at most
# DUAL_EIG_TOL * max(largest, 1) as singular.
GRAM_MAX_POINTS = 6000
DUAL_EIG_TOL = 1e-10

# atom_coordinates: the largest exponent pi |z|^2 / 2 whose seed
# exp(-pi |z|^2 / 2) starts the ratio recurrence.
SEED_EXPONENT_MAX = 700.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of step dt on [-T, T]."""

    T: float
    dt: float

    def __post_init__(self):
        if self.T <= 0 or self.dt <= 0 or self.dt >= self.T:
            raise ValueError("need 0 < dt < T")
        if self.size < 8:
            raise ValueError("grid too coarse")

    @property
    def size(self):
        return int(math.floor(2.0 * self.T / self.dt + 1e-9)) + 1

    @property
    def times(self):
        return -self.T + self.dt * np.arange(self.size)

    @property
    def xi_max(self):
        """Anti-aliasing cap on modulations: dt < 1 / (4 xi)."""
        return 1.0 / (4.0 * self.dt)

    @property
    def quad_weights(self):
        w = np.full(self.size, self.dt)
        w[[0, -1]] *= 0.5
        return w


@dataclass
class Waveform:
    """Complex samples of a function on a GridSpec, with quadrature norm."""

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.shape != (self.grid.size,):
            raise ValueError("sample count does not match grid")
        self.samples = s

    def norm(self):
        return math.sqrt(float(np.sum(self.grid.quad_weights * np.abs(self.samples) ** 2)))


def inner(f, g):
    """Quadrature inner product <f, g>, linear in f, conjugate linear in g."""
    if f.grid != g.grid:
        raise ValueError("waveforms live on different grids")
    return complex(np.sum(f.grid.quad_weights * f.samples * np.conj(g.samples)))


def gaussian_window(grid):
    """Unit-norm Gaussian 2^(1/4) exp(-pi t^2)."""
    t = grid.times
    return Waveform(grid, (2.0 ** 0.25) * np.exp(-math.pi * t * t))


def hermite_basis(grid, count):
    """First `count` Hermite functions, orthonormal and Fourier-invariant.

    Stable two-term recurrence in y = sqrt(2 pi) t seeded with the unit
    Gaussian; h_n concentrates on the time-frequency annulus of radius
    about sqrt(n / pi).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    t = grid.times
    y = math.sqrt(2.0 * math.pi) * t
    h = np.zeros((count, grid.size))
    h[0] = (2.0 ** 0.25) * np.exp(-math.pi * t * t)
    for n in range(1, count):  # at n = 1 the h[n - 2] term has weight 0
        h[n] = math.sqrt(2.0 / n) * y * h[n - 1] - math.sqrt((n - 1) / n) * h[n - 2]
    return [Waveform(grid, row) for row in h]


def _time_shift_samples(grid, samples, x):
    """Samples of t -> f(t - x); integer grid shifts are exact, otherwise cubic."""
    steps = x / grid.dt
    k = round(steps)
    out = np.zeros(grid.size, dtype=complex)
    if abs(steps - k) < 1e-9:
        if k >= 0:
            out[k:] = samples[:grid.size - k] if k < grid.size else 0.0
        else:
            out[:k] = samples[-k:]
        return out
    from scipy.interpolate import CubicSpline
    t = grid.times
    spline = CubicSpline(t, samples)
    src = t - x
    mask = (src >= t[0] - 1e-12) & (src <= t[-1] + 1e-12)
    out[mask] = spline(np.clip(src[mask], t[0], t[-1]))
    return out


def tf_shift(f, x, xi):
    """pi(x, xi) f: time shift by x then modulation by xi.

    Preconditions keep the result trustworthy: |x| <= T/2 so the shifted
    support stays on the grid, |xi| <= 1/(4 dt) against aliasing.
    """
    grid = f.grid
    if abs(x) > grid.T / 2.0 + 1e-12:
        raise ShiftRangeError(f"time shift {x} exceeds T/2 = {grid.T / 2}")
    if abs(xi) > grid.xi_max + 1e-12:
        raise ShiftRangeError(f"modulation {xi} exceeds 1/(4 dt) = {grid.xi_max}")
    shifted = _time_shift_samples(grid, f.samples, x)
    phase = np.exp(2j * math.pi * xi * grid.times)
    return Waveform(grid, phase * shifted)


def cocycle(z, zp):
    """Scalar sigma with pi(z) pi(z') = sigma * pi(z + z')."""
    return complex(np.exp(-2j * math.pi * zp[1] * z[0]))


def orthogonality_check(f, g, tf_grid_step=0.25, tf_radius=4.5):
    """Riemann sum of |<f, pi(x, xi) g>|^2 over the centered TF grid.

    For well-concentrated f, g this approximates the orthogonality-relation
    integral, whose exact value is ||f||^2 ||g||^2 (formal degree 1).
    """
    grid = f.grid
    if g.grid != grid:
        raise ValueError("waveforms live on different grids")
    m = int(math.floor(tf_radius / tf_grid_step + 1e-12))
    offs = tf_grid_step * np.arange(-m, m + 1)
    kernel = np.exp(-2j * math.pi * np.outer(offs, grid.times))  # rows: xi values
    total = 0.0
    for x in offs:
        u = grid.quad_weights * f.samples * np.conj(_time_shift_samples(grid, g.samples, x))
        total += float(np.sum(np.abs(kernel @ u) ** 2))
    return total * tf_grid_step ** 2


@dataclass
class SpectralBounds:
    """Extremal eigenvalue estimates for a frame-type or Riesz-type operator."""

    A_est: float
    B_est: float
    subspace_dim: int
    converged: bool
    test_sizes: list = field(default=None)
    A_sweep: list = field(default=None)
    B_sweep: list = field(default=None)

    def to_dict(self):
        return asdict(self)


@dataclass
class GaborSystem:
    """The Gaussian coherent system pi(Lambda) g, g = h_0, over a 2d point set Lambda."""

    points: PointSet
    lattice: Lattice = None   # the lattice Lambda truncates, if known; hap_residual centres on it

    def __post_init__(self):
        if self.points.dim != 2:
            raise ValueError("Gabor systems need dim-2 point sets (time, frequency)")

    @cached_property
    def class_split(self):   # completeness_residual's, which solve_shapes reads
        return _split_problems(self.points.points)

    def synthesis_matrix(self, grid):
        """Weighted sample matrix on grid: column j = sqrt(quad weights) * pi(lambda_j) g."""
        g = gaussian_window(grid)
        V = [tf_shift(g, x, xi).samples for x, xi in self.points.points.tolist()]
        return np.sqrt(grid.quad_weights)[:, None] * np.array(V).reshape(-1, grid.size).T


def hermite_cutoff(points):
    """Coordinate count N = ceil(m + 12 sqrt(m) + 40) with m = pi max |z|^2.

    |<pi(z) g, h_n>|^2 is the Poisson(pi |z|^2) law in n, so the atoms'
    energy beyond N coordinates is a Poisson tail past 12 standard deviations.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    m = math.pi * float(np.max(np.sum(pts * pts, axis=1), initial=0.0))
    return math.ceil(m + 12.0 * math.sqrt(m) + 40.0)


def _bargmann_columns(z, N, seed_phase):
    """seed_phase_j exp(-pi |z_j|^2 / 2) (sqrt(pi) z_j)^n / sqrt(n!) for n < N.

    Row n is row n - 1 times sqrt(pi) z_j / sqrt(n): one complex cumprod
    down the rows. exp(-SEED_EXPONENT_MAX) is still a normal double; a
    column with a smaller seed (|z| > 21) would start from a subnormal, so
    it is evaluated in log space instead, with log n! from math.lgamma.
    """
    half = 0.5 * math.pi * (z.real * z.real + z.imag * z.imag)
    C = np.empty((N, len(z)), dtype=complex)
    C[0] = seed_phase * np.exp(-half)
    np.multiply((math.sqrt(math.pi) / np.sqrt(np.arange(1.0, N)))[:, None], z, out=C[1:])
    np.multiply.accumulate(C, axis=0, out=C)
    far = half > SEED_EXPONENT_MAX
    if np.any(far):
        n = np.arange(N, dtype=float)[:, None]
        log_factorial = np.array([math.lgamma(k + 1.0) for k in range(N)])[:, None]
        C[:, far] = seed_phase[far] * np.exp(n * np.log(math.sqrt(math.pi) * z[far])
                                             - 0.5 * log_factorial - half[far])
    return C


def atom_coordinates(points, N):
    """Hermite coordinates C[n, j] = <pi(lambda_j) g, h_n> for n < N.

    With z = x + i xi, C[n, j] = exp(pi i x xi) exp(-pi |z|^2 / 2)
    (sqrt(pi) z)^n / sqrt(n!), the Bargmann transform of pi(lambda) h_0
    (Groechenig 2001, section 3.4). The rows follow the ratio recurrence
    C[n] = C[n - 1] sqrt(pi) z / sqrt(n) from C[0]; an atom with
    pi |z|^2 / 2 > SEED_EXPONENT_MAX is evaluated in log space instead.
    """
    x, xi = np.asarray(points, dtype=float).reshape(-1, 2).T
    return _bargmann_columns(x + 1j * xi, N, np.exp(1j * math.pi * x * xi))


def gram_matrix(sys):
    """Hermitian Gram G[i][j] = <pi(lambda_j) g, pi(lambda_i) g> in closed form.

    G[i][j] = exp(-pi |lambda_j - lambda_i|^2 / 2 + pi i (xi_j - xi_i)(x_j + x_i)).
    """
    n = len(sys.points)
    if n == 0:
        raise ValueError("empty point set")
    if n > GRAM_MAX_POINTS:
        raise ValueError(f"Gram size cap exceeded ({n} > {GRAM_MAX_POINTS}); "
                         "restrict to an interior truncation first")
    x, xi = sys.points.points.T
    dx, dxi = x[None, :] - x[:, None], xi[None, :] - xi[:, None]
    return np.exp(-0.5 * math.pi * (dx * dx + dxi * dxi)
                  + 1j * math.pi * dxi * (x[None, :] + x[:, None]))


def frame_guard(test_basis_size):
    """sqrt(N / pi) + FRAME_GUARD: the truncation radius frame_bounds needs for N."""
    return math.sqrt(test_basis_size / math.pi) + FRAME_GUARD


def frame_bounds(sys, test_basis_size):
    """Finite-section frame bound estimates on the span of Hermite functions.

    M[i][j] = sum over lambda of <pi(lambda) g, h_i><h_j, pi(lambda) g>; the
    estimates are the extremal eigenvalues of M's leading sections (sizes
    FRAME_STEP, 2 FRAME_STEP, ... and N), A_est non-increasing and B_est
    non-decreasing in the size. Requires the point truncation to cover the
    basis concentration radius sqrt(N/pi) plus the guard margin.
    """
    N = int(test_basis_size)
    require_reach(frame_guard(N), sys.points.truncation_radius,
                  f"guard radius (sqrt(N / pi) + {FRAME_GUARD:g}, N = {N})")
    C = atom_coordinates(sys.points.points, N)
    M = C @ C.conj().T
    M = 0.5 * (M + M.conj().T)

    sizes = sorted(set(range(FRAME_STEP, N, FRAME_STEP)) | {N})
    eigs = [np.linalg.eigvalsh(M[:k, :k]) for k in sizes]
    a_sweep = [max(float(e[0]), 0.0) for e in eigs]
    b_sweep = [float(e[-1]) for e in eigs]
    converged = (len(sizes) >= 2 and abs(a_sweep[-1] - a_sweep[-2])
                 <= FRAME_REL_TOL * max(a_sweep[-1], FRAME_A_FLOOR))
    return SpectralBounds(a_sweep[-1], b_sweep[-1], N, bool(converged),
                          sizes, a_sweep, b_sweep)


def riesz_bounds(sys):
    """Riesz bound estimates: the extremal Gram eigenvalues of the family given."""
    eigs = np.linalg.eigvalsh(gram_matrix(sys))
    return SpectralBounds(max(float(eigs[0]), 0.0), float(eigs[-1]), len(sys.points), True)


@dataclass
class DualFamily:
    """Biorthogonal duals h_lambda = sum_mu Ginv[mu, lambda] pi(mu) g.

    <pi(lambda) g, h_mu> = delta and ||h_lambda||^2 = Ginv[lambda, lambda], so B_sup
    and uniform_min_delta's delta need no waveform; `duals(grid)` samples the duals.
    """

    system: GaborSystem = field(repr=False)
    inverse_gram: np.ndarray = field(repr=False)
    B_sup: float
    biorth_residual: float
    delta: float

    def duals(self, grid):
        W = self.system.synthesis_matrix(grid) @ self.inverse_gram
        return [Waveform(grid, w) for w in (W / np.sqrt(grid.quad_weights)[:, None]).T]


def biorthogonal_dual(sys):
    """Dual family via the inverse Gram; raises NotMinimalError if G is singular."""
    G = gram_matrix(sys)
    eigs, U = np.linalg.eigh(G)
    if eigs[0] <= DUAL_EIG_TOL * max(float(eigs[-1]), 1.0):
        raise NotMinimalError("not minimal at tolerance: Gram matrix numerically singular")
    Ginv = (U / eigs) @ U.conj().T
    residual = float(np.max(np.abs(G @ Ginv - np.eye(len(eigs)))))
    return DualFamily(sys, Ginv, float(np.max(np.real(np.diag(Ginv)))), residual,
                      _min_delta(eigs, U))


def uniform_min_delta(sys):
    """Min over the points of the distance from pi(lambda) g to the span of
    the other atoms, 1 / sqrt(Ginv[lambda, lambda]). A singular Gram gives 0.
    """
    if len(sys.points) == 0:
        raise ValueError("empty point set")
    return _min_delta(*np.linalg.eigh(gram_matrix(sys)))


def _min_delta(eigs, U):
    if eigs[0] <= 0.0:
        return 0.0
    return float(1.0 / math.sqrt(np.max(np.sum(np.abs(U) ** 2 / eigs, axis=1))))


def _residual_norms(A, B):
    """Norms of the least-squares residuals B - A X, column by column.

    Column-pivoted QR (LAPACK xGELSY) with the rank cutoff eps * max(A.shape)
    that np.linalg.lstsq(rcond=None) uses.
    """
    from scipy.linalg import lstsq
    X = lstsq(A, B, cond=np.finfo(float).eps * max(A.shape), lapack_driver="gelsy")[0]
    return np.linalg.norm(B - A @ X, axis=0)


def symmetry(points):
    """(order, theta): the exact rotation and reflection symmetry of a 2-d point set.

    order is 4 if the set equals its image under (x, xi) -> (-xi, x), else 2 if
    it equals its negation, else 1; theta is the first of 0, pi/4, pi/2, 3 pi/4
    with exp(2 i theta) conj(set) == set, or None. The lexsorted images are
    compared with no tolerance. Under the negation the reflections at theta and
    theta + pi/2 are one another's images, so order >= 2 needs only the first two.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    base, (x, xi) = lexsorted(pts), pts.T

    def fixes(*image):
        return np.array_equal(base, lexsorted(np.column_stack(image)))

    order = 4 if fixes(-xi, x) else 2 if fixes(-x, -xi) else 1
    axes = [(x, -xi), (xi, x), (-x, xi), (-xi, -x)][:4 if order == 1 else 2]
    theta = next((k * math.pi / 4 for k, image in enumerate(axes) if fixes(*image)), None)
    return order, theta


def _orbit_representatives(points, order, theta):
    """One point per orbit, and how many of them (listed first) lie inside the sector.

    x > 0, xi >= 0 meets every orbit of the 90-degree rotation once, x > 0 or
    x = 0 < xi every orbit of the negation; the origin is its own orbit. The
    dihedral sector is Im(exp(-i theta) z) >= 0 >= Im(exp(-i (theta + pi/order)) z);
    the forms im[j] are Im(exp(-i j pi/4) z) times 1 or sqrt 2, with exact signs.
    """
    x, xi = points.T
    if theta is not None:
        im = (xi, xi - x, -x, -x - xi, -xi, x - xi, x, x + xi)
        k = round(4 * theta / math.pi)
        lower, upper = im[k], -im[(k + 4 // order) % 8]
        inside = (lower > 0) & (upper > 0)
        on_ray = ~inside & (lower >= 0) & (upper >= 0)
        return np.concatenate([points[inside], points[on_ray]]), int(np.sum(inside))
    if order == 4:
        keep = (x > 0) & (xi >= 0)
    elif order == 2:
        keep = (x > 0) | ((x == 0) & (xi > 0))
    else:
        return points, 0
    return points[keep | ((x == 0) & (xi == 0))], 0


def _split_problems(points):
    """(order, theta, representatives, how many lie inside the sector, hermite_cutoff)."""
    order, theta = symmetry(points)
    return (order, theta, *_orbit_representatives(points, order, theta), hermite_cutoff(points))


def solve_shapes(sys, probe_count):
    """(order, theta, (rows, columns, probes) of each class solve) of completeness_residual."""
    order, theta, reps, inside, cutoff = sys.class_split
    N = max(cutoff, probe_count)
    return order, theta, [(len(range(r, N, order)), len(reps) + inside,
                           len(range(r, probe_count, order)))
                          for r in range(min(order, probe_count))]


def _class_coordinates(reps, inside, N, order, theta):
    """The coordinate matrix the class solves read.

    atom_coordinates(reps, N) without a reflection; with one, the real rows
    |u_n| cos((n - r) alpha) of every representative, then |u_n| sin((n - r)
    alpha) of the `inside` ones listed first, with r = n mod order.
    """
    if theta is None:
        return atom_coordinates(reps, N)
    w = (reps[:, 0] + 1j * reps[:, 1]) * cmath.exp(-1j * theta)   # |z| exp(i alpha)
    U = _bargmann_columns(w, N, np.ones(len(w)))   # |u_n| exp(i n alpha)
    alpha = np.angle(w)
    for r in range(1, order):
        U[r::order] *= np.exp(-1j * r * alpha)
    return np.hstack([U.real, U[:, :inside].imag])


def _probe_residual_norms(split, probes):
    """Residual norms against a split's atoms of e_0 .. e_{p-1} or pi(z) g, for probes p or z.

    Each class with a nonzero probe block is solved once, and a probe's norm is the
    hypot of its class norms; with a reflection it enters as its real and imaginary parts.
    """
    order, theta, reps, inside, cutoff = split
    k = int(probes) if np.ndim(probes) == 0 else len(probes)
    B = (np.eye(max(cutoff, k), k) if np.ndim(probes) == 0 else
         _class_coordinates(probes, k, max(cutoff, hermite_cutoff(probes)), 1, theta))
    V = _class_coordinates(reps, inside, len(B), order, theta)
    norms = np.zeros(k)
    for r in range(order):
        cols = np.flatnonzero(np.any(B[r::order] != 0, axis=0))
        if len(cols):
            np.hypot.at(norms, cols % k, _residual_norms(V[r::order], B[r::order, cols]))
    return norms


def hap_residual(sys, x, box_radius):
    """Least-squares distance from pi(x) g to span{pi(lambda) g : lambda in x + box}.

    x is a point, or an (m, 2) x-grid, whose m residuals come with the number of
    solves. The box must fit inside the point truncation, or missing points would
    inflate the residual. pi(c)^* maps pi(lambda) g to pi(lambda - c) g up to a
    phase, with c = x, or on sys.lattice B Z^2, whose integer set N_x must reproduce
    the rows, c = B j for j the midpoint of N_x's extremes: B (N_x - j), in column
    sums like the rows, is exactly symmetric when N_x - j is. x with equal centred
    sets share one solve, with the probes pi(x - c) g as its right-hand sides.
    """
    xs = np.asarray(x, dtype=float).reshape(-1, 2)
    require_reach(np.max(np.abs(xs)) + box_radius, sys.points.truncation_radius, "local box reach")
    pts, B = sys.points.points, getattr(sys.lattice, "basis", None)
    problems = {}   # centred atom set -> [atoms, x-grid indices, probe points]
    for i, at in enumerate(xs):
        near = pts[_within(pts - at, [box_radius + DEDUP_TOL] * 2)]
        key, atoms, c = i, near - at, at
        if B is not None and len(near):
            n = np.rint(np.linalg.solve(B, near.T).T) + 0.0
            if not np.array_equal(column_sums(n, B), near):
                raise ValueError("the lattice basis does not reproduce the point rows")
            j = (n.min(axis=0) + n.max(axis=0)) / 2
            key, atoms, c = lexsorted(n - j).tobytes(), column_sums(n - j, B), column_sums(j, B)
        group = problems.setdefault(key, [atoms, [], []])
        group[1].append(i)
        group[2].append(at - c)
    out = np.empty(len(xs))
    for atoms, at, probes in problems.values():
        out[at] = _probe_residual_norms(_split_problems(atoms), np.reshape(probes, (-1, 2)))
    return float(out[0]) if np.ndim(x) == 1 else (out, len(problems))


def completeness_residual(sys, probe_count):
    """Max least-squares residual of h_0 .. h_{probe_count-1} against the whole family.

    In Hermite coordinates the probes are the unit vectors e_0, e_1, ....
    A truncation-level proxy only: small residuals certify nothing about the
    infinite system, they are merely consistent with completeness.
    """
    if probe_count < 1:
        raise ValueError("need at least one probe")
    return float(np.max(_probe_residual_norms(sys.class_split, probe_count)))
