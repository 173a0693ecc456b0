"""Time-frequency analysis for Gaussian coherent systems pi(lambda) g over point sets.

pi(x, xi) f(t) = exp(2 pi i xi t) f(t - x), so pi(z) pi(z') = cocycle(z, z')
pi(z + z') with cocycle = exp(-2 pi i xi' x). The formal degree is 1 under
Lebesgue normalization: integral |<f, pi(z) g>|^2 dz = ||f||^2 ||g||^2.
The window is always g = h_0, so a GaborSystem is its point set alone and
the checks are grid-free: every atom has closed-form Hermite coordinates
(atom_coordinates) and the Gram matrix is analytic. Only the sampled
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
orbit, restricted to that class, and a probe h_k is solved in class k mod
order alone. rotation_order detects the symmetry by exact comparison only:
a set that is symmetric up to rounding takes the plain (order 1) solve.
On the critical lattice Z^2 the largest probe residual, ~0.114 at h_9,
sits in class 1 mod 4 with the next largest, h_1 and h_5.

A reflection S z = exp(2 i theta) conj(z) of the set (reflection_angle,
exact) makes every class solve real: g is real, so S acts anti-unitarily.
The coordinates u_n(z) = exp(-i n theta) exp(-pi |z|^2 / 2) (sqrt(pi) z)^n /
sqrt(n!) differ from C by row and column phases, which keep each probe's
residual norm, and u(S z) = conj(u(z)); so the span is closed under
conjugation and a real probe projects to a real vector. The sector theta <=
arg z <= theta + pi/order meets each dihedral orbit once. With alpha = arg z
- theta, a point inside it gives the real and imaginary parts of
exp(-i r alpha) u on class r, a point on its rays (alpha = 0 or pi/order,
where that vector is real) one column: per class the complex solve's column
count, at about a third of its cost.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (InsufficientTruncationError, NotMinimalError,
                     ShiftRangeError, TruncationTooSmallError)
from .pointset import DEDUP_TOL, PointSet, lexsorted

# Formal degree of the representation under Lebesgue normalization.
D_PI = 1.0

# frame_bounds: the point truncation must reach sqrt(N / pi) + FRAME_GUARD, and
# the sweep has converged when its last two lower bounds differ by at most
# FRAME_REL_TOL * max(last, FRAME_A_FLOOR).
FRAME_GUARD = 6.0
FRAME_REL_TOL = 0.1
FRAME_A_FLOOR = 1e-2

# biorthogonal_dual: a Gram whose least eigenvalue is at most
# DUAL_EIG_TOL * max(largest, 1) counts as singular.
DUAL_EIG_TOL = 1e-10


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

    def __post_init__(self):
        if self.points.dim != 2:
            raise ValueError("Gabor systems need dim-2 point sets (time, frequency)")

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


def _log_modulus_and_angle(points, N):
    """log |C[n, j]| (-inf where it vanishes) and arg z_j for atom_coordinates."""
    from scipy.special import gammaln
    x, xi = np.asarray(points, dtype=float).reshape(-1, 2).T
    r2 = x * x + xi * xi
    at_zero = r2 == 0.0
    n = np.arange(N, dtype=float)[:, None]
    log_mod = (0.5 * n * np.log(math.pi * np.where(at_zero, 1.0, r2))
               - 0.5 * gammaln(n + 1.0) - 0.5 * math.pi * r2)
    log_mod[1:, at_zero] = -np.inf  # pi(0) g = h_0
    return log_mod, np.arctan2(xi, x)


def atom_coordinates(points, N):
    """Hermite coordinates C[n, j] = <pi(lambda_j) g, h_n> for n < N.

    With z = x + i xi, C[n, j] = exp(pi i x xi) exp(-pi |z|^2 / 2)
    (sqrt(pi) z)^n / sqrt(n!), the Bargmann transform of pi(lambda) h_0
    (Groechenig 2001, section 3.4); the modulus is evaluated in log space.
    """
    x, xi = np.asarray(points, dtype=float).reshape(-1, 2).T
    log_mod, angle = _log_modulus_and_angle(points, N)
    n = np.arange(N, dtype=float)[:, None]
    return np.exp(log_mod + 1j * (n * angle + math.pi * x * xi))


def gram_matrix(sys, max_points=6000):
    """Hermitian Gram G[i][j] = <pi(lambda_j) g, pi(lambda_i) g> in closed form.

    G[i][j] = exp(-pi |lambda_j - lambda_i|^2 / 2 + pi i (xi_j - xi_i)(x_j + x_i)).
    """
    n = len(sys.points)
    if n == 0:
        raise ValueError("empty point set")
    if n > max_points:
        raise ValueError(f"Gram size cap exceeded ({n} > {max_points}); "
                         "restrict to an interior truncation first")
    x, xi = sys.points.points.T
    dx, dxi = x[None, :] - x[:, None], xi[None, :] - xi[:, None]
    return np.exp(-0.5 * math.pi * (dx * dx + dxi * dxi)
                  + 1j * math.pi * dxi * (x[None, :] + x[:, None]))


def frame_bounds(sys, test_basis_size, n_step=10):
    """Finite-section frame bound estimates on the span of Hermite functions.

    M[i][j] = sum over lambda of <pi(lambda) g, h_i><h_j, pi(lambda) g>; the
    estimates are the extremal eigenvalues of M for growing basis size, with
    A_est non-increasing and B_est non-decreasing in the size. Requires the
    point truncation to cover the basis concentration radius sqrt(N/pi) plus
    the guard margin.
    """
    N = int(test_basis_size)
    need = math.sqrt(N / math.pi) + FRAME_GUARD
    if sys.points.truncation_radius + 1e-9 < need:
        raise TruncationTooSmallError(
            f"truncation {sys.points.truncation_radius} below guard radius "
            f"{need:.3f} for a {N}-function test basis")
    C = atom_coordinates(sys.points.points, N)
    M = C @ C.conj().T
    M = 0.5 * (M + M.conj().T)

    sizes = sorted(set(range(n_step, N, n_step)) | {N})
    eigs = [np.linalg.eigvalsh(M[:k, :k]) for k in sizes]
    a_sweep = [max(float(e[0]), 0.0) for e in eigs]
    b_sweep = [float(e[-1]) for e in eigs]
    converged = (len(sizes) >= 2 and abs(a_sweep[-1] - a_sweep[-2])
                 <= FRAME_REL_TOL * max(a_sweep[-1], FRAME_A_FLOOR))
    return SpectralBounds(a_sweep[-1], b_sweep[-1], N, bool(converged),
                          sizes, a_sweep, b_sweep)


def riesz_bounds(sys, edge_margin=0.0):
    """Riesz bound estimates: extremal Gram eigenvalues on the interior sub-family."""
    radius = sys.points.truncation_radius - edge_margin
    interior = sys.points.restrict(radius)
    if len(interior) == 0:
        raise ValueError("no interior points at this edge margin")
    eigs = np.linalg.eigvalsh(gram_matrix(GaborSystem(interior)))
    return SpectralBounds(max(float(eigs[0]), 0.0), float(eigs[-1]),
                          len(interior), True)


@dataclass
class DualFamily:
    """Biorthogonal duals h_lambda = sum_mu Ginv[mu, lambda] pi(mu) g.

    <pi(lambda) g, h_mu> = delta and ||h_lambda||^2 = Ginv[lambda, lambda], so
    B_sup needs no waveform; `duals(grid)` samples the dual waveforms.
    """

    system: GaborSystem = field(repr=False)
    inverse_gram: np.ndarray = field(repr=False)
    B_sup: float
    biorth_residual: float

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
    return DualFamily(sys, Ginv, float(np.max(np.real(np.diag(Ginv)))), residual)


def uniform_min_delta(sys, interior_margin=0.0):
    """Min distance from pi(lambda) g to the span of the other atoms.

    That distance is 1 / sqrt(Ginv[lambda, lambda]). The minimum runs over
    points with sup-norm <= truncation - interior_margin; the spanning family
    always includes every point. A singular Gram gives 0.
    """
    eigs, U = np.linalg.eigh(gram_matrix(sys))
    pts = sys.points.points
    interior = (np.max(np.abs(pts), axis=1)
                <= sys.points.truncation_radius - interior_margin + DEDUP_TOL)
    if not interior.any():
        raise ValueError("no interior points at this margin")
    if eigs[0] <= 0.0:
        return 0.0
    return float(1.0 / math.sqrt(np.max(np.sum(np.abs(U[interior]) ** 2 / eigs, axis=1))))


def _residual_norms(A, B):
    """Norms of the least-squares residuals B - A X, column by column.

    Column-pivoted QR (LAPACK xGELSY) with the rank cutoff eps * max(A.shape)
    that np.linalg.lstsq(rcond=None) uses.
    """
    from scipy.linalg import lstsq
    X = lstsq(A, B, cond=np.finfo(float).eps * max(A.shape), lapack_driver="gelsy")[0]
    return np.linalg.norm(B - A @ X, axis=0)


def rotation_order(points):
    """Order of the exact rotation symmetry of a 2-d point set: 4, 2 or 1.

    4 if the set equals its image under (x, xi) -> (-xi, x), else 2 if it equals
    its negation, else 1; the lexsorted sets are compared with no tolerance.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    base = lexsorted(pts)
    if np.array_equal(base, lexsorted(np.column_stack([-pts[:, 1], pts[:, 0]]))):
        return 4
    if np.array_equal(base, lexsorted(-pts)):
        return 2
    return 1


def reflection_angle(points):
    """First theta of 0, pi/4, pi/2, 3 pi/4 with exp(2 i theta) conj(set) == set, or None."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    base, (x, xi) = lexsorted(pts), pts.T
    for k, image in enumerate([(x, -xi), (xi, x), (-x, xi), (-xi, -x)]):
        if np.array_equal(base, lexsorted(np.column_stack(image))):
            return k * math.pi / 4
    return None


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


def _split_problems(points, probe_count):
    """Symmetry, representatives, N and the (rows, columns, probes) of each class with a probe."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    order, theta = rotation_order(pts), reflection_angle(pts)
    reps, inside = _orbit_representatives(pts, order, theta)
    N = max(hermite_cutoff(pts), probe_count)
    shapes = [(len(range(r, N, order)), len(reps) + inside, len(range(r, probe_count, order)))
              for r in range(min(order, probe_count))]
    return order, theta, reps, inside, N, shapes


def solve_shapes(points, probe_count):
    """Rotation order, reflection angle and the (rows, columns, probes) of each class solve."""
    order, theta, _, _, _, shapes = _split_problems(points, probe_count)
    return order, theta, shapes


def _probe_residual_norms(points, probe_count):
    """Residual norms of the probes e_0 .. e_{probe_count-1} against the atoms.

    Class r holds the coordinate rows n = r mod order and the probes
    k = r mod order, with targets e_{k // order} among those rows; a
    reflection of the set makes every class solve real.
    """
    order, theta, reps, inside, N, shapes = _split_problems(points, probe_count)
    if theta is None:
        V = atom_coordinates(reps, N)
    else:   # rows |u_n| cos((n - r) alpha), then |u_n| sin((n - r) alpha) inside the sector
        log_mod, angle = _log_modulus_and_angle(reps, N)
        phase = (np.arange(N) // order * order)[:, None] * (angle - theta)
        modulus = np.exp(log_mod, out=log_mod)
        V = np.empty((N, len(reps) + inside))
        np.multiply(modulus[:, :inside], np.sin(phase[:, :inside]), out=V[:, len(reps):])
        np.multiply(modulus, np.cos(phase, out=phase), out=V[:, :len(reps)])
    norms = np.empty(probe_count)
    for r, (rows, _, probes) in enumerate(shapes):
        norms[r::order] = _residual_norms(V[r::order], np.eye(rows, probes))
    return norms


def hap_residual(sys, x, box_radius):
    """Least-squares distance from pi(x) g to span{pi(lambda) g : lambda in x + box}.

    The box x + [-box_radius, box_radius]^2 must fit inside the point
    truncation, otherwise the residual would be inflated by missing points.
    pi(x)^* pi(lambda) g is pi(lambda - x) g up to a phase, so the distance is
    that from g = h_0 to the atoms at lambda - x, computed in coordinates
    centred at x.
    """
    x = np.asarray(x, dtype=float).reshape(2)
    if np.max(np.abs(x)) + box_radius > sys.points.truncation_radius + DEDUP_TOL:
        raise InsufficientTruncationError("local box leaves the point truncation")
    local = sys.points.points - x
    local = local[np.all(np.abs(local) <= box_radius + DEDUP_TOL, axis=1)]
    return float(_probe_residual_norms(local, 1)[0])


def completeness_residual(sys, probe_count):
    """Max least-squares residual of h_0 .. h_{probe_count-1} against the whole family.

    In Hermite coordinates the probes are the unit vectors e_0, e_1, ....
    A truncation-level proxy only: small residuals certify nothing about the
    infinite system, they are merely consistent with completeness.
    """
    if probe_count < 1:
        raise ValueError("need at least one probe")
    return float(np.max(_probe_residual_norms(sys.points.points, probe_count)))
