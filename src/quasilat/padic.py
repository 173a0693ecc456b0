"""Model sets cut from Z[1/p] sitting diagonally in Q_p x R.

The depth-N model set is exactly (1/p^N) Z cap [-w, w]: a canonical a/p^k
with k <= N is m/p^N with m = a p^(N-k), and |a| <= w p^k exactly when
|m| <= w p^N. In numerators over p^N it is the integer range [-M, M] with
M = floor(w p^N), so densities and minimal covers have closed forms in M.
All arithmetic is on integers; Fractions appear only in reported ratios,
densities and values, and floats only when callers ask for them.
"""

import gc
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, cycle, repeat
from typing import NamedTuple


def _is_prime(p):
    if p < 2:
        return False
    q = 2
    while q * q <= p:
        if p % q == 0:
            return False
        q += 1
    return True


def _numerator_bound(p, w, n):
    """M = floor(w p^n): an integer m has |m / p^n| <= w exactly when |m| <= M."""
    return w.numerator * p ** n // w.denominator


def parse_window(w):
    """Exact Fraction from int, Fraction, float (exact binary value), or string.

    Strings may be decimal ("0.3") or rational ("3/10"); both parse exactly.
    Infinities and NaNs, as floats or strings, raise ValueError, and so does a
    w whose bound 2w + 2 on every reported ratio and density overflows a float.
    """
    if not isinstance(w, (Fraction, int, float, str)):
        raise ValueError(f"unsupported window type {type(w).__name__}")
    try:
        frac = Fraction(Decimal(w)) if isinstance(w, str) and "/" not in w else Fraction(w)
    except (InvalidOperation, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"cannot parse window half-width {w!r}") from exc
    if frac <= 0:
        raise ValueError("window half-width must be positive")
    if 2 * frac + 2 > sys.float_info.max:
        raise ValueError(f"cannot parse window half-width {w!r}: "
                         "ratios up to 2w + 2 would overflow a float")
    return frac


class PAdicRational(NamedTuple):
    """Canonical a / p^k with p prime and (p does not divide a, or a = 0 and k = 0).

    A NamedTuple: it unpacks, orders, hashes and compares like the tuple (p, a, k).
    """

    p: int
    a: int
    k: int

    @classmethod
    def make(cls, p, a, k=0):
        if k < 0:
            a *= p ** (-k)
            k = 0
        if a == 0:
            return cls(p, 0, 0)
        while k > 0 and a % p == 0:
            a //= p
            k -= 1
        return cls(p, a, k)

    def value(self):
        return Fraction(self.a, self.p ** self.k)


@dataclass(frozen=True)
class PAdicModelSet:
    """Z[1/p] elements of denominator exponent <= n_max with real part in [-w, w]."""

    p: int
    w: Fraction
    n_max: int

    @classmethod
    def build(cls, p, w, n_max):
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        return cls(p, parse_window(w), n_max)

    @cached_property
    def elements(self):
        """enumerate_model_set's tuple on first access; len is padic_density(self).counts[-1]."""
        return enumerate_model_set(self.p, self.w, self.n_max)


def enumerate_model_set(p, w, n_max):
    """All canonical a/p^k with k <= n_max and |a/p^k| <= w, ordered by (k, a).

    Stratum k holds the a in [-M_k, M_k] with M_k = floor(w p^k), minus the
    multiples of p when k > 0 (those are canonical at a smaller k). Each stratum
    is built by itertools with no Python code per element; the strata are
    chained into one tuple.
    """
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    w = parse_window(w)
    strata = []
    for k in range(n_max + 1):
        m = _numerator_bound(p, w, k)
        nums = range(-m, m + 1)
        if k > 0:   # drop the multiples of p: a % p != 0 repeats with period p
            nums = compress(nums, cycle([a % p != 0 for a in nums[:p]]))
        strata.append(map(tuple.__new__, repeat(PAdicRational), zip(repeat(p), nums, repeat(k))))
    enabled = gc.isenabled()
    gc.disable()    # the elements hold only ints, so collector passes find no cycle
    try:
        return tuple(chain.from_iterable(strata))
    finally:
        if enabled:
            gc.enable()


@dataclass
class PAdicDensityReport:
    """Counts and exact ratios count / p^n over the ball sequence p^(-n) Z_p."""

    p: int
    w: Fraction
    n_max: int
    counts: list
    ratios: list          # Fractions
    density: Fraction     # geometric extrapolation of the ratio sequence

    def deviation_constant(self):
        """Smallest c with |ratio_n - 2w| <= c p^(-n) over the computed range."""
        return max(abs(r - 2 * self.w) * self.p ** n
                   for n, r in enumerate(self.ratios))

    def to_dict(self):
        return {"p": self.p,
                "w": str(self.w),
                "n_max": self.n_max,
                "counts": list(self.counts),
                "ratios": [str(r) for r in self.ratios],
                "ratios_float": [float(r) for r in self.ratios],
                "density": str(self.density),
                "density_float": float(self.density)}


def padic_density(ms):
    """Ratios |Lambda cap p^(-n) Z_p| / p^n for n <= n_max, with an exact extrapolation.

    Membership in the ball p^(-n) Z_p is k <= n, so the count is the size of
    (1/p^n) Z cap [-w, w], which is 2 floor(w p^n) + 1. The ratio sequence
    equals 2w + O(p^(-n)), so the two-term geometric extrapolation
    r_N + (r_N - r_{N-1}) / (p - 1) removes the leading deviation exactly
    when it is exactly geometric.
    """
    counts = [2 * _numerator_bound(ms.p, ms.w, n) + 1 for n in range(ms.n_max + 1)]
    ratios = [Fraction(c, ms.p ** n) for n, c in enumerate(counts)]
    if ms.n_max >= 1:
        density = ratios[-1] + (ratios[-1] - ratios[-2]) / (ms.p - 1)
    else:
        density = ratios[-1]
    return PAdicDensityReport(ms.p, ms.w, ms.n_max, counts, ratios, density)


@dataclass
class PAdicCoverResult:
    """Minimal cover of Lambda + Lambda by the k translates f + Lambda, f in defect_set."""

    defect_set: tuple      # PAdicRationals, ascending
    k: int
    window: Fraction
    verified: bool

    def to_dict(self):
        return {"k": self.k,
                "defect_set": [f"{q.a}/{q.p}^{q.k}" for q in self.defect_set],
                "defect_values": [str(q.value()) for q in self.defect_set],
                "window": str(self.window),
                "verified": self.verified}


def padic_cover_set(ms):
    """Minimal cover of the sumset Lambda + Lambda by translates of Lambda.

    In numerators over p^N the sumset is the integer range [-2M, 2M], and a
    centre f covers s exactly when |s - f| <= M. The sweep takes the leftmost
    uncovered s and the centre min(s + M, 2M), a sumset element whose
    translate covers s and everything up to s + 2M; on a line this choice is
    optimal, so k is the minimum: 1 when M = 0 and 2 otherwise. Every
    truncation is covered, so the sweep never refuses.
    """
    m = _numerator_bound(ms.p, ms.w, ms.n_max)
    centres, s = [], -2 * m
    while s <= 2 * m:
        centres.append(min(s + m, 2 * m))
        s = centres[-1] + m + 1
    # the centres lie in the sumset and their windows [c - M, c + M] leave no
    # integer of [-2M, 2M] uncovered
    verified = (all(-2 * m <= c <= 2 * m for c in centres)
                and centres[0] - m <= -2 * m and centres[-1] + m >= 2 * m
                and all(b - a <= 2 * m + 1 for a, b in zip(centres, centres[1:])))
    defect = tuple(PAdicRational.make(ms.p, c, ms.n_max) for c in centres)
    return PAdicCoverResult(defect, len(centres), ms.w, verified)
