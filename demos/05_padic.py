"""Exact p-adic model sets: Z[1/p] elements with bounded denominator and real part.

Counts, ratios, densities and minimal covering numbers are exact integers
and Fractions, so equalities below are literal equalities.
"""

from fractions import Fraction

import quasilat as ql
from quasilat import PAdicRational


def padic_norm(q):
    """|a/p^k|_p = p^(k - v_p(a)) as an exact Fraction; |0|_p = 0."""
    if q.a == 0:
        return Fraction(0)
    a, v = q.a, 0
    while a % q.p == 0:
        a, v = a // q.p, v + 1
    return Fraction(q.p) ** (q.k - v)


def main():
    q = PAdicRational.make(2, 3, 4)
    print(f"canonical form 3/2^4: a={q.a}, k={q.k}, value {q.value()}, "
          f"|.|_2 = {padic_norm(q)}")
    print(f"|12|_2 = {padic_norm(PAdicRational.make(2, 12, 0))} "
          f"(2-adic valuation 2)")

    ms = ql.PAdicModelSet.build(2, 1, 10)
    rep = ql.padic_density(ms)
    print(f"\np=2, window [-1,1], depth 10: {len(ms.elements)} elements")
    print(f"  ball counts: {rep.counts}")
    print(f"  ratios count/2^n: {[str(r) for r in rep.ratios[:5]]} ... "
          f"exactly 2 + 2^-n")
    print(f"  deviation constant: {rep.deviation_constant()} (exact)")
    print(f"  extrapolated density: {rep.density} (exactly twice the window "
          f"half-width)")

    ms3 = ql.PAdicModelSet.build(3, Fraction(1, 2), 6)
    rep3 = ql.padic_density(ms3)
    print(f"\np=3, window [-1/2, 1/2], depth 6: every ratio is "
          f"{set(str(r) for r in rep3.ratios)} and the density is {rep3.density}")

    cover = ql.padic_cover_set(ql.PAdicModelSet.build(2, 1, 4))
    print(f"\nminimal sumset cover at depth 4: k = {cover.k}, translates "
          f"{[str(f.value()) for f in cover.defect_set]}, verified {cover.verified}")


if __name__ == "__main__":
    main()
