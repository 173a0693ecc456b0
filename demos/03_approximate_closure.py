"""Certify approximate closure: cover a truncated sumset by translates of the set.

A set is approximately closed with constant k when its sumset lies in k
translates of the set. Greedy covering followed by a search over pairs of
translates gives k on the truncation, proven minimal when k <= 3;
verify_cover re-checks any claimed cover independently.
"""

import numpy as np

import quasilat as ql


def report(tag, base, sumset):
    cover = ql.find_cover_set(sumset, base)
    ok = ql.verify_cover(sumset, base, cover.defect_set,
                         verified_region_radius=cover.verified_region_radius)
    flat = [round(float(v), 4) for v in cover.defect_set[:, 0]]
    print(f"  {tag}: k = {cover.k} (minimal: {cover.to_dict()['k_minimal']}), "
          f"defect translates {flat}, reverified {ok}")
    return cover


def main():
    print("sumset covers:")

    line = ql.lattice_points_in_box(ql.Lattice(np.array([[1.0]])), 20.0)
    report("lattice Z", line, ql.sumset_truncated(line, line, 10.0))

    toy = ql.from_points([-1.0, 0.0, 1.0])
    report("toy {-1,0,1}", toy, ql.sumset_truncated(toy, toy, 2.0))
    print("    (greedy alone takes {0, -1, 1}; the pair search finds {-1, 1})")

    fib = ql.model_set_generate(ql.fibonacci_scheme(1.0), 30.0)
    fib_sum = ql.sumset_truncated(fib, fib, 15.0)
    cover = report("Fibonacci", fib, fib_sum)
    print(f"    sumset has {len(fib_sum)} points in [-15, 15]; the base is "
          f"generated out to twice that radius so no witness can be lost "
          f"to truncation")

    bad = ql.verify_cover(fib_sum, fib, cover.defect_set[:1])
    print(f"    dropping one translate breaks the cover: verify -> {bad}")


if __name__ == "__main__":
    main()
