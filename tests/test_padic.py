import gc
import math
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quasilat as ql
from quasilat import PAdicRational


def test_parse_window_forms():
    assert ql.parse_window("1/2") == Fraction(1, 2)
    assert ql.parse_window("0.3") == Fraction(3, 10)
    assert ql.parse_window(2) == Fraction(2)
    assert ql.parse_window(0.5) == Fraction(1, 2)
    assert ql.parse_window(Fraction(7, 3)) == Fraction(7, 3)
    with pytest.raises(ValueError):
        ql.parse_window("-1")
    with pytest.raises(ValueError):
        ql.parse_window("abc")
    with pytest.raises(ValueError):
        ql.parse_window([1])


def test_canonical_form():
    assert PAdicRational.make(2, 4, 2) == PAdicRational(2, 1, 0)
    assert PAdicRational.make(2, 0, 5) == PAdicRational(2, 0, 0)
    assert PAdicRational.make(2, 3, -1) == PAdicRational(2, 6, 0)
    assert PAdicRational.make(3, 5, 2).value() == Fraction(5, 9)


def test_enumeration_small_case():
    elems = ql.enumerate_model_set(2, 1, 3)
    by_k = {}
    for q in elems:
        by_k.setdefault(q.k, []).append(q)
    assert len(by_k[0]) == 3      # -1, 0, 1
    assert len(by_k[1]) == 2      # +-1/2
    assert len(by_k[2]) == 4      # odd a with |a| <= 4
    assert len(by_k[3]) == 8
    assert all(q.a % q.p != 0 for q in elems if q.k > 0)
    assert all(abs(q.value()) <= 1 for q in elems)


def test_build_validation():
    with pytest.raises(ValueError, match="not prime"):
        ql.PAdicModelSet.build(4, 1, 3)
    with pytest.raises(ValueError):
        ql.PAdicModelSet.build(2, 1, -1)
    with pytest.raises(ValueError):
        ql.enumerate_model_set(9, 1, 2)


def test_elements_enumerated_on_first_access():
    ms = ql.PAdicModelSet.build(3, "1/2", 4)
    assert "elements" not in vars(ms)
    assert ms.elements == tuple(ql.enumerate_model_set(3, Fraction(1, 2), 4))
    assert ms.elements is ms.elements


def test_density_matches_golden_p2(golden):
    ms = ql.PAdicModelSet.build(2, 1, 12)
    rep = ql.padic_density(ms)
    ref = golden["padic_2_1"]
    assert rep.counts == ref["counts"]
    assert [str(r) for r in rep.ratios] == ref["ratios"]
    assert str(rep.density) == ref["density"]
    assert str(rep.deviation_constant()) == ref["deviation_constant"]
    # the ratio sequence is exactly 2 + 2^-n
    for n, r in enumerate(rep.ratios):
        assert r == 2 + Fraction(1, 2 ** n)
    assert rep.density == 2


def test_density_matches_golden_p3_half(golden):
    ms = ql.PAdicModelSet.build(3, "1/2", 8)
    rep = ql.padic_density(ms)
    ref = golden["padic_3_half"]
    assert rep.counts == ref["counts"]
    assert str(rep.density) == ref["density"]
    assert rep.deviation_constant() == 0
    assert all(r == 1 for r in rep.ratios)
    d = rep.to_dict()
    assert d["density_float"] == 1.0


def test_density_depth_zero():
    ms = ql.PAdicModelSet.build(2, 1, 0)
    rep = ql.padic_density(ms)
    assert rep.counts == [3]
    assert rep.density == 3


def test_cover_small_depth_matches_exhaustive(golden):
    ms = ql.PAdicModelSet.build(2, 1, golden["padic_2_1"]["cover_n_max"])
    cover = ql.padic_cover_set(ms)
    assert cover.verified
    assert cover.k == golden["padic_2_1"]["cover_k_exhaustive"]
    d = cover.to_dict()
    assert d["k"] == cover.k


def _exhaustive_min_cover(sums, w):
    """Fewest sumset elements f whose windows |s - f| <= w cover every s."""
    full = (1 << len(sums)) - 1
    masks = [sum(1 << i for i, s in enumerate(sums) if abs(s - f) <= w) for f in sums]
    for k in range(1, len(sums) + 1):
        for combo in combinations(masks, k):
            acc = 0
            for mask in combo:
                acc |= mask
            if acc == full:
                return k


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]),
       w=st.fractions(min_value=Fraction(1, 10), max_value=2, max_denominator=10),
       n=st.integers(0, 4))
def test_model_set_is_integer_range_and_cover_is_minimal(p, w, n):
    big_m = math.floor(w * p ** n)
    assume(big_m <= 24)
    ms = ql.PAdicModelSet.build(p, w, n)
    numerators = sorted(q.a * p ** (n - q.k) for q in ms.elements)
    assert numerators == list(range(-big_m, big_m + 1))

    tallies = [0] * (n + 1)
    for q in ms.elements:
        tallies[q.k] += 1
    assert ql.padic_density(ms).counts == [sum(tallies[:j + 1]) for j in range(n + 1)]

    values = [q.value() for q in ms.elements]
    sums = sorted({a + b for a in values for b in values})
    cover = ql.padic_cover_set(ms)
    centres = [f.value() for f in cover.defect_set]
    assert cover.verified
    assert cover.k == len(centres) == _exhaustive_min_cover(sums, w)
    assert all(any(abs(s - f) <= w for f in centres) for s in sums)


@pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan,
                               "inf", "-inf", "nan", "Infinity", "-NaN"])
def test_parse_window_rejects_non_finite(w):
    with pytest.raises(ValueError, match="cannot parse window half-width"):
        ql.parse_window(w)


@pytest.mark.parametrize("w", [1e308, "1e308", "1e400", 10 ** 400,
                               Fraction(sys.float_info.max),
                               (Fraction(sys.float_info.max) - 1) / 2])
def test_parse_window_rejects_float_overflow(w):
    # every ratio and the extrapolated density are at most 2w + 2
    with pytest.raises(ValueError, match="cannot parse window half-width"):
        ql.parse_window(w)


def test_parse_window_accepts_the_largest_float_safe_windows():
    for w in (8e307, "8e307", (Fraction(sys.float_info.max) - 2) / 2):
        assert 2 * ql.parse_window(w) + 2 <= sys.float_info.max
    rep = ql.padic_density(ql.PAdicModelSet.build(2, "8e307", 3)).to_dict()
    assert max(rep["ratios_float"] + [rep["density_float"]]) < math.inf


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]),
       w=st.fractions(min_value=Fraction(1, 10), max_value=2, max_denominator=10),
       n=st.integers(0, 5))
def test_enumeration_matches_reduced_fractions(p, w, n):
    # every m / p^n in [-w, w], reduced by Fraction and sorted by (k, a)
    big = p ** n
    values = (Fraction(m, big) for m in range(-2 * big, 2 * big + 1))   # w <= 2
    reduced = [f for f in values if abs(f) <= w]
    log_p = {p ** k: k for k in range(n + 1)}
    want = sorted(((p, f.numerator, log_p[f.denominator]) for f in reduced),
                  key=lambda t: (t[2], t[1]))
    got = ql.enumerate_model_set(p, w, n)
    assert type(got) is tuple
    assert list(got) == want
    assert all(type(q) is PAdicRational for q in got)


def test_elements_call_the_module_enumeration_once(monkeypatch):
    calls = []
    original = ql.padic.enumerate_model_set

    def counting(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(ql.padic, "enumerate_model_set", counting)
    ms = ql.PAdicModelSet.build(5, "3/10", 3)
    first = ms.elements
    assert len(calls) == 1
    assert ms.elements is first
    assert len(calls) == 1
    assert len(first) == ql.padic_density(ms).counts[-1]


@pytest.mark.parametrize("was_enabled", [True, False])
def test_enumeration_runs_no_cyclic_collection(was_enabled):
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])
    (gc.enable if was_enabled else gc.disable)()
    gc.collect()
    gc.callbacks.append(record)
    try:
        elements = ql.enumerate_model_set(2, 1, 14)
    finally:
        gc.callbacks.remove(record)
        enabled_after = gc.isenabled()
        gc.enable()
    assert len(elements) == 2 * 2 ** 14 + 1
    assert collections == []
    assert enabled_after == was_enabled
