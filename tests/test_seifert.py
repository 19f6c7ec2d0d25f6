"""Orbit invariants, the cotangent cross-check, predictions and bounds."""

import math
from fractions import Fraction

import pytest

from floergamma import seifert
from floergamma.seifert import (
    SeifertInputError,
    coprime_tuples,
    cotangent_error_bound,
    gamma_prediction,
    r_invariant_cotangent,
    seifert_invariants,
    sweep,
    whitehead_double_bounds,
)
from datagen import furuta_independence


def test_invariants_235():
    inv = seifert_invariants((2, 3, 5))
    assert inv.beta_tuple == (1, 2, 4)
    assert inv.b == 2 and inv.r == 1
    assert inv.b_tuple == (-1, 1, 1)
    assert sum(Fraction(b, a) for b, a in zip(inv.b_tuple, inv.a)) == Fraction(1, 30)


def test_invariants_237_and_2311():
    inv = seifert_invariants((2, 3, 7))
    assert inv.beta_tuple == (1, 1, 1) and inv.b == 1 and inv.r == -1
    inv = seifert_invariants((2, 3, 11))
    assert inv.beta_tuple == (1, 2, 9) and inv.b == 2 and inv.r == 1


def test_input_validation():
    with pytest.raises(SeifertInputError):
        seifert_invariants((2, 4, 5))
    with pytest.raises(SeifertInputError):
        seifert_invariants((2, 3))
    with pytest.raises(SeifertInputError):
        seifert_invariants((1, 2, 3))
    for bound in (-5, 0, 29):  # no tuple to check: (2, 3, 5) is the smallest
        with pytest.raises(SeifertInputError):
            sweep(bound)


def test_order_insensitivity():
    assert seifert_invariants((5, 2, 3)).r == seifert_invariants((2, 3, 5)).r == 1


def test_cotangent_matches_closed_form():
    for t in ((2, 3, 5), (2, 3, 7), (2, 3, 5, 7), (3, 5, 7), (2, 5, 9)):
        assert r_invariant_cotangent(t) == seifert_invariants(t).r, t


def test_pqk_families():
    for p, q, k in ((2, 3, 1), (2, 3, 2), (2, 5, 1), (3, 4, 1)):
        assert seifert_invariants((p, q, p * q * k - 1)).r == 1
        assert seifert_invariants((p, q, p * q * k + 1)).r == -1


def test_large_r_family_values():
    # length-5 instance of the iterated construction: both formulas agree
    # and the value is an odd integer (the family note R = n stays unasserted)
    t = (2, 3, 5, 29, 869)
    closed = seifert_invariants(t).r
    assert closed == r_invariant_cotangent(t)
    assert closed % 2 == 1 and closed >= -1
    assert seifert_invariants((2, 3, 5)).r == 1  # length-3 instance, R = 1


def test_gamma_prediction_examples():
    pred = gamma_prediction([(2, 3, 5)])
    assert pred.value == Fraction(1, 120)
    assert pred.range_max == 1 and pred.h_lower == 0
    pred = gamma_prediction([(2, 3, 11), (2, 3, 5)])
    assert pred.value == Fraction(1, 264) and pred.range_max == 1
    assert pred.dominant == (2, 3, 11)
    with pytest.raises(SeifertInputError):
        gamma_prediction([(2, 3, 7)])
    with pytest.raises(SeifertInputError):
        gamma_prediction([])


def test_furuta_independence_examples():
    res = furuta_independence([(2, 3, 5), (2, 3, 11), (2, 3, 17)])
    assert res["independent"] and res["products"] == [30, 66, 102]
    assert res["fingerprints"][0] == Fraction(1, 120)
    res = furuta_independence([(2, 3, 5), (2, 3, 5)])
    assert not res["independent"]
    res = furuta_independence([(2, 3, 5), (2, 5, 9)])
    assert res["independent"]
    # R(2,5,7) = -1, so that tuple is rejected by the positivity hypothesis
    with pytest.raises(SeifertInputError):
        furuta_independence([(2, 3, 5), (2, 5, 7)])


def test_whitehead_bounds():
    res = whitehead_double_bounds(2, 3)
    assert res["lower"] == Fraction(1, 552)
    assert res["upper"] == Fraction(1, 264)
    assert res["candidates"] == (Fraction(1, 552), Fraction(1, 276),
                                 Fraction(1, 264))
    with pytest.raises(SeifertInputError):
        whitehead_double_bounds(2, 4)
    with pytest.raises(SeifertInputError):
        whitehead_double_bounds(1, 3)


def test_coprime_tuple_enumeration():
    ts = coprime_tuples(210)
    assert (2, 3, 5) in ts and (2, 3, 5, 7) in ts
    assert all(len(t) in (3, 4) for t in ts)
    for t in ts:
        assert math.prod(t) <= 210
        assert all(math.gcd(a, b) == 1 for i, a in enumerate(t)
                   for b in t[i + 1:])


def test_small_sweep_clean():
    res = sweep(400)
    assert res["checked"] > 50
    assert res["mismatches"] == []
    assert sweep(30)["checked"] == 1  # (2, 3, 5) alone


AUDIT_EXTRA = ((2, 3, 1000003), (7, 11, 13, 100003), (997, 1009, 1013))


def test_float_audit_oracle():
    # the float sum rounds to the closed form on every tuple, its error
    # bound E(a) stays below 1/4, and the observed error stays within E(a)
    tuples = coprime_tuples(2000)
    assert len(tuples) == 1194
    for t in (*tuples, *AUDIT_EXTRA):
        exact = seifert_invariants(t).r
        bound = cotangent_error_bound(t)
        assert bound < 0.25, t
        assert r_invariant_cotangent(t) == exact, t
        assert abs(seifert._cotangent_sum(t) - exact) <= bound, t


def test_float_audit_refuses_a_bound_of_one_quarter(monkeypatch):
    assert r_invariant_cotangent((2, 3, 5)) == 1
    monkeypatch.setattr(seifert, "cotangent_error_bound", lambda a: 0.25)
    with pytest.raises(ArithmeticError, match="error bound"):
        r_invariant_cotangent((2, 3, 5))


def test_float_audit_refuses_a_residual_above_its_error_bound(monkeypatch):
    # R is an integer and the float sum lies within E(a) of it: a sum off
    # by E(a)/2 still audits, one off by 2 E(a) is refused, naming the bound
    t = (2, 3, 5)
    exact, bound = seifert_invariants(t).r, cotangent_error_bound(t)
    monkeypatch.setattr(seifert, "_cotangent_sum", lambda a: exact + bound / 2)
    assert r_invariant_cotangent(t) == exact
    monkeypatch.setattr(seifert, "_cotangent_sum", lambda a: exact + 2 * bound)
    with pytest.raises(ArithmeticError, match="above its error bound") as info:
        r_invariant_cotangent(t)
    assert str(info.value).endswith(f"error bound {bound}")


def test_term_cap_boundary(monkeypatch):
    monkeypatch.setattr(seifert, "TERM_CAP", 27)
    assert r_invariant_cotangent((2, 3, 25)) == seifert_invariants((2, 3, 25)).r  # 27 terms

    def no_sum(a):
        raise AssertionError("the sum was computed")

    monkeypatch.setattr(seifert, "_cotangent_sum", no_sum)
    with pytest.raises(SeifertInputError, match="cap"):
        r_invariant_cotangent((3, 5, 23))  # 28 terms


def test_length_cap_refuses_before_the_pairwise_check(monkeypatch):
    def no_gcd(x, y):
        raise AssertionError("a pair was checked")

    monkeypatch.setattr(seifert.math, "gcd", no_gcd)
    # a repeated entry would fail the pairwise check; the length is refused first
    too_long = (2,) * (seifert.LENGTH_CAP + 1)
    message = f"orbit tuple (2, 2, 2, 2, ...) of {seifert.LENGTH_CAP + 1} integers " \
              f"is longer than the cap {seifert.LENGTH_CAP}"
    for calculator in (seifert_invariants, r_invariant_cotangent):
        with pytest.raises(SeifertInputError) as info:
            calculator(too_long)
        assert str(info.value) == message


def test_length_cap_loses_no_tuple_under_the_term_cap():
    # n pairwise coprime integers >= 2 have n distinct least prime factors,
    # so their sum is at least that of the first n primes
    primes = [p for p in range(2, 10_000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    assert sum(p - 1 for p in primes[:836]) > seifert.TERM_CAP
    assert seifert.LENGTH_CAP >= 835


def test_a_long_tuple_is_named_by_its_first_entries_and_length(monkeypatch):
    monkeypatch.setattr(seifert, "TERM_CAP", 20)
    a = (2, 3, 5, 7, 11, 13, 17, 19, 23)
    with pytest.raises(SeifertInputError) as info:
        r_invariant_cotangent(a)
    assert str(info.value) == ("cotangent sum for (2, 3, 5, 7, ...) of 9 integers has 91 terms,"
                               " above the cap 20")
    with pytest.raises(SeifertInputError) as info:
        r_invariant_cotangent(a[:8])
    assert str(info.value).startswith("cotangent sum for (2, 3, 5, 7, 11, 13, 17, 19) has")


def test_product_cap_boundary(monkeypatch):
    assert seifert.PRODUCT_CAP >= 2000
    assert sweep(seifert.PRODUCT_CAP)["mismatches"] == []

    def no_tuples(max_product):
        raise AssertionError("a tuple was checked")

    monkeypatch.setattr(seifert, "coprime_tuples", no_tuples)
    with pytest.raises(SeifertInputError, match="cap"):
        sweep(seifert.PRODUCT_CAP + 1)
