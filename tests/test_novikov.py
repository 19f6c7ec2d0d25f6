"""Novikov field arithmetic, the valuation, and the polynomials in mu."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from floergamma.floer_datum import InputError, json_field
from floergamma.novikov import (
    INF,
    MAX_SPELLING,
    NovikovElement,
    common_scale,
    format_extrat,
    format_rat,
    lincomb,
    mdeg_tuple,
    parse_rat,
    to_rational_function,
)

from datagen import evaluate_at_one


def nov(*terms) -> NovikovElement:
    return NovikovElement([(Fraction(c), Fraction(e)) for c, e in terms])


rationals = st.builds(
    Fraction,
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=12),
)
elements = st.lists(
    st.tuples(rationals, rationals), max_size=5
).map(NovikovElement)


def test_addition_examples():
    assert nov((1, "1/2")) + nov((-1, "1/2")) == NovikovElement.zero()
    assert nov((3, "1/2")) + nov((2, "-1/3")) == nov((2, "-1/3"), (3, "1/2"))
    assert nov((1, "1/120"), (1, "2/5")) + nov((1, "2/5")) == \
        nov((1, "1/120"), (2, "2/5"))


def test_multiplication_examples():
    assert nov((1, "1/2")) * nov((2, "1/3")) == nov((2, "5/6"))
    assert nov((8, "2/5")) * nov((1, "1/120")) == nov((8, "49/120"))
    assert Fraction(2, 5) + Fraction(1, 120) == Fraction(49, 120)
    assert nov((3, 1)) * NovikovElement.zero() == NovikovElement.zero()


def test_mdeg_examples():
    assert nov((3, "1/2"), (-2, "-1/3")).mdeg() == Fraction(-1, 3)
    assert NovikovElement.zero().mdeg() == INF
    assert nov((1, "49/120")).mdeg() == Fraction(49, 120)


def test_mdeg_tuple_examples():
    assert mdeg_tuple([nov((1, 1)), nov((1, 0))]) == 0
    assert mdeg_tuple([NovikovElement.zero(), NovikovElement.zero()]) == INF
    assert mdeg_tuple([]) == INF
    assert mdeg_tuple([nov((1, "1/120")), NovikovElement.zero(), nov((-1, -2))]) == -2


def test_evaluate_at_one_examples():
    assert evaluate_at_one(nov((1, "1/120"))) == 1
    assert evaluate_at_one(nov((3, "1/2"), (-2, "-1/3"))) == 1
    assert evaluate_at_one(NovikovElement.zero()) == 0


def test_rational_function_examples():
    poly = to_rational_function(nov((1, "1/2"), (1, "1/3")), 6)
    assert poly == (0, 0, Fraction(1), Fraction(1))  # mu^2 + mu^3
    assert to_rational_function(NovikovElement.zero(), 5) == ()
    poly = to_rational_function(nov((8, "2/5")), 120)
    assert poly[48] == 8 and sum(1 for c in poly if c) == 1


def test_rational_function_rejects_bad_scale():
    with pytest.raises(ValueError):
        to_rational_function(nov((1, "1/3")), 2)
    with pytest.raises(ValueError):
        to_rational_function(nov((1, "-1/2")), 2)


def test_text_forms():
    assert str(nov((8, "2/5"))) == "8*l^(2/5)"
    assert str(nov((3, "1/2"), (-2, "-1/3"))) == "-2*l^(-1/3)+3*l^(1/2)"
    assert str(NovikovElement.zero()) == "0"
    assert format_extrat(INF) == "inf"
    assert format_extrat(Fraction(-3, 7)) == "-3/7"
    assert parse_rat("49/120") == Fraction(49, 120)
    with pytest.raises(ValueError):
        parse_rat("1/0")


@given(st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True))
def test_parse_rat_reads_p_over_q_as_fraction_does(text):
    try:
        expected = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="not a rational"):
            parse_rat(text)
    else:
        value = parse_rat(text)
        assert value == expected and type(value) is Fraction


# Spellings outside ASCII "p", "-p", "p/q", "-p/q" with q nonzero: read by
# Fraction, or refused with the message a Fraction refusal has always given.
NOT_FAST = [" 3/4 ", "-0", "+1", "1.5", "1e3", "1_0", "3/-4", "--3", "1/0", "\u0663", "",
            "/", "-"]


def test_parse_rat_leaves_other_spellings_to_fraction():
    refused = set()
    for text in NOT_FAST:
        try:
            expected = Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            refused.add(text)
            with pytest.raises(InputError) as exc:
                json_field({"coeff": text}, "coeff", Fraction, "term")
            assert str(exc.value) == f"term: not a rational: {text.strip()!r}"
            assert "int()" not in str(exc.value.__cause__.__cause__)
        else:
            assert json_field({"coeff": text}, "coeff", Fraction, "term") == expected
    # Python 3.10's Fraction refuses underscores; later ones read them
    assert refused - {"1_0"} == {"3/-4", "--3", "1/0", "", "/", "-"}
    assert parse_rat(" 3/4 ") == Fraction(3, 4) and parse_rat("-0") == 0
    assert parse_rat("+1") == 1 and parse_rat("1e3") == 1000


def test_parse_rat_refuses_more_digits_than_the_limit():
    assert parse_rat("1e4299") == 10 ** 4299 and parse_rat("-1e-4299") == Fraction(-1, 10 ** 4299)
    assert parse_rat("12.5e4298") == 125 * 10 ** 4297  # 4300 digits
    # sized from the exponent before Fraction would expand it, a zero included
    for text in ("1e4300", "1e-4300", "12.5e4299", "1e5000", "1e-5000", "0e99999999",
                 "1e9999999", "1e99999999", "1E+99999999", "1e9_999_999"):
        with pytest.raises(ValueError, match="^not a rational"):
            parse_rat(text)


def test_parse_rat_refuses_too_many_digits_on_either_path():
    # the canonical path read "p" with int() unchecked, so Python's own
    # int-limit text reached the error line
    assert parse_rat("1" * 4300) == int("1" * 4300)
    for text in ("1" * 5000, "-" + "1" * 5000, "1/" + "3" * 4301, "1" * 4301 + "/7"):
        with pytest.raises(ValueError) as exc:
            parse_rat(text)
        assert str(exc.value) == f"not a rational: {text[:20]!r}... has {len(text)} characters"


def test_a_refusal_quotes_a_spelling_of_over_40_characters_by_its_head_and_length():
    # the whole spelling was quoted up to MAX_SPELLING: a 4,338-byte error line
    for text, quoted in (("x" * 40, repr("x" * 40)),
                         ("x" * 41, f"{'x' * 20!r}... has 41 characters"),
                         ("1" + "0" * 4300, f"{'1' + '0' * 19!r}... has 4301 characters"),
                         ("1/" + "3" * 21000, f"{'1/' + '3' * 18!r}... has 21002 characters")):
        with pytest.raises(InputError) as exc:
            json_field({"lift": text}, "lift", Fraction, "generator")
        assert str(exc.value) == f"generator: not a rational: {quoted}"


def test_parse_rat_refuses_a_spelling_longer_than_the_cap_unread():
    padded = " " * (MAX_SPELLING - 3) + "3/4"
    assert parse_rat(padded) == Fraction(3, 4)
    with pytest.raises(ValueError) as exc:
        parse_rat(" " + padded)
    assert str(exc.value) == f"not a rational: {' ' * 20!r}... has {MAX_SPELLING + 1} " \
                             f"characters, above {MAX_SPELLING}"


def test_format_rat_refuses_a_value_too_long_to_print():
    assert format_rat(Fraction(-(10 ** 4300 - 1), 10 ** 4300 - 1)) == "-1"
    assert format_rat(Fraction(1, 10 ** 4300 - 1)) == "1/" + "9" * 4300
    assert format_rat(10 ** 4300 - 1) == "9" * 4300
    for value in (Fraction(10 ** 4300), Fraction(-(10 ** 4300)), Fraction(1, 10 ** 4300),
                  10 ** 4300, -(10 ** 4300)):
        with pytest.raises(InputError, match="too long to print"):
            format_rat(value)
        with pytest.raises(InputError, match="too long to print"):
            str(NovikovElement.term(value, 0))


@given(elements, elements)
def test_mdeg_multiplicative(a, b):
    if a.is_zero() or b.is_zero():
        assert (a * b).mdeg() == INF
    else:
        assert (a * b).mdeg() == a.mdeg() + b.mdeg()


@given(elements, elements)
def test_mdeg_ultrametric(a, b):
    s = a + b
    assert s.mdeg() >= min(a.mdeg(), b.mdeg())
    if a.mdeg() != b.mdeg():
        assert s.mdeg() == min(a.mdeg(), b.mdeg())


@given(elements, elements)
def test_evaluate_at_one_is_ring_map(a, b):
    assert evaluate_at_one(a * b) == evaluate_at_one(a) * evaluate_at_one(b)
    assert evaluate_at_one(a + b) == evaluate_at_one(a) + evaluate_at_one(b)


def assert_canonical(a: NovikovElement) -> None:
    """The term-tuple invariant the arithmetic relies on."""
    terms = a.items()
    assert isinstance(terms, tuple)
    assert all(type(c) is Fraction and type(e) is Fraction for c, e in terms)
    assert all(c != 0 for c, _ in terms)
    assert all(e1 < e2 for (_, e1), (_, e2) in zip(terms, terms[1:]))


scalars = st.one_of(rationals, st.integers(min_value=-5, max_value=5), st.just(0))


@given(elements, elements, scalars)
def test_lean_operations_match_the_canonical_constructor(a, b, q):
    cases = [
        (a + b, list(a.items()) + list(b.items())),
        (a - b, list(a.items()) + [(-c, e) for c, e in b.items()]),
        (-a, [(-c, e) for c, e in a.items()]),
        (q * a, [(q * c, e) for c, e in a.items()]),
        (a * q, [(q * c, e) for c, e in a.items()]),
        (a.shift(q), [(c, e + q) for c, e in a.items()]),
    ]
    for result, terms in cases:
        assert_canonical(result)
        assert result == NovikovElement(terms)
    assert a + NovikovElement.zero() is a
    assert NovikovElement.zero() + a == a
    assert a - a == NovikovElement.zero() and (a - a).is_zero()


monomials = st.tuples(rationals.filter(bool), rationals).map(lambda t: NovikovElement([t]))
factors = st.one_of(elements, monomials, st.just(NovikovElement.zero()))


@given(factors, factors)
def test_product_matches_the_canonical_constructor(a, b):
    product = a * b
    assert_canonical(product)
    assert product == NovikovElement(
        [(c1 * c2, e1 + e2) for c1, e1 in a.items() for c2, e2 in b.items()])


def test_product_examples():
    one_plus_l, one_minus_l = nov((1, 0), (1, 1)), nov((1, 0), (-1, 1))
    for product in (one_plus_l * one_minus_l, one_minus_l * one_plus_l):
        assert_canonical(product)
        assert product.items() == ((1, 0), (-1, 2))
    monomial = nov((-2, "1/3"))
    for product in (monomial * one_plus_l, one_plus_l * monomial):
        assert_canonical(product)
        assert product.items() == ((-2, Fraction(1, 3)), (-2, Fraction(4, 3)))
    zero = NovikovElement.zero()
    assert (zero * one_plus_l).is_zero() and (monomial * zero).is_zero()


@given(factors)
def test_a_product_with_one_returns_the_other_operand(x):
    one = NovikovElement.one()
    assert one * x is x and x * one is x


@given(rationals | st.just(Fraction(0)), rationals)
def test_one_parsed_term_matches_the_collecting_constructor(c, e):
    # a second term at the same exponent with coefficient 0 takes the
    # collect-and-sort path, and leaves the value unchanged
    el = NovikovElement([(c, e)])
    assert_canonical(el)
    assert el.items() == NovikovElement([(c, e), (0, e)]).items()


def test_the_constructor_keeps_fractions_and_converts_other_input():
    terms = [(parse_rat("3/4"), parse_rat("1/2")), (parse_rat("-2"), parse_rat("-1/3"))]
    for given_terms in (terms[:1], terms):
        kept = NovikovElement(given_terms).items()
        assert all(x is y for got, want in zip(kept, sorted(given_terms, key=lambda t: t[1]))
                   for x, y in zip(got, want))
    for raw in ([(1, "1/2")], [(3, 2), ("1/3", 0)]):
        el = NovikovElement(raw)
        assert all(type(x) is Fraction for term in el.items() for x in term)
        assert el == nov(*raw)


def test_zero_is_shared_and_scalar_zero_returns_it():
    zero = NovikovElement.zero()
    assert NovikovElement.zero() is zero and zero.is_zero()
    assert 0 * nov((3, "1/2")) is zero
    assert nov((3, "1/2")) * Fraction(0) is zero
    assert -zero is zero
    one = NovikovElement.one()
    assert NovikovElement.one() is one and one == NovikovElement([(1, 0)])
    assert NovikovElement.term(0, "1/2") is zero
    for q, e in ((Fraction(-3, 4), Fraction(5, 6)), (2, 0), (Fraction(1, 7), -3)):
        assert NovikovElement.term(q, e) == NovikovElement([(q, e)])
        assert all(isinstance(x, Fraction) for t in NovikovElement.term(q, e).items() for x in t)


@given(elements)
def test_rational_function_round_trip(a):
    shift = a.mdeg()
    shifted = a if a.is_zero() or shift >= 0 else a.shift(-shift)
    scale = common_scale([shifted])
    poly = to_rational_function(shifted, scale)
    at = {int(e * scale): c for c, e in shifted.items()}
    assert len(poly) == (max(at) + 1 if at else 0)
    assert all(c == at.get(i, 0) for i, c in enumerate(poly))


# -- lincomb, the accumulation kernel ------------------------------------------

def reference_lincomb(terms) -> list:
    """sum c·v term by term, as (key, value) pairs.

    A key's value is its total over all terms; a key stands where its running
    sum last turned nonzero, so a key that cancels and comes back moves back.
    """
    total, since = {}, {}
    products = ((k, v if c is None else c * v) for c, vec in terms for k, v in vec.items())
    for n, (k, v) in enumerate(products):
        before = total.get(k)
        total[k] = v if before is None else before + v
        if total[k] and not before:
            since[k] = n
    return sorted(((k, v) for k, v in total.items() if v), key=lambda kv: since[kv[0]])


small_rationals = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
small_monomials = st.tuples(small_rationals, st.sampled_from([0, Fraction(1, 2)])).map(
    lambda t: NovikovElement([t]))
fraction_terms = st.tuples(st.none() | small_rationals,
                           st.dictionaries(st.integers(0, 4), small_rationals, max_size=4))
novikov_terms = st.tuples(
    st.none() | small_monomials | elements,
    st.dictionaries(st.sampled_from("abc"), small_monomials | factors, max_size=3))


@given(st.lists(fraction_terms, max_size=6) | st.lists(novikov_terms, max_size=6))
def test_lincomb_matches_a_term_by_term_sum(terms):
    out = lincomb(terms)
    assert list(out.items()) == reference_lincomb(terms)
    assert all(out.values())


def test_lincomb_moves_a_key_that_cancels_and_comes_back_to_the_end():
    a, b = Fraction(1), Fraction(2)
    out = lincomb([(None, {"x": a, "y": b}), (-1, {"x": a}), (Fraction(3), {"x": a})])
    assert list(out.items()) == [("y", b), ("x", Fraction(3))]
    out = lincomb([(None, {"x": a, "y": b}), (None, {"x": a})])
    assert list(out.items()) == [("x", Fraction(2)), ("y", b)]
    assert lincomb([(None, {"z": Fraction(0)}), (Fraction(0), {"w": a})]) == {}
    assert lincomb([]) == {}
