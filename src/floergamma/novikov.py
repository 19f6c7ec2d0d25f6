"""Exact arithmetic for the finite-support Novikov field.

Elements are finite formal sums sum_i a_i * l^(r_i) with rational
coefficients a_i and rational exponents r_i, where l is the Novikov
variable.  This is the coefficient field underlying all chain-level
computations in this package.  The valuation mdeg (minimal exponent)
drives every invariant computed downstream, so exponents are exact
rationals throughout; floating point never enters.  Only parsed input
goes through the canonicalising constructor, and a one-term input skips
its collect-and-sort: sums, products, negation, scaling and shifts build
their sorted term tuples directly, and a product with the shared unit
`one()` returns the other operand.
Text is read by `parse_rat`, which handles the canonical "p/q" with
`int`, leaves every other spelling to `Fraction` and refuses a value of
more than MAX_DIGITS digits, or a spelling too long to name one.
`format_rat` writes a rational or an int back and refuses, with
`InputError`, one of more than MAX_DIGITS digits, which Python would not
print.

`lincomb` is the package's one accumulation kernel, sum c·v over sparse
dicts v with zero entries dropped: it collects the terms of parsed input
and of a general product, and sums every chain vector, x-part and
echelon row.

The module also writes an element as the coefficient tuple of a
polynomial over Q in mu = l^(1/scale), once exponent denominators are
cleared and exponents shifted to be non-negative.  The rank of a matrix
of such polynomials over the field Q(mu) is the rank over the Novikov
coefficients; `_linalg.poly_matrix_rank` takes it over Q at enough
rational values of mu, so no polynomial or rational-function arithmetic
is needed.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Union

#: Extended value used for mdeg of the zero element.  Comparisons and
#: subtraction against exact Fractions behave as expected (inf - q = inf).
INF = math.inf

ExtRat = Union[Fraction, float]

_ZERO = Fraction(0)

#: Most digits `parse_rat` reads and `format_rat` writes in a numerator or
#: denominator: Python's default limit for converting between int and str.
MAX_DIGITS = 4300
TOO_BIG = 10 ** MAX_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")

#: Longest spelling `parse_rat` reads.  A value within MAX_DIGITS has a
#: decimal spelling of at most MAX_DIGITS digits before the point and
#: log2(10) * MAX_DIGITS < 3.33 * MAX_DIGITS after it (a denominator 2^a 5^b
#: below 10^MAX_DIGITS has a, b below that), so only padding is refused.
MAX_SPELLING = 5 * MAX_DIGITS


class InputError(ValueError):
    """Malformed user input (bad JSON, schema violation, bad flags), or a
    value too long to print."""


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def parse_rat(text: str) -> Fraction:
    """Parse the canonical text form of a rational: "p/q" or "p".

    ASCII "p", "-p", "p/q" and "-p/q" with q nonzero are read by `int`
    directly, "p" and "-p" with no gcd, and are sized by their digit
    strings, so a value of at most MAX_DIGITS digits a side is never
    compared with the bound; anything else (spaces, a "+", decimals, exponents,
    underscores, non-ASCII digits) goes through `Fraction(text)`, which
    accepts or refuses it.  On either path, a value whose numerator or
    denominator has more than MAX_DIGITS digits is refused.  An exponent spelling is sized before
    `Fraction` expands 10^exponent: one whose exponent exceeds MAX_DIGITS
    plus the digits before it is refused unread, a zero included.  So is a
    spelling longer than MAX_SPELLING characters.  A refusal quotes a
    spelling of over 40 characters by its first 20 and its length.
    """
    if not isinstance(text, str):
        raise ValueError(f"not a rational string: {text!r}")
    if len(text) > MAX_SPELLING:
        raise ValueError(f"not a rational: {_quote(text)}, above {MAX_SPELLING}")
    num, slash, den = text.partition("/")
    digits = num.removeprefix("-")
    canonical = text.isascii() and digits.isdigit() and (not slash or den.isdigit())
    text = text.strip()
    try:
        if canonical and not slash:
            value = Fraction(int(num))
        elif canonical and (q := int(den)):
            value = Fraction(int(num), q)
        else:
            exp = _EXPONENT.search(text)
            if exp and abs(int(exp[1])) > MAX_DIGITS + sum(c.isdigit() for c in text[:exp.start()]):
                raise ValueError("exponent too large")
            value = Fraction(text)
        if (not canonical or len(digits) > MAX_DIGITS or len(den) > MAX_DIGITS) and (
                abs(value.numerator) >= TOO_BIG or value.denominator >= TOO_BIG):
            raise ValueError("too many digits")
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {_quote(text)}") from exc
    return value


def _quote(text: str) -> str:
    """A spelling in full up to 40 characters, else its first 20 and its length."""
    return repr(text) if len(text) <= 40 else f"{text[:20]!r}... has {len(text)} characters"


def lincomb(terms: Iterable[tuple]) -> dict:
    """sum c·v over (c, v) pairs of a coefficient and a sparse dict; c None is 1.

    Zero entries are dropped, zeros already in an input included.  When an
    entry cancels its key is removed, so a later term that brings the key
    back puts it at the end; otherwise keys keep the order they first
    appear in.  Verifiers print residuals in this order.
    """
    out: dict = {}
    for c, vec in terms:
        for k, v in vec.items():
            if c is not None:
                v = c * v
            if k in out:
                v = out[k] + v
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def format_rat(value: Fraction | int) -> str:
    """Render a rational or an int in the canonical "p/q" (or "p") form.

    One with more than MAX_DIGITS digits in its numerator or denominator
    is refused with `InputError`, since `str` would raise.
    """
    if isinstance(value, (Fraction, int)) and (abs(value.numerator) >= TOO_BIG
                                               or value.denominator >= TOO_BIG):
        raise InputError(f"a rational of more than {MAX_DIGITS} digits is too long to print")
    return str(value)


def format_extrat(value: ExtRat) -> str:
    """Render a rational or the infinite mdeg value."""
    if value == INF:
        return "inf"
    return format_rat(value)


class NovikovElement:
    """A finite sum of terms coeff * l^(exp), exponents strictly increasing.

    Instances are immutable; all operations return new elements (or an
    operand unchanged).  Zero has no terms; `zero()` and `one()` each
    return one shared instance.

    Term-tuple invariant: `_terms` is a tuple of (coeff, exp) pairs, both
    `Fraction`s, with strictly increasing exponents and no zero
    coefficient.  `__init__` is the one canonicalising constructor: it
    converts non-Fractions, collects and sorts input; a single term needs no
    collecting or sorting, so it keeps the term, or none if its
    coefficient is zero.  Every operation keeps the invariant and builds
    its tuple directly (`_of`) instead of canonicalising again: negation,
    scalar multiplication, shift and a monomial times an element map term
    by term (over a field a product of nonzero coefficients is nonzero),
    addition merges two sorted tuples, a general product collects its
    terms by exponent (`lincomb`) and sorts them once, and `term` builds
    its one-term tuple directly.  A product with `one()` on either side
    returns the other operand itself.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Fraction, Fraction]] = ()):
        terms = tuple(terms)
        if len(terms) == 1:
            (c, e), = terms
            e, c = _rat(e), _rat(c)
            self._terms = ((c, e),) if c else ()
            return
        acc = lincomb((None, {_rat(e): _rat(c)}) for c, e in terms)
        self._terms = tuple((acc[e], e) for e in sorted(acc))

    @classmethod
    def _of(cls, terms: tuple) -> "NovikovElement":
        """An element over a term tuple that already keeps the invariant."""
        el = object.__new__(cls)
        el._terms = terms
        return el

    @classmethod
    def zero(cls) -> "NovikovElement":
        return _ZERO_ELEMENT

    @classmethod
    def term(cls, coeff, exp=0) -> "NovikovElement":
        coeff = Fraction(coeff)
        if not coeff:
            return _ZERO_ELEMENT
        return cls._of(((coeff, Fraction(exp)),))

    @classmethod
    def one(cls) -> "NovikovElement":
        return _ONE_ELEMENT

    def items(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Terms as (coeff, exp) pairs in increasing exponent order."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NovikovElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __add__(self, other: "NovikovElement") -> "NovikovElement":
        if not isinstance(other, NovikovElement):
            return NotImplemented
        a, b = self._terms, other._terms
        if not b:
            return self
        if not a:
            return other
        # A merge of two sorted tuples, not `lincomb`: it needs no dict and no sort.
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            ea, eb = a[i][1], b[j][1]
            if ea == eb:
                c = a[i][0] + b[j][0]
                if c:
                    out.append((c, ea))
                i += 1
                j += 1
            elif ea < eb:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return NovikovElement._of(tuple(out))

    def __neg__(self) -> "NovikovElement":
        if not self._terms:
            return self
        return NovikovElement._of(tuple((-c, e) for c, e in self._terms))

    def __sub__(self, other: "NovikovElement") -> "NovikovElement":
        if not isinstance(other, NovikovElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "NovikovElement":
        if isinstance(other, NovikovElement):
            if self is _ONE_ELEMENT:
                return other
            if other is _ONE_ELEMENT:
                return self
            a, b = self._terms, other._terms
            if len(a) > len(b):
                a, b = b, a
            if not a:
                return _ZERO_ELEMENT
            if len(a) == 1:
                (c1, e1), = a
                return NovikovElement._of(tuple((c1 * c2, e1 + e2) for c2, e2 in b))
            acc = lincomb((c1, {e1 + e2: c2 for c2, e2 in b}) for c1, e1 in a)
            return NovikovElement._of(tuple((acc[e], e) for e in sorted(acc)))
        if isinstance(other, (int, Fraction)):
            if not other:
                return _ZERO_ELEMENT
            return NovikovElement._of(tuple((c * other, e) for c, e in self._terms))
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, exp) -> "NovikovElement":
        """Multiply by l^exp."""
        exp = Fraction(exp)
        return NovikovElement._of(tuple((c, e + exp) for c, e in self._terms))

    def mdeg(self) -> ExtRat:
        """Minimal exponent; +inf for the zero element."""
        if not self._terms:
            return INF
        return self._terms[0][1]

    def coefficient(self, exp) -> Fraction:
        exp = Fraction(exp)
        for c, e in self._terms:
            if e == exp:
                return c
        return Fraction(0)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return "+".join(f"{format_rat(c)}*l^({format_rat(e)})" for c, e in self._terms)

    def __repr__(self) -> str:
        return f"NovikovElement({self})"


_ZERO_ELEMENT = NovikovElement()
_ONE_ELEMENT = NovikovElement.term(1)


def mdeg_tuple(elements: Iterable[NovikovElement]) -> ExtRat:
    """Minimum of the component mdegs; +inf for empty or all-zero input."""
    best: ExtRat = INF
    for el in elements:
        m = el.mdeg()
        if m < best:
            best = m
    return best


QPoly = tuple  # coefficient tuple, index = degree, no trailing zeros


def to_rational_function(a: NovikovElement, scale: int) -> QPoly:
    """The coefficients of a Novikov element as a polynomial in mu = l^(1/scale).

    Every exponent must be a non-negative multiple of 1/scale; callers
    shift exponents by a recorded global offset beforehand when needed.
    The polynomial stands for an element of Q(mu), in which the ranks of
    matrices over the Novikov coefficients are taken.  Gaps are filled
    with one shared zero.
    """
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    coeffs: dict[int, Fraction] = {}
    for c, e in a.items():
        k = e * scale
        if k.denominator != 1:
            raise ValueError(f"scale {scale} does not clear exponent {e}")
        if k < 0:
            raise ValueError(f"exponent {e} is negative; shift before embedding")
        coeffs[int(k)] = c
    if not coeffs:
        return ()
    return tuple(coeffs.get(i, _ZERO) for i in range(max(coeffs) + 1))


def common_scale(elements: Iterable[NovikovElement]) -> int:
    """Least positive integer clearing every exponent denominator."""
    scale = 1
    for el in elements:
        for _, e in el.items():
            scale = scale * e.denominator // math.gcd(scale, e.denominator)
    return scale
