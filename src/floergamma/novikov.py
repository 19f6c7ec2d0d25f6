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
`int` and leaves every other spelling to `Fraction`.

`lincomb` is the package's one accumulation kernel, sum c·v over sparse
dicts v with zero entries dropped: it collects the terms of parsed input
and of a general product, and sums every chain vector, x-part and
echelon row.

The module also writes an element as a dense polynomial over Q in
mu = l^(1/scale), once exponent denominators are cleared and exponents
shifted to be non-negative.  The rank of a matrix of such polynomials
over the field Q(mu) is the rank over the Novikov coefficients; the
linear algebra kernel takes it by fraction-free elimination, so no
rational-function arithmetic is needed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

#: Extended value used for mdeg of the zero element.  Comparisons and
#: subtraction against exact Fractions behave as expected (inf - q = inf).
INF = math.inf

ExtRat = Union[Fraction, float]

_ZERO = Fraction(0)


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def parse_rat(text: str) -> Fraction:
    """Parse the canonical text form of a rational: "p/q" or "p".

    ASCII "p", "-p", "p/q" and "-p/q" with q nonzero are read by `int`
    directly; anything else (spaces, a "+", decimals, exponents,
    underscores, non-ASCII digits) goes through `Fraction(text)`, which
    accepts or refuses it.
    """
    if not isinstance(text, str):
        raise ValueError(f"not a rational string: {text!r}")
    num, slash, den = text.partition("/")
    if text.isascii() and num.removeprefix("-").isdigit() and (not slash or den.isdigit()):
        q = int(den) if slash else 1
        if q:
            return Fraction(int(num), q)
    text = text.strip()
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc
    return value


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


def format_rat(value: Fraction) -> str:
    """Render a rational in the canonical "p/q" (or "p") form."""
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
        return "+".join(f"{c}*l^({e})" for c, e in self._terms)

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


# ---------------------------------------------------------------------------
# Dense polynomials over Q in mu = l^(1/scale).  Their dense coefficient
# loops stay as they are, outside `lincomb`: the benchmark traces this layer
# by name.
# ---------------------------------------------------------------------------

QPoly = tuple  # coefficient tuple, index = degree, no trailing zeros

POLY_ZERO: QPoly = ()
POLY_ONE: QPoly = (Fraction(1),)


def poly_from_coeffs(coeffs: Iterable) -> QPoly:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(p: QPoly, q: QPoly) -> QPoly:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return poly_from_coeffs(out)


def poly_neg(p: QPoly) -> QPoly:
    return tuple(-c for c in p)

def poly_sub(p: QPoly, q: QPoly) -> QPoly:
    return poly_add(p, poly_neg(q))


def poly_mul(p: QPoly, q: QPoly) -> QPoly:
    if not p or not q:
        return POLY_ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_from_coeffs(out)


def poly_divmod(p: QPoly, q: QPoly) -> tuple[QPoly, QPoly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    for i in range(len(rem) - len(q), -1, -1):
        c = rem[i + len(q) - 1] / lead
        if c == 0:
            continue
        quot[i] = c
        for j, b in enumerate(q):
            rem[i + j] -= c * b
    return poly_from_coeffs(quot), poly_from_coeffs(rem)


def poly_divexact(p: QPoly, q: QPoly) -> QPoly:
    quot, rem = poly_divmod(p, q)
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return quot


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
        return POLY_ZERO
    return tuple(coeffs.get(i, _ZERO) for i in range(max(coeffs) + 1))


def common_scale(elements: Iterable[NovikovElement]) -> int:
    """Least positive integer clearing every exponent denominator."""
    scale = 1
    for el in elements:
        for _, e in el.items():
            scale = scale * e.denominator // math.gcd(scale, e.denominator)
    return scale
