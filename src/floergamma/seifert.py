"""Closed-form calculators for Seifert fibered homology spheres.

Orbit data (a_1, ..., a_n) of pairwise coprime integers >= 2 determines
the R-invariant two independent ways: a cotangent double sum evaluated
in high-precision arithmetic and rounded, and the exact closed form
R = 2b - 3 with b = 1/a + sum beta_i / a_i, where beta_i is the unique
residue in (0, a_i) making 1 + beta_i * (a / a_i) divisible by a_i.
Cross-checking the two is the module's central audit.  Positive R feeds
the Gamma prediction 1/(4a) on an initial range, linear-independence
fingerprints and the double-branched-cover bounds for Whitehead doubles
of torus knots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import mpmath

from .floer_datum import InputError


class SeifertInputError(InputError):
    pass


def _validate_tuple(a: tuple[int, ...]) -> tuple[int, ...]:
    a = tuple(int(x) for x in a)
    if len(a) < 3:
        raise SeifertInputError("need at least three orbit integers")
    if any(x < 2 for x in a):
        raise SeifertInputError("orbit integers must be >= 2")
    for x, y in combinations(a, 2):
        if math.gcd(x, y) != 1:
            raise SeifertInputError(f"orbit integers {x} and {y} are not coprime")
    return a


@dataclass(frozen=True)
class SeifertInvariants:
    a: tuple[int, ...]
    product: int
    beta_tuple: tuple[int, ...]
    b_tuple: tuple[int, ...]
    b: int
    r: int


def seifert_invariants(a) -> SeifertInvariants:
    """Exact orbit invariants: beta residues, the b identity and R = 2b - 3."""
    a = _validate_tuple(a)
    prod = math.prod(a)
    betas = []
    for ai in a:
        inv = pow((prod // ai) % ai, -1, ai)
        betas.append((-inv) % ai)
    b = Fraction(1, prod) + sum(Fraction(beta, ai) for beta, ai in zip(betas, a))
    if b.denominator != 1:
        raise AssertionError(f"b identity failed to clear denominators for {a}")
    b = int(b)
    r = 2 * b - 3
    if r % 2 == 0 or r < -1:
        raise AssertionError(f"R = {r} is not an odd integer >= -1 for {a}")
    # Canonical integer solution of sum b_i / a_i = 1 / a: least-absolute
    # residues of -beta_i for i >= 2, residual absorbed into the first slot.
    tail = []
    for ai, beta in zip(a[1:], betas[1:]):
        c = (-beta) % ai
        if 2 * c > ai:
            c -= ai
        tail.append(c)
    b1 = (Fraction(1, prod) - sum(Fraction(c, ai) for c, ai in zip(tail, a[1:]))) * a[0]
    if b1.denominator != 1:
        raise AssertionError(f"b_tuple residual is not integral for {a}")
    b_tuple = (int(b1), *tail)
    check = sum(Fraction(bi, ai) for bi, ai in zip(b_tuple, a))
    if check != Fraction(1, prod):
        raise AssertionError(f"b_tuple identity failed for {a}")
    return SeifertInvariants(a, prod, tuple(betas), b_tuple, b, r)


def r_invariant(a) -> int:
    """R by the exact closed form 2b - 3."""
    return seifert_invariants(a).r


def r_invariant_cotangent(a, precision_bits: int = 96,
                          tolerance: float = 1e-6) -> int:
    """R by the cotangent double sum, evaluated at >= 80-bit precision.

    The value is rounded to the nearest integer; a pre-rounding residual
    above the tolerance, or an even parity, raises.
    """
    a = _validate_tuple(a)
    prod = math.prod(a)
    with mpmath.workprec(precision_bits):
        total = mpmath.mpf(2) / prod - 3 + len(a)
        pi = mpmath.pi
        for ai in a:
            inner = mpmath.mpf(0)
            for k in range(1, ai):
                angle = pi * k / ai
                inner += (mpmath.cot(pi * k * prod / (ai * ai))
                          * mpmath.cot(angle) * mpmath.sin(angle) ** 2)
            total += 2 * inner / ai
        nearest = int(mpmath.nint(total))
        residual = abs(total - nearest)
        if residual > tolerance:
            raise ArithmeticError(
                f"cotangent sum for {a} has residual {residual} above {tolerance}")
    if nearest % 2 == 0 or nearest < -1:
        raise ArithmeticError(f"cotangent sum for {a} rounds to invalid R = {nearest}")
    return nearest


@dataclass(frozen=True)
class GammaPrediction:
    value: Fraction
    range_max: int
    h_lower: int
    dominant: tuple[int, ...]


def gamma_prediction(spaces) -> GammaPrediction:
    """Gamma value and range for a connected sum of positive-R orbit data.

    Picks the factor with maximal orbit product; Gamma(i) = 1/(4a) for
    1 <= i <= floor((R+3)/4) of that factor, and h is at least half that
    range (floored).
    """
    invs = [seifert_invariants(s) for s in spaces]
    if not invs:
        raise SeifertInputError("need at least one orbit tuple")
    for inv in invs:
        if inv.r <= 0:
            raise SeifertInputError(
                f"R({','.join(map(str, inv.a))}) = {inv.r} is not positive")
    top = max(invs, key=lambda inv: inv.product)
    range_max = (top.r + 3) // 4
    return GammaPrediction(Fraction(1, 4 * top.product), range_max,
                           range_max // 2, top.a)


def furuta_independence(spaces) -> dict:
    """Distinct orbit products certify linear independence; report fingerprints."""
    invs = [seifert_invariants(s) for s in spaces]
    for inv in invs:
        if inv.r <= 0:
            raise SeifertInputError(
                f"R({','.join(map(str, inv.a))}) = {inv.r} is not positive")
    products = [inv.product for inv in invs]
    return {
        "independent": len(set(products)) == len(products),
        "fingerprints": [Fraction(1, 4 * p) for p in products],
        "products": products,
    }


def whitehead_double_bounds(p: int, q: int) -> dict:
    """Gamma(1) bounds for the reversed branched double cover of the
    Whitehead double of the (p, q) torus knot."""
    if p <= 1 or q <= 1:
        raise SeifertInputError("p and q must both exceed 1")
    if math.gcd(p, q) != 1:
        raise SeifertInputError(f"{p} and {q} are not coprime")
    pq = p * q
    return {
        "lower": Fraction(1, 4 * pq * (4 * pq - 1)),
        "upper": Fraction(1, 4 * pq * (2 * pq - 1)),
        "candidates": (
            Fraction(1, 4 * pq * (4 * pq - 1)),
            Fraction(1, 2 * pq * (4 * pq - 1)),
            Fraction(1, 4 * pq * (2 * pq - 1)),
        ),
    }


def coprime_tuples(max_product: int, lengths=(3, 4)):
    """Sorted pairwise-coprime tuples with entries >= 2 and bounded product."""
    out = []

    def extend(prefix: tuple[int, ...], prod: int, start: int):
        if len(prefix) in lengths:
            out.append(prefix)
        if len(prefix) >= max(lengths):
            return
        x = start
        while prod * x <= max_product:
            if all(math.gcd(x, y) == 1 for y in prefix):
                extend(prefix + (x,), prod * x, x + 1)
            x += 1

    extend((), 1, 2)
    return [t for t in out if len(t) in lengths]


def sweep(max_product: int = 2000, lengths=(3, 4)) -> dict:
    """Cross-formula audit over all bounded pairwise-coprime tuples.

    Checks, for every tuple, that the cotangent sum rounds to the exact
    closed-form value with a small residual, that the value is an odd
    integer >= -1, and that the multiplicity-one families a_n = p q k -+ 1
    come out at R = 1 and R = -1 respectively.
    """
    mismatches = []
    checked = 0
    for t in coprime_tuples(max_product, lengths):
        exact = seifert_invariants(t)
        rounded = r_invariant_cotangent(t)
        checked += 1
        if rounded != exact.r:
            mismatches.append((t, exact.r, rounded))
        if len(t) == 3:
            p, q, s = t
            if s % (p * q) == p * q - 1 and exact.r != 1:
                mismatches.append((t, exact.r, "expected R=1"))
            if s % (p * q) == 1 and exact.r != -1:
                mismatches.append((t, exact.r, "expected R=-1"))
    if not checked:
        raise SeifertInputError(f"no orbit tuple has product <= {max_product}")
    return {"checked": checked, "mismatches": mismatches}
