"""Closed-form calculators for Seifert fibered homology spheres.

Orbit data (a_1, ..., a_n) of pairwise coprime integers >= 2 determines
the R-invariant two independent ways: the exact closed form R = 2b - 3
with b = 1/a + sum beta_i / a_i, where beta_i is the unique residue in
(0, a_i) making 1 + beta_i * (a / a_i) divisible by a_i, and a cotangent
double sum evaluated in IEEE doubles under an a-priori error bound below
1/4, so that rounding it is exact.  Every R the module reports comes
from the closed form; the float sum only audits it.  Cross-checking the
two is the module's central audit.  Positive R feeds the Gamma
prediction 1/(4a) on an initial range, linear-independence fingerprints
and the double-branched-cover bounds for Whitehead doubles of torus
knots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

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


# The cotangent audit refuses a tuple whose double sum has more than this
# many terms, sum(a_i - 1): about one second of work on a 2-core x86-64 VM
# with CPython 3.11.
TERM_CAP = 2_500_000

# The sweep refuses a product bound above this, since the number of tuples
# grows faster than the bound: 5000 (4,355 tuples) takes about 0.7 s on a
# 2-core x86-64 VM with CPython 3.11.
PRODUCT_CAP = 5000

# The rounded cotangent sum must lie this close to an integer.
ROUNDING_TOLERANCE = 1e-6

# The sweep checks the tuples of these lengths.
SWEEP_LENGTHS = (3, 4)


def cotangent_error_bound(a) -> float:
    """E(a), the a-priori error bound stated in r_invariant_cotangent."""
    slots = sum(1 + math.log(ai // 2) for ai in a)
    return 2.0 ** -53 * (20 * slots + 2 * len(a) + 1)


def _cotangent_sum(a: tuple[int, ...]) -> float:
    """The double sum of r_invariant_cotangent, in doubles."""
    prod = math.prod(a)
    slots = []
    for m in a:
        c = prod // m % m
        half = m // 2
        terms = []
        for k in range(1, m):
            r = k * c % m
            if r > half:
                r -= m
            terms.append(math.sin(2 * math.pi * k / m) / math.tan(math.pi * r / m))
        slots.append(math.fsum(terms) / m)
    return math.fsum([2 / prod, len(a) - 3, *slots])


def r_invariant_cotangent(a) -> int:
    """R by the cotangent double sum, evaluated in doubles and rounded.

    R = 2/a - 3 + n + sum_i (2/a_i) sum_{k=1}^{a_i-1}
    cot(pi k a / a_i^2) cot(pi k / a_i) sin^2(pi k / a_i).  Since
    cot x sin^2 x = sin(2x)/2 and cot has period pi, the (i, k) term is
    cot(pi r / a_i) sin(2 pi k / a_i) / 2, where r = k (a / a_i) mod a_i
    is reduced exactly in integers and then taken in (-a_i/2, a_i/2], so
    that |pi r / a_i| <= pi/2.

    The float sum is within
        E(a) = u (20 sum_i (1 + ln floor(a_i / 2)) + 2n + 1),  u = 2^-53,
    of the exact one, assuming IEEE-754 doubles rounding to nearest, libm
    sin and tan within 1 ulp of the exact function at their double
    argument, and a correctly rounded math.fsum.  Derivation, for one
    term with m = a_i and s = r: the computed angle pi s/m has relative
    error <= 2.51u, which moves cot by <= 1.98u m/|s| (Jordan's
    inequality on |x| <= pi/2); the angle 2 pi k/m moves sin by
    <= 5.02 pi u and libm adds 2u; tan and the division add 3.01u
    relative; and |cot(pi s/m)| <= m/(pi |s|).  So each term is off by at
    most 8.6u m/|s|.  As k runs over 1..m-1 so does r, hence
    sum 1/|s| <= 2 H(floor(m/2)) <= 2 (1 + ln floor(m/2)); fsum and the
    division by m add u times the slot's absolute sum, and one slot is
    within 18.5u (1 + ln floor(m/2)).  2/a and the final fsum add at most
    u (2n + 1), since |R| <= 2n.  The constant 20 leaves room for the
    second-order terms and for the rounding of E(a) itself.  Rounding is
    exact when E(a) < 1/2; ArithmeticError is raised unless E(a) < 1/4.

    A tuple of more than TERM_CAP terms sum(a_i - 1) is refused before
    any term is computed.  A pre-rounding residual above ROUNDING_TOLERANCE,
    or a value that is not an odd integer >= -1, raises ArithmeticError.
    """
    a = _validate_tuple(a)
    terms = sum(ai - 1 for ai in a)
    if terms > TERM_CAP:
        raise SeifertInputError(
            f"cotangent sum for {a} has {terms} terms, above the cap {TERM_CAP}")
    bound = cotangent_error_bound(a)
    if bound >= 0.25:
        raise ArithmeticError(
            f"cotangent sum for {a} has error bound {bound}, not below 1/4")
    total = _cotangent_sum(a)
    nearest = round(total)
    residual = abs(total - nearest)
    if residual > ROUNDING_TOLERANCE:
        raise ArithmeticError(
            f"cotangent sum for {a} has residual {residual} above {ROUNDING_TOLERANCE}")
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


def coprime_tuples(max_product: int):
    """Sorted pairwise-coprime tuples of SWEEP_LENGTHS, entries >= 2, bounded product."""
    out = []

    def extend(prefix: tuple[int, ...], prod: int, start: int):
        if len(prefix) in SWEEP_LENGTHS:
            out.append(prefix)
        if len(prefix) >= max(SWEEP_LENGTHS):
            return
        x = start
        while prod * x <= max_product:
            if all(math.gcd(x, y) == 1 for y in prefix):
                extend(prefix + (x,), prod * x, x + 1)
            x += 1

    extend((), 1, 2)
    return out


def sweep(max_product: int = 2000) -> dict:
    """Cross-formula audit over all bounded pairwise-coprime tuples.

    Checks, for every tuple, that the cotangent sum rounds to the exact
    closed-form value with a small residual, that the value is an odd
    integer >= -1, and that the multiplicity-one families a_n = p q k -+ 1
    come out at R = 1 and R = -1 respectively.  A bound above PRODUCT_CAP
    is refused before any tuple is checked.
    """
    if max_product > PRODUCT_CAP:
        raise SeifertInputError(
            f"sweep bound {max_product} is above the cap {PRODUCT_CAP}")
    mismatches = []
    checked = 0
    for t in coprime_tuples(max_product):
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
