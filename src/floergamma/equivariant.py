"""Equivariant complexes on a truncated Laurent window, and the exact triangle.

Three complexes are built from a chain datum, and one type, XElement
(a chain part plus coefficients a_i of x^i), holds the elements of all
three; the complex fixes which x-powers occur:

* the "from" (hat) complex: chain part plus a polynomial, i >= 0;
* the "to" (check) complex: chain part plus a tail, i < 0;
* the bar complex: a Laurent window in x alone, every i, empty chain part.

The triangle maps i, j, p between them, the x-actions, and the
homotopies entering the exactness argument are all implemented as exact
formulas on a finite window x^-T .. x^N; verification checks every
identity on a spanning set of window basis elements, restricted to
x-degrees where shifting cannot leak out of the window.

Convention: the polynomial/Laurent variable x acts with Floer degree -4
(it interleaves the degree -4 operator u), and the generator of the
polynomial summand sits in degree 0.  Nothing downstream depends on this
bookkeeping; it is recorded here once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .floer_datum import (FloerDatum, Report, Vector, validate, vec_add, vec_neg, vec_sub,
                          weighted_sum)
from .novikov import INF, ExtRat, NovikovElement, lincomb, mdeg_tuple


@dataclass(frozen=True)
class Window:
    """Laurent truncation bounds: slots x^-T .. x^N."""

    T: int
    N: int

    def __post_init__(self):
        if self.T < 2 or self.N < 1:
            raise ValueError("window needs T >= 2 and N >= 1")


XPart = dict[int, NovikovElement]


@dataclass(frozen=True)
class XElement:
    """A chain part plus sum a_i x^i, with zero entries dropped.

    The complex an element lives in fixes its x-range: the hat complex
    holds i >= 0, the check complex i < 0, and the bar complex every i
    with an empty chain part.
    """

    chain: Vector = field(default_factory=dict)
    x: XPart = field(default_factory=dict)

    def __post_init__(self):
        # Parts built by `lincomb` have no zero entries already; the filter is
        # for parts a caller writes out by hand.
        object.__setattr__(self, "chain", {g: v for g, v in self.chain.items() if not v.is_zero()})
        object.__setattr__(self, "x", {i: a for i, a in self.x.items() if not a.is_zero()})

    def __add__(self, other: "XElement") -> "XElement":
        return XElement(vec_add(self.chain, other.chain), vec_add(self.x, other.x))

    def __sub__(self, other: "XElement") -> "XElement":
        return XElement(vec_sub(self.chain, other.chain), vec_sub(self.x, other.x))

    def is_zero(self) -> bool:
        return not self.chain and not self.x

    def restrict(self, lo: int, hi: int) -> "XElement":
        """The same chain part, with the x-powers outside lo..hi dropped."""
        return XElement(self.chain, {i: a for i, a in self.x.items() if lo <= i <= hi})


# ---------------------------------------------------------------------------
# Differentials, x-actions and triangle maps
# ---------------------------------------------------------------------------

def orbit_tail(vec: Vector, orbit) -> XPart:
    """sum_g vec[g] orbit(g)[m] x^-(m+1), by decreasing power.

    `orbit(g)` lists the coefficients of one generator's tail from x^-1
    down; slots that cancel are dropped.
    """
    acc = lincomb((a, dict(enumerate(orbit(g)))) for g, a in vec.items())
    return {-m - 1: acc[m] for m in sorted(acc)}


def _d1_tail(datum: FloerDatum, vec: Vector, window: Window) -> XPart:
    """sum_{i<0} d1(u^(-i-1) vec) x^i down to x^-T, from the d1-orbits."""
    return orbit_tail(vec, lambda g: datum.d1_orbit(g, window.T))


def _d2_sum(datum: FloerDatum, part: XPart) -> Vector:
    """sum_{i>=0} u^i d2(a_i) = sum_{i>=0} a_i · u^i d2(1), from the d2-orbit."""
    return weighted_sum(datum.d2_orbit(max(part, default=-1) + 1), part)


def hat_d(datum: FloerDatum, e: XElement) -> XElement:
    """(alpha, sum a_i x^i) -> (d alpha - sum u^i d2(a_i), 0)."""
    return XElement(vec_sub(datum.apply_d(e.chain), _d2_sum(datum, e.x)))


def check_d(datum: FloerDatum, e: XElement, window: Window) -> XElement:
    """(alpha, tail) -> (d alpha, sum_{i<0} d1(u^(-i-1) alpha) x^i)."""
    return XElement(datum.apply_d(e.chain), _d1_tail(datum, e.chain, window))


def x_action_hat(datum: FloerDatum, e: XElement, window: Window) -> XElement:
    """x . (alpha, p) = (u alpha, d1(alpha) + x p), for p ending below x^N.

    A coefficient at x^N is an internal fault, not an input error: the
    verifiers act by x only on margin basis elements, whose top power is
    x^(N-2), and on their products with the correction series, whose
    powers are <= 0.
    """
    assert all(i < window.N for i in e.x), "x-action pushes a coefficient past x^N"
    poly = vec_add({i + 1: a for i, a in e.x.items()}, {0: datum.apply_d1(e.chain)})
    return XElement(datum.apply_u(e.chain), poly)


def x_action_check(datum: FloerDatum, e: XElement) -> XElement:
    """x . (alpha, tail) = (u alpha + d2(a_-1), tail shifted up)."""
    a_minus1 = e.x.get(-1, NovikovElement.zero())
    return XElement(vec_add(datum.apply_u(e.chain), datum.apply_d2(a_minus1)),
                    {i + 1: a for i, a in e.x.items() if i <= -2})


def x_action_bar(e: XElement, window: Window) -> XElement:
    """Coefficient shift, for coefficients ending below x^N (see x_action_hat)."""
    assert all(i < window.N for i in e.x), "x-action pushes a coefficient past x^N"
    return XElement({}, {i + 1: a for i, a in e.x.items()})


def map_i(datum: FloerDatum, z: XElement) -> XElement:
    """i(sum a_i x^i) = (sum_{i>=0} u^i d2(a_i), negative part of z)."""
    return XElement(_d2_sum(datum, z.x), {i: a for i, a in z.x.items() if i < 0})


def map_j(e: XElement) -> XElement:
    """j(alpha, tail) = (alpha, 0)."""
    return XElement(e.chain)


def map_p(datum: FloerDatum, e: XElement, window: Window) -> XElement:
    """p(alpha, p) = sum_{i<0} d1(u^(-i-1) alpha) x^i + p."""
    return XElement({}, {**_d1_tail(datum, e.chain, window), **e.x})


# Homotopies entering the exactness argument.

def htpy_h(e: XElement) -> XElement:
    """h(alpha, tail) = (0, -a_-1)."""
    a = e.x.get(-1)
    return XElement({}, {} if a is None else {0: -a})


def htpy_k(e: XElement) -> XElement:
    """k(alpha, tail) = -tail."""
    return XElement({}, vec_neg(e.x))


def _grading_sign(datum: FloerDatum, chain: Vector) -> Vector:
    """sigma(alpha) = (-1)^{|alpha|} alpha, sign taken per generator."""
    return {g: el if datum.grading(g) % 2 == 0 else -el for g, el in chain.items()}


def htpy_l(datum: FloerDatum, e: XElement) -> XElement:
    """l(alpha, p) = (sigma alpha, 0)."""
    return XElement(_grading_sign(datum, e.chain))


def htpy_r(z: XElement) -> XElement:
    """r(sum a_i x^i) = (0, non-negative part)."""
    return XElement({}, {i: a for i, a in z.x.items() if i >= 0})


def _epsilon(datum: FloerDatum, e: XElement) -> XElement:
    """The grading involution: sigma on the chain part, -1 on negative x-powers."""
    return XElement(_grading_sign(datum, e.chain),
                    {i: a if i >= 0 else -a for i, a in e.x.items()})


# ---------------------------------------------------------------------------
# Degree and mdeg extensions
# ---------------------------------------------------------------------------

def mdeg_hat(e: XElement) -> ExtRat:
    return mdeg_tuple((e.x or e.chain).values())


def mdeg_check(e: XElement) -> ExtRat:
    if e.chain:
        return mdeg_tuple(e.chain.values())
    if e.x:
        return e.x[max(e.x)].mdeg()
    return INF


def mdeg_bar(z: XElement) -> ExtRat:
    nonneg = [a for i, a in z.x.items() if i >= 0]
    if nonneg:
        return mdeg_tuple(nonneg)
    if z.x:
        return z.x[max(z.x)].mdeg()
    return INF


# ---------------------------------------------------------------------------
# Triangle verification
# ---------------------------------------------------------------------------

def inner_window(window: Window) -> Window:
    # Deep enough that every tail slot >= -T of a composite is computed
    # from fully known data; identities are then compared on the margin.
    return Window(2 * window.T + window.N + 4, window.N)


def hat_basis(datum: FloerDatum, window: Window, margin: bool):
    top = window.N - 2 if margin else window.N
    for g in datum.names():
        yield f"({g}, 0)", XElement(datum.basis_vector(g))
    for i in range(0, top + 1):
        yield f"(0, x^{i})", XElement({}, {i: NovikovElement.one()})


def check_basis(datum: FloerDatum, window: Window, margin: bool):
    bottom = -window.T + 2 if margin else -window.T
    for g in datum.names():
        yield f"({g}, 0)", XElement(datum.basis_vector(g))
    for i in range(-1, bottom - 1, -1):
        yield f"(0, x^{i})", XElement({}, {i: NovikovElement.one()})


def bar_basis(window: Window, margin: bool):
    lo = -window.T + 2 if margin else -window.T
    hi = window.N - 2 if margin else window.N
    for i in range(lo, hi + 1):
        yield f"x^{i}", XElement({}, {i: NovikovElement.one()})


def residual(e: XElement, window: Window) -> XElement:
    """The x-powers -T+2 .. N of an identity's two sides, where both are exact.

    A hat element has no negative powers and a check element no
    non-negative ones, so this is the hat band 0..N and the check band
    -T+2..-1 at once.
    """
    return e.restrict(-window.T + 2, window.N)


def _triangle_checks(datum: FloerDatum, window: Window):
    """(identity, basis name, residual) of every triangle identity, in stage order."""
    win = inner_window(window)

    # (1) squared differentials
    for name, e in hat_basis(datum, window, margin=False):
        yield "hat_d∘hat_d = 0", name, hat_d(datum, hat_d(datum, e))
    for name, e in check_basis(datum, window, margin=False):
        yield ("check_d∘check_d = 0", name,
               residual(check_d(datum, check_d(datum, e, win), win), window))

    # (2) i and p are x-equivariant
    for name, z in bar_basis(window, margin=True):
        lhs = map_i(datum, x_action_bar(z, win))
        rhs = x_action_check(datum, map_i(datum, z))
        yield "i∘x = x∘i", name, residual(lhs - rhs, window)
    for name, e in hat_basis(datum, window, margin=True):
        lhs = map_p(datum, x_action_hat(datum, e, win), win)
        rhs = x_action_bar(map_p(datum, e, win), win)
        yield "p∘x = x∘p", name, residual(lhs - rhs, window)

    # (3) j commutes with x up to the homotopy h
    for name, e in check_basis(datum, window, margin=True):
        lhs = map_j(x_action_check(datum, e)) - x_action_hat(datum, map_j(e), win)
        rhs = hat_d(datum, htpy_h(e)) + htpy_h(check_d(datum, e, win))
        yield "j∘x - x∘j = hat_d∘h + h∘check_d", name, residual(lhs - rhs, window)

    # (4) null-homotopy identities for the splitting maps
    for name, e in check_basis(datum, window, margin=False):
        total = map_p(datum, map_j(e), win) + htpy_k(check_d(datum, e, win))
        yield "p∘j + k∘check_d = 0", name, residual(total, window)
    for name, e in hat_basis(datum, window, margin=False):
        total = (map_i(datum, map_p(datum, e, win)) + htpy_l(datum, hat_d(datum, e))
                 + check_d(datum, htpy_l(datum, e), win))
        yield "i∘p + l∘hat_d + check_d∘l = 0", name, residual(total, window)
    for name, z in bar_basis(window, margin=False):
        yield "j∘i + hat_d∘r = 0", name, map_j(map_i(datum, z)) + hat_d(datum, htpy_r(z))

    # (5) the splitting composites are the grading involution epsilon, on
    # the whole window x^-T .. x^N
    for name, e in check_basis(datum, window, margin=False):
        total = htpy_l(datum, map_j(e)) + map_i(datum, htpy_k(e)) - _epsilon(datum, e)
        yield "l∘j + i∘k = ε", name, total.restrict(-window.T, window.N)
    for name, e in hat_basis(datum, window, margin=False):
        total = (htpy_r(map_p(datum, e, win)) + map_j(htpy_l(datum, e))
                 - _epsilon(datum, e))
        yield "r∘p + j∘l = ε", name, total.restrict(-window.T, window.N)
    for name, z in bar_basis(window, margin=False):
        total = htpy_k(map_i(datum, z)) + map_p(datum, htpy_r(z), win) - _epsilon(datum, z)
        yield "k∘i + p∘r = ε", name, total.restrict(-window.T, window.N)


def verify_triangle(datum: FloerDatum, window: Window) -> Report:
    """Mechanically verify the exact-triangle identities on the window.

    Checks, on a spanning set restricted so shifts stay inside the
    window: both squared differentials vanish; i and p commute with x;
    j commutes with x up to the homotopy h; the three null-homotopy
    identities for the splitting maps; and that the three splitting
    composites l∘j + i∘k, r∘p + j∘l and k∘i + p∘r equal the grading
    involution ε on the window.  ε is sigma on a chain part (sigma
    negates the generators of odd grading); it fixes the "from"
    polynomial part, negates the "to" tail, and on the bar complex sends
    z to its non-negative part minus its negative part.  Since ε∘ε = 1,
    each identity proves its composite invertible, with itself as the
    inverse, and also catches a composite that is invertible but wrong.
    Reports the first failing identity with the basis element and
    residual.

    Precondition: the datum passes validate; its failure is reported as
    a precondition failure, since a small window can miss it.
    """
    pre = validate(datum)
    rep = Report()
    if not pre.ok:
        rep.fail(f"precondition: datum fails validation ({pre.failures[0]})")
    else:
        rep.first_nonzero(_triangle_checks(datum, window))
    return rep
