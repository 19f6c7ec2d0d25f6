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
identity on a spanning set of window basis elements.  A verifier call
builds each basis image once (`once`), and a residual only where an
identity's two sides differ (`residual`).

Every identity is computed at the window itself and compared on the band
x^(-T+2) .. x^N, where both sides are exact.  Cutting a tail at x^-T
corrupts only the slots below x^-T.  Every other operation leaves a
slot's value depending on that slot or higher ones: the differentials,
tails and maps, the products with the correction series (powers <= 0)
and the reads of slot -1.  Only an x-action moves a corrupted slot up,
by one, and no identity applies more than one x-action to a truncated
image.  The splitting composites, compared on the whole window, read no
truncated tail.

Convention: the polynomial/Laurent variable x acts with Floer degree -4
(it interleaves the operator u), and the generator of the
polynomial summand sits in degree 0.  Nothing downstream depends on this
bookkeeping; it is recorded here once.
"""

from __future__ import annotations

from .floer_datum import (FloerDatum, Record, Report, Vector, validate, vec_add, vec_neg,
                          vec_sub, weighted_sum)
from .novikov import INF, ExtRat, NovikovElement, lincomb, mdeg_tuple


class Window(Record):
    """Laurent truncation bounds: slots x^-T .. x^N, a `Record`."""

    __slots__ = ("T", "N")

    def __init__(self, T: int, N: int):
        if T < 2 or N < 1:
            raise ValueError("window needs T >= 2 and N >= 1")
        self.T = T
        self.N = N


XPart = dict[int, NovikovElement]


class XElement(Record):
    """A chain part plus sum a_i x^i, with zero entries dropped.

    The complex an element lives in fixes its x-range: the hat complex
    holds i >= 0, the check complex i < 0, and the bar complex every i
    with an empty chain part.

    A slotted `Record`, since the verifiers build tens of thousands per
    pass.  Nothing mutates an element once built, but its parts are dicts,
    so it is not hashable.  The constructor drops zero entries; this
    module's operations and maps build zero-free parts and skip that (`_of`).
    """

    __slots__ = ("chain", "x")
    __hash__ = None

    def __init__(self, chain: Vector | None = None, x: XPart | None = None):
        self.chain = {g: v for g, v in chain.items() if v} if chain else {}
        self.x = {i: a for i, a in x.items() if a} if x else {}

    @classmethod
    def _of(cls, chain: Vector, x: XPart) -> "XElement":
        e = object.__new__(cls)
        e.chain, e.x = chain, x
        return e

    def __add__(self, other: "XElement") -> "XElement":
        return XElement._of(vec_add(self.chain, other.chain), vec_add(self.x, other.x))

    def __sub__(self, other: "XElement") -> "XElement":
        return XElement._of(vec_sub(self.chain, other.chain), vec_sub(self.x, other.x))

    def __neg__(self) -> "XElement":
        return XElement._of(vec_neg(self.chain), vec_neg(self.x))

    def is_zero(self) -> bool:
        return not self.chain and not self.x

    def restrict(self, lo: int, hi: int) -> "XElement":
        """The same chain part, with the x-powers outside lo..hi dropped."""
        return XElement._of(self.chain, {i: a for i, a in self.x.items() if lo <= i <= hi})


# ---------------------------------------------------------------------------
# Differentials, x-actions and triangle maps
# ---------------------------------------------------------------------------

def orbit_tail(vec: Vector, orbit) -> XPart:
    """sum_g vec[g] orbit(g)[m] x^-(m+1), by decreasing power.

    `orbit(g)` lists the coefficients of one generator's tail from x^-1
    down; zero slots are skipped and slots that cancel are dropped.
    """
    acc = lincomb((a, {m: lam for m, lam in enumerate(orbit(g)) if lam})
                  for g, a in vec.items())
    return {-m - 1: acc[m] for m in sorted(acc)}


def _d1_tail(datum: FloerDatum, vec: Vector, window: Window) -> XPart:
    """sum_{i<0} d1(u^(-i-1) vec) x^i down to x^-T, from the d1-orbits."""
    return orbit_tail(vec, lambda g: datum.d1_orbit(g, window.T))


def _d2_sum(datum: FloerDatum, part: XPart) -> Vector:
    """sum_{i>=0} u^i d2(a_i) = sum_{i>=0} a_i · u^i d2(1), from the d2-orbit."""
    return weighted_sum(datum.d2_orbit(max(part, default=-1) + 1), part)


def hat_d(datum: FloerDatum, e: XElement) -> XElement:
    """(alpha, sum a_i x^i) -> (d alpha - sum u^i d2(a_i), 0)."""
    return XElement._of(vec_sub(datum.apply_d(e.chain), _d2_sum(datum, e.x)), {})


def check_d(datum: FloerDatum, e: XElement, window: Window) -> XElement:
    """(alpha, tail) -> (d alpha, sum_{i<0} d1(u^(-i-1) alpha) x^i)."""
    return XElement._of(datum.apply_d(e.chain), _d1_tail(datum, e.chain, window))


def x_action_hat(datum: FloerDatum, e: XElement, window: Window) -> XElement:
    """x . (alpha, p) = (u alpha, d1(alpha) + x p), for p ending below x^N.

    A coefficient at x^N is an internal fault, not an input error: the
    verifiers act by x only on margin basis elements, whose top power is
    x^(N-2), and on their products with the correction series, whose
    powers are <= 0.
    """
    assert all(i < window.N for i in e.x), "x-action pushes a coefficient past x^N"
    d1 = datum.apply_d1(e.chain)
    poly = vec_add({i + 1: a for i, a in e.x.items()}, {0: d1} if d1 else {})
    return XElement._of(datum.apply_u(e.chain), poly)


def x_action_check(datum: FloerDatum, e: XElement) -> XElement:
    """x . (alpha, tail) = (u alpha + d2(a_-1), tail shifted up)."""
    chain = datum.apply_u(e.chain)
    if -1 in e.x:
        chain = vec_add(chain, datum.apply_d2(e.x[-1]))
    return XElement._of(chain, {i + 1: a for i, a in e.x.items() if i <= -2})


def x_action_bar(e: XElement, window: Window) -> XElement:
    """Coefficient shift, for coefficients ending below x^N (see x_action_hat)."""
    assert all(i < window.N for i in e.x), "x-action pushes a coefficient past x^N"
    return XElement._of({}, {i + 1: a for i, a in e.x.items()})


def map_i(datum: FloerDatum, z: XElement) -> XElement:
    """i(sum a_i x^i) = (sum_{i>=0} u^i d2(a_i), negative part of z)."""
    return XElement._of(_d2_sum(datum, z.x), {i: a for i, a in z.x.items() if i < 0})


def map_j(e: XElement) -> XElement:
    """j(alpha, tail) = (alpha, 0)."""
    return XElement._of(e.chain, {})


def map_p(datum: FloerDatum, e: XElement, window: Window) -> XElement:
    """p(alpha, p) = sum_{i<0} d1(u^(-i-1) alpha) x^i + p."""
    return XElement._of({}, {**_d1_tail(datum, e.chain, window), **e.x})


# Homotopies entering the exactness argument.

def htpy_h(e: XElement) -> XElement:
    """h(alpha, tail) = (0, -a_-1)."""
    a = e.x.get(-1)
    return XElement._of({}, {} if a is None else {0: -a})


def htpy_k(e: XElement) -> XElement:
    """k(alpha, tail) = -tail."""
    return XElement._of({}, vec_neg(e.x))


def _grading_sign(datum: FloerDatum, chain: Vector) -> Vector:
    """sigma(alpha) = (-1)^{|alpha|} alpha, sign taken per generator."""
    return {g: el if datum.grading(g) % 2 == 0 else -el for g, el in chain.items()}


def htpy_l(datum: FloerDatum, e: XElement) -> XElement:
    """l(alpha, p) = (sigma alpha, 0)."""
    return XElement._of(_grading_sign(datum, e.chain), {})


def htpy_r(z: XElement) -> XElement:
    """r(sum a_i x^i) = (0, non-negative part)."""
    return XElement._of({}, {i: a for i, a in z.x.items() if i >= 0})


def _epsilon(datum: FloerDatum, e: XElement) -> XElement:
    """The grading involution: sigma on the chain part, -1 on negative x-powers."""
    return XElement._of(_grading_sign(datum, e.chain),
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

def hat_basis(datum: FloerDatum, window: Window, margin: bool):
    top = window.N - 2 if margin else window.N
    for g in datum.names():
        yield f"({g}, 0)", XElement._of(datum.basis_vector(g), {})
    for i in range(0, top + 1):
        yield f"(0, x^{i})", XElement._of({}, {i: NovikovElement.one()})


def check_basis(datum: FloerDatum, window: Window, margin: bool):
    bottom = -window.T + 2 if margin else -window.T
    for g in datum.names():
        yield f"({g}, 0)", XElement._of(datum.basis_vector(g), {})
    for i in range(-1, bottom - 1, -1):
        yield f"(0, x^{i})", XElement._of({}, {i: NovikovElement.one()})


def bar_basis(window: Window, margin: bool):
    lo = -window.T + 2 if margin else -window.T
    hi = window.N - 2 if margin else window.N
    for i in range(lo, hi + 1):
        yield f"x^{i}", XElement._of({}, {i: NovikovElement.one()})


def residual(lhs: XElement, rhs: XElement, lo: int, hi: int) -> XElement:
    """lhs - rhs on the x-powers lo..hi, subtracted only if the sides differ there.

    The verifiers' band is -T+2..N, where both sides are exact: the hat band
    0..N and the check band -T+2..-1 at once.  Restriction is linear and a
    key occurs at most once per side, so this is (lhs - rhs).restrict(lo, hi)
    with the same key order.
    """
    a, b = lhs.restrict(lo, hi), rhs.restrict(lo, hi)
    return XElement._of({}, {}) if a.chain == b.chain and a.x == b.x else a - b


def once(f, kept: dict):
    """(name, basis element) -> f(element), built on the name's first use, then kept."""
    return lambda name, e: kept[name] if name in kept else kept.setdefault(name, f(e))


def _triangle_checks(datum: FloerDatum, window: Window):
    """(identity, basis name, residual) of every triangle identity, in stage order;
    "A + B = 0" compares A with -B, as A - (-B) is the sum term for term."""
    lo, hi = -window.T + 2, window.N
    hd, p = once(lambda e: hat_d(datum, e), {}), once(lambda e: map_p(datum, e, window), {})
    cd, i = once(lambda e: check_d(datum, e, window), {}), once(lambda z: map_i(datum, z), {})

    # (1) squared differentials
    for name, e in hat_basis(datum, window, margin=False):
        yield "hat_d∘hat_d = 0", name, hat_d(datum, hd(name, e))
    for name, e in check_basis(datum, window, margin=False):
        yield "check_d∘check_d = 0", name, check_d(datum, cd(name, e), window).restrict(lo, hi)

    # (2) i and p are x-equivariant
    for name, z in bar_basis(window, margin=True):
        lhs = map_i(datum, x_action_bar(z, window))
        yield "i∘x = x∘i", name, residual(lhs, x_action_check(datum, i(name, z)), lo, hi)
    for name, e in hat_basis(datum, window, margin=True):
        lhs = map_p(datum, x_action_hat(datum, e, window), window)
        yield "p∘x = x∘p", name, residual(lhs, x_action_bar(p(name, e), window), lo, hi)

    # (3) j commutes with x up to the homotopy h
    for name, e in check_basis(datum, window, margin=True):
        lhs = map_j(x_action_check(datum, e)) - x_action_hat(datum, map_j(e), window)
        rhs = hat_d(datum, htpy_h(e)) + htpy_h(cd(name, e))
        yield "j∘x - x∘j = hat_d∘h + h∘check_d", name, residual(lhs, rhs, lo, hi)

    # (4) null-homotopy identities for the splitting maps
    for name, e in check_basis(datum, window, margin=False):
        yield ("p∘j + k∘check_d = 0", name,
               residual(map_p(datum, map_j(e), window), -htpy_k(cd(name, e)), lo, hi))
    for name, e in hat_basis(datum, window, margin=False):
        lhs = map_i(datum, p(name, e)) + htpy_l(datum, hd(name, e))
        yield ("i∘p + l∘hat_d + check_d∘l = 0", name,
               residual(lhs, -check_d(datum, htpy_l(datum, e), window), lo, hi))
    for name, z in bar_basis(window, margin=False):
        yield ("j∘i + hat_d∘r = 0", name,
               residual(map_j(i(name, z)), -hat_d(datum, htpy_r(z)), lo, hi))

    # (5) the splitting composites are the grading involution epsilon, on
    # the whole window x^-T .. x^N
    for name, e in check_basis(datum, window, margin=False):
        lhs = htpy_l(datum, map_j(e)) + map_i(datum, htpy_k(e))
        yield "l∘j + i∘k = ε", name, residual(lhs, _epsilon(datum, e), -window.T, window.N)
    for name, e in hat_basis(datum, window, margin=False):
        lhs = htpy_r(p(name, e)) + map_j(htpy_l(datum, e))
        yield "r∘p + j∘l = ε", name, residual(lhs, _epsilon(datum, e), -window.T, window.N)
    for name, z in bar_basis(window, margin=False):
        lhs = htpy_k(i(name, z)) + map_p(datum, htpy_r(z), window)
        yield "k∘i + p∘r = ε", name, residual(lhs, _epsilon(datum, z), -window.T, window.N)


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

    Precondition: the datum passes validate, which runs unless its
    `valid` is set; its failure is reported as a precondition failure,
    since a small window can miss it.
    """
    pre = Report() if datum.valid else validate(datum)
    rep = Report()
    if not pre.ok:
        rep.fail(f"precondition: datum fails validation ({pre.failures[0]})")
    else:
        rep.first_nonzero(_triangle_checks(datum, window))
    return rep
