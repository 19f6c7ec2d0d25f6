"""Equivariant complexes on a truncated Laurent window, and the exact triangle.

Three complexes are built from a chain datum: the "from" complex (chain
part plus a polynomial part in x), the "to" complex (chain part plus a
tail in negative x-powers) and the "bar" complex (a Laurent window in x
alone).  The triangle maps i, j, p between them, the x-actions, and the
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

from dataclasses import dataclass

from .floer_datum import FloerDatum, Report, Vector, validate, vec_add, vec_neg, vec_sub
from .novikov import INF, ExtRat, NovikovElement, mdeg_tuple


class WindowOverflowError(RuntimeError):
    """An x-shift would push a nonzero coefficient past the window top."""


@dataclass(frozen=True)
class Window:
    """Laurent truncation bounds: slots x^-T .. x^N."""

    T: int
    N: int

    def __post_init__(self):
        if self.T < 2 or self.N < 1:
            raise ValueError("window needs T >= 2 and N >= 1")


XPart = dict[int, NovikovElement]


def _clean(part: XPart) -> XPart:
    return {i: el for i, el in part.items() if not el.is_zero()}


@dataclass(frozen=True)
class HatElement:
    """Element of the "from" complex: chain part plus sum_{i>=0} a_i x^i."""

    chain: Vector
    poly: XPart

    def __post_init__(self):
        object.__setattr__(self, "chain", {g: v for g, v in self.chain.items() if not v.is_zero()})
        object.__setattr__(self, "poly", _clean(self.poly))
        if any(i < 0 for i in self.poly):
            raise ValueError("hat polynomial part has negative x-powers")

    def is_zero(self) -> bool:
        return not self.chain and not self.poly


@dataclass(frozen=True)
class CheckElement:
    """Element of the "to" complex: chain part plus sum_{i<0} a_i x^i."""

    chain: Vector
    tail: XPart

    def __post_init__(self):
        object.__setattr__(self, "chain", {g: v for g, v in self.chain.items() if not v.is_zero()})
        object.__setattr__(self, "tail", _clean(self.tail))
        if any(i >= 0 for i in self.tail):
            raise ValueError("check tail has non-negative x-powers")

    def is_zero(self) -> bool:
        return not self.chain and not self.tail


@dataclass(frozen=True)
class BarElement:
    """Element of the bar complex: a Laurent window sum a_i x^i."""

    coeffs: XPart

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _clean(self.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs


def hat_add(a: HatElement, b: HatElement) -> HatElement:
    return HatElement(vec_add(a.chain, b.chain), vec_add(a.poly, b.poly))

def hat_sub(a: HatElement, b: HatElement) -> HatElement:
    return hat_add(a, HatElement(vec_neg(b.chain), vec_neg(b.poly)))

def check_add(a: CheckElement, b: CheckElement) -> CheckElement:
    return CheckElement(vec_add(a.chain, b.chain), vec_add(a.tail, b.tail))

def check_sub(a: CheckElement, b: CheckElement) -> CheckElement:
    return check_add(a, CheckElement(vec_neg(b.chain), vec_neg(b.tail)))

def bar_add(a: BarElement, b: BarElement) -> BarElement:
    return BarElement(vec_add(a.coeffs, b.coeffs))

def bar_sub(a: BarElement, b: BarElement) -> BarElement:
    return BarElement(vec_add(a.coeffs, vec_neg(b.coeffs)))


# ---------------------------------------------------------------------------
# Differentials, x-actions and triangle maps
# ---------------------------------------------------------------------------

def _d1_tail(datum: FloerDatum, vec: Vector, window: Window) -> XPart:
    """sum_{i<0} d1(u^(-i-1) vec) x^i down to x^-T."""
    tail: XPart = {}
    for i in range(-1, -window.T - 1, -1):
        lam = datum.apply_d1(vec)
        if not lam.is_zero():
            tail[i] = lam
        vec = datum.apply_u(vec)
    return tail


def _d2_sum(datum: FloerDatum, part: XPart) -> Vector:
    """sum_{i>=0} u^i d2(a_i), by Horner's rule from the top slot down."""
    chain: Vector = {}
    for i in range(max(part, default=-1), -1, -1):
        chain = datum.apply_u(chain)
        if i in part:
            chain = vec_add(chain, datum.apply_d2(part[i]))
    return chain


def hat_d(datum: FloerDatum, e: HatElement) -> HatElement:
    """(alpha, sum a_i x^i) -> (d alpha - sum u^i d2(a_i), 0)."""
    return HatElement(vec_sub(datum.apply_d(e.chain), _d2_sum(datum, e.poly)), {})


def check_d(datum: FloerDatum, e: CheckElement, window: Window) -> CheckElement:
    """(alpha, tail) -> (d alpha, sum_{i<0} d1(u^(-i-1) alpha) x^i)."""
    return CheckElement(datum.apply_d(e.chain), _d1_tail(datum, e.chain, window))


def x_action_hat(datum: FloerDatum, e: HatElement, window: Window) -> HatElement:
    """x . (alpha, p) = (u alpha, d1(alpha) + x p); errors on window overflow."""
    if any(i + 1 > window.N for i in e.poly):
        raise WindowOverflowError("x-action pushes a coefficient past x^N")
    poly = {i + 1: a for i, a in e.poly.items()}
    lam = datum.apply_d1(e.chain)
    if not lam.is_zero():
        poly[0] = poly.get(0, NovikovElement.zero()) + lam
    return HatElement(datum.apply_u(e.chain), poly)


def x_action_check(datum: FloerDatum, e: CheckElement) -> CheckElement:
    """x . (alpha, tail) = (u alpha + d2(a_-1), tail shifted up)."""
    chain = datum.apply_u(e.chain)
    a_minus1 = e.tail.get(-1)
    if a_minus1 is not None:
        chain = vec_add(chain, datum.apply_d2(a_minus1))
    tail = {i + 1: a for i, a in e.tail.items() if i <= -2}
    return CheckElement(chain, tail)


def x_action_bar(e: BarElement, window: Window) -> BarElement:
    """Coefficient shift; errors when a nonzero top coefficient would be lost."""
    if any(i + 1 > window.N for i in e.coeffs):
        raise WindowOverflowError("x-action pushes a coefficient past x^N")
    return BarElement({i + 1: a for i, a in e.coeffs.items()})


def map_i(datum: FloerDatum, z: BarElement) -> CheckElement:
    """i(sum a_i x^i) = (sum_{i>=0} u^i d2(a_i), negative part of z)."""
    return CheckElement(_d2_sum(datum, z.coeffs),
                        {i: a for i, a in z.coeffs.items() if i < 0})


def map_j(e: CheckElement) -> HatElement:
    """j(alpha, tail) = (alpha, 0)."""
    return HatElement(dict(e.chain), {})


def map_p(datum: FloerDatum, e: HatElement, window: Window) -> BarElement:
    """p(alpha, p) = sum_{i<0} d1(u^(-i-1) alpha) x^i + p."""
    return BarElement({**_d1_tail(datum, e.chain, window), **e.poly})


# Homotopies entering the exactness argument.

def htpy_h(e: CheckElement) -> HatElement:
    """h(alpha, tail) = (0, -a_-1)."""
    a = e.tail.get(-1)
    return HatElement({}, {} if a is None else {0: -a})


def htpy_k(e: CheckElement) -> BarElement:
    """k(alpha, tail) = -tail."""
    return BarElement({i: -a for i, a in e.tail.items()})


def _grading_sign(datum: FloerDatum, chain: Vector) -> Vector:
    """sigma(alpha) = (-1)^{|alpha|} alpha, sign taken per generator."""
    return {g: el if datum.grading(g) % 2 == 0 else -el for g, el in chain.items()}


def htpy_l(datum: FloerDatum, e: HatElement) -> CheckElement:
    """l(alpha, p) = (sigma alpha, 0)."""
    return CheckElement(_grading_sign(datum, e.chain), {})


def htpy_r(z: BarElement) -> HatElement:
    """r(sum a_i x^i) = (0, non-negative part)."""
    return HatElement({}, {i: a for i, a in z.coeffs.items() if i >= 0})


# ---------------------------------------------------------------------------
# Degree and mdeg extensions
# ---------------------------------------------------------------------------

def deg_bar(z: BarElement) -> int:
    """Largest x-power with a nonzero coefficient; errors on zero."""
    if z.is_zero():
        raise ValueError("Deg of the zero element is undefined")
    return max(z.coeffs)


def mdeg_hat(e: HatElement) -> ExtRat:
    if e.poly:
        return mdeg_tuple(e.poly.values())
    return mdeg_tuple(e.chain.values())


def mdeg_check(e: CheckElement) -> ExtRat:
    if e.chain:
        return mdeg_tuple(e.chain.values())
    if e.tail:
        return e.tail[max(e.tail)].mdeg()
    return INF


def mdeg_bar(z: BarElement) -> ExtRat:
    nonneg = [a for i, a in z.coeffs.items() if i >= 0]
    if nonneg:
        return mdeg_tuple(nonneg)
    if z.coeffs:
        return z.coeffs[max(z.coeffs)].mdeg()
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
        yield f"({g}, 0)", HatElement(datum.basis_vector(g), {})
    for i in range(0, top + 1):
        yield f"(0, x^{i})", HatElement({}, {i: NovikovElement.one()})


def check_basis(datum: FloerDatum, window: Window, margin: bool):
    bottom = -window.T + 2 if margin else -window.T
    for g in datum.names():
        yield f"({g}, 0)", CheckElement(datum.basis_vector(g), {})
    for i in range(-1, bottom - 1, -1):
        yield f"(0, x^{i})", CheckElement({}, {i: NovikovElement.one()})


def bar_basis(window: Window, margin: bool):
    lo = -window.T + 2 if margin else -window.T
    hi = window.N - 2 if margin else window.N
    for i in range(lo, hi + 1):
        yield f"x^{i}", BarElement({i: NovikovElement.one()})


def _restrict_x(part: XPart, lo: int, hi: int) -> XPart:
    return {i: a for i, a in part.items() if lo <= i <= hi}


def hat_residual(e: HatElement, window: Window) -> HatElement:
    return HatElement(e.chain, _restrict_x(e.poly, 0, window.N))


def check_residual(e: CheckElement, window: Window) -> CheckElement:
    return CheckElement(e.chain, _restrict_x(e.tail, -window.T + 2, -1))


def bar_residual(z: BarElement, window: Window) -> BarElement:
    return BarElement(_restrict_x(z.coeffs, -window.T + 2, window.N))


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
        return rep
    win = inner_window(window)

    # (1) squared differentials
    for name, e in hat_basis(datum, window, margin=False):
        rep.fail_unless_zero("hat_d∘hat_d = 0", name, hat_d(datum, hat_d(datum, e)))
    for name, e in check_basis(datum, window, margin=False):
        r = check_residual(check_d(datum, check_d(datum, e, win), win), window)
        rep.fail_unless_zero("check_d∘check_d = 0", name, r)
    if not rep.ok:
        return rep

    # (2) i and p are x-equivariant
    for name, z in bar_basis(window, margin=True):
        lhs = map_i(datum, x_action_bar(z, win))
        rhs = x_action_check(datum, map_i(datum, z))
        rep.fail_unless_zero("i∘x = x∘i", name,
                             check_residual(check_sub(lhs, rhs), window))
    for name, e in hat_basis(datum, window, margin=True):
        lhs = map_p(datum, x_action_hat(datum, e, win), win)
        rhs = x_action_bar(map_p(datum, e, win), win)
        rep.fail_unless_zero("p∘x = x∘p", name, bar_residual(bar_sub(lhs, rhs), window))
    if not rep.ok:
        return rep

    # (3) j commutes with x up to the homotopy h
    for name, e in check_basis(datum, window, margin=True):
        lhs = hat_sub(map_j(x_action_check(datum, e)),
                      x_action_hat(datum, map_j(e), win))
        rhs = hat_add(hat_d(datum, htpy_h(e)), htpy_h(check_d(datum, e, win)))
        rep.fail_unless_zero("j∘x - x∘j = hat_d∘h + h∘check_d", name,
                             hat_residual(hat_sub(lhs, rhs), window))
    if not rep.ok:
        return rep

    # (4) null-homotopy identities for the splitting maps
    for name, e in check_basis(datum, window, margin=False):
        r = bar_residual(
            bar_add(map_p(datum, map_j(e), win), htpy_k(check_d(datum, e, win))),
            window)
        rep.fail_unless_zero("p∘j + k∘check_d = 0", name, r)
    for name, e in hat_basis(datum, window, margin=False):
        total = check_add(
            map_i(datum, map_p(datum, e, win)),
            check_add(htpy_l(datum, hat_d(datum, e)),
                      check_d(datum, htpy_l(datum, e), win)))
        rep.fail_unless_zero("i∘p + l∘hat_d + check_d∘l = 0", name,
                             check_residual(total, window))
    for name, z in bar_basis(window, margin=False):
        r = hat_add(map_j(map_i(datum, z)), hat_d(datum, htpy_r(z)))
        rep.fail_unless_zero("j∘i + hat_d∘r = 0", name, r)
    if not rep.ok:
        return rep

    # (5) the splitting composites are the grading involution epsilon
    for name, e in check_basis(datum, window, margin=False):
        r = check_sub(check_add(htpy_l(datum, map_j(e)), map_i(datum, htpy_k(e))),
                      CheckElement(_grading_sign(datum, e.chain), vec_neg(e.tail)))
        rep.fail_unless_zero("l∘j + i∘k = ε", name,
                             CheckElement(r.chain, _restrict_x(r.tail, -window.T, -1)))
    for name, e in hat_basis(datum, window, margin=False):
        r = hat_sub(hat_add(htpy_r(map_p(datum, e, win)), map_j(htpy_l(datum, e))),
                    HatElement(_grading_sign(datum, e.chain), e.poly))
        rep.fail_unless_zero("r∘p + j∘l = ε", name, hat_residual(r, window))
    for name, z in bar_basis(window, margin=False):
        r = bar_sub(bar_add(htpy_k(map_i(datum, z)), map_p(datum, htpy_r(z), win)),
                    BarElement({i: a if i >= 0 else -a for i, a in z.coeffs.items()}))
        rep.fail_unless_zero("k∘i + p∘r = ε", name,
                             BarElement(_restrict_x(r.coeffs, -window.T, window.N)))
    return rep
