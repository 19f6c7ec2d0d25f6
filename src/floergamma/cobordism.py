"""Cobordism-induced maps between chain data and their verification.

A cobordism datum carries the maps of `COBORDISM_MAPS` (phi, the
correction mu and the boundary corrections delta1 and delta2, read as in
`floer_datum`) and the positive integer c counting the first integral
homology of the cobordism.  Stacked as

    [[phi, 0, 0], [delta1, c, 0], [mu, delta2, phi]]

it must intertwine the extended differentials of source and target; the
four component identities of that equation are verified exactly.  The
induced maps on the three equivariant complexes, the homotopies
measuring their x-equivariance and their compatibility with the triangle
maps are implemented from the same data and verified on window bases.
Its JSON object holds "source" and "target" (datum paths or fixture
names), "c" and the maps in the `floer_datum` format.
"""

from __future__ import annotations

from fractions import Fraction

from .equivariant import (
    Window,
    XElement,
    XPart,
    bar_basis,
    check_basis,
    check_d,
    hat_basis,
    hat_d,
    inner_window,
    map_i,
    map_j,
    map_p,
    mdeg_bar,
    mdeg_check,
    mdeg_hat,
    orbit_tail,
    residual,
    x_action_bar,
    x_action_check,
    x_action_hat,
)
from .floer_datum import (
    FloerDatum,
    InputError,
    LambdaMatrix,
    Record,
    Report,
    ValidDatum,
    Vector,
    apply_column,
    apply_row,
    check_keys,
    grading_report,
    json_field,
    kept_orbit,
    load_datum,
    map_from_json,
    map_to_json,
    read_json,
    require_valid,
    store_maps,
    vec_add,
    vec_sub,
    validate,
    weighted_sum,
)
from .gamma import eta_lower_bound, gamma
from .novikov import INF, NovikovElement, lincomb

#: The maps of a cobordism, as `floer_datum.DATUM_MAPS`.
COBORDISM_MAPS = (("phi", "", 0), ("mu", "", 3), ("delta1", "from", 1), ("delta2", "to", 4))


class CobordismDatum(Record):
    """The cobordism maps; `_ladders` keeps each source generator's ladder under
    its name and the d2-ladder under None (`_ladder`), each ending at its
    first zero state, so the maps must not change once a ladder is read.

    A `Record` over the constructor's fields, `_ladders` left out; it is
    mutable, so not hashable.
    """

    __slots__ = ("source", "target", "phi", "mu", "delta1", "delta2", "c", "_ladders")
    _FIELDS = __slots__[:-1]
    __hash__ = None

    def __init__(self, source: FloerDatum, target: FloerDatum, phi: LambdaMatrix,
                 mu: LambdaMatrix, delta1: dict[str, NovikovElement],
                 delta2: dict[str, NovikovElement], c: int):
        if c < 1:
            raise InputError("c must be a positive integer")
        self.source, self.target, self.c = source, target, c
        self._ladders: dict = {}
        store_maps(self, COBORDISM_MAPS, [phi, mu, delta1, delta2], source, target)


def identity_cobordism(datum: FloerDatum) -> CobordismDatum:
    phi = LambdaMatrix()
    for g in datum.names():
        phi.set(g, g, NovikovElement.one())
    return CobordismDatum(datum, datum, phi, LambdaMatrix(), {}, {}, 1)


def validate_cobordism(cob: CobordismDatum) -> Report:
    """The grading rule of every map entry plus endpoint validity.

    An endpoint that is a ValidDatum passed validate when it was built.
    """
    rep = Report()
    for d, side in ((cob.source, "source"), (cob.target, "target")):
        for msg in [] if isinstance(d, ValidDatum) else validate(d).failures:
            rep.fail(f"{side} datum: {msg}")
    grading_report(rep, COBORDISM_MAPS, cob, cob.source, cob.target)
    return rep


def verify_tilde_chain_map(cob: CobordismDatum) -> Report:
    """The four component identities of the extended chain-map equation.

    (1) phi∘d = d'∘phi
    (2) d1'∘phi = delta1∘d + c·d1
    (3) phi∘d2 = c·d2' - d'∘delta2
    (4) phi∘u - u'∘phi = d2'∘delta1 - d'∘mu - mu∘d - delta2∘d1

    Each is read off a generator's stored phi, mu, d and u rows and d1 and
    delta1 entries; a generator with none is skipped (all residuals zero).
    """
    rep = validate_cobordism(cob)
    if not rep.ok:
        return rep
    src, tgt, zero = cob.source, cob.target, NovikovElement.zero()
    for g in src.names():
        d_g, u_g, phi_g, mu_g = src.d.row(g), src.u.row(g), cob.phi.row(g), cob.mu.row(g)
        d1_g, delta1_g = src.d1.get(g, zero), cob.delta1.get(g, zero)
        if not (d_g or u_g or phi_g or mu_g or d1_g or delta1_g):
            continue
        r1 = vec_sub(cob.phi.apply(d_g), tgt.apply_d(phi_g))
        for h, el in sorted(r1.items()):
            rep.fail(f"identity (1) phi∘d = d'∘phi fails at {g}->{h}: {el}")
        lhs2 = tgt.apply_d1(phi_g)
        rhs2 = apply_row(cob.delta1, d_g) + cob.c * d1_g
        if lhs2 != rhs2:
            rep.fail(f"identity (2) d1'∘phi = delta1∘d + c·d1 fails at {g}: "
                     f"{lhs2 - rhs2}")
        r4 = lincomb(((None, cob.phi.apply(u_g)), (-1, tgt.apply_u(phi_g)),
                      (-delta1_g, tgt.d2), (None, tgt.apply_d(mu_g)),
                      (None, cob.mu.apply(d_g)), (d1_g, cob.delta2)))
        for h, el in sorted(r4.items()):
            rep.fail("identity (4) phi∘u - u'∘phi = d2'∘delta1 - d'∘mu - mu∘d"
                     f" - delta2∘d1 fails at {g}->{h}: {el}")
    r3 = lincomb(((None, cob.phi.apply(src.d2)), (-cob.c, tgt.d2),
                  (None, tgt.apply_d(cob.delta2))))
    for h, el in sorted(r3.items()):
        rep.fail(f"identity (3) phi∘d2 = c·d2' - d'∘delta2 fails at ->{h}: {el}")
    return rep


# ---------------------------------------------------------------------------
# Equivariant cobordism maps
# ---------------------------------------------------------------------------

def _ladder(cob: CobordismDatum, key, depth: int) -> list[tuple[NovikovElement, Vector]]:
    """[(delta1(v_m) + d1'(L_m), L_m) for m < depth] along one kept ladder.

    States (v_m, L_m) = (u^m vec, L_m) step by L_(m+1) = u'(L_m) + mu(v_m),
    so L_m = u'^m L_0 + sum_{k<m} u'^(m-1-k) mu u^k vec: Horner's rule for
    the mu double sum of every induced map.  Read m's first entry is the
    coefficient of x^-(m+1) in the tail.  Under a source generator g the
    ladder starts at (g, 0) and gives g's tail; under None it is the
    d2-ladder from (d2(1), delta2(1)), giving the correction series and
    the chain weights W_i = L_i of the polynomial slots (`kept_orbit`).
    """
    src, tgt, one = cob.source, cob.target, NovikovElement.one()
    return kept_orbit(
        cob._ladders, key, depth,
        lambda: ((src.apply_d2(one), apply_column(cob.delta2, one)) if key is None
                 else (src.basis_vector(key), {})),
        lambda s: (src.apply_u(s[0]), vec_add(tgt.apply_u(s[1]), cob.mu.apply(s[0]))),
        lambda s: (apply_row(cob.delta1, s[0]) + tgt.apply_d1(s[1]), s[1]))


def _chain_tail(cob: CobordismDatum, vec: Vector, depth: int) -> XPart:
    """The tail of a source chain down to x^-depth: its generators' tails, summed."""
    return orbit_tail(vec, lambda g: [lam for lam, _ in _ladder(cob, g, depth)])


def _weighted_rungs(cob: CobordismDatum, part: XPart) -> Vector:
    """sum_{i>=0} a_i W_i, where W_i = L_i of the d2-ladder."""
    ladder = _ladder(cob, None, max(part, default=-1) + 1)
    return weighted_sum([rung for _, rung in ladder], part)


def correction_series(cob: CobordismDatum, depth: int) -> XPart:
    """The multiplier series S: c plus the tail of the d2-ladder, down to x^-depth."""
    return {0: NovikovElement.term(cob.c, 0),
            **{-m - 1: lam for m, (lam, _) in enumerate(_ladder(cob, None, depth)) if lam}}


def _xpart_mul(a: XPart, b: XPart, lo: int, hi: int) -> XPart:
    return lincomb((ai, {i + j: bj for j, bj in b.items() if lo <= i + j <= hi})
                   for i, ai in a.items())


def hat_map(cob: CobordismDatum, e: XElement) -> XElement:
    """Induced map on the "from" complex: (phi alpha + sum a_i W_i, poly·S)."""
    depth = max(e.x, default=0)
    chain = vec_add(cob.phi.apply(e.chain), _weighted_rungs(cob, e.x))
    return XElement(chain, _xpart_mul(e.x, correction_series(cob, depth), 0, depth))


def check_map(cob: CobordismDatum, e: XElement, window: Window) -> XElement:
    """Induced map on the "to" complex: (phi alpha, tail of alpha + tail·S)."""
    depth = window.T
    tail = vec_add(_chain_tail(cob, e.chain, depth),
                   _xpart_mul(e.x, correction_series(cob, depth), -depth, -1))
    return XElement(cob.phi.apply(e.chain), tail)


def bar_map(cob: CobordismDatum, z: XElement, window: Window) -> XElement:
    """Multiplication by the correction series, truncated to the window."""
    depth = window.T + max(window.N, 0) + 1
    series = correction_series(cob, depth)
    return XElement({}, _xpart_mul(z.x, series, -window.T, window.N))


# Homotopies for the functoriality identities.

def htpy_hat_x(cob: CobordismDatum, e: XElement) -> XElement:
    """K(alpha, p) = (mu(alpha), delta1(alpha))."""
    return XElement(cob.mu.apply(e.chain), {0: apply_row(cob.delta1, e.chain)})


def htpy_check_x(cob: CobordismDatum, e: XElement) -> XElement:
    """L(alpha, tail) = (mu(alpha) + delta2(a_-1), 0)."""
    return XElement(vec_add(cob.mu.apply(e.chain),
                            apply_column(cob.delta2, e.x.get(-1, NovikovElement.zero()))))


def htpy_p(cob: CobordismDatum, e: XElement, window: Window) -> XElement:
    """K(alpha, p) = the tail of alpha, in the bar complex."""
    return XElement({}, _chain_tail(cob, e.chain, window.T))


def htpy_i(cob: CobordismDatum, z: XElement) -> XElement:
    """L(z) = (sum_{i>=0} a_i W_i, 0)."""
    return XElement(_weighted_rungs(cob, z.x))


def _functoriality_checks(cob: CobordismDatum, window: Window):
    """(identity, basis name, residual) of every functoriality identity, in stage order."""
    src, tgt = cob.source, cob.target
    win = inner_window(window)

    # (1) the three maps are chain maps
    for name, e in hat_basis(src, window, margin=False):
        lhs = hat_d(tgt, hat_map(cob, e))
        rhs = hat_map(cob, hat_d(src, e))
        yield "hat_d'∘hat_map = hat_map∘hat_d", name, residual(lhs - rhs, window)
    for name, e in check_basis(src, window, margin=False):
        lhs = check_d(tgt, check_map(cob, e, win), win)
        rhs = check_map(cob, check_d(src, e, win), win)
        yield "check_d'∘check_map = check_map∘check_d", name, residual(lhs - rhs, window)

    # (2) bar_map is x-linear
    for name, z in bar_basis(window, margin=True):
        lhs = bar_map(cob, x_action_bar(z, win), win)
        rhs = x_action_bar(bar_map(cob, z, win), win)
        yield "bar_map∘x = x∘bar_map", name, residual(lhs - rhs, window)

    # (3) x-equivariance of hat_map and check_map up to homotopy
    for name, e in hat_basis(src, window, margin=True):
        lhs = (x_action_hat(tgt, hat_map(cob, e), win)
               - hat_map(cob, x_action_hat(src, e, win)))
        rhs = htpy_hat_x(cob, hat_d(src, e)) + hat_d(tgt, htpy_hat_x(cob, e))
        yield ("x∘hat_map - hat_map∘x = K∘hat_d + hat_d'∘K", name,
               residual(lhs - rhs, window))
    for name, e in check_basis(src, window, margin=True):
        lhs = (x_action_check(tgt, check_map(cob, e, win))
               - check_map(cob, x_action_check(src, e), win))
        rhs = htpy_check_x(cob, check_d(src, e, win)) + check_d(tgt, htpy_check_x(cob, e), win)
        yield ("x∘check_map - check_map∘x = L∘check_d + check_d'∘L", name,
               residual(lhs - rhs, window))

    # (4) p'∘hat_map - bar_map∘p = K∘hat_d
    for name, e in hat_basis(src, window, margin=False):
        lhs = map_p(tgt, hat_map(cob, e), win) - bar_map(cob, map_p(src, e, win), win)
        rhs = htpy_p(cob, hat_d(src, e), win)
        yield "p'∘hat_map - bar_map∘p = K∘hat_d", name, residual(lhs - rhs, window)

    # (5) j'∘check_map = hat_map∘j exactly
    for name, e in check_basis(src, window, margin=False):
        lhs = map_j(check_map(cob, e, win))
        rhs = hat_map(cob, map_j(e))
        yield "j'∘check_map = hat_map∘j", name, residual(lhs - rhs, window)

    # (6) i'∘bar_map - check_map∘i = check_d'∘L
    for name, z in bar_basis(window, margin=False):
        lhs = map_i(tgt, bar_map(cob, z, win)) - check_map(cob, map_i(src, z), win)
        rhs = check_d(tgt, htpy_i(cob, z), win)
        yield "i'∘bar_map - check_map∘i = check_d'∘L", name, residual(lhs - rhs, window)


def functoriality_report(cob: CobordismDatum, window: Window) -> Report:
    """The first failing chain-map, x-equivariance or triangle-compatibility
    identity, for a cobordism that passes verify_tilde_chain_map."""
    rep = Report()
    rep.first_nonzero(_functoriality_checks(cob, window))
    return rep


def verify_functoriality(cob: CobordismDatum, window: Window) -> Report:
    """functoriality_report, once verify_tilde_chain_map passes.

    A failure of verify_tilde_chain_map is reported as a precondition
    failure rather than an identity report.
    """
    pre = verify_tilde_chain_map(cob)
    if pre.ok:
        return functoriality_report(cob, window)
    rep = Report()
    rep.fail(f"precondition: extended chain-map identities fail ({pre.failures[0]})")
    return rep


def mdeg_decay(cob: CobordismDatum, window: Window):
    """Observed minimum of mdeg(image) - mdeg(input) over window bases.

    Reports the measured decay of the three equivariant maps; +inf when
    every basis image vanishes.
    """
    win = inner_window(window)
    worst = INF
    for _, e in hat_basis(cob.source, window, margin=False):
        worst = min(worst, mdeg_hat(residual(hat_map(cob, e), window)) - mdeg_hat(e))
    for _, e in check_basis(cob.source, window, margin=False):
        worst = min(worst, mdeg_check(residual(check_map(cob, e, win), window)) - mdeg_check(e))
    for _, z in bar_basis(window, margin=False):
        worst = min(worst, mdeg_bar(residual(bar_map(cob, z, win), window)) - mdeg_bar(z))
    return worst


# ---------------------------------------------------------------------------
# Composition and gamma comparison
# ---------------------------------------------------------------------------

def compose_tilde(first: CobordismDatum, second: CobordismDatum) -> CobordismDatum:
    """Chain-level composite (second after first) of the extended maps.

    Formulas follow from multiplying the two triangular map matrices:
    phi'' = phi'∘phi, delta1'' = delta1'∘phi + c'·delta1,
    delta2'' = phi'∘delta2 + c·delta2', mu'' = mu'∘phi + delta2'∘delta1
    + phi'∘mu, c'' = c·c'.
    """
    if not first.target.structurally_equal(second.source):
        raise InputError("composition mismatch: first.target != second.source")
    phi, mu, delta1, zero = LambdaMatrix(), LambdaMatrix(), {}, NovikovElement.zero()
    for g in first.source.names():
        phi_g, mu_g, delta1_g = first.phi.row(g), first.mu.row(g), first.delta1.get(g, zero)
        if not (phi_g or mu_g or delta1_g):
            continue
        for h, el in second.phi.apply(phi_g).items():
            phi.set(g, h, el)
        acc = lincomb(((None, second.mu.apply(phi_g)), (delta1_g, second.delta2),
                       (None, second.phi.apply(mu_g))))
        for h, el in acc.items():
            mu.set(g, h, el)
        delta1[g] = apply_row(second.delta1, phi_g) + second.c * delta1_g
    delta2 = lincomb(((None, second.phi.apply(first.delta2)), (first.c, second.delta2)))
    return CobordismDatum(first.source, second.target, phi, mu,
                          delta1, delta2, first.c * second.c)


def gamma_comparison(cob: CobordismDatum, k_min: int, k_max: int) -> dict:
    """Per-k check of the expected direction of gamma under the cobordism.

    For k >= 1 the bound is gamma_target(k) <= gamma_source(k); for
    k <= 0 it weakens to gamma_target(k) <= max(gamma_source(k), 0).
    Also reports the arithmetic eta lower bound when both spectra are
    nonempty.
    """
    source, target = require_valid(cob.source), require_valid(cob.target)
    rows = []
    all_ok = True
    for k in range(k_min, k_max + 1):
        gs = gamma(source, k)
        gt = gamma(target, k)
        bound = gs if k >= 1 else max(gs, Fraction(0))
        ok = gt <= bound
        all_ok = all_ok and ok
        rows.append({"k": k, "source": gs, "target": gt, "ok": ok})
    eta = None
    if cob.source.generators and cob.target.generators:
        eta = eta_lower_bound(cob.source, cob.target)
    return {"rows": rows, "nonincreasing": all_ok, "eta_lower_bound": eta}


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------

def cobordism_from_json(obj) -> CobordismDatum:
    check_keys(obj, {"source", "target", "c", *(key for key, _, _ in COBORDISM_MAPS)},
               "cobordism")
    return CobordismDatum(load_datum(json_field(obj, "source", str, "cobordism")),
                          load_datum(json_field(obj, "target", str, "cobordism")),
                          *(map_from_json(obj, key, end) for key, end, _ in COBORDISM_MAPS),
                          json_field(obj, "c", int, "cobordism"))


def cobordism_to_json(cob: CobordismDatum) -> dict:
    return {
        "source": cob.source.name,
        "target": cob.target.name,
        "c": cob.c,
        **{key: map_to_json(getattr(cob, key), end) for key, end, _ in COBORDISM_MAPS},
    }


def load_cobordism(path_or_name: str) -> CobordismDatum:
    return cobordism_from_json(read_json(path_or_name, "cobordism"))
