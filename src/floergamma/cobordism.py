"""Cobordism-induced maps between chain data and their verification.

A cobordism datum carries the maps of `COBORDISM_MAPS` (phi, the
correction mu and the boundary corrections delta1 and delta2, read as in
`floer_datum`) and the positive integer c counting the first integral
homology of the cobordism.  Its extended map λ̃ is
`extended(cob, COBORDISM_MAPS, c, 1)`: verify_tilde_chain_map checks
λ̃∘d̃ = d̃'∘λ̃ block by block (`CHAIN_MAP_BLOCKS`) and compose_tilde reads
back λ̃'∘λ̃.  The induced maps on the three equivariant complexes, the
homotopies measuring their x-equivariance and their compatibility with
the triangle maps are implemented from the same data and verified on
window bases, each image built once and a residual only where two sides
differ.  Its JSON object holds "source" and "target" (datum paths or
fixture names), "c" and the maps in the `floer_datum` format.  A target
naming the same path as the source is that same datum object, read and
validated once, and each Gamma of a gamma comparison is then solved once.
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
    map_i,
    map_j,
    map_p,
    mdeg_bar,
    mdeg_check,
    mdeg_hat,
    once,
    orbit_tail,
    residual,
    x_action_bar,
    x_action_check,
    x_action_hat,
)
from .floer_datum import (
    DATUM_MAPS,
    FloerDatum,
    InputError,
    LambdaMatrix,
    Record,
    Report,
    Vector,
    apply_column,
    apply_row,
    block_report,
    check_keys,
    extended,
    grading_report,
    json_field,
    kept_orbit,
    load_datum,
    map_from_json,
    map_to_json,
    read_json,
    store_maps,
    vec_add,
    vec_sub,
    validate,
    weighted_sum,
)
from .gamma import eta_lower_bound, gamma_values
from .novikov import INF, NovikovElement, lincomb

#: The maps of a cobordism, as `floer_datum.DATUM_MAPS`.
COBORDISM_MAPS = (("phi", "", 0), ("mu", "", 3), ("delta1", "from", 1), ("delta2", "to", 4))


class CobordismDatum(Record):
    """The cobordism maps; `_ladders` keeps each source generator's ladder under
    its name and the d2-ladder under None (`_ladder`), each ending at its
    first zero state, and `_kept` the correction series (`_series`) and basis
    images (`_images`), so the maps must not change once either is read.

    A `Record` over the constructor's fields, not the kept ones; it is
    mutable, so not hashable.
    """

    __slots__ = ("source", "target", "phi", "mu", "delta1", "delta2", "c", "_ladders", "_kept")
    _FIELDS = __slots__[:-2]
    __hash__ = None

    def __init__(self, source: FloerDatum, target: FloerDatum, phi: LambdaMatrix,
                 mu: LambdaMatrix, delta1: dict[str, NovikovElement],
                 delta2: dict[str, NovikovElement], c: int):
        if c < 1:
            raise InputError("c must be a positive integer")
        self.source, self.target, self.c = source, target, c
        self._ladders: dict = {}
        self._kept: dict = {}
        store_maps(self, COBORDISM_MAPS, [phi, mu, delta1, delta2], source, target)


def validate_cobordism(cob: CobordismDatum) -> Report:
    """The grading rule of every map entry plus endpoint validity.

    An endpoint whose `valid` is set passed validate in `require_valid`
    and is not checked again; a target that is the source is validated
    once and reported for both ends.
    """
    rep = Report()
    for d, side in ((cob.source, "source"), (cob.target, "target")):
        if side == "source" or d is not cob.source:
            failures = [] if d.valid else validate(d).failures
        for msg in failures:
            rep.fail(f"{side} datum: {msg}")
    grading_report(rep, COBORDISM_MAPS, cob, cob.source, cob.target)
    return rep


#: (message, sign) of λ̃∘d̃ - d̃'∘λ̃ per block (`floer_datum.block_report`).
CHAIN_MAP_BLOCKS = (("identity (1) phi∘d = d'∘phi fails at {}: {}", 1),
                    ("identity (2) d1'∘phi = delta1∘d + c·d1 fails at {}: {}", -1),
                    ("identity (4) phi∘u - u'∘phi = d2'∘delta1 - d'∘mu - mu∘d"
                     " - delta2∘d1 fails at {}: {}", 1),
                    ("identity (3) phi∘d2 = c·d2' - d'∘delta2 fails at {}: {}", 1))


def verify_tilde_chain_map(cob: CobordismDatum) -> Report:
    """λ̃∘d̃ = d̃'∘λ̃ block by block, once validate_cobordism passes."""
    rep = validate_cobordism(cob)
    if not rep.ok:
        return rep
    lt = extended(cob, COBORDISM_MAPS, cob.c, 1)
    dt, dt_target = (extended(end, DATUM_MAPS, 0, -1) for end in (cob.source, cob.target))

    def residual(d_image, l_image):
        (a, r, b), (a2, r2, b2) = lt(d_image), dt_target(l_image)
        return vec_sub(a, a2), r - r2, vec_sub(b, b2)

    return block_report(rep, CHAIN_MAP_BLOCKS, cob.source.names(), residual, dt, lt)


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


def _series(cob: CobordismDatum, depth: int) -> XPart:
    """correction_series, built once per depth and kept on the cobordism."""
    kept = cob._kept.setdefault("series", {})
    return kept[depth] if depth in kept else kept.setdefault(depth, correction_series(cob, depth))


def _xpart_mul(a: XPart, b: XPart, lo: int, hi: int) -> XPart:
    return lincomb((ai, {i + j: bj for j, bj in b.items() if lo <= i + j <= hi})
                   for i, ai in a.items())


def hat_map(cob: CobordismDatum, e: XElement) -> XElement:
    """Induced map on the "from" complex: (phi alpha + sum a_i W_i, poly·S)."""
    depth = max(e.x, default=0)
    chain = vec_add(cob.phi.apply(e.chain), _weighted_rungs(cob, e.x))
    return XElement(chain, _xpart_mul(e.x, _series(cob, depth), 0, depth))


def check_map(cob: CobordismDatum, e: XElement, window: Window) -> XElement:
    """Induced map on the "to" complex: (phi alpha, tail of alpha + tail·S)."""
    depth = window.T
    tail = vec_add(_chain_tail(cob, e.chain, depth),
                   _xpart_mul(e.x, _series(cob, depth), -depth, -1))
    return XElement(cob.phi.apply(e.chain), tail)


def bar_map(cob: CobordismDatum, z: XElement, window: Window) -> XElement:
    """Multiplication by the correction series, truncated to the window."""
    series = _series(cob, window.T + window.N + 1)
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


def _images(cob: CobordismDatum, window: Window) -> tuple:
    """`once` for hat_map, check_map and bar_map on the window, kept on `cob`."""
    kept = cob._kept.setdefault(window, ({}, {}, {}))
    return (once(lambda e: hat_map(cob, e), kept[0]),
            once(lambda e: check_map(cob, e, window), kept[1]),
            once(lambda z: bar_map(cob, z, window), kept[2]))


def _functoriality_checks(cob: CobordismDatum, window: Window):
    """(identity, basis name, residual) of every functoriality identity, in stage order."""
    src, tgt = cob.source, cob.target
    lo, hi = -window.T + 2, window.N
    H, C, B = _images(cob, window)
    hd, cd = once(lambda e: hat_d(src, e), {}), once(lambda e: check_d(src, e, window), {})

    # (1) the three maps are chain maps
    for name, e in hat_basis(src, window, margin=False):
        yield ("hat_d'∘hat_map = hat_map∘hat_d", name,
               residual(hat_d(tgt, H(name, e)), hat_map(cob, hd(name, e)), lo, hi))
    for name, e in check_basis(src, window, margin=False):
        lhs = check_d(tgt, C(name, e), window)
        yield ("check_d'∘check_map = check_map∘check_d", name,
               residual(lhs, check_map(cob, cd(name, e), window), lo, hi))

    # (2) bar_map is x-linear
    for name, z in bar_basis(window, margin=True):
        lhs, rhs = bar_map(cob, x_action_bar(z, window), window), x_action_bar(B(name, z), window)
        yield "bar_map∘x = x∘bar_map", name, residual(lhs, rhs, lo, hi)

    # (3) x-equivariance of hat_map and check_map up to homotopy
    for name, e in hat_basis(src, window, margin=True):
        lhs = x_action_hat(tgt, H(name, e), window) - hat_map(cob, x_action_hat(src, e, window))
        rhs = htpy_hat_x(cob, hd(name, e)) + hat_d(tgt, htpy_hat_x(cob, e))
        yield ("x∘hat_map - hat_map∘x = K∘hat_d + hat_d'∘K", name,
               residual(lhs, rhs, lo, hi))
    for name, e in check_basis(src, window, margin=True):
        lhs = x_action_check(tgt, C(name, e)) - check_map(cob, x_action_check(src, e), window)
        rhs = htpy_check_x(cob, cd(name, e)) + check_d(tgt, htpy_check_x(cob, e), window)
        yield ("x∘check_map - check_map∘x = L∘check_d + check_d'∘L", name,
               residual(lhs, rhs, lo, hi))

    # (4) p'∘hat_map - bar_map∘p = K∘hat_d
    for name, e in hat_basis(src, window, margin=False):
        lhs = map_p(tgt, H(name, e), window) - bar_map(cob, map_p(src, e, window), window)
        yield ("p'∘hat_map - bar_map∘p = K∘hat_d", name,
               residual(lhs, htpy_p(cob, hd(name, e), window), lo, hi))

    # (5) j'∘check_map = hat_map∘j exactly
    for name, e in check_basis(src, window, margin=False):
        yield ("j'∘check_map = hat_map∘j", name,
               residual(map_j(C(name, e)), hat_map(cob, map_j(e)), lo, hi))

    # (6) i'∘bar_map - check_map∘i = check_d'∘L
    for name, z in bar_basis(window, margin=False):
        lhs = map_i(tgt, B(name, z)) - check_map(cob, map_i(src, z), window)
        yield ("i'∘bar_map - check_map∘i = check_d'∘L", name,
               residual(lhs, check_d(tgt, htpy_i(cob, z), window), lo, hi))


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
    lo, hi = -window.T + 2, window.N
    H, C, B = _images(cob, window)
    images = ((hat_basis(cob.source, window, margin=False), H, mdeg_hat),
              (check_basis(cob.source, window, margin=False), C, mdeg_check),
              (bar_basis(window, margin=False), B, mdeg_bar))
    return min((mdeg(image(name, e).restrict(lo, hi)) - mdeg(e)
                for basis, image, mdeg in images for name, e in basis), default=INF)


# ---------------------------------------------------------------------------
# Composition and gamma comparison
# ---------------------------------------------------------------------------

def compose_tilde(first: CobordismDatum, second: CobordismDatum) -> CobordismDatum:
    """Chain-level composite (second after first): λ̃'∘λ̃ read back block by
    block, phi'' from A->A, delta1'' from A->R, mu'' from A->B and delta2''
    from R->B, with c'' = c·c'."""
    if first.target is not second.source and not first.target.structurally_equal(second.source):
        raise InputError("composition mismatch: first.target != second.source")
    lt, lt2 = (extended(cob, COBORDISM_MAPS, cob.c, 1) for cob in (first, second))
    phi, mu, delta1 = {}, {}, {}
    for g in first.source.names():
        a, delta1[g], b = lt2(lt.image(g))
        phi.update(((g, h), el) for h, el in a.items())
        mu.update(((g, h), el) for h, el in b.items())
    return CobordismDatum(first.source, second.target, LambdaMatrix(phi), LambdaMatrix(mu),
                          delta1, lt2(lt.image(None))[2], first.c * second.c)


def gamma_comparison(cob: CobordismDatum, k_min: int, k_max: int) -> dict:
    """Per-k check of the expected direction of gamma under the cobordism.

    For k >= 1 the bound is gamma_target(k) <= gamma_source(k); for
    k <= 0 it weakens to gamma_target(k) <= max(gamma_source(k), 0).
    Also reports the arithmetic eta lower bound when both spectra are
    nonempty.  Each end is validated and read through `gamma_values`, so
    its k >= 1 take one tower walk per parity, and a target that is the
    source is read once.
    """
    ends = (cob.source,) if cob.target is cob.source else (cob.source, cob.target)
    profiles = gamma_values(k_min, k_max, *ends)
    rows = []
    all_ok = True
    for (k, gs), (_, gt) in zip(profiles[0], profiles[-1]):
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
    """The cobordism of a JSON object; a target naming the source's path is the source."""
    check_keys(obj, {"source", "target", "c", *(key for key, _, _ in COBORDISM_MAPS)},
               "cobordism")
    path = json_field(obj, "source", str, "cobordism")
    source = load_datum(path)
    target_path = json_field(obj, "target", str, "cobordism")
    target = source if target_path == path else load_datum(target_path)
    return CobordismDatum(source, target,
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
