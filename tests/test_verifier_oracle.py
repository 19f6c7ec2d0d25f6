"""The window verifiers against their direct formulation.

`reference_triangle_checks`, `reference_functoriality_checks` and
`reference_mdeg_decay` rebuild every image an identity needs and subtract
its two sides in full, as the verifiers once did, and compute every tail
on a deeper window, W(2T+N+4, N).  The verifiers build each basis image
once and a residual only where two sides differ, and compute at W(T, N)
itself; both must yield the same (identity, basis name, repr(residual))
sequence on valid data, on arbitrary maps, on a u that is not nilpotent
and under injected faults, and leave the stored maps, kept orbits and
ladders as they found them.  That checks the band argument of
`equivariant`: truncating at x^-T leaves the compared slots exact.
"""

import contextlib
import copy
import sys
from fractions import Fraction
from random import Random
from unittest import mock

from hypothesis import given, settings, strategies as st

from floergamma import cobordism, equivariant
from floergamma.cobordism import (
    CobordismDatum,
    bar_map,
    check_map,
    hat_map,
    htpy_check_x,
    htpy_hat_x,
    htpy_i,
    htpy_p,
)
from floergamma.equivariant import (
    Window,
    XElement,
    _epsilon,
    bar_basis,
    check_basis,
    check_d,
    hat_basis,
    hat_d,
    htpy_h,
    htpy_k,
    htpy_l,
    htpy_r,
    map_i,
    map_j,
    map_p,
    mdeg_bar,
    mdeg_check,
    mdeg_hat,
    x_action_bar,
    x_action_check,
    x_action_hat,
)
from floergamma.floer_datum import FloerDatum, Generator, LambdaMatrix, apply_row, load_datum
from floergamma.novikov import INF, NovikovElement

from datagen import cyclic_u_datum, identity_cobordism, random_datum, transformed_datum


def deep(window: Window) -> Window:
    """A window deep enough that every tail slot >= -T of a composite is exact."""
    return Window(2 * window.T + window.N + 4, window.N)


def residual(e: XElement, window: Window) -> XElement:
    """The x-powers -T+2 .. N of an identity's two sides, where both are exact."""
    return e.restrict(-window.T + 2, window.N)


def reference_triangle_checks(datum: FloerDatum, window: Window):
    """(identity, basis name, residual) of every triangle identity, in stage order."""
    win = deep(window)

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


def reference_functoriality_checks(cob: CobordismDatum, window: Window):
    """(identity, basis name, residual) of every functoriality identity, in stage order."""
    src, tgt = cob.source, cob.target
    win = deep(window)

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


def reference_mdeg_decay(cob: CobordismDatum, window: Window):
    """Observed minimum of mdeg(image) - mdeg(input) over window bases."""
    win = deep(window)
    worst = INF
    for _, e in hat_basis(cob.source, window, margin=False):
        worst = min(worst, mdeg_hat(residual(hat_map(cob, e), window)) - mdeg_hat(e))
    for _, e in check_basis(cob.source, window, margin=False):
        worst = min(worst, mdeg_check(residual(check_map(cob, e, win), window)) - mdeg_check(e))
    for _, z in bar_basis(window, margin=False):
        worst = min(worst, mdeg_bar(residual(bar_map(cob, z, win), window)) - mdeg_bar(z))
    return worst


# -- inputs --------------------------------------------------------------------

def _el(rng: Random) -> NovikovElement:
    return NovikovElement.term(rng.choice((-2, -1, 1, 3)), Fraction(rng.randint(0, 3), 2))


def _matrix(rng: Random, rows: list[str], cols: list[str], p: float) -> LambdaMatrix:
    m = LambdaMatrix()
    for g in rows:
        for h in cols:
            if rng.random() < p:
                m.set(g, h, _el(rng))
    return m


def _column(rng: Random, names: list[str], p: float = 0.5) -> dict:
    return {g: _el(rng) for g in names if rng.random() < p}


def arbitrary_datum(rng: Random) -> FloerDatum:
    """Random d, u, d1 and d2 that satisfy no identity, so residuals are nonzero."""
    names = [f"g{i}" for i in range(rng.randint(1, 5))]
    gens = [Generator(g, rng.randrange(8), Fraction(rng.randint(-4, 4), 4)) for g in names]
    return FloerDatum("arbitrary", gens, _matrix(rng, names, names, 0.4),
                      _matrix(rng, names, names, 0.4), _column(rng, names), _column(rng, names))


def some_datum(rng: Random) -> FloerDatum:
    kind = rng.randrange(6)
    if kind < 3:
        return arbitrary_datum(rng)
    if kind == 3:
        return cyclic_u_datum()
    datum = random_datum(rng, max_gens=5)
    return transformed_datum(rng, datum) if kind == 4 else datum


def some_cobordism(rng: Random) -> CobordismDatum:
    """Arbitrary phi, mu, delta1, delta2 and c; an identity cobordism one time in four."""
    src = some_datum(rng)
    if rng.random() < 0.25:
        return identity_cobordism(src)
    tgt = some_datum(rng)
    return CobordismDatum(src, tgt, _matrix(rng, src.names(), tgt.names(), 0.3),
                          _matrix(rng, src.names(), tgt.names(), 0.3),
                          _column(rng, src.names()), _column(rng, tgt.names()), rng.randint(1, 3))


def some_window(rng: Random) -> Window:
    return Window(rng.randint(2, 6), rng.randint(1, 4))


# -- the faults the failure-line tests inject ----------------------------------

def _sign_flipped_k(e):
    return XElement({}, dict(e.x))


def _r_dropping_x0(z):
    return XElement({}, {i: a for i, a in z.x.items() if i >= 1})


def _phi_in_place_of_mu(cob, e):
    return XElement(cob.phi.apply(e.chain), {0: apply_row(cob.delta1, e.chain)})


FAULTS = {"k": (equivariant, "htpy_k", _sign_flipped_k),
          "r": (equivariant, "htpy_r", _r_dropping_x0),
          "phi": (cobordism, "htpy_hat_x", _phi_in_place_of_mu)}


@contextlib.contextmanager
def injected(fault):
    """Patch the fault into the verifier's module and into the references here."""
    with contextlib.ExitStack() as stack:
        if fault:
            module, name, replacement = FAULTS[fault]
            for target in (module, sys.modules[__name__]):
                stack.enter_context(mock.patch.object(target, name, replacement))
        yield


def sequence(checks) -> list[tuple[str, str, str]]:
    return [(identity, name, repr(res)) for identity, name, res in checks]


def stored(datum: FloerDatum) -> tuple:
    return datum.d, datum.u, datum.d1, datum.d2, datum._orbits


# -- the properties ------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([None, "k", "r"]))
def test_triangle_checks_match_the_reference(seed, fault):
    rng = Random(seed)
    datum, window = some_datum(rng), some_window(rng)
    with injected(fault):
        want = sequence(reference_triangle_checks(datum, window))
        before = copy.deepcopy(stored(datum))
        got = sequence(equivariant._triangle_checks(datum, window))
    assert got == want
    assert stored(datum) == before


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([None, "phi"]))
def test_functoriality_checks_and_mdeg_decay_match_the_reference(seed, fault):
    rng = Random(seed)
    cob, window = some_cobordism(rng), some_window(rng)
    with injected(fault):
        want = sequence(reference_functoriality_checks(cob, window))
        decay = reference_mdeg_decay(cob, window)
        before = copy.deepcopy((stored(cob.source), stored(cob.target), cob.phi, cob.mu,
                                cob.delta1, cob.delta2, cob.c, cob._ladders))
        got = sequence(cobordism._functoriality_checks(cob, window))
        assert cobordism.mdeg_decay(cob, window) == decay
        # a second call reads the images and series that the first kept
        assert cobordism.mdeg_decay(cob, window) == decay
    assert got == want
    assert (stored(cob.source), stored(cob.target), cob.phi, cob.mu, cob.delta1, cob.delta2,
            cob.c, cob._ladders) == before


def test_the_faults_change_the_sequence():
    # each fault breaks some identity on these inputs, so the properties
    # above compare nonzero residuals as well as zero ones
    datum, window = load_datum("s3"), Window(6, 4)
    clean = sequence(reference_triangle_checks(datum, window))
    for fault in ("k", "r"):
        with injected(fault):
            assert sequence(equivariant._triangle_checks(datum, window)) != clean
    cob = identity_cobordism(load_datum("neg_sigma_2_3_5"))
    clean = sequence(reference_functoriality_checks(cob, window))
    with injected("phi"):
        assert sequence(cobordism._functoriality_checks(cob, window)) != clean
