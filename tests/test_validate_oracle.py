"""`validate`, the extended chain-map check and `compose_tilde` against
basis-vector references in plain `Fraction` arithmetic.

The references apply each map to the basis vector of every generator and
decide the weight rule by building lift(src) + e - lift(dst), as the
package did before it read the stored rows and took the weight test in
integers.  They must agree message for message, in order, on the
fixtures, on generated data and on corrupted copies of both.
"""

from fractions import Fraction
from random import Random

from hypothesis import given, settings, strategies as st

from floergamma.cobordism import (
    CobordismDatum,
    compose_tilde,
    identity_cobordism,
    validate_cobordism,
    verify_tilde_chain_map,
)
from floergamma.floer_datum import (
    DATUM_MAPS,
    FloerDatum,
    Generator,
    LambdaMatrix,
    Report,
    apply_row,
    entry_label,
    grading_report,
    load_datum,
    map_entries,
    validate,
    validate_homogeneity,
    vec_add,
    vec_sub,
)
from floergamma.novikov import NovikovElement, lincomb

from datagen import bundled_fixtures, random_datum, random_lift, transformed_datum

COEFFS = (-2, -1, 1, 2)


# -- the references ------------------------------------------------------------

def reference_tilde_failures(datum: FloerDatum) -> list[str]:
    failures = []
    for g in datum.names():
        basis = datum.basis_vector(g)
        for h, el in sorted(datum.apply_d(datum.apply_d(basis)).items()):
            failures.append(f"d∘d != 0 at {g}->{h}: residual {el}")
        d1d = datum.apply_d1(datum.apply_d(basis))
        if not d1d.is_zero():
            failures.append(f"d1∘d != 0 at {g}: residual {d1d}")
        lhs = vec_add(vec_sub(datum.apply_u(datum.apply_d(basis)),
                              datum.apply_d(datum.apply_u(basis))),
                      datum.apply_d2(datum.apply_d1(basis)))
        for h, el in sorted(lhs.items()):
            failures.append(f"u∘d - d∘u + d2∘d1 != 0 at {g}->{h}: residual {el}")
    for h, el in sorted(datum.apply_d(datum.apply_d2(NovikovElement.one())).items()):
        failures.append(f"d∘d2 != 0 at ->{h}: residual {el}")
    return failures


def reference_weight_failures(datum: FloerDatum) -> list[str]:
    failures = []
    for key, end, _ in DATUM_MAPS:
        for src, dst, el in map_entries(getattr(datum, key), end):
            offset = (datum.lift(src) if src else 0) - (datum.lift(dst) if dst else 0)
            for _, e in el.items():
                if (offset + e).denominator != 1:
                    failures.append(f"{entry_label(key, src, dst)}: exponent {e} "
                                    "breaks weight congruence")
    return failures


def reference_validate(datum: FloerDatum) -> list[str]:
    rep = Report()
    grading_report(rep, DATUM_MAPS, datum, datum, datum)
    return rep.failures + reference_tilde_failures(datum) + reference_weight_failures(datum)


def reference_chain_map_failures(cob: CobordismDatum) -> list[str]:
    rep = validate_cobordism(cob)
    if not rep.ok:
        return rep.failures
    failures, src, tgt = [], cob.source, cob.target
    for g in src.names():
        basis = src.basis_vector(g)
        d_g, phi_g, d1_g = src.apply_d(basis), cob.phi.apply(basis), src.apply_d1(basis)
        for h, el in sorted(vec_sub(cob.phi.apply(d_g), tgt.apply_d(phi_g)).items()):
            failures.append(f"identity (1) phi∘d = d'∘phi fails at {g}->{h}: {el}")
        lhs2 = tgt.apply_d1(phi_g)
        rhs2 = apply_row(cob.delta1, d_g) + cob.c * d1_g
        if lhs2 != rhs2:
            failures.append(f"identity (2) d1'∘phi = delta1∘d + c·d1 fails at {g}: "
                            f"{lhs2 - rhs2}")
        r4 = lincomb(((None, cob.phi.apply(src.apply_u(basis))), (-1, tgt.apply_u(phi_g)),
                      (-apply_row(cob.delta1, basis), tgt.d2),
                      (None, tgt.apply_d(cob.mu.apply(basis))), (None, cob.mu.apply(d_g)),
                      (d1_g, cob.delta2)))
        for h, el in sorted(r4.items()):
            failures.append("identity (4) phi∘u - u'∘phi = d2'∘delta1 - d'∘mu - mu∘d"
                            f" - delta2∘d1 fails at {g}->{h}: {el}")
    r3 = lincomb(((None, cob.phi.apply(src.d2)), (-cob.c, tgt.d2),
                  (None, tgt.apply_d(cob.delta2))))
    for h, el in sorted(r3.items()):
        failures.append(f"identity (3) phi∘d2 = c·d2' - d'∘delta2 fails at ->{h}: {el}")
    return failures


def reference_compose(first: CobordismDatum, second: CobordismDatum) -> CobordismDatum:
    phi, mu, delta1 = LambdaMatrix(), LambdaMatrix(), {}
    for g in first.source.names():
        basis = first.source.basis_vector(g)
        phi_g, delta1_g = first.phi.apply(basis), apply_row(first.delta1, basis)
        for h, el in second.phi.apply(phi_g).items():
            phi.set(g, h, el)
        acc = lincomb(((None, second.mu.apply(phi_g)), (delta1_g, second.delta2),
                       (None, second.phi.apply(first.mu.apply(basis)))))
        for h, el in acc.items():
            mu.set(g, h, el)
        delta1[g] = apply_row(second.delta1, phi_g) + second.c * delta1_g
    delta2 = lincomb(((None, second.phi.apply(first.delta2)), (first.c, second.delta2)))
    return CobordismDatum(first.source, second.target, phi, mu,
                          delta1, delta2, first.c * second.c)


# -- generated and corrupted data -----------------------------------------------

def random_entry(rng: Random, offset: Fraction) -> NovikovElement:
    """One or two terms; each exponent keeps the weight rule of an entry whose
    lift(dst) - lift(src) is `offset`, or, half the time, is random."""
    exps = {offset + rng.randint(-1, 1) if rng.random() < 0.5 else random_lift(rng)
            for _ in range(rng.choice((1, 1, 2)))}
    return NovikovElement((rng.choice(COEFFS), e) for e in exps)


def corrupted(rng: Random, datum: FloerDatum) -> FloerDatum:
    """A copy with 1-4 random extra (or replaced) d, u, d1 or d2 entries and
    shifted lifts."""
    gens, names = list(datum.generators), datum.names()
    maps = {"d": dict(datum.d.iter_pairs()), "u": dict(datum.u.iter_pairs()),
            "d1": dict(datum.d1), "d2": dict(datum.d2)}
    lift = {g.name: g.energy_lift for g in gens}
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("d", "d", "u", "d1", "d2", "lift"))
        g, h = rng.choice(names), rng.choice(names)
        if kind == "lift":
            i = rng.randrange(len(gens))
            gens[i] = Generator(gens[i].name, gens[i].grading,
                                gens[i].energy_lift + random_lift(rng))
        elif kind == "d1":
            maps[kind][g] = random_entry(rng, -lift[g])
        elif kind == "d2":
            maps[kind][h] = random_entry(rng, lift[h])
        else:
            maps[kind][g, h] = random_entry(rng, lift[h] - lift[g])
    return FloerDatum(datum.name, gens, LambdaMatrix(maps["d"]), LambdaMatrix(maps["u"]),
                      maps["d1"], maps["d2"])


def generated(rng: Random) -> FloerDatum:
    datum = random_datum(rng, max_gens=rng.randint(3, 9))
    return transformed_datum(rng, datum) if rng.random() < 0.7 else datum


def kinds(failures: list[str]) -> set[str]:
    """The identity or weight rule each message names."""
    return {m.split(" != ")[0] if " != " in m else m.split(" entry")[0] + " weight"
            for m in failures if "grading" not in m}


# -- validate ----------------------------------------------------------------------

def test_validate_matches_the_reference_on_fixtures_and_generated_data():
    data = [load_datum(name) for name, obj in bundled_fixtures() if "source" not in obj]
    rng = Random(2201)
    data += [generated(rng) for _ in range(40)]
    for datum in data:
        assert validate(datum).failures == reference_validate(datum) == []


def test_validate_matches_the_reference_on_corrupted_data():
    fixtures = [load_datum(name) for name, obj in bundled_fixtures()
                if "source" not in obj and obj["generators"]]
    rng = Random(2202)
    seen = set()
    for i in range(300):
        base = fixtures[i % len(fixtures)] if i % 5 == 0 else generated(rng)
        datum = corrupted(rng, base)
        failures = validate(datum).failures
        assert failures == reference_validate(datum), datum.name
        seen |= kinds(failures)
    assert seen == {"d∘d", "d1∘d", "u∘d - d∘u + d2∘d1", "d∘d2",
                    "d weight", "u weight", "d1 weight", "d2 weight"}


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_validate_matches_the_reference_property(rng):
    datum = corrupted(rng, generated(rng)) if rng.random() < 0.8 else generated(rng)
    assert validate(datum).failures == reference_validate(datum)


# -- the integer weight criterion ---------------------------------------------------

def _grid(bound: int) -> list[Fraction]:
    return sorted({Fraction(p, q) for p in range(-bound, bound + 1) for q in range(1, 13)})


def _weight_failures_match(gens, u=None, d1=None, d2=None) -> int:
    """The failures validate_homogeneity finds, checked against the reference."""
    datum = FloerDatum("grid", gens, LambdaMatrix(), u or LambdaMatrix(), d1 or {}, d2 or {})
    failures = validate_homogeneity(datum).failures
    assert failures == reference_weight_failures(datum)
    return len(failures)


def test_integer_weight_criterion_on_one_sided_maps_is_exhaustive():
    # every lift against every exponent, the other end being Λ with lift 0
    grid = _grid(30)
    assert Fraction(0) in grid
    every = NovikovElement((1, e) for e in grid)
    gens = [Generator(f"g{i}", 1, r) for i, r in enumerate(grid)]
    names = [g.name for g in gens]
    broken = _weight_failures_match(gens, d1=dict.fromkeys(names, every),
                                    d2=dict.fromkeys(names, every))
    # e passes exactly when e - lift is (d1) or e + lift is (d2) an integer
    kept = sum((e - r).denominator == 1 for r in grid for e in grid)
    assert broken == 2 * (len(grid) ** 2 - kept) and kept > len(grid)


def test_integer_weight_criterion_on_matrix_maps_is_exhaustive():
    # every ordered pair of lifts against every exponent, the lift difference unreduced
    grid = _grid(4)
    every = NovikovElement((1, e) for e in grid)
    gens = [Generator(f"g{i}", 0, r) for i, r in enumerate(grid)]
    pairs = {(a.name, b.name): every for a in gens for b in gens}
    assert 0 < _weight_failures_match(gens, u=LambdaMatrix(pairs)) < len(pairs) * len(grid)


# -- the extended chain map and its composite ---------------------------------------

def _random_extension(rng: Random, datum: FloerDatum) -> CobordismDatum:
    """The identity cobordism of datum with some phi entries dropped, random
    phi, mu, delta1 and delta2 entries of the right gradings added, and c of
    1 or 2."""
    gens, lift = datum.generators, {g.name: g.energy_lift for g in datum.generators}
    maps = {"phi": {gh: el for gh, el in identity_cobordism(datum).phi.iter_pairs()
                    if rng.random() < 0.7}, "mu": {}, "delta1": {}, "delta2": {}}
    for _ in range(rng.randint(0, 6)):
        kind, g = rng.choice(tuple(maps)), rng.choice(gens)
        want = {"phi": g.grading, "mu": (g.grading - 3) % 8, "delta1": 1, "delta2": 4}[kind]
        ends = [h for h in gens if h.grading == want]
        if not ends:
            continue
        h = rng.choice(ends)
        key = (g.name, h.name) if kind in ("phi", "mu") else h.name
        maps[kind][key] = random_entry(rng, lift[h.name] - lift[g.name])
    return CobordismDatum(datum, datum, LambdaMatrix(maps["phi"]), LambdaMatrix(maps["mu"]),
                          maps["delta1"], maps["delta2"], rng.choice((1, 1, 2)))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_chain_map_check_and_compose_match_their_references(rng):
    datum = generated(rng)
    first, second = _random_extension(rng, datum), _random_extension(rng, datum)
    for cob in (first, second):
        assert verify_tilde_chain_map(cob).failures == reference_chain_map_failures(cob)
    assert compose_tilde(first, second) == reference_compose(first, second)
