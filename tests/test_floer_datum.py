"""Datum validation, homogeneity, projections and the JSON contract."""

import json
from fractions import Fraction
from random import Random

import pytest

from floergamma.floer_datum import (
    FloerDatum,
    Generator,
    InputError,
    LambdaMatrix,
    datum_from_json,
    datum_to_json,
    load_datum,
    validate,
    validate_homogeneity,
    validate_structure,
    verify_tilde_differential,
)
from floergamma.novikov import NovikovElement

from datagen import (
    cyclic_u_datum,
    evaluate_at_one,
    project_homogeneous,
    random_datum,
    to_element,
    transformed_datum,
)


def nov(c, e):
    return NovikovElement.term(Fraction(c), Fraction(e))


@pytest.fixture(scope="module")
def sigma():
    return load_datum("sigma_2_3_5")


@pytest.fixture(scope="module")
def neg_sigma():
    return load_datum("neg_sigma_2_3_5")


def test_fixture_corpus_validates():
    for name in ("s3", "sigma_2_3_5", "neg_sigma_2_3_5", "remark_nonpositive",
                 "sigma_2_3_5_d1_zero"):
        rep = validate(load_datum(name))
        assert rep.ok, (name, rep.failures)


def test_structure_fails_on_broken_grading(sigma):
    gens = [Generator("alpha", 1, Fraction(-1, 120)),
            Generator("beta", 4, Fraction(-49, 120))]
    datum = FloerDatum("bad", gens, LambdaMatrix(), sigma.u, sigma.d1, {})
    rep = validate_structure(datum)
    assert not rep.ok
    assert any("u entry" in msg for msg in rep.failures)


def test_tilde_identities_single_arrow():
    gens = [Generator("g5", 5, Fraction(0)), Generator("g4", 4, Fraction(1, 3))]
    d = LambdaMatrix()
    d.set("g5", "g4", nov(1, "1/3"))
    datum = FloerDatum("arrow", gens, d, LambdaMatrix(), {}, {})
    assert verify_tilde_differential(datum).ok
    assert validate(datum).ok


def test_tilde_identities_remark_fixture():
    remark = load_datum("remark_nonpositive")
    assert verify_tilde_differential(remark).ok


def test_tilde_identity_failure_reported():
    gens = [Generator("a", 1, Fraction(-1, 2)), Generator("b", 4, Fraction(1, 2))]
    d1 = {"a": nov(1, "1/2")}
    d2 = {"b": nov(1, "1/2")}
    datum = FloerDatum("cross", gens, LambdaMatrix(), LambdaMatrix(), d1, d2)
    rep = verify_tilde_differential(datum)
    assert not rep.ok
    assert any("d2∘d1" in msg for msg in rep.failures)


def test_homogeneity_examples(sigma, neg_sigma):
    assert validate_homogeneity(sigma).ok
    assert Fraction(-49, 120) + Fraction(2, 5) == Fraction(-1, 120)
    assert validate_homogeneity(neg_sigma).ok
    broken = FloerDatum(
        "broken",
        [Generator("alpha", 1, Fraction(-1, 120)), Generator("beta", 5, Fraction(0))],
        LambdaMatrix(), sigma.u, sigma.d1, {})
    rep = validate_homogeneity(broken)
    assert not rep.ok
    assert any("u entry" in msg for msg in rep.failures)


def test_projection_examples(sigma):
    elem = {"alpha": nov(1, "-1/120") + nov(1, "7/8")}
    hv = project_homogeneous(sigma, elem, Fraction(0), 1)
    assert hv.coefficients == {"alpha": Fraction(1)}
    beta_elem = {"beta": nov(1, "-49/120")}
    assert project_homogeneous(sigma, beta_elem, Fraction(0), 1).is_zero()
    assert project_homogeneous(sigma, {}, Fraction(0), 1).is_zero()


def test_projection_round_trip(sigma):
    hv = project_homogeneous(sigma, {"beta": nov(5, "-49/120")}, Fraction(0), 5)
    assert to_element(hv, sigma) == {"beta": nov(5, "-49/120")}


def test_projection_commutes_with_maps():
    rng = Random(7)
    for _ in range(25):
        datum = random_datum(rng)
        names = datum.names()
        elem = {}
        for g in names:
            if rng.random() < 0.7:
                elem[g] = nov(rng.randint(-3, 3), datum.lift(g)) + \
                    nov(rng.randint(-2, 2), datum.lift(g) + 1)
        for res in range(8):
            proj = project_homogeneous(datum, elem, Fraction(0), res)
            lhs_d = datum.apply_d(to_element(proj, datum))
            rhs_d = to_element(project_homogeneous(
                datum, datum.apply_d(elem), Fraction(0), res - 1), datum)
            assert lhs_d == rhs_d
            lhs_u = datum.apply_u(to_element(proj, datum))
            rhs_u = to_element(project_homogeneous(
                datum, datum.apply_u(elem), Fraction(0), res - 4), datum)
            assert lhs_u == rhs_u
        # d1 against the scalar projection onto the l^0 coefficient
        proj1 = project_homogeneous(datum, elem, Fraction(0), 1)
        lhs = datum.apply_d1(to_element(proj1, datum))
        rhs = datum.apply_d1(elem).coefficient(0)
        assert lhs.coefficient(0) == rhs


def test_images_stay_homogeneous():
    rng = Random(11)
    for _ in range(25):
        datum = random_datum(rng)
        for res in range(8):
            coeffs = {g: Fraction(rng.randint(-2, 2)) for g in datum.names()
                      if datum.grading(g) % 8 == res}
            hv = project_homogeneous(
                datum,
                {g: nov(c, datum.lift(g)) for g, c in coeffs.items() if c},
                Fraction(0), res)
            img = datum.apply_d(to_element(hv, datum))
            back = project_homogeneous(datum, img, Fraction(0), res - 1)
            assert to_element(back, datum) == img
            img_u = datum.apply_u(to_element(hv, datum))
            back_u = project_homogeneous(datum, img_u, Fraction(0), res - 4)
            assert to_element(back_u, datum) == img_u


def test_evaluation_at_one_preserves_identities():
    rng = Random(13)
    for _ in range(20):
        datum = random_datum(rng)
        names = datum.names()
        idx = {g: i for i, g in enumerate(names)}
        n = len(names)

        def q_matrix(matrix):
            m = [[Fraction(0)] * n for _ in range(n)]
            for s, t, el in matrix.entries():
                m[idx[t]][idx[s]] += evaluate_at_one(el)
            return m

        def mul(a, b):
            return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)]

        d = q_matrix(datum.d)
        u = q_matrix(datum.u)
        d1 = [evaluate_at_one(datum.d1.get(g, NovikovElement.zero()))
              for g in names]
        d2 = [evaluate_at_one(datum.d2.get(g, NovikovElement.zero()))
              for g in names]
        assert all(v == 0 for row in mul(d, d) for v in row)
        assert all(sum(d1[idx[t]] * d[idx[t]][j] for t in names) == 0
                   for j in range(n))
        assert all(sum(d[i][idx[t]] * d2[idx[t]] for t in names) == 0
                   for i in range(n))
        ud_du = [[(sum(u[i][k] * d[k][j] - d[i][k] * u[k][j] for k in range(n))
                   + d2[i] * d1[j]) for j in range(n)] for i in range(n)]
        assert all(v == 0 for row in ud_du for v in row)


def test_json_round_trip(sigma):
    obj = datum_to_json(sigma)
    again = datum_from_json(json.loads(json.dumps(obj)))
    assert again.structurally_equal(sigma)


def test_json_rejects_unknown_keys():
    obj = datum_to_json(load_datum("s3"))
    obj["extra"] = 1
    with pytest.raises(InputError):
        datum_from_json(obj)
    obj = datum_to_json(load_datum("sigma_2_3_5"))
    obj["generators"][0]["weight"] = 3
    with pytest.raises(InputError):
        datum_from_json(obj)


def test_json_rejects_bad_values():
    base = {"name": "x", "generators": [], "d": [], "u": [], "d1": [], "d2": []}
    bad = dict(base)
    bad["generators"] = [{"name": "a", "grading": 9, "energy_lift": "0"}]
    with pytest.raises(InputError):
        datum_from_json(bad)
    bad["generators"] = [{"name": "a", "grading": 1, "energy_lift": "x"}]
    with pytest.raises(InputError):
        datum_from_json(bad)
    with pytest.raises(InputError):
        load_datum("definitely_missing_fixture")
    gen = {"name": "a", "grading": 1, "energy_lift": "-1/2"}
    term = {"coeff": "1", "exp": "1/2"}
    for field, value in (("generators", [dict(gen, energy_lift=-0.5)]),
                         ("generators", ["a"]),
                         ("generators", {"a": gen}),
                         ("generators", 3),
                         ("d1", [{"from": "a", "terms": [dict(term, coeff=1)]}]),
                         ("d1", [{"from": "a", "terms": [dict(term, exp=0.5)]}]),
                         ("d1", [["a", [term]]]),
                         ("d1", [{"from": "a", "terms": ["1"]}]),
                         ("d1", [{"from": "a", "terms": term}]),
                         ("d1", [{"from": ["a"], "terms": [term]}]),
                         ("d", 3),
                         ("name", 7)):
        bad = dict(base, generators=[gen])
        bad[field] = value
        with pytest.raises(InputError):
            datum_from_json(bad)


def test_duplicate_generator_names_rejected():
    with pytest.raises(InputError):
        FloerDatum("dup",
                   [Generator("a", 0, Fraction(0)), Generator("a", 1, Fraction(0))],
                   LambdaMatrix(), LambdaMatrix(), {}, {})


def _direct_orbit(datum, vec, depth, read):
    """read(u^j vec) for j < depth by direct u-iteration, ending once u^j vec = 0."""
    orbit = []
    while len(orbit) < depth and vec:
        orbit.append(read(vec))
        vec = datum.apply_u(vec)
    return orbit


def _kept_and_direct_orbits(datum, depth):
    """(kept, directly iterated) for each generator's d1-orbit and the d2-orbit."""
    for g in datum.names():
        yield (datum.d1_orbit(g, depth),
               _direct_orbit(datum, datum.basis_vector(g), depth, datum.apply_d1))
    yield (datum.d2_orbit(depth),
           _direct_orbit(datum, datum.apply_d2(NovikovElement.one()), depth, dict))


def test_d1_orbit_matches_direct_u_iteration():
    # depths rising then falling on one datum, so orbits are grown, then read;
    # the d1-orbits of every generator and the d2-orbit alike
    rng = Random(83)
    ended = nonzero = ended_d2 = nonzero_d2 = 0
    for _ in range(40):
        datum = random_datum(rng)
        if rng.random() < 0.5:
            datum = transformed_datum(rng, datum)
        depths = sorted(rng.sample(range(9), 3))
        for depth in depths + depths[::-1]:
            orbits = list(_kept_and_direct_orbits(datum, depth))
            for orbit, direct in orbits:
                assert orbit == direct
                ended += len(orbit) < depth
                nonzero += any(orbit)
            d2_orbit = orbits[-1][0]
            ended_d2 += len(d2_orbit) < depth
            nonzero_d2 += any(d2_orbit)
    assert ended and nonzero and ended_d2 and nonzero_d2


def test_d1_orbit_of_a_non_nilpotent_u_never_ends():
    datum, mirror = cyclic_u_datum(), cyclic_u_datum(family="d2")
    for depth in (3, 40, 7, 41):
        orbit, direct = next(_kept_and_direct_orbits(datum, depth))
        assert orbit == direct
        assert orbit == [nov(2 ** (j // 2), Fraction(j + 1, 2)) if j % 2 == 0
                         else NovikovElement.zero() for j in range(depth)]
        orbit, direct = list(_kept_and_direct_orbits(mirror, depth))[-1]
        assert orbit == direct
        assert orbit == [{"ab"[j % 2]: nov(2 ** ((j + 1) // 2), Fraction(j + 1, 2))}
                         for j in range(depth)]
