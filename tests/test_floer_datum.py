"""Datum validation, homogeneity, projections and the JSON contract."""

import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from floergamma import floer_datum
from floergamma.equivariant import Window, XElement
from floergamma.floer_datum import (
    DATUM_MAPS,
    FloerDatum,
    Generator,
    InputError,
    LambdaMatrix,
    Record,
    datum_from_json,
    datum_to_json,
    load_datum,
    validate,
    validate_homogeneity,
    validate_structure,
    verify_tilde_differential,
)
from floergamma.novikov import NovikovElement

one = NovikovElement.one

from datagen import (
    bundled_fixtures,
    cyclic_u_datum,
    evaluate_at_one,
    identity_cobordism,
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


def test_generator_refusals_equality_and_repr():
    for args, message in ((("", 1), "generator name must be nonempty"),
                          (("a", 8), "grading of 'a' must be in 0..7"),
                          (("a", -1), "grading of 'a' must be in 0..7")):
        with pytest.raises(InputError) as exc:
            Generator(*args, Fraction(0))
        assert str(exc.value) == message
    g = Generator("a", 1, Fraction(-1, 2))
    assert g == Generator("a", 1, Fraction(-1, 2))
    assert hash(g) == hash(Generator("a", 1, Fraction(-1, 2)))
    for other in (Generator("b", 1, Fraction(-1, 2)), Generator("a", 5, Fraction(-1, 2)),
                  Generator("a", 1, Fraction(1, 2)), ("a", 1, Fraction(-1, 2))):
        assert g != other
    assert repr(g) == "Generator(name='a', grading=1, energy_lift=Fraction(-1, 2))"


def test_records_have_no_dict_and_the_mutable_ones_no_hash():
    s3 = load_datum("s3")
    records = (Generator("a", 1, Fraction(0)), Window(6, 4), XElement({}, {0: one()}),
               identity_cobordism(s3))
    for record in records:
        assert isinstance(record, Record) and not hasattr(record, "__dict__"), record
    for record in records[2:]:
        with pytest.raises(TypeError):
            hash(record)
    assert repr(records[2]) == f"XElement(chain={{}}, x={{0: {one()!r}}})"


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
    assert not any(project_homogeneous(sigma, beta_elem, Fraction(0), 1).coefficients.values())
    assert not any(project_homogeneous(sigma, {}, Fraction(0), 1).coefficients.values())


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


def test_json_round_trip():
    data = [(name, obj) for name, obj in bundled_fixtures() if "source" not in obj]
    assert len(data) == 5
    for name, stored in data:
        datum = load_datum(name)
        obj = datum_to_json(datum)
        again = datum_from_json(json.loads(json.dumps(obj)))
        assert again.structurally_equal(datum), name
        assert datum_to_json(again) == obj == stored, name


@pytest.mark.parametrize("gens, key, ends, exp, check, text", [
    ([("a", 1, "0"), ("b", 1, "0")], "d", {"from": "a", "to": "b"}, "0",
     validate_structure, "d entry a->b does not drop grading by 1"),
    ([("a", 1, "0"), ("b", 1, "0")], "u", {"from": "a", "to": "b"}, "0",
     validate_structure, "u entry a->b does not drop grading by 4"),
    ([("a", 5, "0")], "d1", {"from": "a"}, "0",
     validate_structure, "d1 supported on a of grading 5 != 1"),
    ([("a", 5, "0")], "d2", {"to": "a"}, "0",
     validate_structure, "d2 lands on a of grading 5 != 4"),
    ([("a", 1, "0"), ("b", 0, "1/2")], "d", {"from": "a", "to": "b"}, "0",
     validate_homogeneity, "d entry a->b: exponent 0 breaks weight congruence"),
    ([("a", 4, "0"), ("b", 0, "1/3")], "u", {"from": "a", "to": "b"}, "1",
     validate_homogeneity, "u entry a->b: exponent 1 breaks weight congruence"),
    ([("a", 1, "0")], "d1", {"from": "a"}, "1/2",
     validate_homogeneity, "d1 entry at a: exponent 1/2 breaks weight congruence"),
    ([("a", 4, "1/3")], "d2", {"to": "a"}, "0",
     validate_homogeneity, "d2 entry at a: exponent 0 breaks weight congruence"),
])
def test_one_entry_breaking_its_grading_or_weight_rule_is_named_exactly(
        gens, key, ends, exp, check, text):
    obj = {"name": "x", "generators": [{"name": n, "grading": g, "energy_lift": r}
                                       for n, g, r in gens],
           key: [dict(ends, terms=[{"coeff": "1", "exp": exp}])]}
    assert check(datum_from_json(obj)).failures == [text]


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
    # a second entry with the same ends is refused, neither summed nor overwritten,
    # even when it is zero
    zero = dict(term, coeff="0")
    for field, ends, label in (("d", {"from": "a", "to": "a"}, "d entry a->a"),
                               ("u", {"from": "a", "to": "a"}, "u entry a->a"),
                               ("d1", {"from": "a"}, "d1 entry at a"),
                               ("d2", {"to": "a"}, "d2 entry at a")):
        bad = dict(base, generators=[gen])
        bad[field] = [dict(ends, terms=[term]), dict(ends, terms=[zero])]
        with pytest.raises(InputError, match=f"^repeated {label}$"):
            datum_from_json(bad)
    # so is a repeated exponent within one entry: summing the terms made this d1 zero
    bad = dict(base, generators=[gen], d1=[{"from": "a", "terms": [term, dict(term, coeff="-1")]}])
    with pytest.raises(InputError, match="^repeated exponent 1/2 in d1 entry at a$"):
        datum_from_json(bad)
    # a coefficient is read before the exponent, so a bad one is named first
    bad["d1"][0]["terms"][1]["coeff"] = "x"
    with pytest.raises(InputError, match="^d1: not a rational: 'x'$"):
        datum_from_json(bad)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.fractions(max_denominator=12), st.fractions(max_denominator=12)),
                max_size=4, unique_by=lambda t: t[1]))
def test_an_entry_reads_to_the_element_of_its_terms(terms):
    # one-term entries skip the exponent dict; every entry reads as the
    # canonicalising constructor reads its terms
    obj = {"name": "x", "generators": [{"name": "a", "grading": 1, "energy_lift": "0"}],
           "d1": [{"from": "a", "terms": [{"coeff": str(c), "exp": str(e)} for c, e in terms]}]}
    read = datum_from_json(obj).d1.get("a", NovikovElement.zero())
    assert read.items() == NovikovElement(terms).items()
    assert all(type(x) is Fraction for term in read.items() for x in term)


def test_the_one_term_reader_keeps_its_refusals_and_builds_through_init(monkeypatch):
    base = {"name": "x", "generators": [{"name": "a", "grading": 1, "energy_lift": "0"}]}
    term = {"coeff": "1", "exp": "1/2"}
    for terms, message in (([dict(term, x=1)], "unknown key 'x' in d1 term"),
                           ([term, dict(term, y=2)], "unknown key 'y' in d1 term"),
                           ([term, dict(term, exp="2/4")],
                            "repeated exponent 1/2 in d1 entry at a")):
        with pytest.raises(InputError) as exc:
            datum_from_json(dict(base, d1=[{"from": "a", "terms": terms}]))
        assert str(exc.value) == message
    # the benchmark counts parsed elements at NovikovElement.__init__
    obj, calls, init = datum_to_json(load_datum("sigma_2_3_5")), [], NovikovElement.__init__
    monkeypatch.setattr(NovikovElement, "__init__",
                        lambda self, terms=(): calls.append(1) or init(self, terms))
    datum_from_json(obj)
    assert len(calls) == sum(len(obj[key]) for key, _, _ in DATUM_MAPS) > 0


def _spelled(lift: str, d_exp: str, d1_terms: list) -> dict:
    return {"name": "x",
            "generators": [{"name": "a", "grading": 1, "energy_lift": lift},
                           {"name": "b", "grading": 0, "energy_lift": "1/2"}],
            "d": [{"from": "a", "to": "b", "terms": [{"coeff": "1", "exp": d_exp}]}],
            "d1": [{"from": "a", "terms": d1_terms}]}


def test_a_spelling_is_parsed_once_per_read_and_refused_at_each_field(monkeypatch):
    # a refused spelling is not kept, so each field names itself, and the
    # first refusal in reading order wins
    bad, good = "1/0", [{"coeff": "2", "exp": "1/2"}]
    for args, message in (((bad, bad, good), "generator: not a rational: '1/0'"),
                          (("1/2", bad, good), "d: not a rational: '1/0'"),
                          (("1/2", "1/2", [{"coeff": bad, "exp": "1/2"}]),
                           "d1: not a rational: '1/0'"),
                          (("1/2", "1/2", [good[0], {"coeff": "1", "exp": bad}]),
                           "d1: not a rational: '1/0'"),
                          (("x", bad, good), "generator: not a rational: 'x'"),
                          (("1/2", "y", [{"coeff": bad, "exp": "1/2"}]),
                           "d: not a rational: 'y'")):
        with pytest.raises(InputError) as exc:
            datum_from_json(_spelled(*args))
        assert str(exc.value) == message
    # a repeated spelling reads to one value, parsed once per read and again
    # on the next read
    parsed, parse = [], floer_datum.parse_rat
    monkeypatch.setattr(floer_datum, "parse_rat", lambda text: parsed.append(text) or parse(text))
    obj = _spelled("-1/2", "1/2", [{"coeff": "1/2", "exp": "1/2"}, {"coeff": "2", "exp": "1"}])
    for _ in range(2):
        parsed.clear()
        datum = datum_from_json(obj)
        assert sorted(parsed) == ["-1/2", "1", "1/2", "2"]
        assert datum.lift("b") == datum.d.row("a")["b"].items()[0][1] == Fraction(1, 2)
        assert datum.d1["a"].items() == ((Fraction(1, 2), Fraction(1, 2)),
                                         (Fraction(2), Fraction(1)))


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
