"""Cobordism maps: chain-map identities, functoriality, composition laws."""

from fractions import Fraction
from random import Random

import pytest

from floergamma.cobordism import (
    CobordismDatum,
    cobordism_from_json,
    cobordism_to_json,
    compose_tilde,
    gamma_comparison,
    identity_cobordism,
    load_cobordism,
    mdeg_decay,
    verify_functoriality,
    verify_tilde_chain_map,
)
from floergamma.equivariant import (
    BarElement,
    CheckElement,
    HatElement,
    Window,
    deg_bar,
)
from floergamma.cobordism import bar_map, check_map, hat_map
from floergamma.floer_datum import (
    FloerDatum,
    Generator,
    InputError,
    LambdaMatrix,
    load_datum,
)
from floergamma.novikov import INF, NovikovElement

from datagen import random_datum, random_trivial_cobordism, zero_map_datum

WINDOW = Window(6, 4)
FIXTURES = ("s3", "sigma_2_3_5", "neg_sigma_2_3_5", "remark_nonpositive",
            "sigma_2_3_5_d1_zero")


def nov(c, e):
    return NovikovElement.term(Fraction(c), Fraction(e))


def test_identity_cobordism_on_fixtures():
    for name in FIXTURES:
        cob = identity_cobordism(load_datum(name))
        assert verify_tilde_chain_map(cob).ok, name
        rep = verify_functoriality(cob, WINDOW)
        assert rep.ok, (name, rep.failures)


def test_s3_to_s3_with_any_c():
    s3 = load_datum("s3")
    for c in (1, 2, 5):
        cob = CobordismDatum(s3, s3, LambdaMatrix(), LambdaMatrix(), {}, {}, c)
        assert verify_tilde_chain_map(cob).ok
        assert verify_functoriality(cob, WINDOW).ok


def test_delta1_fixture_verifies():
    cob = load_cobordism("delta1_sigma_2_3_5_to_s3")
    assert verify_tilde_chain_map(cob).ok
    rep = verify_functoriality(cob, WINDOW)
    assert rep.ok, rep.failures


def test_delta1_fixture_check_map_value():
    cob = load_cobordism("delta1_sigma_2_3_5_to_s3")
    out = check_map(cob, CheckElement(cob.source.basis_vector("alpha"), {}),
                    WINDOW)
    assert not out.chain
    assert out.tail == {-1: nov(1, "1/120")}


def test_scaled_phi_needs_trivial_coefficient_maps():
    # a globally l-scaled identity is a chain map only when the maps into
    # and out of the coefficient field vanish; with d1 present the scaling
    # breaks the coefficient-row identity
    sigma = load_datum("sigma_2_3_5")
    phi = LambdaMatrix()
    for g in sigma.names():
        phi.set(g, g, nov(1, 1))
    scaled = CobordismDatum(sigma, sigma, phi, LambdaMatrix(), {}, {}, 1)
    rep = verify_tilde_chain_map(scaled)
    assert not rep.ok
    assert any("identity (2)" in msg for msg in rep.failures)

    no_d1 = load_datum("sigma_2_3_5_d1_zero")
    phi = LambdaMatrix()
    for g in no_d1.names():
        phi.set(g, g, nov(1, 1))
    scaled = CobordismDatum(no_d1, no_d1, phi, LambdaMatrix(), {}, {}, 1)
    assert verify_tilde_chain_map(scaled).ok
    assert verify_functoriality(scaled, WINDOW).ok


def test_grading_violation_is_precondition_failure():
    sigma = load_datum("sigma_2_3_5")
    bad_mu = LambdaMatrix()
    bad_mu.set("alpha", "alpha", nov(1, 0))  # degree 0, must be -3
    cob = CobordismDatum(sigma, sigma, identity_cobordism(sigma).phi, bad_mu,
                         {}, {}, 1)
    rep = verify_functoriality(cob, WINDOW)
    assert not rep.ok
    assert rep.failures[0].startswith("precondition:")


def test_identity_hat_map_is_identity():
    sigma = load_datum("sigma_2_3_5")
    cob = identity_cobordism(sigma)
    e = HatElement(sigma.basis_vector("beta"), {0: nov(2, 0), 3: nov(1, "1/2")})
    assert hat_map(cob, e, WINDOW) == e


def test_bar_map_scales_by_c_and_preserves_deg():
    s3 = load_datum("s3")
    cob = CobordismDatum(s3, s3, LambdaMatrix(), LambdaMatrix(), {}, {}, 3)
    z = BarElement({-2: nov(1, "1/2"), 1: nov(2, 0)})
    out = bar_map(cob, z, WINDOW)
    assert out.coeffs == {-2: nov(3, "1/2"), 1: nov(6, 0)}
    assert deg_bar(out) == deg_bar(z)


def test_bar_map_deg_preservation_random():
    rng = Random(61)
    for _ in range(25):
        datum = zero_map_datum(rng)
        cob = random_trivial_cobordism(rng, datum)
        coeffs = {}
        for i in range(-WINDOW.T, WINDOW.N + 1):
            if rng.random() < 0.4:
                coeffs[i] = nov(rng.randint(1, 3), Fraction(rng.randint(-2, 2), 3))
        if not coeffs:
            coeffs = {0: nov(1, 0)}
        z = BarElement(coeffs)
        assert deg_bar(bar_map(cob, z, WINDOW)) == deg_bar(z)
    delta1_cob = load_cobordism("delta1_sigma_2_3_5_to_s3")
    z = BarElement({-3: nov(1, "1/3"), 2: nov(5, 0)})
    assert deg_bar(bar_map(delta1_cob, z, WINDOW)) == 2


def test_functoriality_on_random_trivial_extensions():
    rng = Random(67)
    for _ in range(20):
        datum = zero_map_datum(rng)
        cob = random_trivial_cobordism(rng, datum)
        assert verify_tilde_chain_map(cob).ok
        rep = verify_functoriality(cob, WINDOW)
        assert rep.ok, rep.failures


def test_compose_identity_laws():
    for name in FIXTURES:
        datum = load_datum(name)
        ident = identity_cobordism(datum)
        composed = compose_tilde(ident, ident)
        assert verify_tilde_chain_map(composed).ok
        assert composed.c == 1
        assert composed.phi == ident.phi
        assert composed.mu == ident.mu
        assert composed.delta1 == ident.delta1
        assert composed.delta2 == ident.delta2


def test_compose_c_multiplicativity():
    s3 = load_datum("s3")
    a = CobordismDatum(s3, s3, LambdaMatrix(), LambdaMatrix(), {}, {}, 2)
    comp = compose_tilde(a, a)
    assert comp.c == 4
    assert verify_tilde_chain_map(comp).ok


def _cobordisms_equal(a: CobordismDatum, b: CobordismDatum) -> bool:
    return (a.c == b.c and a.phi == b.phi and a.mu == b.mu
            and a.delta1 == b.delta1 and a.delta2 == b.delta2)


def test_compose_random_trivial_extensions():
    rng = Random(71)
    for _ in range(50):
        datum = zero_map_datum(rng)
        a = random_trivial_cobordism(rng, datum)
        b = random_trivial_cobordism(rng, datum)
        c = random_trivial_cobordism(rng, datum)
        ident = identity_cobordism(datum)
        ab = compose_tilde(a, b)
        assert verify_tilde_chain_map(ab).ok
        assert ab.c == a.c * b.c
        assert _cobordisms_equal(compose_tilde(a, ident), a)
        assert _cobordisms_equal(compose_tilde(ident, a), a)
        left = compose_tilde(compose_tilde(a, b), c)
        right = compose_tilde(a, compose_tilde(b, c))
        assert _cobordisms_equal(left, right)


def test_compose_mismatch_rejected():
    a = identity_cobordism(load_datum("s3"))
    b = identity_cobordism(load_datum("sigma_2_3_5"))
    with pytest.raises(InputError):
        compose_tilde(a, b)


def test_gamma_comparison_identity():
    cob = identity_cobordism(load_datum("sigma_2_3_5"))
    res = gamma_comparison(cob, -2, 3)
    assert res["nonincreasing"]
    assert all(row["source"] == row["target"] for row in res["rows"])
    assert res["eta_lower_bound"] == 0


def test_gamma_comparison_delta1_fixture():
    cob = load_cobordism("delta1_sigma_2_3_5_to_s3")
    res = gamma_comparison(cob, -2, 3)
    assert res["nonincreasing"]
    assert res["eta_lower_bound"] is None  # empty target spectrum


def test_gamma_comparison_flags_wrong_direction():
    s3 = load_datum("s3")
    sigma = load_datum("sigma_2_3_5")
    cob = CobordismDatum(s3, sigma, LambdaMatrix(), LambdaMatrix(), {}, {}, 1)
    assert verify_tilde_chain_map(cob).ok
    res = gamma_comparison(cob, 1, 1)
    # target gamma(1) = 1/120 <= source inf: the bound holds in this direction
    assert res["rows"][0]["ok"]
    rev = CobordismDatum(sigma, s3, LambdaMatrix(), LambdaMatrix(), {}, {}, 1)
    # reversed map fails identity (2) since d1 does not vanish on the source
    assert not verify_tilde_chain_map(rev).ok
    res = gamma_comparison(rev, -2, 0)
    assert res["nonincreasing"]


def test_mdeg_decay_measurement():
    cob = identity_cobordism(load_datum("sigma_2_3_5"))
    assert mdeg_decay(cob, WINDOW) == 0
    s3 = load_datum("s3")
    empty = CobordismDatum(s3, s3, LambdaMatrix(), LambdaMatrix(), {}, {}, 2)
    assert mdeg_decay(empty, WINDOW) == 0


def test_cobordism_json_round_trip():
    cob = load_cobordism("delta1_sigma_2_3_5_to_s3")
    obj = cobordism_to_json(cob)
    again = cobordism_from_json(obj)
    assert _cobordisms_equal(cob, again)
    assert again.source.structurally_equal(cob.source)
    obj["mystery"] = True
    with pytest.raises(InputError):
        cobordism_from_json(obj)
    obj = cobordism_to_json(cob)
    obj["c"] = 0
    with pytest.raises(InputError):
        cobordism_from_json(obj)
    for key, value in (("delta1", [{"from": "alpha", "terms": [{"coeff": 1, "exp": "0"}]}]),
                       ("phi", ["alpha"]), ("mu", 3), ("c", "1"), ("source", 5)):
        obj = cobordism_to_json(cob)
        obj[key] = value
        with pytest.raises(InputError):
            cobordism_from_json(obj)
