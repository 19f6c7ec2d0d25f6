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
from floergamma.cobordism import (
    bar_map,
    check_map,
    correction_series,
    hat_map,
    htpy_check_x,
    htpy_hat_x,
    htpy_i,
    htpy_p,
)
from floergamma.equivariant import (
    Window,
    XElement,
    check_d,
    hat_d,
    htpy_h,
    htpy_k,
    htpy_l,
    htpy_r,
    map_i,
    map_j,
    map_p,
    x_action_bar,
    x_action_check,
    x_action_hat,
)
from floergamma.floer_datum import (
    InputError,
    LambdaMatrix,
    apply_column,
    apply_row,
    load_datum,
    vec_add,
)
from floergamma.novikov import NovikovElement

from datagen import (
    apply_u_power,
    count_u_applications,
    cyclic_u_datum,
    deg_bar,
    random_datum,
    random_trivial_cobordism,
    transformed_datum,
    zero_map_datum,
)

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


def test_functoriality_u_work_grows_linearly_in_the_window():
    # every ladder and d1-orbit is kept and ends once it reaches zero, so
    # the u-applications per unit of T + N do not grow with the window
    per_slot = []
    for T, N in ((30, 20), (60, 40), (120, 80)):
        cob = load_cobordism("delta1_sigma_2_3_5_to_s3")
        counter = count_u_applications(cob.source, cob.target)
        assert verify_functoriality(cob, Window(T, N)).ok
        per_slot.append(counter[0] / (T + N))
    assert per_slot[2] <= per_slot[1] <= per_slot[0]


def test_delta1_fixture_check_map_value():
    cob = load_cobordism("delta1_sigma_2_3_5_to_s3")
    out = check_map(cob, XElement(cob.source.basis_vector("alpha")),
                    WINDOW)
    assert not out.chain
    assert out.x == {-1: nov(1, "1/120")}


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
    e = XElement(sigma.basis_vector("beta"), {0: nov(2, 0), 3: nov(1, "1/2")})
    assert hat_map(cob, e) == e


def test_bar_map_scales_by_c_and_preserves_deg():
    s3 = load_datum("s3")
    cob = CobordismDatum(s3, s3, LambdaMatrix(), LambdaMatrix(), {}, {}, 3)
    z = XElement({}, {-2: nov(1, "1/2"), 1: nov(2, 0)})
    out = bar_map(cob, z, WINDOW)
    assert out.x == {-2: nov(3, "1/2"), 1: nov(6, 0)}
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
        z = XElement({}, coeffs)
        assert deg_bar(bar_map(cob, z, WINDOW)) == deg_bar(z)
    delta1_cob = load_cobordism("delta1_sigma_2_3_5_to_s3")
    z = XElement({}, {-3: nov(1, "1/3"), 2: nov(5, 0)})
    assert deg_bar(bar_map(delta1_cob, z, WINDOW)) == 2


def test_functoriality_on_random_trivial_extensions():
    rng = Random(67)
    for _ in range(20):
        datum = zero_map_datum(rng)
        cob = random_trivial_cobordism(rng, datum)
        assert verify_tilde_chain_map(cob).ok
        rep = verify_functoriality(cob, WINDOW)
        assert rep.ok, rep.failures

# Reference formulas: the induced maps written out as explicit mu double
# sums, one u-power at a time.  They hold for arbitrary maps, valid or
# not, because every induced map is Lambda-linear in its input.

def _tower(datum, vec, depth):
    out = [vec]
    for _ in range(depth - 1):
        out.append(datum.apply_u(out[-1]))
    return out


def _ref_correction_series(cob, depth):
    src, tgt = cob.source, cob.target
    one = NovikovElement.one()
    d2_tower = _tower(src, src.apply_d2(one), depth)
    delta2_tower = _tower(tgt, apply_column(cob.delta2, one), depth)
    series = {0: NovikovElement.term(cob.c, 0)}
    for m in range(1, depth + 1):
        acc = apply_row(cob.delta1, d2_tower[m - 1])
        acc = acc + tgt.apply_d1(delta2_tower[m - 1])
        for k in range(1, m):
            vec = cob.mu.apply(d2_tower[k - 1])
            acc = acc + tgt.apply_d1(apply_u_power(tgt, vec, m - k - 1))
        if not acc.is_zero():
            series[-m] = acc
    return series


def _ref_alpha_tail(cob, alpha, depth):
    """delta1(u^(m-1) alpha) + sum_k d1'(u'^(m-k-1) mu(u^(k-1) alpha)) at x^-m."""
    tgt = cob.target
    tower = _tower(cob.source, alpha, depth)
    tail = {}
    for m in range(1, depth + 1):
        lam = apply_row(cob.delta1, tower[m - 1])
        for k in range(1, m):
            vec = apply_u_power(tgt, cob.mu.apply(tower[k - 1]), m - k - 1)
            lam = lam + tgt.apply_d1(vec)
        if not lam.is_zero():
            tail[-m] = lam
    return tail


def _ref_chain_of_slot(cob, i, a):
    """u'^i delta2(a) + sum_{k<i} u'^k mu(u^(i-1-k) d2(a))."""
    src, tgt = cob.source, cob.target
    chain = apply_u_power(tgt, apply_column(cob.delta2, a), i)
    for k in range(i):
        vec = cob.mu.apply(apply_u_power(src, src.apply_d2(a), i - 1 - k))
        chain = vec_add(chain, apply_u_power(tgt, vec, k))
    return chain


def _ref_times_series(part, series, lo, hi):
    out = {}
    for i, a in part.items():
        for j, s in series.items():
            if lo <= i + j <= hi:
                out = vec_add(out, {i + j: a * s})
    return out


# `series` is the reference correction series down to x^-(T+N+1), deep
# enough for every map on the window.

def _ref_hat_map(cob, e, series):
    chain = cob.phi.apply(e.chain)
    for i, a in e.x.items():
        chain = vec_add(chain, _ref_chain_of_slot(cob, i, a))
    return XElement(chain, _ref_times_series(e.x, series, 0, max(e.x, default=0)))


def _ref_check_map(cob, e, window, series):
    tail = vec_add(_ref_alpha_tail(cob, e.chain, window.T),
                   _ref_times_series(e.x, series, -window.T, -1))
    return XElement(cob.phi.apply(e.chain), tail)


def _ref_bar_map(z, window, series):
    return XElement({}, _ref_times_series(z.x, series, -window.T, window.N))


def _ref_htpy_i(cob, z):
    chain = {}
    for i, a in z.x.items():
        if i >= 0:
            chain = vec_add(chain, _ref_chain_of_slot(cob, i, a))
    return XElement(chain)


def _random_el(rng):
    return nov(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((0, 1)))


def _random_vec(rng, names, p=0.5):
    return {g: _random_el(rng) for g in names if rng.random() < p}


def _random_part(rng, lo, hi, p=0.5):
    return {i: _random_el(rng) for i in range(lo, hi + 1) if rng.random() < p}


def _random_endpoint(rng):
    datum = random_datum(rng, max_gens=5)
    return transformed_datum(rng, datum) if rng.random() < 0.5 else datum


def _random_cobordism(rng):
    """Arbitrary phi, mu, delta1, delta2 and c between random data with
    nonzero u and d1 or d2; no identity needs to hold."""
    return _random_maps(rng, _random_endpoint(rng), _random_endpoint(rng))


def _random_maps(rng, src, tgt):
    """Arbitrary phi, mu, delta1, delta2 and c from src to tgt."""
    phi, mu = LambdaMatrix(), LambdaMatrix()
    for g in src.names():
        for h in tgt.names():
            if rng.random() < 0.3:
                phi.set(g, h, _random_el(rng))
            if rng.random() < 0.3:
                mu.set(g, h, _random_el(rng))
    return CobordismDatum(src, tgt, phi, mu, _random_vec(rng, src.names()),
                          _random_vec(rng, tgt.names()), rng.randint(1, 4))


def test_maps_match_reference_double_sums():
    rng = Random(73)
    for _ in range(300):
        cob = _random_cobordism(rng)
        src = cob.source
        window = Window(rng.randint(2, 7), rng.randint(1, 5))
        T, N = window.T, window.N
        # a shallow series first, so the deep one extends the kept ladder
        assert correction_series(cob, T) == _ref_correction_series(cob, T)
        series = _ref_correction_series(cob, T + N + 1)
        assert correction_series(cob, T + N + 1) == series
        hat = XElement(_random_vec(rng, src.names()), _random_part(rng, 0, N))
        assert hat_map(cob, hat) == _ref_hat_map(cob, hat, series)
        assert htpy_p(cob, hat, window) == XElement({}, _ref_alpha_tail(cob, hat.chain, T))
        check = XElement(_random_vec(rng, src.names()), _random_part(rng, -T, -1))
        assert check_map(cob, check, window) == _ref_check_map(cob, check, window, series)
        bar = XElement({}, _random_part(rng, -T, N))
        assert bar_map(cob, bar, window) == _ref_bar_map(bar, window, series)
        assert htpy_i(cob, bar) == _ref_htpy_i(cob, bar)


def test_kept_tails_match_reference_at_rising_then_falling_depths():
    # one cobordism answers every depth, growing its kept ladders first and
    # then reading prefixes of them; the cyclic endpoints never run out of u
    rng = Random(89)
    cobs = [_random_cobordism(rng) for _ in range(40)]
    cobs += [_random_maps(rng, cyclic_u_datum(), cyclic_u_datum()) for _ in range(5)]
    for cob in cobs:
        src = cob.source
        depths = sorted(rng.sample(range(2, 12), 3))
        for T in depths + depths[::-1]:
            window = Window(T, 1)
            series = _ref_correction_series(cob, T)
            assert correction_series(cob, T) == series
            for g in src.names():
                basis = src.basis_vector(g)
                assert htpy_p(cob, XElement(basis), window) == \
                    XElement({}, _ref_alpha_tail(cob, basis, T))
            check = XElement(_random_vec(rng, src.names()), _random_part(rng, -T, -1))
            assert htpy_p(cob, check, window) == \
                XElement({}, _ref_alpha_tail(cob, check.chain, T))
            assert check_map(cob, check, window) == _ref_check_map(cob, check, window, series)


def test_maps_land_in_their_complexes():
    # hat elements hold x^i for i >= 0, check elements i < 0, and bar
    # elements have no chain part; inputs end below x^N so x may act
    rng = Random(79)
    for _ in range(60):
        cob = _random_cobordism(rng)
        src = cob.source
        window = Window(rng.randint(2, 7), rng.randint(2, 5))
        T, N = window.T, window.N
        hat = XElement(_random_vec(rng, src.names()), _random_part(rng, 0, N - 1))
        check = XElement(_random_vec(rng, src.names()), _random_part(rng, -T, -1))
        bar = XElement({}, _random_part(rng, -T, N - 1))
        hats = [hat_d(src, hat), x_action_hat(src, hat, window), map_j(check),
                htpy_h(check), htpy_r(bar), hat_map(cob, hat), htpy_hat_x(cob, hat)]
        checks = [check_d(src, check, window), x_action_check(src, check),
                  map_i(src, bar), htpy_l(src, hat), check_map(cob, check, window),
                  htpy_check_x(cob, check), htpy_i(cob, bar)]
        bars = [x_action_bar(bar, window), map_p(src, hat, window), htpy_k(check),
                bar_map(cob, bar, window), htpy_p(cob, hat, window)]
        assert all(i >= 0 for e in hats for i in e.x)
        assert all(i < 0 for e in checks for i in e.x)
        assert not any(e.chain for e in bars)


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
    # the last five name generators missing from the source (sigma_2_3_5_d1_zero)
    # or the target (s3, which has none)
    one = [{"coeff": "1", "exp": "0"}]
    for key, value in (("delta1", [{"from": "alpha", "terms": [{"coeff": 1, "exp": "0"}]}]),
                       ("phi", ["alpha"]), ("mu", 3), ("c", "1"), ("source", 5),
                       ("phi", [{"from": "nope", "to": "alpha", "terms": one}]),
                       ("phi", [{"from": "alpha", "to": "alpha", "terms": one}]),
                       ("mu", [{"from": "alpha", "to": "alpha", "terms": one}]),
                       ("delta1", [{"from": "nope", "terms": one}]),
                       ("delta2", [{"to": "alpha", "terms": one}])):
        obj = cobordism_to_json(cob)
        obj[key] = value
        with pytest.raises(InputError):
            cobordism_from_json(obj)
