"""Equivariant complexes: map formulas, grading extensions, triangle identities."""

from fractions import Fraction
from random import Random

import pytest

from floergamma import equivariant
from floergamma.equivariant import (
    Window,
    XElement,
    check_basis,
    check_d,
    hat_basis,
    hat_d,
    htpy_k,
    inner_window,
    map_i,
    map_j,
    map_p,
    mdeg_bar,
    mdeg_check,
    mdeg_hat,
    verify_triangle,
    x_action_bar,
    x_action_check,
    x_action_hat,
)
from floergamma.floer_datum import FloerDatum, Generator, LambdaMatrix, load_datum, validate
from floergamma.novikov import INF, NovikovElement

from datagen import cyclic_u_datum, deg_bar, random_datum

WINDOW = Window(6, 4)


def nov(c, e):
    return NovikovElement.term(Fraction(c), Fraction(e))


def one():
    return NovikovElement.one()


@pytest.fixture(scope="module")
def s3():
    return load_datum("s3")


@pytest.fixture(scope="module")
def sigma():
    return load_datum("sigma_2_3_5")


@pytest.fixture(scope="module")
def neg_sigma():
    return load_datum("neg_sigma_2_3_5")


def test_window_bounds():
    with pytest.raises(ValueError):
        Window(1, 4)
    with pytest.raises(ValueError):
        Window(6, 0)


def test_xelement_drops_zeros_adds_and_restricts():
    zero = NovikovElement.zero()
    e = XElement({"alpha": zero, "beta": one()}, {-3: one(), 0: zero, 2: nov(2, 1)})
    assert e == XElement({"beta": one()}, {-3: one(), 2: nov(2, 1)})
    assert (e - e).is_zero() and XElement().is_zero()
    assert e + e == XElement({"beta": nov(2, 0)}, {-3: nov(2, 0), 2: nov(4, 1)})
    assert e.restrict(-2, 2) == XElement({"beta": one()}, {2: nov(2, 1)})
    assert e.restrict(0, 1) == XElement({"beta": one()})


def test_hat_d_examples(s3, neg_sigma):
    assert hat_d(s3, XElement({}, {0: one(), 1: one()})).is_zero()
    out = hat_d(neg_sigma, XElement({}, {0: one()}))
    assert out.chain == {"alpha_star": nov(-1, "1/120")} and not out.x
    out = hat_d(neg_sigma, XElement({}, {1: one()}))
    assert out.chain == {"beta_star": nov(-8, "49/120")} and not out.x


def test_check_d_examples(sigma, s3):
    out = check_d(sigma, XElement(sigma.basis_vector("alpha")), WINDOW)
    assert not out.chain and out.x == {-1: nov(1, "1/120")}
    out = check_d(sigma, XElement(sigma.basis_vector("beta")), WINDOW)
    assert out.x == {-2: nov(8, "49/120")}
    assert check_d(s3, XElement({}, {-1: one()}), WINDOW).is_zero()


def test_x_action_examples(sigma, neg_sigma):
    out = x_action_hat(sigma, XElement(sigma.basis_vector("beta")), WINDOW)
    assert out.chain == {"alpha": nov(8, "2/5")} and not out.x
    out = x_action_hat(sigma, XElement(sigma.basis_vector("alpha")), WINDOW)
    assert not out.chain and out.x == {0: nov(1, "1/120")}
    out = x_action_check(neg_sigma, XElement({}, {-1: one()}))
    assert out.chain == {"alpha_star": nov(1, "1/120")} and not out.x


def test_x_action_overflow():
    datum = load_datum("s3")
    with pytest.raises(AssertionError):
        x_action_hat(datum, XElement({}, {WINDOW.N: one()}), WINDOW)
    with pytest.raises(AssertionError):
        x_action_bar(XElement({}, {WINDOW.N: one()}), WINDOW)
    shifted = x_action_bar(XElement({}, {-WINDOW.T: one()}), WINDOW)
    assert shifted.x == {-WINDOW.T + 1: one()}


def test_map_i_examples(s3, neg_sigma):
    out = map_i(s3, XElement({}, {-1: one(), 2: one()}))
    assert not out.chain and out.x == {-1: one()}
    out = map_i(neg_sigma, XElement({}, {0: one()}))
    assert out.chain == {"alpha_star": nov(1, "1/120")} and not out.x
    out = map_i(neg_sigma, XElement({}, {1: one()}))
    assert out.chain == {"beta_star": nov(8, "49/120")}


def test_map_j_examples(sigma):
    e = XElement(sigma.basis_vector("alpha"), {-1: one()})
    assert map_j(e) == XElement(sigma.basis_vector("alpha"))
    assert map_j(XElement({}, {-2: one()})).is_zero()
    assert map_j(check_d(sigma, XElement(sigma.basis_vector("alpha")),
                         WINDOW)).is_zero()


def test_map_p_examples(sigma, s3):
    out = map_p(sigma, XElement(sigma.basis_vector("alpha")), WINDOW)
    assert out.x == {-1: nov(1, "1/120")}
    out = map_p(sigma, XElement(sigma.basis_vector("beta"), {2: one()}), WINDOW)
    assert out.x == {-2: nov(8, "49/120"), 2: one()}
    out = map_p(s3, XElement({}, {0: one(), 1: one()}), WINDOW)
    assert out.x == {0: one(), 1: one()}


def test_deg_and_mdeg_examples():
    assert deg_bar(XElement({}, {-3: nov(1, "1/2"), 1: nov(2, 0)})) == 1
    with pytest.raises(ValueError):
        deg_bar(XElement())
    assert mdeg_hat(XElement({}, {0: nov(1, 1), 1: nov(1, -2)})) == -2
    assert mdeg_check(XElement({}, {-2: nov(1, 3)})) == 3
    assert mdeg_check(XElement()) == INF
    assert mdeg_bar(XElement({}, {-3: nov(1, 5), -1: nov(1, 2)})) == 2
    assert mdeg_bar(XElement({}, {-2: nov(1, 7), 1: nov(1, 4)})) == 4
    assert mdeg_bar(XElement()) == INF


def test_mdeg_hat_prefers_poly(sigma):
    e = XElement(sigma.basis_vector("alpha"), {1: nov(1, 3)})
    assert mdeg_hat(e) == 3
    e = XElement({"alpha": nov(1, "-1/120")})
    assert mdeg_hat(e) == Fraction(-1, 120)


def test_triangle_fixtures():
    for name, window in (("sigma_2_3_5", Window(6, 4)),
                         ("neg_sigma_2_3_5", Window(6, 4)),
                         ("s3", Window(3, 2)),
                         ("remark_nonpositive", Window(6, 4))):
        rep = verify_triangle(load_datum(name), window)
        assert rep.ok, (name, rep.failures)


def d1_after_d_datum() -> FloerDatum:
    # x -> y under d and d1(y) != 0, so d1∘d != 0 and validate fails
    gens = [Generator("x", 2, Fraction(-3, 2)), Generator("y", 1, Fraction(-1, 2))]
    return FloerDatum("d1_after_d", gens, LambdaMatrix({("x", "y"): nov(1, 1)}),
                      LambdaMatrix(), {"y": nov(1, "1/2")}, {})


def test_triangle_refuses_invalid_datum_at_every_window():
    # the window 2,1 checks an empty tail band, so only validate sees this fault
    datum = d1_after_d_datum()
    assert not validate(datum).ok
    for window in (Window(2, 1), Window(3, 1), Window(6, 4)):
        rep = verify_triangle(datum, window)
        assert not rep.ok and rep.failures[0].startswith("precondition:"), window


def test_triangle_random_data():
    rng = Random(23)
    for _ in range(30):
        datum = random_datum(rng)
        rep = verify_triangle(datum, WINDOW)
        assert rep.ok, rep.failures


def test_triangle_window_stability():
    rng = Random(29)
    for _ in range(5):
        datum = random_datum(rng)
        assert verify_triangle(datum, Window(6, 4)).ok
        assert verify_triangle(datum, Window(8, 6)).ok


def test_triangle_catches_a_sign_flipped_k(s3, monkeypatch):
    # l∘j + i∘k is then (sigma alpha, +tail): still invertible, but not ε
    monkeypatch.setattr(equivariant, "htpy_k", lambda e: XElement({}, dict(e.x)))
    rep = verify_triangle(s3, WINDOW)
    assert not rep.ok
    assert rep.failures[0].startswith("l∘j + i∘k = ε fails at (0, x^-1)"), rep.failures


def test_triangle_catches_r_dropping_x0(s3, monkeypatch):
    monkeypatch.setattr(equivariant, "htpy_r", lambda z: XElement(
        {}, {i: a for i, a in z.x.items() if i >= 1}))
    rep = verify_triangle(s3, WINDOW)
    assert not rep.ok
    assert rep.failures[0].startswith("r∘p + j∘l = ε fails at (0, x^0)"), rep.failures


def test_triangle_on_kept_orbits_matches_fresh_data():
    # u is not nilpotent, so the W(8, 6) run extends every d1-orbit that
    # the W(6, 4) run kept, 20 levels deep, to 26 levels
    kept = cyclic_u_datum()
    for window in (Window(6, 4), Window(8, 6)):
        rep = verify_triangle(kept, window)
        assert rep.ok and rep.failures == verify_triangle(cyclic_u_datum(), window).failures
        win = inner_window(window)
        for _, e in check_basis(kept, window, margin=False):
            assert check_d(kept, e, win) == check_d(cyclic_u_datum(), e, win)
        for _, e in hat_basis(kept, window, margin=False):
            assert map_p(kept, e, win) == map_p(cyclic_u_datum(), e, win)
    assert len(check_d(kept, XElement(kept.basis_vector("a")), win).x) == win.T // 2


def test_pj_equals_minus_k_checkd():
    rng = Random(31)
    for _ in range(10):
        datum = random_datum(rng)
        for g in datum.names():
            e = XElement(datum.basis_vector(g), {-1: nov(2, "1/2")})
            lhs = map_p(datum, map_j(e), WINDOW)
            rhs = htpy_k(check_d(datum, e, WINDOW))
            assert (lhs + rhs).is_zero()


def test_x_equivariance_of_i_and_p(sigma):
    z = XElement({}, {0: nov(3, "1/2"), -2: one()})
    lhs = map_i(sigma, x_action_bar(z, WINDOW))
    rhs = x_action_check(sigma, map_i(sigma, z))
    assert (lhs - rhs).is_zero()
    e = XElement(sigma.basis_vector("beta"), {1: one()})
    lhs = map_p(sigma, x_action_hat(sigma, e, WINDOW), WINDOW)
    rhs = x_action_bar(map_p(sigma, e, WINDOW), WINDOW)
    # compare inside the window interior: the shift loses slot -T
    interior = {i for i in range(-WINDOW.T + 1, WINDOW.N + 1)}
    assert {i: c for i, c in lhs.x.items() if i in interior} == \
        {i: c for i, c in rhs.x.items() if i in interior}
