"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected number here is either a fixed exact value or checked
against an independent oracle; nothing is tuned at runtime.
"""

import time
from fractions import Fraction
from random import Random

from floergamma.cobordism import (
    compose_tilde,
    load_cobordism,
    verify_functoriality,
    verify_tilde_chain_map,
)
from floergamma.equivariant import Window, verify_triangle
from floergamma.floer_datum import load_datum
from floergamma.gamma import (
    gamma,
    gamma_profile,
    h_invariant,
)
from floergamma.lattice import (
    LatticeData,
    bound_from_class,
    gamma_upper_bounds_from_lattice,
    minimal_vectors,
    signed_sum_odd,
)
from floergamma.morse_minmax import NullHomologousError, evaluate_class
from floergamma.novikov import INF
from floergamma.seifert import gamma_prediction, sweep, whitehead_double_bounds

from datagen import (check_cs_trichotomy, identity_cobordism, random_datum,
                     random_trivial_cobordism, zero_map_datum)
from test_lattice import e8_gram, random_neg_def, _signed_sum_odd_flipped
from test_morse import brute_force, random_complex, random_cycle

FIXTURES = ("s3", "sigma_2_3_5", "neg_sigma_2_3_5", "remark_nonpositive")
WINDOW = Window(6, 4)


def _report(criterion: str, ok: bool):
    print(f"\nacceptance {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_golden_values():
    start = time.monotonic()
    s3 = load_datum("s3")
    sigma = load_datum("sigma_2_3_5")
    neg = load_datum("neg_sigma_2_3_5")
    remark = load_datum("remark_nonpositive")
    ok = True
    ok &= all(gamma(s3, k) == INF for k in (1, 2, 3))
    ok &= all(gamma(s3, k) == 0 for k in (-3, -2, -1, 0))
    ok &= gamma(sigma, 1) == Fraction(1, 120)
    ok &= gamma(sigma, 2) == Fraction(49, 120)
    ok &= all(gamma(sigma, k) == INF for k in (3, 4))
    ok &= all(gamma(sigma, k) == 0 for k in (-3, -2, -1, 0))
    ok &= h_invariant(s3) == 0
    ok &= h_invariant(sigma) == 1
    ok &= h_invariant(neg) == -1
    ok &= gamma(remark, 0) == Fraction(1, 2) - Fraction(1, 4)
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    _report("1 (golden values)", ok)


def test_criterion_2_r_invariant_audit():
    start = time.monotonic()
    res = sweep(2000)
    elapsed = time.monotonic() - start
    ok = res["mismatches"] == [] and res["checked"] > 300 and elapsed < 30.0
    _report("2 (R-invariant cross-formula audit)", ok)


def test_criterion_3_seifert_gamma_concordance():
    datum_value = gamma(load_datum("sigma_2_3_5.json"), 1)
    predicted = gamma_prediction([(2, 3, 5)]).value
    ok = datum_value == predicted == Fraction(1, 120)
    _report("3 (Seifert concordance)", ok)


def test_criterion_4_triangle_verification():
    start = time.monotonic()
    ok = True
    for name in FIXTURES:
        ok &= verify_triangle(load_datum(name), WINDOW).ok
    rng = Random(107)
    for _ in range(100):
        datum = random_datum(rng)
        ok &= verify_triangle(datum, WINDOW).ok
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    _report("4 (triangle verification)", ok)


def test_criterion_5_cobordism_functoriality():
    ok = True
    for name in FIXTURES:
        cob = identity_cobordism(load_datum(name))
        ok &= verify_tilde_chain_map(cob).ok
        ok &= verify_functoriality(cob, WINDOW).ok
    delta1 = load_cobordism("delta1_sigma_2_3_5_to_s3")
    ok &= verify_tilde_chain_map(delta1).ok
    ok &= verify_functoriality(delta1, WINDOW).ok
    rng = Random(109)
    for _ in range(50):
        datum = zero_map_datum(rng)
        a = random_trivial_cobordism(rng, datum)
        b = random_trivial_cobordism(rng, datum)
        c = random_trivial_cobordism(rng, datum)
        ident = identity_cobordism(datum)
        ab = compose_tilde(a, b)
        ok &= verify_tilde_chain_map(ab).ok
        ok &= ab.c == a.c * b.c
        ua = compose_tilde(ident, a)
        au = compose_tilde(a, ident)
        ok &= ua.phi == a.phi == au.phi and ua.c == a.c == au.c
        ok &= ua.mu == a.mu == au.mu
        ok &= ua.delta1 == a.delta1 == au.delta1
        ok &= ua.delta2 == a.delta2 == au.delta2
        left = compose_tilde(ab, c)
        right = compose_tilde(a, compose_tilde(b, c))
        ok &= (left.phi == right.phi and left.mu == right.mu
               and left.delta1 == right.delta1 and left.delta2 == right.delta2
               and left.c == right.c)
    _report("5 (cobordism functoriality)", ok)


def test_criterion_6_monotonicity_and_threshold():
    ok = True
    for name in FIXTURES:
        datum = load_datum(name)
        profile = gamma_profile(datum, -4, 4)  # raises on monotonicity failure
        h = h_invariant(datum)
        ok &= all((v != INF) == (k <= 2 * h) for k, v in profile)
    # the orientation-reversed fixture follows the reduced-set values
    neg = load_datum("neg_sigma_2_3_5")
    ok &= gamma(neg, -1) == INF and gamma(neg, 0) == INF and gamma(neg, -2) == 0
    rng = Random(113)
    for _ in range(200):
        datum = random_datum(rng)
        profile = gamma_profile(datum, -4, 4)
        h = h_invariant(datum)
        ok &= all((v != INF) == (k <= 2 * h) for k, v in profile)
    _report("6 (monotonicity and finiteness threshold)", ok)


def test_criterion_7_cs_trichotomy():
    ok = True
    for name in FIXTURES:
        ok &= check_cs_trichotomy(load_datum(name), -3, 3).ok
    rng = Random(127)
    for _ in range(100):
        ok &= check_cs_trichotomy(random_datum(rng), -3, 3).ok
    _report("7 (CS trichotomy)", ok)


def test_criterion_8_lattice():
    start = time.monotonic()
    e8 = LatticeData(e8_gram())
    m, vecs = minimal_vectors(e8)
    ok = m == 2 and len(vecs) == 240
    res = bound_from_class(e8, vecs[0])
    ok &= res == {"n0": 1, "bound": Fraction(1, 2), "signed_sum": 1}
    ok &= gamma_upper_bounds_from_lattice(
        LatticeData([[-1, 0], [0, -1]])) is None
    rng = Random(131)
    checked = 0
    while checked < 100:
        L = random_neg_def(rng, rng.randint(1, 4))
        e = [0] * L.rank
        e[rng.randrange(L.rank)] = 1
        qe = L.q(e)
        if -qe < 2:
            continue
        mm = rng.choice((0, 1))
        if (qe - mm) % 2 != 0:
            mm += 1
        xi = tuple(rng.randint(-2, 2) for _ in range(L.rank))
        try:
            total = signed_sum_odd(L, tuple(e), xi, mm)
        except Exception:
            continue
        ok &= total == _signed_sum_odd_flipped(L, tuple(e), xi, mm)
        checked += 1
    elapsed = time.monotonic() - start
    ok &= elapsed < 5.0
    _report("8 (lattice bounds)", ok)


def test_criterion_9_whitehead_bounds():
    res = whitehead_double_bounds(2, 3)
    ok = res["lower"] == Fraction(1, 552) and res["upper"] == Fraction(1, 264)
    pq = 6
    ok &= res["candidates"] == (
        Fraction(1, 4 * pq * (4 * pq - 1)),
        Fraction(1, 2 * pq * (4 * pq - 1)),
        Fraction(1, 4 * pq * (2 * pq - 1)),
    )
    ok &= res["candidates"] == (Fraction(1, 552), Fraction(1, 276),
                                Fraction(1, 264))
    _report("9 (Whitehead double bounds)", ok)


def test_criterion_10_morse_minmax():
    rng = Random(137)
    ok = True
    done = 0
    while done < 200:
        M = random_complex(rng)
        sigma = random_cycle(rng, M)
        if not sigma:
            continue
        try:
            value = evaluate_class(M, sigma)
        except NullHomologousError:
            continue
        ok &= value == brute_force(M, sigma)
        done += 1
    laws = 0
    while laws < 50:
        n = rng.randint(2, 8)
        gens = [(f"c{i}", rng.randint(0, 2), None) for i in range(n)]
        gens = [(nm, idx, Fraction(idx)) for nm, idx, _ in gens]
        from floergamma.morse_minmax import MorseComplex

        M = MorseComplex(gens, {})
        wanted = rng.randint(0, 2)
        pure = {nm: rng.choice((-1, 1)) for nm, idx, _ in gens
                if idx == wanted and rng.random() < 0.7}
        if not pure:
            continue
        ok &= evaluate_class(M, pure) == wanted
        laws += 1
    _report("10 (Morse min-max)", ok)
