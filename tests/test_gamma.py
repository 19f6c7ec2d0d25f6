"""The invariant: golden values, monotonicity, h, bounds, oracle agreement."""

import importlib
import itertools
import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from floergamma import _linalg
from floergamma.cli import main
from floergamma.floer_datum import (
    FloerDatum,
    Generator,
    LambdaMatrix,
    datum_to_json,
    load_datum,
    vec_add,
)
from floergamma.gamma import (
    DatumInconsistencyError,
    InvalidDatumError,
    _first_kernel_hit,
    check_cs_trichotomy,
    eta_lower_bound,
    feasible_nonempty,
    gamma,
    gamma_profile,
    h_invariant,
    tau_lower_bound,
    tau_prime_lower_bound,
)
from floergamma.novikov import INF, NovikovElement, mdeg_tuple

from datagen import (
    apply_u_power,
    count_u_applications,
    d_essential_datum,
    evaluate_at_one,
    filtered_basis_change,
    random_datum,
    random_small_datum,
    to_element,
    transformed_datum,
    with_acyclic_pair,
)


@pytest.fixture(scope="module")
def s3():
    return load_datum("s3")


@pytest.fixture(scope="module")
def sigma():
    return load_datum("sigma_2_3_5")


@pytest.fixture(scope="module")
def neg_sigma():
    return load_datum("neg_sigma_2_3_5")


@pytest.fixture(scope="module")
def remark():
    return load_datum("remark_nonpositive")


def test_golden_values_s3(s3):
    for k in range(1, 5):
        assert gamma(s3, k) == INF
    for k in range(-4, 1):
        assert gamma(s3, k) == 0


def test_golden_values_sigma(sigma):
    assert gamma(sigma, 1) == Fraction(1, 120)
    assert gamma(sigma, 2) == Fraction(49, 120)
    for k in (3, 4, 5):
        assert gamma(sigma, k) == INF
    for k in range(-4, 1):
        assert gamma(sigma, k) == 0


def test_golden_values_neg_sigma(neg_sigma):
    # values of the reduced feasible-set definition; the orientation
    # reversal pins the finiteness threshold at -2
    assert gamma(neg_sigma, -2) == 0
    assert gamma(neg_sigma, -3) == 0
    assert gamma(neg_sigma, -1) == INF
    assert gamma(neg_sigma, 0) == INF
    assert gamma(neg_sigma, 1) == INF


def test_golden_value_remark(remark):
    assert gamma(remark, 0) == Fraction(1, 4)
    assert gamma(remark, 1) == INF
    assert gamma_profile(remark, 0, 1) == [(0, Fraction(1, 4)), (1, INF)]


def test_golden_values_of_a_d_row_meeting_u_d2():
    # d(a) = u d2(1) = l^(r_c) c.  At k = -1 the column of q_1 is
    # -l^((-k-1)/2) u d2(1) = -l^0 u d2(1), which alpha = l^(r_a) a meets,
    # so Gamma(-1) = -r_a; a column shifted by another power of l is met by
    # no alpha and gives inf.  At k = -3 and -2, u^3 d2(1) = u^2 d2(1) = 0.
    ra, rb, rc = Fraction(-1, 2), Fraction(1, 3), Fraction(5, 6)
    gens = [Generator("a", 1, ra), Generator("b", 4, rb), Generator("c", 0, rc)]
    d = LambdaMatrix({("a", "c"): NovikovElement.term(1, rc - ra)})
    u = LambdaMatrix({("b", "c"): NovikovElement.term(1, rc - rb)})
    datum = FloerDatum("d_meets_u_d2", gens, d, u, {}, {"b": NovikovElement.term(1, rb)})
    assert [gamma(datum, k) for k in range(-3, 1)] == [0, 0, -ra, INF]


def test_profiles(sigma, s3):
    assert gamma_profile(sigma, -2, 3) == [
        (-2, 0), (-1, 0), (0, 0),
        (1, Fraction(1, 120)), (2, Fraction(49, 120)), (3, INF)]
    assert gamma_profile(s3, -2, 2) == [(-2, 0), (-1, 0), (0, 0), (1, INF), (2, INF)]
    with pytest.raises(ValueError):
        gamma_profile(s3, 2, 1)


def test_h_invariants(s3, sigma, neg_sigma, remark):
    assert h_invariant(s3) == 0
    assert h_invariant(sigma) == 1
    assert h_invariant(neg_sigma) == -1
    assert h_invariant(remark) == 0


def test_gamma_rejects_invalid_datum(sigma):
    bad = FloerDatum("bad",
                     [Generator("alpha", 1, Fraction(-1, 120)),
                      Generator("beta", 4, Fraction(-49, 120))],
                     LambdaMatrix(), sigma.u, sigma.d1, {})
    with pytest.raises(ValueError):
        gamma(bad, 1)
    for call in (lambda: gamma(bad, -2), lambda: h_invariant(bad)):
        with pytest.raises(InvalidDatumError):
            call()


def test_odd_largest_feasible_degree_is_refused(tmp_path, capsys):
    # one d1 source and no u: degree 1 is the only feasible degree
    odd = FloerDatum("odd", [Generator("a", 1, Fraction(-1, 3))],
                     LambdaMatrix(), LambdaMatrix(),
                     {"a": NovikovElement.term(2, Fraction(1, 3))}, {})
    assert feasible_nonempty(odd, 1)
    assert not any(feasible_nonempty(odd, k) for k in range(2, 6))
    with pytest.raises(DatumInconsistencyError):
        h_invariant(odd)
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(datum_to_json(odd)))
    assert main(["h", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "odd" in err and "Traceback" not in err


def test_witness_soundness(sigma, neg_sigma, remark):
    rng = Random(37)
    data = [sigma, neg_sigma, remark] + [random_datum(rng) for _ in range(40)]
    data += [transformed_datum(rng, datum) for datum in data]
    for datum in data:
        for k in range(-3, 3):
            value, witness = gamma(datum, k, want_witness=True)
            if value == INF:
                assert witness is None
                continue
            if witness is None:
                continue
            alpha = to_element(witness.alpha, datum)
            if k >= 1:
                assert not datum.apply_d(alpha)
                vec = alpha
                for _ in range(k - 1):
                    assert datum.apply_d1(vec).is_zero()
                    vec = datum.apply_u(vec)
                assert datum.apply_d1(vec).coefficient(0) != 0
                assert -mdeg_tuple(alpha.values()) == value
            else:
                qs = witness.a_tuple
                assert qs is not None and any(q != 0 for q in qs)
                rhs = {}
                for i, q in enumerate(qs):
                    if q == 0:
                        continue
                    lam = NovikovElement.term(q, Fraction(-k - i, 2))
                    rhs = vec_add(rhs, apply_u_power(datum, datum.apply_d2(lam), i))
                lhs = datum.apply_d(alpha)
                assert lhs == {g: el for g, el in rhs.items() if not el.is_zero()}
                assert value == max(Fraction(0), -mdeg_tuple(alpha.values()))


def gamma_oracle_positive(datum, k, grid=range(-4, 5)):
    """Grid search over homogeneous chains, straight from the map formulas."""
    gens = [g for g in datum.names()
            if datum.grading(g) % 8 == (4 * k - 3) % 8]
    best = None
    for combo in itertools.product(grid, repeat=len(gens)):
        if not any(combo):
            continue
        alpha = {g: NovikovElement.term(c, datum.lift(g))
                 for g, c in zip(gens, combo) if c}
        if datum.apply_d(alpha):
            continue
        vec = alpha
        ok = True
        for _ in range(k - 1):
            if not datum.apply_d1(vec).is_zero():
                ok = False
                break
            vec = datum.apply_u(vec)
        if not ok:
            continue
        if datum.apply_d1(vec).coefficient(0) == 0:
            continue
        m = mdeg_tuple(alpha.values())
        best = m if best is None else max(best, m)
    return INF if best is None else -best


def test_oracle_agreement_small_data():
    rng = Random(41)
    for _ in range(60):
        datum = random_small_datum(rng)
        for k in (1, 2, 3):
            assert gamma(datum, k) == gamma_oracle_positive(datum, k), \
                (datum.name, k,
                 [(g.name, g.grading, g.energy_lift) for g in datum.generators])


def test_oracle_agreement_fixtures(sigma):
    for k in (1, 2, 3):
        assert gamma(sigma, k) == gamma_oracle_positive(sigma, k)


def test_monotonicity_random_data():
    rng = Random(43)
    for _ in range(120):
        datum = random_datum(rng)
        profile = gamma_profile(datum, -4, 4)
        values = [v for _, v in profile]
        assert values == sorted(values, key=lambda v: (v == INF, v))


def test_finiteness_threshold_random_data():
    rng = Random(47)
    for _ in range(120):
        datum = random_datum(rng)
        h = h_invariant(datum)
        for k in range(-4, 5):
            assert (gamma(datum, k) != INF) == (k <= 2 * h), (k, h)


def rational_shadow(datum):
    """feasible_nonempty from every map evaluated at l = 1, one dense system
    and a fresh rank comparison per degree.

    Exact for energy-additive data, where every entry from g to h carries
    the exponent r_h - r_g: each image then has one exponent per generator.
    """
    names = datum.names()
    idx = {g: i for i, g in enumerate(names)}
    n = len(names)

    def ev_matrix(matrix):
        m = [[Fraction(0)] * n for _ in range(n)]
        for s, t, el in matrix.entries():
            m[idx[t]][idx[s]] += evaluate_at_one(el)
        return m

    def mat_vec(m, vec):
        return [sum(m[t][s] * vec[s] for s in range(n)) for t in range(n)]

    d_m = ev_matrix(datum.d)
    u_m = ev_matrix(datum.u)
    d1_v = [evaluate_at_one(datum.d1.get(g, NovikovElement.zero())) for g in names]
    d2_v = [evaluate_at_one(datum.d2.get(g, NovikovElement.zero())) for g in names]
    towers = {}  # generator index -> ([d1(u^j e_i) for j < len], next u^j e_i)

    def tower(i, depth):
        col, vec = towers.get(i, ([], [Fraction(int(t == i)) for t in range(n)]))
        while len(col) < depth:
            col.append(sum(d1_v[t] * vec[t] for t in range(n)))
            vec = mat_vec(u_m, vec) if any(vec) else vec
        towers[i] = col, vec
        return col

    def nonempty(k):
        gens = [i for i, g in enumerate(names)
                if datum.grading(g) % 8 == (4 * k - 3) % 8]
        if k >= 1:
            if not gens:
                return False
            rows = [[d_m[t][i] for i in gens] for t in range(n)]
            cols = [tower(i, k) for i in gens]
            rows += [[col[j] for col in cols] for j in range(k - 1)]
            functional = [col[k - 1] for col in cols]
            return _linalg.q_rank(rows + [functional]) > _linalg.q_rank(rows)
        q_idx = [i for i in range(0, -k + 1) if (i - k) % 2 == 0]
        cols = [[d_m[t][i] for t in range(n)] for i in gens]
        for i in q_idx:
            vec = list(d2_v)
            for _ in range(i):
                vec = mat_vec(u_m, vec)
            cols.append([-v for v in vec])
        rows = [[col[t] for col in cols] for t in range(n)]
        return _first_kernel_hit(
            rows, len(cols), list(range(len(gens), len(cols)))) is not None

    return nonempty


def test_feasible_set_matches_rational_shadow():
    rng = Random(53)
    for _ in range(60):
        datum = random_datum(rng)
        shadow = rational_shadow(datum)
        for k in range(-3, 3):
            assert feasible_nonempty(datum, k) == shadow(k), k


def h_oracle(datum):
    """Top-down search: the rational shadow for k >= 1, feasible_nonempty below."""
    n = len(datum.generators)
    shadow = rational_shadow(datum)
    for k in range(1 + 4 * n, -(2 * n + 5), -1):
        if shadow(k) if k >= 1 else feasible_nonempty(datum, k):
            return k // 2 if k % 2 == 0 else None
    return None


def test_h_matches_top_down_oracle():
    rng = Random(61)
    for _ in range(60):
        datum = random_datum(rng)
        for data in (datum, transformed_datum(rng, datum)):
            assert h_invariant(data) == h_oracle(data), data.name


def test_invariance_under_filtered_basis_change_and_acyclic_pairs():
    # the generated data have d = 0; these are the checks on the d rows
    rng = Random(67)
    for _ in range(100):
        datum = random_datum(rng)
        expected = ([gamma(datum, k) for k in range(-4, 5)], h_invariant(datum))
        for other in (filtered_basis_change(rng, datum), with_acyclic_pair(rng, datum),
                      transformed_datum(rng, datum)):
            assert ([gamma(other, k) for k in range(-4, 5)], h_invariant(other)) \
                == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_d_essential_block_gamma_1(seed):
    # Gamma(1) = -min(r_1, r_2) is read off the d rows; a filtered change
    # of basis between a1 and a2 leaves it unchanged
    rng = Random(seed)
    datum = d_essential_datum(rng)
    expected = -min(datum.lift("a1"), datum.lift("a2"))
    assert gamma(datum, 1) == expected
    assert gamma(filtered_basis_change(rng, datum), 1) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_gamma_vanishes_from_the_end_of_the_d2_orbit_down(seed, transform):
    # u raises every energy lift of generated data, so the d2-orbit ends at
    # some m <= n, and Gamma(k) = 0 for every k <= -m (gamma module docstring)
    rng = Random(seed)
    datum = random_datum(rng)
    if transform:
        datum = transformed_datum(rng, datum)
    n = len(datum.generators)
    m = len(datum.d2_orbit(n + 1))
    assert m <= n
    for k in range(-m - 4, -m + 1):
        assert gamma(datum, k) == 0


def test_gamma_nonpositive_u_work_does_not_grow_with_k():
    # the q-columns of Gamma(k <= 0) are shifts of one kept d2-orbit, which
    # ends after two entries on neg_sigma_2_3_5
    counts = []
    for k in (-50, -200, -800):
        datum = load_datum("neg_sigma_2_3_5")
        counter = count_u_applications(datum)
        assert gamma(datum, k) == 0
        counts.append(counter[0])
    assert counts[0] == counts[1] == counts[2]


def test_gamma_nonpositive_q_columns_do_not_grow_with_k(monkeypatch):
    # the q-columns stop at the d2-orbit's end (two entries on
    # neg_sigma_2_3_5): i = 0 and i = 2 of k's parity, whatever |k|
    gamma_module = importlib.import_module("floergamma.gamma")  # not the function
    built = []
    system = gamma_module._nonpositive_system

    def counted(datum, k):
        gens, q_indices, rows = system(datum, k)
        built.append(len(q_indices))
        return gens, q_indices, rows

    monkeypatch.setattr(gamma_module, "_nonpositive_system", counted)
    datum = load_datum("neg_sigma_2_3_5")
    for k in (-50, -200, -800):
        value, witness = gamma(datum, k, want_witness=True)
        assert value == 0 and len(witness.a_tuple) == -k + 1
    assert built == [2, 2, 2]


def test_gamma_nonpositive_keeps_value_and_witness_without_later_empty_columns(
        monkeypatch):
    # padding the d2-orbit with zero entries up to the asked depth restores
    # every empty q-column up to i = -k; value and witness must not change
    rng = Random(53)
    data = [load_datum("neg_sigma_2_3_5"), load_datum("sigma_2_3_5")]
    data += [random_datum(rng) for _ in range(30)]
    data += [transformed_datum(rng, datum) for datum in data[2:12]]
    cases = [(datum, k) for datum in data
             for k in range(-len(datum.d2_orbit(len(datum.generators) + 1)) - 4, 1)]
    stopped = [gamma(datum, k, want_witness=True) for datum, k in cases]
    orbit = FloerDatum.d2_orbit

    def padded(self, depth):
        kept = orbit(self, depth)
        return kept + [{}] * (depth - len(kept))

    monkeypatch.setattr(FloerDatum, "d2_orbit", padded)
    assert [gamma(datum, k, want_witness=True) for datum, k in cases] == stopped


def test_tau_bounds(sigma, neg_sigma, s3):
    assert tau_lower_bound(sigma) == Fraction(1, 120)
    assert tau_lower_bound(neg_sigma) == Fraction(71, 120)
    with pytest.raises(ValueError):
        tau_lower_bound(s3)
    single = load_datum("remark_nonpositive")
    # lifts -1/4 and 1/4: positive representatives 1/4 and 3/4
    assert tau_lower_bound(single) == Fraction(1, 4)


def test_tau_prime_bounds(sigma, neg_sigma):
    assert tau_prime_lower_bound(sigma) == Fraction(2, 5)
    assert tau_prime_lower_bound(neg_sigma) == Fraction(2, 5)
    from floergamma.floer_datum import FloerDatum, Generator, LambdaMatrix

    one_gen = FloerDatum("one", [Generator("a", 1, Fraction(-1, 4))],
                         LambdaMatrix(), LambdaMatrix(), {}, {})
    assert tau_prime_lower_bound(one_gen) == 1


def test_eta_bounds(sigma, neg_sigma, s3):
    assert eta_lower_bound(sigma, sigma) == 0
    assert eta_lower_bound(sigma, neg_sigma) == Fraction(1, 60)
    with pytest.raises(ValueError):
        eta_lower_bound(sigma, s3)


def test_cs_trichotomy(sigma, remark, s3):
    assert check_cs_trichotomy(sigma, -2, 3).ok
    assert check_cs_trichotomy(remark, 0, 0).ok
    assert check_cs_trichotomy(s3, -3, 3).ok


def test_cs_trichotomy_random():
    rng = Random(59)
    for _ in range(60):
        datum = random_datum(rng)
        rep = check_cs_trichotomy(datum, -3, 3)
        assert rep.ok, rep.failures
