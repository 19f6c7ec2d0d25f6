"""Lattice enumeration, signed class sums and the derived bounds."""

import math
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from floergamma import lattice
from floergamma.lattice import (
    LatticeData,
    LatticeInputError,
    bound_from_class,
    enumerate_up_to_norm,
    gamma_upper_bounds_from_lattice,
    minimal_norm,
    minimal_vectors,
    signed_sum_even,
    signed_sum_odd,
)


def e8_gram():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for a, b in edges:
        g[a][b] = g[b][a] = 1
    return g


@pytest.fixture(scope="module")
def e8():
    return LatticeData(e8_gram())


def diag(*entries):
    n = len(entries)
    return LatticeData([[entries[i] if i == j else 0 for j in range(n)]
                        for i in range(n)])


def test_validation():
    with pytest.raises(LatticeInputError):
        LatticeData([[1]])
    with pytest.raises(LatticeInputError):
        LatticeData([[-1, 2], [2, -1]])  # indefinite
    with pytest.raises(LatticeInputError):
        LatticeData([[-1, 1], [0, -1]])  # not symmetric
    with pytest.raises(LatticeInputError):
        LatticeData([[-1] * 13] * 13)
    for gram in ([[-2.7]], [[-2.0]], [["-2"]], [[True]], [-2], "[[-2]]"):
        with pytest.raises(LatticeInputError):
            LatticeData(gram)


def _int_det(rows) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(map(int, r)) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def _leibniz_det(rows) -> int:
    from itertools import permutations
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def _negative_definite_by_minors(gram) -> bool:
    # Sylvester: -G is positive definite iff its leading principal minors are
    neg = [[-x for x in row] for row in gram]
    return all(_int_det([row[:k] for row in neg[:k]]) > 0
               for k in range(1, len(gram) + 1))


def _random_gram(rng: Random, n: int, kind: str):
    if kind == "indefinite":
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-3, 2)
        return g
    # -(M^T M + I) is definite; -(M^T M) with fewer rows than columns is
    # semidefinite and singular
    rows = n if kind == "definite" else rng.randint(0, n - 1)
    m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rows)]
    shift = 1 if kind == "definite" else 0
    return [[-(sum(r[i] * r[j] for r in m) + (shift if i == j else 0))
             for j in range(n)] for i in range(n)]


def test_int_det_reference_matches_leibniz():
    rng = Random(101)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert _int_det(rows) == _leibniz_det(rows)


def test_constructor_refuses_exactly_as_the_leading_minors():
    rng = Random(103)
    grams = [[[-1, 1], [1, -1]], [[0]], [[-1, 0], [0, 0]], [[0, 0], [0, -1]],
             [[-2, 2], [2, -2]], [[-1, 0], [0, 1]]]
    grams += [_random_gram(rng, rng.randint(1, 8), kind)
              for kind in ("definite", "semidefinite", "indefinite") for _ in range(40)]
    verdicts = set()
    for gram in grams:
        expected = _negative_definite_by_minors(gram)
        verdicts.add(expected)
        if expected:
            assert LatticeData(gram).gram == tuple(map(tuple, gram))
        else:
            with pytest.raises(LatticeInputError, match="^Gram matrix is not negative definite$"):
                LatticeData(gram)
    assert verdicts == {True, False}


def test_one_factor_per_lattice(monkeypatch):
    # the constructor factors once; walks at two rising bounds and both
    # signed sums read that factor
    factor = lattice._cholesky
    walk = lattice._walk
    factors, walks = [], []
    monkeypatch.setattr(lattice, "_cholesky", lambda p: factors.append(1) or factor(p))
    monkeypatch.setattr(lattice, "_walk", lambda L, b: walks.append(b) or walk(L, b))
    L = diag(-2, -2)
    assert minimal_norm(L) == 2
    assert len(enumerate_up_to_norm(L, 4)) == 4
    assert signed_sum_even(L, (1, 1)) == 2
    assert signed_sum_odd(L, (1, 1), (1, 0), 2) == 2
    assert walks == [2, 4]
    assert factors == [1]


def test_minimal_norm_examples(e8):
    assert minimal_norm(diag(-1)) == 1
    assert minimal_norm(diag(-2, -3)) == 2
    assert minimal_norm(e8) == 2


def test_e8_has_240_minimal_vectors(e8):
    m, vecs = minimal_vectors(e8)
    assert m == 2
    assert len(vecs) == 240
    assert len(set(vecs)) == 240
    assert all(e8.q(list(v)) == -2 for v in vecs)


def test_enumeration_completeness_under_doubled_radius(e8):
    rng = Random(73)
    lattices = [e8, diag(-2, -3), diag(-1, -5)]
    for _ in range(10):
        n = rng.randint(1, 4)
        g = random_neg_def(rng, n)
        lattices.append(g)
    for L in lattices:
        m = minimal_norm(L)
        # fresh lattices, so that neither list is read from the other's walk
        small = {v for v, q in enumerate_up_to_norm(LatticeData(L.gram), m) if -q == m}
        wide = {v for v, q in enumerate_up_to_norm(LatticeData(L.gram), 2 * m)
                if -q == m}
        assert small == wide


def cartan(n: int, edges) -> LatticeData:
    g = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in edges:
        g[a][b] = g[b][a] = 1
    return LatticeData(g)


def test_filtered_wide_walk_equals_fresh_walk(monkeypatch):
    # a smaller bound is answered from the widest walk; the answer must be
    # the fresh walk's list, order included (the witness is its first hit)
    rng = Random(97)
    lattices = [LatticeData(e8_gram())]
    lattices += [cartan(n, [(i, i + 1) for i in range(n - 1)]) for n in (1, 3, 5)]
    lattices += [cartan(n, [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)])
                 for n in (4, 5)]
    lattices += [random_neg_def(rng, rng.randint(1, 4)) for _ in range(24)]
    fresh = lattice._walk
    walks = []
    monkeypatch.setattr(lattice, "_walk",
                        lambda L, bound: walks.append(bound) or fresh(L, bound))
    for L in lattices:
        enumerate_up_to_norm(L, 6)
        for bound in range(1, 7):
            assert enumerate_up_to_norm(L, bound) == fresh(L, bound)
    assert walks == [6] * len(lattices)


def random_neg_def(rng: Random, n: int) -> LatticeData:
    # -(M^T M + I) for a random integer matrix M is negative definite
    m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    g = [[-(sum(m[k][i] * m[k][j] for k in range(n)) + (1 if i == j else 0))
          for j in range(n)] for i in range(n)]
    return LatticeData(g)


def test_box_oracle_agreement():
    # the walk equals an independent exhaustive enumeration, order and norms
    # included: for P = -G, |v_i| <= sqrt(bound (P^-1)_ii) bounds the box,
    # and the documented order is lexicographic in (v[n-1], ..., v[0])
    rng = Random(79)
    on_bound = cleared = 0
    for _ in range(40):
        n = rng.randint(1, 5)
        L = random_neg_def(rng, n)
        inv = _fraction_inverse([[Fraction(-x) for x in row] for row in L.gram])
        _, dens, _, scale = L._form
        cleared += scale > 1 or any(d > 1 for d in dens)
        m = minimal_norm(L)
        for bound in range(m, m + 5):
            sides = [range(-r, r + 1) for r in (_isqrt_ceil(bound * inv[i][i]) for i in range(n))]
            expected = []
            for vec in product(*sides):
                q = L.q(vec)
                if any(vec) and -q <= bound and next(x for x in vec if x) > 0:
                    expected.append((vec, q))
            expected.sort(key=lambda pair: tuple(reversed(pair[0])))
            assert enumerate_up_to_norm(LatticeData(L.gram), bound) == expected
            on_bound += sum(-q == bound for _, q in expected)
    # the exact ranges end at |Q(v)| = bound; the cleared form is not trivial
    assert on_bound > 0 and cleared > 0


def _fraction_inverse(m):
    n = len(m)
    aug = [row[:] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _isqrt_ceil(fr: Fraction) -> int:
    s = math.isqrt(fr.numerator // fr.denominator)
    while Fraction(s * s) < fr:
        s += 1
    return s


def test_gamma_upper_bounds(e8):
    res = gamma_upper_bounds_from_lattice(e8)
    assert res["bound"] == Fraction(1, 2) and res["range_max"] == 1
    assert gamma_upper_bounds_from_lattice(diag(-1, -1, -1)) is None
    res = gamma_upper_bounds_from_lattice(diag(-3, -5))
    assert res["bound"] == Fraction(3, 4) and res["range_max"] == 1


def test_signed_sum_even_examples(e8):
    m, vecs = minimal_vectors(e8)
    for v in vecs:
        assert signed_sum_even(e8, v) == 1
    assert signed_sum_even(diag(-2, -2), (1, 0)) == 1
    assert signed_sum_even(diag(-2, -2), (1, 1)) == 2


def test_signed_sum_preconditions():
    with pytest.raises(LatticeInputError):
        signed_sum_even(diag(-3), (1,))  # odd norm
    with pytest.raises(LatticeInputError):
        signed_sum_even(diag(-1, -1), (3, 1))  # (1,1) beats it in its class
    with pytest.raises(LatticeInputError):
        signed_sum_odd(diag(-3), (1,), (1,), 0)  # parity mismatch
    with pytest.raises(LatticeInputError):
        signed_sum_even(diag(-1, -1), (1, 0))  # |Q(e)| = 1 too small


def test_walk_cap_boundary(monkeypatch):
    # -I_2 at bound 1 visits 9 nodes: the root, the 3 integers t with
    # t^2 <= 1, and the 5 vectors of Z^2 with |v|^2 <= 1
    monkeypatch.setattr(lattice, "WALK_CAP", 9)
    assert sorted(v for v, _ in enumerate_up_to_norm(diag(-1, -1), 1)) == [(0, 1), (1, 0)]
    monkeypatch.setattr(lattice, "WALK_CAP", 8)
    L = diag(-1, -1)
    with pytest.raises(LatticeInputError, match="more than 8 nodes"):
        enumerate_up_to_norm(L, 1)
    assert L._widest is None
    # the signed sums walk under the same cap: -I_2 at bound 2 visits 1 + 3 + 9
    monkeypatch.setattr(lattice, "WALK_CAP", 13)
    assert signed_sum_even(diag(-1, -1), (1, 1)) == 0
    monkeypatch.setattr(lattice, "WALK_CAP", 12)
    with pytest.raises(LatticeInputError, match="more than 12 nodes"):
        signed_sum_even(diag(-1, -1), (1, 1))


def test_a_class_norm_too_long_to_print_is_named_before_any_walk(monkeypatch):
    # |Q(e)| >= 10^4300 is refused as Q(e), not by the generic refusal of a
    # number too long to print, and before a walk to its norm
    def no_walk(L, bound):
        raise AssertionError("a walk was taken")

    monkeypatch.setattr(lattice, "_walk", no_walk)
    i4 = diag(-1, -1, -1, -1)
    message = r"^Q\(e\) has more than 4300 digits, too long to print$"
    # Q(e) of 5,001 digits, even and odd; then -10^4300, the least refused
    for e in ((1, 10 ** 2500 - 1, 0, 0), (1, 10 ** 2500, 0, 0), (10 ** 2150, 0, 0, 0)):
        for call in (lambda: signed_sum_even(i4, e), lambda: bound_from_class(i4, e),
                     lambda: signed_sum_odd(i4, e, (1, 0, 0, 0), 2),
                     lambda: bound_from_class(i4, e, (1, 0, 0, 0), 2)):
            with pytest.raises(LatticeInputError, match=message):
                call()
    # -(10^2150 - 1)^2 has 4300 digits: admitted, and refused for its odd parity
    with pytest.raises(LatticeInputError, match=r"^Q\(e\) = -9{2149}8.* is odd"):
        signed_sum_even(i4, (10 ** 2150 - 1, 0, 0, 0))


def test_e8_walk_node_count(monkeypatch):
    # E8 at bound 8 visits 48,615 nodes: the root and one per admissible
    # value at each level, complete vectors included
    monkeypatch.setattr(lattice, "WALK_CAP", 48_615)
    assert len(enumerate_up_to_norm(LatticeData(e8_gram()), 8)) == 13_320
    monkeypatch.setattr(lattice, "WALK_CAP", 48_614)
    with pytest.raises(LatticeInputError, match="more than 48614 nodes"):
        enumerate_up_to_norm(LatticeData(e8_gram()), 8)


def test_signed_sum_odd_examples():
    assert signed_sum_odd(diag(-3), (1,), (1,), 1) == -1
    assert signed_sum_odd(diag(-2, -3), (0, 1), (0, 1), 1) == -1


def test_signed_sum_odd_m0_matches_even():
    rng = Random(83)
    count = 0
    while count < 20:
        n = rng.randint(1, 4)
        L = random_neg_def(rng, n)
        e = [0] * n
        e[rng.randrange(n)] = 1
        qe = L.q(e)
        if qe % 2 != 0 or -qe < 2:
            continue
        try:
            even = signed_sum_even(L, tuple(e))
        except LatticeInputError:
            continue
        xi = tuple(rng.randint(-2, 2) for _ in range(n))
        assert signed_sum_odd(L, tuple(e), xi, 0) == even
        count += 1


def test_pair_representative_invariance():
    # flipping the representative of each pair leaves the sums unchanged
    rng = Random(89)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 4)
        L = random_neg_def(rng, n)
        e = [0] * n
        e[rng.randrange(n)] = 1
        qe = L.q(e)
        if -qe < 2:
            continue
        m = rng.choice((0, 1, 2))
        if (qe - m) % 2 != 0:
            m += 1
        xi = tuple(rng.randint(-2, 2) for _ in range(n))
        try:
            total = signed_sum_odd(L, tuple(e), xi, m)
        except LatticeInputError:
            continue
        flipped = _signed_sum_odd_flipped(L, tuple(e), xi, m)
        assert total == flipped
        checked += 1


def _signed_sum_odd_flipped(L, e, xi, m):
    from floergamma.lattice import _class_pairs

    cls, witness = _class_pairs(L, e)
    assert witness is None
    total = 0
    for v in cls:
        w = tuple(-x for x in v)
        half = [(x + y) // 2 for x, y in zip(e, w)]
        sign = -1 if L.q(half) % 2 else 1
        pairing = sum(a * b for a, b in zip(xi, w))
        total += sign * pairing ** m
    return total


def test_bound_from_class_examples(e8):
    _, vecs = minimal_vectors(e8)
    res = bound_from_class(e8, vecs[0])
    assert res == {"n0": 1, "bound": Fraction(1, 2), "signed_sum": 1}
    res = bound_from_class(diag(-2, -2), (1, 1))
    assert res == {"n0": 2, "bound": Fraction(1), "signed_sum": 2}
    res = bound_from_class(diag(-3), (1,), (1,), 1)
    assert res == {"n0": 1, "bound": Fraction(3, 4), "signed_sum": -1}


def test_class_vectors_of_the_wrong_length_are_refused():
    # a short e raised IndexError and a long one lost its last entries
    d22 = diag(-2, -2)
    for e in ((1,), (1, 1, 1)):
        for call in (lambda: bound_from_class(d22, e), lambda: signed_sum_even(d22, e),
                     lambda: signed_sum_odd(d22, e, (1, 0), 0)):
            with pytest.raises(LatticeInputError, match=r"^e has wrong length$"):
                call()
    for xi in ((1,), (1, 0, 0)):
        with pytest.raises(LatticeInputError, match=r"^xi has wrong length$"):
            bound_from_class(d22, (1, 1), xi, 0)
    for xi, m in (((1, 0), None), (None, 0)):
        with pytest.raises(LatticeInputError, match=r"^xi and m must be given together$"):
            bound_from_class(d22, (1, 1), xi, m)


def test_bound_consistency_with_minimal_norm(e8):
    # at a minimal vector with even norm, the class bound reproduces the
    # global bound whenever the signed sum does not vanish
    for L in (e8, diag(-2, -2), diag(-2, -6)):
        m, vecs = minimal_vectors(L)
        if m % 2 != 0 or m < 2:
            continue
        res = bound_from_class(L, vecs[0])
        if res is not None:
            glob = gamma_upper_bounds_from_lattice(L)
            assert res["bound"] == glob["bound"]
            assert res["n0"] <= glob["range_max"] or res["n0"] == glob["range_max"]
