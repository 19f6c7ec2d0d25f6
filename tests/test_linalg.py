"""Exact linear algebra over Q and Q(mu), checked against determinants of minors."""

import itertools
import math
from fractions import Fraction
from random import Random

from floergamma._linalg import (
    Echelon,
    poly_matrix_rank,
    q_kernel_basis,
    q_rank,
    q_solve,
)
from floergamma.novikov import NovikovElement, lincomb, to_rational_function


def det(m):
    """Leibniz expansion: independent of any elimination."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, p in enumerate(perm):
            term *= m[i][p]
            if not term:
                break
        total += term
    return total


def minor_rank(rows, ncols):
    """Largest size of a nonzero square minor."""
    for size in range(min(len(rows), ncols), 0, -1):
        for ri in itertools.combinations(range(len(rows)), size):
            for ci in itertools.combinations(range(ncols), size):
                if det([[rows[r][c] for c in ci] for r in ri]):
                    return size
    return 0


def random_matrices(seed, count=150):
    """Small rational matrices, sparse and often rank deficient."""
    rng = Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 5)
        rows = [[Fraction(rng.choice((0, 0, 0, 1, -1, 2, -3)), rng.choice((1, 1, 2, 3)))
                 for _ in range(ncols)] for _ in range(nrows)]
        if nrows >= 2 and rng.random() < 0.5:
            a, b = rng.sample(range(nrows), 2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows[b] = [x + c * y for x, y in zip(rows[b], rows[a])]
        yield rows, ncols


def mat_vec(rows, vec):
    return [sum((a * x for a, x in zip(row, vec)), Fraction(0)) for row in rows]


def test_rank_matches_minors_and_transpose():
    for rows, ncols in random_matrices(1):
        rank = minor_rank(rows, ncols)
        assert q_rank(rows) == rank
        assert q_rank([list(col) for col in zip(*rows)]) == rank


def test_kernel_basis_is_a_basis_of_the_kernel():
    for rows, ncols in random_matrices(2):
        basis = q_kernel_basis(rows, ncols)
        assert len(basis) == ncols - minor_rank(rows, ncols)
        for vec in basis:
            assert len(vec) == ncols
            assert all(x == 0 for x in mat_vec(rows, vec))
        assert minor_rank(basis, ncols) == len(basis)


def test_solve_exactly_when_consistent():
    rng = Random(3)
    for rows, ncols in random_matrices(4):
        if not rows:
            assert q_solve(rows, []) == []
            continue
        rhs = [Fraction(rng.randint(-2, 2)) for _ in rows]
        if rng.random() < 0.5:  # a right-hand side in the column space
            rhs = mat_vec(rows, [Fraction(rng.randint(-2, 2)) for _ in range(ncols)])
        x = q_solve(rows, rhs)
        augmented = [row + [b] for row, b in zip(rows, rhs)]
        consistent = minor_rank(augmented, ncols + 1) == minor_rank(rows, ncols)
        assert (x is not None) == consistent
        if x is not None:
            assert mat_vec(rows, x) == rhs


def assert_primitive(ech):
    """Every stored row is a primitive integer row with a positive pivot entry,
    and zero at every other row's pivot."""
    for pivot, row in ech.rows.items():
        assert min(row) == pivot and row[pivot] > 0
        assert all(type(v) is int and v for v in row.values())
        assert math.gcd(*row.values()) == 1
        assert all(pivot not in other for p, other in ech.rows.items() if p != pivot)


def test_echelon_reports_rank_growth_and_stays_reduced():
    for rows, ncols in random_matrices(5):
        ech = Echelon()
        for i, row in enumerate(rows):
            # sparse input, as the Gamma systems feed it
            grew = ech.add({c: v for c, v in enumerate(row) if v})
            assert grew == (minor_rank(rows[:i + 1], ncols) > minor_rank(rows[:i], ncols))
        assert ech.rank == minor_rank(rows, ncols)
        assert_primitive(ech)


class ScanEchelon:
    """The reference for the integer `Echelon`: a `Fraction` RREF whose rows
    have pivot entry 1.  A reduction subtracts every stored multiple at once;
    an insertion scales its row to pivot 1 and scans every stored row for
    the new pivot, where `Echelon` cross-multiplies the rows its column
    index names."""

    def __init__(self):
        self.rows = {}

    def reduce(self, row):
        row = {c: Fraction(v) for c, v in row.items() if v}
        return lincomb([(None, row)]
                       + [(-row[p], self.rows[p]) for p in row if p in self.rows])

    def add(self, row) -> bool:
        row = self.reduce(row)
        if not row:
            return False
        pivot = min(row)
        inv = 1 / row[pivot]
        row = {c: v * inv for c, v in row.items()}
        for p, other in self.rows.items():
            f = other.get(pivot)
            if f:
                self.rows[p] = lincomb(((None, other), (-f, row)))
        self.rows[pivot] = row
        return True

    def kernel_vector(self, fc):
        return {fc: Fraction(1), **{p: -row[fc] for p, row in self.rows.items() if fc in row}}


def random_sparse_row(rng, ncols):
    return {c: Fraction(rng.choice((-3, -1, 1, 2, 4)), rng.choice((1, 1, 2, 3, 6)))
            for c in rng.sample(range(ncols), rng.randint(1, min(4, ncols)))}


def test_indexed_insertion_matches_the_row_scan_after_every_row():
    rng = Random(2611)
    for _ in range(60):
        ncols = rng.randint(1, 40)
        indexed, scanned = Echelon(), ScanEchelon()
        for _ in range(rng.randint(1, 50)):
            row = random_sparse_row(rng, ncols)
            assert indexed.add(row) == scanned.add(row)
            # the same rows, in the same order, each with its keys in the same
            # order, once an integer row is divided by its pivot entry
            assert [(p, [(c, Fraction(v, r[p])) for c, v in r.items()])
                    for p, r in indexed.rows.items()] \
                == [(p, list(r.items())) for p, r in scanned.rows.items()]
            assert_primitive(indexed)
            holders = {}
            for p, r in indexed.rows.items():
                for c in r:
                    holders.setdefault(c, set()).add(p)
            assert {c: ps for c, ps in indexed._holders.items() if ps} == holders


def test_residues_are_positive_multiples_and_kernel_vectors_are_the_reference():
    rng = Random(2612)
    residues = kernels = 0
    for _ in range(80):
        ncols = rng.randint(1, 30)
        ech, ref = Echelon(), ScanEchelon()
        for _ in range(rng.randint(0, 30)):
            row = random_sparse_row(rng, ncols)
            ech.add(row)
            ref.add(row)
        for _ in range(10):
            row = random_sparse_row(rng, ncols)
            got, want = ech.reduce(row), ref.reduce(row)
            assert list(got) == list(want)
            if want:
                ratio = Fraction(got[min(got)]) / want[min(want)]
                assert ratio > 0
                assert all(Fraction(v) == ratio * want[c] for c, v in got.items())
                assert all(type(v) is int for v in got.values()) and math.gcd(*got.values()) == 1
                residues += 1
        for fc in range(ncols):
            if fc not in ech.rows:
                assert list(ech.kernel_vector(fc).items()) == list(ref.kernel_vector(fc).items())
                kernels += 1
    assert residues > 100 and kernels > 100


# ---------------------------------------------------------------------------
# Rank over Q(mu): Echelon ranks at rational points of mu
# ---------------------------------------------------------------------------

MAX_SIZE = 4
MAX_DEGREE = 4  # of an entry: degree 2, times a factor of degree 1, times (mu - ROOT)
ROOT = Fraction(3, 2)


def at(poly, x):
    return sum((c * x ** i for i, c in enumerate(poly)), Fraction(0))


def brute_force_rank(rows, ncols):
    """Largest minor rank at distinct rational points.

    A minor is a polynomial of degree at most MAX_SIZE * MAX_DEGREE, so a
    nonzero one vanishes at no more than that many points; one point more
    proves the rank over Q(mu).
    """
    points = [Fraction(k, 3) for k in range(-8, MAX_SIZE * MAX_DEGREE - 7)]
    return max(minor_rank([[at(p, x) for p in row] for row in rows], ncols)
               for x in points)


def poly(coeffs):
    """A Novikov element with exponents 0, 1, ...; products are then polynomial products."""
    return NovikovElement((c, i) for i, c in enumerate(coeffs))


def as_polys(rows):
    return [[to_rational_function(el, 1) for el in row] for row in rows]


def random_poly_matrices(seed, count=120):
    """Small matrices over Q[mu], often rank deficient, some vanishing at ROOT."""
    rng = Random(seed)
    root = poly([-2 * ROOT, 2])  # 2 (mu - ROOT)
    for _ in range(count):
        nrows, ncols = rng.randint(0, MAX_SIZE), rng.randint(1, MAX_SIZE)
        rows = [[poly(rng.choice((0, 0, 1, -1, 2)) for _ in range(rng.randint(0, 3)))
                 for _ in range(ncols)] for _ in range(nrows)]
        if ncols >= 2 and rng.random() < 0.3:  # a column proportional to another
            a, b = rng.sample(range(ncols), 2)
            factor = poly([rng.randint(-2, 2), rng.randint(0, 1)])
            for row in rows:
                row[b] = factor * row[a]
        if rng.random() < 0.5:  # a column that vanishes at ROOT
            b = rng.randrange(ncols)
            for row in rows:
                row[b] = root * row[b]
        yield as_polys(rows), ncols


def test_rank_over_q_mu_matches_brute_force():
    full = []
    for rows, ncols in random_poly_matrices(6):
        rank = brute_force_rank(rows, ncols)
        assert poly_matrix_rank(rows) == rank
        full.append(rank == ncols)
    # both full and deficient column ranks occur
    assert any(full) and not all(full)


def test_full_rank_with_a_rational_root():
    # mu - ROOT vanishes at ROOT, yet the 1x1 matrix has full rank over Q(mu)
    assert poly_matrix_rank(as_polys([[poly([-ROOT, 1])]])) == 1


def test_proportional_columns_are_deficient():
    col = [poly([1, 2]), poly([0, 0, 3]), poly([5])]
    factor = poly([-1, 0, 1])  # mu^2 - 1
    assert poly_matrix_rank(as_polys([[p, factor * p] for p in col])) == 1


def test_rank_needs_every_evaluation_point():
    # p vanishes at mu = 0..D-1 and q at D..2D-1, so diag(p, q) has rank 1 at
    # each of the first 2D points and rank 2 only at the last, mu = r·D = 2D
    for degree in range(1, 5):
        p, q = NovikovElement.one(), NovikovElement.one()
        for i in range(degree):
            p, q = p * poly([-i, 1]), q * poly([-degree - i, 1])
        zero = NovikovElement.zero()
        assert poly_matrix_rank(as_polys([[p, zero], [zero, q]])) == 2
        assert poly_matrix_rank(as_polys([[p]])) == 1
