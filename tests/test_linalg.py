"""Exact linear algebra over Q, checked against determinants of minors."""

import itertools
from fractions import Fraction
from random import Random

from floergamma._linalg import Echelon, q_kernel_basis, q_rank, q_solve


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


def test_echelon_reports_rank_growth_and_stays_reduced():
    for rows, ncols in random_matrices(5):
        ech = Echelon()
        for i, row in enumerate(rows):
            # sparse input, as the Gamma systems feed it
            grew = ech.add({c: v for c, v in enumerate(row) if v})
            assert grew == (minor_rank(rows[:i + 1], ncols) > minor_rank(rows[:i], ncols))
        assert ech.rank == minor_rank(rows, ncols)
        for pivot, row in ech.rows.items():
            assert min(row) == pivot and row[pivot] == 1
            assert all(pivot not in other for p, other in ech.rows.items() if p != pivot)
