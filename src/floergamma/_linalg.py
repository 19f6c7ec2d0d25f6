"""Small exact linear algebra kernel: one sparse echelon form over Q and
fraction-free (Bareiss) elimination over Q[mu].

Rows over Q arrive dense (a sequence) or sparse (a map column -> value).
`Echelon` keeps them as sparse maps in fully reduced row echelon form
while they arrive one at a time, so a caller can watch the rank grow (the
h-invariant's tower pass) and read a kernel basis whose vectors end at
distinct free columns (the Gamma threshold).  The RREF of a row space is
unique, so the kernel basis, the solutions and the residues read from it
do not depend on the order rows arrived in.  `q_rank`, `q_kernel_basis`,
`q_solve` and `Echelon.reduce` (the residue of a row, which the Morse
min-max reads) are readers of that one form.  Every row operation is one
call of `novikov.lincomb`, the package's accumulation kernel: a reduction
subtracts the multiples of all stored rows at once, and an insertion
clears its pivot column from each stored row.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .novikov import POLY_ONE, QPoly, lincomb, poly_divexact, poly_mul, poly_sub

SparseRow = dict[int, Fraction]
Row = Union[Sequence[Fraction], SparseRow]


class Echelon:
    """Incremental reduced row echelon form over Q.

    `rows` maps each pivot column to its row; a row's pivot entry is 1, its
    leftmost nonzero column, and zero in every other row.
    """

    def __init__(self, rows: Iterable[Row] = ()):
        self.rows: dict[int, SparseRow] = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: Row) -> SparseRow:
        """A row, dense or sparse, minus the stored rows: zero on every pivot."""
        entries = row.items() if isinstance(row, dict) else enumerate(row)
        row = {c: Fraction(v) for c, v in entries if v}
        # stored rows vanish on each other's pivots, so all multiples are read at once
        return lincomb([(None, row)]
                       + [(-row[p], self.rows[p]) for p in row if p in self.rows])

    def add(self, row: Row) -> bool:
        """Insert a row, dense or sparse; True when the rank grew."""
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

    def kernel(self, ncols: int) -> list[tuple[int, SparseRow]]:
        """Right kernel basis as (free column, vector) pairs, by increasing column.

        Each vector is 1 at its free column, zero at every later column and
        at every other free column.
        """
        basis = []
        for fc in range(ncols):
            if fc in self.rows:
                continue
            vec = {fc: Fraction(1)}
            for p, row in self.rows.items():
                if fc in row:
                    vec[p] = -row[fc]
            basis.append((fc, vec))
        return basis


def _dense(vec: SparseRow, ncols: int) -> list[Fraction]:
    return [vec.get(c, Fraction(0)) for c in range(ncols)]


def q_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a matrix over Q (rows may have any consistent width)."""
    return Echelon(rows).rank


def q_kernel_basis(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of the matrix with the given column count."""
    return [_dense(vec, ncols) for _, vec in Echelon(rows).kernel(ncols)]


def q_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One solution of A x = b over Q (free unknowns 0), or None when inconsistent."""
    if not rows:
        return []
    ncols = max(len(r) for r in rows)
    ech = Echelon({**dict(enumerate(r)), ncols: b} for r, b in zip(rows, rhs))
    if ncols in ech.rows:
        return None
    return _dense({p: row.get(ncols, Fraction(0)) for p, row in ech.rows.items()}, ncols)


def poly_matrix_rank(rows: list[list[QPoly]]) -> int:
    """Rank over the fraction field Q(mu), via fraction-free elimination.

    Bareiss updates keep every intermediate entry a polynomial; the exact
    divisions are guaranteed by the algorithm.
    """
    mat = [list(r) for r in rows if any(p for p in r)]
    if not mat:
        return 0
    width = len(mat[0])
    rank = 0
    col = 0
    prev: QPoly = POLY_ONE
    while rank < len(mat) and col < width:
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for i in range(rank + 1, len(mat)):
            row = mat[i]
            for j in range(width):
                if j == col:
                    continue
                num = poly_sub(poly_mul(row[j], pv), poly_mul(row[col], mat[rank][j]))
                row[j] = poly_divexact(num, prev)
            row[col] = ()
        prev = pv
        rank += 1
        col += 1
    return rank
