"""Small exact linear algebra kernel: one sparse echelon form over Q.

Rows over Q arrive dense (a sequence) or sparse (a map column -> value).
`Echelon` keeps them as sparse maps in fully reduced row echelon form
while they arrive one at a time, so a caller can watch the rank grow (the
tower walk of Gamma and h) and read the kernel vector that ends at a free
column (the Gamma witness).  The RREF of a row space is unique, so the
kernel vectors, the solutions and the residues read from it do not depend
on the order rows arrived in.  Gamma reads its threshold off the rows or
off the residue of a row (`Echelon.reduce`), which the Morse min-max reads
too.  `q_rank`, `q_kernel_basis`, `q_solve` and `poly_matrix_rank` (the
rank over Q(mu), taken at rational points) read the same form; only
`q_rank` is called in the package, on the q block of Gamma(k <= 0).
Every row operation is one call of `novikov.lincomb`, the package's
accumulation kernel: a reduction subtracts the multiples of all stored
rows at once, and an insertion clears its pivot column from each stored
row that holds it, found through a column index.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .novikov import QPoly, lincomb

SparseRow = dict[int, Fraction]
Row = Union[Sequence[Fraction], SparseRow]


class Echelon:
    """Incremental reduced row echelon form over Q.

    `rows` maps each pivot column to its row; a row's pivot entry is 1, its
    leftmost nonzero column, and zero in every other row.  `_holders` maps
    each column to the pivots whose rows hold it, so that an insertion
    clears its pivot from those rows only.
    """

    def __init__(self, rows: Iterable[Row] = ()):
        self.rows: dict[int, SparseRow] = {}
        self._holders: dict[int, set[int]] = {}
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
        holders = self._holders
        for p in [*holders.get(pivot, ())]:
            other = self.rows[p]
            self.rows[p] = new = lincomb(((None, other), (-other[pivot], row)))
            for c in new.keys() - other.keys():
                holders.setdefault(c, set()).add(p)
            for c in other.keys() - new.keys():
                holders[c].discard(p)
        for c in row:
            holders.setdefault(c, set()).add(pivot)
        self.rows[pivot] = row
        return True

    def kernel_vector(self, fc: int) -> SparseRow:
        """The kernel vector of the free column fc: 1 there, zero at every
        later column and at every other free column."""
        return {fc: Fraction(1), **{p: -row[fc] for p, row in self.rows.items() if fc in row}}

    def kernel(self, ncols: int) -> list[tuple[int, SparseRow]]:
        """Right kernel basis as (free column, vector) pairs, by increasing column."""
        return [(fc, self.kernel_vector(fc)) for fc in range(ncols) if fc not in self.rows]


def _dense(vec: SparseRow, ncols: int) -> list[Fraction]:
    return [vec.get(c, Fraction(0)) for c in range(ncols)]


def q_rank(rows: list[Row]) -> int:
    """Rank of a matrix over Q; rows dense (of any consistent width) or sparse."""
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
    """Rank over the fraction field Q(mu): the largest rank over Q at mu = 0..r·D.

    r = min(rows, columns) and D is the largest entry degree.  The rank
    over Q(mu) is the size of a largest nonzero minor, a polynomial of
    degree at most r·D, so it vanishes at no more than r·D of these points;
    at no point is the rank larger.
    """
    width = max((len(r) for r in rows), default=0)
    full = min(len(rows), width)
    degree = max((len(p) - 1 for r in rows for p in r), default=0)
    rank = 0
    for mu in range(full * degree + 1):
        at_mu = [[sum(c * mu ** i for i, c in enumerate(p)) for p in r] for r in rows]
        rank = max(rank, Echelon(at_mu).rank)
        if rank == full:
            break
    return rank
