"""Small exact linear algebra kernel: one sparse echelon form over Q, kept in integers.

Rows over Q arrive dense (a sequence) or sparse (a map column -> value).
`Echelon` keeps them as sparse maps in reduced row echelon form while they
arrive one at a time, so a caller can watch the rank grow (the tower walk
of Gamma and h) and read the kernel vector that ends at a free column (the
Gamma witness).  Each stored row is a primitive integer row: its entries
are ints with gcd 1 and its pivot entry is positive.  The RREF of a row
space is unique up to positive row scaling, and the primitive scaling of a
row is unique, so the rows, the kernel vectors, the solutions and the
residues read from it do not depend on the order rows arrived in.  A
residue (`Echelon.reduce`) is a positive multiple of the residue against
the pivot-1 RREF, so its support and its leading column are those of that
residue.  Gamma reads its threshold off the rows, its last pivot or a
residue's leading column, which the Morse min-max reads too.  `q_rank`,
`q_kernel_basis`, `q_solve` and `poly_matrix_rank` (the rank over Q(mu),
taken at rational points) read the same form; only `q_rank` is called in
the package, on the q block of Gamma(k <= 0).  Every row operation is one
call of `novikov.lincomb`, the package's accumulation kernel, on ints: a
reduction subtracts the multiples of all stored rows at once, and an
insertion clears its pivot column from each stored row that holds it,
found through a column index.  Entries leave as `Fraction`s only where a
value is read: a kernel vector or a solution divides by the pivot entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .novikov import QPoly, lincomb

SparseRow = dict[int, Fraction]
IntRow = dict[int, int]
Row = Union[Sequence[Fraction], SparseRow]


def _primitive(row: IntRow) -> IntRow:
    """A nonzero integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


class Echelon:
    """Incremental reduced row echelon form over Q, its rows kept in integers.

    `rows` maps each pivot column to its row, a primitive integer row: its
    entries have gcd 1, its pivot entry (its leftmost nonzero column) is
    positive, and it is zero at every other row's pivot.  Divided by its
    pivot entry it is the row of the pivot-1 RREF, which is unique up to
    this positive scaling.  `_holders` maps each column to the pivots whose
    rows hold it, so that an insertion clears its pivot from those rows only.
    """

    def __init__(self, rows: Iterable[Row] = ()):
        self.rows: dict[int, IntRow] = {}
        self._holders: dict[int, set[int]] = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: Row) -> IntRow:
        """A row, dense or sparse, minus the stored rows: zero on every pivot.

        The row's denominators are cleared once, by their lcm, and every
        stored multiple is subtracted at once, scaled by the lcm of the
        pivot entries met.  Divided by its content, the result is an
        integer row and a positive multiple of the residue against the
        pivot-1 RREF: the same support, the same leading column.
        """
        entries = row.items() if isinstance(row, dict) else enumerate(row)
        row = {c: v for c, v in entries if v}
        den = lcm(*[v.denominator for v in row.values()])
        row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
        # stored rows vanish on each other's pivots, so all multiples are read at once
        rows = self.rows
        hits = [p for p in row if p in rows]
        scale = lcm(*[rows[p][p] for p in hits])
        row = lincomb([(scale, row)] + [(-(row[p] * scale // rows[p][p]), rows[p]) for p in hits])
        return _primitive(row) if row else row

    def add(self, row: Row) -> bool:
        """Insert a row, dense or sparse; True when the rank grew."""
        row = self.reduce(row)
        if not row:
            return False
        pivot = min(row)
        a = row[pivot]
        if a < 0:
            row, a = {c: -v for c, v in row.items()}, -a
        holders = self._holders
        for p in [*holders.get(pivot, ())]:
            other = self.rows[p]
            b = other[pivot]
            g = gcd(a, b)
            # a/g · other - b/g · row keeps other's pivot entry positive
            self.rows[p] = new = _primitive(lincomb(((a // g, other), (-(b // g), row))))
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
        return {fc: Fraction(1), **{p: Fraction(-row[fc], row[p])
                                    for p, row in self.rows.items() if fc in row}}

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
    return _dense({p: Fraction(row.get(ncols, 0), row[p]) for p, row in ech.rows.items()}, ncols)


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
