"""The homology cobordism invariant Gamma, the h-invariant, and spectral bounds.

For a validated datum, Gamma at an integer k reads the feasible set of
homogeneous chains alpha = sum s_g l^(r_g) g over the generators g of
grading 4k-3 mod 8, the class of k.  Grouping image terms by (generator h,
level) makes every constraint a Q-linear row in the unknowns s.  A term
c·l^e at h has the level e - r_h, an integer: validate's weight rule makes
r_src + e - r_dst an integer for every exponent of every map entry, and so
for every composite, with Λ at lift 0 (`_keyed`).  A term in Λ, of d1, is
keyed by its exponent, an integer by the same rule.  So no row key is a
`Fraction`, and the echelon form (`_linalg.Echelon`) keeps its rows in ints:

* k >= 1: d(alpha) = 0 and d1(u^j alpha) = 0 for j < k-1; the objective
  F(s) is the l^0 coefficient of d1(u^(k-1) alpha).
* k <= 0: extra unknowns q_i (i = 0..-k, i = k mod 2) set
  a_i = q_i l^((-k-i)/2), and the one constraint is
  d(alpha) = sum_i u^i d2(a_i); the objective is q != 0.

Gamma(k) is -t*, where t* is the largest energy lift t admitting a
solution supported on {r_g >= t} with a nonzero objective, clamped at 0
for k <= 0 (where a solution with alpha = 0 gives 0), and +inf when no
solution has a nonzero objective.  A Gamma(k >= 1) below 0 (t* > 0) is
refused with DatumInconsistencyError where it is computed, so every call
and range that reaches k refuses it alike.  Every generator the objective
meets has r_g = -(a sum of the datum's exponents), so on data whose every
exponent is >= 0 the refusal never fires.

Threshold on a prefix.  With the class by decreasing lift, g_0, g_1, ...
(`_class`), the chains on {r_g >= t} are those on a prefix g_0..g_J, so
t* = r(g_J*) for the least J* whose prefix carries a solution with a
nonzero objective.  In a row echelon form of n independent vectors, a
combination vanishes on a prefix of the columns exactly when the prefix
holds fewer than n pivots.  For k >= 1 the kernel vector v_fc of a free
column fc of the constraints' RREF (`Echelon`) is 1 there and 0 at every
later and every other free column, so J* is the leading column of the
objective row's residue, and v_fc the witness.  For k <= 0, J* is the
least J with span(q columns) meeting span(D_0..D_J), D_j the d-column of
g_j; dependent q columns (`q_rank`) give 0.  The d-basis, kept per parity
(`_echelon`), reduces each D_j against the rows kept before it and keeps
one, 1 at a pivot key, for each D_j outside span(D_0..D_(j-1)): the rows of
position <= J span D_0..D_J.  A q column is a residue, 0 at every pivot,
plus multipliers on the rows (`_reduce`), and a combination lies in
span(D_0..D_J) exactly when its residue and its multipliers of position
> J vanish.  So in an echelon form of the nq vectors [residue |
multipliers by decreasing position] the last pivot sits at J*, or in the
residue part, and then Gamma(k) = inf.  A witness is read off the RREF of
the whole system, q columns first: fc is the least free q column or other
key of a row with a q pivot, and with none Gamma(k) = inf.

Kept rows, one tower pass.  d1(u^j l^(r_g) g) = w_j(g), where w_0 = d1 and
w_(j+1)(g) = w_j(u g), each term keyed by its integer exponent.  The rows
[w_0, w_1, ...] are kept on the datum, grown on demand through u indexed by
target (a step reads only the entries landing where w_j is nonzero), and
end at the first w_j = 0; an empty level adds no row and meets no
objective.  Level j of a class is w_j at its generators.  Within the
class of k, let C_k be the rows of d and of the levels j < k-1: Gamma(k)
reduces its objective, read off level k-1, against C_k, and degree k is
feasible exactly when adding level k-1 raises the rank.  `_tower`, one
echelon form per class stopped when the rank fills the class or the rows
end, is the one walk both read: a profile over k >= 1 and h (up to
k = 1 + 4n) each take one pass per parity, over one set of kept rows.

Stabilisation for k <= 0.  The q-columns are shifts of the datum's kept
d2-orbit [u^i d2(1)] (`FloerDatum.d2_orbit`), each entry keyed once and
kept on the datum (`_q_orbit`); the column of (k, i) moves its levels up
by the integer (-k-i)/2.  If the orbit ends, at the first u^m d2(1) = 0,
Gamma(k) = 0 for every k <= -m: one of i = m, m+1 has k's parity and is
at most -k, so q_i has a zero column, a free q column.  Only the
i <= min(-k, m + 1) are built, which keeps that first empty column, and
with it the value and the witness: any k builds at most m/2 + 2
q-columns, from at most m u-applications made once per datum.

All arithmetic is exact over Q.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import count
from math import lcm
from typing import NamedTuple

from ._linalg import Echelon, q_rank
from .floer_datum import (
    FloerDatum,
    HomogeneousVector,
    InputError,
    require_valid,
)
from .novikov import INF, lincomb

# Gamma(k) reads u^j up to j = -k on the d2-orbit (k <= 0), or up to
# j = k - 1 on the d1-orbits of k's class (k >= 1).  Where u is nilpotent
# every orbit ends within as many steps as there are generators, so the
# work is bounded whatever k; where it is not, the orbits never end and
# one Gamma costs work growing with |k|, a range of k <= 0 quadratic in its
# width.  Gamma(k) past ORBIT_CAP u-steps on an orbit still nonzero after
# ORBIT_CAP steps is refused.  On a 2-core x86-64 VM with CPython 3.11.7,
# `gamma --range -250..250` on datagen.cyclic_u_datum takes 0.065-0.07 s
# (d1 family) and 0.09-0.16 s (d2 family), whole process; -500..0 on the
# d2 family took 1.05 s in process and -4000..0 65 s before the cap.
ORBIT_CAP = 250


class MonotonicityError(RuntimeError):
    """A gamma profile came out non-monotone: datum or implementation fault."""


class DatumInconsistencyError(RuntimeError):
    """The feasible-set search produced a structurally impossible answer."""


class SpecialSolution(NamedTuple):
    """Witness of feasibility behind a finite gamma value."""

    k: int
    alpha: HomogeneousVector
    a_tuple: tuple[Fraction, ...] | None  # q_0..q_{-k}, only for k <= 0


def _levels(el, plus: Fraction, minus: Fraction = Fraction(0)) -> dict:
    """{e + plus - minus: c} over the terms c·l^e of el, in ints: an integer
    by the weight rule for plus, minus the lifts at the entry's two ends."""
    n = plus.numerator * minus.denominator - minus.numerator * plus.denominator
    d = plus.denominator * minus.denominator
    return {(e.numerator * d + n * e.denominator) // (e.denominator * d): c for c, e in el.items()}


def _keyed(datum: FloerDatum, image: dict, sign: int = 1, shift: Fraction = Fraction(0)) -> dict:
    """sign · l^shift · image keyed by (generator h, level e + shift - r_h) for
    each term c·l^e at h: d(l^(r_g) g), shift r_g, or u^i d2(1), shift 0."""
    return {(h, e): -c if sign < 0 else c
            for h, el in image.items() for e, c in _levels(el, shift, datum.lift(h)).items()}


def _rows(columns: list[dict]) -> list[dict[int, Fraction]]:
    """Transpose keyed columns into sparse Q-rows, one per key."""
    rows: dict = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            rows.setdefault(key, {})[j] = c
    return list(rows.values())


def _class(datum: FloerDatum, k: int) -> tuple[list[str], list[dict]]:
    """Generators of grading 4k-3 mod 8 by decreasing lift, compared as the
    ints r_g·L (L the lcm of their denominators), and their keyed
    d(l^(r_g) g): kept on the datum per k mod 2."""
    if k % 2 not in datum._classes:
        residue = (4 * k - 3) % 8
        lifts = {g: datum.lift(g) for g in datum.names() if datum.grading(g) % 8 == residue}
        scale = lcm(*[r.denominator for r in lifts.values()])
        gens = sorted(lifts, key=lambda g: lifts[g].numerator * (scale // lifts[g].denominator),
                      reverse=True)
        datum._classes[k % 2] = gens, [_keyed(datum, datum.d.row(g), 1, lifts[g]) for g in gens]
    return datum._classes[k % 2]


def _next_row(by_target: dict, row: dict) -> dict:
    """w_(j+1) from w_j = row, through u's entries c·l^s from l^(r_g) g to
    l^(r_h) h indexed by h, for the h that row holds."""
    terms: dict = {}
    for h, levels in row.items():
        for g, shifts in by_target.get(h, ()):
            terms.setdefault(g, []).extend(
                (c, {e + s: v for e, v in levels.items()}) for s, c in shifts.items())
    return {g: acc for g, t in terms.items() if (acc := lincomb(t))}


def _d1_levels(datum: FloerDatum, gens: list[str]):
    """Level j = [d1(u^j l^(r_g) g) for g in gens] while w_j != 0, read off
    the rows [w_0, w_1, ...] kept on the datum under "d1" (module docstring)."""
    if "d1" not in datum._classes:
        by_target: dict = {}
        for g, h, el in datum.u.entries():
            by_target.setdefault(h, []).append((g, _levels(el, datum.lift(g), datum.lift(h))))
        datum._classes["d1"] = [{g: _levels(el, datum.lift(g))
                                 for g, el in datum.d1.items()}], by_target
    rows, by_target = datum._classes["d1"]
    for j in count():
        if j == len(rows):
            rows.append(_next_row(by_target, rows[-1]))
        if not rows[j]:
            return
        yield [rows[j].get(g, {}) for g in gens]


def _add_level(ech: Echelon, level: list[dict]) -> bool:
    """Add a tower level's rows; True when the rank grew."""
    return sum(ech.add(row) for row in _rows(level)) > 0


def _tower(datum: FloerDatum, k_top: int):
    """(k, class, echelon of the d rows and the levels below k-1, level k-1)
    for k = 1..k_top in k_top's class; the reader adds level k-1 before the
    next k.  It ends with the levels, or once the rank fills the class."""
    gens, d_columns = _class(datum, k_top)
    ech = Echelon(_rows(d_columns))
    for k, level in zip(range(1, k_top + 1), _d1_levels(datum, gens)):
        if ech.rank == len(gens):
            return
        yield k, gens, ech, level


def _witness(k: int, gens: list[str], vec: dict, q_indices=()) -> SpecialSolution:
    nq = len(q_indices)
    coeffs = {g: vec.get(nq + i, Fraction(0)) for i, g in enumerate(gens)}
    alpha = HomogeneousVector(coeffs, (4 * k - 3) % 8, Fraction(0))
    if k >= 1:
        return SpecialSolution(k, alpha, None)
    qs = [Fraction(0)] * (-k + 1)
    for pos, i in enumerate(q_indices):
        qs[i] = vec.get(pos, Fraction(0))
    return SpecialSolution(k, alpha, tuple(qs))


def _gamma_positive(datum: FloerDatum, ks, want_witness: bool) -> dict:
    """{k: (value, witness)} for the k >= 1 of one class, from one tower walk."""
    out, last = dict.fromkeys(ks, (INF, None)), max(ks)
    for k, gens, ech, level in _tower(datum, last):
        if k in out:
            residue = ech.reduce({c: col[0] for c, col in enumerate(level) if 0 in col})
            if residue:
                fc = min(residue)
                value = -datum.lift(gens[fc])
                if value < 0:
                    raise DatumInconsistencyError(
                        f"gamma({k}) = {value} is below 0 on {datum.name!r}")
                out[k] = value, (
                    _witness(k, gens, ech.kernel_vector(fc)) if want_witness else None)
        if k == last:
            break
        _add_level(ech, level)
    return out


def _q_orbit(datum: FloerDatum, depth: int) -> list[dict]:
    """The keyed -u^i d2(1) for i < depth, ending early once u^i d2(1) = 0:
    each entry of the datum's kept d2-orbit is keyed once and kept on the
    datum, beside the classes, under None."""
    orbit = datum.d2_orbit(depth)
    keyed = datum._classes.setdefault(None, [])
    keyed += [_keyed(datum, orbit[i], -1) for i in range(len(keyed), len(orbit))]
    return keyed if len(keyed) == len(orbit) else keyed[:len(orbit)]


def _nonpositive_system(datum: FloerDatum, k: int):
    """The class, the q-indices i <= min(-k, m + 1) of k's parity, m the
    d2-orbit's length, and their keyed q columns -l^((-k-i)/2) · u^i d2(1),
    empty past the orbit's end (module docstring)."""
    orbit = _q_orbit(datum, -k + 1)
    q_indices = [i for i in range(0, min(-k, len(orbit) + 1) + 1) if (i - k) % 2 == 0]
    q_columns = [{(h, e + (-k - i) // 2): c for (h, e), c in orbit[i].items()}
                 if i < len(orbit) else {} for i in q_indices]
    return _class(datum, k)[0], q_indices, q_columns


def _reduce(basis: list, column: dict) -> tuple[dict, dict]:
    """A keyed column minus its multiples of the basis rows, taken in
    insertion order, and the multipliers by the rows' positions."""
    multipliers = {}
    for j, pivot, row in basis:
        if m := column.get(pivot):
            column = lincomb(((None, column), (-m, row)))
            multipliers[j] = m
    return column, multipliers


def _echelon(columns: list[dict]) -> list:
    """The d-basis: (position j, pivot key, residue scaled to 1 there) for
    each column outside the span of those before it (module docstring)."""
    basis: list = []
    for j, column in enumerate(columns):
        if residue := _reduce(basis, column)[0]:
            pivot = next(iter(residue))
            basis.append((j, pivot, {c: v / residue[pivot] for c, v in residue.items()}))
    return basis


def _gamma_nonpositive(datum: FloerDatum, k: int, want_witness: bool):
    gens, q_indices, q_columns = _nonpositive_system(datum, k)
    nq = len(q_indices)
    if want_witness:
        ech = Echelon(_rows(q_columns + _class(datum, k)[1]))
        # the free q columns and the other keys of rows with a q pivot (module docstring)
        fc = min((c for p in range(nq)
                  for c in (ech.rows[p].keys() - {p} if p in ech.rows else (p,))), default=None)
        if fc is None:
            return INF, None
        value = Fraction(0) if fc < nq else max(Fraction(0), -datum.lift(gens[fc - nq]))
        return value, _witness(k, gens, ech.kernel_vector(fc), q_indices)
    # a q block of rank below nq has a free q column, the value 0: its rank is
    # taken on its columns or on its rows (one per key), whichever are fewer
    key_rows = _rows(q_columns)
    if q_rank(key_rows if len(key_rows) < nq else q_columns) < nq:
        return Fraction(0), None
    if ("d", k % 2) not in datum._classes:
        datum._classes["d", k % 2] = _echelon(_class(datum, k)[1])
    basis, n, index, vectors = datum._classes["d", k % 2], len(gens), {}, []
    # [residue | multipliers by decreasing position], the residue's keys numbered
    # below 0 and position j at n - j: J* is the last pivot's position
    for column in q_columns:
        residue, multipliers = _reduce(basis, column)
        vectors.append({index.setdefault(key, -1 - len(index)): c for key, c in residue.items()})
        vectors[-1].update((n - j, m) for j, m in multipliers.items())
    last = max(Echelon(vectors).rows)
    return (INF if last < 0 else max(Fraction(0), -datum.lift(gens[n - last]))), None


def _require_bounded_orbits(datum: FloerDatum, k: int) -> None:
    """Refuse Gamma(k) past ORBIT_CAP u-steps on an orbit that has not ended."""
    steps = -k if k <= 0 else k - 1
    if steps <= ORBIT_CAP:
        return
    if k <= 0:
        orbits = [datum.d2_orbit(ORBIT_CAP + 1)]
    else:
        orbits = [datum.d1_orbit(g, ORBIT_CAP + 1) for g in _class(datum, k)[0]]
    if any(len(orbit) > ORBIT_CAP for orbit in orbits):
        raise InputError(f"gamma({k}) needs {steps} u-steps on a u-orbit that has not "
                         f"ended within {ORBIT_CAP}, the cap")


def gamma(datum: FloerDatum, k: int, want_witness: bool = False):
    """Gamma at the integer k; optionally with a feasibility witness.

    Returns the value alone, or a (value, witness) pair when
    want_witness is set; the witness is None for infinite values.
    Raises InputError past ORBIT_CAP u-steps on an orbit that has not ended,
    and DatumInconsistencyError on a value below 0 for k >= 1.
    """
    require_valid(datum)
    _require_bounded_orbits(datum, k)
    if k >= 1:
        value, witness = _gamma_positive(datum, [k], want_witness)[k]
    else:
        value, witness = _gamma_nonpositive(datum, k, want_witness)
    return (value, witness) if want_witness else value


def gamma_values(k_min: int, k_max: int, *data: FloerDatum) -> list[list[tuple]]:
    """Per-k Gamma over [k_min, k_max] on each datum, unchecked for monotonicity.

    A range that reaches past ORBIT_CAP u-steps on an orbit that has not
    ended is refused before any Gamma is computed.  Past the cap, whether
    Gamma(k) is refused depends only on k's sign and, for k >= 1, on its
    parity (the grading class), so k_min and the first two k past the cap
    decide it, and the refusal names the first k refused, on the first
    datum that refuses it.  The k >= 1 of a datum take one tower walk per
    parity.
    """
    for datum in data:
        require_valid(datum)
    first_past = max(k_min, ORBIT_CAP + 2)
    for k in (k_min, first_past, first_past + 1):
        if k <= k_max:
            for datum in data:
                _require_bounded_orbits(datum, k)
    positive = range(max(k_min, 1), k_max + 1)
    profiles = []
    for datum in data:
        values = {k: v for ks in (positive[::2], positive[1::2]) if ks
                  for k, (v, _) in _gamma_positive(datum, ks, False).items()}
        profiles.append([(k, values[k] if k >= 1 else gamma(datum, k))
                         for k in range(k_min, k_max + 1)])
    return profiles


def gamma_profile(datum: FloerDatum, k_min: int, k_max: int):
    """Per-k gamma over [k_min, k_max] (`gamma_values`); asserts monotone
    non-decreasing."""
    require_valid(datum)
    if k_min > k_max:
        raise ValueError("k_min must not exceed k_max")
    profile, = gamma_values(k_min, k_max, datum)
    for (k0, v0), (k1, v1) in zip(profile, profile[1:]):
        if not (v0 <= v1):
            raise MonotonicityError(
                f"gamma({k0}) = {v0} > gamma({k1}) = {v1} on {datum.name!r}")
    return profile


# ---------------------------------------------------------------------------
# Feasible-set emptiness and the h-invariant
# ---------------------------------------------------------------------------

def _largest_positive_degree(datum: FloerDatum, k_top: int) -> int | None:
    """Largest feasible degree k in 1..k_top of the class of k_top, or None.

    Levels k-1 with k of the other parity vanish under the grading rules
    of `DATUM_MAPS`, which validate enforces, so they never raise the rank.
    """
    best = None
    for k, _, ech, level in _tower(datum, k_top):
        if _add_level(ech, level):
            best = k
    return best


def feasible_nonempty(datum: FloerDatum, k: int) -> bool:
    """Is the degree-k feasible set nonempty?

    For k >= 1 this asks for a constrained solution with
    d1(u^(k-1) alpha) != 0 (any coefficient); for k <= 0 for a solution
    with q != 0.
    """
    if k >= 1:
        return _largest_positive_degree(datum, k) == k
    return _gamma_nonpositive(datum, k, False)[0] != INF


def h_invariant(datum: FloerDatum) -> int:
    """Half the largest k with a nonempty feasible set.

    Degrees 1 <= k <= 1 + 4 * (number of generators) come from one tower
    pass per parity; only when none is feasible are k = 0, -1, ... probed,
    down to a bound that a guaranteed kernel argument supplies.  An odd
    maximal k is reported as a datum inconsistency.
    """
    require_valid(datum)
    n = len(datum.generators)
    k = max((k for k in (_largest_positive_degree(datum, 1 + 4 * n),
                         _largest_positive_degree(datum, 4 * n)) if k is not None),
            default=None)
    if k is None:
        k = next((k for k in range(0, -(2 * n + 5), -1) if feasible_nonempty(datum, k)),
                 None)
    if k is None:
        raise DatumInconsistencyError(
            f"no feasible degree found for {datum.name!r}; h undefined")
    if k % 2 != 0:
        raise DatumInconsistencyError(
            f"largest feasible degree {k} is odd on {datum.name!r}")
    return k // 2


# ---------------------------------------------------------------------------
# Arithmetic lower bounds from the energy-lift spectrum
# ---------------------------------------------------------------------------

def _nonnegative_fractional(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def tau_lower_bound(datum: FloerDatum) -> Fraction:
    """min { r > 0 : r = -r_g mod 1 for some generator g }."""
    require_valid(datum)
    if not datum.generators:
        raise InputError("empty datum has no irreducible classes")
    return min(_nonnegative_fractional(-g.energy_lift) or Fraction(1) for g in datum.generators)


def tau_prime_lower_bound(datum: FloerDatum) -> Fraction:
    """min over ordered generator pairs of the positive representative of
    r_g' - r_g mod 1 (the difference 0 contributes 1).

    That is the least gap between cyclically adjacent residues r mod 1:
    sorted, the gaps are the neighbours' differences and the wrap-around
    r_min + 1 - r_max, which is 1 when there is one residue.
    """
    require_valid(datum)
    if not datum.generators:
        raise InputError("empty datum has no irreducible classes")
    residues = sorted({_nonnegative_fractional(g.energy_lift) for g in datum.generators})
    return min([residues[0] + 1 - residues[-1]]
               + [b - a for a, b in zip(residues, residues[1:])])


def eta_lower_bound(source: FloerDatum, target: FloerDatum) -> Fraction:
    """min over cross pairs of the non-negative representative of
    r_g' - r_g mod 1, in O((n + m) log n): t is nearest above the largest
    source residue s <= t, or else above the sentinel max - 1 heading them."""
    if not source.generators or not target.generators:
        raise ValueError("eta bound needs nonempty spectra on both ends")
    below = sorted({_nonnegative_fractional(g.energy_lift) for g in source.generators})
    below.insert(0, below[-1] - 1)
    return min(t - below[bisect_right(below, t) - 1]
               for t in {_nonnegative_fractional(g.energy_lift) for g in target.generators})

