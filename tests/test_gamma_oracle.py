"""Gamma against per-k references that enumerate the kernel.

The references are the solvers from before Gamma read its threshold off
the echelon form, keying rows by (generator, exponent) as they did before
Gamma keyed them by integer level, and building each system from the
datum's maps through Novikov products.  For k >= 1 the reference builds
one echelon form for each k, adds the k - 1 tower levels below, and walks
the kernel basis in column order until the objective is nonzero on a
vector.  For k <= 0 it walks the kernel basis of the whole system in
column order until a vector has a nonzero q entry.  Gamma must agree with
them value for value and witness for witness, key order included, on the
fixtures and on generated data; a profile must agree with per-k Gamma.

Two more references check the structures kept once per datum: a
witness-free Gamma(k <= 0), read off the kept d-basis, against the
q-first system behind a witness, and the tower levels read off the kept
rows w_j against each generator's own d1-orbit.
"""

import importlib
from fractions import Fraction
from itertools import islice
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from floergamma._linalg import Echelon
from floergamma.floer_datum import datum_from_json, require_valid
from floergamma.gamma import gamma, gamma_profile
from floergamma.novikov import INF, NovikovElement

from datagen import (
    bundled_fixtures,
    cyclic_u_datum,
    random_datum,
    random_small_datum,
    threshold_datum,
    transformed_datum,
    u_times,
)

gamma_module = importlib.import_module("floergamma.gamma")  # not the function


# -- the reference -------------------------------------------------------------

def reference_kernel(ech: Echelon, ncols: int):
    """The kernel basis read off the integer rows: -row[fc]/row[p] at each pivot p."""
    for fc in range(ncols):
        if fc in ech.rows:
            continue
        vec = {fc: Fraction(1)}
        for p, row in ech.rows.items():
            if fc in row:
                vec[p] = Fraction(-row[fc], row[p])
        yield fc, vec


def keyed_rows(columns):
    """Sparse rows, one per key of the columns: the keys group terms only."""
    rows = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            rows.setdefault(key, {})[j] = c
    return list(rows.values())


def reference_class(datum, k: int):
    """The generators of grading 4k-3 mod 8 by decreasing lift, and each
    d(l^(r_g) g) through a Novikov product, keyed by (generator, exponent)."""
    residue = (4 * k - 3) % 8
    gens = sorted((g for g in datum.names() if datum.grading(g) % 8 == residue),
                  key=datum.lift, reverse=True)
    units = [{g: NovikovElement.term(1, datum.lift(g))} for g in gens]
    return gens, [{(h, e): c for h, el in datum.apply_d(unit).items() for c, e in el.items()}
                  for unit in units]


def reference_levels(datum, gens):
    """Level j = [d1(u^j l^(r_g) g) keyed by exponent], while some u^j g != 0."""
    vecs = [{g: NovikovElement.term(1, datum.lift(g))} for g in gens]
    while any(vecs):
        yield [{e: c for c, e in datum.apply_d1(vec).items()} for vec in vecs]
        vecs = [datum.apply_u(vec) for vec in vecs]


def reference_tower(datum, k: int):
    """The echelon of the d rows and the k - 1 levels below k-1, and level k-1."""
    gens, d_columns = reference_class(datum, k)
    ech = Echelon(keyed_rows(d_columns))
    levels = reference_levels(datum, gens)
    for level in islice(levels, k - 1):
        for row in keyed_rows(level):
            ech.add(row)
    return gens, ech, next(levels, None)


def reference_gamma_positive(datum, k: int, want_witness: bool):
    gens, ech, top = reference_tower(datum, k)
    if top is None:
        return INF, None
    objective = [col.get(0, 0) for col in top]
    for fc, vec in reference_kernel(ech, len(gens)):
        if sum(objective[c] * x for c, x in vec.items()) != 0:
            witness = gamma_module._witness(k, gens, vec) if want_witness else None
            return -datum.lift(gens[fc]), witness
    return INF, None


def reference_gamma_nonpositive(datum, k: int):
    """The kernel scan of d(alpha) = sum_i u^i d2(q_i l^((-k-i)/2)) over the i
    of k's parity up to min(-k, m + 1), m the length of the d2-orbit."""
    gens, d_columns = reference_class(datum, k)
    orbit = datum.d2_orbit(-k + 1)
    q_indices = [i for i in range(0, min(-k, len(orbit) + 1) + 1) if (i - k) % 2 == 0]
    q_columns = [{(h, e + Fraction(-k - i, 2)): -c for h, el in orbit[i].items()
                  for c, e in el.items()} if i < len(orbit) else {} for i in q_indices]
    nq = len(q_indices)
    for fc, vec in reference_kernel(Echelon(keyed_rows(q_columns + d_columns)), nq + len(gens)):
        if any(c < nq for c in vec):
            value = Fraction(0) if fc < nq else max(Fraction(0), -datum.lift(gens[fc - nq]))
            return value, gamma_module._witness(k, gens, vec, q_indices)
    return INF, None


# -- the data ------------------------------------------------------------------

@pytest.fixture(scope="module")
def data():
    rng = Random(2718)
    out = [datum_from_json(obj) for _, obj in bundled_fixtures() if "source" not in obj]
    out += [random_datum(rng) for _ in range(150)]
    out += [transformed_datum(rng, datum) for datum in out[-150:]]
    out.append(cyclic_u_datum(family="d1"))
    return [require_valid(datum) for datum in out]


def _ordered(result):
    value, witness = result
    return value, witness, witness and list(witness.alpha.coefficients.items())


def test_values_and_witnesses_match_the_per_k_reference(data):
    assert len(data) >= 305
    finite = 0
    for datum in data:
        for k in range(1, 9):
            want = reference_gamma_positive(datum, k, True)
            assert _ordered(gamma(datum, k, want_witness=True)) == _ordered(want), (datum.name, k)
            assert gamma(datum, k) == want[0]
            finite += want[0] != INF
    assert finite > 300


def test_nonpositive_values_and_witnesses_match_the_kernel_scan(data):
    # the threshold sits on a q column (0), on a class column, or nowhere (inf)
    kinds = set()
    for datum in data + [require_valid(cyclic_u_datum(family="d2"))]:
        for k in range(-9, 1):
            want = reference_gamma_nonpositive(datum, k)
            assert _ordered(gamma(datum, k, want_witness=True)) == _ordered(want), (datum.name, k)
            assert gamma(datum, k) == want[0], (datum.name, k)  # the q-block rank test
            kinds.add(want[0] if want[0] in (0, INF) else "lift")
    assert kinds == {0, INF, "lift"}


def test_a_profile_matches_per_k_gamma(data):
    for datum in data:
        assert gamma_profile(datum, -4, 8) == [(k, gamma(datum, k)) for k in range(-4, 9)]


def test_kernel_vector_is_the_kernel_entry(data):
    checked = 0
    for datum in data[::10]:
        for k in (1, 2, 3):
            gens, ech, _ = reference_tower(datum, k)
            kernel = ech.kernel(len(gens))
            assert [(fc, list(vec.items())) for fc, vec in kernel] == \
                [(fc, list(vec.items())) for fc, vec in reference_kernel(ech, len(gens))]
            for fc, vec in kernel:
                assert list(ech.kernel_vector(fc).items()) == list(vec.items())
                checked += 1
    assert checked > 0


def nonpositive_class_reads(datum) -> int:
    """Check each witness-free Gamma(-6..0) against the value of the q-first
    system behind a witness; count the values read at a class column,
    where the witness has a nonzero alpha."""
    reads = 0
    for k in range(-6, 1):
        value, witness = gamma(datum, k, want_witness=True)
        assert gamma(datum, k) == value, (datum.name, k)
        reads += witness is not None and any(witness.alpha.coefficients.values())
    return reads


def test_witness_free_nonpositive_gamma_is_the_q_first_system():
    reads = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        rng = Random(seed)
        datum = random_datum(rng)
        reads.append(sum(map(nonpositive_class_reads, (
            threshold_datum(rng), threshold_datum(rng, rungs=3), datum,
            transformed_datum(rng, datum),
            cyclic_u_datum(family="d1"), cyclic_u_datum(family="d2")))))

    check()
    # generated ladders reach a class column at k <= 0 almost never; threshold_datum
    # does, at Gamma(0), and with three rungs at Gamma(-2) from two q columns
    assert sum(reads) >= 50


def reference_orbit_levels(datum, gens, depth: int):
    """Level j = [d1(u^j g) keyed by exponent e + r_g] for j < depth, from each
    generator's own d1-orbit; a level past every orbit's end is empty."""
    orbits = [datum.d1_orbit(g, depth) for g in gens]
    return [[{e + datum.lift(g): c for c, e in orbit[j].items()} if j < len(orbit) else {}
             for g, orbit in zip(gens, orbits)] for j in range(depth)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_levels_of_the_kept_rows_are_the_d1_orbits(seed):
    rng = Random(seed)
    datum = random_datum(rng)
    # u times 1 - 2l has entries of two terms
    for data in (datum, transformed_datum(rng, datum), random_small_datum(rng),
                 u_times(datum, NovikovElement([(1, 0), (-2, 1)])), cyclic_u_datum(family="d1")):
        depth = 4 * len(data.generators) + 2
        for k in (1, 2):
            gens = gamma_module._class(require_valid(data), k)[0]
            kept = list(islice(gamma_module._d1_levels(data, gens), depth))
            kept += [[{} for _ in gens]] * (depth - len(kept))
            assert kept == reference_orbit_levels(data, gens, depth), (data.name, k)
