"""Gamma against per-k references that enumerate the kernel.

The references are the solvers from before Gamma read its threshold off
the echelon form.  For k >= 1 the reference builds one echelon form for
each k, adds the k - 1 tower levels below, and walks the kernel basis in
column order until the objective is nonzero on a vector.  For k <= 0 it
walks the kernel basis of the whole system in column order until a vector
has a nonzero q entry.  Gamma must agree with them value for value and
witness for witness, key order included, on the fixtures and on
generated data; a profile must agree with per-k Gamma.
"""

import importlib
from fractions import Fraction
from itertools import islice
from random import Random

import pytest

from floergamma._linalg import Echelon
from floergamma.floer_datum import datum_from_json, require_valid
from floergamma.gamma import gamma, gamma_profile
from floergamma.novikov import INF

from datagen import bundled_fixtures, cyclic_u_datum, random_datum, transformed_datum

gamma_module = importlib.import_module("floergamma.gamma")  # not the function


# -- the reference -------------------------------------------------------------

def reference_kernel(ech: Echelon, ncols: int):
    for fc in range(ncols):
        if fc in ech.rows:
            continue
        vec = {fc: Fraction(1)}
        for p, row in ech.rows.items():
            if fc in row:
                vec[p] = -row[fc]
        yield fc, vec


def reference_gamma_positive(datum, k: int, want_witness: bool):
    gens, d_columns = gamma_module._class(datum, k)
    ech = Echelon(gamma_module._rows(d_columns))
    levels = gamma_module._d1_levels(datum, gens)
    for level in islice(levels, k - 1):
        for row in gamma_module._rows([{e: c for c, e in el.items()} for el in level]):
            ech.add(row)
    top = next(levels, None)
    if top is None:
        return INF, None
    objective = [el.coefficient(0) for el in top]
    for fc, vec in reference_kernel(ech, len(gens)):
        if sum(objective[c] * x for c, x in vec.items()) != 0:
            witness = gamma_module._witness(k, gens, vec) if want_witness else None
            return -datum.lift(gens[fc]), witness
    return INF, None


def reference_gamma_nonpositive(datum, k: int):
    gens, q_indices, q_columns = gamma_module._nonpositive_system(datum, k)
    nq = len(q_indices)
    rows = gamma_module._rows(q_columns + gamma_module._class(datum, k)[1])
    for fc, vec in reference_kernel(Echelon(rows), nq + len(gens)):
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
        for k in (1, 2):
            gens, d_columns = gamma_module._class(datum, k)
            ech = Echelon(gamma_module._rows(d_columns))
            for level in islice(gamma_module._d1_levels(datum, gens), 2):
                gamma_module._add_level(ech, level)
            kernel = ech.kernel(len(gens))
            assert [(fc, list(vec.items())) for fc, vec in kernel] == \
                [(fc, list(vec.items())) for fc, vec in reference_kernel(ech, len(gens))]
            for fc, vec in kernel:
                assert list(ech.kernel_vector(fc).items()) == list(vec.items())
                checked += 1
    assert checked > 0
