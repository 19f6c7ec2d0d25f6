"""The extended operator on C ⊕ Λ ⊕ C behind validate, the chain-map check and compose."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from floergamma.cobordism import (
    COBORDISM_MAPS,
    compose_tilde,
    functoriality_report,
    mdeg_decay,
    verify_tilde_chain_map,
)
from floergamma.equivariant import Window
from floergamma.floer_datum import (
    DATUM_MAPS,
    FloerDatum,
    Generator,
    LambdaMatrix,
    extended,
    validate,
    vec_neg,
    vec_sub,
)
from floergamma.novikov import NovikovElement

from datagen import identity_cobordism, random_datum, random_trivial_cobordism, transformed_datum
from test_validate_oracle import corrupted

ONE, ZERO = NovikovElement.one(), NovikovElement.zero()


def both_sided(with_u: bool = True) -> FloerDatum:
    """a, c, b of gradings 1, 0, 4 at lift 0: d(a) = c, u(c) = -b, d1(a) = 1
    and d2(1) = b, so d2∘d1 = b cancels u∘d - d∘u = -b at a."""
    gens = [Generator("a", 1, Fraction(0)), Generator("c", 0, Fraction(0)),
            Generator("b", 4, Fraction(0))]
    u = {("c", "b"): -ONE} if with_u else {}
    return FloerDatum("both_sided", gens, LambdaMatrix({("a", "c"): ONE}), LambdaMatrix(u),
                      {"a": ONE}, {"b": ONE})


def test_a_valid_datum_with_d1_and_d2_both_nonzero():
    datum = both_sided()
    assert validate(datum).ok
    ident = identity_cobordism(datum)
    window = Window(6, 4)
    assert verify_tilde_chain_map(ident).ok
    assert functoriality_report(ident, window).ok
    assert mdeg_decay(ident, window) == 0
    assert compose_tilde(ident, ident) == ident
    assert validate(both_sided(with_u=False)).failures == [
        "u∘d - d∘u + d2∘d1 != 0 at a->b: residual 1*l^(0)"]


def difference(x: tuple, y: tuple) -> tuple:
    return vec_sub(x[0], y[0]), x[1] - y[1], vec_sub(x[2], y[2])


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_the_rows_no_report_reads_repeat_the_first_block(rng):
    # On (0, 0, g), d̃∘d̃ is d∘d and λ̃∘d̃ - d̃'∘λ̃ is -(phi∘d - d'∘phi): the
    # first block's residual at (g, 0, 0), put in the last block with sign
    # +1 and -1.  This is why block_report skips those rows.
    datum = transformed_datum(rng, random_datum(rng, max_gens=rng.randint(3, 8)))
    if rng.random() < 0.5:
        datum = corrupted(rng, datum)
    cob = random_trivial_cobordism(rng, datum)
    dt = extended(datum, DATUM_MAPS, 0, -1)
    lt = extended(cob, COBORDISM_MAPS, cob.c, 1)
    for g in datum.names():
        last = ({}, ZERO, {g: ONE})
        square = dt(dt.image(g))[0]
        assert dt(dt(last)) == ({}, ZERO, square)
        chain = difference(lt(dt.image(g)), dt(lt.image(g)))[0]
        assert difference(lt(dt(last)), dt(lt(last))) == ({}, ZERO, vec_neg(chain))
