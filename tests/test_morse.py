"""Min-max evaluation against brute-force and rank oracles and the self-indexing law."""

import itertools
import re
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from floergamma._linalg import Echelon
from floergamma.floer_datum import InputError
from floergamma.morse_minmax import (
    MorseComplex,
    MorseGenerator,
    NonCycleError,
    NullHomologousError,
    evaluate_class,
    morse_from_json,
    parse_class,
)

from test_linalg import minor_rank


def circle():
    return MorseComplex([("m", 0, F(0)), ("M", 1, F(1))], {})


def test_circle_values():
    assert evaluate_class(circle(), {"m": 1}) == 0
    assert evaluate_class(circle(), {"M": 1}) == 1


def test_homologous_representative_wins():
    M = MorseComplex([("x", 0, F(0)), ("y", 0, F(2)), ("z", 1, F(3))],
                     {("z", "x"): 1, ("z", "y"): -1})
    assert evaluate_class(M, {"x": 1}) == 0
    assert evaluate_class(M, {"y": 1}) == 0


def test_error_cases():
    M = MorseComplex([("x", 0, F(0)), ("y", 0, F(2)), ("z", 1, F(3))],
                     {("z", "x"): 1, ("z", "y"): -1})
    with pytest.raises(NonCycleError):
        evaluate_class(M, {"z": 1})
    with pytest.raises(NullHomologousError):
        evaluate_class(M, {"x": 1, "y": -1})
    with pytest.raises(NullHomologousError):
        evaluate_class(M, {})
    with pytest.raises(InputError, match="unknown generator 'w'"):
        evaluate_class(M, {"x": 1, "w": 1})


def test_validation():
    with pytest.raises(InputError):
        MorseComplex([("a", 0, F(0)), ("b", 2, F(1))], {("b", "a"): 1})
    with pytest.raises(InputError):
        MorseComplex([("a", 0, F(2)), ("b", 1, F(1))], {("b", "a"): 1})
    # boundary square: d(c) = a - b, d(e) = c needs d(d(e)) = 0
    with pytest.raises(InputError):
        MorseComplex(
            [("a", 0, F(0)), ("c", 1, F(1)), ("e", 2, F(2))],
            {("c", "a"): 1, ("e", "c"): 1})


def brute_force(M: MorseComplex, sigma, bound=2):
    names = M.names()
    values = {g.name: g.value for g in M.generators}
    chain = {g: F(c) for g, c in sigma.items() if c}
    best = None
    uppers = [g for g in names if g in M.rows]
    for combo in itertools.product(range(-bound, bound + 1), repeat=len(uppers)):
        tau = {g: F(c) for g, c in zip(uppers, combo)}
        bdry = M.apply_boundary(tau)
        rep = dict(chain)
        for g, v in bdry.items():
            rep[g] = rep.get(g, F(0)) - v
        rep = {g: v for g, v in rep.items() if v != 0}
        if not rep:
            continue
        value = max(values[g] for g in rep)
        if best is None or value < best:
            best = value
    return best


def random_complex(rng: Random, max_gens: int = 10) -> MorseComplex:
    n = rng.randint(2, max_gens)
    gens = []
    for i in range(n):
        idx = rng.randint(0, 2)
        gens.append((f"c{i}", idx, F(rng.randint(0, 8), rng.choice((1, 2)))))
    by_index = {}
    for name, idx, val in gens:
        by_index.setdefault(idx, []).append((name, val))
    boundary = {}
    # a layered boundary with square zero: only arrows from index 1 to 0
    for src, sval in by_index.get(1, []):
        targets = [(t, tv) for t, tv in by_index.get(0, []) if sval > tv]
        rng.shuffle(targets)
        for t, _ in targets[:2]:
            boundary[(src, t)] = rng.choice((-1, 1))
    return MorseComplex([(n_, i_, v_) for n_, i_, v_ in gens], boundary)


def pairs(M: MorseComplex) -> dict[tuple[str, str], int]:
    """The stored rows as the (source, target) -> coefficient map the constructor reads."""
    return {(src, dst): c for src, row in M.rows.items() for dst, c in row.items()}


def is_boundary(M: MorseComplex, sigma) -> bool:
    """rank [d | sigma] = rank d, by minors: sigma lies in the image of d."""
    sources = sorted(M.rows)
    support = sorted({dst for row in M.rows.values() for dst in row} | set(sigma))
    d = [[F(M.rows[src].get(g, 0)) for src in sources] for g in support]
    augmented = [row + [F(sigma.get(g, 0))] for row, g in zip(d, support)]
    return minor_rank(augmented, len(sources) + 1) == minor_rank(d, len(sources))


def random_cycle(rng: Random, M: MorseComplex):
    # index-0 chains are always cycles
    chain = {}
    for g, idx in [(g.name, g.index) for g in M.generators]:
        if idx == 0 and rng.random() < 0.5:
            chain[g] = rng.choice((-2, -1, 1, 2))
    return chain


def test_oracle_agreement():
    rng = Random(97)
    done = nulls = 0
    while done < 200:
        M = random_complex(rng)
        sigma = random_cycle(rng, M)
        if not sigma:
            continue
        try:
            value = evaluate_class(M, sigma)
        except NullHomologousError:
            assert is_boundary(M, sigma)
            nulls += 1
            continue
        assert not is_boundary(M, sigma)
        assert value == brute_force(M, sigma)
        done += 1
    assert nulls > 0


def test_self_indexing_law():
    rng = Random(101)
    for _ in range(50):
        n = rng.randint(2, 8)
        gens = []
        for i in range(n):
            idx = rng.randint(0, 2)
            gens.append((f"c{i}", idx, F(idx)))
        M = MorseComplex(gens, {})
        pure = {}
        wanted = rng.randint(0, 2)
        for name, idx, _ in gens:
            if idx == wanted and rng.random() < 0.7:
                pure[name] = rng.choice((-1, 1))
        if not pure:
            continue
        assert evaluate_class(M, pure) == wanted


def test_value_moves_at_most_the_largest_offset():
    """|f(M', sigma) - f(M, sigma)| <= sup |delta|, M' = M with values shifted by delta."""
    rng = Random(107)
    done = 0
    while done < 200:
        M = random_complex(rng)
        sigma = random_cycle(rng, M)
        scale = rng.choice((1, 4, 16))
        gens = [MorseGenerator(g.name, g.index, g.value + F(rng.randint(-4, 4), scale))
                for g in M.generators]
        values = {g.name: g.value for g in gens}
        # the offsets must keep the boundary value-decreasing
        if not sigma or any(values[src] <= values[dst] for src, dst in pairs(M)):
            continue
        shifted = MorseComplex(gens, pairs(M))
        sup = max(abs(new.value - g.value) for new, g in zip(gens, M.generators))
        try:
            value = evaluate_class(M, sigma)
        except NullHomologousError:
            with pytest.raises(NullHomologousError):
                evaluate_class(shifted, sigma)
            continue
        assert abs(evaluate_class(shifted, sigma) - value) <= sup
        done += 1


def test_monotone_under_sum():
    rng = Random(103)
    done = 0
    while done < 40:
        M = random_complex(rng)
        s1 = random_cycle(rng, M)
        s2 = random_cycle(rng, M)
        if not s1 or not s2:
            continue
        total = dict(s1)
        for g, c in s2.items():
            total[g] = total.get(g, 0) + c
        total = {g: c for g, c in total.items() if c}
        try:
            v1 = evaluate_class(M, s1)
            v2 = evaluate_class(M, s2)
            vt = evaluate_class(M, total)
        except NullHomologousError:
            continue
        assert vt <= max(v1, v2)
        done += 1


def test_json_and_class_parsing(tmp_path):
    obj = {
        "name": "circle",
        "generators": [
            {"name": "m", "index": 0, "value": "0"},
            {"name": "M", "index": 1, "value": "1"},
        ],
        "boundary": [],
    }
    M = morse_from_json(obj)
    assert evaluate_class(M, parse_class("m:1")) == 0
    obj["spurious"] = 1
    with pytest.raises(InputError):
        morse_from_json(obj)
    # a second boundary entry with the same ends is refused, not overwritten
    del obj["spurious"]
    obj["boundary"] = [{"from": "M", "to": "m", "coeff": c} for c in (1, -1)]
    with pytest.raises(InputError, match="^repeated boundary entry M->m$"):
        morse_from_json(obj)
    with pytest.raises(InputError):
        parse_class("m=1")
    # a generator named twice is refused, not overwritten by its last term
    assert parse_class("m:1, M:-1/2") == {"m": 1, "M": F(-1, 2)}
    for text in ("m:1,m:-1", "M:1, m:2,m :2"):
        with pytest.raises(InputError, match="^repeated generator m in class$"):
            parse_class(text)


# References: the boundary kept as (source, target) pairs, as it once was.
# d∘d scans every pair of entries and d(chain) scans every entry.

def square_by_pair_scan(boundary) -> dict[tuple[str, str], int]:
    """The nonzero entries of d∘d, found by scanning every pair of entries."""
    acc: dict[tuple[str, str], int] = {}
    for (a, b), c1 in boundary.items():
        for (b2, c), c2 in boundary.items():
            if b == b2:
                acc[(a, c)] = acc.get((a, c), 0) + c1 * c2
    return {k: v for k, v in acc.items() if v}


def boundary_by_entry_scan(boundary, chain) -> dict[str, F]:
    out: dict[str, F] = {}
    for (src, dst), c in boundary.items():
        s = chain.get(src)
        if s:
            out[dst] = out.get(dst, F(0)) + s * c
    return {g: v for g, v in out.items() if v != 0}


def evaluate_by_pairs(gens, boundary, sigma) -> F:
    """evaluate_class on the pair map: rows regrouped from the pairs by source."""
    chain = {g: F(c) for g, c in sigma.items() if c != 0}
    if boundary_by_entry_scan(boundary, chain):
        raise NonCycleError("not a cycle")
    order = sorted((MorseGenerator(*g) for g in gens), key=lambda g: g.value, reverse=True)
    column = {g.name: j for j, g in enumerate(order)}
    rows: dict[str, dict[int, int]] = {}
    for (src, dst), c in boundary.items():
        rows.setdefault(src, {})[column[dst]] = c
    residue = Echelon(rows.values()).reduce({column[g]: c for g, c in chain.items()})
    if not residue:
        raise NullHomologousError("a boundary")
    return order[min(residue)].value


@st.composite
def layered_complexes(draw):
    """Generators of index 0..2 with entries along every index drop that lowers
    the value, coefficients in -2..2 (zero included), so d∘d is often nonzero;
    and a chain on the generators, a cycle or not."""
    n = draw(st.integers(2, 9))
    gens = [(f"c{i}", draw(st.integers(0, 2)), F(draw(st.integers(0, 6)))) for i in range(n)]
    allowed = [(s, d) for s, si, sv in gens for d, di, dv in gens if si == di + 1 and sv > dv]
    chosen = draw(st.lists(st.sampled_from(allowed), unique=True)) if allowed else []
    boundary = {ends: draw(st.integers(-2, 2)) for ends in chosen}
    sigma = {g: draw(st.integers(-2, 2)) for g, _, _ in gens if draw(st.booleans())}
    return gens, boundary, sigma


@given(layered_complexes())
@example(([("a", 0, F(0)), ("c", 1, F(1)), ("e", 2, F(2))], {("c", "a"): 1, ("e", "c"): 1},
          {"a": 1}))
@example(([("x", 0, F(0)), ("y", 0, F(2)), ("z", 1, F(3)), ("w", 2, F(4))],
          {("z", "x"): 1, ("z", "y"): -1, ("w", "z"): 0}, {"y": 1}))
@settings(max_examples=300, deadline=None)
def test_rows_agree_with_the_pair_scan_references(case):
    gens, boundary, sigma = case
    nonzero = {ends: c for ends, c in boundary.items() if c}
    square = square_by_pair_scan(nonzero)
    try:
        M = MorseComplex(gens, boundary)
    except InputError as exc:
        named = re.fullmatch(r"boundary does not square to zero at (\w+)->(\w+): (-?\d+)",
                             str(exc))
        assert named and square.get((named[1], named[2])) == int(named[3])
        return
    assert not square
    assert pairs(M) == nonzero
    chain = {g: F(c) for g, c in sigma.items()}
    assert M.apply_boundary(chain) == boundary_by_entry_scan(nonzero, chain)
    try:
        expected = evaluate_by_pairs(gens, nonzero, sigma)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            evaluate_class(M, sigma)
        assert type(got.value) is type(exc)
    else:
        assert evaluate_class(M, sigma) == expected
