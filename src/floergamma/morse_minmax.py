"""Min-max evaluation of a function at a homology class of a finite Morse complex.

The value of a nonzero class is the least c such that some representative
sigma - d(tau) lies on critical values <= c.  One reduction gives it, the
persistence pivot reduction of Edelsbrunner, Letscher and Zomorodian
(Discrete Comput. Geom. 28, 2002): with the generators ordered by
decreasing value, reduce sigma against the echelon form of the rows d(g).
The residue is a representative that vanishes on every pivot column; any
other adds a nonzero w of the row span, which leads at a pivot, so it leads
no later than the residue's leading column l.  The value is the one at l,
and a zero residue means sigma is a boundary.

The boundary is kept once, as rows by source, and read through
`novikov.lincomb`: d(chain) is one lincomb of rows, the check d∘d = 0 one
lincomb per source, and the reduction one `Echelon` of the rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from ._linalg import Echelon
from .floer_datum import InputError, check_keys, json_field, read_json
from .novikov import lincomb, parse_rat


class NonCycleError(InputError):
    pass


class NullHomologousError(InputError):
    pass


class MorseGenerator(NamedTuple):
    name: str
    index: int
    value: Fraction


class MorseComplex:
    """Critical points with indices and values, plus an integer boundary.

    `rows[src][dst]` is the nonzero coefficient of dst in d(src).  The pass
    that builds the rows checks that each entry drops the index by exactly
    one and strictly decreases the value; then d∘d = 0 is checked per source.
    """

    def __init__(self, generators, boundary: dict[tuple[str, str], int],
                 name: str = ""):
        self.name = name
        self.generators = [MorseGenerator(*g) for g in generators]
        self._by_name = {g.name: g for g in self.generators}
        if len(self._by_name) != len(self.generators):
            raise InputError("generator names must be unique")
        for g in self.generators:
            if g.index < 0:
                raise InputError(f"negative index on {g.name}")
        self.rows: dict[str, dict[str, int]] = {}
        for (src, dst), c in boundary.items():
            if c == 0:
                continue
            if src not in self._by_name or dst not in self._by_name:
                raise InputError(f"boundary entry {src}->{dst} names unknown generators")
            if self._by_name[src].index - 1 != self._by_name[dst].index:
                raise InputError(f"boundary entry {src}->{dst} does not drop index by 1")
            if not self._by_name[src].value > self._by_name[dst].value:
                raise InputError(
                    f"boundary entry {src}->{dst} does not decrease the value")
            self.rows.setdefault(src, {})[dst] = int(c)
        for src, row in self.rows.items():
            if square := self.apply_boundary(row):
                dst, c = next(iter(square.items()))
                raise InputError(f"boundary does not square to zero at {src}->{dst}: {c}")

    def names(self) -> list[str]:
        return [g.name for g in self.generators]

    def apply_boundary(self, chain: dict) -> dict:
        return lincomb((c, self.rows[g]) for g, c in chain.items() if g in self.rows)


def evaluate_class(M: MorseComplex, sigma) -> Fraction:
    """Least max-critical-value over representatives homologous to sigma.

    The input must be a cycle representing a nonzero homology class; a
    chain naming an unknown generator, a non-cycle or a boundary is rejected.
    """
    chain = {g: Fraction(c) for g, c in dict(sigma).items() if c != 0}
    unknown = sorted(set(chain) - set(M.names()))
    if unknown:
        raise InputError(f"class names unknown generator {unknown[0]!r}")
    bdry = M.apply_boundary(chain)
    if bdry:
        quoted = ",".join(f"{g}:{c}" for g, c in islice(bdry.items(), 4))
        raise NonCycleError(f"input chain is not a cycle: boundary {quoted}"
                            + (f",... of {len(bdry)} entries" if len(bdry) > 4 else ""))
    order = sorted(M.generators, key=lambda g: g.value, reverse=True)
    column = {g.name: j for j, g in enumerate(order)}
    rows = ({column[dst]: c for dst, c in row.items()} for row in M.rows.values())
    residue = Echelon(rows).reduce({column[g]: c for g, c in chain.items()})
    if not residue:
        raise NullHomologousError("input cycle is a boundary")
    return order[min(residue)].value


def morse_from_json(obj) -> MorseComplex:
    check_keys(obj, {"name", "generators", "boundary"}, "complex")
    gens = []
    for g in json_field(obj, "generators", list, "complex", default=[]):
        check_keys(g, {"name", "index", "value"}, "generator")
        gens.append(MorseGenerator(json_field(g, "name", str, "generator"),
                                   json_field(g, "index", int, "generator"),
                                   json_field(g, "value", Fraction, "generator")))
    boundary = {}
    for e in json_field(obj, "boundary", list, "complex", default=[]):
        where = "boundary entry"
        check_keys(e, {"from", "to", "coeff"}, where)
        ends = (json_field(e, "from", str, where), json_field(e, "to", str, where))
        if ends in boundary:
            raise InputError(f"repeated boundary entry {ends[0]}->{ends[1]}")
        boundary[ends] = json_field(e, "coeff", int, where)
    return MorseComplex(gens, boundary, obj.get("name", ""))


def load_morse(path: str) -> MorseComplex:
    return morse_from_json(read_json(path, "complex"))


def parse_class(text: str) -> dict[str, Fraction]:
    """Parse "x:1,y:-1" into a chain; a generator named twice is refused."""
    chain: dict[str, Fraction] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise InputError(f"bad class term {part!r}; expected name:coeff")
        name, _, coeff = part.partition(":")
        name = name.strip()
        if name in chain:
            raise InputError(f"repeated generator {name} in class")
        try:
            chain[name] = parse_rat(coeff)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    return chain
