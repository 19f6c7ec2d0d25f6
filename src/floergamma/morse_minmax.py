"""Min-max evaluation of a function at a homology class of a finite Morse complex.

For a cycle representing a nonzero rational homology class, the
evaluation is the least critical value r such that the class is hit by
the homology of the sublevel subcomplex at r.  Thresholds sweep the
sorted critical values; membership at each threshold is an exact linear
solvability question over Q, since the class is hit at level r exactly
when some boundary correction pushes the cycle into the sublevel span.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import q_solve
from .floer_datum import InputError, check_keys, json_field, read_json
from .novikov import parse_rat


class NonCycleError(InputError):
    pass


class NullHomologousError(InputError):
    pass


@dataclass(frozen=True)
class MorseGenerator:
    name: str
    index: int
    value: Fraction


class MorseComplex:
    """Critical points with indices and values, plus an integer boundary.

    Construction validates that the boundary drops the index by exactly
    one, strictly decreases the value along every nonzero entry, and
    squares to zero.
    """

    def __init__(self, generators, boundary: dict[tuple[str, str], int],
                 name: str = ""):
        self.name = name
        self.generators = [
            g if isinstance(g, MorseGenerator) else MorseGenerator(*g)
            for g in generators
        ]
        self._by_name = {g.name: g for g in self.generators}
        if len(self._by_name) != len(self.generators):
            raise InputError("generator names must be unique")
        for g in self.generators:
            if g.index < 0:
                raise InputError(f"negative index on {g.name}")
        self.boundary = {k: int(c) for k, c in boundary.items() if c != 0}
        for (src, dst), _ in self.boundary.items():
            if src not in self._by_name or dst not in self._by_name:
                raise InputError(f"boundary entry {src}->{dst} names unknown generators")
            if self._by_name[src].index - 1 != self._by_name[dst].index:
                raise InputError(f"boundary entry {src}->{dst} does not drop index by 1")
            if not self._by_name[src].value > self._by_name[dst].value:
                raise InputError(
                    f"boundary entry {src}->{dst} does not decrease the value")
        bad = self._square()
        if bad:
            src, dst, c = bad
            raise InputError(f"boundary does not square to zero at {src}->{dst}: {c}")

    def _square(self):
        acc: dict[tuple[str, str], int] = {}
        for (a, b), c1 in self.boundary.items():
            for (b2, c), c2 in self.boundary.items():
                if b == b2:
                    acc[(a, c)] = acc.get((a, c), 0) + c1 * c2
        for (a, c), v in acc.items():
            if v != 0:
                return a, c, v
        return None

    def value(self, name: str) -> Fraction:
        return self._by_name[name].value

    def names(self) -> list[str]:
        return [g.name for g in self.generators]

    def apply_boundary(self, chain: dict[str, Fraction]) -> dict[str, Fraction]:
        out: dict[str, Fraction] = {}
        for (src, dst), c in self.boundary.items():
            s = chain.get(src)
            if s:
                out[dst] = out.get(dst, Fraction(0)) + s * c
        return {g: v for g, v in out.items() if v != 0}

    def reweighted(self, offsets: dict[str, Fraction]) -> "MorseComplex":
        gens = [
            MorseGenerator(g.name, g.index,
                           g.value + offsets.get(g.name, Fraction(0)))
            for g in self.generators
        ]
        return MorseComplex(gens, dict(self.boundary), self.name)


def _as_chain(sigma) -> dict[str, Fraction]:
    return {g: Fraction(c) for g, c in dict(sigma).items() if c != 0}


def _pushable_into_sublevel(M: MorseComplex, sigma: dict[str, Fraction],
                            level: Fraction) -> bool:
    """Is sigma - boundary(tau) supported on values <= level for some tau?"""
    names = M.names()
    above = [g for g in names if M.value(g) > level]
    if not above:
        return True
    rows = []
    rhs = []
    for g in above:
        row = [Fraction(M.boundary.get((src, g), 0)) for src in names]
        rows.append(row)
        rhs.append(sigma.get(g, Fraction(0)))
    return q_solve(rows, rhs) is not None


def evaluate_class(M: MorseComplex, sigma) -> Fraction:
    """Least max-critical-value over representatives homologous to sigma.

    The input must be a cycle representing a nonzero homology class;
    a non-cycle or a boundary is rejected.
    """
    chain = _as_chain(sigma)
    if not chain:
        raise NullHomologousError("the zero chain has no evaluation")
    bdry = M.apply_boundary(chain)
    if bdry:
        raise NonCycleError(f"input chain is not a cycle: boundary {bdry}")
    names = M.names()
    rows = [[Fraction(M.boundary.get((src, g), 0)) for src in names] for g in names]
    rhs = [chain.get(g, Fraction(0)) for g in names]
    if q_solve(rows, rhs) is not None:
        raise NullHomologousError("input cycle is a boundary")
    for level in sorted({g.value for g in M.generators}):
        if _pushable_into_sublevel(M, chain, level):
            return level
    raise AssertionError("threshold sweep exhausted without success")


def evaluate_with_perturbations(M: MorseComplex, sigma, perturbations) -> Fraction:
    """Evaluate under each per-generator offset vector and check continuity.

    Each perturbed evaluation must differ from the unperturbed one by at
    most the sup-norm of its offsets; the unperturbed value is returned.
    """
    base = evaluate_class(M, sigma)
    for offsets in perturbations:
        offs = {g: Fraction(v) for g, v in dict(offsets).items()}
        perturbed = M.reweighted(offs)
        val = evaluate_class(perturbed, sigma)
        norm = max((abs(v) for v in offs.values()), default=Fraction(0))
        if abs(val - base) > norm:
            raise AssertionError(
                f"perturbed evaluation {val} drifts beyond {norm} from {base}")
    return base


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
        boundary[ends] = json_field(e, "coeff", int, where)
    return MorseComplex(gens, boundary, obj.get("name", ""))


def load_morse(path: str) -> MorseComplex:
    return morse_from_json(read_json(path, "complex"))


def parse_class(text: str) -> dict[str, Fraction]:
    """Parse "x:1,y:-1" into a chain."""
    chain: dict[str, Fraction] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise InputError(f"bad class term {part!r}; expected name:coeff")
        name, _, coeff = part.partition(":")
        try:
            chain[name.strip()] = parse_rat(coeff)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    return chain
