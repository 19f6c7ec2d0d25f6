"""Finite chain-level model of an integral homology sphere.

A datum consists of named generators carrying a mod-8 grading and a
rational energy lift, together with four structure maps over the Novikov
coefficients: the differential d (degree -1), the degree -4 operator u,
the map d1 into the coefficient field (supported on grading 1) and the
map d2 out of it (landing in grading 4).  Stacking them as

    [[d, 0, 0], [d1, 0, 0], [u, d2, -d]]

gives the extended differential whose square-zero identities every valid
datum must satisfy; validation checks them entry by entry in exact
arithmetic, along with the weight compatibility of every stored exponent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .novikov import NovikovElement, format_rat, lincomb, parse_rat


class InputError(ValueError):
    """Malformed user input (bad JSON, schema violation, bad flags)."""


@dataclass(frozen=True)
class Generator:
    name: str
    grading: int          # residue mod 8
    energy_lift: Fraction

    def __post_init__(self):
        if not self.name:
            raise InputError("generator name must be nonempty")
        if not 0 <= self.grading <= 7:
            raise InputError(f"grading of {self.name!r} must be in 0..7")


class LambdaMatrix:
    """Sparse matrix over the Novikov coefficients, indexed by generator names."""

    def __init__(self, entries: dict[tuple[str, str], NovikovElement] | None = None):
        self._by_source: dict[str, dict[str, NovikovElement]] = {}
        for (src, dst), el in (entries or {}).items():
            self.set(src, dst, el)

    def set(self, src: str, dst: str, el: NovikovElement):
        if el.is_zero():
            return
        self._by_source.setdefault(src, {})[dst] = el

    def entry(self, src: str, dst: str) -> NovikovElement:
        return self._by_source.get(src, {}).get(dst, NovikovElement.zero())

    def entries(self):
        for src in sorted(self._by_source):
            row = self._by_source[src]
            for dst in sorted(row):
                yield src, dst, row[dst]

    def is_zero(self) -> bool:
        return not self._by_source

    def apply(self, vec: dict[str, NovikovElement]) -> dict[str, NovikovElement]:
        return lincomb((coeff, self._by_source.get(src, {})) for src, coeff in vec.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LambdaMatrix):
            return NotImplemented
        return dict(self.iter_pairs()) == dict(other.iter_pairs())

    def iter_pairs(self):
        for src, dst, el in self.entries():
            yield (src, dst), el


# The vec_* helpers below also serve the x-parts of the equivariant
# complexes, whose keys are x-powers (ints) instead of generator names.
Vector = dict[str, NovikovElement]


def vec_add(a: Vector, b: Vector) -> Vector:
    return lincomb(((None, a), (None, b)))


def vec_neg(a: Vector) -> Vector:
    return {g: -el for g, el in a.items()}

def vec_sub(a: Vector, b: Vector) -> Vector:
    return lincomb(((None, a), (-1, b)))


def apply_row(row: dict[str, NovikovElement], vec: Vector) -> NovikovElement:
    """A one-sided map into the coefficients (d1, delta1), stored by source.

    A scalar dot product: it sums elements, so it keeps no dict for `lincomb`.
    """
    out = NovikovElement.zero()
    for g, coeff in vec.items():
        el = row.get(g)
        if el is not None:
            out = out + coeff * el
    return out


def apply_column(col: dict[str, NovikovElement], lam: NovikovElement) -> Vector:
    """A one-sided map out of the coefficients (d2, delta2), stored by target."""
    return lincomb(((lam, col),))


def weighted_sum(vectors: list[Vector], part: dict[int, NovikovElement]) -> Vector:
    """sum_i part[i] · vectors[i] over the slots i >= 0; a slot past the list is zero."""
    return lincomb((a, vectors[i]) for i, a in part.items() if 0 <= i < len(vectors))


def kept_orbit(kept: dict, key, depth: int, seed, step, read) -> list:
    """[read(s_j) for j < depth], where s_0 = seed() and s_(j+1) = step(s_j).

    A state is a tuple of chain vectors.  kept[key] holds the reads so far
    and the next state, grown only on demand; the list ends at the first
    all-zero state, which is exact since step and read are linear.  The
    maps behind them must not change, nor callers change the list returned.
    """
    entry = kept.get(key)
    if entry is None:
        entry = kept[key] = [[], seed()]
    reads, state = entry
    while len(reads) < depth and any(state):
        reads.append(read(state))
        state = step(state)
    entry[1] = state
    return reads if len(reads) <= depth else reads[:max(depth, 0)]


class FloerDatum:
    """Generators, gradings, energy lifts and the four structure maps.

    `_orbits` keeps each generator's d1-orbit [d1(u^j g)] under its name
    and the d2-orbit [u^i d2(1)] under None (`kept_orbit`): each ends at its
    first zero u^j g or u^i d2(1), and the maps must not change once read.
    """

    def __init__(self, name: str, generators: list[Generator],
                 d: LambdaMatrix, u: LambdaMatrix,
                 d1: dict[str, NovikovElement], d2: dict[str, NovikovElement]):
        self.name = name
        self.generators = list(generators)
        self._by_name = {g.name: g for g in generators}
        if len(self._by_name) != len(generators):
            raise InputError("generator names must be unique")
        self.d = d
        self.u = u
        self.d1 = {g: el for g, el in d1.items() if not el.is_zero()}
        self.d2 = {g: el for g, el in d2.items() if not el.is_zero()}
        for m in (d, u):
            for src, dst, _ in m.entries():
                self.require(src)
                self.require(dst)
        for g in list(self.d1) + list(self.d2):
            self.require(g)
        self._orbits: dict = {}

    def require(self, name: str):
        if name not in self._by_name:
            raise InputError(f"unknown generator {name!r} in datum {self.name!r}")

    def generator(self, name: str) -> Generator:
        return self._by_name[name]

    def grading(self, name: str) -> int:
        return self._by_name[name].grading

    def lift(self, name: str) -> Fraction:
        return self._by_name[name].energy_lift

    def names(self) -> list[str]:
        return [g.name for g in self.generators]

    # -- the four maps as functions on chain vectors -----------------------

    def apply_d(self, vec: Vector) -> Vector:
        return self.d.apply(vec)

    def apply_u(self, vec: Vector) -> Vector:
        return self.u.apply(vec)

    def apply_d1(self, vec: Vector) -> NovikovElement:
        return apply_row(self.d1, vec)

    def apply_d2(self, lam: NovikovElement) -> Vector:
        return apply_column(self.d2, lam)

    def d1_orbit(self, g: str, depth: int) -> list[NovikovElement]:
        """[d1(u^j g) for j < depth], ending early once u^j g = 0."""
        return kept_orbit(self._orbits, g, depth, lambda: (self.basis_vector(g),),
                          lambda s: (self.apply_u(s[0]),), lambda s: self.apply_d1(s[0]))

    def d2_orbit(self, depth: int) -> list[Vector]:
        """[u^i d2(1) for i < depth], ending early once u^i d2(1) = 0."""
        return kept_orbit(self._orbits, None, depth,
                          lambda: (self.apply_d2(NovikovElement.one()),),
                          lambda s: (self.apply_u(s[0]),), lambda s: s[0])

    def basis_vector(self, name: str) -> Vector:
        self.require(name)
        return {name: NovikovElement.one()}

    def structurally_equal(self, other: "FloerDatum") -> bool:
        return (
            [(g.name, g.grading, g.energy_lift) for g in self.generators]
            == [(g.name, g.grading, g.energy_lift) for g in other.generators]
            and self.d == other.d
            and self.u == other.u
            and self.d1 == other.d1
            and self.d2 == other.d2
        )


@dataclass(frozen=True)
class HomogeneousVector:
    """Rational combination sum_g s_g l^(shift + r_g) g over one grading residue."""

    coefficients: dict[str, Fraction]
    residue: int
    weight_shift: Fraction

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients.values())


class Report:
    """Outcome of a verification pass: ok flag plus failure messages."""

    def __init__(self):
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str):
        self.failures.append(message)

    def first_nonzero(self, checks):
        """Record the first (identity, basis name, residual) with a nonzero residual.

        `checks` is consumed lazily and no further than that residual.
        """
        for identity, basis_name, residual in checks:
            if not residual.is_zero():
                self.fail(f"{identity} fails at {basis_name}: residual {residual}")
                return

    def merge(self, other: "Report"):
        self.failures.extend(other.failures)

    def __str__(self) -> str:
        return "ok" if self.ok else "; ".join(self.failures)


def verify_tilde_differential(datum: FloerDatum) -> Report:
    """Check the four component identities of the squared extended differential.

    Squaring [[d,0,0],[d1,0,0],[u,d2,-d]] forces, entry by entry:
    d(d(g)) = 0, d1(d(g)) = 0, d(d2(1)) = 0 and
    u(d(g)) - d(u(g)) + d2(d1(g)) = 0 for every generator g.
    """
    rep = Report()
    for g in datum.names():
        basis = datum.basis_vector(g)
        dd = datum.apply_d(datum.apply_d(basis))
        for h, el in sorted(dd.items()):
            rep.fail(f"d∘d != 0 at {g}->{h}: residual {el}")
        d1d = datum.apply_d1(datum.apply_d(basis))
        if not d1d.is_zero():
            rep.fail(f"d1∘d != 0 at {g}: residual {d1d}")
        lhs = vec_add(
            vec_sub(datum.apply_u(datum.apply_d(basis)),
                    datum.apply_d(datum.apply_u(basis))),
            datum.apply_d2(datum.apply_d1(basis)),
        )
        for h, el in sorted(lhs.items()):
            if not el.is_zero():
                rep.fail(f"u∘d - d∘u + d2∘d1 != 0 at {g}->{h}: residual {el}")
    dd2 = datum.apply_d(datum.apply_d2(NovikovElement.one()))
    for h, el in sorted(dd2.items()):
        rep.fail(f"d∘d2 != 0 at ->{h}: residual {el}")
    return rep


def validate_structure(datum: FloerDatum) -> Report:
    """Grading-degree constraints of the four maps, then the square-zero identities."""
    rep = Report()
    for src, dst, _ in datum.d.entries():
        if (datum.grading(src) - 1) % 8 != datum.grading(dst):
            rep.fail(f"d entry {src}->{dst} does not drop grading by 1")
    for src, dst, _ in datum.u.entries():
        if (datum.grading(src) - 4) % 8 != datum.grading(dst):
            rep.fail(f"u entry {src}->{dst} does not drop grading by 4")
    for g in sorted(datum.d1):
        if datum.grading(g) != 1:
            rep.fail(f"d1 supported on {g} of grading {datum.grading(g)} != 1")
    for g in sorted(datum.d2):
        if datum.grading(g) != 4:
            rep.fail(f"d2 lands on {g} of grading {datum.grading(g)} != 4")
    rep.merge(verify_tilde_differential(datum))
    return rep


def validate_homogeneity(datum: FloerDatum) -> Report:
    """Weight compatibility: every stored exponent respects the energy lifts mod 1."""
    rep = Report()

    def congruent(x: Fraction) -> bool:
        return x.denominator == 1

    for src, dst, el in datum.d.entries():
        for _, e in el.items():
            if not congruent(datum.lift(src) + e - datum.lift(dst)):
                rep.fail(f"d entry {src}->{dst}: exponent {e} breaks weight congruence")
    for src, dst, el in datum.u.entries():
        for _, e in el.items():
            if not congruent(datum.lift(src) + e - datum.lift(dst)):
                rep.fail(f"u entry {src}->{dst}: exponent {e} breaks weight congruence")
    for g in sorted(datum.d1):
        for _, e in datum.d1[g].items():
            if not congruent(datum.lift(g) + e):
                rep.fail(f"d1 entry at {g}: exponent {e} breaks weight congruence")
    for g in sorted(datum.d2):
        for _, e in datum.d2[g].items():
            if not congruent(e - datum.lift(g)):
                rep.fail(f"d2 entry at {g}: exponent {e} breaks weight congruence")
    return rep


def validate(datum: FloerDatum) -> Report:
    rep = validate_structure(datum)
    rep.merge(validate_homogeneity(datum))
    return rep


class InvalidDatumError(InputError):
    """A datum failing validate, which the calculators refuse."""


class ValidDatum(FloerDatum):
    """A datum that passed validate; only require_valid builds one.

    It shares the generators and maps of the datum it was checked from,
    which nothing changes after construction.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a ValidDatum is built only by require_valid")


def require_valid(datum: FloerDatum) -> ValidDatum:
    """The datum as a ValidDatum: validate runs unless it already is one."""
    if isinstance(datum, ValidDatum):
        return datum
    rep = validate(datum)
    if not rep.ok:
        raise InvalidDatumError(f"datum {datum.name!r} fails validation: {rep}")
    valid = object.__new__(ValidDatum)
    valid.__dict__.update(vars(datum))
    return valid


# ---------------------------------------------------------------------------
# JSON: the field, map and file readers shared by every input format
# ---------------------------------------------------------------------------

_REQUIRED = object()
_KINDS = {str: "a string", int: "an integer", list: "an array"}


def check_keys(obj, allowed: set[str], where: str) -> None:
    """Refuse anything but a JSON object whose keys all lie in `allowed`."""
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise InputError(f"unknown key {sorted(unknown)[0]!r} in {where}")


def json_field(obj: dict, key: str, kind: type, where: str, default=_REQUIRED):
    """obj[key] as a `kind`: str, int, list, or Fraction parsed from "p/q".

    A missing key is refused unless a default is given.
    """
    if key not in obj:
        if default is _REQUIRED:
            raise InputError(f"{where} missing key {key!r}")
        return default
    value = obj[key]
    if kind is Fraction:
        try:
            return parse_rat(value)
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from exc
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InputError(f"{key!r} in {where} must be {_KINDS[kind]}")
    return value


def _terms_from_json(items: list, where: str) -> NovikovElement:
    terms = []
    for t in items:
        check_keys(t, {"coeff", "exp"}, f"{where} term")
        terms.append((json_field(t, "coeff", Fraction, where),
                      json_field(t, "exp", Fraction, where)))
    return NovikovElement(terms)


def _terms_to_json(el: NovikovElement) -> list[dict]:
    return [{"coeff": format_rat(c), "exp": format_rat(e)} for c, e in el.items()]


def map_from_json(obj: dict, key: str, end: str = ""):
    """The map stored under obj[key]; an absent key is the zero map.

    A matrix map is an array of {"from", "to", "terms"} objects and reads
    into a LambdaMatrix.  Given `end` ("from" or "to"), a one-sided map is
    an array of {end, "terms"} objects and reads into a dict by generator.
    """
    ends = (end,) if end else ("from", "to")
    where = f"{key} entry"
    out = {}
    for e in json_field(obj, key, list, "input", default=[]):
        check_keys(e, {*ends, "terms"}, where)
        names = tuple(json_field(e, x, str, where) for x in ends)
        out[names[0] if end else names] = _terms_from_json(
            json_field(e, "terms", list, where), key)
    return out if end else LambdaMatrix(out)


def map_to_json(m, end: str = "") -> list[dict]:
    """Inverse of map_from_json."""
    if not end:
        return [{"from": s, "to": t, "terms": _terms_to_json(el)}
                for s, t, el in m.entries()]
    return [{end: g, "terms": _terms_to_json(el)} for g, el in sorted(m.items())]


def read_json(path_or_name: str, what: str):
    """Parse the JSON file at a path, or else the bundled fixture of that name."""
    p = Path(path_or_name)
    if not p.exists():
        name = p.stem if p.suffix == ".json" else path_or_name
        p = resources.files("floergamma") / "fixtures" / f"{name}.json"
        if not p.is_file():
            raise InputError(f"no such {what} file or fixture: {path_or_name}")
    try:
        return json.loads(p.read_text())
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what} {path_or_name}: {exc}") from exc


def datum_from_json(obj) -> FloerDatum:
    check_keys(obj, {"name", "generators", "d", "u", "d1", "d2"}, "datum")
    name = json_field(obj, "name", str, "datum")
    generators = []
    for g in json_field(obj, "generators", list, "datum"):
        check_keys(g, {"name", "grading", "energy_lift"}, "generator")
        generators.append(Generator(json_field(g, "name", str, "generator"),
                                    json_field(g, "grading", int, "generator"),
                                    json_field(g, "energy_lift", Fraction, "generator")))
    return FloerDatum(name, generators, map_from_json(obj, "d"), map_from_json(obj, "u"),
                      map_from_json(obj, "d1", "from"), map_from_json(obj, "d2", "to"))


def datum_to_json(datum: FloerDatum) -> dict:
    return {
        "name": datum.name,
        "generators": [
            {"name": g.name, "grading": g.grading,
             "energy_lift": format_rat(g.energy_lift)}
            for g in datum.generators
        ],
        "d": map_to_json(datum.d),
        "u": map_to_json(datum.u),
        "d1": map_to_json(datum.d1, "from"),
        "d2": map_to_json(datum.d2, "to"),
    }


def load_datum(path_or_name: str) -> FloerDatum:
    """Load a datum from a JSON file path or a bundled fixture name."""
    return datum_from_json(read_json(path_or_name, "datum"))
