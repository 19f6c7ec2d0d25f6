"""Finite chain-level model of an integral homology sphere.

A datum consists of named generators carrying a mod-8 grading and a
rational energy lift, together with the structure maps of `DATUM_MAPS`
over the Novikov coefficients Λ: a row gives a map's field and JSON key,
the end keying a one-sided map ("from" into Λ, "to" out of it, "" for a
matrix map) and its grading drop mod 8.  `extended` stacks a table's maps
(m, n, m1, m2) into the one operator [[m, 0, 0], [m1, scalar, 0],
[n, m2, sign·m]] on C ⊕ Λ ⊕ C, blocks A, R and B: an S-complex's
differential or an S-morphism (Daemi & Scaduto, arXiv:1912.08982).
validate checks d̃∘d̃ = 0 for d̃ = `extended(datum, DATUM_MAPS, 0, -1)`
block by block (`block_report`), skipping the rows (0, 0, g): there a
composite of two such operators is its A->A block at (g, 0, 0), put in B
and multiplied by both signs.  With Λ at grading 0 and lift 0, it also
checks that each entry src -> dst has (gr(src) - drop) % 8 == gr(dst) and
that lift(src) + e - lift(dst) is an integer for each exponent e: with
n/q = lift(dst) - lift(src) unreduced, q·e.den divides e.num·q - n·e.den.
(Reduced a/b + c/d ∈ Z forces b = d, so e needs the reduced difference's
denominator; the unreduced form skips that reduction and every
per-exponent `Fraction`.)

JSON format: {"name", "generators": [{"name", "grading" (0..7),
"energy_lift"}], and per map an optional array (absent is the zero map)
of entries {"from", "to", "terms"}, or {end, "terms"} if one-sided};
"terms" is [{"coeff", "exp"}], the sum of coeff · l^exp over distinct
exponents.  Rationals are strings, "p/q" or "p" (or any spelling
`Fraction` reads, up to `novikov.MAX_DIGITS` digits and
`novikov.MAX_SPELLING` characters), never numbers.
Unknown keys or generators, a repeated entry (two with the same ends in
one map) and a repeated exponent within one entry are refused with
`InputError`.  `cobordism` reads its maps the same way.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .novikov import InputError, NovikovElement, format_rat, lincomb, parse_rat

#: The structure maps of a datum: (field and JSON key, end keying a one-sided
#: map or "" for a matrix map, grading drop mod 8).
DATUM_MAPS = (("d", "", 1), ("u", "", 4), ("d1", "from", 1), ("d2", "to", 4))
_NO_ENTRIES: dict = {}  # the row of a source with no entry; never written to
_NO_IMAGE = (_NO_ENTRIES, NovikovElement.zero(), _NO_ENTRIES)  # of an empty chain


class Record:
    """Base of the slotted records: equality, hash and repr are those of a
    frozen dataclass over `_FIELDS`, which defaults to the slots.  Only
    instances of one class compare equal; a subclass that is mutable, or
    holds dicts, sets `__hash__ = None`.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._FIELDS = cls.__dict__.get("_FIELDS", cls.__slots__)

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self._FIELDS)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={value!r}" for key, value in zip(self._FIELDS, self._values()))
        return f"{type(self).__qualname__}({fields})"


class Generator(Record):
    """A named generator: its grading (a residue mod 8) and energy lift.

    A `Record`: `FloerDatum.grading` and `lift` read its slots on every
    Gamma and triangle path, and nothing mutates a generator once built.
    """

    __slots__ = ("name", "grading", "energy_lift")

    def __init__(self, name: str, grading: int, energy_lift: Fraction):
        if not name:
            raise InputError("generator name must be nonempty")
        if not 0 <= grading <= 7:
            raise InputError(f"grading of {name!r} must be in 0..7")
        self.name = name
        self.grading = grading
        self.energy_lift = energy_lift


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

    def entries(self):
        for src in sorted(self._by_source):
            row = self._by_source[src]
            for dst in sorted(row):
                yield src, dst, row[dst]

    def is_zero(self) -> bool:
        return not self._by_source

    def row(self, src: str) -> dict[str, NovikovElement]:
        """The stored image of src, read-only, or an empty dict."""
        return self._by_source.get(src, _NO_ENTRIES)

    def apply(self, vec: dict[str, NovikovElement]) -> dict[str, NovikovElement]:
        return lincomb((coeff, self._by_source.get(src, _NO_ENTRIES)) for src, coeff in vec.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LambdaMatrix):
            return NotImplemented
        return dict(self.iter_pairs()) == dict(other.iter_pairs())

    def iter_pairs(self):
        for src, dst, el in self.entries():
            yield (src, dst), el


def map_entries(m, end: str = ""):
    """(src, dst, element) for each entry of a stored map, in sorted order: a
    LambdaMatrix, or a dict keyed by `end` whose other end, Λ, is None."""
    if not end:
        return m.entries()
    return ((None, g, el) if end == "to" else (g, None, el) for g, el in sorted(m.items()))


def entry_label(key: str, src, dst) -> str:
    """How messages name an entry: "d entry a->b", or "d1 entry at a" if one-sided."""
    return f"{key} entry {src}->{dst}" if src and dst else f"{key} entry at {src or dst}"


def store_maps(holder, maps, values, source: "FloerDatum", target: "FloerDatum"):
    """Set the tabled maps on `holder`, dropping zero entries of a one-sided map;
    refuse an entry whose source end `source` lacks, or target end `target`."""
    for (key, end, _), m in zip(maps, values):
        if end:
            m = {g: el for g, el in m.items() if not el.is_zero()}
        setattr(holder, key, m)
        for src, dst, _ in map_entries(m, end):
            if src is not None:
                source.require(src)
            if dst is not None:
                target.require(dst)


# The vec_* helpers below also serve the x-parts of the equivariant
# complexes, whose keys are x-powers (ints) instead of generator names.
# Inputs are zero-free; with one side empty the other may come back itself, so only read it.
Vector = dict[str, NovikovElement]


def vec_add(a: Vector, b: Vector) -> Vector:
    return lincomb(((None, a), (None, b))) if a and b else a or b


def vec_neg(a: Vector) -> Vector:
    return {g: -el for g, el in a.items()}


def vec_sub(a: Vector, b: Vector) -> Vector:
    if not b:
        return a
    return lincomb(((None, a), (None, vec_neg(b)))) if a else vec_neg(b)


def apply_row(row: dict[str, NovikovElement], vec: Vector) -> NovikovElement:
    """A map into Λ applied to a vector: a dot product, with no dict for `lincomb`."""
    out = NovikovElement.zero()
    for g, coeff in vec.items():
        el = row.get(g)
        if el is not None:
            out = out + coeff * el
    return out


def apply_column(col: dict[str, NovikovElement], lam: NovikovElement) -> Vector:
    """A map out of Λ applied to a coefficient."""
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
    """Generators, gradings, energy lifts and the structure maps of `DATUM_MAPS`.

    `_orbits` keeps each generator's d1-orbit [d1(u^j g)] under its name
    and the d2-orbit [u^i d2(1)] under None (`kept_orbit`): each ends at its
    first zero u^j g or u^i d2(1).  `_classes` keeps what `gamma` builds
    once per datum:
    - under k mod 2, the grading class that Gamma(k) reads: its generators
      by decreasing lift and their keyed d-columns (`gamma._class`);
    - under None, the d2-orbit keyed for Gamma(k <= 0) (`gamma._q_orbit`);
    - under "d1", the tower rows [w_0, w_1, ...], w_j(g) = d1(u^j l^(r_g) g)
      keyed by exponent, and u's entries indexed by target (`gamma._d1_levels`);
    - under ("d", k mod 2), the d-basis of that class's d-columns, read by
      a witness-free Gamma(k <= 0) (`gamma._echelon`).
    `valid` is set only by `require_valid`, once validate passes.  The maps
    must not change once `valid` is set or either kept table is read.
    """

    def __init__(self, name: str, generators: list[Generator],
                 d: LambdaMatrix, u: LambdaMatrix,
                 d1: dict[str, NovikovElement], d2: dict[str, NovikovElement]):
        self.name = name
        self.generators = list(generators)
        self._by_name = {g.name: g for g in generators}
        if len(self._by_name) != len(generators):
            raise InputError("generator names must be unique")
        store_maps(self, DATUM_MAPS, (d, u, d1, d2), self, self)
        self.valid = False
        self._orbits: dict = {}
        self._classes: dict = {}

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
            self.generators == other.generators
            and all(getattr(self, key) == getattr(other, key) for key, _, _ in DATUM_MAPS)
        )


class HomogeneousVector(NamedTuple):
    """Rational combination sum_g s_g l^(shift + r_g) g over one grading residue."""

    coefficients: dict[str, Fraction]
    residue: int
    weight_shift: Fraction


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


def grading_report(rep: Report, maps, holder, source: FloerDatum, target: FloerDatum):
    """Record each entry of the tabled maps on `holder` that breaks its grading
    rule, src graded in `source` and dst in `target` (module docstring)."""
    for key, end, drop in maps:
        for src, dst, _ in map_entries(getattr(holder, key), end):
            have = source.grading(src) if src else 0
            got = target.grading(dst) if dst else 0
            want = (have - drop) % 8
            if got == want:
                continue
            if end == "from":
                rep.fail(f"{key} supported on {src} of grading {have} != {drop % 8}")
            elif end == "to":
                rep.fail(f"{key} lands on {dst} of grading {got} != {want}")
            else:
                rule = f"drop grading by {drop}" if drop else "preserve grading"
                rep.fail(f"{entry_label(key, src, dst)} does not {rule}")


class Extended(namedtuple("Extended", "m n m1 m2 scalar sign")):
    """The operator of `extended` on (chain, Λ, chain) triples, read through stored rows."""

    __slots__ = ()

    def image(self, g) -> tuple:
        """The image of (g, 0, 0), or of (0, 1, 0) for g None; a zero Λ part may be None."""
        if g is None:
            return _NO_ENTRIES, NovikovElement.term(self.scalar), self.m2
        return self.m.row(g), self.m1.get(g), self.n.row(g)

    def __call__(self, triple: tuple) -> tuple:
        """The image of a triple (a, r, b), skipping the terms of a zero r or scalar."""
        (m, n, m1, m2, scalar, sign), (a, r, b) = self, triple
        first, lam, last = (m.apply(a), apply_row(m1, a), n.apply(a)) if a else _NO_IMAGE
        if r:
            last = lincomb(((None, last), (r, m2)))
            if scalar:
                lam = lam + scalar * r
        if b:
            last = (vec_add if sign > 0 else vec_sub)(last, m.apply(b))
        return first, lam, last


def extended(holder, maps, scalar: int, sign: int) -> Extended:
    """The operator of `holder`'s maps, tabled in `maps` in the order (m, n, m1, m2)."""
    return Extended(*(getattr(holder, key) for key, _, _ in maps), scalar, sign)


def block_report(rep: Report, blocks, names, residual, *inner: Extended):
    """Record the nonzero blocks of residual(*images), `inner`'s images of each
    (g, 0, 0) but those all empty, then the R->B block of (0, 1, 0).  `blocks`
    holds (message, sign) for A->A, A->R, A->B and R->B, each message naming
    its entry and signed residual at its "{}"s."""
    rows = zip(names, zip(*(map(op.image, names) for op in inner)))
    for g, images in (*rows, (None, [op.image(None) for op in inner])):
        if g is not None and not any(map(any, images)):
            continue
        parts = residual(*images)
        for (message, sign), part in zip(blocks, parts) if g else ((blocks[3], parts[2]),):
            if not part:
                continue
            if isinstance(part, dict):
                for h, el in sorted(part.items()):
                    rep.fail(message.format(f"{g or ''}->{h}", el if sign > 0 else -el))
            else:
                rep.fail(message.format(g, part if sign > 0 else -part))
    return rep


#: (message, sign) of d̃∘d̃ per block, d̃²(0, 1, 0) being -d(d2(1)) (`block_report`).
SQUARE_BLOCKS = (("d∘d != 0 at {}: residual {}", 1), ("d1∘d != 0 at {}: residual {}", 1),
                 ("u∘d - d∘u + d2∘d1 != 0 at {}: residual {}", 1),
                 ("d∘d2 != 0 at {}: residual {}", -1))


def verify_tilde_differential(datum: FloerDatum) -> Report:
    """d̃∘d̃ = 0 block by block, d̃ being `extended(datum, DATUM_MAPS, 0, -1)`."""
    dt = extended(datum, DATUM_MAPS, 0, -1)
    return block_report(Report(), SQUARE_BLOCKS, datum.names(), dt, dt)


def validate_structure(datum: FloerDatum) -> Report:
    """The grading rule of every map entry, then the square-zero identities."""
    rep = Report()
    grading_report(rep, DATUM_MAPS, datum, datum, datum)
    rep.merge(verify_tilde_differential(datum))
    return rep


def validate_homogeneity(datum: FloerDatum) -> Report:
    """The weight rule of every exponent of every map entry, in integers: e
    passes when q·e.den divides e.num·q - n·e.den, n/q being the unreduced
    lift(dst) - lift(src), with Λ's lift 0 (module docstring)."""
    rep = Report()
    lifts = {g.name: (g.energy_lift.numerator, g.energy_lift.denominator)
             for g in datum.generators}
    lifts[None] = (0, 1)
    for key, end, _ in DATUM_MAPS:
        for src, dst, el in map_entries(getattr(datum, key), end):
            (a, b), (c, d) = lifts[src], lifts[dst]
            n, q = c * b - a * d, b * d
            for _, e in el.items():
                den = e.denominator
                if (e.numerator * q - n * den) % (q * den):
                    rep.fail(f"{entry_label(key, src, dst)}: exponent {e} "
                             "breaks weight congruence")
    return rep


def validate(datum: FloerDatum) -> Report:
    rep = validate_structure(datum)
    rep.merge(validate_homogeneity(datum))
    return rep


class InvalidDatumError(InputError):
    """A datum failing validate, which the calculators refuse."""


def require_valid(datum: FloerDatum) -> FloerDatum:
    """The datum itself, once it passes validate; raises InvalidDatumError
    otherwise.  validate runs only while `datum.valid` is unset, and this
    is the one place that sets it."""
    if not datum.valid:
        rep = validate(datum)
        if not rep.ok:
            raise InvalidDatumError(f"datum {datum.name!r} fails validation: {rep}")
        datum.valid = True
    return datum


# ---------------------------------------------------------------------------
# JSON: the field, map and file readers shared by every input format
# ---------------------------------------------------------------------------

_REQUIRED = object()
_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
_KINDS = {str: "a string", int: "an integer", list: "an array"}
_TERM_KEYS, _GENERATOR_KEYS = {"coeff", "exp"}, {"name", "grading", "energy_lift"}


def check_keys(obj, allowed: set[str], where: str) -> None:
    """Refuse anything but a JSON object whose keys all lie in `allowed`."""
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be a JSON object")
    if not obj.keys() <= allowed:
        raise InputError(f"unknown key {sorted(obj.keys() - allowed)[0]!r} in {where}")


def json_field(obj: dict, key: str, kind: type, where: str, default=_REQUIRED, rats=None):
    """obj[key] as a `kind`: str, int, list, or Fraction parsed from "p/q".

    A missing key is refused unless a default is given.  `rats`, if given, maps
    each spelling read so far to its Fraction; one that fails is not kept.
    """
    if key not in obj:
        if default is _REQUIRED:
            raise InputError(f"{where} missing key {key!r}")
        return default
    value = obj[key]
    if kind is Fraction:
        if rats is not None and value.__class__ is str and value in rats:
            return rats[value]
        try:
            rat = parse_rat(value)
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from exc
        if rats is not None:
            rats[value] = rat
        return rat
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InputError(f"{key!r} in {where} must be {_KINDS[kind]}")
    return value


def _terms_from_json(items: list, key: str, src, dst, rats) -> NovikovElement:
    """The element of the `key` entry src->dst; a repeated exponent is refused.
    A one-term entry, the common case, is read without the exponent dict."""
    if len(items) == 1:
        check_keys(items[0], _TERM_KEYS, f"{key} term")
        return NovikovElement(((json_field(items[0], "coeff", Fraction, key, rats=rats),
                                json_field(items[0], "exp", Fraction, key, rats=rats)),))
    terms = {}
    for t in items:
        check_keys(t, _TERM_KEYS, f"{key} term")
        coeff = json_field(t, "coeff", Fraction, key, rats=rats)
        exp = json_field(t, "exp", Fraction, key, rats=rats)
        if exp in terms:
            raise InputError(f"repeated exponent {format_rat(exp)} in "
                             f"{entry_label(key, src, dst)}")
        terms[exp] = coeff
    return NovikovElement((c, e) for e, c in terms.items())


def map_from_json(obj: dict, key: str, end: str = "", rats=None):
    """The map stored under obj[key]; an absent key is the zero map.

    A matrix map is an array of {"from", "to", "terms"} objects and reads
    into a LambdaMatrix.  Given `end` ("from" or "to"), a one-sided map is
    an array of {end, "terms"} objects and reads into a dict by generator.
    A second entry with the same ends is refused.
    """
    ends = (end,) if end else ("from", "to")
    where, allowed = f"{key} entry", {*ends, "terms"}
    out = {}
    for e in json_field(obj, key, list, "input", default=[]):
        check_keys(e, allowed, where)
        src, dst = (json_field(e, x, str, where) if x in ends else None for x in ("from", "to"))
        at = dst if end == "to" else src if end else (src, dst)
        if at in out:
            raise InputError(f"repeated {entry_label(key, src, dst)}")
        out[at] = _terms_from_json(json_field(e, "terms", list, where), key, src, dst, rats)
    return out if end else LambdaMatrix(out)


def map_to_json(m, end: str = "") -> list[dict]:
    """Inverse of map_from_json."""
    return [{**{x: g for x, g in (("from", src), ("to", dst)) if g is not None},
             "terms": [{"coeff": format_rat(c), "exp": format_rat(e)} for c, e in el.items()]}
            for src, dst, el in map_entries(m, end)]


def read_json(path_or_name: str, what: str):
    """Parse the JSON file at a path, or else the bundled fixture of that name."""
    path = path_or_name
    if not os.path.exists(path):
        stem, suffix = os.path.splitext(os.path.basename(path))
        path = os.path.join(_FIXTURES, f"{stem if suffix == '.json' else path}.json")
        if not os.path.isfile(path):
            raise InputError(f"no such {what} file or fixture: {path_or_name}")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what} {path_or_name}: {exc}") from exc


def datum_from_json(obj) -> FloerDatum:
    """The datum of a JSON object, each rational spelling parsed once per read."""
    check_keys(obj, {"name", "generators", *(key for key, _, _ in DATUM_MAPS)}, "datum")
    name = json_field(obj, "name", str, "datum")
    generators, rats = [], {}
    for g in json_field(obj, "generators", list, "datum"):
        check_keys(g, _GENERATOR_KEYS, "generator")
        generators.append(Generator(json_field(g, "name", str, "generator"),
                                    json_field(g, "grading", int, "generator"),
                                    json_field(g, "energy_lift", Fraction, "generator",
                                               rats=rats)))
    return FloerDatum(name, generators,
                      *(map_from_json(obj, key, end, rats) for key, end, _ in DATUM_MAPS))


def datum_to_json(datum: FloerDatum) -> dict:
    return {
        "name": datum.name,
        "generators": [
            {"name": g.name, "grading": g.grading,
             "energy_lift": format_rat(g.energy_lift)}
            for g in datum.generators
        ],
        **{key: map_to_json(getattr(datum, key), end) for key, end, _ in DATUM_MAPS},
    }


def load_datum(path_or_name: str) -> FloerDatum:
    """Load a datum from a JSON file path or a bundled fixture name."""
    return datum_from_json(read_json(path_or_name, "datum"))
