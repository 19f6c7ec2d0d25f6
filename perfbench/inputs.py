"""Seeded inputs for the benchmark, with their expected answers.

Nothing here imports the repository's tests, so editing a test cannot
change a workload.  Chain data are disjoint unions of U-ladders (the
shape of the Poincare-sphere data), whose Gamma and h have a closed form,
followed by two transforms that leave both invariants unchanged:

(a) a filtered unipotent change of basis g -> g + c l^(r_h - r_g) h with
    g, h of one grading and r_h > r_g;
(b) a direct sum with an acyclic pair x -> y, d x = l^(r_y - r_x) y.

Transform (b) makes the differential nonzero; the shears of (a) then mix
d with u, d1 and d2 across the datum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from floergamma.floer_datum import FloerDatum, Generator, LambdaMatrix, validate
from floergamma.novikov import INF, NovikovElement

COEFFS = (-2, -1, 1, 2)


def _term(coeff, exp) -> NovikovElement:
    return NovikovElement.term(coeff, exp)


@dataclass
class Ladders:
    """A datum (None when only its values are needed) and the rung lifts
    that fix its invariants.

    family is "d1" (ladders climbing from a d1 source, grading 1, 5, 1, ...)
    or "d2" (ladders descending from a d2 target, grading 4, 0, 4, ...);
    blocks[b][j] is the lift of rung j of ladder b.
    """

    datum: FloerDatum | None
    family: str
    blocks: list[list[Fraction]] = field(default_factory=list)

    def gamma(self, k: int):
        """Gamma(k) in closed form.

        d1 family: the objective at degree k reads rung k-1 of each ladder
        at exponent 0 and the lower rungs are free to vanish, so the best
        support threshold is the largest lift among the rungs k-1, and
        Gamma(k <= 0) = 0 because d2 = 0 leaves q unconstrained.
        d2 family: d1 = 0 makes every k >= 1 infinite; for k <= 0 the
        column u^i d2 vanishes exactly when i is at least the longest
        ladder, which gives 0 when -k reaches it and +inf otherwise.
        """
        longest = max((len(b) for b in self.blocks), default=0)
        if self.family == "d1":
            if k <= 0:
                return Fraction(0)
            rungs = [b[k - 1] for b in self.blocks if len(b) >= k]
            return -max(rungs) if rungs else INF
        if k >= 1:
            return INF
        return Fraction(0) if -k >= longest else INF

    def h(self) -> int:
        """Half the largest feasible degree: the longest ladder, signed."""
        longest = max((len(b) for b in self.blocks), default=0)
        return longest // 2 if self.family == "d1" else -(longest // 2)


def ladder_union(rng: Random, family: str, lengths: list[int],
                 name: str) -> Ladders:
    """Disjoint union of even-length U-ladders, d = 0."""
    gens: list[Generator] = []
    u = LambdaMatrix()
    d1: dict[str, NovikovElement] = {}
    d2: dict[str, NovikovElement] = {}
    blocks = []
    for b, length in enumerate(lengths):
        names = [f"b{b}r{j}" for j in range(length)]
        sign = -1 if family == "d1" else 1
        lifts = [sign * Fraction(rng.randint(1, 40), rng.choice((2, 3, 4, 6)))]
        for _ in range(length - 1):
            step = Fraction(rng.randint(1, 24), rng.choice((2, 3, 4, 6, 12)))
            lifts.append(lifts[-1] + sign * step)
        for j, (nm, lf) in enumerate(zip(names, lifts)):
            grading = (1 + 4 * j) % 8 if family == "d1" else (4 - 4 * j) % 8
            gens.append(Generator(nm, grading, lf))
        for j in range(length - 1):
            coeff = rng.choice(COEFFS)
            if family == "d1":
                u.set(names[j + 1], names[j], _term(coeff, lifts[j] - lifts[j + 1]))
            else:
                u.set(names[j], names[j + 1], _term(coeff, lifts[j + 1] - lifts[j]))
        if family == "d1":
            d1[names[0]] = _term(rng.choice(COEFFS), -lifts[0])
        else:
            d2[names[0]] = _term(rng.choice(COEFFS), lifts[0])
        blocks.append(lifts)
    datum = FloerDatum(name, gens, LambdaMatrix(), u, d1, d2)
    return Ladders(datum, family, blocks)


def add_acyclic_pairs(rng: Random, ladders: Ladders, count: int) -> list[tuple[str, str]]:
    """Transform (b), in place: `count` pairs x -> y with d x = l^(r_y - r_x) y.

    Pair i hangs beside a rung chosen by position alone: in a d1 datum x has
    the rung's grading (a class Gamma reads) and a larger lift, in a d2
    datum y does.  Returns the (rung, partner) pairs for the shears.
    """
    datum = ladders.datum
    gens = list(datum.generators)
    d = LambdaMatrix(dict(datum.d.iter_pairs()))
    rungs = [(b, j) for j in range(max(map(len, ladders.blocks)))
             for b in range(len(ladders.blocks)) if j < len(ladders.blocks[b])]
    partners = []
    for i in range(count):
        b, j = rungs[i % len(rungs)]
        rung = datum.generator(f"b{b}r{j}")
        above = rung.energy_lift + Fraction(rng.randint(1, 12), rng.choice((2, 3, 4, 6)))
        gap = Fraction(rng.randint(1, 12), rng.choice((2, 3, 4, 6)))
        if ladders.family == "d1":
            x = Generator(f"p{i}x", rung.grading, above)
            y = Generator(f"p{i}y", (rung.grading - 1) % 8, above + gap)
            partners.append((rung.name, x.name))
        else:
            y = Generator(f"p{i}y", rung.grading, above)
            x = Generator(f"p{i}x", (rung.grading + 1) % 8, above - gap)
            partners.append((rung.name, y.name))
        gens += [x, y]
        d.set(x.name, y.name, _term(rng.choice(COEFFS), y.energy_lift - x.energy_lift))
    ladders.datum = FloerDatum(datum.name, gens, d, LambdaMatrix(dict(datum.u.iter_pairs())),
                               dict(datum.d1), dict(datum.d2))
    return partners


def _shear(datum: FloerDatum, g: str, h: str, c) -> FloerDatum:
    """Transform (a): rewrite every map in the basis with g' = g + c l^(r_h - r_g) h."""
    shift = _term(c, datum.lift(h) - datum.lift(g))

    def rebase(vec, sign):  # sign +1: new coordinates -> old (P); -1: P^-1
        out = dict(vec)
        if g in vec:
            acc = out.pop(h, NovikovElement.zero()) + sign * (vec[g] * shift)
            if not acc.is_zero():
                out[h] = acc
        return out

    def conjugate(mat: LambdaMatrix) -> LambdaMatrix:
        new = LambdaMatrix()
        for src in datum.names():
            image = mat.apply(rebase({src: NovikovElement.one()}, 1))
            for dst, el in rebase(image, -1).items():
                new.set(src, dst, el)
        return new

    d1 = {}
    for src in datum.names():
        el = datum.apply_d1(rebase({src: NovikovElement.one()}, 1))
        if not el.is_zero():
            d1[src] = el
    d2 = rebase(datum.apply_d2(NovikovElement.one()), -1)
    return FloerDatum(datum.name, datum.generators, conjugate(datum.d),
                      conjugate(datum.u), d1, d2)


def transformed(rng: Random, family: str, lengths: list[int], pairs: int,
                name: str) -> Ladders:
    """Ladder union, then (b) and the shears (a); refuses a datum failing validate.

    Which generators the shears join depends on the shape alone, so data of
    one shape cost about the same whatever the seed: each rung with a pair
    partner takes the partner, which spreads d over the ladder, and rung j
    of a four-rung ladder takes rung j + 2 or j - 2, whichever lies higher.
    """
    ladders = ladder_union(rng, family, lengths, name)
    shears = add_acyclic_pairs(rng, ladders, pairs)
    for b, length in enumerate(lengths):
        for j in range(length - 2):
            low, high = (j + 2, j) if family == "d1" else (j, j + 2)
            shears.append((f"b{b}r{low}", f"b{b}r{high}"))
    datum = ladders.datum
    for g, h in shears:
        datum = _shear(datum, g, h, rng.choice(COEFFS))
    rep = validate(datum)
    if not rep.ok:
        raise RuntimeError(f"generated datum {name} fails validate: {rep}")
    ladders.datum = datum
    return ladders


def corrupted(rng: Random, datum: FloerDatum, name: str) -> FloerDatum:
    """A copy that fails validate: a new pair x -> y with d1 on y, so d1∘d != 0."""
    ry = Fraction(-rng.randint(1, 30), rng.choice((2, 3, 4)))
    rx = ry - Fraction(rng.randint(1, 12), rng.choice((2, 3)))
    gens = list(datum.generators) + [Generator("bad_x", 2, rx), Generator("bad_y", 1, ry)]
    d = LambdaMatrix(dict(datum.d.iter_pairs()))
    d.set("bad_x", "bad_y", _term(1, ry - rx))
    d1 = dict(datum.d1)
    d1["bad_y"] = _term(1, -ry)
    bad = FloerDatum(name, gens, d, LambdaMatrix(dict(datum.u.iter_pairs())),
                     d1, dict(datum.d2))
    if validate(bad).ok:
        raise RuntimeError(f"corrupted datum {name} passes validate")
    return bad


def datum_sizes(datum: FloerDatum) -> dict:
    return {"generators": len(datum.generators),
            "d_entries": sum(1 for _ in datum.d.entries()),
            "u_entries": sum(1 for _ in datum.u.entries())}


# ---------------------------------------------------------------------------
# Independent arithmetic oracles
# ---------------------------------------------------------------------------

def spectral_bounds(lifts: list[Fraction]) -> tuple[Fraction, Fraction]:
    """(tau_lb, tau_prime_lb): least positive representatives mod 1."""
    def pos_mod1(x: Fraction) -> Fraction:
        r = x - math.floor(x)
        return r if r else Fraction(1)

    return (min(pos_mod1(-r) for r in lifts),
            min(pos_mod1(b - a) for a in lifts for b in lifts))


def r_closed_form(a: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    """(R, b, beta) from 1 + beta_i (a / a_i) = 0 mod a_i and b = 1/a + sum beta_i / a_i."""
    prod = math.prod(a)
    betas = []
    for ai in a:
        rest = prod // ai
        betas.append(next(beta for beta in range(1, ai) if (1 + beta * rest) % ai == 0))
    b = Fraction(1, prod) + sum(Fraction(beta, ai) for beta, ai in zip(betas, a))
    if b.denominator != 1:
        raise ValueError(f"orbit data {a} are not pairwise coprime")
    return 2 * int(b) - 3, int(b), tuple(betas)


def coprime_tuple_count(max_product: int) -> int:
    """Pairwise-coprime tuples of 3 or 4 increasing entries >= 2, product <= bound."""
    def count(prefix: list[int], prod: int, start: int) -> int:
        total = 1 if len(prefix) in (3, 4) else 0
        if len(prefix) == 4:
            return total
        for x in range(start, max_product // prod + 1):
            if all(math.gcd(x, y) == 1 for y in prefix):
                total += count(prefix + [x], prod * x, x + 1)
        return total

    return count([], 1, 2)
