"""Random valid chain data for property tests.

Generated data follow the energy-additive model: an entry from g to h
carries the single exponent r_h - r_g (positive), the coefficient-field
maps carry -r_g (on negative lifts) and r_h (on positive lifts).  With a
zero differential the square-zero identities then reduce to the
vanishing of the d2/d1 cross term, arranged by keeping one of the two
coefficient maps zero per datum.

Two transforms leave Gamma and h unchanged and make d nonzero: a
filtered unipotent change of basis inside one grading and a direct sum
with an acyclic pair.  Neither makes a value depend on d, so the
d-essential block, whose Gamma(1) is fixed by its d rows, tests them.

The module also keeps the readers that only tests need: homogeneous
projection and its inverse, and the x-degree of a bar element.
"""

from fractions import Fraction
from random import Random

from floergamma.cobordism import CobordismDatum
from floergamma.equivariant import XElement
from floergamma.floer_datum import (
    FloerDatum,
    Generator,
    HomogeneousVector,
    LambdaMatrix,
    validate,
    vec_add,
    vec_sub,
)
from floergamma.novikov import NovikovElement

DENOMINATORS = (2, 3, 4, 5, 6, 8, 12)


def evaluate_at_one(el: NovikovElement) -> Fraction:
    """Sum of the coefficients (the ring map sending l to 1)."""
    return sum((c for c, _ in el.items()), Fraction(0))


def apply_u_power(datum: FloerDatum, vec: dict, power: int) -> dict:
    """u^power vec by direct iteration, the reference for every kept u-orbit."""
    for _ in range(power):
        vec = datum.apply_u(vec)
    return vec


def count_u_applications(*data: FloerDatum) -> list[int]:
    """From now on, count every application of each datum's u into counter[0]."""
    counter = [0]
    for datum in data:
        def counted(vec, apply=datum.u.apply):
            counter[0] += 1
            return apply(vec)
        datum.u.apply = counted
    return counter


def random_lift(rng: Random) -> Fraction:
    den = rng.choice(DENOMINATORS)
    num = rng.randint(-3 * den, 3 * den)
    return Fraction(num, den)


def random_datum(rng: Random, max_gens: int = 7, family: str | None = None,
                 coeffs=(-2, -1, 1, 2), name: str = "random") -> FloerDatum:
    """Ladder blocks plus spectators, modelled on the orientation pair of
    the Poincare-sphere data.

    Each block is a U-ladder of even length anchored at a d1 source (or a
    d2 target in the mirrored family); the even length keeps the largest
    feasible degree even, as it is for data of manifold origin.
    """
    if family is None:
        family = rng.choice(["d1", "d2"])
    gens: list[Generator] = []
    u = LambdaMatrix()
    d1: dict[str, NovikovElement] = {}
    d2: dict[str, NovikovElement] = {}
    count = 0

    def fresh() -> str:
        nonlocal count
        count += 1
        return f"g{count - 1}"

    n_blocks = rng.randint(1, 2)
    for _ in range(n_blocks):
        length = rng.choice((2, 2, 4))
        if family == "d1":
            # anchor grading 1, negative lift; ladder climbs by grading +4
            anchor_lift = Fraction(-rng.randint(1, 10), rng.choice((2, 3, 4, 6)))
            lifts = [anchor_lift]
            for _ in range(length - 1):
                lifts.append(lifts[-1] - abs(random_lift(rng)) - Fraction(1, 12))
            names = [fresh() for _ in range(length)]
            for j, (nm, lf) in enumerate(zip(names, lifts)):
                gens.append(Generator(nm, (1 + 4 * j) % 8, lf))
            d1[names[0]] = NovikovElement.term(rng.choice(coeffs), -lifts[0])
            for j in range(length - 1):
                u.set(names[j + 1], names[j],
                      NovikovElement.term(rng.choice(coeffs),
                                          lifts[j] - lifts[j + 1]))
        else:
            # anchor grading 4, positive lift; ladder descends by grading -4
            anchor_lift = Fraction(rng.randint(1, 10), rng.choice((2, 3, 4, 6)))
            lifts = [anchor_lift]
            for _ in range(length - 1):
                lifts.append(lifts[-1] + abs(random_lift(rng)) + Fraction(1, 12))
            names = [fresh() for _ in range(length)]
            for j, (nm, lf) in enumerate(zip(names, lifts)):
                gens.append(Generator(nm, (4 - 4 * j) % 8, lf))
            d2[names[0]] = NovikovElement.term(rng.choice(coeffs), lifts[0])
            for j in range(length - 1):
                u.set(names[j], names[j + 1],
                      NovikovElement.term(rng.choice(coeffs),
                                          lifts[j + 1] - lifts[j]))

    spectators = []
    while count < max_gens and rng.random() < 0.6:
        nm = fresh()
        spectators.append(nm)
        gens.append(Generator(nm, rng.randrange(8), random_lift(rng)))
    by_name = {g.name: g for g in gens}
    for a in spectators:
        for b in spectators:
            if a != b and (by_name[a].grading - 4) % 8 == by_name[b].grading \
                    and by_name[b].energy_lift > by_name[a].energy_lift \
                    and rng.random() < 0.5:
                u.set(a, b, NovikovElement.term(
                    rng.choice(coeffs),
                    by_name[b].energy_lift - by_name[a].energy_lift))

    datum = FloerDatum(name, gens, LambdaMatrix(), u, d1, d2)
    rep = validate(datum)
    assert rep.ok, rep.failures
    return datum


def random_small_datum(rng: Random, name: str = "small") -> FloerDatum:
    """At most 4 generators, single-term unit coefficients; grid-searchable."""
    n = rng.randint(2, 4)
    # bias gradings toward the classes the invariant actually reads
    gradings = [rng.choice([1, 5, 1, 5, 4, 0]) for _ in range(n)]
    lifts = [Fraction(rng.randint(-12, 12), rng.choice((2, 3, 4, 6))) for _ in range(n)]
    gens = [Generator(f"g{i}", gradings[i], lifts[i]) for i in range(n)]
    u = LambdaMatrix()
    for i in range(n):
        for j in range(n):
            if i != j and (gradings[i] - 4) % 8 == gradings[j] \
                    and lifts[j] > lifts[i] and rng.random() < 0.7:
                u.set(f"g{i}", f"g{j}",
                      NovikovElement.term(rng.choice((-1, 1)), lifts[j] - lifts[i]))
    d1 = {}
    for i in range(n):
        if gradings[i] == 1 and lifts[i] < 0 and rng.random() < 0.8:
            d1[f"g{i}"] = NovikovElement.term(rng.choice((-1, 1)), -lifts[i])
    datum = FloerDatum(name, gens, LambdaMatrix(), u, d1, {})
    assert validate(datum).ok
    return datum


def d_essential_datum(rng: Random, name: str = "d_essential") -> FloerDatum:
    """Two grading-1 generators a1, a2 with the same boundary b and distinct d1.

    d(a_i) = l^(r_b - r_i) b and d1(a_i) = c_i l^(-r_i) with c_1 != c_2, so
    the cycles of grading 1 are the multiples of a1 - a2 (in the units
    l^(r_i)), on which d1 is c_1 - c_2 != 0.  Such a cycle needs both
    generators, so Gamma(1) = -min(r_1, r_2); a solver that drops the d rows
    would take the higher generator alone.  u, d2 are zero.
    """
    r1, r2 = random_lift(rng), random_lift(rng)
    while r2 == r1:
        r2 = random_lift(rng)
    rb = max(r1, r2) + abs(random_lift(rng)) + Fraction(1, 12)
    c1, c2 = rng.sample((-2, -1, 1, 2), 2)
    gens = [Generator("a1", 1, r1), Generator("a2", 1, r2), Generator("b", 0, rb)]
    d = LambdaMatrix({("a1", "b"): NovikovElement.term(1, rb - r1),
                      ("a2", "b"): NovikovElement.term(1, rb - r2)})
    d1 = {"a1": NovikovElement.term(c1, -r1), "a2": NovikovElement.term(c2, -r2)}
    datum = FloerDatum(name, gens, d, LambdaMatrix(), d1, {})
    rep = validate(datum)
    assert rep.ok, rep.failures
    return datum


def cyclic_u_datum(name: str = "cyclic_u", family: str = "d1") -> FloerDatum:
    """a and b with u(a) = 2 l^(1/2) b and u(b) = l^(1/2) a, so u is not
    nilpotent.

    In the d1 family a has grading 1 and b grading 5, and d1(a) = l^(1/2):
    d1(u^j a) is 2^(j/2) l^((j+1)/2) for even j and 0 for odd j.  In the
    d2 family a has grading 4 and b grading 0, and d2(1) = l^(1/2) a:
    u^j d2(1) is 2^ceil(j/2) l^((j+1)/2) times a for even j and b for odd j.
    """
    half = Fraction(1, 2)
    u = LambdaMatrix({("a", "b"): NovikovElement.term(2, half),
                      ("b", "a"): NovikovElement.term(1, half)})
    if family == "d1":
        gens = [Generator("a", 1, -half), Generator("b", 5, Fraction(-1))]
        datum = FloerDatum(name, gens, LambdaMatrix(), u, {"a": NovikovElement.term(1, half)}, {})
    else:
        gens = [Generator("a", 4, half), Generator("b", 0, Fraction(1))]
        datum = FloerDatum(name, gens, LambdaMatrix(), u, {}, {"a": NovikovElement.term(1, half)})
    rep = validate(datum)
    assert rep.ok, rep.failures
    return datum


def zero_map_datum(rng: Random, max_gens: int = 4, name: str = "blank") -> FloerDatum:
    n = rng.randint(1, max_gens)
    gens = [Generator(f"z{i}", rng.randrange(8), random_lift(rng)) for i in range(n)]
    return FloerDatum(name, gens, LambdaMatrix(), LambdaMatrix(), {}, {})


def _shear(datum: FloerDatum, g: str, h: str, s: NovikovElement) -> FloerDatum:
    """Every map rewritten in the basis g' = g + s h."""
    def to_old(vec):  # new coordinates -> old
        return vec_add(vec, {h: vec[g] * s}) if g in vec else vec

    def to_new(vec):  # old coordinates -> new
        return vec_sub(vec, {h: vec[g] * s}) if g in vec else vec

    def conjugate(mat: LambdaMatrix) -> LambdaMatrix:
        new = LambdaMatrix()
        for x in datum.names():
            for y, el in to_new(mat.apply(to_old({x: NovikovElement.one()}))).items():
                new.set(x, y, el)
        return new

    d1 = {x: datum.apply_d1(to_old({x: NovikovElement.one()})) for x in datum.names()}
    d2 = to_new(datum.apply_d2(NovikovElement.one()))
    return FloerDatum(datum.name, datum.generators, conjugate(datum.d),
                      conjugate(datum.u), d1, d2)


def filtered_basis_change(rng: Random, datum: FloerDatum, shears: int = 3) -> FloerDatum:
    """`shears` changes of basis g' = g + c l^(r_h - r_g) h, each for random
    g, h of one grading with r_h > r_g."""
    for _ in range(shears):
        pairs = [(g, h) for g in datum.names() for h in datum.names()
                 if datum.grading(g) == datum.grading(h)
                 and datum.lift(h) > datum.lift(g)]
        if not pairs:
            break
        g, h = rng.choice(pairs)
        datum = _shear(datum, g, h, NovikovElement.term(
            rng.choice((-2, -1, 1, 2)), datum.lift(h) - datum.lift(g)))
    return datum


def with_acyclic_pair(rng: Random, datum: FloerDatum) -> FloerDatum:
    """Direct sum with x -> y, d x = c l^(r_y - r_x) y; x mostly lands in a
    grading that Gamma reads (1 or 5)."""
    x, y = "ax", "ay"
    while x in datum.names() or y in datum.names():
        x, y = x + "'", y + "'"
    grading = rng.choice((1, 5, 1, 5, rng.randrange(8)))
    gx = Generator(x, grading, random_lift(rng))
    gy = Generator(y, (grading - 1) % 8, random_lift(rng))
    d = LambdaMatrix(dict(datum.d.iter_pairs()))
    d.set(x, y, NovikovElement.term(rng.choice((-2, -1, 1, 2)),
                                    gy.energy_lift - gx.energy_lift))
    return FloerDatum(datum.name, datum.generators + [gx, gy], d,
                      LambdaMatrix(dict(datum.u.iter_pairs())), datum.d1, datum.d2)


def transformed_datum(rng: Random, datum: FloerDatum) -> FloerDatum:
    """An acyclic pair, then shears that spread its d over the datum."""
    out = filtered_basis_change(rng, with_acyclic_pair(rng, datum), shears=4)
    rep = validate(out)
    assert rep.ok, rep.failures
    return out


def random_trivial_cobordism(rng: Random, datum: FloerDatum) -> CobordismDatum:
    """Arbitrary maps over a datum with all structure maps zero."""
    phi = LambdaMatrix()
    mu = LambdaMatrix()
    names = datum.names()
    for g in names:
        for h in names:
            if datum.grading(g) == datum.grading(h) and rng.random() < 0.5:
                phi.set(g, h, NovikovElement.term(rng.choice((-2, -1, 1, 2)),
                                                  random_lift(rng)))
            if (datum.grading(g) - 3) % 8 == datum.grading(h) and rng.random() < 0.4:
                mu.set(g, h, NovikovElement.term(rng.choice((-1, 1)),
                                                 random_lift(rng)))
    delta1 = {g: NovikovElement.term(rng.choice((-1, 1)), random_lift(rng))
              for g in names if datum.grading(g) == 1 and rng.random() < 0.5}
    delta2 = {g: NovikovElement.term(rng.choice((-1, 1)), random_lift(rng))
              for g in names if datum.grading(g) == 4 and rng.random() < 0.5}
    return CobordismDatum(datum, datum, phi, mu, delta1, delta2,
                          rng.randint(1, 4))


def project_homogeneous(datum: FloerDatum, element: dict,
                        weight_shift: Fraction, residue: int) -> HomogeneousVector:
    """Projection onto homogeneous vectors of the given weight.

    For a generator g of the matching grading residue, only the
    coefficient of l^(weight_shift + r_g) survives.
    """
    weight_shift = Fraction(weight_shift)
    coeffs: dict[str, Fraction] = {}
    for g, el in element.items():
        if datum.grading(g) % 8 != residue % 8:
            continue
        c = el.coefficient(weight_shift + datum.lift(g))
        if c != 0:
            coeffs[g] = c
    return HomogeneousVector(coeffs, residue % 8, weight_shift)


def to_element(hv: HomogeneousVector, datum: FloerDatum) -> dict:
    """The chain vector sum_g s_g l^(shift + r_g) g that hv stands for."""
    return {g: NovikovElement.term(s, hv.weight_shift + datum.lift(g))
            for g, s in hv.coefficients.items() if s}


def deg_bar(z: XElement) -> int:
    """Largest x-power with a nonzero coefficient; errors on zero."""
    if z.is_zero():
        raise ValueError("Deg of the zero element is undefined")
    return max(z.x)
