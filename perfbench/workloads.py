"""The three workloads: seeded job lists, each job with its own oracle.

A job is one call of ``floergamma.cli.main(argv)``.  Its oracle looks at
the exit code, standard output and standard error and returns None when
they are right, or a short reason.  Expected values come from the paper,
from a closed form fixed when the input was built (inputs.Ladders), from
an independent brute force, or from the construction of the input; no
oracle calls the code being timed.

A job marked ``known_defect`` expects the behaviour the defect breaks;
it stays in the workload so that fixing the defect shows as fewer
failed jobs.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable

from floergamma.floer_datum import FloerDatum, Generator, LambdaMatrix, datum_to_json
from floergamma.novikov import INF

import inputs

Check = Callable[[int, str, str], "str | None"]

# The datum fixtures with their values.  Sigma(2,3,5) and its reverse are
# single two-rung ladders: Gamma(1) = 1/120, Gamma(2) = 49/120 and
# h = 1, -1 (paper values).  S^3 and the d1-free Sigma(2,3,5) have no
# ladder.  remark_nonpositive (d alpha = l^(1/2) beta, d2 = l^(1/4) beta)
# has Gamma(0) = 1/4; below 0 a q-column vanishes, so Gamma = 0; above 0
# d1 = 0 leaves no objective, so Gamma = inf; h = 0.
FIXTURE_LADDERS = {
    "sigma_2_3_5": ("d1", [[Fraction(-1, 120), Fraction(-49, 120)]]),
    "neg_sigma_2_3_5": ("d2", [[Fraction(1, 120), Fraction(49, 120)]]),
    "sigma_2_3_5_d1_zero": ("d2", []),
    "s3": ("d2", []),
}
REMARK_GAMMA = {k: Fraction(0) if k < 0 else Fraction(1, 4) if k == 0 else INF
                for k in range(-4, 5)}
FIXTURE_LIFTS = {
    "sigma_2_3_5": [Fraction(-1, 120), Fraction(-49, 120)],
    "neg_sigma_2_3_5": [Fraction(1, 120), Fraction(49, 120)],
    "sigma_2_3_5_d1_zero": [Fraction(-1, 120), Fraction(-49, 120)],
    "remark_nonpositive": [Fraction(-1, 4), Fraction(1, 4)],
    "s3": [],
}


@dataclass
class Job:
    argv: list[str]
    check: Check
    sizes: dict = field(default_factory=dict)
    known_defect: str | None = None
    negative_control: bool = False


@dataclass
class Workload:
    name: str
    jobs: list[Job]


def fmt(value) -> str:
    return "inf" if value == INF else str(value)


# -- oracles -----------------------------------------------------------------

def expect_lines(lines: list[str], code: int = 0) -> Check:
    def check(rc, out, err):
        if rc != code:
            return f"exit {rc}, expected {code}"
        if out.splitlines() != lines:
            return f"printed {out.splitlines()!r}, expected {lines!r}"
        return None
    return check


def expect_refusal(rc, out, err):
    if rc != 2:
        return f"exit {rc}, expected a refusal with exit 2"
    if not err.startswith("error:"):
        return f"refusal without an error line: {err[:80]!r}"
    return None


def expect_verdict_failure(first_line_prefix: str) -> Check:
    def check(rc, out, err):
        if rc != 1:
            return f"exit {rc}, expected 1 on a broken input"
        if not out.startswith(first_line_prefix):
            return f"printed {out[:80]!r}, expected {first_line_prefix!r}"
        return None
    return check


def expect_nonzero_exit(rc, out, err):
    if rc == 0:
        return f"exit 0 on an invalid datum: {out.strip()!r}"
    if "Traceback" in err:
        return "traceback"
    return None


def expect_verify_ok(decay: str | None = None) -> Check:
    """Both identity families hold; the decay value is checked when known."""
    def check(rc, out, err):
        lines = out.splitlines()
        if rc != 0 or lines[:2] != ["tilde: ok", "functoriality: ok"] or len(lines) != 3:
            return f"exit {rc}, printed {lines!r}"
        if not lines[2].startswith("mdeg_decay = "):
            return f"printed {lines[2]!r}, expected the mdeg decay"
        if decay is not None and lines[2] != f"mdeg_decay = {decay}":
            return f"printed {lines[2]!r}, expected mdeg_decay = {decay}"
        return None
    return check


def expect_file(path: Path, obj: dict, lines: list[str]) -> Check:
    plain = expect_lines(lines)

    def check(rc, out, err):
        reason = plain(rc, out, err)
        if reason:
            return reason
        written = json.loads(path.read_text())
        if written != obj:
            return f"wrote {written!r}, expected {obj!r}"
        return None
    return check


def gamma_lines(values: dict[int, object], ks) -> list[str]:
    return [f"gamma({k}) = {fmt(values[k])}" for k in ks]


def bounds_lines(lifts: list[Fraction]) -> list[str]:
    tau, tau_prime = inputs.spectral_bounds(lifts)
    return [f"tau_lb = {tau}", f"tau_prime_lb = {tau_prime}"]


# -- helpers to put inputs on disk -------------------------------------------

def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True))
    return str(path)


def identity_json(source: str, names: list[str]) -> dict:
    return {"source": source, "target": source, "c": 1,
            "phi": [{"from": g, "to": g, "terms": [{"coeff": "1", "exp": "0"}]}
                    for g in sorted(names)],
            "mu": [], "delta1": [], "delta2": []}


def datum_jobs(path: str, gammas: dict, h: int, lifts: list[Fraction], sizes: dict,
               ks: list[int]) -> list[Job]:
    """validate, the Gamma profile, single Gamma values, h and bounds."""
    jobs = [
        Job(["validate", path], expect_lines(["validate: ok"]), sizes),
        Job(["gamma", path, "--range", "-4..4"],
            expect_lines(gamma_lines(gammas, range(-4, 5))), sizes),
    ]
    jobs += [Job(["gamma", path, "--k", str(k)], expect_lines(gamma_lines(gammas, [k])),
                 sizes) for k in ks]
    jobs.append(Job(["h", path], expect_lines([f"h = {h}"]), sizes))
    if lifts:
        jobs.append(Job(["bounds", path], expect_lines(bounds_lines(lifts)), sizes))
    return jobs


# -- invariants ----------------------------------------------------------------

# (family, ladder lengths, acyclic pairs): about 10, 25 and 50 generators
INVARIANT_SHAPES = (
    [("d1", [4, 2], 2), ("d2", [4, 2], 2)] * 4
    + [("d1", [4, 4, 4, 2, 2, 2], 3), ("d2", [4, 4, 4, 2, 2, 2], 3)]
    + [("d1", [4, 4, 4, 2, 2, 2], 3)]
    + [("d1", [4] * 8 + [2] * 3, 6), ("d2", [4] * 8 + [2] * 3, 6)]
)


def invariants(rng: Random, work: Path) -> Workload:
    jobs: list[Job] = []
    for name in ("sigma_2_3_5", "neg_sigma_2_3_5", "sigma_2_3_5_d1_zero",
                 "remark_nonpositive", "s3"):
        if name == "remark_nonpositive":
            gammas, h = REMARK_GAMMA, 0
        else:
            family, blocks = FIXTURE_LADDERS[name]
            lad = inputs.Ladders(None, family, blocks)
            gammas, h = {k: lad.gamma(k) for k in range(-4, 5)}, lad.h()
        lifts = FIXTURE_LIFTS[name]
        jobs += datum_jobs(name, gammas, h, lifts,
                           {"generators": len(lifts), "fixture": name}, [1, 0])
    jobs.append(Job(["bounds", "s3"], expect_refusal, {"generators": 0},
                    known_defect="bounds on a datum without generators raises ValueError"))

    corrupt_sources = []
    for i, (family, lengths, pairs) in enumerate(INVARIANT_SHAPES):
        lad = inputs.transformed(rng, family, lengths, pairs, f"inv{i}")
        sizes = inputs.datum_sizes(lad.datum)
        path = write_json(work / f"inv{i}.json", datum_to_json(lad.datum))
        gammas = {k: lad.gamma(k) for k in range(-4, 5)}
        lifts = [g.energy_lift for g in lad.datum.generators]
        jobs += datum_jobs(path, gammas, lad.h(), lifts, sizes,
                           [rng.randint(1, 4), rng.randint(-4, 0)])
        if i in (0, 9):
            corrupt_sources.append(lad.datum)
    for j, datum in enumerate(corrupt_sources):
        bad = inputs.corrupted(rng, datum, f"invbad{j}")
        path = write_json(work / f"invbad{j}.json", datum_to_json(bad))
        sizes = inputs.datum_sizes(bad)
        defect = "Gamma and h on a datum failing validate raise ValueError"
        for argv in (["gamma", path, "--k", "1"], ["gamma", path, "--range", "-4..4"],
                     ["h", path]):
            jobs.append(Job(argv, expect_refusal, sizes, known_defect=defect))
    return Workload("invariants", jobs)


# -- verifiers -----------------------------------------------------------------

VERIFIER_SHAPES = (
    [("d1", [2], 1), ("d2", [2], 1), ("d1", [2, 2], 1), ("d2", [2, 2], 1)] * 3
    + [("d1", [4, 2], 2), ("d2", [4, 2], 2)]
    + [("d1", [4, 4, 2], 3), ("d2", [4, 4, 4, 2], 4)]
)


def zero_map_datum(rng: Random, name: str) -> FloerDatum:
    gens = [Generator(f"z{i}", rng.randrange(8),
                      Fraction(rng.randint(-24, 24), rng.choice((2, 3, 4))))
            for i in range(rng.randint(2, 4))]
    return FloerDatum(name, gens, LambdaMatrix(), LambdaMatrix(), {}, {})


def trivial_cobordism_json(rng: Random, datum: FloerDatum, path: str) -> dict:
    """Random phi, mu, delta1, delta2 over a datum whose maps are all zero.

    Every chain-map identity has zero on both sides, so the verdict is ok
    by construction.
    """
    def term():
        return [{"coeff": str(rng.choice((-2, -1, 1, 2))),
                 "exp": str(Fraction(rng.randint(-12, 12), rng.choice((2, 3, 4))))}]
    phi, mu, delta1, delta2 = [], [], [], []
    for g in datum.generators:
        for h in datum.generators:
            if g.grading == h.grading and rng.random() < 0.5:
                phi.append({"from": g.name, "to": h.name, "terms": term()})
            if (g.grading - 3) % 8 == h.grading and rng.random() < 0.5:
                mu.append({"from": g.name, "to": h.name, "terms": term()})
        if g.grading == 1 and rng.random() < 0.5:
            delta1.append({"from": g.name, "terms": term()})
        if g.grading == 4 and rng.random() < 0.5:
            delta2.append({"to": g.name, "terms": term()})
    return {"source": path, "target": path, "c": rng.randint(1, 4), "phi": phi,
            "mu": mu, "delta1": delta1, "delta2": delta2}


def verifiers(rng: Random, work: Path) -> Workload:
    jobs: list[Job] = []
    data = []
    for i, (family, lengths, pairs) in enumerate(VERIFIER_SHAPES):
        lad = inputs.transformed(rng, family, lengths, pairs, f"ver{i}")
        path = write_json(work / f"ver{i}.json", datum_to_json(lad.datum))
        data.append((lad, path, inputs.datum_sizes(lad.datum)))

    for i, (lad, path, sizes) in enumerate(data):
        jobs.append(Job(["triangle", path, "--window", "6,4"],
                        expect_lines(["triangle: ok"]), {**sizes, "window": "6,4"}))
        if sizes["generators"] <= 10:
            jobs.append(Job(["triangle", path, "--window", "8,6"],
                            expect_lines(["triangle: ok"]), {**sizes, "window": "8,6"}))

    # identity cobordisms: all identities hold, every map keeps mdeg
    for i, (lad, path, sizes) in enumerate(data):
        ident = write_json(work / f"ver{i}_id.json",
                           identity_json(path, lad.datum.names()))
        if sizes["generators"] <= 6 and i < 4:
            jobs.append(Job(["cobordism", "verify", ident, "--window", "6,4"],
                            expect_verify_ok("0"),
                            {**sizes, "window": "6,4"}))
        for lo, hi in ((-2, 2), (1, 3))[:1 + i % 2]:
            compare = [f"compare({k}) = source {fmt(lad.gamma(k))} target "
                       f"{fmt(lad.gamma(k))} ok" for k in range(lo, hi + 1)]
            jobs.append(Job(["cobordism", "gamma-compare", ident, "--range", f"{lo}..{hi}"],
                            expect_lines(compare + ["nonincreasing = yes", "eta_lb = 0"]),
                            sizes))
        out = work / f"ver{i}_twice.json"
        jobs.append(Job(["cobordism", "compose", ident, ident, "-o", str(out)],
                        expect_file(out, identity_json(lad.datum.name, lad.datum.names()),
                                    [f"written {out}"]), sizes))

    for i in range(4):
        datum = zero_map_datum(rng, f"zero{i}")
        path = write_json(work / f"zero{i}.json", datum_to_json(datum))
        cob = write_json(work / f"zero{i}_cob.json",
                         trivial_cobordism_json(rng, datum, path))
        jobs.append(Job(["cobordism", "verify", cob, "--window", "6,4"],
                        expect_verify_ok(),
                        {"generators": len(datum.generators), "window": "6,4"}))

    fixture = "delta1_sigma_2_3_5_to_s3"
    jobs.append(Job(["cobordism", "verify", fixture, "--window", "6,4"],
                    expect_verify_ok(), {"fixture": fixture}))
    compare = [f"compare({k}) = source {v} target {v} ok"
               for k, v in ((-1, "0"), (0, "0"), (1, "inf"), (2, "inf"))]
    jobs.append(Job(["cobordism", "gamma-compare", fixture, "--range", "-1..2"],
                    expect_lines(compare + ["nonincreasing = yes", "eta_lb = n/a"]),
                    {"fixture": fixture}))
    s3_id = write_json(work / "s3_id.json", identity_json("s3", []))
    out = work / "fixture_then_id.json"
    composed = {"source": "sigma_2_3_5_d1_zero", "target": "s3", "c": 1, "phi": [],
                "mu": [], "delta2": [],
                "delta1": [{"from": "alpha", "terms": [{"coeff": "1", "exp": "1/120"}]}]}
    jobs.append(Job(["cobordism", "compose", fixture, s3_id, "-o", str(out)],
                    expect_file(out, composed, [f"written {out}"]), {"fixture": fixture}))

    # negative controls: about one job in six, each with exit 1 expected
    for i, (lad, path, sizes) in enumerate(data):
        bad = inputs.corrupted(rng, lad.datum, f"verbad{i}")
        bad_path = write_json(work / f"verbad{i}.json", datum_to_json(bad))
        bad_sizes = inputs.datum_sizes(bad)
        window = "6,4" if i % 2 else "3,1"
        jobs.append(Job(["triangle", bad_path, "--window", window],
                        expect_verdict_failure("triangle: "),
                        {**bad_sizes, "window": window}, negative_control=True))
        if i < 2:
            wrong_c = identity_json(path, lad.datum.names()) | {"c": 2}
            cob = write_json(work / f"ver{i}_wrong_c.json", wrong_c)
            jobs.append(Job(["cobordism", "verify", cob, "--window", "6,4"],
                            expect_verdict_failure("tilde: identity ("),
                            {**sizes, "window": "6,4"}, negative_control=True))
        if i in (0, 1):
            jobs.append(Job(["triangle", bad_path, "--window", "2,1"],
                            expect_nonzero_exit, {**bad_sizes, "window": "2,1"},
                            known_defect="triangle at window 2,1 passes an invalid datum"))
    return Workload("verifiers", jobs)


# -- calculators ---------------------------------------------------------------

def coprime(values) -> bool:
    return all(math.gcd(x, y) == 1 for x, y in itertools.combinations(values, 2))


def orbit_tuples(rng: Random, sums: list[int]) -> list[tuple[int, ...]]:
    """Pairwise-coprime tuples with the given entry sums, alternately of 3 and 4.

    The cotangent sum does about sum(a) - len(a) evaluations, so the sum
    fixes a job's cost and the seed only picks the entries.
    """
    out: list[tuple[int, ...]] = []
    for i, total in enumerate(sums):
        size = 4 if i % 3 == 2 else 3
        total += size == 4 and total % 2 == 0  # four coprime entries have an odd sum
        for _ in range(100_000):
            head = rng.sample(range(2, total // 2), size - 1)
            t = tuple(sorted(head + [total - sum(head)]))
            if t[0] >= 2 and len(set(t)) == size and coprime(t):
                out.append(t)
                break
        else:
            raise RuntimeError(f"no coprime {size}-tuple with sum {total}")
    return out


def seifert_r_check(a: tuple[int, ...]) -> Check:
    r, b, betas = inputs.r_closed_form(a)
    head = [f"R = {r}", f"b = {b}", f"beta = {','.join(map(str, betas))}"]
    prod = math.prod(a)

    def check(rc, out, err):
        lines = out.splitlines()
        if rc != 0 or lines[:3] != head or len(lines) != 4:
            return f"exit {rc}, printed {lines!r}, expected {head!r} and b_tuple"
        tup = [int(x) for x in lines[3].removeprefix("b_tuple = ").split(",")]
        if sum(Fraction(x, ai) for x, ai in zip(tup, a)) != Fraction(1, prod):
            return f"b_tuple {tup} does not sum to 1/{prod}"
        for x, ai, beta in zip(tup[1:], a[1:], betas[1:]):
            if (x + beta) % ai or not -ai < 2 * x <= ai:
                return f"b_tuple entry {x} is not the least residue of -{beta} mod {ai}"
        return None
    return check


def cartan_gram(n: int, edges) -> list[list[int]]:
    g = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in edges:
        g[a][b] = g[b][a] = 1
    return g


def root_lattices():
    """(name, Gram, Dynkin path, number of roots) for E8, A_n and D_n."""
    e8 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]
    yield "E8", cartan_gram(8, e8), [0, 1, 2, 3, 4, 5, 6], 240
    for n in (3, 5, 7, 8):
        yield f"A{n}", cartan_gram(n, [(i, i + 1) for i in range(n - 1)]), \
            list(range(n)), n * (n + 1)
    for n in (4, 6, 8):
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
        yield f"D{n}", cartan_gram(n, edges), list(range(n - 1)), 2 * n * (n - 1)


def random_gram(rng: Random, n: int) -> list[list[int]]:
    """Strictly diagonally dominant, so negative definite; an even diagonal
    makes every norm even, so the even signed sum applies."""
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = rng.choice((-1, 0, 0, 1))
    for i in range(n):
        diagonal = sum(abs(x) for x in g[i]) + rng.randint(1, 3)
        g[i][i] = -(diagonal + diagonal % 2)
    return g


def brute_force_lattice(g: list[list[int]]):
    """(m, vectors of norm m) by scanning the box that -Q(v) >= sum delta_i v_i^2 allows."""
    n = len(g)
    delta = [-g[i][i] - sum(abs(g[i][j]) for j in range(n) if j != i) for i in range(n)]
    top = min(-g[i][i] for i in range(n))
    radius = [math.isqrt(top // d) for d in delta]
    norms = {}
    for v in itertools.product(*(range(-r, r + 1) for r in radius)):
        if any(v):
            norms[v] = -sum(v[i] * g[i][j] * v[j] for i in range(n) for j in range(n))
    m = min(norms.values())
    return m, [v for v, q in norms.items() if q == m], norms


def signed_sum_brute(g, e, norms) -> int:
    def q(v):
        return sum(v[i] * g[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))
    total = 0
    for v, norm in norms.items():
        lead = next(x for x in v if x)
        if lead > 0 and norm == -q(e) and all((x - y) % 2 == 0 for x, y in zip(v, e)):
            total += -1 if q([(x + y) // 2 for x, y in zip(e, v)]) % 2 else 1
    return total


def lattice_lines(m: int, count: int) -> list[str]:
    """Output for an even lattice, whose minimal norm m is at least 2."""
    return [f"m = {m}", f"minimal_vectors = {count}", f"bound = {Fraction(m, 4)}",
            f"range_max = {m // 2}"]


def _shear_int(mat: dict, g: str, h: str, c: int) -> dict:
    """The integer boundary rewritten in the basis with g' = g + c h."""
    def apply(vec):
        out: dict[str, int] = {}
        for (src, dst), coeff in mat.items():
            if vec.get(src):
                out[dst] = out.get(dst, 0) + vec[src] * coeff
        return out

    srcs = {src for src, _ in mat} | {g}
    out = {}
    for src in srcs:
        image = apply({src: 1, h: c} if src == g else {src: 1})
        if g in image:
            image[h] = image.get(h, 0) - c * image[g]
        out.update({(src, dst): v for dst, v in image.items() if v})
    return out


def morse_complex(rng: Random, name: str):
    """A Morse complex, a class on it and the class's min-max value.

    Essential generators carry the homology and pairs x -> y cancel, so a
    class made of essentials plus a boundary takes the largest value among
    its essentials.  Integer shears that add a lower-valued generator of the
    same index keep every value and hence the answer.
    """
    values = [Fraction(v, 4) for v in rng.sample(range(1, 400), 30)]
    gens = [(f"e{i}", rng.randint(0, 2), values.pop()) for i in range(4)]
    essentials = list(gens)
    bdry: dict[tuple[str, str], int] = {}
    for i in range(6):
        idx = rng.randint(0, 2)
        vx, vy = sorted((values.pop(), values.pop()), reverse=True)
        gens += [(f"x{i}", idx + 1, vx), (f"y{i}", idx, vy)]
        bdry[(f"x{i}", f"y{i}")] = rng.choice((-1, 1))
    index = {nm: ix for nm, ix, _ in gens}
    value = {nm: v for nm, _, v in gens}

    cls_index = rng.choice([ix for _, ix, _ in essentials])
    chosen = [nm for nm, ix, _ in essentials if ix == cls_index]
    chosen = rng.sample(chosen, rng.randint(1, len(chosen)))
    sigma = {nm: rng.choice((-2, -1, 1, 2)) for nm in chosen}
    for (src, dst), coeff in bdry.items():
        if index[src] == cls_index + 1 and rng.random() < 0.7:
            sigma[dst] = sigma.get(dst, 0) + 3 * coeff
    expected = max(value[nm] for nm in chosen)

    names = [nm for nm, _, _ in gens]
    shears = 0
    while shears < 8:
        g, h = rng.sample(names, 2)
        if index[g] != index[h] or value[h] >= value[g]:
            continue
        shears += 1
        c = rng.choice((-1, 1, 2))
        bdry = _shear_int(bdry, g, h, c)
        if sigma.get(g):
            sigma[h] = sigma.get(h, 0) - c * sigma[g]
    obj = {"name": name,
           "generators": [{"name": nm, "index": ix, "value": str(v)} for nm, ix, v in gens],
           "boundary": [{"from": s, "to": d, "coeff": c} for (s, d), c in sorted(bdry.items())]}
    cls = ",".join(f"{nm}:{c}" for nm, c in sorted(sigma.items()) if c)
    return obj, cls, expected


def calculators(rng: Random, work: Path) -> Workload:
    jobs: list[Job] = []
    for a in orbit_tuples(rng, [20 + 5 * i for i in range(30)]):
        jobs.append(Job(["seifert", "r", *map(str, a)], seifert_r_check(a),
                        {"orbit": list(a), "product": math.prod(a)}))
    for bound in (90 + rng.randrange(10), 150 + rng.randrange(10), 210 + rng.randrange(10)):
        jobs.append(Job(["seifert", "sweep", "--max-product", str(bound)],
                        expect_lines([f"checked = {inputs.coprime_tuple_count(bound)}",
                                      "mismatches = 0"]), {"max_product": bound}))

    positive = [t for t in orbit_tuples(rng, [rng.randint(20, 60) for _ in range(80)])
                if inputs.r_closed_form(t)[0] > 0]
    for _ in range(10):
        spaces = rng.sample(positive, rng.randint(1, 3))
        if len({math.prod(t) for t in spaces}) < len(spaces):
            spaces = spaces[:1]
        top = max(spaces, key=math.prod)
        range_max = (inputs.r_closed_form(top)[0] + 3) // 4
        lines = [f"value = {Fraction(1, 4 * math.prod(top))}", f"range_max = {range_max}",
                 f"h_lower = {range_max // 2}", f"dominant = {','.join(map(str, top))}"]
        jobs.append(Job(["seifert", "gamma", *(",".join(map(str, t)) for t in spaces)],
                        expect_lines(lines), {"spaces": len(spaces)}))
    pairs = [(p, q) for p in range(2, 14) for q in range(p + 1, 20) if math.gcd(p, q) == 1]
    for p, q in rng.sample(pairs, 10):
        pq = p * q
        low, mid, up = (Fraction(1, 4 * pq * (4 * pq - 1)), Fraction(1, 2 * pq * (4 * pq - 1)),
                        Fraction(1, 4 * pq * (2 * pq - 1)))
        jobs.append(Job(["seifert", "whitehead", str(p), str(q)],
                        expect_lines([f"lower = {low}", f"upper = {up}",
                                      f"candidates = {low},{mid},{up}"]), {"pq": pq}))

    for name, gram, path_nodes, roots in root_lattices():
        path = write_json(work / f"{name}.json", {"gram": gram})
        base = lattice_lines(2, roots)
        jobs.append(Job(["lattice", path], expect_lines(base), {"lattice": name}))
        for _ in range(2 if name == "E8" else 1):
            i, j = sorted(rng.sample(range(len(path_nodes) + 1), 2))
            e = [0] * len(gram)
            for node in path_nodes[i:j]:
                e[node] = 1
            # a connected run of simple roots sums to a root, alone in its class mod 2
            jobs.append(Job(["lattice", path, "--e", ",".join(map(str, e))],
                            expect_lines(base + ["Q(e) = -2", "signed_sum = 1", "n0 = 1",
                                                 "class_bound = 1/2"]),
                            {"lattice": name, "e": e}))
    for i in range(6):
        gram = random_gram(rng, 3 + i % 3)
        path = write_json(work / f"gram{i}.json", {"gram": gram})
        m, vecs, norms = brute_force_lattice(gram)
        base = lattice_lines(m, len(vecs))
        jobs.append(Job(["lattice", path], expect_lines(base), {"rank": len(gram)}))
        e = vecs[0]
        total = signed_sum_brute(gram, e, norms)
        tail = (["sum vanishes"] if total == 0 else
                [f"signed_sum = {total}", f"n0 = {m // 2}", f"class_bound = {Fraction(m, 4)}"])
        jobs.append(Job(["lattice", path, "--e", ",".join(map(str, e))],
                        expect_lines(base + [f"Q(e) = {-m}"] + tail),
                        {"rank": len(gram), "e": list(e)}))

    for i in range(30):
        obj, cls, expected = morse_complex(rng, f"morse{i}")
        path = write_json(work / f"morse{i}.json", obj)
        jobs.append(Job(["morse", "eval", path, "--class", cls],
                        expect_lines([f"f = {expected}"]),
                        {"generators": len(obj["generators"]),
                         "boundary_entries": len(obj["boundary"])}))
    return Workload("calculators", jobs)


BUILDERS = {"invariants": invariants, "verifiers": verifiers, "calculators": calculators}


def build(name: str, seed: int, work: Path) -> Workload:
    return BUILDERS[name](Random(f"{name}-{seed}"), work)
