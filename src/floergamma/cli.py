"""Command-line entry point.

One subcommand per calculator; all output is deterministic and
line-oriented ("key = value"), rationals print as p/q, the infinite
value prints as "inf".  Exit codes: 0 success or verification pass,
1 verification failure, 2 malformed input or a datum the calculators
refuse.  Every refusal is an InputError (the lattice, Seifert and Morse
refusals subclass it), apart from the two inconsistency errors of the
Gamma layer, and prints one "error:" line.  The verifiers report a datum
that fails validate as a failed precondition, exit 1.  Input files are
read by path, or else as the bundled fixture of that name.  Every
subcommand accepts --json for a machine-readable object carrying the
same values.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .cobordism import (
    cobordism_to_json,
    compose_tilde,
    functoriality_report,
    gamma_comparison,
    load_cobordism,
    mdeg_decay,
    verify_tilde_chain_map,
)
from .equivariant import Window, verify_triangle
from .floer_datum import InputError, load_datum, read_json, validate
from .gamma import (
    DatumInconsistencyError,
    MonotonicityError,
    gamma,
    gamma_profile,
    h_invariant,
    tau_lower_bound,
    tau_prime_lower_bound,
)
from .lattice import (
    LatticeData,
    bound_from_class,
    gamma_upper_bounds_from_lattice,
    minimal_vectors,
)
from .morse_minmax import evaluate_class, load_morse, parse_class
from .novikov import INF, format_extrat
from .seifert import (
    gamma_prediction,
    r_invariant_cotangent,
    seifert_invariants,
    sweep,
    whitehead_double_bounds,
)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if value == INF:
        return "inf"
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(args, lines: list[str], payload: dict) -> None:
    if args.json:
        print(json.dumps(_jsonable(payload), sort_keys=True))
    else:
        for line in lines:
            print(line)


def _parse_window(text: str) -> Window:
    try:
        t, n = text.split(",")
        return Window(int(t), int(n))
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad window {text!r}; expected T,N") from exc


def _parse_range(text: str) -> tuple[int, int]:
    try:
        a, _, b = text.partition("..")
        lo, hi = int(a), int(b)
    except ValueError as exc:
        raise InputError(f"bad range {text!r}; expected A..B") from exc
    if lo > hi:
        raise InputError(f"bad range {text!r}; lower end exceeds upper end")
    return lo, hi


def _parse_int_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad integer vector {text!r}") from exc


def _load_gram(path: str) -> LatticeData:
    obj = read_json(path, "lattice")
    if not isinstance(obj, dict) or set(obj) != {"gram"}:
        raise InputError('lattice file must be {"gram": [[...]]}')
    return LatticeData(obj["gram"])


# -- subcommand handlers -----------------------------------------------------

def _cmd_validate(args) -> int:
    datum = load_datum(args.datum)
    rep = validate(datum)
    lines = [f"validate: {'ok' if rep.ok else 'fail'}"] + rep.failures
    _emit(args, lines, {"ok": rep.ok, "failures": rep.failures})
    return 0 if rep.ok else 1


def _cmd_gamma(args) -> int:
    datum = load_datum(args.datum)
    if (args.k is None) == (args.range is None):
        raise InputError("give exactly one of --k or --range")
    if args.k is not None:
        values = [(args.k, gamma(datum, args.k))]
    else:
        values = gamma_profile(datum, *_parse_range(args.range))
    lines = [f"gamma({k}) = {format_extrat(v)}" for k, v in values]
    _emit(args, lines, {"gamma": {str(k): v for k, v in values}})
    return 0


def _cmd_h(args) -> int:
    datum = load_datum(args.datum)
    h = h_invariant(datum)
    _emit(args, [f"h = {h}"], {"h": h})
    return 0


def _cmd_bounds(args) -> int:
    datum = load_datum(args.datum)
    tau = tau_lower_bound(datum)
    tau_prime = tau_prime_lower_bound(datum)
    lines = [f"tau_lb = {tau}", f"tau_prime_lb = {tau_prime}"]
    _emit(args, lines, {"tau_lb": tau, "tau_prime_lb": tau_prime})
    return 0


def _cmd_triangle(args) -> int:
    datum = load_datum(args.datum)
    rep = verify_triangle(datum, _parse_window(args.window))
    lines = ["triangle: ok"] if rep.ok else [f"triangle: {rep.failures[0]}"]
    _emit(args, lines, {"ok": rep.ok, "failures": rep.failures})
    return 0 if rep.ok else 1


def _cmd_cobordism_verify(args) -> int:
    cob = load_cobordism(args.cobordism)
    window = _parse_window(args.window)
    rep1 = verify_tilde_chain_map(cob)
    rep2 = functoriality_report(cob, window) if rep1.ok else None
    decay = mdeg_decay(cob, window) if rep1.ok else None
    ok = rep1.ok and rep2 is not None and rep2.ok
    lines = [f"tilde: {'ok' if rep1.ok else rep1.failures[0]}"]
    if rep2 is not None:
        lines.append(f"functoriality: {'ok' if rep2.ok else rep2.failures[0]}")
    if decay is not None:
        lines.append(f"mdeg_decay = {format_extrat(decay)}")
    _emit(args, lines, {
        "ok": ok,
        "tilde_failures": rep1.failures,
        "functoriality_failures": rep2.failures if rep2 else None,
        "mdeg_decay": decay,
    })
    return 0 if ok else 1


def _cmd_cobordism_compose(args) -> int:
    first = load_cobordism(args.first)
    second = load_cobordism(args.second)
    composed = compose_tilde(first, second)
    obj = cobordism_to_json(composed)
    try:
        Path(args.output).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {args.output}: {exc}") from exc
    _emit(args, [f"written {args.output}"], {"written": args.output, "c": composed.c})
    return 0


def _cmd_cobordism_compare(args) -> int:
    cob = load_cobordism(args.cobordism)
    lo, hi = _parse_range(args.range)
    result = gamma_comparison(cob, lo, hi)
    lines = []
    for row in result["rows"]:
        lines.append(
            f"compare({row['k']}) = source {format_extrat(row['source'])} "
            f"target {format_extrat(row['target'])} "
            f"{'ok' if row['ok'] else 'violated'}")
    lines.append(f"nonincreasing = {'yes' if result['nonincreasing'] else 'no'}")
    eta = result["eta_lower_bound"]
    lines.append(f"eta_lb = {format_extrat(eta) if eta is not None else 'n/a'}")
    _emit(args, lines, result)
    return 0


def _cmd_seifert_r(args) -> int:
    inv = seifert_invariants(args.orbit)
    cot = r_invariant_cotangent(args.orbit)
    if cot != inv.r:
        print(f"cross-formula mismatch: closed {inv.r}, cotangent {cot}",
              file=sys.stderr)
        return 1
    lines = [
        f"R = {inv.r}",
        f"b = {inv.b}",
        f"beta = {','.join(map(str, inv.beta_tuple))}",
        f"b_tuple = {','.join(map(str, inv.b_tuple))}",
    ]
    _emit(args, lines, {"R": inv.r, "b": inv.b, "beta": list(inv.beta_tuple),
                        "b_tuple": list(inv.b_tuple)})
    return 0


def _cmd_seifert_gamma(args) -> int:
    pred = gamma_prediction([_parse_int_vector(t) for t in args.tuples])
    lines = [
        f"value = {pred.value}",
        f"range_max = {pred.range_max}",
        f"h_lower = {pred.h_lower}",
        f"dominant = {','.join(map(str, pred.dominant))}",
    ]
    _emit(args, lines, {"value": pred.value, "range_max": pred.range_max,
                        "h_lower": pred.h_lower, "dominant": list(pred.dominant)})
    return 0


def _cmd_seifert_whitehead(args) -> int:
    res = whitehead_double_bounds(args.p, args.q)
    lines = [
        f"lower = {res['lower']}",
        f"upper = {res['upper']}",
        f"candidates = {','.join(str(c) for c in res['candidates'])}",
    ]
    _emit(args, lines, res)
    return 0


def _cmd_seifert_sweep(args) -> int:
    res = sweep(args.max_product)
    lines = [f"checked = {res['checked']}",
             f"mismatches = {len(res['mismatches'])}"]
    for t, exact, got in res["mismatches"]:
        lines.append(f"mismatch {','.join(map(str, t))}: closed {exact}, got {got}")
    _emit(args, lines, {"checked": res["checked"],
                        "mismatches": [list(map(str, m)) for m in res["mismatches"]]})
    return 0 if not res["mismatches"] else 1


def _cmd_lattice(args) -> int:
    if args.e is None and (args.xi is not None or args.m is not None):
        raise InputError("--xi and --m need --e")
    lattice = _load_gram(args.gram)
    m, vecs = minimal_vectors(lattice)
    bounds = gamma_upper_bounds_from_lattice(lattice)
    lines = [f"m = {m}", f"minimal_vectors = {len(vecs)}"]
    payload: dict = {"m": m, "minimal_vectors": len(vecs)}
    if bounds is None:
        lines.append("no bound")
        payload["bound"] = None
    else:
        lines.append(f"bound = {bounds['bound']}")
        lines.append(f"range_max = {bounds['range_max']}")
        payload["bound"] = bounds["bound"]
        payload["range_max"] = bounds["range_max"]
    if args.e is not None:
        e = _parse_int_vector(args.e)
        if len(e) != lattice.rank:
            raise InputError("--e has wrong length")
        if (args.xi is None) != (args.m is None):
            raise InputError("--xi and --m must be given together")
        if args.xi is not None:
            res = bound_from_class(lattice, e, _parse_int_vector(args.xi), args.m)
        else:
            res = bound_from_class(lattice, e)
        lines.append(f"Q(e) = {lattice.q(list(e))}")
        payload["q_e"] = lattice.q(list(e))
        if res is None:
            lines.append("sum vanishes")
            payload["class_bound"] = None
        else:
            lines.append(f"signed_sum = {res['signed_sum']}")
            lines.append(f"n0 = {res['n0']}")
            lines.append(f"class_bound = {res['bound']}")
            payload["class_bound"] = res
    _emit(args, lines, payload)
    return 0


def _cmd_morse_eval(args) -> int:
    complex_ = load_morse(args.complex)
    chain = parse_class(getattr(args, "class"))
    value = evaluate_class(complex_, chain)
    _emit(args, [f"f = {value}"], {"f": value})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floergamma",
        description="Exact calculators for chain-level homology cobordism invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON object")

    p = sub.add_parser("validate", help="validate a datum file")
    p.add_argument("datum")
    add_json(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gamma", help="evaluate the invariant")
    p.add_argument("datum")
    p.add_argument("--k", type=int)
    p.add_argument("--range", metavar="A..B")
    add_json(p)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("h", help="the h-invariant")
    p.add_argument("datum")
    add_json(p)
    p.set_defaults(func=_cmd_h)

    p = sub.add_parser("bounds", help="arithmetic spectral lower bounds")
    p.add_argument("datum")
    add_json(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("triangle", help="verify the equivariant exact triangle")
    p.add_argument("datum")
    p.add_argument("--window", required=True, metavar="T,N")
    add_json(p)
    p.set_defaults(func=_cmd_triangle)

    cob = sub.add_parser("cobordism", help="cobordism map operations")
    cob_sub = cob.add_subparsers(dest="subcommand", required=True)

    p = cob_sub.add_parser("verify", help="verify chain-map and functoriality identities")
    p.add_argument("cobordism")
    p.add_argument("--window", required=True, metavar="T,N")
    add_json(p)
    p.set_defaults(func=_cmd_cobordism_verify)

    p = cob_sub.add_parser("compose", help="compose two cobordism data")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_cobordism_compose)

    p = cob_sub.add_parser("gamma-compare", help="compare the invariant across a cobordism")
    p.add_argument("cobordism")
    p.add_argument("--range", required=True, metavar="A..B")
    add_json(p)
    p.set_defaults(func=_cmd_cobordism_compare)

    sei = sub.add_parser("seifert", help="Seifert orbit calculators")
    sei_sub = sei.add_subparsers(dest="subcommand", required=True)

    p = sei_sub.add_parser("r", help="R-invariant and orbit data")
    p.add_argument("orbit", type=int, nargs="+", metavar="A")
    add_json(p)
    p.set_defaults(func=_cmd_seifert_r)

    p = sei_sub.add_parser("gamma", help="invariant prediction for a connected sum")
    p.add_argument("tuples", nargs="+", metavar="A1,A2,...")
    add_json(p)
    p.set_defaults(func=_cmd_seifert_gamma)

    p = sei_sub.add_parser("whitehead", help="bounds for Whitehead doubles of torus knots")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    add_json(p)
    p.set_defaults(func=_cmd_seifert_whitehead)

    p = sei_sub.add_parser("sweep", help="cross-formula audit over bounded orbit tuples")
    p.add_argument("--max-product", type=int, default=2000)
    add_json(p)
    p.set_defaults(func=_cmd_seifert_sweep)

    p = sub.add_parser("lattice", help="negative-definite lattice bounds")
    p.add_argument("gram")
    p.add_argument("--e", metavar="V1,V2,...")
    p.add_argument("--xi", metavar="W1,W2,...")
    p.add_argument("--m", type=int)
    add_json(p)
    p.set_defaults(func=_cmd_lattice)

    mor = sub.add_parser("morse", help="Morse complex evaluation")
    mor_sub = mor.add_subparsers(dest="subcommand", required=True)
    p = mor_sub.add_parser("eval", help="min-max value of a homology class")
    p.add_argument("complex")
    p.add_argument("--class", required=True, dest="class")
    add_json(p)
    p.set_defaults(func=_cmd_morse_eval)

    return parser


def _merge_dashed_values(argv: list[str]) -> list[str]:
    # argparse rejects option values like "-2..3"; fold them into --flag=value
    merged = []
    folds = {"--range", "--e", "--xi", "--class", "--k", "--m"}
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in folds and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_merge_dashed_values(list(argv)))
    try:
        return args.func(args)
    except (InputError, DatumInconsistencyError, MonotonicityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
