"""Command-line entry point.

One subcommand per calculator; all output is deterministic and
line-oriented ("key = value"), rationals print as p/q, the infinite
value prints as "inf".  Exit codes: 0 success or verification pass,
1 verification failure (among them a gamma-compare row that violates the
bound, "nonincreasing = no"), 2 malformed input or a datum the
calculators refuse.  Every refusal is an InputError (the lattice, Seifert
and Morse refusals subclass it), apart from the two inconsistency errors
of the Gamma layer, and prints one "error:" line: among them a --window
or --range past its cap, a gamma-compare cobordism that is not a chain
map, a Gamma that needs more than gamma.ORBIT_CAP u-steps on a u-orbit
that has not ended by then, a Gamma(k >= 1) below 0, a lattice class
vector of the wrong length, a Seifert orbit tuple longer than
seifert.LENGTH_CAP, and a rational or int too long to print
(novikov.format_rat: text, --json and the file `cobordism compose` writes
all go through it, the file before it is opened).
The verifiers report a datum that fails validate as a failed
precondition, exit 1.  Input files are read by path, or else as the
bundled fixture of that name.  Every subcommand accepts --json for a
machine-readable object carrying the same values.  The parsers of the
command path an argv names are built once per process, on first use, and
reused by every later call on that path; the other commands appear only
in the root usage line.  Importing this runs novikov, _linalg,
floer_datum and gamma, whose names it binds (tests patch cli.gamma_profile
and cli.h_invariant); the handlers read cobordism, equivariant, lattice,
morse_minmax and seifert, which the package registers lazily, at call
time, so a command runs only the modules it uses.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import cobordism, equivariant, lattice, morse_minmax, seifert
from .floer_datum import InputError, load_datum, read_json, require_valid, validate
from .gamma import (
    DatumInconsistencyError,
    MonotonicityError,
    gamma_profile,
    h_invariant,
    tau_lower_bound,
    tau_prime_lower_bound,
)
from .novikov import INF, format_extrat, format_rat


def _jsonable(value):
    if isinstance(value, Fraction):
        return format_rat(value)
    if isinstance(value, int):
        format_rat(value)  # an int stays one, once it is known to print
        return value
    if value == INF:
        return "inf"
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _text(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(map(str, value))
    return format_extrat(value)


def _dumps(obj, **kwargs) -> str:
    """JSON text of `obj`, every rational and int in it refused by format_rat
    if too long to print."""
    return json.dumps(_jsonable(obj), sort_keys=True, **kwargs)


def _emit(args, payload: dict, lines: list[str] | None = None) -> None:
    """Print the payload as JSON, or else the lines; by default "key = value"
    per payload key."""
    if args.json:
        print(_dumps(payload))
        return
    if lines is None:
        lines = [f"{key} = {_text(value)}" for key, value in payload.items()]
    for line in lines:
        print(line)


# Caps on the two work axes of the command line, checked before any Gamma
# or identity is computed.  Times are whole processes on a 2-core VM with
# Python 3.11.
#
# WINDOW_CAP bounds T + N, in which the verifiers' work is linear: at the
# cap (W(1000, 1000) or W(1999, 1)) `triangle sigma_2_3_5` takes 0.3-0.4 s
# and `cobordism verify delta1_sigma_2_3_5_to_s3` 0.4-0.5 s.  RANGE_CAP bounds
# (B - A + 1) * max(1, generators), at most 5 µs of Gamma per unit:
# `gamma neg_sigma_2_3_5 --range -20000..20000` (80,002 units) takes
# 0.43-0.48 s, `gamma --range 1..201` on two 200-rung d1 ladders (80,400)
# 0.09-0.10 s, `cobordism gamma-compare --range 1..201` on the ladders'
# identity cobordism 0.11-0.15 s and `gamma --range -201..0` on their d2
# mirror (80,800) 0.19-0.24 s.
WINDOW_CAP = 2000
RANGE_CAP = 100_000


def _parse_window(text: str) -> equivariant.Window:
    try:
        t, n = text.split(",")
        window = equivariant.Window(int(t), int(n))
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad window {text!r}; expected T,N") from exc
    if window.T + window.N > WINDOW_CAP:
        raise InputError(f"window {text!r} has T + N above the cap {WINDOW_CAP}")
    return window


def _parse_range(text: str, *data) -> tuple[int, int]:
    """A..B, refused past RANGE_CAP units counted on the largest datum."""
    try:
        a, _, b = text.partition("..")
        lo, hi = int(a), int(b)
    except ValueError as exc:
        raise InputError(f"bad range {text!r}; expected A..B") from exc
    if lo > hi:
        raise InputError(f"bad range {text!r}; lower end exceeds upper end")
    units = (hi - lo + 1) * max([1] + [len(d.generators) for d in data])
    if units > RANGE_CAP:
        raise InputError(f"range {text!r} is {units} units of work (width times "
                         f"generators), above the cap {RANGE_CAP}")
    return lo, hi


def _parse_int_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad integer vector {text!r}") from exc


def _load_gram(path: str) -> lattice.LatticeData:
    obj = read_json(path, "lattice")
    if not isinstance(obj, dict) or set(obj) != {"gram"}:
        raise InputError('lattice file must be {"gram": [[...]]}')
    return lattice.LatticeData(obj["gram"])


# -- subcommand handlers -----------------------------------------------------

def _cmd_validate(args) -> int:
    rep = validate(load_datum(args.datum))
    lines = [f"validate: {'ok' if rep.ok else 'fail'}"] + rep.failures
    _emit(args, {"ok": rep.ok, "failures": rep.failures}, lines)
    return 0 if rep.ok else 1


def _cmd_gamma(args) -> int:
    datum = load_datum(args.datum)
    if (args.k is None) == (args.range is None):
        raise InputError("give exactly one of --k or --range")
    lo, hi = (args.k, args.k) if args.k is not None else _parse_range(args.range, datum)
    values = gamma_profile(datum, lo, hi)
    _emit(args, {"gamma": {str(k): v for k, v in values}},
          [f"gamma({k}) = {format_extrat(v)}" for k, v in values])
    return 0


def _cmd_h(args) -> int:
    _emit(args, {"h": h_invariant(load_datum(args.datum))})
    return 0


def _cmd_bounds(args) -> int:
    datum = require_valid(load_datum(args.datum))
    _emit(args, {"tau_lb": tau_lower_bound(datum), "tau_prime_lb": tau_prime_lower_bound(datum)})
    return 0


def _cmd_triangle(args) -> int:
    rep = equivariant.verify_triangle(load_datum(args.datum), _parse_window(args.window))
    _emit(args, {"ok": rep.ok, "failures": rep.failures},
          ["triangle: ok"] if rep.ok else [f"triangle: {rep.failures[0]}"])
    return 0 if rep.ok else 1


def _cmd_cobordism_verify(args) -> int:
    cob = cobordism.load_cobordism(args.cobordism)
    window = _parse_window(args.window)
    rep1 = cobordism.verify_tilde_chain_map(cob)
    lines = [f"tilde: {'ok' if rep1.ok else rep1.failures[0]}"]
    rep2 = decay = None
    if rep1.ok:
        rep2, decay = cobordism.functoriality_report(cob, window), cobordism.mdeg_decay(cob, window)
        lines += [f"functoriality: {'ok' if rep2.ok else rep2.failures[0]}",
                  f"mdeg_decay = {format_extrat(decay)}"]
    ok = rep1.ok and rep2.ok
    _emit(args, {
        "ok": ok,
        "tilde_failures": rep1.failures,
        "functoriality_failures": rep2.failures if rep2 else None,
        "mdeg_decay": decay,
    }, lines)
    return 0 if ok else 1


def _cmd_cobordism_compose(args) -> int:
    first = cobordism.load_cobordism(args.first)
    second = first if args.second == args.first else cobordism.load_cobordism(args.second)
    composed = cobordism.compose_tilde(first, second)
    text = _dumps(cobordism.cobordism_to_json(composed), indent=2) + "\n"
    try:
        with open(args.output, "w") as f:
            f.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.output}: {exc}") from exc
    _emit(args, {"written": args.output, "c": composed.c}, [f"written {args.output}"])
    return 0


def _cmd_cobordism_compare(args) -> int:
    cob = cobordism.load_cobordism(args.cobordism)
    lo, hi = _parse_range(args.range, cob.source, cob.target)
    require_valid(cob.source)
    require_valid(cob.target)
    rep = cobordism.verify_tilde_chain_map(cob)
    if not rep.ok:
        raise InputError(f"cobordism is not a chain map: {rep.failures[0]}")
    result = cobordism.gamma_comparison(cob, lo, hi)
    lines = [f"compare({row['k']}) = source {format_extrat(row['source'])} "
             f"target {format_extrat(row['target'])} {'ok' if row['ok'] else 'violated'}"
             for row in result["rows"]]
    lines.append(f"nonincreasing = {'yes' if result['nonincreasing'] else 'no'}")
    eta = result["eta_lower_bound"]
    lines.append(f"eta_lb = {format_extrat(eta) if eta is not None else 'n/a'}")
    _emit(args, result, lines)
    return 0 if result["nonincreasing"] else 1


def _cmd_seifert_r(args) -> int:
    inv = seifert.seifert_invariants(args.orbit)
    cot = seifert.r_invariant_cotangent(args.orbit)
    if cot != inv.r:
        print(f"cross-formula mismatch: closed {inv.r}, cotangent {cot}",
              file=sys.stderr)
        return 1
    _emit(args, {"R": inv.r, "b": inv.b, "beta": list(inv.beta_tuple),
                 "b_tuple": list(inv.b_tuple)})
    return 0


def _cmd_seifert_gamma(args) -> int:
    pred = seifert.gamma_prediction([_parse_int_vector(t) for t in args.tuples])
    _emit(args, {"value": pred.value, "range_max": pred.range_max,
                 "h_lower": pred.h_lower, "dominant": list(pred.dominant)})
    return 0


def _cmd_seifert_whitehead(args) -> int:
    _emit(args, seifert.whitehead_double_bounds(args.p, args.q))
    return 0


def _cmd_seifert_sweep(args) -> int:
    res = seifert.sweep(args.max_product)
    lines = [f"checked = {res['checked']}",
             f"mismatches = {len(res['mismatches'])}"]
    for t, exact, got in res["mismatches"]:
        lines.append(f"mismatch {','.join(map(str, t))}: closed {exact}, got {got}")
    _emit(args, {"checked": res["checked"],
                 "mismatches": [list(map(str, m)) for m in res["mismatches"]]}, lines)
    return 0 if not res["mismatches"] else 1


def _cmd_lattice(args) -> int:
    if args.e is None and (args.xi is not None or args.m is not None):
        raise InputError("--xi and --m need --e")
    lat = _load_gram(args.gram)
    m, vecs = lattice.minimal_vectors(lat)
    bounds = lattice.gamma_upper_bounds_from_lattice(lat)
    lines = [f"m = {_text(m)}", f"minimal_vectors = {_text(len(vecs))}"]
    payload: dict = {"m": m, "minimal_vectors": len(vecs)}
    if bounds is None:
        lines.append("no bound")
        payload["bound"] = None
    else:
        lines.append(f"bound = {_text(bounds['bound'])}")
        lines.append(f"range_max = {_text(bounds['range_max'])}")
        payload["bound"] = bounds["bound"]
        payload["range_max"] = bounds["range_max"]
    if args.e is not None:
        e = _parse_int_vector(args.e)
        xi = None if args.xi is None else _parse_int_vector(args.xi)
        res = lattice.bound_from_class(lat, e, xi, args.m)
        lines.append(f"Q(e) = {_text(lat.q(list(e)))}")
        payload["q_e"] = lat.q(list(e))
        if res is None:
            lines.append("sum vanishes")
            payload["class_bound"] = None
        else:
            lines.append(f"signed_sum = {_text(res['signed_sum'])}")
            lines.append(f"n0 = {_text(res['n0'])}")
            lines.append(f"class_bound = {_text(res['bound'])}")
            payload["class_bound"] = res
    _emit(args, payload, lines)
    return 0


def _cmd_morse_eval(args) -> int:
    _emit(args, {"f": morse_minmax.evaluate_class(morse_minmax.load_morse(args.complex),
                                                  morse_minmax.parse_class(getattr(args, "class")))})
    return 0


def _arg(*names, **kwargs) -> tuple:
    return names, kwargs


_DATUM = _arg("datum")
_WINDOW = _arg("--window", required=True, metavar="T,N")

# One entry per parser below the root: (command path, help, handler,
# arguments).  An entry without a handler is a group whose subcommands
# follow it; every command also takes --json, after its own arguments.
COMMANDS = (
    (("validate",), "validate a datum file", _cmd_validate, [_DATUM]),
    (("gamma",), "evaluate the invariant", _cmd_gamma,
     [_DATUM, _arg("--k", type=int), _arg("--range", metavar="A..B")]),
    (("h",), "the h-invariant", _cmd_h, [_DATUM]),
    (("bounds",), "arithmetic spectral lower bounds", _cmd_bounds, [_DATUM]),
    (("triangle",), "verify the equivariant exact triangle", _cmd_triangle,
     [_DATUM, _WINDOW]),
    (("cobordism",), "cobordism map operations", None, []),
    (("cobordism", "verify"), "verify chain-map and functoriality identities",
     _cmd_cobordism_verify, [_arg("cobordism"), _WINDOW]),
    (("cobordism", "compose"), "compose two cobordism data", _cmd_cobordism_compose,
     [_arg("first"), _arg("second"), _arg("-o", "--output", required=True)]),
    (("cobordism", "gamma-compare"), "compare the invariant across a cobordism",
     _cmd_cobordism_compare,
     [_arg("cobordism"), _arg("--range", required=True, metavar="A..B")]),
    (("seifert",), "Seifert orbit calculators", None, []),
    (("seifert", "r"), "R-invariant and orbit data", _cmd_seifert_r,
     [_arg("orbit", type=int, nargs="+", metavar="A")]),
    (("seifert", "gamma"), "invariant prediction for a connected sum", _cmd_seifert_gamma,
     [_arg("tuples", nargs="+", metavar="A1,A2,...")]),
    (("seifert", "whitehead"), "bounds for Whitehead doubles of torus knots",
     _cmd_seifert_whitehead, [_arg("p", type=int), _arg("q", type=int)]),
    (("seifert", "sweep"), "cross-formula audit over bounded orbit tuples",
     _cmd_seifert_sweep, [_arg("--max-product", type=int, default=2000)]),
    (("lattice",), "negative-definite lattice bounds", _cmd_lattice,
     [_arg("gram"), _arg("--e", metavar="V1,V2,..."), _arg("--xi", metavar="W1,W2,..."),
      _arg("--m", type=int)]),
    (("morse",), "Morse complex evaluation", None, []),
    (("morse", "eval"), "min-max value of a homology class", _cmd_morse_eval,
     [_arg("complex"), _arg("--class", required=True, dest="class")]),
)


def _command_path(argv) -> tuple[str, ...]:
    """argv's leading tokens, at most two, that name a command or group."""
    known, path = {cmd for cmd, *_ in COMMANDS}, ()
    for token in argv[:2]:
        if path + (token,) not in known:
            break
        path += (token,)
    return path


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The floergamma parser, with arguments only along argv's command path.

    The path is `_command_path(argv)`; only the COMMANDS entries agreeing
    with it on their common prefix get parsers.  The other top-level
    commands appear only in the root's usage metavar, the text argparse
    would format from the whole tree's choices, so usage lines read as from
    the whole tree.  An argv
    that names no command (the default) builds the whole tree and sets no
    metavar: argparse names the action by its metavar in a choice error
    ("argument command: invalid choice").
    """
    path = _command_path(argv)
    parser = argparse.ArgumentParser(
        prog="floergamma",
        description="Exact calculators for chain-level homology cobordism invariants",
    )
    top = ",".join(cmd[0] for cmd, *_ in COMMANDS if len(cmd) == 1)
    groups = {(): parser.add_subparsers(dest="command", required=True,
                                        metavar="{%s}" % top if path else None)}
    for cmd, help_, func, arguments in COMMANDS:
        if cmd[:len(path)] != path[:len(cmd)]:
            continue
        p = groups[cmd[:-1]].add_parser(cmd[-1], help=help_)
        if func is None:
            groups[cmd] = p.add_subparsers(dest="subcommand", required=True)
            continue
        for names, kwargs in arguments:
            p.add_argument(*names, **kwargs)
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON object")
        p.set_defaults(func=func)
    return parser


@functools.cache
def _parser(path: tuple[str, ...]) -> argparse.ArgumentParser:
    """build_parser's parser for a command path, built on first use and
    reused: parse_args leaves a parser as it was, and usage and help are
    formatted and written when printed."""
    return build_parser(path)


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
    argv = _merge_dashed_values(list(argv))
    args = _parser(_command_path(argv)).parse_args(argv)
    try:
        return args.func(args)
    except (InputError, DatumInconsistencyError, MonotonicityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
