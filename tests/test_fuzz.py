"""A seeded, bounded mutation fuzzer of the command line.

The inputs are the bundled fixtures and identity and trivial cobordisms,
each mutated one to three times: a value swapped for one of another type,
a key or an entry deleted, an unknown key added, an entry repeated, or a
value replaced by a huge or odd spelling.  Each mutant goes through
`validate` or the `cobordism` verify, gamma-compare and compose commands,
and each datum mutant of a second run through `triangle`, `h`, `bounds`
and `gamma`, under a 5 s alarm.  A third run mutates the Gram files of
E8, A3 and -I_4 the same way and gives `lattice` --e, --xi and --m values
that are huge, odd or of the wrong length.  No exception may escape
`cli.main`, and every exit code must be 0 ok, 1 verification failed or
2 refused.
"""

import contextlib
import copy
import io
import json
import signal
from random import Random

from floergamma.cli import main
from floergamma.cobordism import cobordism_to_json
from floergamma.floer_datum import datum_to_json, load_datum

from datagen import bundled_fixtures, identity_cobordism, random_trivial_cobordism, zero_map_datum
from test_lattice import e8_gram

JOBS = 500
DATUM_JOBS = 200
LATTICE_JOBS = 200
SECONDS = 5
SWAPS = (0, -7, 1.5, "x", "", [], {}, None, True, ["a"], {"k": "1"})
# huge or odd spellings, refused or read: "2/4", " 1 " and "1e0" are rationals
ODD = ("1/0", "0/0", "nan", "inf", "-0", "1e99999999", "9" * 5000, "1/" + "3" * 4301,
       "1/3/4", "½", "0x10", "a->b", ".", 10 ** 50, -1, 2 ** 63,
       "2/4", " 1 ", "1e0", "1_0", "+3", "-1/2", "0.5", "7", "0")
# (Gram matrix, a class vector e minimal in its class)
GRAMS = ((e8_gram(), "0,0,1,1,1,1,0,0"),
         ([[-2, 1, 0], [1, -2, 1], [0, 1, -2]], "1,0,1"),
         ([[-(i == j) for j in range(4)] for i in range(4)], "1,1,0,0"))
# entries of --e and --xi, and values of --m: huge, odd or plain
ENTRIES = ("0", "1", "-1", "2", "3", "5", "-0", "+1", " 2", "1e3", "", "x", "½",
           str(10 ** 50), "9" * 2500, "9" * 5000)
M_VALUES = ("0", "1", "2", "3", "4", "-1", "1000", "100000", "10000000", str(10 ** 50),
            "9" * 4300, "9" * 5000, "x", "1e5", "", "0x10")


def nodes(obj, path=()):
    """(path, value) of obj and of everything inside it, depth first."""
    yield path, obj
    inner = obj if isinstance(obj, list) else ()
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(inner):
        yield from nodes(value, path + (key,))


def mutated(rng: Random, obj):
    obj = copy.deepcopy(obj)
    for _ in range(rng.choice((1, 1, 2, 3))):
        path, node = rng.choice(list(nodes(obj)))
        # respellings come twice as often: they are the likeliest to pass the reader
        kind = rng.choice(("swap", "delete", "unknown", "repeat", "odd", "odd"))
        if kind == "delete" and node and isinstance(node, (dict, list)):
            key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
            del node[key]
        elif kind == "unknown" and isinstance(node, dict):
            node["bogus"] = copy.deepcopy(rng.choice(SWAPS))
        elif kind == "repeat" and node and isinstance(node, list):
            node.insert(rng.randrange(len(node) + 1), copy.deepcopy(rng.choice(node)))
        elif path:
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = copy.deepcopy(rng.choice(ODD if kind == "odd" else SWAPS))
        else:
            obj = copy.deepcopy(rng.choice(SWAPS))
    return obj


def inputs(rng: Random, tmp_path):
    """(data, cobordisms): the JSON of fixtures and generated cobordisms, whose
    ends name fixtures or files under tmp_path."""
    fixtures = bundled_fixtures()
    data = [obj for _, obj in fixtures if "source" not in obj]
    cobordisms = [obj for _, obj in fixtures if "source" in obj]
    for name, obj in fixtures:
        if "source" not in obj:
            cob = cobordism_to_json(identity_cobordism(load_datum(name)))
            cobordisms.append({**cob, "source": name, "target": name})
    for i in range(4):
        datum = zero_map_datum(rng, name=f"blank{i}")
        path = tmp_path / f"blank{i}.json"
        path.write_text(json.dumps(datum_to_json(datum)))
        data.append(datum_to_json(datum))
        cob = cobordism_to_json(random_trivial_cobordism(rng, datum))
        cobordisms.append({**cob, "source": str(path), "target": str(path)})
    return data, cobordisms


class Overran(Exception):
    pass


def _overran(signum, frame):
    raise Overran


@contextlib.contextmanager
def alarmed():
    previous = signal.signal(signal.SIGALRM, _overran)
    try:
        yield
    finally:
        signal.signal(signal.SIGALRM, previous)


def exit_code(argv):
    """main(argv) under the alarm, output discarded; an escape is returned, not raised.

    argparse's refusal of a flag value, SystemExit(2) with a usage line, is
    the exit 2 it gives the process.
    """
    signal.alarm(SECONDS)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return main(argv)
    except SystemExit as exc:
        if exc.code == 2 and err.getvalue().startswith("usage: floergamma"):
            return 2
        return exc
    except Exception as exc:  # any escape is the finding
        return exc
    finally:
        signal.alarm(0)


def test_mutated_inputs_exit_0_1_or_2_without_a_traceback(tmp_path):
    rng = Random(2612)
    data, cobordisms = inputs(rng, tmp_path)
    bad, codes = [], set()
    with alarmed():
        for i in range(JOBS):
            path = tmp_path / f"mutant{i}.json"
            if i % 4 == 0:
                path.write_text(json.dumps(mutated(rng, rng.choice(data))))
                argv = ["validate", str(path)]
            else:
                path.write_text(json.dumps(mutated(rng, rng.choice(cobordisms))))
                argv = rng.choice((["cobordism", "verify", str(path), "--window", "6,4"],
                                   ["cobordism", "gamma-compare", str(path), "--range", "-2..2"],
                                   ["cobordism", "compose", str(path), str(path),
                                    "-o", str(tmp_path / f"composed{i}.json")]))
            code = exit_code(argv)
            codes.add(code if isinstance(code, int) else None)
            if code not in (0, 1, 2):
                bad.append((argv, path.read_text()[:300], repr(code)))
    assert bad == []
    # the mutants reach past the reader: some pass and some fail verification
    assert codes == {0, 1, 2}


def test_mutated_data_through_the_datum_commands_exit_0_1_or_2(tmp_path):
    rng = Random(7)
    data, _ = inputs(rng, tmp_path)
    bad, codes = [], set()
    with alarmed():
        for i in range(DATUM_JOBS):
            path = tmp_path / f"mutant{i}.json"
            path.write_text(json.dumps(mutated(rng, rng.choice(data))))
            command, *options = rng.choice((("triangle", "--window", "6,4"), ("h",), ("bounds",),
                                            ("gamma", "--range", "-3..3"), ("gamma", "--k", "2")))
            argv = [command, str(path), *options]
            code = exit_code(argv)
            codes.add(code if isinstance(code, int) else None)
            if code not in (0, 1, 2):
                bad.append((argv, path.read_text()[:300], repr(code)))
    assert bad == []
    # some mutants pass the reader and are computed on, most are refused
    assert {0, 2} <= codes


def class_vector(rng: Random, rank: int, known: str) -> str:
    """An --e or --xi value: `known`, all ones, or random entries, some huge or
    odd, and now and then of the wrong length."""
    kind = rng.random()
    if kind < 0.3:
        return known
    if kind < 0.45:
        return ",".join(["1"] * rank)
    length = rank if rng.random() < 0.8 else rng.choice((0, 1, rank + 1))
    return ",".join(rng.choice(ENTRIES) if rng.random() < 0.2 else str(rng.randint(-2, 5))
                    for _ in range(length))


def test_mutated_lattice_files_and_flags_exit_0_1_or_2(tmp_path):
    rng = Random(11)
    bad, codes = [], set()
    with alarmed():
        for i in range(LATTICE_JOBS):
            gram, known = rng.choice(GRAMS)
            obj = {"gram": gram}
            path = tmp_path / f"gram{i}.json"
            path.write_text(json.dumps(mutated(rng, obj) if rng.random() < 0.3 else obj))
            argv = ["lattice", str(path)]
            if rng.random() < 0.8:
                argv += ["--e", class_vector(rng, len(gram), known)]
            if rng.random() < 0.6:
                argv += ["--xi", class_vector(rng, len(gram), known)]
            if rng.random() < 0.6:
                argv += ["--m", rng.choice(M_VALUES)]
            if rng.random() < 0.3:
                argv.append("--json")
            code = exit_code(argv)
            codes.add(code if isinstance(code, int) else None)
            if code not in (0, 1, 2):
                bad.append((argv, path.read_text()[:300], repr(code)))
    assert bad == []
    assert {0, 2} <= codes
