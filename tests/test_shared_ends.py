"""A cobordism whose target names the source's path against one whose target
names a byte-identical copy: the same exit code, output and written file,
with the shared datum read, validated and solved once."""

import importlib
import json
import shutil
import sys
from collections import Counter
from random import Random

from floergamma.cli import main
from floergamma.cobordism import cobordism_to_json
from floergamma.floer_datum import datum_to_json, load_datum
from datagen import (identity_cobordism, random_datum, random_trivial_cobordism,
                     transformed_datum, zero_map_datum)

KS = range(-2, 3)


def _counted(monkeypatch, module: str, name: str) -> list:
    """The arguments of every call of floergamma's `name`, patched at each
    module that imported it."""
    original, calls = getattr(importlib.import_module(f"floergamma.{module}"), name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("floergamma") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def _cases():
    """(datum JSON, cobordism JSON over it, valid): identity cobordisms over
    random and transformed data, trivial cobordisms over zero-map data and an
    identity over a datum that fails validate."""
    rng = Random(4231)
    for i in range(6):
        datum = random_datum(rng, name=f"r{i}")
        datum = transformed_datum(rng, datum) if i % 2 else datum
        yield datum_to_json(datum), cobordism_to_json(identity_cobordism(datum)), True
    for i in range(4):
        datum = zero_map_datum(rng, name=f"z{i}")
        yield datum_to_json(datum), cobordism_to_json(random_trivial_cobordism(rng, datum)), True
    bad = datum_to_json(load_datum("sigma_2_3_5"))
    bad["d"] = [{"from": "alpha", "to": "alpha", "terms": [{"coeff": "1", "exp": "0"}]}]
    yield bad, cobordism_to_json(identity_cobordism(load_datum("sigma_2_3_5"))), False


def _commands(cob: str, out: str) -> list[list[str]]:
    return [["cobordism", "verify", cob, "--window", "6,4"],
            ["cobordism", "verify", cob, "--window", "6,4", "--json"],
            ["cobordism", "gamma-compare", cob, "--range", f"{KS[0]}..{KS[-1]}"],
            ["cobordism", "gamma-compare", cob, "--range", f"{KS[0]}..{KS[-1]}", "--json"],
            ["cobordism", "compose", cob, cob, "-o", out]]


def test_a_target_naming_the_source_path_reads_like_a_copy(capsys, monkeypatch, tmp_path):
    loads = _counted(monkeypatch, "floer_datum", "load_datum")
    validates = _counted(monkeypatch, "floer_datum", "validate")
    gammas = _counted(monkeypatch, "gamma", "gamma")
    walks = _counted(monkeypatch, "gamma", "_gamma_positive")
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    here, there = str(tmp_path / "a" / "d.json"), str(tmp_path / "b" / "d.json")
    cob, out = tmp_path / "cob.json", tmp_path / "out.json"
    shared_failures = 0
    for datum, maps, valid in _cases():
        (tmp_path / "a" / "d.json").write_text(json.dumps(datum))
        shutil.copyfile(here, there)
        runs = {}
        for target in (here, there):
            cob.write_text(json.dumps(dict(maps, source=here, target=target)))
            runs[target] = []
            for argv in _commands(str(cob), str(out)):
                out.unlink(missing_ok=True)
                for calls in (loads, validates, gammas, walks):
                    calls.clear()
                code = main(argv)
                captured = capsys.readouterr()
                written = out.read_text() if out.exists() else None
                runs[target].append((code, captured.out, captured.err, written))
                ends = 1 if target == here else 2
                assert [path for path, in loads] == [here, there][:ends]
                if argv[1] == "compose":
                    assert validates == []
                    continue
                # a refused source stops gamma-compare before the target
                assert len(validates) == (ends if valid or argv[1] == "verify" else 1)
                # each Gamma once per end: k <= 0 through gamma, k >= 1 through
                # one tower walk per parity
                solved = [k for _, k in gammas] + [k for _, ks, _ in walks for k in ks]
                assert Counter(solved) == (
                    {k: ends for k in KS} if valid and argv[1] == "gamma-compare" else {})
        assert runs[here] == runs[there]
        code, text, _, _ = runs[here][1]
        failures = json.loads(text)["tilde_failures"]
        if not valid:
            assert code == 1 and len(failures) % 2 == 0
            half = len(failures) // 2
            assert [f.removeprefix("source datum: ") for f in failures[:half]] \
                == [f.removeprefix("target datum: ") for f in failures[half:]]
            assert all(f.startswith("source datum: ") for f in failures[:half])
            assert all(f.startswith("target datum: ") for f in failures[half:])
            shared_failures += half
        else:
            assert code == 0 and failures == []
    assert shared_failures > 0
