"""CLI contract: output vocabulary, exit codes, determinism, round trips."""

import argparse
import contextlib
import importlib
import io
import json
import math
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from floergamma import cli, cobordism, equivariant, floer_datum, lattice, seifert
from floergamma.cli import main
from floergamma.cobordism import cobordism_to_json
from floergamma.equivariant import XElement
from floergamma.floer_datum import (
    InputError,
    InvalidDatumError,
    Report,
    apply_row,
    datum_from_json,
    datum_to_json,
    load_datum,
    require_valid,
)
from floergamma.gamma import (
    ORBIT_CAP,
    DatumInconsistencyError,
    gamma,
    gamma_profile,
    h_invariant,
    tau_lower_bound,
)
from floergamma.lattice import LatticeInputError
from floergamma.morse_minmax import NonCycleError, NullHomologousError
from floergamma.seifert import SeifertInputError
from datagen import bundled_fixtures, cyclic_u_datum, identity_cobordism
from test_lattice import e8_gram


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gamma_range_output(capsys):
    code, out, _ = run(capsys, "gamma", "sigma_2_3_5.json", "--range", "-2..3")
    assert code == 0
    assert out.splitlines() == [
        "gamma(-2) = 0",
        "gamma(-1) = 0",
        "gamma(0) = 0",
        "gamma(1) = 1/120",
        "gamma(2) = 49/120",
        "gamma(3) = inf",
    ]


def test_gamma_single_k(capsys):
    code, out, _ = run(capsys, "gamma", "sigma_2_3_5", "--k", "-1")
    assert code == 0 and out == "gamma(-1) = 0\n"
    code, _, err = run(capsys, "gamma", "sigma_2_3_5")
    assert code == 2 and "exactly one" in err


def test_h_and_bounds(capsys):
    code, out, _ = run(capsys, "h", "sigma_2_3_5")
    assert code == 0 and out == "h = 1\n"
    code, out, _ = run(capsys, "bounds", "sigma_2_3_5")
    assert code == 0
    assert out.splitlines() == ["tau_lb = 1/120", "tau_prime_lb = 2/5"]


def trap_json(lifts, exps) -> dict:
    """The parity trap: d(a) = c, u(c) = -b, d1(a) = 1 and d2(1) = b, at
    gradings 1, 0 and 4, the lifts of a, c, b and the exponents of d, u, d1, d2."""
    def t(coeff, exp):
        return [{"coeff": coeff, "exp": exp}]
    return {"name": "trap",
            "generators": [{"name": g, "grading": gr, "energy_lift": r}
                           for g, gr, r in zip("acb", (1, 0, 4), lifts)],
            "d": [{"from": "a", "to": "c", "terms": t("1", exps[0])}],
            "u": [{"from": "c", "to": "b", "terms": t("-1", exps[1])}],
            "d1": [{"from": "a", "terms": t("1", exps[2])}],
            "d2": [{"to": "b", "terms": t("1", exps[3])}]}


def test_the_parity_trap_validates_and_h_refuses_its_odd_degree(capsys, tmp_path):
    # the decision pinned here: a datum whose largest feasible degree K is odd
    # is refused by h, even where every exponent is 0 or every one positive
    for name, lifts, exps in (("zero", ("0",) * 3, ("0",) * 4),
                              ("positive", ("-1/2", "-3/10", "1/5"),
                               ("1/5", "1/2", "1/2", "1/5"))):
        path = tmp_path / f"trap_{name}.json"
        path.write_text(json.dumps(trap_json(lifts, exps)))
        assert run(capsys, "validate", str(path)) == (0, "validate: ok\n", ""), name
        assert run(capsys, "triangle", str(path), "--window", "6,4") == (
            0, "triangle: ok\n", ""), name
        code, out, _ = run(capsys, "gamma", str(path), "--range", "-4..4")
        assert code == 0 and out.splitlines() == (
            [f"gamma({k}) = 0" for k in range(-4, 0)]
            + [f"gamma({k}) = inf" for k in range(0, 5)]), name
        assert run(capsys, "h", str(path)) == (
            2, "", "error: largest feasible degree -1 is odd on 'trap'\n"), name


def test_bounds_refuses_a_datum_that_h_refuses(capsys, tmp_path):
    # d: a -> b and d1(b) != 0, so validate fails with d1∘d != 0 at a
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad",
        "generators": [{"name": "a", "grading": 2, "energy_lift": "-3/2"},
                       {"name": "b", "grading": 1, "energy_lift": "-1/2"}],
        "d": [{"from": "a", "to": "b", "terms": [{"coeff": "1", "exp": "1"}]}],
        "d1": [{"from": "b", "terms": [{"coeff": "1", "exp": "1/2"}]}],
    }))
    code, out, h_err = run(capsys, "h", str(bad))
    assert code == 2 and out == ""
    assert h_err.startswith("error: datum 'bad' fails validation: ") and "d1∘d != 0 at a" in h_err
    assert run(capsys, "bounds", str(bad)) == (2, "", h_err)


def test_validate_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "sigma_2_3_5")
    assert code == 0 and out.startswith("validate: ok")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "generators": [],
                               "d": [], "u": [], "d1": [], "d2": [],
                               "mystery": 1}))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2 and "mystery" in err
    # structurally broken but schema-valid: verification failure, exit 1
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({
        "name": "broken",
        "generators": [
            {"name": "a", "grading": 1, "energy_lift": "-1/2"},
            {"name": "b", "grading": 4, "energy_lift": "1/2"},
        ],
        "d": [],
        "u": [],
        "d1": [{"from": "a", "terms": [{"coeff": "1", "exp": "1/2"}]}],
        "d2": [{"to": "b", "terms": [{"coeff": "1", "exp": "1/2"}]}],
    }))
    code, out, _ = run(capsys, "validate", str(broken))
    assert code == 1 and "fail" in out


def test_refused_data_exit_2(capsys, tmp_path):
    # schema-valid, but d2∘d1 != 0: the calculators refuse it without a traceback
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({
        "name": "broken",
        "generators": [
            {"name": "a", "grading": 1, "energy_lift": "-1/2"},
            {"name": "b", "grading": 4, "energy_lift": "1/2"},
        ],
        "d": [], "u": [],
        "d1": [{"from": "a", "terms": [{"coeff": "1", "exp": "1/2"}]}],
        "d2": [{"to": "b", "terms": [{"coeff": "1", "exp": "1/2"}]}],
    }))
    # calculator refusals are InputErrors too
    for exc in (LatticeInputError, SeifertInputError, NonCycleError, NullHomologousError):
        assert issubclass(exc, InputError), exc
    gram = tmp_path / "frac.json"
    gram.write_text(json.dumps({"gram": [[-2.7]]}))
    complex_ = tmp_path / "complex.json"
    complex_.write_text(json.dumps({"generators": [{"name": "m", "index": 0, "value": 0}]}))
    # a cobordism map naming a generator its source datum lacks
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({
        "source": "s3", "target": "s3", "c": 1,
        "phi": [{"from": "nope", "to": "theta", "terms": [{"coeff": "1", "exp": "0"}]}],
    }))
    # a second map entry with the same ends: the last one used to win silently
    # (gamma(1) = inf here where the first entry alone gives 1/2, and a
    # boundary -1 after +1 made b a boundary)
    one_term = [{"coeff": "1", "exp": "1/2"}]
    repeated = {
        "d1": {"name": "rep", "d1": [{"from": "a", "terms": one_term},
                                     {"from": "a", "terms": [{"coeff": "0", "exp": "0"}]}],
               "generators": [{"name": "a", "grading": 1, "energy_lift": "-1/2"}]},
        "d": {"name": "rep", "d": [{"from": "a", "to": "b", "terms": [{"coeff": c, "exp": "0"}]}
                                   for c in ("1", "-1")],
              "generators": [{"name": "a", "grading": 5, "energy_lift": "0"},
                             {"name": "b", "grading": 4, "energy_lift": "0"}]},
        "morse": {"boundary": [{"from": "a", "to": "b", "coeff": c} for c in (1, -1)],
                  "generators": [{"name": "a", "index": 1, "value": "2"},
                                 {"name": "b", "index": 0, "value": "1"}]},
        # a class naming a twice kept its last term: a:1,a:-1 printed f = 3
        "class": {"generators": [{"name": "a", "index": 0, "value": "3"},
                                 {"name": "b", "index": 0, "value": "1"}]}}
    # two terms with one exponent used to sum: gamma(1) = inf where either gives 1/2
    repeated["exp"] = dict(repeated["d1"], d1=[
        {"from": "a", "terms": [*one_term, {"coeff": "-1", "exp": "1/2"}]}])
    path = {name: str(tmp_path / f"repeated_{name}.json") for name in repeated}
    for name, obj in repeated.items():
        Path(path[name]).write_text(json.dumps(obj))
    for argv, label in ((["gamma", path["d1"], "--k", "1"], "d1 entry at a"),
                        (["gamma", path["exp"], "--k", "1"], "exponent 1/2 in d1 entry at a"),
                        (["validate", path["d"]], "d entry a->b"),
                        (["morse", "eval", path["morse"], "--class", "b:1"],
                         "boundary entry a->b"),
                        (["morse", "eval", path["class"], "--class", "a:1,a:-1"],
                         "generator a in class"),
                        (["morse", "eval", path["class"], "--class", "b:1, a:1,a :-1"],
                         "generator a in class")):
        assert run(capsys, *argv) == (2, "", f"error: repeated {label}\n"), argv
    composed = tmp_path / "composed.json"
    for argv in (["gamma", str(broken), "--k", "1"],
                 ["gamma", str(broken), "--range", "-4..4"],
                 ["h", str(broken)],
                 ["bounds", "s3"],
                 ["lattice", str(gram)],
                 ["lattice", str(tmp_path / "missing.json")],
                 ["lattice", str(tmp_path)],
                 ["seifert", "sweep", "--max-product", "-5"],
                 ["morse", "eval", str(complex_), "--class", "m:1"],
                 ["cobordism", "verify", str(unknown), "--window", "6,4"],
                 ["cobordism", "gamma-compare", str(unknown), "--range", "-1..1"],
                 ["cobordism", "compose", str(unknown), str(unknown), "-o", str(composed)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and "Traceback" not in err, argv
    assert not composed.exists()


def test_oversized_rationals_exit_2_quickly(capsys, tmp_path):
    # Fraction expands 1eN to 10^N before anything checks it: "1e99999999" did
    # not finish in a minute, and "1e5000" was read, then failed to print
    def datum(lift, exp):
        return {"name": "big", "generators": [{"name": "a", "grading": 1, "energy_lift": lift}],
                "d1": [{"from": "a", "terms": [{"coeff": "1", "exp": exp}]}]}
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps({"generators": [{"name": "a", "index": 0, "value": "0"}]}))
    for i, (lift, exp) in enumerate((("1e9999999", "0"), ("1e99999999", "0"),
                                     ("1e5000", "-1e5000"), ("0", "1e-5000"))):
        path = tmp_path / f"big{i}.json"
        path.write_text(json.dumps(datum(lift, exp)))
        big = lift if lift != "0" else exp
        for argv in (["validate", str(path)], ["gamma", str(path), "--k", "1"],
                     ["bounds", str(path)], ["morse", "eval", str(circle), "--class", f"a:{big}"]):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1, argv
            assert (code, out) == (2, "") and f"not a rational: '{big}'" in err, argv
    # the largest exponents that stay within the digit limit are still read
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(datum("-1e4299", "1e4299")))
    assert run(capsys, "validate", str(path))[0] == 0


def test_a_long_decimal_spelling_is_refused_unread(capsys, tmp_path):
    # Fraction computed 10^3000001 before refusing this (1.45 s), and the
    # error line echoed all 3 MB of it
    spelling = "0." + "0" * 3_000_000 + "1"
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"name": "long", "generators": [
        {"name": "a", "grading": 1, "energy_lift": spelling}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "validate", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "") and len(err) < 200
    assert err == ("error: generator: not a rational: '0.000000000000000000'... "
                   "has 3000003 characters, above 21500\n")


def _long_lift_datum(path, *lifts):
    path.write_text(json.dumps({"name": path.stem, "generators": [
        {"name": f"g{i}", "grading": 1, "energy_lift": lift} for i, lift in enumerate(lifts)]}))
    return str(path)


def test_a_value_too_long_to_print_exits_2(capsys, tmp_path):
    # each lift is within the digit limit, but their difference is not: bounds
    # used to exit 1 with a traceback from Fraction.__str__
    tenth, third = "1/1" + "0" * 4299, "1/" + "3" * 4300
    both = _long_lift_datum(tmp_path / "both.json", tenth, third)
    assert run(capsys, "validate", both) == (0, "validate: ok\n", "")
    cob = tmp_path / "cob.json"
    cob.write_text(json.dumps({"source": _long_lift_datum(tmp_path / "src.json", tenth),
                               "target": _long_lift_datum(tmp_path / "tgt.json", third),
                               "c": 1}))
    refusal = "error: a rational of more than 4300 digits is too long to print\n"
    for argv in (["bounds", both], ["cobordism", "gamma-compare", str(cob), "--range", "1..1"]):
        for flags in ([], ["--json"]):
            assert run(capsys, *argv, *flags) == (2, "", refusal), argv + flags


@pytest.fixture
def validate_calls(monkeypatch) -> list[str]:
    """The names of the data validate runs on, in call order."""
    calls = []
    original = floer_datum.validate

    def counted(datum):
        calls.append(datum.name)
        return original(datum)
    for name, module in list(sys.modules.items()):
        if name.startswith("floergamma") and getattr(module, "validate", None) is original:
            monkeypatch.setattr(module, "validate", counted)
    return calls


def test_each_datum_is_validated_once(capsys, validate_calls):
    calls = validate_calls
    assert run(capsys, "gamma", "sigma_2_3_5", "--range", "-4..4")[0] == 0
    assert calls == ["sigma_2_3_5"]
    calls.clear()
    assert run(capsys, "cobordism", "gamma-compare", "delta1_sigma_2_3_5_to_s3",
               "--range", "-4..4")[0] == 0
    assert sorted(calls) == ["s3", "sigma_2_3_5_d1_zero"]
    calls.clear()
    valid = require_valid(load_datum("sigma_2_3_5"))
    assert calls == ["sigma_2_3_5"] and require_valid(valid) is valid
    calls.clear()
    for k in range(-4, 5):
        gamma(valid, k)
    gamma_profile(valid, -4, 4)
    h_invariant(valid)
    assert calls == []


def test_the_public_calls_validate_a_loaded_datum_once(validate_calls):
    datum = load_datum("sigma_2_3_5")
    for k in range(-3, 4):
        gamma(datum, k)
    h_invariant(datum)
    tau_lower_bound(datum)
    gamma_profile(datum, -3, 3)
    assert validate_calls == ["sigma_2_3_5"]
    assert require_valid(datum) is datum and datum.valid is True
    # the triangle verifier reads the flag too
    assert equivariant.verify_triangle(datum, equivariant.Window(2, 1)).ok
    assert validate_calls == ["sigma_2_3_5"]


#: d: x -> y and d1(y) != 0, so validate fails with d1∘d != 0 at x
D1_AFTER_D = {
    "name": "d1_after_d",
    "generators": [{"name": "x", "grading": 2, "energy_lift": "-3/2"},
                   {"name": "y", "grading": 1, "energy_lift": "-1/2"}],
    "d": [{"from": "x", "to": "y", "terms": [{"coeff": "1", "exp": "1"}]}],
    "d1": [{"from": "y", "terms": [{"coeff": "1", "exp": "1/2"}]}],
}
D1_AFTER_D_FAILURE = "d1∘d != 0 at x: residual 1*l^(3/2)"


def test_an_invalid_datum_is_refused_on_every_call(validate_calls):
    datum = datum_from_json(D1_AFTER_D)
    calls = (lambda: require_valid(datum), lambda: gamma(datum, 1), lambda: gamma(datum, -1),
             lambda: h_invariant(datum), lambda: tau_lower_bound(datum),
             lambda: gamma_profile(datum, -1, 1), lambda: require_valid(datum))
    for call in calls:
        with pytest.raises(InvalidDatumError) as refusal:
            call()
        assert str(refusal.value) == f"datum 'd1_after_d' fails validation: {D1_AFTER_D_FAILURE}"
        assert datum.valid is False
    assert validate_calls == ["d1_after_d"] * len(calls)


def test_gamma_comparison_reads_a_shared_end_once(validate_calls, monkeypatch):
    datum = load_datum("sigma_2_3_5")
    cob = identity_cobordism(datum)
    read = []
    original = cobordism.gamma_values

    def recorded(k_min, k_max, *data):
        read.append(data)
        return original(k_min, k_max, *data)
    monkeypatch.setattr(cobordism, "gamma_values", recorded)
    for _ in range(2):
        result = cobordism.gamma_comparison(cob, -2, 2)
        assert result["nonincreasing"] and all(r["source"] == r["target"]
                                               for r in result["rows"])
    assert validate_calls == ["sigma_2_3_5"] and datum.valid is True
    assert len(read) == 2 and all(len(data) == 1 and data[0] is datum for data in read)


def _identity_over(tmp_path, datum: dict) -> str:
    """An identity cobordism whose source and target name one datum file."""
    path = tmp_path / f"{datum['name']}.json"
    path.write_text(json.dumps(datum))
    one = [{"coeff": "1", "exp": "0"}]
    cob = tmp_path / "identity.json"
    cob.write_text(json.dumps({
        "source": str(path), "target": str(path), "c": 1,
        "phi": [{"from": g["name"], "to": g["name"], "terms": one}
                for g in datum["generators"]],
        "mu": [], "delta1": [], "delta2": []}))
    return str(cob)


def test_gamma_compare_refuses_an_invalid_shared_end(capsys, tmp_path):
    cob = _identity_over(tmp_path, D1_AFTER_D)
    refusal = f"error: datum 'd1_after_d' fails validation: {D1_AFTER_D_FAILURE}\n"
    for flags in ([], ["--json"]):
        assert run(capsys, "cobordism", "gamma-compare", cob, "--range", "1..2",
                   *flags) == (2, "", refusal), flags


def test_cobordism_verify_reports_an_invalid_shared_end_at_both_ends(capsys, tmp_path):
    cob = _identity_over(tmp_path, D1_AFTER_D)
    argv = ("cobordism", "verify", cob, "--window", "6,4")
    assert run(capsys, *argv) == (1, f"tilde: source datum: {D1_AFTER_D_FAILURE}\n", "")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "ok": False, "functoriality_failures": None, "mdeg_decay": None,
        "tilde_failures": [f"source datum: {D1_AFTER_D_FAILURE}",
                           f"target datum: {D1_AFTER_D_FAILURE}"]}


def test_triangle_command(capsys, tmp_path):
    code, out, _ = run(capsys, "triangle", "neg_sigma_2_3_5", "--window", "6,4")
    assert code == 0 and out == "triangle: ok\n"
    code, _, err = run(capsys, "triangle", "neg_sigma_2_3_5", "--window", "1,1")
    assert code == 2
    # d1∘d != 0: refused as a failed precondition at every window, 2,1 included
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(D1_AFTER_D))
    for window in ("2,1", "3,1", "6,4"):
        code, out, _ = run(capsys, "triangle", str(bad), "--window", window)
        assert code == 1 and out.startswith("triangle: precondition:"), window
    failure = f"precondition: datum fails validation ({D1_AFTER_D_FAILURE})"
    assert run(capsys, "triangle", str(bad), "--window", "6,4") == (
        1, f"triangle: {failure}\n", "")
    code, out, err = run(capsys, "triangle", str(bad), "--window", "6,4", "--json")
    assert (code, json.loads(out), err) == (1, {"ok": False, "failures": [failure]}, "")


def test_seifert_commands(capsys):
    code, out, _ = run(capsys, "seifert", "r", "2", "3", "5")
    assert code == 0
    assert out.splitlines() == ["R = 1", "b = 2", "beta = 1,2,4",
                                "b_tuple = -1,1,1"]
    code, out, _ = run(capsys, "seifert", "gamma", "2,3,11", "2,3,5")
    assert code == 0
    assert "value = 1/264" in out and "range_max = 1" in out
    code, out, _ = run(capsys, "seifert", "whitehead", "2", "3")
    assert code == 0
    assert "lower = 1/552" in out and "upper = 1/264" in out
    assert "candidates = 1/552,1/276,1/264" in out
    code, _, err = run(capsys, "seifert", "whitehead", "2", "4")
    assert code == 2
    code, out, _ = run(capsys, "seifert", "sweep", "--max-product", "150")
    assert code == 0 and "mismatches = 0" in out
    code, out, err = run(capsys, "seifert", "sweep", "--max-product",
                         str(seifert.PRODUCT_CAP + 1))
    assert code == 2 and out == "" and "cap" in err


def test_seifert_r_over_the_length_cap_exits_2_with_a_short_line(capsys):
    primes = [p for p in range(2, 60_000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    code, out, err = run(capsys, "seifert", "r", *map(str, primes[:6000]))
    assert code == 2 and out == ""
    assert err == (f"error: orbit tuple (2, 3, 5, 7, ...) of 6000 integers is longer than"
                   f" the cap {seifert.LENGTH_CAP}\n")


def test_seifert_r_over_the_term_cap_exits_2(capsys, monkeypatch):
    def no_sum(a):
        raise AssertionError("the sum was computed")

    monkeypatch.setattr(seifert, "_cotangent_sum", no_sum)
    over = next(x for x in range(seifert.TERM_CAP - 1, seifert.TERM_CAP + 6)
                if math.gcd(x, 6) == 1)
    code, out, err = run(capsys, "seifert", "r", "2", "3", str(over))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap" in err


def test_import_needs_only_the_standard_library():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import floergamma.cli\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(new - sys.stdlib_module_names - {'floergamma'}))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, cwd=src, check=True)
    assert res.stdout == "[]\n"


def _without_site(code: str) -> str:
    """What `code` prints in a fresh interpreter without site, run in src."""
    src = Path(__file__).resolve().parent.parent / "src"
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, cwd=src, check=True)
    return res.stdout


def _loaded_by_cli_import(*modules) -> str:
    """The sorted list of `modules` a fresh `import floergamma.cli` loads,
    without site, as printed."""
    return _without_site("import sys\n"
                         "import floergamma.cli\n"
                         f"print(sorted({set(modules)!r} & set(sys.modules)))\n")


def test_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses, with the inspect, ast and dis it imports, was a sixth of
    # the import time of the command line
    assert _loaded_by_cli_import("dataclasses", "inspect") == "[]\n"


def test_import_runs_only_the_modules_a_command_uses():
    # a module registered lazily is a _LazyModule until its first attribute
    # access runs it; type() reads no attribute, so it runs nothing
    unrun = ("print(sorted(name for name, m in sys.modules.items()\n"
             "             if name.startswith('floergamma') and type(m) is not ModuleType))\n")
    out = _without_site("import sys\n"
                        "from types import ModuleType\n"
                        "import floergamma.cli as cli\n"
                        f"{unrun}"
                        "cli.main(['h', 'sigma_2_3_5'])\n"
                        f"{unrun}"
                        "cli.main(['seifert', 'r', '2', '3', '5'])\n"
                        f"{unrun}")
    five = ["floergamma.cobordism", "floergamma.equivariant", "floergamma.lattice",
            "floergamma.morse_minmax", "floergamma.seifert"]
    assert out.splitlines() == [str(five), "h = 1", str(five), "R = 1", "b = 2",
                                "beta = 1,2,4", "b_tuple = -1,1,1", str(five[:-1])]


def test_import_loads_neither_importlib_resources_nor_pathlib():
    # bundled fixtures are found with os.path, next to the package
    assert _loaded_by_cli_import("importlib.resources", "pathlib") == "[]\n"


def test_lattice_command(capsys, tmp_path):
    gram = tmp_path / "e8.json"
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for a, b in edges:
        g[a][b] = g[b][a] = 1
    gram.write_text(json.dumps({"gram": g}))
    code, out, _ = run(capsys, "lattice", str(gram))
    assert code == 0
    assert "m = 2" in out and "minimal_vectors = 240" in out
    assert "bound = 1/2" in out and "range_max = 1" in out

    diag = tmp_path / "diag.json"
    diag.write_text(json.dumps({"gram": [[-1, 0], [0, -1]]}))
    code, out, _ = run(capsys, "lattice", str(diag))
    assert code == 0 and "no bound" in out

    d22 = tmp_path / "d22.json"
    d22.write_text(json.dumps({"gram": [[-2, 0], [0, -2]]}))
    code, out, _ = run(capsys, "lattice", str(d22), "--e", "1,1")
    assert code == 0
    assert "signed_sum = 2" in out and "n0 = 2" in out


def test_lattice_class_flags_without_e_are_refused(capsys, tmp_path):
    d22 = tmp_path / "d22.json"
    d22.write_text(json.dumps({"gram": [[-2, 0], [0, -2]]}))
    for flags in (["--xi", "1,0", "--m", "3"], ["--xi", "1,0"], ["--m", "-3"]):
        code, out, err = run(capsys, "lattice", str(d22), *flags)
        assert code == 2 and out == "" and "--xi and --m need --e" in err


def test_lattice_class_vectors_are_checked_by_the_lattice_layer(capsys, tmp_path):
    d22 = tmp_path / "d22.json"
    d22.write_text(json.dumps({"gram": [[-2, 0], [0, -2]]}))
    for flags, message in ((["--e", "1"], "e has wrong length"),
                           (["--e", "1,1,1"], "e has wrong length"),
                           (["--e", "1,1", "--xi", "1"], "xi and m must be given together"),
                           (["--e", "1,1", "--m", "0"], "xi and m must be given together"),
                           (["--e", "1,1", "--xi", "1", "--m", "0"], "xi has wrong length")):
        assert run(capsys, "lattice", str(d22), *flags) == (2, "", f"error: {message}\n"), flags


def test_lattice_command_walks_once_per_bound(capsys, tmp_path, monkeypatch):
    # one walk answers m, the minimal vectors and the bound; --e walks
    # again only because |Q(e)| exceeds that walk's bound
    walks = []
    walk = lattice._walk
    monkeypatch.setattr(lattice, "_walk",
                        lambda L, bound: walks.append(bound) or walk(L, bound))
    e8 = tmp_path / "e8.json"
    e8.write_text(json.dumps({"gram": e8_gram()}))
    code, out, _ = run(capsys, "lattice", str(e8))
    assert code == 0 and "minimal_vectors = 240" in out
    assert walks == [2]
    walks.clear()
    code, out, _ = run(capsys, "lattice", str(e8), "--e", "1,0,1,0,0,0,0,0")
    assert code == 0 and "Q(e) = -4" in out
    assert walks == [2, 4]
    walks.clear()
    d11 = tmp_path / "d11.json"
    d11.write_text(json.dumps({"gram": [[-1, 0], [0, -1]]}))
    code, _, err = run(capsys, "lattice", str(d11), "--e", "2,2")
    assert code == 2 and "(2, 0) has smaller norm" in err
    assert walks == [1, 8]
    walks.clear()
    # a large class norm on a small rank is admitted: the walk stays short
    code, _, err = run(capsys, "lattice", str(d11), "--e", "3,1")
    assert code == 2 and "(1, -1) has smaller norm" in err
    assert walks == [1, 10]
    walks.clear()
    # -I_12 at |Q(e)| = 8 (243,520 pairs) passes the node cap partway through its walk
    i12 = tmp_path / "i12.json"
    i12.write_text(json.dumps({"gram": [[-1 if i == j else 0 for j in range(12)]
                                        for i in range(12)]}))
    code, _, err = run(capsys, "lattice", str(i12), "--e", "1,1,1,1,1,1,1,1,0,0,0,0")
    assert code == 2 and f"visits more than {lattice.WALK_CAP} nodes" in err
    assert walks == [1, 8]


def test_lattice_weighted_sum_too_long_to_print_is_refused(capsys, tmp_path):
    # (xi . e')^m past MAX_DIGITS digits is refused before the power is
    # taken, in both output modes (5^(10^7) alone takes seconds to compute)
    e8 = tmp_path / "e8.json"
    e8.write_text(json.dumps({"gram": e8_gram()}))
    for xi, m in (("1,1,1,1,1,1,1,1", "100000"), ("0,0,5,0,0,0,0,1", "10000000")):
        for json_flag in ((), ("--json",)):
            code, out, err = run(capsys, "lattice", str(e8), "--e", "0,0,1,1,1,1,0,0",
                                 "--xi", xi, "--m", m, *json_flag)
            assert (code, out, err) == (2, "", "error: (xi . e')^m has more than 4300 digits\n")
    # on -I_4 the sum is 2^m - 0^m: 2^14284 has 4300 digits, and 2^14286, with
    # 4301, passes the a-priori test but is refused when printed
    i4 = tmp_path / "i4.json"
    i4.write_text(json.dumps({"gram": [[-(i == j) for j in range(4)] for i in range(4)]}))
    argv = ("lattice", str(i4), "--e", "1,1,0,0", "--xi", "1,1,1,1", "--m")
    code, out, _ = run(capsys, *argv, "14284")
    assert code == 0 and f"signed_sum = {2 ** 14284}" in out
    assert run(capsys, *argv, "14286") == (
        2, "", "error: a rational of more than 4300 digits is too long to print\n")


def test_lattice_class_norm_too_long_to_print_names_q_e(capsys, tmp_path):
    # each exited 2 with the generic "a rational of more than 4300 digits is
    # too long to print", formatted from Q(e) after a walk or in a parity message
    i4 = tmp_path / "i4.json"
    i4.write_text(json.dumps({"gram": [[-(i == j) for j in range(4)] for i in range(4)]}))
    nines, power = "9" * 2500, "1" + "0" * 2500
    for flags in (("--e", f"1,{nines},0,0"),
                  ("--e", f"1,{nines},0,0", "--xi", "1,0,0,0", "--m", "2"),
                  ("--e", f"1,{power},0,0")):
        for json_flag in ((), ("--json",)):
            assert run(capsys, "lattice", str(i4), *flags, *json_flag) == (
                2, "", "error: Q(e) has more than 4300 digits, too long to print\n")


def test_morse_command(capsys, tmp_path):
    cx = tmp_path / "circle.json"
    cx.write_text(json.dumps({
        "name": "circle",
        "generators": [{"name": "m", "index": 0, "value": "0"},
                       {"name": "M", "index": 1, "value": "1"}],
        "boundary": [],
    }))
    code, out, _ = run(capsys, "morse", "eval", str(cx), "--class", "M:1")
    assert code == 0 and out == "f = 1\n"
    pinched = tmp_path / "pinched.json"
    pinched.write_text(json.dumps({
        "name": "pinched",
        "generators": [{"name": "x", "index": 0, "value": "0"},
                       {"name": "y", "index": 0, "value": "2"},
                       {"name": "z", "index": 1, "value": "3"}],
        "boundary": [{"from": "z", "to": "x", "coeff": 1},
                     {"from": "z", "to": "y", "coeff": -1}],
    }))
    code, _, err = run(capsys, "morse", "eval", str(pinched), "--class", "z:1")
    assert code == 2 and "cycle" in err
    code, _, err = run(capsys, "morse", "eval", str(pinched), "--class", "x:1,y:-1")
    assert code == 2 and "boundary" in err
    code, _, err = run(capsys, "morse", "eval", str(pinched), "--class", "x:1,w:1")
    assert code == 2 and "unknown generator 'w'" in err


def test_morse_non_cycle_error_quotes_four_boundary_entries(capsys, tmp_path):
    # 3,000 disjoint intervals d(e_i) = p_2i - p_2i+1; the sum of 2,000 of them
    # has a boundary of 4,000 entries
    n = 3000
    intervals = tmp_path / "intervals.json"
    intervals.write_text(json.dumps({
        "name": "intervals",
        "generators": [{"name": f"p{i}", "index": 0, "value": "0"} for i in range(2 * n)]
        + [{"name": f"e{i}", "index": 1, "value": "1"} for i in range(n)],
        "boundary": [{"from": f"e{i}", "to": f"p{2 * i + j}", "coeff": 1 - 2 * j}
                     for i in range(n) for j in (0, 1)]}))
    whole = ",".join(f"e{i}:1" for i in range(2000))
    assert run(capsys, "morse", "eval", str(intervals), "--class", whole) == (
        2, "", "error: input chain is not a cycle: boundary p0:1,p1:-1,p2:1,p3:-1,... "
               "of 4000 entries\n")
    assert run(capsys, "morse", "eval", str(intervals), "--class", "e0:1,e1:-1/2") == (
        2, "", "error: input chain is not a cycle: boundary p0:1,p1:-1,p2:-1/2,p3:1/2\n")


def test_cobordism_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "cobordism", "verify",
                       "delta1_sigma_2_3_5_to_s3", "--window", "6,4")
    assert code == 0
    assert "tilde: ok" in out and "functoriality: ok" in out

    out_path = tmp_path / "composed.json"
    code, _, _ = run(capsys, "cobordism", "compose",
                     "delta1_sigma_2_3_5_to_s3", "delta1_sigma_2_3_5_to_s3",
                     "-o", str(out_path))
    assert code == 2  # target s3 does not match source sigma

    # compose the fixture with an identity written to disk, then verify
    ident = tmp_path / "ident.json"
    ident.write_text(json.dumps(
        cobordism_to_json(identity_cobordism(load_datum("s3")))))
    code, _, _ = run(capsys, "cobordism", "compose",
                     "delta1_sigma_2_3_5_to_s3", str(ident), "-o", str(out_path))
    assert code == 0 and out_path.exists()
    code, out, _ = run(capsys, "cobordism", "verify", str(out_path),
                       "--window", "6,4")
    assert code == 0

    code, out, _ = run(capsys, "cobordism", "gamma-compare",
                       "delta1_sigma_2_3_5_to_s3", "--range", "-1..2")
    assert code == 0
    assert "nonincreasing = yes" in out and "eta_lb = n/a" in out


# No workload job reaches a window identity's failure, since the identities
# follow from the preconditions; wrong maps reach it and its printed line.

def test_cobordism_compose_to_an_unwritable_path_exits_2(capsys, tmp_path):
    cob = tmp_path / "cob.json"
    cob.write_text(json.dumps({"source": "s3", "target": "s3", "c": 1}))
    for out_path in (tmp_path / "missing" / "composed.json", tmp_path):
        code, out, err = run(capsys, "cobordism", "compose", str(cob), str(cob),
                             "-o", str(out_path))
        assert code == 2 and out == "", out_path
        assert err.startswith(f"error: cannot write {out_path}: ") and "Traceback" not in err
        assert len(err.splitlines()) == 1
    assert not (tmp_path / "missing").exists()


def test_compose_refuses_a_c_too_long_to_print_before_writing(capsys, tmp_path):
    # c * c has 8,600 digits: json.dumps raised, exit 1 with a traceback
    cob = tmp_path / "cob.json"
    cob.write_text('{"source": "s3", "target": "s3", "c": ' + "9" * 4300 + "}")
    out_path = tmp_path / "composed.json"
    for flags in ([], ["--json"]):
        assert run(capsys, "cobordism", "compose", str(cob), str(cob), "-o", str(out_path),
                   *flags) == (2, "", "error: a rational of more than 4300 digits is too "
                                      "long to print\n"), flags
        assert not out_path.exists()


def test_triangle_failure_line(capsys, monkeypatch):
    monkeypatch.setattr(equivariant, "htpy_k", lambda e: XElement({}, dict(e.x)))
    # on sigma_2_3_5 the sign-flipped k already breaks p∘j + k∘check_d = 0
    assert run(capsys, "triangle", "sigma_2_3_5", "--window", "6,4") == (
        1, "triangle: p∘j + k∘check_d = 0 fails at (alpha, 0): residual "
           "XElement(chain={}, x={-1: NovikovElement(2*l^(1/120))})\n", "")
    assert run(capsys, "triangle", "s3", "--window", "6,4") == (
        1, "triangle: l∘j + i∘k = ε fails at (0, x^-1): residual "
           "XElement(chain={}, x={-1: NovikovElement(2*l^(0))})\n", "")


def test_cobordism_verify_failure_line(capsys, tmp_path, monkeypatch):
    ident = tmp_path / "ident.json"
    ident.write_text(json.dumps(
        cobordism_to_json(identity_cobordism(load_datum("neg_sigma_2_3_5")))))
    # K(alpha, p) with phi where mu belongs
    monkeypatch.setattr(cobordism, "htpy_hat_x", lambda cob, e: XElement(
        cob.phi.apply(e.chain), {0: apply_row(cob.delta1, e.chain)}))
    assert run(capsys, "cobordism", "verify", str(ident), "--window", "6,4") == (
        1, "tilde: ok\n"
           "functoriality: x∘hat_map - hat_map∘x = K∘hat_d + hat_d'∘K fails at "
           "(0, x^0): residual XElement(chain={'alpha_star': "
           "NovikovElement(1*l^(1/120))}, x={})\n"
           "mdeg_decay = 0\n", "")


def test_json_flag_matches_text(capsys):
    code, out, _ = run(capsys, "gamma", "sigma_2_3_5", "--k", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"gamma": {"2": "49/120"}}
    code, out, _ = run(capsys, "h", "neg_sigma_2_3_5", "--json")
    assert json.loads(out) == {"h": -1}
    code, out, _ = run(capsys, "bounds", "neg_sigma_2_3_5", "--json")
    assert json.loads(out) == {"tau_lb": "71/120", "tau_prime_lb": "2/5"}


CIRCLE = {"name": "circle", "boundary": [],
          "generators": [{"name": "m", "index": 0, "value": "0"},
                         {"name": "M", "index": 1, "value": "1"}]}
COMPARE_ROWS = [{"k": k, "ok": True, "source": v, "target": v}
                for k, v in ((-1, "0"), (0, "0"), (1, "inf"), (2, "inf"))]
JSON_CASES = [
    (["validate", "sigma_2_3_5"], {"failures": [], "ok": True}),
    (["triangle", "sigma_2_3_5", "--window", "6,4"], {"failures": [], "ok": True}),
    (["cobordism", "verify", "delta1_sigma_2_3_5_to_s3", "--window", "6,4"],
     {"functoriality_failures": [], "mdeg_decay": "0", "ok": True, "tilde_failures": []}),
    (["cobordism", "compose", "delta1_sigma_2_3_5_to_s3", "{tmp}/s3_id.json",
      "-o", "{tmp}/composed.json"], {"c": 1, "written": "{tmp}/composed.json"}),
    (["cobordism", "gamma-compare", "delta1_sigma_2_3_5_to_s3", "--range", "-1..2"],
     {"eta_lower_bound": None, "nonincreasing": True, "rows": COMPARE_ROWS}),
    (["seifert", "r", "2", "3", "5"], {"R": 1, "b": 2, "b_tuple": [-1, 1, 1], "beta": [1, 2, 4]}),
    (["seifert", "gamma", "2,3,11", "2,3,5"],
     {"dominant": [2, 3, 11], "h_lower": 0, "range_max": 1, "value": "1/264"}),
    (["seifert", "whitehead", "2", "3"],
     {"candidates": ["1/552", "1/276", "1/264"], "lower": "1/552", "upper": "1/264"}),
    (["seifert", "sweep", "--max-product", "150"], {"checked": 19, "mismatches": []}),
    (["lattice", "{tmp}/d22.json", "--e", "1,1"],
     {"bound": "1/2", "class_bound": {"bound": "1", "n0": 2, "signed_sum": 2}, "m": 2,
      "minimal_vectors": 4, "q_e": -4, "range_max": 1}),
    (["morse", "eval", "{tmp}/circle.json", "--class", "M:1"], {"f": "1"}),
]


def _leaves(value) -> set[str]:
    """Every scalar of a JSON value as text, and the length of every array."""
    if isinstance(value, dict):
        return set().union(*map(_leaves, value.values()))
    if isinstance(value, list):
        return {str(len(value))}.union(*map(_leaves, value))
    return {str(value)}


@pytest.mark.parametrize("argv, expected", JSON_CASES,
                         ids=[" ".join(argv[:2 if argv[0] in ("cobordism", "seifert", "morse")
                                             else 1]) for argv, _ in JSON_CASES])
def test_json_of_every_other_subcommand_carries_its_text_values(capsys, tmp_path, argv,
                                                                expected):
    (tmp_path / "s3_id.json").write_text(json.dumps(
        cobordism_to_json(identity_cobordism(load_datum("s3")))))
    (tmp_path / "d22.json").write_text(json.dumps({"gram": [[-2, 0], [0, -2]]}))
    (tmp_path / "circle.json").write_text(json.dumps(CIRCLE))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0 and err == "" and out.endswith("\n") and out.count("\n") == 1
    payload = json.loads(out)
    assert payload == json.loads(json.dumps(expected).replace("{tmp}", str(tmp_path)))
    # each number a text line prints after " = " is a value of the object
    leaves = _leaves(payload)
    for line in text.splitlines():
        _, eq, rhs = line.partition(" = ")
        for token in rhs.replace(",", " ").split() if eq else ():
            if token[0].isdigit() or token[0] == "-" or token == "inf":
                assert token in leaves, (line, token)


def test_gamma_compare_refuses_a_cobordism_that_is_not_a_chain_map(capsys, tmp_path,
                                                                   monkeypatch):
    cob = tmp_path / "reversed.json"
    cob.write_text(json.dumps({"source": "sigma_2_3_5", "target": "neg_sigma_2_3_5", "c": 1}))
    code, out, _ = run(capsys, "cobordism", "verify", str(cob), "--window", "6,4")
    assert code == 1 and out.startswith("tilde: identity (2) ")
    monkeypatch.setattr(cobordism, "gamma_comparison", lambda *a: pytest.fail("compared"))
    code, out, err = run(capsys, "cobordism", "gamma-compare", str(cob), "--range", "-2..2")
    assert code == 2 and out == ""
    assert err == ("error: cobordism is not a chain map: identity (2) d1'∘phi = "
                   "delta1∘d + c·d1 fails at alpha: -1*l^(1/120)\n")


def _terms(coeff: str, exp: str) -> list[dict]:
    return [{"coeff": coeff, "exp": exp}]


def test_a_negative_gamma_1_is_refused_in_every_range_that_reaches_it(capsys, tmp_path):
    # one generator a at grading 1 and lift 1/2, d1(a) = l^(-1/2): it validates;
    # gamma(1) = -1/2 printed with exit 0 in 1..2, and was a monotonicity error in -1..2
    ident = _identity_over(tmp_path, {
        "name": "neg_gamma", "generators": [{"name": "a", "grading": 1, "energy_lift": "1/2"}],
        "d1": [{"from": "a", "terms": _terms("1", "-1/2")}]})
    datum = str(tmp_path / "neg_gamma.json")
    assert run(capsys, "validate", datum) == (0, "validate: ok\n", "")
    refusal = (2, "", "error: gamma(1) = -1/2 is below 0 on 'neg_gamma'\n")
    for argv in (["gamma", datum, "--range", "1..2"], ["gamma", datum, "--range", "-1..2"],
                 ["gamma", datum, "--k", "1"],
                 ["cobordism", "gamma-compare", ident, "--range", "-1..1"]):
        for json_flag in ((), ("--json",)):
            assert run(capsys, *argv, *json_flag) == refusal, argv + list(json_flag)
    with pytest.raises(DatumInconsistencyError, match=r"gamma\(1\) = -1/2 is below 0"):
        gamma(load_datum(datum), 1)
    # a range that does not reach k = 1 computes no gamma(1)
    assert run(capsys, "gamma", datum, "--range", "2..3") == (
        0, "gamma(2) = inf\ngamma(3) = inf\n", "")


def test_gamma_compare_exits_1_on_a_violated_row(capsys, tmp_path):
    # two valid data, every exponent positive, and a map that cobordism verify
    # passes; gamma(2) rises from 7/2 to 15/4 across it
    source, target, cob = (tmp_path / f"{n}.json" for n in ("mono_a", "mono_b", "mono_ab"))
    source.write_text(json.dumps({
        "name": "mono_a",
        "generators": [{"name": "g0", "grading": 1, "energy_lift": "-7/4"},
                       {"name": "g1", "grading": 5, "energy_lift": "-7/2"}],
        "u": [{"from": "g1", "to": "g0", "terms": _terms("1", "7/4")}],
        "d1": [{"from": "g0", "terms": _terms("-1", "7/4")}]}))
    target.write_text(json.dumps({
        "name": "mono_b",
        "generators": [{"name": "g0", "grading": 1, "energy_lift": "-2/3"},
                       {"name": "g1", "grading": 5, "energy_lift": "-15/4"},
                       {"name": "g2", "grading": 5, "energy_lift": "-11/8"},
                       {"name": "g3", "grading": 0, "energy_lift": "1/2"}],
        "u": [{"from": "g1", "to": "g0", "terms": _terms("-1", "37/12")}],
        "d1": [{"from": "g0", "terms": _terms("-2", "2/3")}]}))
    cob.write_text(json.dumps({
        "source": str(source), "target": str(target), "c": 1,
        "phi": [{"from": "g0", "to": "g0", "terms": _terms("1/2", "13/12")},
                {"from": "g1", "to": "g1", "terms": _terms("-1/2", "-1/4")}]}))
    for path in (source, target):
        assert run(capsys, "validate", str(path)) == (0, "validate: ok\n", "")
    assert run(capsys, "cobordism", "verify", str(cob), "--window", "6,4") == (
        0, "tilde: ok\nfunctoriality: ok\nmdeg_decay = -1/4\n", "")
    code, out, err = run(capsys, "cobordism", "gamma-compare", str(cob), "--range", "-3..3")
    assert (code, err) == (1, "")
    assert out.splitlines()[4:] == ["compare(1) = source 7/4 target 2/3 ok",
                                    "compare(2) = source 7/2 target 15/4 violated",
                                    "compare(3) = source inf target inf ok",
                                    "nonincreasing = no", "eta_lb = 0"]
    code, out, _ = run(capsys, "cobordism", "gamma-compare", str(cob), "--range", "-3..3", "--json")
    assert code == 1 and json.loads(out)["nonincreasing"] is False
    # the rows that hold still exit 0
    assert run(capsys, "cobordism", "gamma-compare", str(cob), "--range", "1..1")[0] == 0


def _refuse_work(monkeypatch, *targets):
    """Make each (module, name) fail the test if called."""
    for module, name in targets:
        monkeypatch.setattr(module, name, lambda *a, name=name: pytest.fail(f"{name} ran"))


def test_window_cap_boundary(capsys, tmp_path, monkeypatch):
    cap = cli.WINDOW_CAP
    windows = []
    monkeypatch.setattr(equivariant, "verify_triangle",
                        lambda d, w: windows.append(w) or Report())
    monkeypatch.setattr(cobordism, "functoriality_report",
                        lambda c, w: windows.append(w) or Report())
    monkeypatch.setattr(cobordism, "mdeg_decay", lambda c, w: 0)
    for argv in (["triangle", "sigma_2_3_5"],
                 ["cobordism", "verify", "delta1_sigma_2_3_5_to_s3"]):
        for window in (f"{cap - 1},1", f"2,{cap - 2}"):
            assert run(capsys, *argv, "--window", window)[0] == 0
        assert [(w.T, w.N) for w in windows] == [(cap - 1, 1), (2, cap - 2)]
        windows.clear()
    _refuse_work(monkeypatch, (equivariant, "verify_triangle"),
                 (cobordism, "verify_tilde_chain_map"), (cobordism, "functoriality_report"),
                 (cobordism, "mdeg_decay"))
    for argv in (["triangle", "sigma_2_3_5"],
                 ["cobordism", "verify", "delta1_sigma_2_3_5_to_s3"]):
        for window in (f"{cap},1", f"2,{cap - 1}", f"{10 * cap},{10 * cap}"):
            code, out, err = run(capsys, *argv, "--window", window)
            assert code == 2 and out == ""
            assert err == f"error: window '{window}' has T + N above the cap {cap}\n"


def test_range_cap_boundary(capsys, tmp_path, monkeypatch):
    cap = cli.RANGE_CAP
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"source": "s3", "target": "s3", "c": 1}))
    growing = tmp_path / "growing.json"
    growing.write_text(json.dumps({"source": "s3", "target": "sigma_2_3_5", "c": 1}))
    # (command, input) and the widest range admitted: the width times the
    # generators of the larger datum, at least one, stays within the cap
    cases = [(["gamma", "neg_sigma_2_3_5"], cap // 2), (["gamma", "s3"], cap),
             (["cobordism", "gamma-compare", "delta1_sigma_2_3_5_to_s3"], cap // 2),
             (["cobordism", "gamma-compare", str(empty)], cap),
             (["cobordism", "gamma-compare", str(growing)], cap // 2)]
    seen = []
    monkeypatch.setattr(cli, "gamma_profile", lambda d, lo, hi: seen.append((lo, hi)) or [])
    monkeypatch.setattr(cobordism, "gamma_comparison", lambda c, lo, hi: seen.append((lo, hi)) or {
        "rows": [], "nonincreasing": True, "eta_lower_bound": None})
    for argv, width in cases[:-1]:
        assert run(capsys, *argv, "--range", f"{1 - width}..0")[0] == 0
        assert seen.pop() == (1 - width, 0)
    _refuse_work(monkeypatch, (cli, "gamma_profile"), (cobordism, "gamma_comparison"),
                 (cobordism, "verify_tilde_chain_map"))
    for argv, width in cases:
        code, out, err = run(capsys, *argv, "--range", f"{-width}..0")
        assert code == 2 and out == "", argv
        units = (width + 1) * (2 if width < cap else 1)
        assert err == (f"error: range '{-width}..0' is {units} units of work (width "
                       f"times generators), above the cap {cap}\n"), argv


def test_orbit_cap_boundary_on_a_u_that_is_not_nilpotent(capsys, tmp_path):
    cap = ORBIT_CAP
    # (family, last k admitted, first k refused, a k of the other sign):
    # Gamma(k <= 0) reads the d2-orbit, Gamma(k >= 1) the d1-orbits of k's
    # class; the d1 family has d2 = 0 and the d2 family an empty class for
    # k >= 1, so the orbits the other sign reads end at once
    for family, last, refused, other in (("d2", -cap, -cap - 1, 10 * cap),
                                         ("d1", cap + 1, cap + 2, -10 * cap)):
        path = tmp_path / f"cyclic_{family}.json"
        path.write_text(json.dumps(datum_to_json(cyclic_u_datum(family=family))))
        code, out, _ = run(capsys, "gamma", str(path), "--k", str(last))
        assert code == 0 and out.startswith(f"gamma({last}) = "), family
        code, out, err = run(capsys, "gamma", str(path), "--k", str(refused))
        assert code == 2 and out == "", family
        assert err == (f"error: gamma({refused}) needs {cap + 1} u-steps on a u-orbit "
                       f"that has not ended within {cap}, the cap\n"), family
        code, out, _ = run(capsys, "gamma", str(path), "--k", str(other))
        assert code == 0 and out.startswith(f"gamma({other}) = "), family


def test_gamma_k_answers_as_the_one_k_range(capsys, tmp_path):
    # --k K is the profile of K..K: the same exit code, stdout and stderr
    names = [name for name, obj in bundled_fixtures() if "source" not in obj]
    assert len(names) >= 5
    for name in names:
        for k in range(-3, 4):
            for json_flag in ((), ("--json",)):
                assert run(capsys, "gamma", name, "--k", str(k), *json_flag) == \
                    run(capsys, "gamma", name, "--range", f"{k}..{k}", *json_flag), (name, k)
    path = tmp_path / "cyc_d2.json"
    path.write_text(json.dumps(datum_to_json(cyclic_u_datum(name="cyc_d2", family="d2"))))
    assert run(capsys, "gamma", str(path), "--k", "-200000") == (
        2, "", "error: gamma(-200000) needs 200000 u-steps on a u-orbit that has not "
               "ended within 250, the cap\n")


def test_a_range_past_the_orbit_cap_is_refused_before_any_gamma(capsys, tmp_path,
                                                                monkeypatch):
    # Gamma(k <= 0) goes through gamma, each parity of k >= 1 through one tower walk
    gamma_module = importlib.import_module("floergamma.gamma")  # not the function
    calls = []
    monkeypatch.setattr(gamma_module, "gamma", lambda d, k: calls.append(k) or 0)
    monkeypatch.setattr(gamma_module, "_gamma_positive",
                        lambda d, ks, w: calls.extend(ks) or dict.fromkeys(ks, (0, None)))
    cap = ORBIT_CAP
    paths = {}
    for family in ("d1", "d2"):
        paths[family] = tmp_path / f"cyclic_{family}.json"
        paths[family].write_text(json.dumps(datum_to_json(cyclic_u_datum(family=family))))
    # each refusal names the first k the range reaches past the cap
    for family, lo, hi, refused, steps in (("d1", 1, 49999, cap + 2, cap + 1),
                                           ("d1", cap + 3, 49999, cap + 3, cap + 2),
                                           ("d1", -10 * cap, cap + 2, cap + 2, cap + 1),
                                           ("d2", -49999, 0, -49999, 49999),
                                           ("d2", -cap - 1, 10 * cap, -cap - 1, cap + 1)):
        code, out, err = run(capsys, "gamma", str(paths[family]), "--range", f"{lo}..{hi}")
        assert (code, out, calls) == (2, "", [])
        assert err == (f"error: gamma({refused}) needs {steps} u-steps on a u-orbit "
                       f"that has not ended within {cap}, the cap\n")
    assert run(capsys, "gamma", str(paths["d1"]), "--range", f"1..{cap + 1}")[0] == 0
    assert sorted(calls) == list(range(1, cap + 2))


# Every action of the root parser, the 3 groups and the 14 commands:
# (option strings, dest, nargs, type, default, required, metavar, choices, help)
_HELP = (("-h", "--help"), "help", 0, None, argparse.SUPPRESS, False, None, None,
         "show this help message and exit")
_JSON = (("--json",), "json", 0, None, False, False, None, None,
         "emit a machine-readable JSON object")
_DATUM = ((), "datum", None, None, None, True, None, None, None)
_WINDOW = (("--window",), "window", None, None, None, True, "T,N", None, None)
PARSER_SURFACE = {
    "": [_HELP, ((), "command", "A...", None, None, True, None,
                 ["validate", "gamma", "h", "bounds", "triangle", "cobordism", "seifert",
                  "lattice", "morse"], None)],
    "validate": [_HELP, _DATUM, _JSON],
    "gamma": [_HELP, _DATUM, (("--k",), "k", None, "int", None, False, None, None, None),
              (("--range",), "range", None, None, None, False, "A..B", None, None), _JSON],
    "h": [_HELP, _DATUM, _JSON],
    "bounds": [_HELP, _DATUM, _JSON],
    "triangle": [_HELP, _DATUM, _WINDOW, _JSON],
    "cobordism": [_HELP, ((), "subcommand", "A...", None, None, True, None,
                          ["verify", "compose", "gamma-compare"], None)],
    "cobordism verify": [_HELP, ((), "cobordism", None, None, None, True, None, None, None),
                         _WINDOW, _JSON],
    "cobordism compose": [_HELP, ((), "first", None, None, None, True, None, None, None),
                          ((), "second", None, None, None, True, None, None, None),
                          (("-o", "--output"), "output", None, None, None, True, None, None,
                           None), _JSON],
    "cobordism gamma-compare": [
        _HELP, ((), "cobordism", None, None, None, True, None, None, None),
        (("--range",), "range", None, None, None, True, "A..B", None, None), _JSON],
    "seifert": [_HELP, ((), "subcommand", "A...", None, None, True, None,
                        ["r", "gamma", "whitehead", "sweep"], None)],
    "seifert r": [_HELP, ((), "orbit", "+", "int", None, True, "A", None, None), _JSON],
    "seifert gamma": [_HELP, ((), "tuples", "+", None, None, True, "A1,A2,...", None, None),
                      _JSON],
    "seifert whitehead": [_HELP, ((), "p", None, "int", None, True, None, None, None),
                          ((), "q", None, "int", None, True, None, None, None), _JSON],
    "seifert sweep": [_HELP, (("--max-product",), "max_product", None, "int", 2000, False,
                              None, None, None), _JSON],
    "lattice": [_HELP, ((), "gram", None, None, None, True, None, None, None),
                (("--e",), "e", None, None, None, False, "V1,V2,...", None, None),
                (("--xi",), "xi", None, None, None, False, "W1,W2,...", None, None),
                (("--m",), "m", None, "int", None, False, None, None, None), _JSON],
    "morse": [_HELP, ((), "subcommand", "A...", None, None, True, None, ["eval"], None)],
    "morse eval": [_HELP, ((), "complex", None, None, None, True, None, None, None),
                   (("--class",), "class", None, None, None, True, None, None, None), _JSON],
}


def _parser_surface(parser, path=()) -> dict:
    rows = {" ".join(path): [
        (tuple(a.option_strings), a.dest, a.nargs, getattr(a.type, "__name__", a.type),
         a.default, a.required, a.metavar, list(a.choices) if a.choices else None, a.help)
        for a in parser._actions]}
    for a in parser._actions:
        if isinstance(a.choices, dict):
            for name, sub in a.choices.items():
                rows.update(_parser_surface(sub, path + (name,)))
    return rows


def test_parser_surface_is_pinned():
    assert _parser_surface(cli.build_parser()) == PARSER_SURFACE


def _parse(parser, argv) -> tuple:
    """(namespace or exit code, stdout, stderr) of parser.parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def test_the_path_built_parser_reads_like_the_whole_tree():
    extras = [["-h"], ["--bogus"], ["--json"], ["--k", "-1"]]
    extras += [["sigma_2_3_5", "2", "3", "5", "7"][:n] for n in range(1, 6)]
    corpus = [[], ["-h"], ["--help"], ["bogus"], ["cobordism", "bogus"],
              ["seifert", "bogus", "-h"], ["gamma", "validate"]]
    corpus += [list(path) + extra for path, *_ in cli.COMMANDS for extra in [[]] + extras]
    outcomes = Counter()
    for argv in map(cli._merge_dashed_values, corpus):
        whole = _parse(cli.build_parser(), argv)
        assert _parse(cli.build_parser(argv), argv) == whole, argv
        outcomes[whole[0] if isinstance(whole[0], int) else "parsed"] += 1
    # help, usage errors and successful parses all occur
    assert set(outcomes) == {0, 2, "parsed"}


def _counting(monkeypatch, counts: Counter, cls, name: str, key: str) -> None:
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(cls, name, counted)


def test_a_call_builds_only_the_parsers_on_its_command_path(capsys, monkeypatch):
    counts = Counter()
    _counting(monkeypatch, counts, argparse.ArgumentParser, "__init__", "parsers")
    _counting(monkeypatch, counts, argparse._ActionsContainer, "add_argument", "arguments")
    cli.build_parser()
    assert counts == {"parsers": 18, "arguments": 58}
    cli._parser.cache_clear()
    for argv, out, parsers, arguments in (
            (["h", "sigma_2_3_5"], "h = 1\n", 2, 4),
            (["h", "sigma_2_3_5"], "h = 1\n", 0, 0),
            (["cobordism", "verify", "delta1_sigma_2_3_5_to_s3", "--window", "6,4"],
             "tilde: ok\nfunctoriality: ok\nmdeg_decay = 0\n", 3, 6),
            (["cobordism", "verify", "delta1_sigma_2_3_5_to_s3", "--window", "6,4"],
             "tilde: ok\nfunctoriality: ok\nmdeg_decay = 0\n", 0, 0)):
        counts.clear()
        assert run(capsys, *argv) == (0, out, "")
        assert counts == Counter(parsers=parsers, arguments=arguments), argv


def _outcome(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of main(argv), a usage exit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_reused_parser_answers_as_a_fresh_one(capsys):
    # help, usage errors, a bad --k value and valid calls right after an error
    corpus = [["-h"], ["gamma", "-h"], ["cobordism", "-h"], ["bogus"], ["cobordism", "bogus"],
              ["gamma", "sigma_2_3_5", "--bogus"], ["gamma", "sigma_2_3_5", "--k", "x"],
              ["gamma", "sigma_2_3_5", "--k", "-1"], ["seifert", "r", "x"],
              ["seifert", "r", "2", "3", "5", "--json"],
              ["h", "sigma_2_3_5", "extra"], ["h", "sigma_2_3_5"]]
    fresh = []
    for argv in corpus:
        cli._parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    for _ in range(2):
        assert [_outcome(capsys, argv) for argv in corpus] == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 2, 2, 2, 0, 2, 0, 2, 0]
    assert fresh[6][2].endswith("error: argument --k: invalid int value: 'x'\n")
    assert fresh[7][1] == "gamma(-1) = 0\n" and fresh[-1] == (0, "h = 1\n", "")


def test_the_usage_metavar_is_read_off_commands(monkeypatch):
    monkeypatch.setattr(cli, "COMMANDS", cli.COMMANDS + (
        (("extra-cmd",), "an entry added to the table", lambda args: 0, []),))
    argv = ["h", "sigma_2_3_5", "extra"]
    whole = _parse(cli.build_parser(), argv)
    assert _parse(cli.build_parser(argv), argv) == whole
    assert whole[0] == 2 and ",lattice,morse,extra-cmd}" in whole[2]
    code, _, err = _parse(cli.build_parser(), ["bogus"])
    assert code == 2 and "argument command: invalid choice: 'bogus'" in err


def test_determinism(capsys):
    _, first, _ = run(capsys, "gamma", "sigma_2_3_5", "--range", "-2..3")
    _, second, _ = run(capsys, "gamma", "sigma_2_3_5", "--range", "-2..3")
    assert first == second


def test_unknown_inputs(capsys):
    code, _, err = run(capsys, "gamma", "missing_datum", "--k", "1")
    assert code == 2 and "no such datum" in err
    # the usage of an argparse error lists every top-level command
    root_usage = "{validate,gamma,h,bounds,triangle,cobordism,seifert,lattice,morse}"
    for argv in (["gamma", "sigma_2_3_5", "--bogus-flag"], ["not-a-command"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: floergamma ") and root_usage in err, argv
