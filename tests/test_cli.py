"""CLI contract: output vocabulary, exit codes, determinism, round trips."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from floergamma import cli, cobordism, equivariant, floer_datum, lattice, seifert
from floergamma.cli import main
from floergamma.cobordism import cobordism_to_json, identity_cobordism
from floergamma.equivariant import XElement
from floergamma.floer_datum import (
    InputError,
    Report,
    ValidDatum,
    apply_row,
    load_datum,
    require_valid,
)
from floergamma.gamma import gamma, gamma_profile, h_invariant
from floergamma.lattice import LatticeInputError
from floergamma.morse_minmax import NonCycleError, NullHomologousError
from floergamma.seifert import SeifertInputError
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


def test_each_datum_is_validated_once(capsys, monkeypatch):
    calls = []
    original = floer_datum.validate

    def counted(datum):
        calls.append(datum.name)
        return original(datum)
    for name, module in list(sys.modules.items()):
        if name.startswith("floergamma") and getattr(module, "validate", None) is original:
            monkeypatch.setattr(module, "validate", counted)

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
    with pytest.raises(TypeError):
        ValidDatum("x", [], None, None, {}, {})


def test_triangle_command(capsys, tmp_path):
    code, out, _ = run(capsys, "triangle", "neg_sigma_2_3_5", "--window", "6,4")
    assert code == 0 and out == "triangle: ok\n"
    code, _, err = run(capsys, "triangle", "neg_sigma_2_3_5", "--window", "1,1")
    assert code == 2
    # d1∘d != 0: refused as a failed precondition at every window, 2,1 included
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "d1_after_d",
        "generators": [{"name": "x", "grading": 2, "energy_lift": "-3/2"},
                       {"name": "y", "grading": 1, "energy_lift": "-1/2"}],
        "d": [{"from": "x", "to": "y", "terms": [{"coeff": "1", "exp": "1"}]}],
        "d1": [{"from": "y", "terms": [{"coeff": "1", "exp": "1/2"}]}],
    }))
    for window in ("2,1", "3,1", "6,4"):
        code, out, _ = run(capsys, "triangle", str(bad), "--window", window)
        assert code == 1 and out.startswith("triangle: precondition:"), window


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
    monkeypatch.setattr(cli, "gamma_comparison", lambda *a: pytest.fail("compared"))
    code, out, err = run(capsys, "cobordism", "gamma-compare", str(cob), "--range", "-2..2")
    assert code == 2 and out == ""
    assert err == ("error: cobordism is not a chain map: identity (2) d1'∘phi = "
                   "delta1∘d + c·d1 fails at alpha: -1*l^(1/120)\n")


def _refuse_work(monkeypatch, *names):
    for name in names:
        monkeypatch.setattr(cli, name, lambda *a, name=name: pytest.fail(f"{name} ran"))


def test_window_cap_boundary(capsys, tmp_path, monkeypatch):
    cap = cli.WINDOW_CAP
    windows = []
    monkeypatch.setattr(cli, "verify_triangle", lambda d, w: windows.append(w) or Report())
    monkeypatch.setattr(cli, "functoriality_report", lambda c, w: windows.append(w) or Report())
    monkeypatch.setattr(cli, "mdeg_decay", lambda c, w: 0)
    for argv in (["triangle", "sigma_2_3_5"],
                 ["cobordism", "verify", "delta1_sigma_2_3_5_to_s3"]):
        for window in (f"{cap - 1},1", f"2,{cap - 2}"):
            assert run(capsys, *argv, "--window", window)[0] == 0
        assert [(w.T, w.N) for w in windows] == [(cap - 1, 1), (2, cap - 2)]
        windows.clear()
    _refuse_work(monkeypatch, "verify_triangle", "verify_tilde_chain_map",
                 "functoriality_report", "mdeg_decay")
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
    monkeypatch.setattr(cli, "gamma_comparison", lambda c, lo, hi: seen.append((lo, hi)) or {
        "rows": [], "nonincreasing": True, "eta_lower_bound": None})
    for argv, width in cases[:-1]:
        assert run(capsys, *argv, "--range", f"{1 - width}..0")[0] == 0
        assert seen.pop() == (1 - width, 0)
    _refuse_work(monkeypatch, "gamma_profile", "gamma_comparison", "verify_tilde_chain_map")
    for argv, width in cases:
        code, out, err = run(capsys, *argv, "--range", f"{-width}..0")
        assert code == 2 and out == "", argv
        units = (width + 1) * (2 if width < cap else 1)
        assert err == (f"error: range '{-width}..0' is {units} units of work (width "
                       f"times generators), above the cap {cap}\n"), argv


def test_determinism(capsys):
    _, first, _ = run(capsys, "gamma", "sigma_2_3_5", "--range", "-2..3")
    _, second, _ = run(capsys, "gamma", "sigma_2_3_5", "--range", "-2..3")
    assert first == second


def test_unknown_inputs(capsys):
    code, _, err = run(capsys, "gamma", "missing_datum", "--k", "1")
    assert code == 2 and "no such datum" in err
    with pytest.raises(SystemExit) as exc:
        main(["gamma", "sigma_2_3_5", "--bogus-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
