"""Package layout: the public names, and no module imports a private name from another."""

import ast
import importlib
from pathlib import Path

import floergamma
from floergamma import cli, equivariant, floer_datum, novikov, seifert

SRC = Path(floergamma.__file__).parent
GAMMA = importlib.import_module("floergamma.gamma")

# The package's public names, by the module that defines each.
SURFACE = {
    novikov: ("INF", "NovikovElement", "mdeg_tuple"),
    floer_datum: ("FloerDatum", "Generator", "HomogeneousVector", "InputError",
                  "LambdaMatrix", "Report", "datum_from_json", "datum_to_json",
                  "load_datum", "validate", "validate_homogeneity", "validate_structure",
                  "verify_tilde_differential"),
    equivariant: ("Window", "XElement", "check_d", "hat_d", "map_i", "map_j", "map_p",
                  "mdeg_bar", "mdeg_check", "mdeg_hat", "verify_triangle",
                  "x_action_bar", "x_action_check", "x_action_hat"),
    GAMMA: ("DatumInconsistencyError", "MonotonicityError", "SpecialSolution",
            "eta_lower_bound", "feasible_nonempty", "gamma", "gamma_profile",
            "h_invariant", "tau_lower_bound", "tau_prime_lower_bound"),
}
MODULES = ("equivariant", "floer_datum", "novikov")


def test_the_public_names_are_those_of_their_defining_modules():
    names = [name for names in SURFACE.values() for name in names]
    assert floergamma.__all__ == sorted(names + list(MODULES))
    assert len(floergamma.__all__) == 43
    for module, names in SURFACE.items():
        for name in names:
            assert getattr(floergamma, name) is getattr(module, name), name
    for name in MODULES:
        assert getattr(floergamma, name) is importlib.import_module(f"floergamma.{name}")
    assert callable(floergamma.gamma) and GAMMA.__name__ == "floergamma.gamma"


def test_a_star_import_binds_every_public_name():
    namespace = {}
    exec("from floergamma import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == floergamma.__all__
    assert namespace["Window"] is equivariant.Window


def test_a_patch_at_the_defining_module_reaches_the_command(capsys, monkeypatch):
    monkeypatch.setattr(seifert, "sweep", lambda bound: {"checked": bound, "mismatches": []})
    assert cli.main(["seifert", "sweep", "--max-product", "7"]) == 0
    assert capsys.readouterr().out == "checked = 7\nmismatches = 0\n"


def test_no_private_name_crosses_a_module():
    crossings = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("floergamma"):
                continue
            crossings += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                          f"import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert crossings == []


def test_every_imported_name_is_used():
    """Outside __init__.py, which re-exports, each name a module imports is read in it."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in used]
    assert unused == []
