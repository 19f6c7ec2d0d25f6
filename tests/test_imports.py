"""Package layout: no module imports a private name from another."""

import ast
from pathlib import Path

import floergamma

SRC = Path(floergamma.__file__).parent


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
