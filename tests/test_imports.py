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
