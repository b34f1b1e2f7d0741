"""No module of the package may rely on `assert`: `python -O` strips it."""

import ast
from pathlib import Path

import schuprod


def test_package_has_no_assert_statements():
    modules = sorted(Path(schuprod.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert modules
    assert found == []
