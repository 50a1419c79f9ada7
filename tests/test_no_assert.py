"""The package may not rest an invariant on `assert`: `python -O` strips
every assert statement, so a check written as one silently passes there."""

import ast
from pathlib import Path

import peakpoly

SOURCES = sorted(Path(peakpoly.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
