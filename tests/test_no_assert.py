"""The package may not rest an invariant on `assert`: `python -O` strips
every assert statement, so a check written as one silently passes there.
The demos print claims ("... holds for n <= 8"), so the same holds for them."""

import ast
from pathlib import Path

import peakpoly

SOURCES = sorted(Path(peakpoly.__file__).parent.glob("*.py"))
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _assert_statements(paths: list[Path]) -> list[str]:
    return [
        f"{path.parent.name}/{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]


def test_package_has_no_assert_statements():
    assert SOURCES
    assert _assert_statements(SOURCES) == []


def test_demos_have_no_assert_statements():
    assert DEMOS
    assert _assert_statements(DEMOS) == []
