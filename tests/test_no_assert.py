"""The package may not rest an invariant on `assert`: `python -O` strips
every assert statement, so a check written as one silently passes there.
The demos print claims ("... holds for n <= 8"), so the same holds for them.
Nor may the package ask whether it runs under -O: it reads neither
`__debug__` nor any field of `sys.flags` that -O changes, so a plain run and
an -O run do the same work."""

import ast
from pathlib import Path

import peakpoly

SOURCES = sorted(Path(peakpoly.__file__).parent.glob("*.py"))
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# Fields of sys.flags that -O leaves as they are (cli._watched reads inspect).
UNCHANGED_BY_O = {"inspect"}


def _assert_statements(paths: list[Path]) -> list[str]:
    return [
        f"{path.parent.name}/{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]


def _is_sys_flags(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "flags"
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def _optimize_reads(source: str) -> list[int]:
    """Lines that read __debug__, import sys.flags by name, or read sys.flags
    other than as one of its fields UNCHANGED_BY_O."""
    tree = ast.parse(source)
    allowed = {id(node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr in UNCHANGED_BY_O and _is_sys_flags(node.value)}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "__debug__"
        or _is_sys_flags(node) and id(node) not in allowed
        or isinstance(node, ast.ImportFrom) and node.module == "sys" and any(a.name == "flags" for a in node.names)
    )


def test_package_has_no_assert_statements():
    assert SOURCES
    assert _assert_statements(SOURCES) == []


def test_demos_have_no_assert_statements():
    assert DEMOS
    assert _assert_statements(DEMOS) == []


def test_package_does_not_ask_whether_it_runs_under_o():
    assert {f"{path.name}:{line}" for path in SOURCES for line in _optimize_reads(path.read_text())} == set()


def test_the_o_scan_sees_each_kind_of_read():
    source = "\n".join((
        "import sys",
        "a = __debug__",
        "b = sys.flags.optimize",
        "c = getattr(sys.flags, 'optimize')",
        "from sys import flags",
        "d = sys.flags.inspect",
        "e = bool(sys.flags.inspect) or sys.gettrace()",
    ))
    assert _optimize_reads(source) == [2, 3, 4, 5]
