"""Every public name of the package has a reader outside the tests.

The names are every public module-level function and class of src/peakpoly
and every public method and property of those classes, listed from the
source by AST.  A name is read where its identifier occurs in code outside
its own definition: in the package, the demos, the benchmark (its test file
aside), the `python -c` programs of the CI workflow and README's python
blocks.  An occurrence is a name, an attribute, or a string constant that is
a dotted identifier (a CHECKS row's `fn`, a `_FROM` key, an entry of the
tracer's METHODS); a method or a property is read only as an attribute or
in such a string.  Prose (a docstring, a comment) reads nothing.  The names
that only the benchmark reads are pinned here, so that a change to what the
benchmark reads shows as a changed set.
"""

import ast
import re
import textwrap
from pathlib import Path

import peakpoly

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(Path(peakpoly.__file__).parent.glob("*.py"))

# The names whose only reader is the benchmark: its probes take operands from
# tan_sec_polys, and its tracer wraps the two methods by name.
BENCHMARK_ONLY = {"families.tan_sec_polys", "permutations.StatDistribution.total", "series.TruncSeries.egf_poly"}


class Reads(ast.NodeVisitor):
    """The identifiers a tree reads: `anywhere` as a name, an attribute or a
    dotted-identifier string, `as_member` as an attribute or such a string;
    each maps an identifier to the lines it occurs on.  An assignment to a
    name or an attribute reads nothing."""

    def __init__(self, tree: ast.AST):
        self.anywhere: dict[str, list[int]] = {}
        self.as_member: dict[str, list[int]] = {}
        self.visit(tree)

    def _add(self, identifier: str, line: int, member: bool) -> None:
        self.anywhere.setdefault(identifier, []).append(line)
        if member:
            self.as_member.setdefault(identifier, []).append(line)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._add(node.id, node.lineno, False)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._add(node.attr, node.lineno, True)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value):
            for part in node.value.split("."):
                self._add(part, node.lineno, True)


def _public_names(path: Path) -> dict[str, tuple[str, bool, int, int]]:
    """{"module.Name" or "module.Class.member": (identifier, is a member,
    first line, last line of its definition)} for one package file."""
    module = "peakpoly" if path.stem == "__init__" else path.stem
    names = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names[f"{module}.{node.name}"] = (node.name, False, node.lineno, node.end_lineno)
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    names[f"{module}.{node.name}.{member.name}"] = (
                        member.name, True, member.lineno, member.end_lineno)
    return names


def _programs() -> list[tuple[str, Path | None, str]]:
    """(area, file, source) of every program that may read a name; file is
    None for a program cut from the CI workflow or README."""
    programs = [("package", path, path.read_text()) for path in SOURCES]
    programs += [("demos", path, path.read_text()) for path in sorted((ROOT / "demos").glob("*.py"))]
    programs += [("benchmark", path, path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))
                 if not path.name.startswith("test_")]
    for workflow in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        programs += [("CI", None, textwrap.dedent(code))
                     for code in re.findall(r'-c "\n(.*?)\n\s*"', workflow.read_text(), re.S)]
    readme = (ROOT / "README.md").read_text()
    programs += [("README", None, code) for code in re.findall(r"```python\n(.*?)```", readme, re.S)]
    return programs


def _areas(path: Path, reads: list[tuple[str, Path | None, dict, dict]]) -> dict[str, set[str]]:
    """Each public name of the package file `path` with the areas that read
    it, from reads: (area, file, anywhere, as_member) as in Reads."""
    return {
        key: {area for area, at, anywhere, as_member in reads
              for line in (as_member if member else anywhere).get(identifier, ())
              if at != path or not first <= line <= last}
        for key, (identifier, member, first, last) in _public_names(path).items()
    }


def readers() -> dict[str, set[str]]:
    """Each public name of the package with the areas that read it."""
    reads = []
    for area, path, source in _programs():
        found = Reads(ast.parse(source))
        reads.append((area, path, found.anywhere, found.as_member))
    return {key: areas for path in SOURCES for key, areas in _areas(path, reads).items()}


def test_every_public_name_has_a_reader_outside_the_tests():
    assert {area for area, _, _ in _programs()} == {"package", "demos", "benchmark", "CI", "README"}
    names = readers()
    assert len(names) > 100  # the scan found the package
    assert sorted(name for name, areas in names.items() if not areas) == []


def test_the_names_only_the_benchmark_reads_are_pinned():
    assert {name for name, areas in readers().items() if areas == {"benchmark"}} == BENCHMARK_ONLY


def test_the_scan_counts_code_and_not_prose():
    source = "\n".join((
        "def f():",
        '    """g reads nothing here, nor h.total."""',
        "    return g() + m.h + k.total()  # a comment: j",
        "TABLE = ('fn_a', 'mod.fn_b', 'not an identifier', 'x-y')",
        "m.size = 1",
    ))
    found = Reads(ast.parse(source))
    assert {name: lines for name, lines in found.anywhere.items()} == {
        "g": [3], "m": [3, 5], "h": [3], "k": [3], "total": [3], "fn_a": [4], "mod": [4], "fn_b": [4]}
    assert set(found.as_member) == {"h", "total", "fn_a", "mod", "fn_b"}


def test_a_name_read_only_inside_its_own_definition_is_unread(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def walk(n):\n    return walk(n - 1) if n else 0\n\n"
                    "class Box:\n    def size(self):\n        return self.size\n")
    found = Reads(ast.parse(path.read_text()))
    reads = [("package", path, found.anywhere, found.as_member), ("demos", None, {"Box": [1], "size": [1]}, {})]
    assert _areas(path, reads) == {"mod.walk": set(), "mod.Box": {"demos"}, "mod.Box.size": set()}
