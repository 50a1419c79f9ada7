import doctest
from pathlib import Path

import peakpoly.permutations
import peakpoly.polynomial


def test_polynomial_doctests():
    results = doctest.testmod(peakpoly.polynomial)
    assert results.failed == 0 and results.attempted > 0


def test_permutations_doctests():
    results = doctest.testmod(peakpoly.permutations)
    assert results.failed == 0 and results.attempted > 0


def test_readme_quick_start_lines_print_their_comments():
    # each line of the README's "Library quick start" block after the import
    # is `expression  # comment`, and the comment starts with repr(value)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    first, *lines = [line for line in block.splitlines() if line]
    namespace = {}
    exec(first, namespace)
    assert first.startswith("from peakpoly import") and len(lines) == 6
    for line in lines:
        expression, comment = (part.strip() for part in line.split("#", 1))
        value = eval(expression, namespace)
        assert comment.startswith(repr(value)), line
