"""Properties of the package source itself."""

import ast
from pathlib import Path

import lndfilt

SOURCES = sorted(Path(lndfilt.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one would
    # silently stop running; every check raises explicitly instead
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
