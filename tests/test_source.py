"""Checks on the package source itself."""

import ast
from pathlib import Path

import bninterp

SOURCES = sorted(Path(bninterp.__file__).parent.glob("*.py"))


def test_no_logic_sits_in_an_assert():
    # `python -O` strips asserts, so a check written as one silently
    # disappears; checks raise explicit exceptions instead
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
