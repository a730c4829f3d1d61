"""Checks on the package source itself."""

import ast
from pathlib import Path

import paulipath


def test_no_assert_statements():
    # `python -O` strips assert statements, so every check in the package
    # must be an explicit raise
    found = []
    for path in sorted(Path(paulipath.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
