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


def test_each_input_rule_is_written_once():
    # each input rule lives in one module, which every entry point calls,
    # so copies cannot drift apart
    sources = {
        path.name: path.read_text()
        for path in Path(paulipath.__file__).parent.glob("*.py")
    }
    for literal, home in (
        ("noise rate must lie in [0, 1]", "circuit.py"),
        ("qubits, circuit has", "circuit.py"),
        ("coefficients overflow", "observables.py"),
        ("needs a finite real angle", "circuit.py"),
        ("qubit count must be positive", "pauli.py"),
        ("must be a qubit index", "pauli.py"),
        ("must be a basis index", "pauli.py"),
        ("must be a finite real number", "pauli.py"),
    ):
        homes = [name for name, text in sources.items() if literal in text]
        assert homes == [home], (literal, homes)


def test_oracle_imports_no_path_code():
    # the oracle is the independent check of the path code, so it must not
    # import it, not even one name of it
    path = Path(paulipath.__file__).parent / "oracle.py"
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    parts = {part for name in names for part in name.split(".")}
    assert parts & {"engine", "estimator", "benchmarks"} == set()
