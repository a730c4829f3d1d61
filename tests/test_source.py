"""Checks on the package source itself."""

import ast
import inspect
from pathlib import Path

import paulipath
from paulipath import engine, estimator, observables, oracle


def test_no_assert_statements():
    # `python -O` strips assert statements, so every check in the package
    # must be an explicit raise
    found = []
    for path in sorted(Path(paulipath.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _sources() -> dict[str, str]:
    return {
        path.name: path.read_text()
        for path in Path(paulipath.__file__).parent.glob("*.py")
    }


def test_each_input_rule_is_written_once():
    # each input rule lives in one module, which every entry point calls,
    # so copies cannot drift apart
    sources = _sources()
    for literal, home in (
        ("noise rate must lie in [0, 1]", "circuit.py"),
        ("qubits, circuit has", "circuit.py"),
        ("coefficients overflow", "observables.py"),
        ("needs a finite real angle", "circuit.py"),
        ("qubit count must be positive", "pauli.py"),
        ("must be a qubit index", "pauli.py"),
        ("must be a basis index", "pauli.py"),
        ("must be a finite real number", "pauli.py"),
        ("must be a non-negative integer", "pauli.py"),
        ("need at least 2 samples", "estimator.py"),
    ):
        homes = [name for name, text in sources.items() if literal in text]
        assert homes == [home], (literal, homes)


def test_each_output_rule_is_written_once():
    # every report document, JSON write and warning location has one
    # definition, so the documents stay alike and every warning names the
    # same line: the first one outside the package
    sources = _sources()
    for literal, home in (
        ("def to_dict", "observables.py"),
        ("allow_nan=False", "cli.py"),
        ("warnings.warn(", "observables.py"),
        ("stacklevel", "observables.py"),
    ):
        counts = {name: text.count(literal) for name, text in sources.items() if literal in text}
        assert counts == {home: 1}, (literal, counts)


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


def _names(ctx: type) -> dict[str, list[str]]:
    """The modules that store (ast.Store) or read (ast.Load) each name,
    one entry per occurrence."""
    found: dict[str, list[str]] = {}
    for path in sorted(Path(paulipath.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ctx):
                found.setdefault(node.id, []).append(path.name)
    return found


def test_resource_limits_are_constants():
    # no entry point takes a limit or a cap: each is one module constant,
    # read where it is checked
    for fn in (
        estimator.estimate,
        estimator.mse_benchmark,
        engine.PathEnumeration,
        oracle.noisy_mean_value,
        oracle.evolve_noisy,
        observables.SparseDensity,
    ):
        params = set(inspect.signature(fn).parameters)
        assert params & {"path_limit", "node_limit", "cap", "entry_cap"} == set(), fn
    assigned = _names(ast.Store)
    for name, home in (
        ("PATH_LIMIT", "engine.py"),
        ("NODE_LIMIT", "engine.py"),
        ("ORACLE_CAP", "oracle.py"),
        ("ENTRY_CAP", "observables.py"),
    ):
        assert assigned.get(name) == [home], (name, assigned.get(name))


def test_oracle_reads_no_bit_rule_of_the_engine():
    # the oracle derives every gate action from dense matrices, a Clifford
    # layer's gather included, so it names none of the bit rules by which
    # the path engine conjugates words
    tree = ast.parse(_sources()["oracle.py"])
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    rules = {"conjugate_masks", "clifford_groups"}
    assert names & rules == set()
    assert attributes & (rules | {"bits"}) == set()


def test_oracle_has_one_contraction_and_one_realness_rule():
    # every rotation site of the oracle is one matmul and a Clifford layer
    # one gather, and coordinates and mean values are checked real by the
    # rule of the state overlaps, whose one tolerance both modules read
    assert "tensordot" not in _sources()["oracle.py"]
    assert _names(ast.Store).get("IMAG_TOL") == ["observables.py"]
    assert set(_names(ast.Load).get("IMAG_TOL", [])) == {"observables.py", "oracle.py"}


def test_mean_value_reads_the_coordinates_without_dense_matrices():
    # Tr(H M) is gathered from the final Pauli coordinates, so the mean
    # value builds no dense H and takes no state back to a matrix
    tree = ast.parse(_sources()["oracle.py"])
    (body,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "noisy_mean_value"
    ]
    named = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    assert named & {"evolve_noisy", "hamiltonian_matrix", "_matrix", "_real_trace"} == set()


def test_oracle_builds_its_pauli_basis_with_the_dense_builder():
    # the one-qubit basis of the Pauli coordinates comes from `word_matrix`,
    # like every other dense Pauli matrix of the oracle, so it is the matrix
    # that the tests check against their own kron construction
    tree = ast.parse(_sources()["oracle.py"])
    built = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and [ast.unparse(target) for target in node.targets] == ["_PAULIS"]
    ]
    assert len(built) == 1
    calls = [
        ast.unparse(node.func) for node in ast.walk(built[0]) if isinstance(node, ast.Call)
    ]
    assert "word_matrix" in calls, calls


def test_oracle_reads_its_rotation_rule_off_the_pauli_matrices():
    # every rotation follows one rule, whose per-letter tables are read off
    # the one-qubit Pauli matrices at import, so they rest on the matrices
    # the tests check against their own kron construction; and `_apply`
    # contracts one axis in place, with no transposing branch for wider
    # operators
    tree = ast.parse(_sources()["oracle.py"])
    tables = ("_FLIP", "_RIGHT", "_LEFT", "_TURN")
    assigned = [
        (ast.unparse(node.targets[0]), node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) in tables
    ]
    assert sorted(name for name, _ in assigned) == sorted(tables)
    for name, value in assigned:
        read = {node.id for node in ast.walk(value) if isinstance(node, ast.Name)}
        assert read <= {"_PAULIS", "np", "_real", *tables}, (name, read)
    [fn] = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_apply"
    ]
    assert [(arg.arg, ast.unparse(arg.annotation)) for arg in fn.args.args][-1] == ("axis", "int")
    called = [ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)]
    assert [call for call in called if "transpose" in call] == [], called


def test_only_the_engine_decodes_step_masks():
    # a path's steps leave the engine as one choice per rotation, so the
    # estimator shifts no bit mask: the masks' layout has one home
    tree = ast.parse(_sources()["estimator.py"])
    shifts = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.RShift)
    ]
    assert shifts == []


def test_term_sums_has_one_sample_axis():
    # float angles are a batch of one, so `_term_sums` reads the sample
    # count from the package's one angle rule, keeps no shape rule of its
    # own, and adds each slice of paths by one accumulate, not path by path
    tree = ast.parse(_sources()["estimator.py"])
    [fn] = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_term_sums"
    ]
    calls = [ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)]
    assert "check_assignment" in calls
    assert "broadcast_shapes" not in ast.unparse(fn)
    assert [ast.unparse(node) for node in ast.walk(fn) if isinstance(node, ast.AugAssign)] == []


def test_oracle_applies_the_noise_rate_in_one_function():
    # a noise round is one diagonal factor of the Pauli coordinates, so no
    # cached gate operator depends on the noise rate, and `lam` enters
    # arithmetic in one function, the depolarizing formula; everywhere else
    # it is only passed on to a call
    tree = ast.parse(_sources()["oracle.py"])
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    cached = [
        fn.name
        for fn in functions
        if any("lru_cache" in ast.unparse(d) for d in fn.decorator_list)
        and "lam" in [arg.arg for arg in fn.args.args]
    ]
    assert cached == []
    used = {
        fn.name
        for fn in functions
        for node in ast.walk(fn)
        if not isinstance(node, (ast.Call, ast.keyword))
        for child in ast.iter_child_nodes(node)
        if isinstance(child, ast.Name) and child.id == "lam"
    }
    assert len(used) == 1, used


def test_only_observables_stores_on_a_hamiltonian():
    # a Hamiltonian's state is defined in observables.py; no other module
    # hangs a cache or anything else on one.  A Hamiltonian is a parameter
    # annotated as one, or `h`, the package's name for one.
    found = []
    for path in sorted(Path(paulipath.__file__).parent.glob("*.py")):
        if path.name == "observables.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        held = {"h"} | {
            node.arg
            for node in ast.walk(tree)
            if isinstance(node, ast.arg)
            and isinstance(node.annotation, ast.Name)
            and node.annotation.id == "Hamiltonian"
        }
        for node in ast.walk(tree):
            # h.name = ... and h.name[key] = ...
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                node = node.value
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                continue
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in held
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_modes_compute_and_main_writes():
    # every mode returns its output, so the config echo, the JSON rule and
    # the write have one caller, `main`, and no mode can skip them
    tree = ast.parse(_sources()["cli.py"])

    def calls(node: ast.AST) -> list[str]:
        return [ast.unparse(c.func) for c in ast.walk(node) if isinstance(c, ast.Call)]

    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    modes = [name for name in functions if name.startswith("_mode_")]
    assert len(modes) == 6, modes
    for name in modes:
        written = {"_write_text", "json.dumps", "_config_echo"} & set(calls(functions[name]))
        assert written == set(), name
    assert calls(tree).count("_config_echo") == 1
    assert calls(functions["main"]).count("_config_echo") == 1


def test_the_walk_prunes_by_one_survivor_rule():
    # term roots, children and leaf candidates pass one survivor rule,
    # which counts each dropped row by the first rule it breaks; only the
    # whole-parent settle of `_children` counts budget prunes besides it
    counted: dict[str, set[str]] = {}

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.AugAssign):
                target = ast.unparse(child.target)
                if target.startswith("stats.pruned_"):
                    counted.setdefault(target, set()).add(function)
            visit(child, function)

    visit(ast.parse(_sources()["engine.py"]), None)
    assert counted == {
        "stats.pruned_zero_weight": {"_survivors"},
        "stats.pruned_zero_overlap": {"_survivors"},
        "stats.pruned_budget": {"_survivors", "_children"},
    }
