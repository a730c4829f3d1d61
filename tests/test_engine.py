"""Path enumeration: completeness against exhaustive dense sums, pruning,
census counts, and resource guards."""

import itertools
import math
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulipath import (
    Circuit,
    CliffordGate,
    Hamiltonian,
    Layer,
    PauliWord,
    RotationGate,
    SparseDensity,
    engine,
    estimate,
    rx_chain_exact_value,
    rx_chain_instance,
    scaling_sweep,
)
from paulipath.engine import (
    BATCH_ROWS,
    EnumerationStats,
    FactorAtom,
    PathEnumeration,
    PauliPath,
    ResourceLimitError,
    layer_predecessors,
)
from paulipath.estimator import atom_value, path_value, damping
from paulipath.pauli import popcount
from paulipath.oracle import observable_factor, state_factor, transition_factor

from conftest import ansatz_instance, random_certified_instance


def test_rotation_predecessors_commuting():
    # a successor that commutes with the generator passes through with no factor
    layer = Layer((RotationGate(PauliWord.from_string("X"), param="a"),))
    assert layer_predecessors(layer, PauliWord.from_string("X")) == [
        (PauliWord.from_string("X"), 1, ())
    ]


def test_rotation_predecessors_anticommuting():
    # an anti-commuting successor branches into cos and sin, cos first
    layer = Layer((RotationGate(PauliWord.from_string("X"), param="a"),))
    out = layer_predecessors(layer, PauliWord.from_string("Z"))
    assert out == [
        (PauliWord.from_string("Z"), 1, (FactorAtom("cos", "a"),)),
        (PauliWord.from_string("Y"), 1, (FactorAtom("sin", "a"),)),
    ]
    # with two, the rotation on the lower qubit splits first
    layer = Layer(
        (
            RotationGate(PauliWord.from_string("IX"), param="b"),
            RotationGate(PauliWord.from_string("XI"), param="a"),
        )
    )
    cos_a, sin_a = FactorAtom("cos", "a"), FactorAtom("sin", "a")
    cos_b, sin_b = FactorAtom("cos", "b"), FactorAtom("sin", "b")
    assert layer_predecessors(layer, PauliWord.from_string("ZZ")) == [
        (PauliWord.from_string("ZZ"), 1, (cos_a, cos_b)),
        (PauliWord.from_string("ZY"), 1, (cos_a, sin_b)),
        (PauliWord.from_string("YZ"), 1, (sin_a, cos_b)),
        (PauliWord.from_string("YY"), 1, (sin_a, sin_b)),
    ]


@given(
    st.integers(1, 2).flatmap(
        lambda n: st.tuples(
            st.integers(1, 4**n - 1),  # non-identity generator as combined index
            st.integers(0, 4**n - 1),
            st.floats(0.3, 2.8),
        ).map(
            lambda t: (
                PauliWord(n, t[0] % 2**n, t[0] // 2**n),
                PauliWord(n, t[1] % 2**n, t[1] // 2**n),
                t[2],
            )
        )
    )
)
@settings(max_examples=120, deadline=None)
def test_layer_predecessors_match_dense_transitions(case):
    """Through a one-rotation layer, sign * prod(atoms) of every predecessor
    reproduces the dense transition amplitude, and words off the returned
    list have amplitude zero."""
    gen, succ, theta = case
    if gen.is_identity:
        return
    layer = Layer((RotationGate(gen, param="a"),))
    preds = dict()
    for word, sign, atoms in layer_predecessors(layer, succ):
        value = float(sign)
        for atom in atoms:
            value *= atom_value(atom, {"a": theta})
        preds[(word.x, word.z)] = value
    n = gen.n
    for x in range(2**n):
        for z in range(2**n):
            prev = PauliWord(n, x, z)
            dense = transition_factor(layer, {"a": theta}, n, prev, succ)
            assert dense == pytest.approx(preds.get((x, z), 0.0), abs=1e-12)


def test_layer_predecessors_clifford_sign():
    # pulling successor X back through S gives -Y, successor Y gives +X
    layer = Layer((CliffordGate("S", (1,)),))
    assert layer_predecessors(layer, PauliWord.from_string("X")) == [
        (PauliWord.from_string("Y"), -1, ())
    ]
    assert layer_predecessors(layer, PauliWord.from_string("Y")) == [
        (PauliWord.from_string("X"), 1, ())
    ]


@pytest.mark.parametrize(
    "gate",
    [CliffordGate("H", (2,)), CliffordGate("S", (2,)),
     CliffordGate("CNOT", (2, 3)), CliffordGate("CNOT", (3, 1))],
    ids=lambda g: f"{g.kind}{g.qubits}",
)
def test_layer_predecessors_clifford_matches_dense(gate):
    """Every successor word has exactly one predecessor through a Clifford
    layer; its sign is the dense transition amplitude, and the dense
    transition from every other word is zero."""
    n = 3
    layer = Layer((gate,))
    words = [PauliWord(n, x, z) for x in range(2**n) for z in range(2**n)]
    for succ in words:
        [(pred, sign, atoms)] = layer_predecessors(layer, succ)
        assert atoms == ()
        for prev in words:
            dense = transition_factor(layer, {}, n, prev, succ)
            want = sign if prev == pred else 0.0
            assert dense == pytest.approx(want, abs=1e-12)


# layers whose Clifford groups hold several gates each: H and S pairs beside
# CNOTs of offsets +1 and -2, and two CNOTs at each of those offsets
_GROUPED_LAYERS = [
    Layer(
        (
            CliffordGate("H", (1,)),
            CliffordGate("S", (2,)),
            CliffordGate("CNOT", (3, 4)),
            CliffordGate("CNOT", (7, 5)),
            CliffordGate("H", (6,)),
            CliffordGate("S", (8,)),
        )
    ),
    Layer(
        (
            CliffordGate("CNOT", (1, 2)),
            CliffordGate("CNOT", (3, 4)),
            CliffordGate("CNOT", (7, 5)),
            CliffordGate("CNOT", (8, 6)),
        )
    ),
]


@pytest.mark.parametrize("layer", _GROUPED_LAYERS, ids=["H-S-CNOT", "CNOT-pairs"])
def test_layer_predecessors_through_clifford_groups_match_dense(layer):
    """Through a layer whose Clifford groups hold several gates, each
    successor's one predecessor carries the dense transition amplitude as
    its sign.  A Clifford layer's transfer matrix is orthogonal, so an
    amplitude of +-1 leaves 0 to every other word.  Moved onto the top
    qubits of 70, where masks are Python ints, the layer maps the moved
    words alike."""
    n, shift = 8, 62
    wide = Layer(
        tuple(CliffordGate(g.kind, tuple(q + shift for q in g.qubits)) for g in layer.gates)
    )
    rng = np.random.default_rng(5)
    for x, z in rng.integers(0, 2**n, size=(40, 2)).tolist():
        succ = PauliWord(n, x, z)
        [(pred, sign, atoms)] = layer_predecessors(layer, succ)
        assert atoms == ()
        assert transition_factor(layer, {}, n, pred, succ) == pytest.approx(sign, abs=1e-12)
        moved = PauliWord(n + shift, x << shift, z << shift)
        assert layer_predecessors(wide, moved) == [
            (PauliWord(n + shift, pred.x << shift, pred.z << shift), sign, ())
        ]


def test_layer_predecessors_refuse_more_than_the_node_limit():
    # all-X anti-commutes with each of the 66 Y rotations of the first
    # ansatz layer: 2^66 predecessors, refused before any array is built
    circuit, _, _ = ansatz_instance(66, 4)
    word = PauliWord.from_string("X" * 66)
    message = f"^more than {engine.NODE_LIMIT} predecessors: {2**66} "
    with pytest.raises(ResourceLimitError, match=message):
        layer_predecessors(circuit.layers[0], word)


def test_layer_predecessors_limit_is_strict(monkeypatch):
    # the same `>` as the walk's node count: exactly NODE_LIMIT passes
    circuit, _, _ = ansatz_instance(3, 1)
    monkeypatch.setattr(engine, "NODE_LIMIT", 4)
    assert len(layer_predecessors(circuit.layers[0], PauliWord.from_string("XXI"))) == 4
    with pytest.raises(ResourceLimitError, match="^more than 4 predecessors: 8 "):
        layer_predecessors(circuit.layers[0], PauliWord.from_string("XXX"))


def _random_layer(rng, n):
    """A layer on n qubits: H and S gates, one-qubit rotations, two-qubit
    rotations with X or Y letters on both qubits, and ZZ rotations."""
    qubits = [int(q) for q in rng.permutation(np.arange(1, n + 1))]
    gates = []
    while qubits:
        q, kind = qubits.pop(), int(rng.integers(0, 5))
        if kind == 1:
            gates.append(CliffordGate("HS"[rng.integers(0, 2)], (q,)))
        elif kind == 2 or (kind > 2 and not qubits):
            letter = "XYZ"[rng.integers(0, 3)]
            gates.append(RotationGate(PauliWord.from_map(n, {q: letter}), param=f"t{q}"))
        elif kind > 2:
            letters = ("XY"[rng.integers(0, 2)], "XY"[rng.integers(0, 2)]) if kind == 3 else "ZZ"
            generator = PauliWord.from_map(n, dict(zip((q, qubits.pop()), letters)))
            gates.append(RotationGate(generator, param=f"t{q}"))
    return Layer(tuple(gates))


@given(st.integers(0, 2**32 - 1), st.sampled_from([np.int64, object]))
@settings(max_examples=150, deadline=None)
def test_leaves_are_the_children_with_a_flip_mask(seed, dtype):
    # every slot of every row at once: exactly the children whose x mask is
    # in F, each once; F holds 0 and up to four random masks, as the walk's
    # flip set holds 0 and the state's flip masks
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    program = engine._LayerProgram(_random_layer(rng, n), dtype)
    rows = int(rng.integers(1, 9))
    b, count, *_ = program.branch(
        rng.integers(0, 2**n, rows).astype(dtype), rng.integers(0, 2**n, rows).astype(dtype)
    )
    flip_set = {0} | {int(f) for f in rng.integers(0, 2**n, int(rng.integers(0, 5)))}
    flips = np.array(sorted(flip_set), dtype=dtype)
    slots = len(flips) << popcount(b.anti_bits & program.z_bits).astype(np.int64)
    parent = np.repeat(np.arange(rows), slots)
    slot = np.concatenate([np.arange(s) for s in slots])
    pick, ordinal = program.leaves(b, parent, slot, flips)
    want = []
    for row in range(rows):
        ordinals = np.arange(2 ** int(count[row]))
        x = program.children(b, np.full(len(ordinals), row), ordinals)[0]
        want += [(row, int(k)) for k, cx in zip(ordinals, x) if int(cx) in flip_set]
    assert sorted(zip(parent[pick].tolist(), ordinal.tolist())) == want


def _brute_force_reference(circuit, h, rho, theta, lam):
    """Exhaustive sum over every word sequence, via dense per-hop factors.

    Returns (total, set of contributing word sequences).
    """
    n = circuit.n
    words = [PauliWord(n, x, z) for x in range(2**n) for z in range(2**n)]
    tables = []
    for layer in circuit.layers:
        table = {}
        for prev in words:
            for nxt in words:
                val = transition_factor(layer, theta, n, prev, nxt, lam)
                if abs(val) > 1e-14:
                    table[(prev, nxt)] = val
        tables.append(table)
    total = h.identity_coeff
    contributing = set()
    state_vals = {w: state_factor(rho, w) for w in words}
    for s_last, _ in h.terms():
        tail = observable_factor(h, s_last, lam)
        for seq in itertools.product(words, repeat=circuit.depth):
            full = (*seq, s_last)
            value = tail * state_vals[full[0]]
            for i, table in enumerate(tables):
                value *= table.get((full[i], full[i + 1]), 0.0)
                if value == 0.0:
                    break
            if abs(value) > 1e-13:
                total += value
                contributing.add(tuple((w.x, w.z) for w in full))
    return total, contributing


@pytest.mark.parametrize("seed", [2, 5, 15])
@pytest.mark.parametrize("lam", [0.0, 0.17])
def test_enumeration_complete_against_exhaustive_sum(seed, lam):
    circuit, h, rho, theta = random_certified_instance(
        seed, max_n=2, max_depth=3, max_rotations=6
    )
    expected_total, expected_seqs = _brute_force_reference(circuit, h, rho, theta, lam)
    run = PathEnumeration(circuit, h, rho, None)
    got_total = h.identity_coeff
    got_seqs = set()
    for path in run.paths():
        value = damping(path, lam) * path_value(path, theta, h, rho)
        if abs(value) > 1e-13:
            got_total += value
            got_seqs.add(tuple((w.x, w.z) for w in path.words))
    assert got_total == pytest.approx(expected_total, abs=1e-10)
    assert got_seqs == expected_seqs


def test_untruncated_sentinel_equals_max_weight():
    circuit, h, rho, _ = random_certified_instance(7, max_n=2, max_depth=3)
    full_m = circuit.n * (circuit.depth + 1)
    a = [p.words for p in PathEnumeration(circuit, h, rho, None).paths()]
    b = [p.words for p in PathEnumeration(circuit, h, rho, full_m).paths()]
    assert a == b


def test_truncation_monotone_in_m():
    circuit, h, rho, _ = random_certified_instance(11, max_n=3, max_depth=4)
    seen_prev: set = set()
    for m in range(circuit.depth + 1, circuit.n * (circuit.depth + 1) + 1):
        current = {
            tuple((w.x, w.z) for w in p.words)
            for p in PathEnumeration(circuit, h, rho, m).paths()
        }
        assert seen_prev <= current
        for p in PathEnumeration(circuit, h, rho, m).paths():
            assert p.total_weight <= m
        seen_prev = current


def test_rx_chain_census():
    for depth in (3, 5, 7):
        circuit, h, rho = rx_chain_instance(2, depth)
        paths = list(PathEnumeration(circuit, h, rho, None).paths())
        assert len(paths) == 2 ** (depth - 1)
        assert all(p.total_weight == depth + 1 for p in paths)
    with pytest.raises(ValueError, match="^need depth >= 2, got 1$"):
        rx_chain_instance(2, 1)
    for depth in (3.0, 2.5):
        with pytest.raises(ValueError, match="^depth must be a non-negative integer"):
            rx_chain_instance(2, depth)
    with pytest.raises(ValueError, match="^depth must be a non-negative integer, got 4.0$"):
        scaling_sweep(2, [4.0, 6], 0.25)


# the chain family has one depth rule, which every chain function runs
def test_rx_chain_exact_value_refuses_a_float_depth():
    with pytest.raises(ValueError, match="^depth must be a non-negative integer, got 3.0$"):
        rx_chain_exact_value({"t2_1": 0.1, "t3_1": 0.2}, 3.0)


def test_rx_chain_exact_value_refuses_depth_1():
    with pytest.raises(ValueError, match="^need depth >= 2, got 1$"):
        rx_chain_exact_value({"t2_1": 0.1}, 1)


def test_scaling_sweep_checks_each_depth_before_comparing_it():
    with pytest.raises(ValueError, match="^depth must be a non-negative integer, got '4'$"):
        scaling_sweep(2, ["4", 6], 0.25)


def test_minimum_weight_cutoff():
    # every surviving path costs at least depth + 1, so m = depth kills all
    circuit, h, rho = rx_chain_instance(2, 5)
    assert len(list(PathEnumeration(circuit, h, rho, 6).paths())) == 16
    with pytest.warns(UserWarning, match="below depth"):
        run = PathEnumeration(circuit, h, rho, 5)
    assert list(run.paths()) == []


def test_enumeration_deterministic():
    circuit, h, rho, _ = random_certified_instance(19)
    run = PathEnumeration(circuit, h, rho, None)
    first = [(p.words, p.sign, p.atoms) for p in run.paths()]
    second = [(p.words, p.sign, p.atoms) for p in run.paths()]
    assert first == second


def test_stats_shape():
    circuit, h, rho = rx_chain_instance(2, 6)
    run = PathEnumeration(circuit, h, rho, None)
    list(run)
    stats = run.stats
    assert stats.paths_emitted == 32
    assert stats.nodes_visited >= stats.paths_emitted
    # identity words cannot appear strictly inside a path
    assert stats.pruned_zero_weight == 0
    assert set(asdict(stats)) == {
        "nodes_visited",
        "paths_emitted",
        "pruned_budget",
        "pruned_zero_weight",
        "pruned_zero_overlap",
    }


def test_path_limit_guard(monkeypatch):
    circuit, h, rho = rx_chain_instance(2, 8)
    monkeypatch.setattr(engine, "PATH_LIMIT", 3)
    with pytest.raises(ResourceLimitError, match="paths"):
        list(PathEnumeration(circuit, h, rho, None))
    monkeypatch.undo()
    monkeypatch.setattr(engine, "NODE_LIMIT", 3)
    with pytest.raises(ResourceLimitError, match="nodes"):
        list(PathEnumeration(circuit, h, rho, None))


def test_estimate_limits_are_global(monkeypatch):
    # 128 paths over two terms: each term alone stays under the limit
    circuit, h, rho = rx_chain_instance(2, 8)
    theta = {p: 0.3 for p in circuit.parameters()}
    nodes = estimate(circuit, h, rho, theta, 0.1).stats["nodes_visited"]
    monkeypatch.setattr(engine, "PATH_LIMIT", 100)
    with pytest.raises(ResourceLimitError, match="more than 100 paths"):
        estimate(circuit, h, rho, theta, 0.1)
    monkeypatch.undo()
    limit = nodes - 1
    monkeypatch.setattr(engine, "NODE_LIMIT", limit)
    with pytest.raises(ResourceLimitError, match=f"more than {limit} enumeration nodes"):
        estimate(circuit, h, rho, theta, 0.1)


def test_node_limit_counts_term_roots(monkeypatch):
    # at m=2 both terms are pruned at their roots, the only nodes visited
    circuit, h, rho = rx_chain_instance(2, 8)
    theta = {p: 0.3 for p in circuit.parameters()}
    monkeypatch.setattr(engine, "NODE_LIMIT", 2)
    with pytest.warns(UserWarning, match="below depth"):
        run = PathEnumeration(circuit, h, rho, 2)
    assert list(run) == [] and run.stats.nodes_visited == 2
    monkeypatch.setattr(engine, "NODE_LIMIT", 1)
    with pytest.warns(UserWarning, match="below depth"):
        run = PathEnumeration(circuit, h, rho, 2)
    with pytest.raises(ResourceLimitError, match="more than 1 enumeration nodes"):
        list(run)
    with pytest.warns(UserWarning, match="below depth"):
        with pytest.raises(ResourceLimitError, match="more than 1 enumeration nodes"):
            estimate(circuit, h, rho, theta, 0.1, 2)


def test_limit_errors_name_the_count_and_word_index(monkeypatch):
    # the two term roots sit at word index depth = 8; untruncated, both
    # terms' 128 paths and 894 nodes come in one batch per word index
    circuit, h, rho = rx_chain_instance(2, 8)
    for limit, value, m, message in (
        ("NODE_LIMIT", 1, 2, "more than 1 enumeration nodes visited: 2 at word index 8"),
        ("NODE_LIMIT", 893, None, "more than 893 enumeration nodes visited: 894 at word index 0"),
        ("PATH_LIMIT", 100, None, "more than 100 paths survive truncation: 128 at word index 0"),
    ):
        monkeypatch.setattr(engine, limit, value)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "truncation order", UserWarning)
            run = PathEnumeration(circuit, h, rho, m)
        with pytest.raises(ResourceLimitError, match=f"^{message}$"):
            list(run)
        monkeypatch.undo()


def test_zero_overlap_roots_pruned():
    # |00> has zero overlap with any X or Y letter at the far end
    circuit, h, rho = rx_chain_instance(1, 3)
    run = PathEnumeration(circuit, h, rho, None)
    for path in run.paths():
        overlap = rho.overlap(path.words[0])
        assert abs(overlap) > 0
    assert run.stats.pruned_zero_overlap > 0


def test_total_weight_matches_words():
    circuit, h, rho, _ = random_certified_instance(23)
    for path in PathEnumeration(circuit, h, rho, None).paths():
        assert path.total_weight == sum(w.weight for w in path.words)
        assert len(path.words) == circuit.depth + 1
        assert not any(w.is_identity for w in path.words)


def _reference_walk(circuit, h, rho, m):
    """The enumeration frame by frame: depth first over `layer_predecessors`,
    with the same pruning rules and counters."""
    stats = EnumerationStats()
    paths = []
    depth = circuit.depth

    def visit(idx, words, spent, sign, atoms):
        if idx == 0:
            if rho.overlap(words[-1]) == 0.0:
                stats.pruned_zero_overlap += 1
                return
            stats.paths_emitted += 1
            paths.append(PauliPath(tuple(reversed(words)), sign, atoms, spent))
            return
        for pred, step_sign, step_atoms in layer_predecessors(
            circuit.layers[idx - 1], words[-1]
        ):
            stats.nodes_visited += 1
            weight = pred.weight
            if weight == 0:
                stats.pruned_zero_weight += 1
            elif spent + weight > m - (idx - 1):
                stats.pruned_budget += 1
            else:
                visit(idx - 1, words + [pred], spent + weight, sign * step_sign,
                      step_atoms + atoms)

    for word, _ in h.terms():
        stats.nodes_visited += 1
        if word.weight > m - depth:
            stats.pruned_budget += 1
        else:
            visit(depth, [word], word.weight, 1, ())
    return paths, stats


def _word(letters):
    return PauliWord.from_string(letters)


def _sum(*terms):
    """A Hamiltonian from (letters, coefficient) pairs."""
    return Hamiltonian(len(terms[0][0]), [(_word(w), c) for w, c in terms])


# Depths 0 and 1, which `random_certified_instance` never draws: roots that
# are leaves, and leaves one layer below the roots.
_SHALLOW_INSTANCES = [
    (
        Circuit(2, ()),
        _sum(("ZI", 1.0), ("XX", 0.5), ("IY", -0.7), ("XY", 0.3)),
        SparseDensity(2, [(0, 0, 0.6), (3, 3, 0.4), (0, 3, 0.2 + 0.2j), (3, 0, 0.2 - 0.2j)]),
    ),
    (
        Circuit(
            3,
            (Layer((RotationGate(_word("XYI"), param="a"), CliffordGate("H", (3,)))),),
        ),
        _sum(("ZZI", 1.0), ("XIX", 0.6), ("IYZ", -0.8), ("ZII", 0.4)),
        SparseDensity(3, [(0, 0, 0.6), (5, 5, 0.4), (0, 5, 0.3), (5, 0, 0.3)]),
    ),
    (
        Circuit(
            2,
            (
                Layer(
                    (RotationGate(_word("YI"), param="a"), RotationGate(_word("IZ"), angle=0.3))
                ),
            ),
        ),
        _sum(("XX", 1.0), ("ZY", -0.5), ("IZ", 0.25)),
        SparseDensity(2, [(1, 1, 0.5), (2, 2, 0.5), (1, 2, 0.3j), (2, 1, -0.3j)]),
    ),
]


# Leaf layers that `_LayerProgram.leaves` solves in each of its ways, at 8
# and 4 rows a batch: Z rotations on X and Y letters, whose choices stay
# free for every flip mask; a two-qubit rotation whose sin branch changes
# the weight, so that at some m a parent's children straddle the budget and
# it is built whole beside solved parents.
_LEAF_INSTANCES = [
    (
        Circuit(
            3,
            (
                Layer(
                    (
                        RotationGate(_word("ZII"), param="a"),
                        RotationGate(_word("IXI"), param="b"),
                        RotationGate(_word("IIZ"), angle=0.4),
                    )
                ),
                Layer((CliffordGate("H", (2,)), RotationGate(_word("XIY"), param="c"))),
            ),
        ),
        _sum(("XZY", 1.0), ("YYX", -0.6), ("XIX", 0.5)),
        SparseDensity(3, [(0, 0, 0.5), (5, 5, 0.5), (0, 5, 0.3), (5, 0, 0.3)]),
    ),
    (
        Circuit(
            3,
            (
                Layer(
                    (RotationGate(_word("XYI"), param="a"), RotationGate(_word("IIY"), param="b"))
                ),
                Layer((CliffordGate("H", (2,)), RotationGate(_word("ZII"), param="c"))),
            ),
        ),
        _sum(("ZIX", 1.0), ("IZZ", 0.7), ("ZXX", -0.4), ("XZY", 0.3)),
        SparseDensity.computational_basis(3),
    ),
]


# a state of off-diagonal entries only: its flip set lacks 0 and its trace
# is 0; its leaf layer is solved at 4 rows a batch
with pytest.warns(UserWarning, match="^state trace is 0, expected 1$"):
    _OFF_DIAGONAL_INSTANCE = (
        Circuit(
            3,
            (
                Layer(
                    (
                        RotationGate(_word("XII"), param="a"),
                        RotationGate(_word("IYI"), param="b"),
                        RotationGate(_word("IIZ"), param="c"),
                    )
                ),
                Layer((CliffordGate("CNOT", (1, 2)),)),
            ),
        ),
        _sum(("ZZZ", 1.0), ("XXI", 0.5), ("YIZ", -0.3), ("ZXY", 0.2)),
        SparseDensity(3, [(1, 6, 0.4j), (6, 1, -0.4j)]),
    )


with warnings.catch_warnings():
    warnings.simplefilter("ignore", UserWarning)  # its trace is 0
    # a state with no entries: the flip set is empty, so every leaf is
    # pruned by zero overlap
    _EMPTY_STATE_INSTANCE = (*rx_chain_instance(2, 3)[:2], SparseDensity(2, []))


@given(
    st.integers(0, 10**6).map(
        lambda seed: random_certified_instance(seed, max_n=4, max_depth=5)[:3]
    )
)
@example(_SHALLOW_INSTANCES[0])
@example(_SHALLOW_INSTANCES[1])
@example(_SHALLOW_INSTANCES[2])
@example(_EMPTY_STATE_INSTANCE)
@example(_LEAF_INSTANCES[0])
@example(_LEAF_INSTANCES[1])
@example(_OFF_DIAGONAL_INSTANCE)
@settings(max_examples=60, deadline=None)
def test_batched_walk_equals_reference_walk_at_every_m(instance):
    # same paths in the same order, and the same five counters, at every
    # truncation order up to untruncated
    _assert_walk_equals_reference_walk_at_every_m(instance)


@given(
    st.integers(0, 10**6).map(
        lambda seed: random_certified_instance(seed, max_n=4, max_depth=5)[:3]
    )
)
@example(_LEAF_INSTANCES[0])
@example(_LEAF_INSTANCES[1])
@example(_OFF_DIAGONAL_INSTANCE)
@example(_EMPTY_STATE_INSTANCE)
@settings(max_examples=30, deadline=None)
@pytest.mark.parametrize("rows", [4, 8])
def test_solved_leaf_layer_equals_reference_walk_at_every_m(rows, instance):
    # at a few rows a batch these small walks can leave more than a slice
    # of leaf children unbuilt, so their leaf layers are solved, not built
    # whole; each of the three leaf examples is solved at one of the sizes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "BATCH_ROWS", rows)
        _assert_walk_equals_reference_walk_at_every_m(instance)


def _assert_walk_equals_reference_walk_at_every_m(instance):
    circuit, h, rho = instance
    for m in range(circuit.depth + 1, circuit.n * (circuit.depth + 1) + 1):
        run = PathEnumeration(circuit, h, rho, m)
        want_paths, want_stats = _reference_walk(circuit, h, rho, m)
        assert list(run.paths()) == want_paths
        assert run.stats == want_stats


def test_pinned_ansatz_counters_and_memory(monkeypatch):
    # ansatz(8,12) at m=44 emits more paths than one batch holds; one full
    # pass keeps the pinned counters and at most 2 MB of traced memory.  Of
    # its 75,731 leaf children 12,825 are built and reach the survivor rule:
    # where a parent batch can leave more than a slice of them unbuilt, only
    # those whose x masks are flip masks of the state (the paths' 1,491
    # among them)
    circuit, h, rho = ansatz_instance(8, 12)
    survivors = PathEnumeration._survivors
    leaf_rows = 0

    def counting(self, part, weight, idx, stats, *rest):
        nonlocal leaf_rows
        leaf_rows += len(part.x) if idx == 0 else 0
        return survivors(self, part, weight, idx, stats, *rest)

    monkeypatch.setattr(PathEnumeration, "_survivors", counting)
    run = PathEnumeration(circuit, h, rho, 44)
    tracemalloc.start()
    try:
        for _ in run.paths():
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run.stats == EnumerationStats(
        nodes_visited=415_928,
        paths_emitted=1_491,
        pruned_budget=263_414,
        pruned_zero_weight=0,
        pruned_zero_overlap=74_240,
    )
    assert run.stats.paths_emitted > BATCH_ROWS
    assert leaf_rows == 12_825
    assert peak <= 2 * 2**20


def test_pinned_ansatz_estimate_memory():
    # one estimate on the same instance, its norm bound, walk and array sum
    # of the path blocks included, stays within the same 2 MB of traced memory
    circuit, h, rho = ansatz_instance(8, 12)
    theta = {p: 0.1 * k for k, p in enumerate(circuit.parameters())}
    tracemalloc.start()
    try:
        report = estimate(circuit, h, rho, theta, 0.1, 44)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.paths_used == 1_491
    assert peak <= 2 * 2**20


def test_a_deep_circuit_walks_as_a_loop():
    # one qubit, Z rotations and H = Z: the one path stays Z and is damped
    # by (1 - lam)^(L + 1), at a depth far beyond Python's recursion limit
    depth, lam = 2000, 1e-3
    rotation = Layer((RotationGate(_word("Z"), param="t"),))
    circuit = Circuit(1, (rotation,) * depth)
    h = Hamiltonian(1, [(_word("Z"), 1.0)])
    with pytest.warns(UserWarning, match="not certified"):
        report = estimate(
            circuit, h, SparseDensity.computational_basis(1), {"t": 0.7}, lam
        )
    assert abs(report.value - (1 - lam) ** (depth + 1)) <= 1e-12
    assert report.paths_used == 1


@pytest.mark.parametrize("seed", [7, 27, 31])
def test_words_beyond_63_qubits_walk_like_narrow_ones(seed):
    # masks of more than 63 qubits are Python ints in object arrays; moving
    # an instance onto the top qubits of 70 leaves its paths as they were
    circuit, h, rho, _ = random_certified_instance(seed, max_n=4, max_depth=5)
    n, shift = 70, 70 - circuit.n

    def moved(word):
        return PauliWord(n, word.x << shift, word.z << shift)

    layers = []
    for layer in circuit.layers:
        gates = []
        for gate in layer.gates:
            if isinstance(gate, RotationGate):
                gates.append(RotationGate(moved(gate.generator), param=gate.param))
            else:
                gates.append(CliffordGate(gate.kind, tuple(q + shift for q in gate.qubits)))
        layers.append(Layer(tuple(gates)))
    wide = Circuit(n, tuple(layers))
    h_wide = Hamiltonian(n, [(moved(word), c) for word, c in h.terms()])
    rho_wide = SparseDensity(
        n, [(ket << shift, bra << shift, v) for ket, bra, v in rho.entries()]
    )
    for m in (circuit.depth + 1, circuit.depth + 1 + circuit.n, None):
        narrow = PathEnumeration(circuit, h, rho, m)
        run = PathEnumeration(wide, h_wide, rho_wide, m)
        want = [
            (tuple(moved(w) for w in p.words), p.sign, p.atoms, p.total_weight)
            for p in narrow.paths()
        ]
        assert [(p.words, p.sign, p.atoms, p.total_weight) for p in run.paths()] == want
        assert run.stats == narrow.stats
