"""Path enumeration: completeness against exhaustive dense sums, pruning,
census counts, and resource guards."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulipath import (
    CliffordGate,
    Hamiltonian,
    Layer,
    PauliWord,
    RotationGate,
    SparseDensity,
    estimate,
    rx_chain_instance,
)
from paulipath.engine import (
    FactorAtom,
    PathEnumeration,
    ResourceLimitError,
    layer_predecessors,
)
from paulipath.estimator import atom_value, path_value, damping
from paulipath.oracle import observable_factor, state_factor, transition_factor

from conftest import random_certified_instance


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
    run = PathEnumeration(circuit, h, rho, None, warn=False)
    got_total = h.identity_coeff
    got_seqs = set()
    for path in run:
        value = damping(path, lam) * path_value(path, theta, h, rho)
        if abs(value) > 1e-13:
            got_total += value
            got_seqs.add(tuple((w.x, w.z) for w in path.words))
    assert got_total == pytest.approx(expected_total, abs=1e-10)
    assert got_seqs == expected_seqs


def test_untruncated_sentinel_equals_max_weight():
    circuit, h, rho, _ = random_certified_instance(7, max_n=2, max_depth=3)
    full_m = circuit.n * (circuit.depth + 1)
    a = [p.words for p in PathEnumeration(circuit, h, rho, None, warn=False)]
    b = [p.words for p in PathEnumeration(circuit, h, rho, full_m, warn=False)]
    assert a == b


def test_truncation_monotone_in_m():
    circuit, h, rho, _ = random_certified_instance(11, max_n=3, max_depth=4)
    seen_prev: set = set()
    for m in range(circuit.depth + 1, circuit.n * (circuit.depth + 1) + 1):
        current = {
            tuple((w.x, w.z) for w in p.words)
            for p in PathEnumeration(circuit, h, rho, m, warn=False)
        }
        assert seen_prev <= current
        for p in PathEnumeration(circuit, h, rho, m, warn=False):
            assert p.total_weight <= m
        seen_prev = current


def test_rx_chain_census():
    for depth in (3, 5, 7):
        circuit, h, rho = rx_chain_instance(2, depth)
        paths = list(PathEnumeration(circuit, h, rho, None, warn=False))
        assert len(paths) == 2 ** (depth - 1)
        assert all(p.total_weight == depth + 1 for p in paths)


def test_minimum_weight_cutoff():
    # every surviving path costs at least depth + 1, so m = depth kills all
    circuit, h, rho = rx_chain_instance(2, 5)
    assert len(list(PathEnumeration(circuit, h, rho, 6, warn=False))) == 16
    with pytest.warns(UserWarning, match="below depth"):
        run = PathEnumeration(circuit, h, rho, 5)
    assert list(run) == []


def test_enumeration_deterministic():
    circuit, h, rho, _ = random_certified_instance(19)
    run = PathEnumeration(circuit, h, rho, None, warn=False)
    first = [(p.words, p.sign, p.atoms) for p in run]
    second = [(p.words, p.sign, p.atoms) for p in run]
    assert first == second


def test_stats_shape():
    circuit, h, rho = rx_chain_instance(2, 6)
    run = PathEnumeration(circuit, h, rho, None, warn=False)
    list(run)
    stats = run.stats
    assert stats.paths_emitted == 32
    assert stats.nodes_visited >= stats.paths_emitted
    # identity words cannot appear strictly inside a path
    assert stats.pruned_zero_weight == 0
    assert set(stats.as_dict()) == {
        "nodes_visited",
        "paths_emitted",
        "pruned_budget",
        "pruned_zero_weight",
        "pruned_zero_overlap",
    }


def test_path_limit_guard():
    circuit, h, rho = rx_chain_instance(2, 8)
    with pytest.raises(ResourceLimitError, match="paths"):
        list(PathEnumeration(circuit, h, rho, None, path_limit=3, warn=False))
    with pytest.raises(ResourceLimitError, match="nodes"):
        list(PathEnumeration(circuit, h, rho, None, node_limit=3, warn=False))


@pytest.mark.parametrize("workers", [1, 2])
def test_estimate_limits_are_global(workers):
    # 128 paths over two terms: each term alone stays under the limit
    circuit, h, rho = rx_chain_instance(2, 8)
    theta = {p: 0.3 for p in circuit.parameters()}
    with pytest.raises(ResourceLimitError, match="more than 100 paths"):
        estimate(circuit, h, rho, theta, 0.1, path_limit=100, workers=workers)
    nodes = estimate(circuit, h, rho, theta, 0.1).stats["nodes_visited"]
    limit = nodes - 1
    with pytest.raises(ResourceLimitError, match=f"more than {limit} enumeration nodes"):
        estimate(circuit, h, rho, theta, 0.1, node_limit=limit, workers=workers)


def test_zero_overlap_roots_pruned():
    # |00> has zero overlap with any X or Y letter at the far end
    circuit, h, rho = rx_chain_instance(1, 3)
    run = PathEnumeration(circuit, h, rho, None, warn=False)
    for path in run:
        overlap = rho.overlap(path.words[0])
        assert abs(overlap) > 0
    assert run.stats.pruned_zero_overlap > 0


def test_term_restriction():
    circuit, h, rho = rx_chain_instance(1, 4)
    both = list(PathEnumeration(circuit, h, rho, None, warn=False))
    only_first = list(
        PathEnumeration(circuit, h, rho, None, term_indices=[0], warn=False)
    )
    only_second = list(
        PathEnumeration(circuit, h, rho, None, term_indices=[1], warn=False)
    )
    assert len(only_first) + len(only_second) == len(both)
    terms = [w for w, _ in h.terms()]
    assert all(p.words[-1] == terms[0] for p in only_first)
    assert all(p.words[-1] == terms[1] for p in only_second)


def test_total_weight_matches_words():
    circuit, h, rho, _ = random_certified_instance(23)
    for path in PathEnumeration(circuit, h, rho, None, warn=False):
        assert path.total_weight == sum(w.weight for w in path.words)
        assert len(path.words) == circuit.depth + 1
        assert not any(w.is_identity for w in path.words)
