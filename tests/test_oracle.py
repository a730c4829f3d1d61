"""Dense reference simulator against a second, in-test dense implementation.

The conftest helpers intentionally use a different construction (projector
CNOT, Kraus-form noise) so agreement here is meaningful.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings

from paulipath import (
    CliffordGate,
    Circuit,
    Hamiltonian,
    Layer,
    PauliWord,
    RotationGate,
    SparseDensity,
    oracle,
)
from paulipath.oracle import (
    OracleCapError,
    depolarize_all,
    evolve_noisy,
    hamiltonian_matrix,
    noisy_mean_value,
    observable_factor,
    state_factor,
    state_matrix,
    transition_factor,
    word_matrix,
)

from conftest import (
    _1Q,
    ansatz_instance,
    dense_depolarize,
    dense_hamiltonian,
    dense_layer_unitary,
    dense_noisy_mean,
    dense_state,
    dense_word,
    pauli_sums,
    random_certified_instance,
)


@given(pauli_sums())
@example(Hamiltonian(2, [(PauliWord.from_string(s), 1.0) for s in ("XI", "ZY")]))
@settings(max_examples=80, deadline=None)
def test_word_matrix_orientation(h):
    # the mask builder against conftest's own kron chain, entry for entry
    for word, _ in h.terms():
        assert np.array_equal(word_matrix(word), dense_word(word))
    assert np.array_equal(word_matrix(PauliWord.identity(h.n)), np.eye(2**h.n))
    assert np.allclose(hamiltonian_matrix(h), dense_hamiltonian(h), rtol=0, atol=1e-12)


def test_state_matrix_round_trip():
    rho = SparseDensity(2, [(0, 0, 0.5), (3, 3, 0.5), (0, 3, 0.2), (3, 0, 0.2)])
    assert np.allclose(state_matrix(rho), dense_state(rho))


@pytest.mark.parametrize("lam", [0.0, 0.15, 1.0])
def test_depolarize_matches_kraus_form(lam):
    # a density matrix, and a matrix that is not Hermitian: the channel
    # takes any dense matrix, whatever coordinates the oracle runs it in
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    mat = raw @ raw.conj().T
    mat /= np.trace(mat)
    for given in (mat, raw):
        expected = dense_depolarize(given, 3, lam)
        got = depolarize_all(given.reshape((2,) * 6), 3, lam).reshape(8, 8)
        assert np.allclose(got, expected)


@pytest.mark.parametrize("seed", [0, 4, 10, 17, 23, 31])
@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_noisy_mean_matches_independent_dense(seed, lam):
    circuit, h, rho, theta = random_certified_instance(seed)
    got = noisy_mean_value(circuit, h, rho, theta, lam)
    assert got == pytest.approx(dense_noisy_mean(circuit, h, rho, theta, lam), abs=1e-12)


def test_noiseless_equals_zero_noise():
    # lam = 0 is plain unitary evolution, with no noise round at all
    circuit, h, rho, theta = random_certified_instance(3)
    mat = dense_state(rho)
    for layer in circuit.layers:
        u = dense_layer_unitary(layer, circuit.n, theta)
        mat = u @ mat @ u.conj().T
    noiseless = np.trace(dense_hamiltonian(h) @ mat).real
    assert noisy_mean_value(circuit, h, rho, theta, 0.0) == pytest.approx(
        noiseless, abs=1e-12
    )


def test_full_depolarizing_kills_traceless_part():
    circuit, h, rho, theta = random_certified_instance(8)
    assert noisy_mean_value(circuit, h, rho, theta, 1.0) == pytest.approx(
        h.identity_coeff, abs=1e-12
    )


def test_non_finite_mean_value_raises():
    # an explicit check, not an assert that `python -O` strips; every input
    # number is finite by construction, so here finite ones overflow it
    circuit = Circuit(1, (Layer((RotationGate(PauliWord.from_string("Z"), angle=0.0),)),))
    h = Hamiltonian(1, [(PauliWord.from_string("X"), 1e154)])
    rho = SparseDensity(1, [(0, 0, 1.0), (0, 1, 1e307), (1, 0, 1e307)])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="mean value"):
        noisy_mean_value(circuit, h, rho, {}, 0.1)


def test_large_coefficients_keep_a_real_mean_value():
    # the realness check scales with the sum of |H_ij rho_ji|, as the state
    # overlap's does with its entries, so a large H's roundoff is not refused
    circuit, h, rho = ansatz_instance(6, 8)
    extra = [(PauliWord.from_string("XYIIII"), 0.3), (PauliWord.from_string("YYIIZI"), 0.2)]
    h = Hamiltonian(6, [*h.terms(), *extra])
    big = Hamiltonian(6, [(word, 1e8 * coeff) for word, coeff in h.terms()])
    rng = np.random.default_rng(1)
    theta = {p: rng.uniform(0, 2 * np.pi, 8) for p in circuit.parameters()}
    want = 1e8 * noisy_mean_value(circuit, h, rho, theta, 0.2)
    got = noisy_mean_value(circuit, big, rho, theta, 0.2)
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    first = {p: float(angles[0]) for p, angles in theta.items()}
    assert noisy_mean_value(circuit, big, rho, first, 0.2) == pytest.approx(
        want[0], rel=1e-12, abs=0
    )


@pytest.mark.parametrize("samples", [None, 385])
def test_mean_value_checks_and_enters_once_per_call(monkeypatch, samples):
    # the run's checks, the state's entry coordinates and the plan, with one
    # gather per distinct Clifford layer, are built once per call, whatever
    # the chunk count: at n = 4 a chunk holds 128 samples; the one-qubit
    # site operators of all rotation layers come from one stacked
    # `_rotation_sites` build per chunk, not one per layer
    oracle._clifford_site("CNOT")  # cached before the count starts
    calls = {"_check_run": 0, "_entry": 0, "_gather": 0, "_layers": 0, "_rotation_sites": 0}
    for name in calls:

        def counting(*args, _name=name, _original=getattr(oracle, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counting)
    circuit, h, rho = ansatz_instance(4, 6)
    cliffords = [layer.cliffords for layer in circuit.layers if layer.cliffords]
    assert sum(1 for layer in circuit.layers if layer.rotations) == 3
    assert len(cliffords) == 3 and len(set(cliffords)) == 2
    rng = np.random.default_rng(2)
    theta = {p: rng.uniform(-3.0, 3.0, samples) for p in circuit.parameters()}
    if samples is None:
        theta = {p: float(angle) for p, angle in theta.items()}
    values = noisy_mean_value(circuit, h, rho, theta, 0.2)
    chunks = 1 if samples is None else -(-samples // (oracle.CHUNK_ENTRIES >> 8))
    assert np.shape(values) == (() if samples is None else (samples,))
    assert calls == {
        "_check_run": 1,
        "_entry": 1,
        "_gather": 2,
        "_layers": chunks,
        "_rotation_sites": chunks,
    }


def _per_site_layer(tensor, noise, layer, assignment):
    """A layer by the per-site route: the noise product, then each gate in
    layer order: a Clifford by the einsum reference of its dense site
    operator, which is exact for a signed permutation, and a one-qubit
    rotation by `_apply` of its operator, built on its own."""
    n = noise.ndim
    tensor = tensor * noise
    for gate in layer.gates:
        axes = [n + 1 - q for q in gate.support]
        if isinstance(gate, CliffordGate):
            tensor = _einsum_apply(tensor, oracle._clifford_site(gate.kind), axes)
        else:
            angle = gate.angle if gate.param is None else assignment[gate.param]
            letter = "IXYZ".index(gate.generator.letter(gate.support[0]))
            op = oracle._rotation_sites(np.array([letter]), np.array([angle]))[0]
            tensor = oracle._apply(tensor, op, axes[0])
    return tensor


def _gathered_layer(tensor, noise, layer, assignment):
    plan = oracle._plan([layer], noise, noise.ndim)
    return oracle._layers(plan, tensor, noise, assignment)


def _rotation(n, qubit, letter, **angle):
    return RotationGate(PauliWord.from_map(n, {qubit: letter}), **angle)


@pytest.mark.parametrize("samples", [1, 8])
def test_gather_equals_the_per_site_route(samples):
    # a Clifford site operator is a signed permutation, so one gather with
    # the noise round folded in, and the rotations after it, give the
    # per-site route's result bit for bit: CNOT layers at offsets 1 and 2,
    # reversed and between non-adjacent qubits, an S layer, and layers
    # that mix Cliffords with rotations on a symbol and at a bound angle
    n = 5
    rng = np.random.default_rng(samples)
    tensor = rng.normal(size=(samples, *(4,) * n))
    noise = oracle._noise_round(n, 0.3)
    assignment = {"a": rng.uniform(-7.0, 7.0, samples), "b": rng.uniform(-7.0, 7.0, samples)}
    if samples == 1:
        assignment = {p: float(angles[0]) for p, angles in assignment.items()}

    def cnot(control, target):
        return CliffordGate("CNOT", (control, target))

    layers = [
        (cnot(1, 2), cnot(3, 4)),
        (cnot(2, 3), cnot(4, 5)),
        (cnot(2, 1), cnot(5, 4)),
        (cnot(1, 3), cnot(5, 2)),
        (CliffordGate("S", (1,)), CliffordGate("S", (3,)), CliffordGate("S", (4,))),
        (_rotation(n, 3, "X", param="a"), cnot(1, 2), CliffordGate("S", (4,)),
         _rotation(n, 5, "Z", angle=0.7)),
        (cnot(4, 1), _rotation(n, 2, "Y", param="b"), CliffordGate("S", (3,)),
         _rotation(n, 5, "X", param="a")),
    ]
    for gates in layers:
        layer = Layer(gates)
        got = _gathered_layer(tensor, noise, layer, assignment)
        want = _per_site_layer(tensor, noise, layer, assignment)
        assert got.shape == want.shape == (samples, *(4,) * n)
        assert np.array_equal(got, want), gates


@pytest.mark.parametrize("samples", [1, 8])
def test_gather_on_h_layers_stays_within_the_snapped_roundoff(samples):
    # H's site operator has non-zeros of +-(1 - 2^-52), which the gather
    # reads as +-1; the per-site route multiplies each entry by one of them
    # per H gate, each product rounded, so with u = 2^-53 the two routes
    # differ by at most 3 h u |gathered| on a layer of h H gates
    n = 5
    unit = np.finfo(float).eps / 2
    site = oracle._clifford_site("H")
    assert np.all(np.abs(site[site != 0]) < 1)
    rng = np.random.default_rng(samples + 10)
    tensor = rng.normal(size=(samples, *(4,) * n))
    noise = oracle._noise_round(n, 0.3)
    for gates in (
        tuple(CliffordGate("H", (q,)) for q in (1, 2, 4)),
        (CliffordGate("H", (5,)), CliffordGate("CNOT", (3, 1)), CliffordGate("S", (2,))),
    ):
        layer = Layer(gates)
        h = sum(gate.kind == "H" for gate in gates)
        _, factor = oracle._gather(layer.cliffords, noise, n)
        assert np.array_equal(np.abs(factor), noise.reshape(-1))
        got = _gathered_layer(tensor, noise, layer, {})
        want = _per_site_layer(tensor, noise, layer, {})
        assert np.all(np.abs(got - want) <= 3 * h * unit * np.abs(got)), gates
        assert not np.array_equal(got, want)


def test_gather_refuses_an_operator_that_is_not_a_signed_permutation(monkeypatch):
    # the gather is read off the dense site operator, which must have one
    # non-zero per row and column, each +-1 within IMAG_TOL
    circuit = Circuit(2, (Layer((CliffordGate("S", (1,)),)),))
    h = Hamiltonian(2, [(PauliWord.from_string("XZ"), 1.0)])
    rho = SparseDensity.computational_basis(2)
    assert noisy_mean_value(circuit, h, rho, {}, 0.1) == 0.0
    # uncached, so that the reading sees each patched operator
    monkeypatch.setattr(oracle, "_signed_permutation", oracle._signed_permutation.__wrapped__)
    rotation = oracle._rotation_sites(np.array([1]), np.array([0.3]))[0]
    for op in (rotation, oracle._clifford_site("S") / 2, np.eye(4)[[0, 0, 2, 3]]):
        monkeypatch.setattr(oracle, "_clifford_site", lambda kind, _op=op: _op)
        with pytest.raises(ValueError, match="^the S site operator is not a signed permutation$"):
            noisy_mean_value(circuit, h, rho, {}, 0.1)


def _gamma(m):
    """The bound gamma_m = m u / (1 - m u), u = 2^-53, on the relative
    roundoff of a sum of m products."""
    unit = np.finfo(float).eps / 2
    return m * unit / (1 - m * unit)


def _dense_words(n):
    """Conftest's dense matrix of every n-qubit word, at its flat
    coordinate index: qubit q's letter is base-4 digit q - 1."""
    letters = ("".join("IXYZ"[(b >> 2 * q) & 3] for q in range(n)) for b in range(4**n))
    return np.array([dense_word(PauliWord.from_string(text)) for text in letters])


def _dense_site(u):
    """Tr(sigma_a U sigma_b U^dag) / 2 from conftest's one-qubit matrices,
    and the same sum taken over absolute values."""
    paulis = np.array([_1Q[letter] for letter in "IXYZ"])
    return [
        np.einsum("aij,jk,bkl,li->ab", *map(part, (paulis, u, paulis, u.conj().T))).real / 2
        for part in (np.asarray, np.abs)
    ]


def _dense_rotation(tensor, generator, angle):
    """The Pauli coordinates of U M U^dag, for M the matrices of an
    (S,) + (4,)*n coordinate tensor and U = cos(t/2) I - i sin(t/2) G, all
    from conftest's dense words; and the same sums taken over absolute
    values, which bound the size of each coordinate's terms."""
    n = tensor.ndim - 1
    words = _dense_words(n)
    half = np.reshape(angle, (-1, 1, 1)) / 2
    u = np.cos(half) * np.eye(2**n) - 1j * np.sin(half) * dense_word(generator)
    udag = u.conj().transpose(0, 2, 1)
    coords = tensor.reshape(len(tensor), -1)
    out = []
    for part in (np.asarray, np.abs):
        mat = np.einsum("sb,bij->sij", part(coords), part(words)) / 2**n
        out.append(np.einsum("aij,sji->sa", part(words), part(u) @ mat @ part(udag)))
    want, size = out
    return want.real.reshape(-1, *tensor.shape[1:]), size.real.reshape(-1, *tensor.shape[1:])


@pytest.mark.parametrize("samples", [None, 5])
def test_rotation_rule_matches_dense_conjugation(samples):
    # the rotation rule against conftest's dense U = cos(t/2) I - i sin(t/2)
    # sigma: each letter's one-qubit operator against Tr(sigma_a U sigma_b
    # U^dag) / 2, and rotations on 2 and 3 letters, through the plan, against
    # conjugation by U, at float angles and at one angle per sample.  The
    # dense route rounds each coordinate at most m times relative to the
    # sizes of its terms (sum |terms|, taken over absolute values), m = 16
    # on one qubit and m = 2 (2 * 4^n + 2 * 2^n) on n qubits (four nested
    # sums, complex parts doubled), and the rule's few roundings fall within
    # that, so the two routes differ by at most 2 gamma_m sum |terms|
    rng = np.random.default_rng(21)
    angles = rng.uniform(-7.0, 7.0, (4, samples or 1))
    if samples is None:
        angles = angles[:, 0]
    sites = oracle._rotation_sites(np.arange(4), angles)
    for g, letter in enumerate("IXYZ"):
        for t, site in zip(np.atleast_1d(angles[g]), sites[g].reshape(-1, 4, 4)):
            want, size = _dense_site(np.cos(t / 2) * _1Q["I"] - 1j * np.sin(t / 2) * _1Q[letter])
            assert np.all(np.abs(site - want) <= 2 * _gamma(16) * size), (letter, t)
    n = 4
    tensor = rng.normal(size=(samples or 3, *(4,) * n))
    noise = oracle._noise_round(n, 0.0)
    for letters in ("XIYI", "IZXI", "YZIX", "ZYXI", "IXIZ"):
        generator = PauliWord.from_string(letters)
        angle = rng.uniform(-7.0, 7.0, samples) if samples else float(rng.uniform(-7.0, 7.0))
        layer = Layer((RotationGate(generator, param="a"),))
        got = _gathered_layer(tensor, noise, layer, {"a": angle})
        want, size = _dense_rotation(tensor, generator, angle)
        assert got.shape == want.shape == tensor.shape
        bound = 2 * _gamma(2 * (2 * 4**n + 2 * 2**n)) * size
        assert np.all(np.abs(got - want) <= bound), letters


def _einsum_apply(tensor, op, axes):
    """`_apply`'s contraction spelled out for `np.einsum`, one label per
    axis: digit j of op's index is on axes[j], its top digit first in the
    reshaped op, and a per-sample op shares the sample label."""
    k, d = len(axes), tensor.shape[axes[0]]
    if op.ndim == 3:
        tensor = np.broadcast_to(tensor, (len(op), *tensor.shape[1:]))
    new = {axis: 40 + j for j, axis in enumerate(axes)}
    labels = list(range(tensor.ndim))
    op_labels = [0] * (op.ndim == 3) + [new[a] for a in axes[::-1]] + axes[::-1]
    op = op.reshape(*op.shape[:-2], *(d,) * (2 * k))
    return np.einsum(op, op_labels, tensor, labels, [new.get(a, a) for a in labels])


def _roundoff(tensor, op, axes):
    """Twice the bound gamma_m sum |op_ij x_j| on the roundoff of each
    entry of a sum of m = 4 real products, as in the contraction and in
    the reference alike."""
    return 2 * _gamma(op.shape[-1]) * _einsum_apply(np.abs(tensor), np.abs(op), axes)


def _site_stack(rng, size):
    """(size, 4, 4) one-qubit rotation site operators at random angles and
    generators."""
    letters = rng.integers(1, 4, size)
    return oracle._rotation_sites(letters, rng.uniform(-7.0, 7.0, size))


def test_apply_matches_einsum_reference():
    # every way `_apply` is called: each axis, the last included, by a
    # shared op and by one op per sample, also on a batch of one spread to
    # S.  Clifford operators are signed permutations, so those results are
    # exact
    rng = np.random.default_rng(5)
    n, size = 4, 3
    tensor = rng.normal(size=(size, *(4,) * n))
    one = tensor[:1]
    shared, stack = _site_stack(rng, 1)[0], _site_stack(rng, size)
    cliffords = [oracle._clifford_site(kind) for kind in ("H", "S")]
    for axis in range(1, n + 1):
        for x, op in ((tensor, shared), (tensor, stack), (one, stack), (one, shared)):
            got = oracle._apply(x, op, axis)
            want = _einsum_apply(x, op, [axis])
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= _roundoff(x, op, [axis])), axis
        for op in cliffords:
            got = oracle._apply(tensor, op, axis)
            assert np.array_equal(got, _einsum_apply(tensor, op, [axis])), axis


def test_entry_coordinates_match_the_dense_conversion():
    # the state enters from its entries, summed one qubit at a time over
    # the digits present; the matrix route sums each coordinate's exact
    # terms in another order, so the two agree within twice gamma_E sum |v|
    # for E entries, and exactly where each coordinate has at most two terms
    rng = np.random.default_rng(3)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    mat = a @ a.conj().T / np.trace(a @ a.conj().T).real
    dense = SparseDensity(4, [(k, b, mat[k, b]) for k in range(16) for b in range(16)])
    pure = SparseDensity(3, [(1, 1, 0.6), (6, 6, 0.4), (1, 6, 0.3 - 0.2j), (6, 1, 0.3 + 0.2j)])
    for rho in (dense, pure, SparseDensity.computational_basis(5, 19)):
        entries = rho.entries()
        want = oracle._hermitian_coordinates(state_matrix(rho), rho.n, "matrix route")
        got = oracle._entry(rho)
        assert got.shape == want.shape == (1, *(4,) * rho.n)
        bound = 2 * _gamma(len(entries)) * sum(abs(v) for _, _, v in entries)
        assert np.max(np.abs(got - want)) <= bound
        if len(entries) <= 4:
            assert np.array_equal(got, want)


def test_cap_guard(monkeypatch):
    n = 11
    circuit = Circuit(
        n, (Layer((RotationGate(PauliWord.from_map(n, {1: "X"}), param="a"),)),)
    )
    h = Hamiltonian(n, [(PauliWord.from_map(n, {1: "Z"}), 1.0)])
    rho = SparseDensity.computational_basis(n)
    with pytest.raises(OracleCapError):
        noisy_mean_value(circuit, h, rho, {"a": 0.5}, 0.0)
    # a raised cap admits the same instance
    monkeypatch.setattr(oracle, "ORACLE_CAP", 11)
    assert noisy_mean_value(circuit, h, rho, {"a": 0.0}, 0.0) == pytest.approx(1.0)


def test_state_factor_is_overlap():
    rho = SparseDensity(1, [(0, 0, 0.5), (1, 1, 0.5), (0, 1, 0.25), (1, 0, 0.25)])
    for s in "IXYZ":
        word = PauliWord.from_string(s)
        assert state_factor(rho, word) == pytest.approx(rho.overlap(word))


def test_observable_factor_normalization():
    # Tr(H N(w)) / 2^n reduces to the damped coefficient of w
    h = Hamiltonian(2, [(PauliWord.from_string("XZ"), 0.8)])
    word = PauliWord.from_string("XZ")
    assert observable_factor(h, word, lam=0.0) == pytest.approx(0.8)
    assert observable_factor(h, word, lam=0.25) == pytest.approx(0.8 * 0.75**2)
    assert observable_factor(h, PauliWord.from_string("XI"), lam=0.0) == pytest.approx(0.0)


def _rx_layer(n=1):
    return Layer((RotationGate(PauliWord.from_map(n, {1: "X"}), param="a"),))


_Z, _ZZ = PauliWord.from_string("Z"), PauliWord.from_string("ZZ")


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: observable_factor(Hamiltonian(1, [(_Z, 1.0)]), _Z, 2.0), "noise rate"),
        (lambda: transition_factor(_rx_layer(), {"a": 0.3}, 1, _Z, _Z, lam=-0.5), "noise rate"),
        (lambda: transition_factor(_rx_layer(), {"a": 0.3}, 1, _Z, _Z, lam=float("nan")),
         "noise rate"),
        (lambda: transition_factor(_rx_layer(), {}, 1, _Z, _Z), "parameter 'a' needs"),
        (lambda: transition_factor(_rx_layer(), {"a": float("inf")}, 1, _Z, _Z),
         "parameter 'a' needs"),
        (lambda: transition_factor(_rx_layer(2), {"a": 0.3}, 1, _Z, _Z),
         "generator is on 2 qubits, circuit has 1"),
        (lambda: transition_factor(_rx_layer(), {"a": 0.3}, 1, _ZZ, _Z),
         "^word ZZ is on 2 qubits, the run has 1$"),
        (lambda: transition_factor(_rx_layer(), {"a": 0.3}, 1, _Z, _ZZ),
         "^word ZZ is on 2 qubits, the run has 1$"),
        (lambda: observable_factor(Hamiltonian(1, [(_Z, 1.0)]), _ZZ),
         "^word ZZ is on 2 qubits, the run has 1$"),
        (lambda: state_factor(SparseDensity.computational_basis(1), _ZZ),
         "^word ZZ is on 2 qubits, the run has 1$"),
    ],
    ids=[
        "observable-rate", "transition-rate", "transition-nan-rate", "missing-angle",
        "infinite-angle", "layer-qubits", "prev-word", "next-word", "observable-word",
        "state-word",
    ],
)
def test_factor_checks_refuse_malformed_input(call, match):
    # the per-path factor checks run the package's input rules before any
    # work, as a dense run does: the noise rate, the layer against n and
    # its angles, and each word's qubit count, named in the message
    with pytest.raises(ValueError, match=match):
        call()


def test_factor_checks_run_before_the_cap():
    # a malformed input is reported as such, even beyond the cap
    n = oracle.ORACLE_CAP + 1
    word = PauliWord.from_map(n, {1: "Z"})
    with pytest.raises(ValueError, match="noise rate"):
        transition_factor(_rx_layer(n), {"a": 0.3}, n, word, word, lam=1.5)
    with pytest.raises(ValueError, match=f"^word Z is on 1 qubits, the run has {n}$"):
        state_factor(SparseDensity.computational_basis(n), _Z)
    with pytest.raises(OracleCapError):
        transition_factor(_rx_layer(n), {"a": 0.3}, n, word, word)


def test_transition_factor_single_rotation():
    # R_X on |Z>: cos branch keeps Z, sin branch moves to Y with known sign
    layer = Layer((RotationGate(PauliWord.from_string("X"), param="a"),))
    theta = {"a": 0.9}
    z, y = PauliWord.from_string("Z"), PauliWord.from_string("Y")
    assert transition_factor(layer, theta, 1, z, z) == pytest.approx(np.cos(0.9))
    got_sin = transition_factor(layer, theta, 1, y, z)
    assert abs(got_sin) == pytest.approx(abs(np.sin(0.9)))


def test_evolve_noisy_matches_dense_channel():
    circuit, h, rho, theta = random_certified_instance(12)
    lam = 0.2
    got = evolve_noisy(circuit, rho, theta, lam).reshape(2**circuit.n, 2**circuit.n)
    expected = dense_state(rho)
    for layer in circuit.layers:
        expected = dense_depolarize(expected, circuit.n, lam)
        u = dense_layer_unitary(layer, circuit.n, theta)
        expected = u @ expected @ u.conj().T
    expected = dense_depolarize(expected, circuit.n, lam)
    assert np.allclose(got, expected)
    assert np.trace(got) == pytest.approx(1.0)
    assert np.allclose(got, got.conj().T)
    assert hamiltonian_matrix(h).shape == got.shape
