"""CLI modes end to end, driven through main() with files in tmp_path."""

import csv
import io
import json
import math
from pathlib import Path

import pytest

from paulipath import cli, estimator, observables
from paulipath.engine import ResourceLimitError


@pytest.fixture()
def files(tmp_path):
    """A small certified two-qubit instance on disk."""
    circuit = {
        "n": 2,
        "layers": [
            {"gates": [
                {"kind": "rot", "pauli": "XI", "param": "a"},
                {"kind": "rot", "pauli": "IZ", "param": "b"},
            ]},
            {"gates": [{"kind": "CNOT", "control": 1, "target": 2}]},
            {"gates": [
                {"kind": "rot", "pauli": "ZI", "param": "c"},
                {"kind": "rot", "pauli": "IX", "param": "d"},
            ]},
            {"gates": [{"kind": "H", "qubit": 1}, {"kind": "rot", "pauli": "IY", "param": "e"}]},
        ],
    }
    hamiltonian = {
        "n": 2,
        "terms": [
            {"pauli": "ZI", "coeff": 1.0},
            {"pauli": "XZ", "coeff": -0.5},
            {"pauli": "II", "coeff": 0.25},
        ],
    }
    state = {"n": 2, "entries": [{"ket": "00", "bra": "00", "re": 1.0}]}
    params = {"a": 0.3, "b": 1.1, "c": 2.0, "d": 0.7, "e": 1.9}
    paths = {}
    for name, doc in (
        ("circuit", circuit),
        ("hamiltonian", hamiltonian),
        ("state", state),
        ("params", params),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_document(files, capsys):
    code, out, _ = _run(
        capsys,
        [
            "--mode", "estimate",
            "--circuit", files["circuit"],
            "--hamiltonian", files["hamiltonian"],
            "--state", files["state"],
            "--params", files["params"],
            "--lambda", "0.1",
            "--trunc-m", "8",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["mode"] == "estimate"
    assert doc["config"]["lambda"] == 0.1
    assert doc["m_selection"]["m"] == 8
    assert doc["theta"]["a"] == 0.3
    assert not doc["theta_drawn"]
    report = doc["report"]
    assert report["untruncated"] is False
    assert report["generation_certified"] is True
    assert report["mse_bound"] <= report["mse_bound_exp"]
    assert isinstance(report["value"], float)


def test_estimate_seed_draws_params(files, capsys):
    argv = [
        "--mode", "estimate",
        "--circuit", files["circuit"],
        "--hamiltonian", files["hamiltonian"],
        "--lambda", "0.0",
        "--trunc-m", "10",
        "--seed", "42",
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["theta_drawn"]
    assert set(doc["theta"]) == {"a", "b", "c", "d", "e"}
    assert all(0 <= v < 2 * math.pi for v in doc["theta"].values())
    # same seed, same draw
    code2, out2, _ = _run(capsys, argv)
    assert json.loads(out2)["theta"] == doc["theta"]


def test_estimate_without_params_or_seed_fails(files, capsys):
    code, _, err = _run(
        capsys,
        [
            "--mode", "estimate",
            "--circuit", files["circuit"],
            "--hamiltonian", files["hamiltonian"],
            "--lambda", "0.1",
        ],
    )
    assert code == 2
    assert "params" in err or "seed" in err


def test_estimate_without_parameters_needs_neither_params_nor_seed(files, capsys):
    # bound angles only; the four generators certify the circuit
    circuit = {"n": 2, "layers": [
        {"gates": [
            {"kind": "rot", "pauli": "XI", "angle": 0.4},
            {"kind": "rot", "pauli": "IZ", "angle": 1.1},
        ]},
        {"gates": [
            {"kind": "rot", "pauli": "ZI", "angle": 2.0},
            {"kind": "rot", "pauli": "IX", "angle": 0.7},
        ]},
    ]}
    path = files["dir"] / "bound.json"
    path.write_text(json.dumps(circuit))
    code, out, _ = _run(
        capsys,
        [
            "--mode", "estimate",
            "--circuit", str(path),
            "--hamiltonian", files["hamiltonian"],
            "--lambda", "0.1",
            "--trunc-m", "4",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["theta"] == {}
    assert doc["theta_drawn"] is False


def test_estimate_target_mse_selects_m(files, capsys, monkeypatch):
    # m selection and the report's certificate share one dense norm bound
    shapes = []
    build = observables.pauli_sum_matrix

    def recording(*args, **kwargs):
        matrix = build(*args, **kwargs)
        shapes.append(matrix.shape)
        return matrix

    monkeypatch.setattr(observables, "pauli_sum_matrix", recording)
    code, out, _ = _run(
        capsys,
        [
            "--mode", "estimate",
            "--circuit", files["circuit"],
            "--hamiltonian", files["hamiltonian"],
            "--params", files["params"],
            "--lambda", "0.2",
            "--target-mse", "0.05",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    chosen = doc["m_selection"]["selection"]["m"]
    assert chosen >= 5  # never below depth + 1
    assert doc["report"]["m"] == chosen
    # H = ZI - 0.5 XZ commutes with ZX, so its one bound is two blocks
    assert shapes == [(2, 2)] * 2


def test_m_flags_mutually_exclusive(files, capsys):
    code, _, err = _run(
        capsys,
        [
            "--mode", "estimate",
            "--circuit", files["circuit"],
            "--hamiltonian", files["hamiltonian"],
            "--params", files["params"],
            "--lambda", "0.2",
            "--trunc-m", "6",
            "--target-mse", "0.05",
        ],
    )
    assert code == 2


def test_out_writes_file(files, capsys):
    out_path = files["dir"] / "report.json"
    code, out, _ = _run(
        capsys,
        [
            "--mode", "estimate",
            "--circuit", files["circuit"],
            "--hamiltonian", files["hamiltonian"],
            "--params", files["params"],
            "--lambda", "0.1",
            "--trunc-m", "8",
            "--out", str(out_path),
        ],
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["report"]["m"] == 8


def test_choose_m_mode(files, capsys):
    code, out, _ = _run(
        capsys,
        [
            "--mode", "choose-m",
            "--circuit", files["circuit"],
            "--hamiltonian", files["hamiltonian"],
            "--lambda", "0.1",
            "--epsilon", "0.1",
            "--delta", "0.04",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["selection"]["m"] >= 5
    assert doc["norm_bound"]["kind"] == "exact-dense"


@pytest.mark.parametrize(
    "lam, terms, flags, message",
    [
        ("0", None, ["--target-mse=-1.0"], "target MSE must be positive, got -1.0"),
        ("0", None, ["--epsilon=-1.0", "--delta=5.0"], "need epsilon > 0 and 0 < delta < 1"),
        (
            "0.3",
            [{"pauli": "II", "coeff": 0.5}],
            ["--epsilon=-1.0", "--delta=5.0"],
            "need epsilon > 0 and 0 < delta < 1",
        ),
    ],
    ids=["no-noise-target-mse", "no-noise-eps-delta", "zero-norm-eps-delta"],
)
def test_choose_m_mode_refuses_a_criterion_out_of_range(
    files, capsys, tmp_path, lam, terms, flags, message
):
    # lambda = 0 and an identity-only H have answers of their own, but an
    # out-of-range criterion is refused first
    hamiltonian = files["hamiltonian"]
    if terms is not None:
        hamiltonian = tmp_path / "identity.json"
        hamiltonian.write_text(json.dumps({"n": 2, "terms": terms}))
    code, out, err = _run(
        capsys,
        ["--mode", "choose-m", "--hamiltonian", str(hamiltonian), "--lambda", lam, *flags],
    )
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_oracle_check_agrees(files, capsys):
    code, out, _ = _run(
        capsys,
        [
            "--mode", "oracle-check",
            "--circuit", files["circuit"],
            "--hamiltonian", files["hamiltonian"],
            "--state", files["state"],
            "--params", files["params"],
            "--lambda", "0.15",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["agrees"] is True
    assert doc["abs_difference"] <= 1e-9
    assert doc["estimate"]["untruncated"] is True


def test_oracle_check_mismatch_exit(files, capsys, monkeypatch):
    monkeypatch.setattr(cli, "noisy_mean_value", lambda *a, **k: 123.0)
    code, out, _ = _run(
        capsys,
        [
            "--mode", "oracle-check",
            "--circuit", files["circuit"],
            "--hamiltonian", files["hamiltonian"],
            "--params", files["params"],
            "--lambda", "0.15",
        ],
    )
    assert code == 1
    assert json.loads(out)["agrees"] is False


def _norm_bound_tripwire(monkeypatch):
    def tripwire(*args, **kwargs):
        pytest.fail("norm bound computed")

    monkeypatch.setattr(cli, "norm_bound", tripwire)
    monkeypatch.setattr(estimator, "norm_bound", tripwire)


def test_oracle_cap_exit(tmp_path, capsys, monkeypatch):
    # the cap is checked before the estimate's norm bound (dense at n = 11),
    # and malformed input still exits 2 before the cap
    _norm_bound_tripwire(monkeypatch)
    n = 11
    circuit = {
        "n": n,
        "layers": [
            {"gates": [{"kind": "rot", "pauli": "X" + "I" * (n - 1), "param": "a"}]},
            {"gates": [{"kind": "rot", "pauli": "Z" + "I" * (n - 1), "param": "b"}]},
        ],
    }
    hamiltonian = {"n": n, "terms": [{"pauli": "Z" + "I" * (n - 1), "coeff": 1.0}]}
    state = {"n": 1, "entries": [{"ket": "0", "bra": "0", "re": 1.0}]}
    cpath = tmp_path / "c.json"
    hpath = tmp_path / "h.json"
    spath = tmp_path / "s.json"
    cpath.write_text(json.dumps(circuit))
    hpath.write_text(json.dumps(hamiltonian))
    spath.write_text(json.dumps(state))
    argv = [
        "--mode", "oracle-check",
        "--circuit", str(cpath),
        "--hamiltonian", str(hpath),
        "--seed", "1",
    ]
    code, _, err = _run(capsys, argv + ["--lambda", "0.1"])
    assert code == 4
    assert "cap" in err.lower() or "qubit" in err.lower()
    code, _, err = _run(capsys, argv + ["--lambda", "1.5"])
    assert code == 2 and "noise rate must lie in [0, 1]" in err
    code, _, err = _run(capsys, argv + ["--lambda", "0.1", "--state", str(spath)])
    assert code == 2 and "state on 1 qubits, circuit has 11" in err
    hamiltonian["terms"] = [dict(term, coeff=1e200) for term in 2 * hamiltonian["terms"]]
    hamiltonian["terms"][1]["pauli"] = "IZ" + "I" * (n - 2)
    hpath.write_text(json.dumps(hamiltonian))
    code, _, err = _run(capsys, argv + ["--lambda", "0.1"])
    assert code == 2 and "coefficients overflow" in err


@pytest.mark.parametrize("operand", ["observable", "state"])
@pytest.mark.parametrize(
    "mode_args",
    [
        ["--mode", "estimate", "--trunc-m", "8"],
        ["--mode", "mse-benchmark", "--trunc-m", "8", "--seed", "1", "--samples", "4"],
        ["--mode", "oracle-check"],
        ["--mode", "path-dump", "--trunc-m", "8"],
    ],
    ids=["estimate", "mse-benchmark", "oracle-check", "path-dump"],
)
def test_mismatched_instance_exits_2_before_any_work(
    files, capsys, tmp_path, monkeypatch, mode_args, operand
):
    # at lambda = 1 the estimate never walks the paths; the instance is
    # still checked first, before any norm bound
    _norm_bound_tripwire(monkeypatch)
    wide = tmp_path / "wide.json"
    if operand == "observable":
        wide.write_text(json.dumps({"n": 3, "terms": [{"pauli": "ZIZ", "coeff": 1.0}]}))
        inputs = ["--hamiltonian", str(wide), "--state", files["state"]]
    else:
        wide.write_text(
            json.dumps({"n": 3, "entries": [{"ket": "000", "bra": "000", "re": 1.0}]})
        )
        inputs = ["--hamiltonian", files["hamiltonian"], "--state", str(wide)]
    code, out, err = _run(
        capsys,
        mode_args
        + inputs
        + ["--circuit", files["circuit"], "--params", files["params"], "--lambda", "1"],
    )
    assert code == 2 and out == ""
    assert f"{operand} on 3 qubits, circuit has 2" in err


def test_resource_limit_exit(files, capsys, monkeypatch):
    def boom(*a, **k):
        raise ResourceLimitError("more than 3 paths survive truncation")

    monkeypatch.setattr(cli, "estimate", boom)
    code, _, err = _run(
        capsys,
        [
            "--mode", "estimate",
            "--circuit", files["circuit"],
            "--hamiltonian", files["hamiltonian"],
            "--params", files["params"],
            "--lambda", "0.1",
            "--trunc-m", "8",
        ],
    )
    assert code == 3


def test_invalid_circuit_exit(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "layers": [{"gates": [{"kind": "wat"}]}]}))
    code, _, err = _run(
        capsys,
        [
            "--mode", "estimate",
            "--circuit", str(bad),
            "--hamiltonian", files["hamiltonian"],
            "--params", files["params"],
            "--lambda", "0.1",
        ],
    )
    assert code == 2
    assert "wat" in err


def test_negative_trunc_m_exits_2(files, capsys):
    # exit 1 is reserved for an oracle-check disagreement
    code, out, err = _run(
        capsys,
        [
            "--mode", "estimate",
            "--circuit", files["circuit"],
            "--hamiltonian", files["hamiltonian"],
            "--params", files["params"],
            "--lambda", "1",
            "--trunc-m", "-1",
        ],
    )
    assert code == 2 and out == ""
    assert "truncation order must be a non-negative integer, got -1" in err


_OVERFLOWING_TERMS = [{"pauli": "ZI", "coeff": 1e308}, {"pauli": "IZ", "coeff": 1e308}]
# a finite 1-norm whose square, used by the MSE bounds, overflows
_SQUARE_OVERFLOWING_TERMS = [{"pauli": "ZI", "coeff": 1e200}, {"pauli": "IZ", "coeff": 1e200}]

_QUBIT_COUNT = "qubit count must be positive (an int >= 1, not a bool), got {!r}"
_QUBIT_INDEX = "must be a qubit index (an int, not a bool), got {!r}"
_FINITE_REAL = "must be a finite real number, got {!r}"
# A JSON boolean or a numeric string is not a number: every number field
# refuses one, naming its place, the field and the value.  Each entry is
# (document, keys to the field, message, a numeric string for the field).
_NOT_A_NUMBER_FIELDS = {
    "circuit-n": ("circuit", ["n"], _QUBIT_COUNT, "2"),
    "hamiltonian-n": (
        "hamiltonian", ["n"], "Hamiltonian needs a positive integer 'n': " + _QUBIT_COUNT, "2"
    ),
    "state-n": ("state", ["n"], "state needs a positive integer 'n': " + _QUBIT_COUNT, "2"),
    "qubit": (
        "circuit",
        ["layers", 3, "gates", 0, "qubit"],
        "layer 4, gate 1: qubit " + _QUBIT_INDEX,
        "1",
    ),
    "control": (
        "circuit",
        ["layers", 1, "gates", 0, "control"],
        "layer 2, gate 1: control " + _QUBIT_INDEX,
        "1",
    ),
    "target": (
        "circuit",
        ["layers", 1, "gates", 0, "target"],
        "layer 2, gate 1: target " + _QUBIT_INDEX,
        "2",
    ),
    "coeff": ("hamiltonian", ["terms", 1, "coeff"], "term 2: coeff " + _FINITE_REAL, "0.5"),
    "re": ("state", ["entries", 0, "re"], "entry 1: 're' " + _FINITE_REAL, "1"),
    "im": ("state", ["entries", 0, "im"], "entry 1: 'im' " + _FINITE_REAL, "0"),
    "params": ("params", ["a"], "params entry 'a' " + _FINITE_REAL, "0.3"),
}
_NOT_A_NUMBER = {
    f"{field}-{value!r}": ("estimate", doc, keys, value, [], message.format(value))
    for field, (doc, keys, message, text) in _NOT_A_NUMBER_FIELDS.items()
    for value in (True, False, text)
}
# an angle is one of two exclusive keys, so its rows replace the whole gate
_NOT_A_NUMBER.update(
    {
        f"angle-{value!r}": (
            "estimate",
            "circuit",
            ["layers", 0, "gates", 0],
            {"kind": "rot", "pauli": "XI", "angle": value},
            [],
            "layer 1, gate 1: angle " + _FINITE_REAL.format(value),
        )
        for value in (True, False, "0.5")
    }
)
# path-dump walks no estimate, so it checks the noise rate itself
_NOT_A_NUMBER.update(
    {
        f"path-dump-lambda-{lam}": (
            "path-dump",
            None,
            [],
            None,
            ["--lambda", lam, "--trunc-m", "8"],
            f"noise rate must lie in [0, 1], got {float(lam)}",
        )
        for lam in ("2", "-0.5", "nan")
    }
)


@pytest.mark.parametrize(
    "mode, doc, keys, value, flags, named",
    [
        ("estimate", "hamiltonian", ["terms", 1, "coeff"], math.nan, [], "term 2: coeff"),
        (
            "estimate",
            "circuit",
            ["layers", 0, "gates", 0],
            {"kind": "rot", "pauli": "XI", "angle": math.nan},
            [],
            "layer 1, gate 1: angle",
        ),
        ("estimate", "state", ["entries", 0, "re"], math.inf, [], "entry 1: 're'"),
        ("estimate", "params", ["a"], math.nan, [], "params entry 'a'"),
        ("path-dump", "params", ["a"], math.nan, [], "params entry 'a'"),
        ("oracle-check", "params", ["a"], math.nan, [], "params entry 'a'"),
        ("estimate", None, [], None, ["--target-mse", "nan"], "target_mse"),
        ("estimate", None, [], None, ["--target-mse", "inf"], "target_mse"),
        ("choose-m", None, [], None, ["--epsilon", "inf", "--delta", "0.1"], "epsilon"),
        # finite coefficients whose 1-norm overflows to inf
        ("estimate", "hamiltonian", ["terms"], _OVERFLOWING_TERMS, [], "coeff"),
        ("estimate", "hamiltonian", ["terms"], _OVERFLOWING_TERMS, ["--target-mse", "0.01"], "coeff"),
        ("estimate", "hamiltonian", ["terms"], _SQUARE_OVERFLOWING_TERMS, [], "coeff"),
        (
            "estimate",
            "hamiltonian",
            ["terms"],
            _SQUARE_OVERFLOWING_TERMS,
            ["--target-mse", "0.01"],
            "coeff",
        ),
        (
            "choose-m",
            "hamiltonian",
            ["terms"],
            _SQUARE_OVERFLOWING_TERMS,
            ["--target-mse", "0.01"],
            "coeff",
        ),
        *_NOT_A_NUMBER.values(),
    ],
    ids=[
        "coeff", "angle", "state", "params", "params-path-dump",
        "params-oracle-check", "target-mse-nan", "target-mse-inf", "epsilon-inf",
        "coeff-overflow-trunc-m", "coeff-overflow-target-mse",
        "norm-square-overflow-trunc-m", "norm-square-overflow-target-mse",
        "norm-square-overflow-choose-m",
        *_NOT_A_NUMBER,
    ],
)
def test_non_finite_input_exits_2_naming_the_field(
    files, capsys, tmp_path, mode, doc, keys, value, flags, named
):
    paths = dict(files)
    if doc is not None:
        data = json.loads(Path(files[doc]).read_text())
        target = data
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        bad = tmp_path / f"non_finite_{doc}.json"
        bad.write_text(json.dumps(data))  # NaN / Infinity, which json.load accepts
        paths[doc] = str(bad)
    code, out, err = _run(
        capsys,
        [
            "--mode", mode,
            "--circuit", paths["circuit"],
            "--hamiltonian", paths["hamiltonian"],
            "--state", paths["state"],
            "--params", paths["params"],
            "--lambda", "0.1",
            *(flags or ["--trunc-m", "8"]),
        ],
    )
    assert code == 2
    assert named in err
    assert out == ""


def test_size_mismatch_exit(files, capsys, tmp_path):
    small = tmp_path / "h1.json"
    small.write_text(json.dumps({"n": 1, "terms": [{"pauli": "Z", "coeff": 1.0}]}))
    code, _, err = _run(
        capsys,
        [
            "--mode", "estimate",
            "--circuit", files["circuit"],
            "--hamiltonian", str(small),
            "--params", files["params"],
            "--lambda", "0.1",
        ],
    )
    assert code == 2


def test_mse_benchmark_mode(files, capsys):
    argv = [
        "--mode", "mse-benchmark",
        "--circuit", files["circuit"],
        "--hamiltonian", files["hamiltonian"],
        "--lambda", "0.2",
        "--trunc-m", "6",
        "--samples", "40",
        "--seed", "7",
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["samples"] == 40
    assert doc["report"]["passed"] is True
    code2, out2, _ = _run(capsys, argv)
    assert out2 == out  # bit-for-bit reproducible given the seed


def test_mse_benchmark_requires_seed(files, capsys):
    code, _, err = _run(
        capsys,
        [
            "--mode", "mse-benchmark",
            "--circuit", files["circuit"],
            "--hamiltonian", files["hamiltonian"],
            "--lambda", "0.2",
            "--trunc-m", "6",
            "--samples", "40",
        ],
    )
    assert code == 2
    assert "seed" in err


def test_path_dump_contributions(files, capsys):
    code, out, _ = _run(
        capsys,
        [
            "--mode", "path-dump",
            "--circuit", files["circuit"],
            "--hamiltonian", files["hamiltonian"],
            "--state", files["state"],
            "--params", files["params"],
            "--lambda", "0.1",
            "--trunc-m", "8",
        ],
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    assert set(rows[0]) == {"weight", "factor_description", "contribution"}
    total = 0.0
    for r in rows:
        total += float(r["contribution"])
    # the dump lists exactly the terms of the truncated sum, in its order
    code2, out2, _ = _run(
        capsys,
        [
            "--mode", "estimate",
            "--circuit", files["circuit"],
            "--hamiltonian", files["hamiltonian"],
            "--state", files["state"],
            "--params", files["params"],
            "--lambda", "0.1",
            "--trunc-m", "8",
        ],
    )
    report = json.loads(out2)["report"]
    assert report["value"] == report["identity_offset"] + total
    assert all(int(r["weight"]) >= 5 for r in rows)  # depth + 1 minimum


def test_path_dump_rows_add_up_to_the_estimate(files, capsys):
    # bit for bit: the estimate is its identity offset plus the in-order
    # sum of the dumped contributions.  On this instance (the fixture's,
    # lambda 0.1, m 8, seed 0) a damping table built by repeated products
    # instead of (1 - lambda)^w misses the identity in the last bit.
    common = [
        "--circuit", files["circuit"],
        "--hamiltonian", files["hamiltonian"],
        "--lambda", "0.1",
        "--trunc-m", "8",
        "--seed", "0",
    ]
    code, out, _ = _run(capsys, ["--mode", "path-dump", *common])
    assert code == 0
    total = 0.0
    for row in csv.DictReader(io.StringIO(out)):
        total += float(row["contribution"])
    code, out, _ = _run(capsys, ["--mode", "estimate", *common])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["identity_offset"] == 0.25
    assert report["value"] == report["identity_offset"] + total


def test_scaling_sweep_mode(capsys):
    code, out, _ = _run(
        capsys,
        [
            "--mode", "scaling-sweep",
            "--sweep-qubits", "2",
            "--depths", "4,6",
            "--target-mse", "0.25",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    arms = {row["arm"] for row in doc["rows"]}
    assert arms == {"inv-log", "inv-linear"}
    assert "inv_linear_log2_rate" in doc["fits"]
    # the inv-linear arm keeps the full census of 2^(depth - 1) paths
    census = {r["depth"]: r["paths_emitted"] for r in doc["rows"] if r["arm"] == "inv-linear"}
    assert census == {4: 8, 6: 32}


def test_float_formatting_round_trips(files, capsys):
    _, out, _ = _run(
        capsys,
        [
            "--mode", "estimate",
            "--circuit", files["circuit"],
            "--hamiltonian", files["hamiltonian"],
            "--params", files["params"],
            "--lambda", "0.1",
            "--trunc-m", "10",
        ],
    )
    doc = json.loads(out)
    reparsed = json.loads(json.dumps(doc))
    assert reparsed["report"]["value"] == doc["report"]["value"]


def test_estimate_epsilon_delta_document(files, capsys):
    code, out, _ = _run(
        capsys,
        [
            "--mode", "estimate",
            "--circuit", files["circuit"],
            "--hamiltonian", files["hamiltonian"],
            "--params", files["params"],
            "--lambda", "0.1",
            "--epsilon", "0.1",
            "--delta", "0.04",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["m_selection"]["kind"] == "epsilon-delta"
    assert doc["report"]["m"] == doc["m_selection"]["selection"]["m"]
    assert list(doc["report"]["eps_delta"].items()) == [("epsilon", 0.1), ("delta", 0.04)]


# (argv with C and H standing for the fixture's circuit and Hamiltonian
# files and D for its directory; the message)
_REFUSALS = {
    "missing-file": (
        ["--mode", "estimate", "--circuit", "D/absent.json", "--hamiltonian", "H"],
        "circuit file not found: D/absent.json",
    ),
    "invalid-json": (
        ["--mode", "estimate", "--circuit", "C", "--hamiltonian", "D/broken.json"],
        "Hamiltonian file D/broken.json is not valid JSON: ",
    ),
    "no-circuit": (["--mode", "estimate", "--hamiltonian", "H"], "this mode needs --circuit"),
    "no-hamiltonian": (["--mode", "path-dump", "--circuit", "C"], "this mode needs --hamiltonian"),
    "params-not-object": (
        ["--mode", "estimate", "--circuit", "C", "--hamiltonian", "H", "--params", "D/list.json",
         "--trunc-m", "8"],
        "params file must map symbols to radians",
    ),
    "mse-benchmark-lambda-0": (
        ["--mode", "mse-benchmark", "--circuit", "C", "--hamiltonian", "H", "--lambda", "0",
         "--target-mse", "0.01", "--seed", "1"],
        "mse-benchmark needs a finite truncation order; with --lambda 0 none is certified",
    ),
    "sweep-no-depths": (
        ["--mode", "scaling-sweep", "--target-mse", "0.25"], "scaling-sweep needs --depths"
    ),
    "sweep-bad-depths": (
        ["--mode", "scaling-sweep", "--depths", "3,x", "--target-mse", "0.25"],
        "cannot parse --depths '3,x'",
    ),
    "sweep-no-target-mse": (
        ["--mode", "scaling-sweep", "--depths", "3,4"], "scaling-sweep needs --target-mse"
    ),
    "sweep-zero-qubits": (
        ["--mode", "scaling-sweep", "--depths", "3,4", "--target-mse", "0.25",
         "--sweep-qubits", "0"],
        "qubit count must be positive (an int >= 1, not a bool), got 0",
    ),
    "negative-seed": (
        ["--mode", "estimate", "--circuit", "C", "--hamiltonian", "H", "--trunc-m", "8",
         "--seed", "-1"],
        "--seed must be a non-negative integer, got -1",
    ),
    "negative-seed-with-params": (
        ["--mode", "oracle-check", "--circuit", "C", "--hamiltonian", "H", "--params",
         "D/params.json", "--seed", "-1"],
        "--seed must be a non-negative integer, got -1",
    ),
    "mse-benchmark-negative-seed": (
        ["--mode", "mse-benchmark", "--circuit", "C", "--hamiltonian", "H", "--lambda", "0.2",
         "--trunc-m", "6", "--seed", "-1"],
        "--seed must be a non-negative integer, got -1",
    ),
    "choose-m-negative-seed": (
        ["--mode", "choose-m", "--hamiltonian", "H", "--lambda", "0.2", "--target-mse", "0.01",
         "--seed", "-1"],
        "--seed must be a non-negative integer, got -1",
    ),
    "sweep-depth-below-2": (
        ["--mode", "scaling-sweep", "--depths", "1,4", "--target-mse", "0.25"],
        "need at least two depths, all >= 2",
    ),
    "sweep-one-depth": (
        ["--mode", "scaling-sweep", "--depths", "4", "--target-mse", "0.25"],
        "need at least two depths, all >= 2",
    ),
}


def test_unwritable_out_exits_2_naming_the_file(files, capsys):
    # the document is computed, but its file cannot be opened: a usage
    # error with one `error:` line, not a traceback and not exit 1
    out_path = f"{files['dir']}/missing/x.json"
    code, out, err = _run(
        capsys,
        [
            "--mode", "choose-m",
            "--hamiltonian", files["hamiltonian"],
            "--lambda", "0.2",
            "--target-mse", "0.01",
            "--out", out_path,
        ],
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and out_path in err


def test_unreadable_input_exits_2_naming_the_file(files, capsys):
    # a directory given as an input file is refused like a missing file
    directory = str(files["dir"])
    code, out, err = _run(
        capsys,
        ["--mode", "estimate", "--circuit", files["circuit"], "--hamiltonian", directory],
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and directory in err


@pytest.mark.parametrize("argv, message", list(_REFUSALS.values()), ids=list(_REFUSALS))
def test_refused_invocation_exits_2_naming_the_field(files, capsys, argv, message):
    directory = files["dir"]
    (directory / "broken.json").write_text('{"n": 2,')
    (directory / "list.json").write_text("[0.3, 1.1]")
    known = {"C": files["circuit"], "H": files["hamiltonian"]}
    argv = [known.get(a, a.replace("D/", f"{directory}/")) for a in argv]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: " + message.replace("D/", f"{directory}/"))
