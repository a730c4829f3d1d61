"""The benchmark's workloads: one instance family, one op per workload, and
the checks every op's output must pass.

Every workload is a closed loop with one caller and `workers=1`: the next
op starts when the previous one returns.  Op `i` of a run draws its inputs
from `numpy.random.default_rng([seed, i])`, so a seed fixes every input of
the run and every op sees fresh angles.

Times are drift-corrected.  On shared hardware the CPU speed one process
gets can wander by up to 2x over minutes, so a raw median of op times does
not repeat from run to run.  After every op and every set-up
the run times `Reference`, a fixed dense numpy computation that shares no
code with paulipath, and reports each op as
`raw seconds * REFERENCE_S / reference seconds`, with the reference
averaged over the timings just before and just after: seconds at the machine
speed at which the reference takes REFERENCE_S.  The reference runs no
paulipath code, so a change to paulipath moves the corrected time as it
moves the raw one.  The raw times are printed next to them.

Instance family `ansatz(n, depth)`: even layers (0-based) rotate every
qubit, alternating all-Y and all-Z; odd layers are a CNOT brickwork whose
offset alternates between 1 and 2.  H = sum Z_q Z_{q+1} + 0.5 sum X_q and
rho = |0...0>.  Every size used here passes the generation certificate.
"""

from __future__ import annotations

import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import Tracer, summarize

UNTRUNCATED_TOL = 1e-9  # untruncated estimate against the dense oracle
SETUP_REPEATS = 9
# Median of Reference.time() on the machine that recorded baseline.json
# (its "machine" record); it fixes the unit of the corrected times.
REFERENCE_S = 0.0135


@dataclass(frozen=True)
class Spec:
    """One workload at one size; `expect_*` are the exact counts its ops
    must reproduce."""

    name: str
    n: int
    depth: int
    lam: float
    expect_m: int
    target_mse: float = 1e-2
    expect_paths: int = 0  # paths_used of every estimate op
    samples: int = 0  # oracle-mse: samples per mse_benchmark call
    oracle_draws: int = 0  # ansatz-loop: ops whose value meets the oracle


WORKLOADS = {
    "ansatz-loop": Spec("ansatz-loop", 8, 12, 0.1, 44, expect_paths=1491, oracle_draws=4),
    "oracle-mse": Spec("oracle-mse", 6, 8, 0.2, 21, samples=64),
    "cli-dense-norm": Spec("cli-dense-norm", 10, 6, 0.2, 23, expect_paths=67),
}

# The same workloads at a size that runs in well under a second.
TINY = {
    "ansatz-loop": Spec("ansatz-loop", 4, 4, 0.3, 12, expect_paths=6, oracle_draws=3),
    "oracle-mse": Spec("oracle-mse", 3, 4, 0.3, 11, samples=8),
    "cli-dense-norm": Spec("cli-dense-norm", 4, 4, 0.3, 12, expect_paths=6),
}

# oracle-mse's instance; every run checks the untruncated sum against the
# dense oracle on it.
ORACLE_INSTANCE = (6, 8, 0.2)


class Reference:
    """Fixed dense work to time next to each op: two rounds of a kron
    chain to 256 x 256 and eigvalsh of a 192 x 192 Hermitian matrix."""

    def __init__(self) -> None:
        rng = np.random.default_rng(7)
        a = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
        self.matrix = a + a.conj().T
        self.flip = np.array([[0, 1], [1, 0]], dtype=complex)

    def time(self) -> float:
        started = time.perf_counter()
        for _ in range(2):
            m = np.ones((1, 1), dtype=complex)
            for _ in range(8):
                m = np.kron(m, self.flip)
            np.linalg.eigvalsh(self.matrix)
        return time.perf_counter() - started


def ansatz_documents(n: int, depth: int) -> tuple[dict, dict]:
    """Circuit and Hamiltonian of ansatz(n, depth) in the JSON input format."""

    def word(letters: dict[int, str]) -> str:
        return "".join(letters.get(q, "I") for q in range(1, n + 1))

    layers = []
    for li in range(depth):
        if li % 2 == 0:
            letter = "YZ"[(li // 2) % 2]
            gates = [
                {"kind": "rot", "pauli": word({q: letter}), "param": f"t{li}_{q}"}
                for q in range(1, n + 1)
            ]
        else:
            offset = 1 + (li // 2) % 2
            gates = [
                {"kind": "CNOT", "control": q, "target": q + 1}
                for q in range(offset, n, 2)
            ]
        layers.append({"gates": gates})
    terms = [{"pauli": word({q: "Z", q + 1: "Z"}), "coeff": 1.0} for q in range(1, n)]
    terms += [{"pauli": word({q: "X"}), "coeff": 0.5} for q in range(1, n + 1)]
    return {"n": n, "layers": layers}, {"n": n, "terms": terms}


def fresh_program():
    """Import paulipath anew, as a new process would; numpy stays loaded."""
    for name in [m for m in sys.modules if m == "paulipath" or m.startswith("paulipath.")]:
        del sys.modules[name]
    return importlib.import_module("paulipath")


def op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def draw_theta(params, rng: np.random.Generator) -> dict[str, float]:
    return {p: float(v) for p, v in zip(params, rng.uniform(0.0, 2.0 * math.pi, len(params)))}


class Workload:
    """Set-up, one op, and the checks of one workload."""

    def __init__(self, spec: Spec, seed: int, workdir: Path) -> None:
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.failures: list[str] = []

    def setup(self) -> None:
        """Import the program, build the instance from its documents."""
        spec = self.spec
        self.failures = []
        self.pp = fresh_program()
        self.circuit_doc, self.ham_doc = ansatz_documents(spec.n, spec.depth)
        self.circuit = self.pp.circuit_from_dict(self.circuit_doc)
        self.h = self.pp.hamiltonian_from_dict(self.ham_doc)
        self.rho = self.pp.SparseDensity.computational_basis(spec.n)
        self.params = self.circuit.parameters()

    def choose_m(self) -> int:
        norm = self.pp.norm_bound(self.h).value
        selection = self.pp.choose_m(
            self.spec.lam, norm, target_mse=self.spec.target_mse, floor=self.spec.depth + 1
        )
        if selection.m != self.spec.expect_m:
            self.failures.append(f"choose_m gave m={selection.m}, expected {self.spec.expect_m}")
        return selection.m

    def op(self, i: int):
        raise NotImplementedError

    def inspect(self, i: int, result) -> tuple[tuple, str | None]:
        """(values that must repeat bit for bit, error or None)."""
        raise NotImplementedError

    def final_checks(self, values: dict[int, tuple]) -> None:
        """Untimed checks over the whole run; failures go to self.failures."""


class AnsatzLoop(Workload):
    """Variational loop: one estimate() per fresh angle vector."""

    def setup(self) -> None:
        super().setup()
        self.m = self.choose_m()
        self.thetas: dict[int, dict[str, float]] = {}

    def op(self, i: int):
        theta = draw_theta(self.params, op_rng(self.seed, i))
        return theta, self.pp.estimator.estimate(
            self.circuit, self.h, self.rho, theta, self.spec.lam, self.m
        )

    def inspect(self, i: int, result):
        theta, report = result
        self.thetas[i] = theta
        self.mse_bound = report.mse_bound
        if report.paths_used != self.spec.expect_paths:
            return (report.value,), f"paths_used {report.paths_used} != {self.spec.expect_paths}"
        if report.m != self.spec.expect_m or not math.isfinite(report.value):
            return (report.value,), f"m={report.m}, value={report.value}"
        return (report.value,), None

    def final_checks(self, values) -> None:
        """Truncation MSE over the first draws against the dense oracle."""
        draws = sorted(values)[: self.spec.oracle_draws]
        squared = [
            (
                values[i][0]
                - self.pp.oracle.noisy_mean_value(
                    self.circuit, self.h, self.rho, self.thetas[i], self.spec.lam
                )
            )
            ** 2
            for i in draws
        ]
        if len(squared) < 2:
            self.failures.append("too few ops for the oracle MSE check")
            return
        mse = statistics.fmean(squared)
        std_error = statistics.stdev(squared) / math.sqrt(len(squared))
        if not mse <= self.mse_bound + 3.0 * std_error:
            self.failures.append(
                f"oracle MSE {mse:.3e} over {len(squared)} draws exceeds"
                f" bound {self.mse_bound:.3e} + 3 SE"
            )


class OracleMse(Workload):
    """Certified-bound validation: one mse_benchmark() per fresh seed."""

    def setup(self) -> None:
        super().setup()
        self.m = self.choose_m()

    def op(self, i: int):
        sample_seed = int(op_rng(self.seed, i).integers(2**63))
        return self.pp.estimator.mse_benchmark(
            self.circuit, self.h, self.rho, self.spec.lam, self.m, self.spec.samples, sample_seed
        )

    def inspect(self, i: int, report):
        values = (report.empirical_mse, report.std_error)
        if not report.passed:
            return values, f"mse {report.empirical_mse:.3e} fails bound {report.bound:.3e}"
        if report.m != self.spec.expect_m:
            return values, f"m={report.m}, expected {self.spec.expect_m}"
        return values, None


class CliDenseNorm(Workload):
    """In-process CLI `estimate` with --target-mse on files written at set-up."""

    def setup(self) -> None:
        super().setup()
        self.cli = importlib.import_module("paulipath.cli")
        self.circuit_file = self.workdir / "circuit.json"
        self.ham_file = self.workdir / "hamiltonian.json"
        self.out_file = self.workdir / "estimate.json"
        self.circuit_file.write_text(json.dumps(self.circuit_doc))
        self.ham_file.write_text(json.dumps(self.ham_doc))

    def op(self, i: int):
        cli_seed = int(op_rng(self.seed, i).integers(2**31))
        spec = self.spec
        return self.cli.main(
            [
                "--mode", "estimate",
                "--circuit", str(self.circuit_file),
                "--hamiltonian", str(self.ham_file),
                "--lambda", repr(spec.lam),
                "--target-mse", repr(spec.target_mse),
                "--seed", str(cli_seed),
                "--out", str(self.out_file),
            ]
        )

    def inspect(self, i: int, code):
        if code != 0:
            return (), f"exit code {code}"
        doc = json.loads(self.out_file.read_text())
        report = doc["report"]
        value = report["value"]
        if report["m"] != self.spec.expect_m or doc["m_selection"]["selection"]["m"] != self.spec.expect_m:
            return (value,), f"m={report['m']}, expected {self.spec.expect_m}"
        if report["paths_used"] != self.spec.expect_paths:
            return (value,), f"paths_used {report['paths_used']} != {self.spec.expect_paths}"
        # the norm bound does not enter the value, so skip the dense one here
        library = self.pp.estimator.estimate(
            self.circuit, self.h, self.rho, doc["theta"], self.spec.lam, report["m"],
            exact_norm_threshold=0,
        ).value
        if value != library:
            return (value,), f"CLI value {value!r} != library estimate {library!r}"
        return (value,), None


KINDS = {"ansatz-loop": AnsatzLoop, "oracle-mse": OracleMse, "cli-dense-norm": CliDenseNorm}


def check_untruncated(pp, seed: int) -> str | None:
    """Untruncated estimate equals the dense oracle on oracle-mse's instance."""
    n, depth, lam = ORACLE_INSTANCE
    circuit_doc, ham_doc = ansatz_documents(n, depth)
    circuit = pp.circuit_from_dict(circuit_doc)
    h = pp.hamiltonian_from_dict(ham_doc)
    rho = pp.SparseDensity.computational_basis(n)
    theta = draw_theta(circuit.parameters(), np.random.default_rng([seed, 2**32]))
    value = pp.estimate(circuit, h, rho, theta, lam, None).value
    exact = pp.noisy_mean_value(circuit, h, rho, theta, lam)
    if abs(value - exact) > UNTRUNCATED_TOL:
        return f"untruncated estimate {value!r} vs oracle {exact!r}"
    return None


def run(
    spec: Spec,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    spans_file: Path,
    log=print,
) -> dict:
    """One benchmark run: set-up, timed ops, checks.  Returns the result
    object with bare metric values; `workdir` holds the run's files."""
    workdir.mkdir(parents=True, exist_ok=True)
    workload = KINDS[spec.name](spec, seed, workdir)
    reference = Reference()
    references = [reference.time() for _ in range(3)]  # warm LAPACK up
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
        references.append(reference.time())
        setups[-1] *= REFERENCE_S / references[-1]
    failures = workload.failures
    error = check_untruncated(workload.pp, seed)
    if error:
        failures.append(error)

    values: dict[int, tuple] = {}
    warm_values, error = workload.inspect(0, workload.op(0))
    if error:
        failures.append(f"warm-up op: {error}")
    references.append(reference.time())

    tracer = Tracer() if trace else None
    durations: list[float] = []
    corrected: list[float] = []
    traced_s: list[float] = []
    untraced_s: list[float] = []
    failed_ops = 0
    min_ops = 2 if trace else 1
    loop_start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - loop_start < seconds:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
            span = tracer.begin_op(i)
        started = time.perf_counter()
        try:
            result = workload.op(i)
        except Exception:
            result = None
            log(f"op {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
        elapsed = time.perf_counter() - started
        if traced:
            tracer.end_op(span)
            tracer.uninstall()
        references.append(reference.time())
        durations.append(elapsed)
        corrected.append(elapsed * REFERENCE_S * 2.0 / (references[-2] + references[-1]))
        (traced_s if traced else untraced_s).append(elapsed)
        if result is None:
            failed_ops += 1
        else:
            values[i], error = workload.inspect(i, result)
            if error:
                failed_ops += 1
                log(f"op {i}: {error}", file=sys.stderr)
        i += 1
    loop_s = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if 0 in values and values[0] != warm_values:
        failures.append(f"same-seed rerun differs: {values[0]!r} vs {warm_values!r}")
    workload.final_checks(values)
    for failure in failures:
        log(f"check failed: {failure}", file=sys.stderr)

    ops = len(durations)
    if trace:
        metrics, not_hit = summarize(tracer, traced_s, untraced_s)
        metrics["machine.reference_s"] = statistics.median(references)
        for name in not_hit:
            log(f"not hit: {name}")
        for name in sorted(tracer.not_found):
            log(f"not found: {name}")
        tracer.write(spans_file)
        log(f"spans of {len(traced_s)} traced ops written to {spans_file}")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "op_s.p50": statistics.median(corrected),
            "peak_rss_mb": peak_rss_mb,
        }
        log(
            f"{spec.name}: {ops} ops in {loop_s:.2f} s, seed {seed}; raw op_s"
            f" p50 {statistics.median(durations):.4f} min {min(durations):.4f}"
            f" max {max(durations):.4f}; reference p50 {statistics.median(references):.5f} s"
        )
    failed = failed_ops + len(failures)
    return {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": metrics,
    }
