"""Truncated path-sum estimation with certified truncation error bounds.

The estimator sums damped path values

    value = c_I + sum_paths (1 - lam)^|s| * coeff(s_L) * sign * prod(atoms) * Tr(s_0 rho)

over all paths of total weight |s| <= M, where sign is the path's overall
+-1 (Clifford signs times the sigma of every sin branch) and each atom
is the cos or sin of one rotation angle.  Under single-qubit depolarizing
noise at rate lam, and when the effected rotation generators generate the
full Pauli group (the generation check), the mean squared truncation error
over uniform angles is bounded by (1 - lam)^(2M) * |H|^2 where |H| bounds
the spectral norm of the traceless part.  When the generation check fails
the same numbers are still reported but flagged as not certified.

One evaluator, `_term_sums`, walks the paths of every observable term once,
as the engine's blocks of array columns, and values each block with the
arithmetic of damping(path) * path_value(path), one numpy operation per
rotation for all paths of the block: a path's choice at a rotation picks
that rotation's 1.0, cos or sin.  Angles are either floats (`estimate`)
or one ndarray per parameter with one entry per sample (`mse_benchmark`),
so the same path expansion is evaluated at every sampled angle vector at
once; a float run is a batch of one sample.  The contributions are added
in path order, one accumulate down each row slice of paths, so an
estimate is the identity offset plus the in-order sum of its own paths'
contributions, bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import oracle
from .circuit import Circuit, ParameterAssignment, check_assignment, check_instance
from .circuit import check_noise_rate, circuit_generation_certified
from .engine import (
    EnumerationStats,
    FactorAtom,
    PathEnumeration,
    PauliPath,
    truncation_order,
)
from .observables import (
    DEFAULT_EXACT_NORM_QUBITS,
    Document,
    Hamiltonian,
    NormBound,
    SparseDensity,
    norm_bound,
    warn_caller,
)
from .pauli import finite_real, non_negative_int


def atom_value(atom: FactorAtom, assignment: ParameterAssignment) -> float | np.ndarray:
    """cos or sin of the atom's angle at a parameter assignment; an ndarray
    angle (one entry per sample) gives one value per sample."""
    if isinstance(atom.param, str):
        if atom.param not in assignment:
            raise ValueError(f"no angle bound for parameter {atom.param!r}")
        angle = assignment[atom.param]
    else:
        angle = atom.param
    if isinstance(angle, np.ndarray):
        return np.cos(angle) if atom.kind == "cos" else np.sin(angle)
    return math.cos(angle) if atom.kind == "cos" else math.sin(angle)


def path_value(
    path: PauliPath,
    assignment: ParameterAssignment,
    h: Hamiltonian,
    rho: SparseDensity,
) -> float | np.ndarray:
    """Noiseless value: coeff(s_L) * sign * prod(atoms) * Tr(s_0 rho)."""
    factor = h.coeff(path.words[-1]) * path.sign
    for atom in path.atoms:
        factor *= atom_value(atom, assignment)
    return factor * rho.overlap(path.words[0])


def damping(path: PauliPath, lam: float) -> float:
    """(1 - lam) ** total path weight."""
    return (1.0 - lam) ** path.total_weight


def describe_factors(path: PauliPath) -> str:
    """Human-readable product of the path's sign and factor atoms."""
    parts: list[str] = []
    for atom in path.atoms:
        arg = atom.param if isinstance(atom.param, str) else repr(atom.param)
        parts.append(f"{atom.kind}({arg})")
    body = "*".join(parts) if parts else "1"
    return ("-" if path.sign < 0 else "") + body


def _term_sums(
    circuit: Circuit,
    h: Hamiltonian,
    rho: SparseDensity,
    m: int,
    assignment: ParameterAssignment,
    lam: float,
) -> tuple[np.ndarray, EnumerationStats]:
    """The in-order sum, from 0.0, of every path's damping * path_value,
    from one walk over the path blocks, as an (S,) array for S samples;
    float angles are a batch of one, S = 1.  Each block is valued from its
    arrays with the arithmetic of those two functions: coeff * sign, times
    for every rotation of layers 1..L in program order the factor its
    choice picks, 1.0 where the rotation commutes (x * 1.0 == x exactly),
    its cos or its sin, and then damp[spent] * (value * overlap).  A block
    is valued in row slices of at most max(1, CHUNK_ENTRIES // S) paths,
    the oracle's chunk size, so each temporary of paths x samples stays
    that small.  The running total is added into a slice's first row and
    one accumulate down its paths adds the rest, the same additions in
    path order as adding the contributions one path at a time."""
    samples = check_assignment(circuit, assignment, batch=True) or 1
    damp = np.array([(1.0 - lam) ** w for w in range(truncation_order(circuit, None) + 1)])
    run = PathEnumeration(circuit, h, rho, m)
    # rotation r's choice c picks factor row 3r + c: 1.0 where it commutes,
    # its cos or its sin, one entry per sample
    factors = np.ones((3 * len(run.atoms), samples))
    for r, (cos, sin) in enumerate(run.atoms):
        factors[3 * r + 1] = atom_value(cos, assignment)
        factors[3 * r + 2] = atom_value(sin, assignment)
    rows = max(1, oracle.CHUNK_ENTRIES // samples)
    total = np.zeros(samples)
    for block in run:
        for start in range(0, len(block.coeff), rows):
            part = slice(start, start + rows)
            choice = block.choice[:, part]  # (rotations, paths)
            # one path per row, samples across, atoms or not
            value = (block.coeff[part] * block.sign[part])[:, None]
            value = np.broadcast_to(value, (choice.shape[1], samples))
            for r in np.flatnonzero(choice.any(axis=1)):
                value = value * factors[3 * r + choice[r]]
            overlap = block.overlap[part][:, None]
            contributions = damp[block.spent[part]][:, None] * (value * overlap)
            contributions[0] = total + contributions[0]
            total = np.add.accumulate(contributions)[-1]
    return total, run.stats


class EpsDelta(NamedTuple):
    """An additive error epsilon reached with probability at least 1 - delta.
    A report holds one only when it is certified and either untruncated or
    its MSE bound is at most epsilon^2 * delta, which then meets the pair by
    Chebyshev's inequality."""

    epsilon: float
    delta: float


@dataclass(frozen=True)
class EstimateReport(Document):
    """Result of one truncated estimation run."""

    value: float
    identity_offset: float
    m: int
    untruncated: bool
    lam: float
    norm: NormBound
    mse_bound: float
    mse_bound_exp: float
    eps_delta: EpsDelta | None
    generation_certified: bool
    paths_used: int
    stats: dict[str, int]
    elapsed_seconds: float


def _eps_delta_mse(epsilon, delta) -> float:
    """epsilon^2 * delta, the largest MSE that meets an (epsilon, delta)
    guarantee by Chebyshev's inequality, P(|error| >= epsilon) <= MSE /
    epsilon^2; ValueError unless each is a finite real number, epsilon > 0
    and 0 < delta < 1."""
    epsilon, delta = finite_real(epsilon, "epsilon"), finite_real(delta, "delta")
    if epsilon <= 0 or not 0 < delta < 1:
        raise ValueError("need epsilon > 0 and 0 < delta < 1")
    return epsilon**2 * delta


def _certificate(
    circuit: Circuit,
    h: Hamiltonian,
    rho: SparseDensity,
    lam: float,
    m: int,
    exact_norm_threshold: int,
) -> tuple[NormBound, bool, float, float]:
    """Check the instance and the noise rate, warn about a failed generation
    check, and return the norm bound, the generation certificate, and the
    truncation MSE bound at order m in its (1 - lam)^2m and exp(-2 lam m)
    forms."""
    check_instance(circuit, h, rho)
    check_noise_rate(lam)
    norm = norm_bound(h, exact_norm_threshold)
    certified = circuit_generation_certified(circuit)
    if not certified:
        warn_caller(
            "effected rotation generators do not generate the full Pauli"
            " group; MSE bounds are reported but not certified"
        )
    return (
        norm,
        certified,
        (1.0 - lam) ** (2 * m) * norm.value**2,
        math.exp(-2.0 * lam * m) * norm.value**2,
    )


def estimate(
    circuit: Circuit,
    h: Hamiltonian,
    rho: SparseDensity,
    assignment: ParameterAssignment,
    lam: float,
    m: int | None = None,
    *,
    exact_norm_threshold: int = DEFAULT_EXACT_NORM_QUBITS,
    eps_delta: tuple[float, float] | None = None,
) -> EstimateReport:
    """Truncated path-sum estimate of the noisy mean value.

    `m` is the truncation order, a non-negative integer; None runs
    untruncated (M = n(L+1)).  The report carries both MSE bound forms,
    the norm bound used, and enumeration statistics.  `eps_delta`, a pair
    (epsilon, delta), is reported back only when the run meets it (see
    `EpsDelta`).
    """
    started = time.perf_counter()
    m_eff = truncation_order(circuit, m)
    untruncated = m_eff >= truncation_order(circuit, None)
    check_assignment(circuit, assignment)
    target = math.inf  # the largest MSE bound that meets eps_delta
    if eps_delta is not None:
        try:
            eps_delta = EpsDelta(*eps_delta)
        except TypeError:
            raise ValueError(
                f"eps_delta must be a pair (epsilon, delta), got {eps_delta!r}"
            ) from None
        target = _eps_delta_mse(*eps_delta)
    non_negative_int(exact_norm_threshold, "exact_norm_threshold")
    norm, certified, bound, bound_exp = _certificate(
        circuit, h, rho, lam, m_eff, exact_norm_threshold
    )
    identity_offset = h.identity_coeff * rho.overlap_masks(0, 0)
    stats = EnumerationStats()
    value = identity_offset
    # with lam == 1 every non-identity word is fully damped; without a walk
    # there is no truncation warning either
    if lam < 1.0 and h.term_count > 0:
        total, stats = _term_sums(circuit, h, rho, m_eff, assignment, lam)
        value = identity_offset + float(total[0])
    return EstimateReport(
        value=value,
        identity_offset=identity_offset,
        m=m_eff,
        untruncated=untruncated,
        lam=lam,
        norm=norm,
        mse_bound=bound,
        mse_bound_exp=bound_exp,
        eps_delta=eps_delta if certified and (untruncated or bound <= target) else None,
        generation_certified=certified,
        paths_used=stats.paths_emitted,
        stats=asdict(stats),
        elapsed_seconds=time.perf_counter() - started,
    )


@dataclass(frozen=True)
class MSelection(Document):
    """A truncation order choice; m is None when lam = 0 (untruncated)."""

    m: int | None
    path_ceiling: int | None
    note: str


def choose_m(
    lam: float,
    norm: float,
    *,
    target_mse: float | None = None,
    epsilon: float | None = None,
    delta: float | None = None,
    floor: int | None = None,
    term_count: int | None = None,
) -> MSelection:
    """Smallest truncation order meeting a target MSE or an (eps, delta)
    guarantee, using the exp(-2 lam M) relaxation.

    target_mse nu:          M = ceil(ln(norm^2 / nu) / (2 lam))
    (epsilon, delta):       M = ceil(ln(norm / (eps sqrt(delta))) / lam)

    lam = 0 yields the untruncated sentinel m=None: without noise no finite
    truncation is certified.  `floor` (depth + 1) lifts choices below the
    smallest weight any path can have.
    """
    check_noise_rate(lam)
    for name, value in (("target_mse", target_mse), ("epsilon", epsilon), ("delta", delta)):
        if value is not None:
            finite_real(value, name)
    if floor is not None:
        floor = non_negative_int(floor, "floor")
    if term_count is not None:
        term_count = non_negative_int(term_count, "term_count")
    have_mse = target_mse is not None
    have_eps = epsilon is not None or delta is not None
    if have_mse == have_eps:
        raise ValueError("need exactly one of target_mse or (epsilon, delta)")
    if have_eps and (epsilon is None or delta is None):
        raise ValueError("epsilon and delta must be given together")
    if not math.isfinite(norm * norm):
        raise ValueError(f"norm and its square must be finite, got {norm}")
    if norm < 0:
        raise ValueError(f"norm bound must be non-negative, got {norm}")
    if have_mse and target_mse <= 0:
        raise ValueError(f"target MSE must be positive, got {target_mse}")
    if have_eps:
        _eps_delta_mse(epsilon, delta)
    if lam == 0.0:
        return MSelection(
            None,
            None,
            "no noise: truncation error cannot be certified, run untruncated",
        )
    if norm == 0.0:
        return MSelection(0, _ceiling(term_count, 0), "observable has no traceless part")
    if have_mse:
        raw = math.log(norm**2 / target_mse) / (2.0 * lam)
    else:
        raw = math.log(norm / (epsilon * math.sqrt(delta))) / lam
    m = max(0, math.ceil(raw))
    note = ""
    if floor is not None and m < floor:
        m = floor
        note = f"raised to the depth + 1 floor of {floor}"
    return MSelection(m, _ceiling(term_count, m), note)


def _ceiling(term_count: int | None, m: int) -> int | None:
    return None if term_count is None else term_count * (1 << m)


# --- sampled benchmarks ------------------------------------------------------


def _require_distinct_params(circuit: Circuit) -> list[str]:
    """Sampling modes need every rotation angle free and independent."""
    params: list[str] = []
    seen: set[str] = set()
    for li, layer in enumerate(circuit.layers, start=1):
        for gate in layer.rotations:
            if gate.param is None:
                raise ValueError(
                    f"layer {li}: bound-angle rotation cannot be sampled over"
                )
            if gate.param in seen:
                raise ValueError(
                    f"layer {li}: parameter {gate.param!r} is shared;"
                    " sampled runs need one symbol per rotation"
                )
            seen.add(gate.param)
            params.append(gate.param)
    return params


def _sampling(samples: int, seed: int) -> tuple[int, int]:
    """A sampled run's sample count, an int >= 2, and seed, a non-negative
    int, neither a bool; as Python ints, which the reports hold."""
    samples = non_negative_int(samples, "samples")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    return samples, non_negative_int(seed, "seed")


def _sample_thetas(
    seed: int, samples: int, params: Sequence[str]
) -> tuple[list[int], dict[str, np.ndarray]]:
    """Per-sample child seeds, and per parameter its angles, one per sample."""
    rng = np.random.default_rng(seed)
    sample_seeds = [int(s) for s in rng.integers(0, 2**63, size=samples)]
    thetas = np.empty((samples, len(params)), dtype=float)
    for i, child in enumerate(sample_seeds):
        thetas[i] = np.random.default_rng(child).uniform(0.0, 2.0 * math.pi, len(params))
    return sample_seeds, dict(zip(params, thetas.T))


@dataclass(frozen=True)
class MseBenchmarkReport(Document):
    """Empirical truncation MSE against the dense oracle, with its bound."""

    samples: int
    m: int
    lam: float
    empirical_mse: float
    std_error: float
    bound: float
    bound_exp: float
    passed: bool
    generation_certified: bool
    norm: NormBound
    seed: int
    sample_seeds: list[int]


def mse_benchmark(
    circuit: Circuit,
    h: Hamiltonian,
    rho: SparseDensity,
    lam: float,
    m: int | None,
    samples: int,
    seed: int,
) -> MseBenchmarkReport:
    """Empirical E|estimate - oracle|^2 over uniformly sampled angles.

    Draws `samples` assignments theta ~ U[0, 2pi) per parameter from
    per-sample derived seeds, evaluates the truncated estimator at all of
    them in one walk over the paths and the exact noisy value through the
    dense oracle, and compares the mean squared difference against the
    certified bound (pass means empirical <= bound + 3 standard errors).
    `m` is the truncation order; None runs untruncated, as in `estimate`.
    """
    samples, seed = _sampling(samples, seed)
    m = truncation_order(circuit, m)
    params = _require_distinct_params(circuit)
    norm, certified, bound, bound_exp = _certificate(
        circuit, h, rho, lam, m, DEFAULT_EXACT_NORM_QUBITS
    )
    sample_seeds, angles = _sample_thetas(seed, samples, params)
    total, _ = _term_sums(circuit, h, rho, m, angles, lam)
    estimates = h.identity_coeff * rho.overlap_masks(0, 0) + total
    # one batched dense run; a circuit without symbols has one exact value
    exact = oracle.noisy_mean_value(circuit, h, rho, angles, lam)
    squared = np.broadcast_to((estimates - exact) ** 2, samples)
    empirical = float(np.mean(squared))
    std_error = float(np.std(squared, ddof=1) / math.sqrt(samples))
    return MseBenchmarkReport(
        samples=samples,
        m=m,
        lam=lam,
        empirical_mse=empirical,
        std_error=std_error,
        bound=bound,
        bound_exp=bound_exp,
        passed=bool(empirical <= bound + 3.0 * std_error),
        generation_certified=certified,
        norm=norm,
        seed=seed,
        sample_seeds=sample_seeds,
    )


@dataclass(frozen=True)
class CrossTermResult(Document):
    """Monte-Carlo mean of f * f' for two paths over uniform angles."""

    mean: float
    std_error: float
    samples: int
    generation_certified: bool


def cross_term_check(
    circuit: Circuit,
    h: Hamiltonian,
    rho: SparseDensity,
    path_a: PauliPath,
    path_b: PauliPath,
    samples: int,
    seed: int,
) -> CrossTermResult:
    """Estimate E[f_a * f_b] over theta ~ U[0, 2pi)^P.

    For certified circuits the expectation vanishes for distinct paths;
    an uncertified circuit is still measured, just flagged.
    """
    samples, seed = _sampling(samples, seed)
    if path_a == path_b:
        raise ValueError("cross-term check needs two distinct paths")
    params = _require_distinct_params(circuit)
    certified = circuit_generation_certified(circuit)
    _, angles = _sample_thetas(seed, samples, params)
    # paths without free atoms have a constant value; keep one per sample
    products = np.full(
        samples,
        path_value(path_a, angles, h, rho) * path_value(path_b, angles, h, rho),
    )
    mean = float(np.mean(products))
    std_error = float(np.std(products, ddof=1) / math.sqrt(samples))
    return CrossTermResult(mean, std_error, samples, certified)
