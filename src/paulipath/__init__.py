"""Truncated Pauli-path estimation of noisy circuit mean values."""

from .pauli import PauliWord, commutes
from .circuit import (
    Circuit,
    CircuitFormatError,
    CliffordGate,
    Layer,
    RotationGate,
    circuit_from_dict,
    circuit_generation_certified,
)
from .observables import (
    Hamiltonian,
    NormBound,
    ObservableFormatError,
    SparseDensity,
    hamiltonian_from_dict,
    norm_bound,
    state_from_dict,
)
from .engine import (
    EnumerationStats,
    FactorAtom,
    PathEnumeration,
    PauliPath,
    ResourceLimitError,
)
from .estimator import (
    CrossTermResult,
    EstimateReport,
    MSelection,
    MseBenchmarkReport,
    choose_m,
    cross_term_check,
    damping,
    describe_factors,
    estimate,
    mse_benchmark,
    path_value,
)
from .oracle import OracleCapError, noisy_mean_value
from .benchmarks import rx_chain_exact_value, rx_chain_instance, scaling_sweep

__version__ = "0.1.0"
