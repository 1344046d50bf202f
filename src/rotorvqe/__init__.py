"""Rotor-chain conformational kinetics: spectral reference and VQE pipeline."""

from .chain import (
    CompositeBasis,
    build_chain_matrix,
    build_composite_basis,
    pad_matrix,
    rate_constant,
    reference_spectrum,
)
from .driver import (
    CALIBRATED,
    FIXED,
    NELDER_MEAD,
    SPSA,
    EnsembleStats,
    Problem,
    VqeConfig,
    VqeRun,
    build_problem,
    run_barrier_scan,
    run_distribution_study,
    run_ensemble,
    run_hierarchical,
    run_qubit_scan,
    run_vqe,
)
from .paulimap import map_operator
from .potential import BISTABLE, MONOSTABLE, ChainSpec, DihedralSpec
from .qsim import EXACT, FULL, LINEAR, NOISY, SAMPLED, AnsatzSpec, NoiseSpec

__all__ = [
    "BISTABLE",
    "CALIBRATED",
    "EXACT",
    "FIXED",
    "FULL",
    "LINEAR",
    "MONOSTABLE",
    "NELDER_MEAD",
    "NOISY",
    "SAMPLED",
    "SPSA",
    "AnsatzSpec",
    "ChainSpec",
    "CompositeBasis",
    "DihedralSpec",
    "EnsembleStats",
    "NoiseSpec",
    "Problem",
    "VqeConfig",
    "VqeRun",
    "build_chain_matrix",
    "build_composite_basis",
    "build_problem",
    "map_operator",
    "pad_matrix",
    "rate_constant",
    "reference_spectrum",
    "run_barrier_scan",
    "run_distribution_study",
    "run_ensemble",
    "run_hierarchical",
    "run_qubit_scan",
    "run_vqe",
]
__version__ = "0.1.0"
