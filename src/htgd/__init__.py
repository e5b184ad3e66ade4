"""Low-complexity gradient descent solvers for multichannel spectral super-resolution.

Two solvers recover an (N, L) spectrally sparse signal from a subset of
its rows: ``solve_mhtgd`` factors each channel's weighted Hankel lift
into two coupled factors, ``solve_chtgd`` exploits constant amplitudes
across channels through one symmetric factor per channel.  Frequencies
are read off the recovered signal with ``esprit``.
"""

from .chtgd import FactorSetC, objective_g, grad_g, solve_chtgd, spectral_init_ca
from .descent import SolverConfig, SolverReport
from .errors import GenerationError, NumericalError, RankDeficientError
from .experiments import (
    PhaseGridSpec,
    TimingSpec,
    run_phase_grid,
    run_timing,
)
from .mhtgd import FactorSetM, objective_f, grad_f, solve_mhtgd, spectral_init
from .retrieval import FrequencyEstimate, esprit, match_frequencies, nmse, wrap_distance
from .signals import (
    MultichannelSignal,
    ProblemDims,
    SamplingMask,
    SpectralModel,
    apply_mask,
    make_rng,
    random_model,
    sample_mask,
    synthesize,
)

__all__ = [
    "SolverConfig",
    "SolverReport",
    "FactorSetC",
    "FactorSetM",
    "FrequencyEstimate",
    "GenerationError",
    "MultichannelSignal",
    "NumericalError",
    "PhaseGridSpec",
    "ProblemDims",
    "RankDeficientError",
    "SamplingMask",
    "SpectralModel",
    "TimingSpec",
    "apply_mask",
    "esprit",
    "grad_f",
    "grad_g",
    "make_rng",
    "match_frequencies",
    "nmse",
    "objective_f",
    "objective_g",
    "random_model",
    "run_phase_grid",
    "run_timing",
    "sample_mask",
    "solve_chtgd",
    "solve_mhtgd",
    "spectral_init",
    "spectral_init_ca",
    "synthesize",
    "wrap_distance",
]

__version__ = "0.1.0"
