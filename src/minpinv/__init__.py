"""Stable solution of ill-conditioned and rank-deficient linear systems.

The package factorizes the system matrix once, then solves through
regularized spectra: quartic-law inflation filters chosen by matrix
error (``mpm``) or by a discrepancy equation on the right-hand side
noise (``mpmi``), plus truncated-SVD, Tikhonov and Morozov-variant
baselines, a model-problem experiment harness, and a CLI.
"""

__version__ = "0.1.0"

from .baselines import solve, tsvd_rank_by_matrix_error
from .errors import InputError, SolverError
from .experiments import (
    ExperimentConfig,
    build_poisson,
    parse_config,
    perturb_rhs,
    relative_error,
    run_experiment,
)
from .linalg import (
    PinvCheckReport,
    SvdFactors,
    assemble_filtered_matrix,
    assemble_filtered_pinv,
    frobenius_norm,
    full_spectrum_cond,
    moore_penrose_check,
    reciprocal_or_zero,
    spectral_cond,
    svd,
)
from .matio import read_matrix, read_vector, write_matrix, write_vector
from .mpm import (
    MpmSpectrum,
    minimal_pseudoinverse,
    quartic_root,
    solve_level,
    spectrum_distance_sq,
)
from .mpmi import (
    MpmiFilterFamily,
    SolveReport,
    mpmi_x,
    discrepancy_curve,
    discrepancy_sq,
    residual_floor,
)

__all__ = [
    "__version__",
    "InputError",
    "SolverError",
    "solve",
    "SvdFactors",
    "PinvCheckReport",
    "svd",
    "frobenius_norm",
    "spectral_cond",
    "full_spectrum_cond",
    "reciprocal_or_zero",
    "assemble_filtered_pinv",
    "assemble_filtered_matrix",
    "moore_penrose_check",
    "read_matrix",
    "write_matrix",
    "read_vector",
    "write_vector",
    "quartic_root",
    "spectrum_distance_sq",
    "solve_level",
    "MpmSpectrum",
    "minimal_pseudoinverse",
    "MpmiFilterFamily",
    "mpmi_x",
    "SolveReport",
    "residual_floor",
    "discrepancy_sq",
    "discrepancy_curve",
    "tsvd_rank_by_matrix_error",
    "build_poisson",
    "perturb_rhs",
    "relative_error",
    "ExperimentConfig",
    "parse_config",
    "run_experiment",
]
