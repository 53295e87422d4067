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
    SvdFactors,
    assemble_filtered_pinv,
    frobenius_norm,
    spectrum_cond,
    svd,
)
from .matio import read_matrix, read_vector, write_matrix, write_vector
from .mpm import minimal_pseudoinverse
from .mpmi import SolveReport, discrepancy_curve

__all__ = [
    "__version__",
    # solve
    "solve",
    "SolveReport",
    "discrepancy_curve",
    "InputError",
    "SolverError",
    # factors
    "svd",
    "SvdFactors",
    "spectrum_cond",
    "frobenius_norm",
    "assemble_filtered_pinv",
    # I/O
    "read_matrix",
    "write_matrix",
    "read_vector",
    "write_vector",
    # mpm and the matrix error bound
    "minimal_pseudoinverse",
    "tsvd_rank_by_matrix_error",
    # harness
    "build_poisson",
    "perturb_rhs",
    "relative_error",
    "ExperimentConfig",
    "parse_config",
    "run_experiment",
]
