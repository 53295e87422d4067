"""Baseline regularizers and the one method table behind every solve.

Every method picks one parameter and yields an effective spectrum s over
the leading singular indices; :func:`~minpinv.mpmi.spectral_report`
turns it into the solution z = V (c / s) and its
:class:`~minpinv.mpmi.SolveReport`.  The baselines are truncated SVD
(s_k = sigma_k up to the rank), Tikhonov (s_k = (alpha + sigma_k^2) /
sigma_k) and a Morozov variant (s_k = (alpha + sigma_k^2)^2 / sigma_k^3);
:func:`solve` dispatches between them and the quartic filters.
"""

from functools import partial

import numpy as np

from .errors import InputError, SolverError
from .linalg import SvdFactors, require_vector, svd
from .mpm import filtered_spectrum, solve_generalized_root, solve_level
from .mpmi import discrepancy_target, head_residual_sq, mpmi_spectrum, spectral_report

__all__ = [
    "tsvd_rank_by_matrix_error",
    "METHODS",
    "solve",
]


def _coeff_tails(coeffs):
    """tails[r] = sum of squared coefficients past index r (0-based rank)."""
    sq = coeffs * coeffs
    return np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])


def _tsvd_spectrum(factors, coeffs, delta_abs=None, rank=None):
    """sigma_k for k below the rank, 0 past it; without ``rank``, the
    smallest rank whose coefficient tail fits the discrepancy target."""
    if rank is None:
        target, _, _ = discrepancy_target(coeffs, factors.rank, delta_abs)
        fits = np.flatnonzero(_coeff_tails(coeffs)[: factors.rank + 1] <= target)
        rank = max(int(fits[0]), 1) if fits.size else factors.rank
    elif isinstance(rank, bool) or not isinstance(rank, (int, np.integer)):
        raise InputError(f"truncation rank must be an integer, got {rank!r}")
    if not 1 <= rank <= factors.rank:
        raise InputError(f"truncation rank {rank} outside 1..{factors.rank}")
    rank = int(rank)
    s = np.zeros(factors.rank)
    s[:rank] = factors.sigma[:rank]
    return s, rank, False


def tsvd_rank_by_matrix_error(sigma, matrix_error):
    """Minimal rank whose spectral tail energy fits a matrix error bound.

    Returns the unique kappa with
    sqrt(sum_{k>kappa} sigma_k^2) <= matrix_error < sqrt(sum_{k>=kappa} sigma_k^2).
    """
    sigma = require_vector(sigma, "spectrum")
    if not matrix_error > 0.0:
        raise InputError("matrix error bound must be positive")
    tails = _coeff_tails(sigma)
    if matrix_error * matrix_error >= tails[0]:
        raise SolverError(
            "zero-rank truncation",
            f"error bound {matrix_error} >= total spectral energy",
        )
    fits = np.flatnonzero(tails[1:] <= matrix_error * matrix_error)
    return int(fits[0]) + 1 if fits.size else len(sigma)


def _tikhonov_values(sigma, alpha):
    return (alpha + sigma * sigma) / sigma


def _morozov_values(sigma, alpha):
    return (alpha + sigma * sigma) ** 2 / sigma ** 3


def _alpha_spectrum(values, factors, coeffs, delta_abs=None, alpha=None):
    """``values(sigma, alpha)`` over the numerical rank; without ``alpha``,
    the alpha whose squared residual is within 1e-10 ||u||^2 of the
    discrepancy target.

    The residual is continuous and increasing in alpha, so
    :func:`~minpinv.mpm.solve_generalized_root` finds it with zero jumps,
    bracketing it between the sigma_k^2 and 1e6 sigma_1^2.  Raises
    "bracket exhausted" when the target lies above the upper end or the
    bracket closes on adjacent floats short of the tolerance.
    """
    rank = factors.rank
    sigma = factors.sigma[:rank]
    if alpha is None:
        target, floor_sq, u_norm_sq = discrepancy_target(coeffs, rank, delta_abs)
        head_sq = coeffs[:rank] ** 2

        def residual_sq(level):
            return head_residual_sq(sigma, values(sigma, level), head_sq) + floor_sq

        breaks = np.append(sigma ** 2, 1e6 * float(sigma[0]) ** 2)
        alpha, _ = solve_generalized_root(residual_sq, breaks, np.zeros(len(breaks)),
                                          target, 1e-10 * u_norm_sq)
    if not 0.0 < alpha < np.inf:
        raise InputError("regularization parameter must be positive and finite")
    return values(sigma, alpha), float(alpha), False


def _mpm_spectrum(factors, coeffs, h):
    """Quartic-filtered singular values at the level that spends the matrix
    error budget ``h``, over the rank or the survivors if they reach past
    it (a tiny ``h``); the survivors are a prefix, as the breakpoints fall.
    """
    level, jumped = solve_level(h, factors.sigma)
    s = filtered_spectrum(factors.sigma[factors.sigma > 0.0], level)
    return s[: max(factors.rank, np.count_nonzero(s))], level, jumped


# method -> (chooser, accepted parameters).  A chooser maps (factors, coeffs,
# one parameter) to (effective spectrum, chosen parameter, jump_root).  The
# first accepted parameter is the method's noise or matrix error bound.
METHODS = {
    "mpmi": (mpmi_spectrum, ("delta_abs",)),
    "mpm": (_mpm_spectrum, ("h",)),
    "tsvd": (_tsvd_spectrum, ("delta_abs", "rank")),
    "tr": (partial(_alpha_spectrum, _tikhonov_values), ("delta_abs", "alpha")),
    "morozov": (partial(_alpha_spectrum, _morozov_values), ("delta_abs", "alpha")),
}


def solve(a, u, method, *, delta_abs=None, rank=None, alpha=None, h=None):
    """Regularized solution of A z = u by ``method``, as a SolveReport.

    ``a`` is the matrix or its precomputed :class:`SvdFactors`.  Exactly
    one parameter that the method accepts must be given: ``delta_abs``,
    the absolute noise bound on ``u`` (the method's own parameter is then
    chosen by the discrepancy principle), ``rank`` (tsvd), ``alpha`` (tr,
    morozov) or ``h``, the matrix error bound of mpm.  The parameters are
    checked before anything is factorized.
    """
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}")
    chooser, accepted = METHODS[method]
    given = {name: value for name, value in (
        ("delta_abs", delta_abs), ("rank", rank), ("alpha", alpha), ("h", h),
    ) if value is not None}
    if len(given) != 1:
        raise InputError(
            f"exactly one parameter required, got {sorted(given) or 'none'}"
        )
    if not given.keys() <= set(accepted):
        raise InputError(
            f"method {method} does not accept {next(iter(given))} "
            f"(allowed: {list(accepted)})"
        )
    factors = a if isinstance(a, SvdFactors) else svd(a)
    coeffs = factors.project_rhs(u)
    s, parameter, jumped = chooser(factors, coeffs, **given)
    if len(s) > factors.rank:   # mpm survivors past the rank; see _mpm_spectrum
        coeffs = factors.project_rhs(u, len(s))
    return spectral_report(factors, coeffs, method, s, parameter, jumped)
