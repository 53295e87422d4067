"""Baseline regularizers and the one method table behind every solve.

Every method picks one parameter (``choose``, from the method's bound)
and yields an effective spectrum s over the leading singular indices at
it (``spectrum``); :func:`~minpinv.mpmi.spectral_report` turns s into the
solution z = V (c / s) and its :class:`~minpinv.mpmi.SolveReport`.  mpmi,
tr and morozov choose by one :func:`~minpinv.mpmi.discrepancy_root`.  The
baselines are truncated SVD (s_k = sigma_k up to the rank), Tikhonov
(s_k = (alpha + sigma_k^2) / sigma_k) and a Morozov variant (s_k = (alpha
+ sigma_k^2)^2 / sigma_k^3); :func:`solve` dispatches between them and
the quartic filters.
"""

from functools import partial

import numpy as np

from ._kernels import suffix_sums
from .errors import InputError, SolverError
from .linalg import SvdFactors, check_spectrum, svd
from .mpm import filtered_spectrum, solve_level
from .mpmi import discrepancy_root, discrepancy_target, spectral_report

__all__ = [
    "tsvd_rank_by_matrix_error",
    "METHODS",
    "ParameterError",
    "solve",
]


def _tsvd_rank(factors, coeffs, delta_abs):
    """The smallest rank, at least 1, whose coefficient tail fits the
    discrepancy target; the numerical rank when none does."""
    target, _, _ = discrepancy_target(coeffs, factors.rank, delta_abs)
    fits = np.flatnonzero(suffix_sums(coeffs * coeffs)[: factors.rank + 1] <= target)
    return (max(int(fits[0]), 1) if fits.size else factors.rank), False


def _tsvd_spectrum(factors, rank):
    """sigma_k for k below ``rank``, 0 past it, over the numerical rank."""
    if not 1 <= rank <= factors.rank:
        raise InputError(f"truncation rank {rank} outside 1..{factors.rank}")
    s = np.zeros(factors.rank)
    s[:rank] = factors.sigma[:rank]
    return s


def tsvd_rank_by_matrix_error(sigma, matrix_error):
    """Minimal rank whose spectral tail energy fits a matrix error bound.

    Returns the unique kappa with
    sqrt(sum_{k>kappa} sigma_k^2) <= matrix_error < sqrt(sum_{k>=kappa} sigma_k^2).
    A negative or rising ``sigma`` raises ``InputError``.
    """
    sigma = check_spectrum(sigma)
    if not matrix_error > 0.0:
        raise InputError("matrix error bound must be positive")
    tails = suffix_sums(sigma * sigma)
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


def _alpha_curve(values, factors, coeffs):
    """The squared residual in alpha for s = ``values(sigma, alpha)``, as
    ``head_residual_sq`` plus the floor, bit for bit without the mask (s > 0
    over the rank for alpha >= 0).  It is continuous and increasing, so the
    ascending sigma_k^2 and 1e6 sigma_1^2 bracket its root with zero jumps.
    (Where Morozov's sigma^3 leaves float range, near 1e+-100, the root
    finder says "bracket exhausted".)"""
    rank = factors.rank
    sigma = factors.sigma[:rank]
    head_sq = coeffs[:rank] ** 2
    floor_sq = float(np.add.reduce(coeffs[rank:] ** 2))   # np.sum without its wrapper

    def residual_sq(alpha):
        d = 1.0 - sigma / values(sigma, alpha)
        return float(np.add.reduce(d * d * head_sq)) + floor_sq

    # sigma_1 of the whole spectrum, so that at rank 0 the target raises
    breaks = np.append(sigma[::-1] ** 2, 1e6 * float(factors.sigma[0]) ** 2)
    return residual_sq, breaks, np.zeros(len(breaks)), None


def _alpha_method(values):
    """tr's or morozov's METHODS entry, for s = ``values(sigma, alpha)``."""
    return (partial(discrepancy_root, partial(_alpha_curve, values), 1e-10),
            lambda factors, alpha: values(factors.sigma[: factors.rank], alpha),
            ("delta_abs", "alpha"))


def _mpm_spectrum(factors, level):
    """Quartic-filtered singular values at ``level``, over the rank or the
    survivors (a prefix) if a tiny level keeps some past it."""
    s = filtered_spectrum(factors.sigma, level)
    return s[: max(factors.rank, np.count_nonzero(s))]


# method -> (choose, spectrum, accepted parameters).  choose(factors, coeffs,
# bound) picks (parameter, jump_root) from the first accepted parameter, the
# method's noise or matrix error bound; spectrum(factors, parameter) is s.
METHODS = {
    "mpmi": (partial(discrepancy_root, lambda f, coeffs: f.quartic.residual_sq(coeffs), 1e-12),
             lambda f, level: filtered_spectrum(f.quartic.sigma, level), ("delta_abs",)),
    "mpm": (lambda f, coeffs, h: solve_level(h, f), _mpm_spectrum, ("h",)),
    "tsvd": (_tsvd_rank, _tsvd_spectrum, ("delta_abs", "rank")),
    "tr": _alpha_method(_tikhonov_values),
    "morozov": _alpha_method(_morozov_values),
}


class ParameterError(InputError):
    """No, several or unaccepted parameters for a method; ``accepted`` keeps
    the names it takes, for a caller that spells them otherwise (the CLI)."""

    def __init__(self, method, given, accepted):
        self.accepted = accepted
        super().__init__(
            f"exactly one parameter required, got {given or 'none'}" if len(given) != 1
            else f"method {method} does not accept {given[0]} (allowed: {accepted})")


def solve(a, u, method, *, delta_abs=None, rank=None, alpha=None, h=None):
    """Regularized solution of A z = u by ``method``, as a SolveReport.

    ``a`` is the matrix or its precomputed :class:`SvdFactors`.  Exactly
    one parameter that the method accepts must be given: ``delta_abs``,
    the absolute noise bound on ``u``, or ``h``, mpm's matrix error bound,
    from which the method's ``choose`` picks its parameter (by the
    discrepancy principle for ``delta_abs``); or ``rank`` (tsvd, an int) or
    ``alpha`` (tr, morozov, a float) itself.  The method's ``spectrum`` at
    the parameter gives the solution.  The parameter's name, sign, alpha's
    finiteness and rank's type are checked before anything is factorized.
    """
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}")
    choose, spectrum, accepted = METHODS[method]
    given = {name: value for name, value in (
        ("delta_abs", delta_abs), ("rank", rank), ("alpha", alpha), ("h", h),
    ) if value is not None}
    if len(given) != 1 or not given.keys() <= set(accepted):
        raise ParameterError(method, sorted(given), list(accepted))
    (name, value), = given.items()
    if name == "rank" and (isinstance(value, bool) or not isinstance(value, (int, np.integer))):
        raise InputError(f"truncation rank must be an integer, got {value!r}")
    if name == "alpha" and not 0.0 < value < np.inf:
        raise InputError("regularization parameter must be positive and finite")
    if name != "rank" and not value > 0.0:
        raise InputError("noise bound must be positive" if name == "delta_abs"
                         else "matrix error bound must be positive")
    factors = a if isinstance(a, SvdFactors) else svd(a)
    coeffs = factors.project_rhs(u)
    parameter, jumped = (choose(factors, coeffs, value) if name == accepted[0]
                         else ((int if name == "rank" else float)(value), False))
    s = spectrum(factors, parameter)
    if len(s) > factors.rank:   # mpm survivors past the rank; see _mpm_spectrum
        coeffs = factors.project_rhs(u, len(s))
    return spectral_report(factors, coeffs, method, s, parameter, jumped)
