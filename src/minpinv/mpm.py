"""Minimal pseudoinverse of an approximately known matrix (MPM method).

Given the data matrix and a Frobenius error bound on it, the method
inflates each singular value by the quartic-law factor x in [1, 3/2]
(or truncates it) so that the modified matrix stays within the error
bound while its pseudoinverse norm is minimal.  The filter level that
spends exactly the allowed error budget is a generalized root of a
monotone, left-continuous spectral distance function with analytically
known breakpoints.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import QUARTIC_MAX
from .errors import InputError, SolverError
from .linalg import (
    assemble_filtered_matrix,
    assemble_filtered_pinv,
    check_spectrum,
    svd,
)

__all__ = [
    "QUARTIC_MAX",
    "spectrum_distance_sq",
    "solve_level",
    "MpmResult",
    "minimal_pseudoinverse",
    "solve_generalized_root",
]


def spectrum_distance_sq(level, sigma):
    """Squared Frobenius distance between filtered and original spectrum."""
    sigma = check_spectrum(sigma)
    if not level >= 0.0:
        raise InputError("filter level must be nonnegative")
    return _kernels.QuarticFilter(sigma).distance_sq_at(float(level))


def solve_generalized_root(eval_fn, breaks, jumps, target, tol_abs, *, bounds=None):
    """Generalized root of a nondecreasing left-continuous function.

    ``eval_fn`` is the (left-continuous) function of the level, ``breaks``
    its discontinuity points in ascending order and ``jumps`` the heights
    it jumps by there.  A repeated point (tied singular values) carries its
    jump on its last entry and 0 on the others; other input raises
    InputError.  Returns ``(level, jumped)`` where either the interior root
    satisfies |f(level) - target| <= tol_abs, or ``level`` is a breakpoint
    whose left/right values sandwich the target.  ``level`` is a Python
    float.  The caller must ensure f(0) < target < sup f.

    When the bracket shrinks to two adjacent floats, no level meets the
    tolerance: f steps by more than ``tol_abs`` within one ulp, which a
    continuous f only does below its float resolution.  With
    ``tol_abs = 0``, which asks for that resolution, the upper end (the
    smallest level tried with f(level) >= target) is returned; with a
    positive tolerance f has a step that ``breaks`` does not declare, and
    the finder raises "bracket exhausted".

    Over the points b_1 <= b_2 <= ... with jumps J_i, the right limits
    f(b_i) + J_i never decrease, so the bracket (the first breakpoint
    whose right limit reaches the target) is found by binary search.  A
    target in its jump makes b_i the root.  Else target <= f(b_i), which
    the entry before a repeated b_i would reach, so b_{i-1} < b_i, and on
    (b_{i-1}, b_i] the function is continuous: the root is found by
    regula falsi with Anderson & Bjorck's rule (BIT 13, 1973): when a step
    keeps the same end as the step before, that end's value is scaled by
    m = 1 - g_new / g_old, the ratio taken at the end the step replaced,
    or halved as in the Illinois rule (Dowell & Jarratt, BIT 11, 1971)
    when m <= 0.  It bisects whenever the secant point is not strictly
    inside the bracket or three steps in a row failed to halve it.  The
    third is the step that scales the stale end's value, so that rule gets
    its chance first.  No derivative is needed.

    ``bounds = (lower, upper)``, as :class:`~minpinv._kernels.QuarticFilter`
    gives them with its merged points, hold lower[i] <= eval_fn(b_i) <=
    upper[i] for the floats ``eval_fn`` returns (it widens its analytic
    bounds by 16 n eps sup f); None means infinite bounds.  The search
    evaluates b_i only if the target lies in (lower[i] + J_i, upper[i] +
    J_i]; elsewhere the bound decides as the value would, rounding being
    monotone, so path, bracket and result are bit-identical.
    """
    rise = np.diff(breaks)
    if not ((rise > 0.0) | (rise == 0.0) & (np.asarray(jumps)[:-1] == 0.0)).all():
        raise InputError("breakpoints must ascend, a repeated one with its jump last")
    if bounds is None:
        bounds = [-np.inf] * len(breaks), [np.inf] * len(breaks)
    lower, upper = bounds
    left = {}

    def left_at(k):
        if k not in left:
            left[k] = eval_fn(breaks[k])
        return left[k]

    i, end = 0, len(breaks)
    while i < end:
        k = (i + end) // 2
        reach = upper[k] + jumps[k]
        if lower[k] + jumps[k] < target <= reach:
            reach = left_at(k) + jumps[k]
        if target <= reach:
            end = k
        else:
            i = k + 1
    if i == len(breaks):
        raise SolverError(
            "bracket exhausted",
            f"no generalized root below the plateau for target {target}",
        )
    brk = float(breaks[i])
    if target > left_at(i):
        return brk, True
    # Interior root in (b_{i-1}, b_i]: the function is continuous there,
    # starting from the right limit at b_{i-1} (f(0) below the first).
    if i > 0:
        a, ga = float(breaks[i - 1]), left_at(i - 1) + jumps[i - 1] - target
    else:
        a, ga = 0.0, eval_fn(0.0) - target
    b, gb = brk, left[i] - target
    if gb <= tol_abs:
        return brk, False
    kept = 0      # +1: the last step kept b, -1: it kept a
    slow = 0      # consecutive secant steps that did not halve the bracket
    while True:
        width = b - a
        denom = gb - ga   # halving can underflow both ends' values to 0
        mid = a - ga * (width / denom) if denom > 0.0 else a
        bisect = slow >= 3 or not a < mid < b
        if bisect:
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:
                if tol_abs > 0.0:
                    raise SolverError(
                        "bracket exhausted",
                        f"f steps over target {target} between adjacent "
                        f"levels {a!r} and {b!r}",
                    )
                return float(b), False
        g = eval_fn(mid) - target
        if abs(g) <= tol_abs:
            return float(mid), False
        if g < 0.0:
            if kept == 1:   # b kept twice: scale its value
                gb *= _anderson_bjorck(g, ga)
            a, ga = mid, g
            kept = 1
        else:
            if kept == -1:
                ga *= _anderson_bjorck(g, gb)
            b, gb = mid, g
            kept = -1
        slow = 0 if bisect or b - a <= 0.5 * width else slow + 1


def _anderson_bjorck(g, g_replaced):
    """Anderson & Bjorck's factor m = 1 - g / g_replaced for the value of
    the end a step kept, where g replaced g_replaced at the other end (of
    the same sign), or 1/2 (the Illinois factor) when m <= 0.  g_replaced
    is the unscaled value of the step before, which passed
    |g| > tol_abs >= 0, so it is not 0."""
    m = 1.0 - g / g_replaced
    return m if m > 0.0 else 0.5


def solve_level(matrix_error, factors):
    """Filter level matching a matrix error budget: distance = error**2,
    over mpm's filter ``factors.positive_quartic``
    (:class:`~minpinv.linalg.SvdFactors`).  Returns ``(level, jumped)``.
    Raises when the squared budget reaches the total spectral energy
    (total annihilation).
    """
    if not matrix_error > 0.0:
        raise InputError("matrix error bound must be positive")
    quartic = factors.positive_quartic
    total_energy = float(np.sum(quartic.sigma * quartic.sigma))
    target = matrix_error * matrix_error
    if target >= total_energy:
        raise SolverError(
            "error level exceeds matrix energy",
            f"error^2 {target} >= total {total_energy}",
        )
    f, breaks, jumps, bounds = quartic.distance_sq
    return solve_generalized_root(f, breaks, jumps, target, 1e-12 * target, bounds=bounds)


@dataclass(frozen=True)
class MpmResult:
    """One minimal-pseudoinverse run: pinv, filtered matrix and spectrum."""

    pinv: np.ndarray
    matrix: np.ndarray
    sigma: np.ndarray          # original singular values
    level: float               # chosen filter level
    filtered_sigma: np.ndarray
    jumped: bool               # level landed on a breakpoint

    @property
    def rank(self):
        return int(np.sum(self.filtered_sigma > 0.0))


def filtered_spectrum(sigma, level):
    """Filtered singular values sigma_k * x_k(level) as an array."""
    sigma = np.asarray(sigma, dtype=np.float64)
    return sigma * _kernels.filter_x(sigma, float(level))


def minimal_pseudoinverse(a, matrix_error):
    """Minimal pseudoinverse and matrix for data ``a`` with error bound.

    The distance between the returned matrix and ``a`` never exceeds the
    bound (modulo rounding in the factorization).
    """
    factors = svd(a)
    level, jumped = solve_level(matrix_error, factors)
    filtered = filtered_spectrum(factors.sigma, level)
    return MpmResult(
        pinv=assemble_filtered_pinv(factors, filtered),
        matrix=assemble_filtered_matrix(factors, filtered),
        sigma=factors.sigma,
        level=level,
        filtered_sigma=filtered,
        jumped=jumped,
    )
