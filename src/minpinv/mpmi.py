"""Solving Az = u with exact matrix and noisy right-hand side (MPMI method).

The singular spectrum of the exact matrix is inflated by the quartic-law
filter factors x_k(h) >= 1 of :class:`~minpinv._kernels.QuarticFilter`,
which solve x**4 - x**3 = h / sigma_k**4 over the numerical rank: 1 at
h = 0, rising to exactly 3/2 at the per-index breakpoint (27/16)
sigma_k**4, and 0 (truncation) past it.  x_k is left-continuous in h and
1/x_k (0 once truncated) is nonincreasing.
The filter level h is chosen so that the solution residual matches the
noise level (discrepancy principle): the squared residual is monotone
and left-continuous in h, so the equation has a generalized root that
may land on a breakpoint (a "jump root"); tr and morozov share its
:func:`discrepancy_root` with their own curves.  Inflation strictly shrinks
the working spectrum's extreme-value ratio, so the effective operator
is better conditioned than the original matrix on the surviving block.
At a jump root the last survivor is inflated by exactly x_r = 3/2, so
the condition number is (2/3) sigma_1 x_1 / sigma_r and the improvement
over sigma_1 / sigma_r is 1.5 / x_1, which lies in [1, 3/2): at most,
not at least, one and a half fold.
"""

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError, SolverError
from .linalg import spectrum_cond
from .mpm import solve_generalized_root

__all__ = [
    "DiscrepancyCurve",
    "discrepancy_curve",
    "SolveReport",
    "head_residual_sq",
    "spectral_report",
    "discrepancy_target",
    "discrepancy_root",
]


@dataclass(frozen=True)
class DiscrepancyCurve:
    """Sampled squared-residual curve."""

    levels: np.ndarray
    values: np.ndarray          # squared residuals on the level grid


def discrepancy_curve(factors, u, num=257):
    """Sample the squared-residual curve for plotting/reporting at ``num``
    levels: level 0, then a geometric grid from 1e-3 times the smallest
    breakpoint to 1.05 times the largest."""
    if isinstance(num, bool) or not isinstance(num, numbers.Integral) or num < 1:
        raise InputError(f"a curve needs an integer count of at least one level, got {num!r}")
    breaks = factors.quartic.breaks
    levels = np.concatenate([[0.0], np.geomspace(breaks[-1] * 1e-3, breaks[0] * 1.05, num - 1)])
    residual_sq = factors.quartic.residual_sq(factors.project_rhs(u))[0]
    return DiscrepancyCurve(levels, np.array([residual_sq(float(lv)) for lv in levels]))


def discrepancy_target(coeffs, rank, delta_abs):
    """Discrepancy target delta_abs^2 + floor^2 for right-hand side
    coordinates ``coeffs`` from :meth:`~minpinv.linalg.SvdFactors.project_rhs`,
    the floor being the coordinate tail past ``rank``.

    Returns ``(target, floor_sq, u_norm_sq)``.  Raises "noise dominates
    signal" when the target reaches the plateau ||u||^2.
    """
    if not delta_abs > 0.0:
        raise InputError("noise bound must be positive")
    floor_sq = float(np.add.reduce(coeffs[rank:] ** 2))   # np.sum without its wrapper
    u_norm_sq = float(np.add.reduce(coeffs * coeffs))
    target = delta_abs * delta_abs + floor_sq
    if target >= u_norm_sq:
        raise SolverError(
            "noise dominates signal",
            f"target residual^2 {target} >= ||u||^2 {u_norm_sq}",
        )
    return target, floor_sq, u_norm_sq


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one regularized solve."""

    solution: np.ndarray
    method: str
    parameter: float            # filter level, alpha, or rank
    effective_rank: int
    condition_number: float
    residual: float             # ||A z - u|| of the returned solution
    residual_floor: float       # part of u unreachable from the range
    jump_root: bool = False

    def to_dict(self, solution_inline=True):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        solution = out.pop("solution")
        if solution_inline:
            out["solution"] = solution.tolist()
        return out


def head_residual_sq(sigma, s, coeffs_sq):
    """Sum over k of (1 - sigma_k / s_k)^2 * coeffs_sq[k].

    ``s`` is an effective spectrum over the same indices as ``sigma``;
    an index with s_k = 0 is truncated and contributes coeffs_sq[k] in
    full.  This is the squared residual of z = V (c / s) on those indices.
    """
    ratio = np.divide(sigma, s, out=np.zeros(len(s)), where=s > 0.0)
    return float(np.add.reduce((1.0 - ratio) ** 2 * coeffs_sq))


def spectral_report(factors, coeffs, method, s, parameter, jump_root=False):
    """The :class:`SolveReport` of z = V (c / s) for an effective spectrum.

    ``coeffs`` come from :meth:`~minpinv.linalg.SvdFactors.project_rhs`
    over at least the numerical rank and r = len(s) columns.  ``s`` covers
    the leading r indices; s_k = 0 truncates index k and every index past
    r is truncated.  The residual, effective rank #(s > 0), condition
    number max/min(s > 0) and residual floor all come from ``coeffs``,
    with no second projection.  A non-finite s_k raises "spectrum overflow".
    """
    if len(s) and not s.max() < np.inf:   # s >= 0: max(s) is finite iff every s_k is
        raise SolverError("spectrum overflow", f"{method} at parameter {parameter!r}")
    r = len(s)
    head = coeffs[:r]
    resid_sq = head_residual_sq(factors.sigma[:r], s, head * head)
    resid_sq += float(np.add.reduce(coeffs[r:] ** 2))
    floor = coeffs[factors.rank:]
    basis = factors.rank_block[1] if r == factors.rank else factors.v[:, :r]
    return SolveReport(
        solution=basis @ np.divide(head, s, out=np.zeros(r), where=s > 0.0),
        method=method,
        parameter=parameter,
        effective_rank=int(np.count_nonzero(s)),   # s >= 0
        condition_number=spectrum_cond(s),
        residual=math.sqrt(resid_sq),
        residual_floor=math.sqrt(np.add.reduce(floor * floor)),
        jump_root=bool(jump_root),
    )


def discrepancy_root(curve, rtol, factors, coeffs, delta_abs):
    """``(parameter, jumped)`` where the squared residual ``curve(factors,
    coeffs) = (f, breaks, jumps, bounds)`` meets the discrepancy target,
    by :func:`~minpinv.mpm.solve_generalized_root` within ``rtol`` ||u||^2.
    The curve is built first: at numerical rank 0 a method with no curve
    raises its InputError, not "noise dominates signal"."""
    f, breaks, jumps, bounds = curve(factors, coeffs)
    target, _, u_norm_sq = discrepancy_target(coeffs, factors.rank, delta_abs)
    return solve_generalized_root(f, breaks, jumps, target, rtol * u_norm_sq, bounds=bounds)
