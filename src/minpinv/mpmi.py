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
may land on a breakpoint (a "jump root").  Inflation strictly shrinks
the working spectrum's extreme-value ratio, so the effective operator
is better conditioned than the original matrix on the surviving block.
At a jump root the last survivor is inflated by exactly x_r = 3/2, so
the condition number is (2/3) sigma_1 x_1 / sigma_r and the improvement
over sigma_1 / sigma_r is 1.5 / x_1, which lies in [1, 3/2): at most,
not at least, one and a half fold.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import _kernels
from .errors import InputError, SolverError
from .linalg import spectrum_cond
from .mpm import (
    ascending_breakpoints,
    check_spectrum,
    filtered_spectrum,
    solve_generalized_root,
)

__all__ = [
    "DiscrepancyCurve",
    "discrepancy_curve",
    "SolveReport",
    "head_residual_sq",
    "spectral_report",
    "discrepancy_target",
    "mpmi_spectrum",
]

# theta = 1/x drops from 2/3 to 0 at a breakpoint, so the squared residual
# of index k jumps there by (1 - (1 - 2/3)^2) c_k^2.
JUMP = 1.0 - (1.0 - 1.0 / 1.5) ** 2


def _rank_filter(factors):
    """The quartic filter over the numerical rank of ``factors``; raises
    InputError unless the spectrum is nonincreasing and the rank counts at
    least one value, all positive."""
    sigma = check_spectrum(factors.sigma)
    rank = factors.rank
    if rank < 1 or sigma[rank - 1] <= 0.0:
        raise InputError(f"quartic filter needs rank >= 1 over positive values, got {rank}")
    return _kernels.QuarticFilter(sigma[:rank])


@dataclass(frozen=True)
class DiscrepancyCurve:
    """Sampled squared-residual curve with its breakpoint jump values."""

    levels: np.ndarray
    values: np.ndarray          # squared residuals on the level grid
    break_levels: np.ndarray    # ascending distinct breakpoints
    break_left: np.ndarray      # value at the breakpoint (left-continuous)
    break_right: np.ndarray     # right limit past the breakpoint
    floor_sq: float             # value at level 0
    plateau_sq: float           # value past the largest breakpoint


def discrepancy_curve(factors, u, num=257):
    """Sample the squared-residual curve for plotting/reporting at ``num``
    levels: level 0, then a geometric grid up past the last breakpoint."""
    if num < 1:
        raise InputError(f"a curve needs at least one level, got {num}")
    quartic = _rank_filter(factors)
    rank = factors.rank
    coeffs = factors.project_rhs(u, rank)
    floor_sq = float(np.sum(coeffs[rank:] ** 2))
    plateau_sq = floor_sq + float(np.sum(coeffs[:rank] ** 2))
    breaks, jumps = ascending_breakpoints(quartic.breaks, JUMP * coeffs[:rank] ** 2)
    top = breaks[-1]
    levels = np.concatenate([[0.0], np.geomspace(breaks[0] * 1e-3, top * 1.05, num - 1)])
    residual_sq = quartic.residual_sq(coeffs)
    values = np.array([residual_sq(float(lv)) for lv in levels])
    lefts = np.array([residual_sq(float(b)) for b in breaks])
    rights = lefts + jumps
    return DiscrepancyCurve(
        levels=levels,
        values=values,
        break_levels=breaks,
        break_left=lefts,
        break_right=rights,
        floor_sq=floor_sq,
        plateau_sq=plateau_sq,
    )


def discrepancy_target(coeffs, rank, delta_abs):
    """Discrepancy target delta_abs^2 + floor^2 for right-hand side
    coordinates ``coeffs`` from :meth:`~minpinv.linalg.SvdFactors.project_rhs`,
    the floor being the coordinate tail past ``rank``.

    Returns ``(target, floor_sq, u_norm_sq)``.  Raises "noise dominates
    signal" when the target reaches the plateau ||u||^2.
    """
    if not delta_abs > 0.0:
        raise InputError("noise bound must be positive")
    floor_sq = float(np.sum(coeffs[rank:] ** 2))
    u_norm_sq = float(np.sum(coeffs * coeffs))
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
    return float(np.sum((1.0 - ratio) ** 2 * coeffs_sq))


def spectral_report(factors, coeffs, method, s, parameter, jump_root=False):
    """The :class:`SolveReport` of z = V (c / s) for an effective spectrum.

    ``coeffs`` come from :meth:`~minpinv.linalg.SvdFactors.project_rhs`
    over at least the numerical rank and r = len(s) columns.  ``s`` covers
    the leading r indices; s_k = 0 truncates index k and every index past
    r is truncated.  The
    residual, effective rank #(s > 0), condition number max/min(s > 0)
    and residual floor all come from ``coeffs``, with no second
    projection.
    """
    r = len(s)
    head = coeffs[:r]
    resid_sq = head_residual_sq(factors.sigma[:r], s, head * head)
    resid_sq += float(np.sum(coeffs[r:] ** 2))
    floor = coeffs[factors.rank:]
    return SolveReport(
        solution=factors.v[:, :r] @ np.divide(head, s, out=np.zeros(r), where=s > 0.0),
        method=method,
        parameter=parameter,
        effective_rank=int(np.sum(s > 0.0)),
        condition_number=spectrum_cond(s),
        residual=float(np.sqrt(resid_sq)),
        residual_floor=float(np.sqrt(np.sum(floor * floor))),
        jump_root=bool(jump_root),
    )


def mpmi_spectrum(factors, coeffs, delta_abs):
    """Effective spectrum sigma_k x_k(h) over the numerical rank, at the
    filter level h that the discrepancy principle picks for ``coeffs``.

    Returns ``(s, level, jumped)``.  Raises "noise dominates signal" when
    the target reaches the plateau ||u||^2.
    """
    quartic = _rank_filter(factors)
    rank = factors.rank
    target, _, u_norm_sq = discrepancy_target(coeffs, rank, delta_abs)
    level, jumped = solve_generalized_root(
        quartic.residual_sq(coeffs), quartic.breaks, JUMP * coeffs[:rank] ** 2,
        target, tol_abs=1e-12 * u_norm_sq,
    )
    return filtered_spectrum(quartic.sigma, level), level, jumped
