"""Output checks.  Each returns a list of failure messages, empty when the
output holds.  Tolerances are the ones the solvers state for themselves.
"""

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# |f(level) - target| tolerance of each discrepancy solver, as a multiple
# of ||u||^2: mpmi stops its bisection at 1e-12 ||u||^2, discrepancy_alpha
# at 1e-10 ||u||^2, and the TSVD rank is a step function chosen exactly.
SOLVER_TOL = {"mpmi": 1e-12, "tr": 1e-10, "morozov": 1e-10, "tsvd": 0.0}

# A reported residual is a square root; squaring it back and comparing
# with a target summed in another order may differ by a few ulps.
ROUNDING_ULPS = 8

CLI_RESIDUAL_RTOL = 1e-9
MPM_BUDGET_RTOL = 1e-12


def discrepancy(method, residual, delta_abs, floor_sq, u_norm_sq):
    """residual^2 <= delta^2 + floor^2 + tol, tol from SOLVER_TOL."""
    target = delta_abs * delta_abs + floor_sq
    bound = target * (1.0 + ROUNDING_ULPS * EPS) + SOLVER_TOL[method] * u_norm_sq
    if residual * residual <= bound:
        return []
    return [f"{method}: residual^2 {residual * residual!r} above "
            f"delta^2 + floor^2 + tol = {bound!r}"]


def mpm_budget(distance_sq, budget):
    """Squared spectral distance within the squared error budget."""
    if distance_sq <= budget * budget * (1.0 + MPM_BUDGET_RTOL):
        return []
    return [f"mpm: distance^2 {distance_sq!r} above budget^2 {budget * budget!r}"]


def relative_error_below_one(rel_err):
    """A regularized solution must beat the zero solution."""
    if rel_err < 1.0:
        return []
    return [f"relative error {rel_err!r} not below 1"]


def residual_matches(reported, recomputed):
    """The reported ||A z - u|| matches one recomputed from z."""
    if abs(reported - recomputed) <= CLI_RESIDUAL_RTOL * abs(reported):
        return []
    return [f"reported residual {reported!r} != recomputed {recomputed!r}"]


def repeatable(seen, key, outputs):
    """The same inputs gave the same outputs earlier in this run."""
    first = seen.setdefault(key, outputs)
    if first == outputs:
        return []
    return [f"inputs {key!r} gave {outputs!r}, earlier {first!r}"]
