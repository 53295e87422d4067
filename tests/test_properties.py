"""Solver invariants on random graded spectra.

Each example is a diagonal matrix with sigma_k = 10**(-g k / n),
k = 0..n-1, stacked on zero rows so that part of a random right-hand side
is out of reach (a residual floor).  The noise bound spends a random
fraction of the reachable energy ||u||^2 - floor^2; the mpm error bound
spends a random fraction of the spectral energy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from minpinv.baselines import solve
from minpinv.errors import SolverError
from minpinv.linalg import svd
from minpinv.mpm import spectrum_distance_sq


@st.composite
def graded_problems(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    grade = draw(st.floats(min_value=0.0, max_value=8.0))
    pad = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    fraction = draw(st.floats(min_value=0.05, max_value=0.95))
    sigma = 10.0 ** (-grade * np.arange(n) / n)
    a = np.vstack([np.diag(sigma), np.zeros((pad, n))])
    u = np.random.default_rng(seed).standard_normal(n + pad)
    factors = svd(a)
    coeffs = factors.project_rhs(u)
    reachable = float(np.sum(coeffs[: factors.rank] ** 2))
    delta_abs = float(np.sqrt(fraction * reachable))
    h = float(np.sqrt(fraction * np.sum(factors.sigma ** 2)))
    return factors, u, delta_abs, h


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@given(graded_problems())
@PROPERTY_SETTINGS
def test_mpmi_level_sandwiches_the_target(problem):
    factors, u, delta_abs, _ = problem
    report = solve(factors, u, "mpmi", delta_abs=delta_abs)
    coeffs = factors.project_rhs(u)
    residual_sq = factors.quartic.residual_sq(coeffs)[0]
    target = delta_abs ** 2 + float(np.sum(coeffs[factors.rank:] ** 2))
    slack = 1e-12 * float(u @ u)
    level = report.parameter
    below = residual_sq(np.nextafter(level, -np.inf))
    above = residual_sq(np.nextafter(level, np.inf))
    assert below <= target + slack
    assert above >= target - slack


@given(graded_problems())
@PROPERTY_SETTINGS
def test_mpmi_jump_root_identity(problem):
    # at a jump root the last survivor sits at x_r = 3/2 exactly, so the
    # condition number is (2/3) sigma_1 x_1 / sigma_r
    factors, u, delta_abs, _ = problem
    report = solve(factors, u, "mpmi", delta_abs=delta_abs)
    if not report.jump_root:
        return
    x = factors.quartic.x_values(report.parameter)
    r = report.effective_rank
    assert x[r - 1] == 1.5
    expected = (2.0 / 3.0) * factors.sigma[0] * x[0] / factors.sigma[r - 1]
    assert abs(report.condition_number - expected) <= 1e-12 * expected
    # so the improvement over sigma_1/sigma_r is 1.5/x_1, in [1, 3/2): at
    # most one and a half fold (x_1 rounds to 1 on steeply graded spectra)
    improvement = factors.sigma[0] / factors.sigma[r - 1] / report.condition_number
    assert abs(improvement - 1.5 / x[0]) <= 1e-12 * improvement
    assert 1.0 - 1e-12 <= improvement <= 1.5 * (1.0 + 1e-12)


@given(graded_problems())
@PROPERTY_SETTINGS
def test_mpmi_condition_number_within_raw(problem):
    factors, u, delta_abs, _ = problem
    report = solve(factors, u, "mpmi", delta_abs=delta_abs)
    raw = factors.sigma[0] / factors.sigma[factors.rank - 1]
    assert report.condition_number <= raw * (1.0 + 1e-12)


@given(graded_problems())
@PROPERTY_SETTINGS
def test_mpm_distance_within_budget(problem):
    factors, u, _, h = problem
    report = solve(factors, u, "mpm", h=h)
    assert spectrum_distance_sq(report.parameter, factors.sigma) <= h * h * (1.0 + 1e-12)


@given(graded_problems(), st.sampled_from(["mpmi", "mpm", "tsvd", "tr", "morozov"]))
@PROPERTY_SETTINGS
def test_repeated_solve_is_identical(problem, method):
    factors, u, delta_abs, h = problem
    kwargs = {"h": h} if method == "mpm" else {"delta_abs": delta_abs}

    def outcome():
        try:
            return solve(factors, u, method, **kwargs).to_dict()
        except SolverError as exc:
            return str(exc)

    assert outcome() == outcome()
