"""The filter-family abstraction with a non-quartic member.

A linear-inflation family exercises the root finder and the curve
sampler through nothing but the family contract, and repeated singular
values exercise breakpoint merging.
"""

import numpy as np
import pytest

from minpinv.errors import SolverError
from minpinv.linalg import svd
from minpinv.mpm import QUARTIC_MAX, minimal_pseudoinverse, solve_level
from minpinv.mpmi import (
    FilterFamily,
    MpmiFilterFamily,
    discrepancy_curve,
    discrepancy_sq,
    filtered_condition_number,
    mpmi_solve,
    solve_filter_level,
)


class LinearFamily(FilterFamily):
    """x_k(h) = 1 + slope_k * h up to a per-index breakpoint, then 0."""

    def __init__(self, sigma, slopes, breaks, cap=None):
        self.sigma = np.asarray(sigma, dtype=np.float64)
        self.slopes = np.asarray(slopes, dtype=np.float64)
        self.breaks = np.asarray(breaks, dtype=np.float64)
        self.upper_bounds = 1.0 + self.slopes * self.breaks
        self.cap = cap if cap is not None else 1.5 * float(np.max(self.breaks))

    def x_values(self, level):
        if level == 0.0:
            return np.ones(len(self.sigma))
        return np.where(level <= self.breaks, 1.0 + self.slopes * level, 0.0)


class TestLinearFamilyContract:
    def test_assumptions_hold(self):
        family = LinearFamily([2.0, 1.0], [0.5, 1.0], [2.0, 1.0])
        assert np.all(family.x_values(0.0) == 1.0)
        grid = np.linspace(1e-9, family.cap, 200)
        prev = np.ones(2)
        for level in grid:
            x = family.x_values(level)
            live = x > 0.0
            assert np.all(x[live] > 1.0)
            assert np.all(x[live] <= family.upper_bounds[live] + 1e-12)
            theta = family.theta_values(level)
            assert np.all(theta <= prev + 1e-12)
            prev = theta
        assert np.all(family.x_values(family.cap) == 0.0)


class TestGenericSolvePath:
    @pytest.fixture
    def setup(self):
        factors = svd(np.diag([1.0]))
        family = LinearFamily([1.0], [1.0], [1.0])
        u = np.array([2.0])
        return factors, family, u

    def test_interior_root_closed_form(self, setup):
        factors, family, u = setup
        # (1 - 1/(1+h))^2 * 4 = 1/2  =>  h = c / (1 - c), c = sqrt(1/8)
        c = np.sqrt(0.125)
        expected = c / (1.0 - c)
        level, curve, jumped = solve_filter_level(
            factors, u, np.sqrt(0.5), family=family
        )
        assert not jumped
        assert level == pytest.approx(expected, rel=1e-9)
        assert curve is not None

    def test_jump_root(self, setup):
        factors, family, u = setup
        # continuous part tops out at (1 - 1/2)^2 * 4 = 1, plateau is 4
        level, _, jumped = solve_filter_level(
            factors, u, np.sqrt(2.0), family=family
        )
        assert jumped
        assert level == 1.0
        assert discrepancy_sq(1.0, factors.project_rhs(u), family) \
            == pytest.approx(1.0, rel=1e-12)

    def test_generic_curve_structure(self, setup):
        factors, family, u = setup
        curve = discrepancy_curve(factors, u, family=family, num=65)
        assert len(curve.levels) == 65
        assert np.all(np.diff(curve.values) >= -1e-12 * curve.plateau_sq)
        assert curve.break_left[0] == pytest.approx(1.0, rel=1e-12)
        assert curve.break_right[0] == pytest.approx(4.0, rel=1e-12)

    def test_condition_number_with_linear_family(self):
        factors = svd(np.diag([4.0, 2.0]))
        family = LinearFamily([4.0, 2.0], [0.1, 0.4], [4.0, 2.0])
        # at level 2 the second index sits at its breakpoint (x = 1.8)
        nu = filtered_condition_number(factors, family, 2.0)
        assert nu == pytest.approx((4.0 * 1.2) / (2.0 * 1.8), rel=1e-12)

    def test_noise_dominates_generic(self, setup):
        factors, family, u = setup
        with pytest.raises(SolverError, match="noise dominates"):
            solve_filter_level(factors, u, 2.0, family=family)


class TestRepeatedSingularValues:
    def test_mpm_merged_breakpoint_jump(self):
        # duplicate top values share one breakpoint; the jump there merges
        sigma = np.array([2.0, 2.0, 1.0])
        # left value at the top break: both doubles inflated to 3,
        # (3-2)^2 * 2, plus the annihilated third: +1  =>  3
        # right limit: 4 + 4 + 1 = 9; a budget^2 of 5 lands in the jump
        level, jumped = solve_level(np.sqrt(5.0), sigma)
        assert jumped
        assert level == QUARTIC_MAX * 2.0**4  # 27 = (27/16)·2⁴; duplicates share one breakpoint

    def test_mpm_pseudoinverse_with_duplicates(self):
        result = minimal_pseudoinverse(np.diag([2.0, 2.0, 1.0]), np.sqrt(5.0))
        filtered = result.spectrum.filtered_sigma
        np.testing.assert_allclose(filtered, [3.0, 3.0, 0.0], atol=1e-12)
        assert result.spectrum.rank == 2

    def test_mpmi_equal_values_share_fate(self):
        factors = svd(np.diag([1.0, 1.0]))
        family = MpmiFilterFamily(factors.sigma, factors.rank)
        assert family.breaks[0] == family.breaks[1]
        u = np.array([2.0, 1.0])
        # jump at the shared breakpoint: left (1/9)*5, right 5; ||u||^2 = 5
        target_sq = 3.0
        report = mpmi_solve(factors, u, float(np.sqrt(target_sq)))
        assert report.jump_root
        assert report.effective_rank == 2
        assert report.condition_number == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_allclose(
            report.solution, np.array([2.0, 1.0]) / 1.5, atol=1e-12
        )


class TestDegenerateShapes:
    def test_row_matrix(self):
        a = np.array([[3.0, 0.0, 4.0]])
        factors = svd(a)
        assert factors.sigma[0] == pytest.approx(5.0)
        report = mpmi_solve(factors, np.array([10.0]), 1e-6)
        # minimum-norm solution of a single equation
        np.testing.assert_allclose(
            report.solution, [1.2, 0.0, 1.6], atol=1e-4
        )

    def test_column_matrix(self):
        a = np.array([[3.0], [0.0], [4.0]])
        factors = svd(a)
        u = np.array([3.0, 1.0, 4.0])
        delta = 0.5
        report = mpmi_solve(factors, u, delta)
        assert report.solution.shape == (1,)
        # sigma = 5, head of U^T u = 5, floor = 1: the discrepancy equation
        # 25 (1 - z)^2 + 1 = delta^2 + 1 gives z = 1 - delta/5
        assert report.solution[0] == pytest.approx(1.0 - delta / 5.0, rel=1e-10)
        assert report.residual_floor == pytest.approx(1.0, rel=1e-10)
        assert report.residual == pytest.approx(np.sqrt(delta**2 + 1.0**2), rel=1e-10)

    def test_scalar_matrix(self):
        result = minimal_pseudoinverse(np.array([[2.0]]), 0.1)
        assert result.pinv.shape == (1, 1)
        assert result.spectrum.rank == 1
