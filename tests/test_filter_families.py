"""The root finder on a non-quartic residual, and repeated singular values.

A linear-inflation residual exercises the root finder through nothing
but its contract, and repeated singular values exercise breakpoint
merging.
"""

import numpy as np
import pytest

import minpinv.mpmi
import oracles
from minpinv.baselines import solve
from minpinv.errors import SolverError
from minpinv.linalg import svd
from minpinv.mpm import (
    QUARTIC_MAX,
    minimal_pseudoinverse,
    solve_generalized_root,
    solve_level,
)
from minpinv.mpmi import discrepancy_target


def linear_residual_sq(level):
    """Squared residual of A = diag(1), u = (2) under the linear inflation
    x(h) = 1 + h up to the breakpoint 1, then truncation: the continuous
    part (1 - 1/(1+h))^2 * 4 tops out at 1, the plateau is 4."""
    if level > 1.0:
        return 4.0
    return (1.0 - 1.0 / (1.0 + level)) ** 2 * 4.0


class TestGenericSolvePath:
    # one breakpoint at 1, where the residual jumps from 1 to 4; the
    # tolerance is the mpmi solver's, 1e-12 ||u||^2
    BREAKS, JUMPS, TOL = [1.0], [3.0], 4e-12

    def test_interior_root_closed_form(self):
        # (1 - 1/(1+h))^2 * 4 = 1/2  =>  h = c / (1 - c), c = sqrt(1/8)
        c = np.sqrt(0.125)
        expected = c / (1.0 - c)
        level, jumped = solve_generalized_root(
            linear_residual_sq, self.BREAKS, self.JUMPS, 0.5, self.TOL)
        assert not jumped
        assert level == pytest.approx(expected, rel=1e-9)

    def test_jump_root(self):
        # continuous part tops out at (1 - 1/2)^2 * 4 = 1, plateau is 4
        level, jumped = solve_generalized_root(
            linear_residual_sq, self.BREAKS, self.JUMPS, 2.0, self.TOL)
        assert jumped
        assert level == 1.0
        assert linear_residual_sq(1.0) == pytest.approx(1.0, rel=1e-12)

    def test_noise_dominates_generic(self):
        # target 2^2 + floor 0 reaches ||u||^2 = 4
        coeffs = svd(np.diag([1.0])).project_rhs(np.array([2.0]))
        with pytest.raises(SolverError, match="noise dominates"):
            discrepancy_target(coeffs, 1, 2.0)


class TestRepeatedSingularValues:
    def test_mpm_merged_breakpoint_jump(self):
        # duplicate top values share one breakpoint; the jump there merges
        sigma = np.array([2.0, 2.0, 1.0])
        # left value at the top break: both doubles inflated to 3,
        # (3-2)^2 * 2, plus the annihilated third: +1  =>  3
        # right limit: 4 + 4 + 1 = 9; a budget^2 of 5 lands in the jump
        level, jumped = solve_level(np.sqrt(5.0), oracles.diag_factors(sigma))
        assert jumped
        assert level == QUARTIC_MAX * 2.0**4  # 27 = (27/16)·2⁴; duplicates share one breakpoint

    def test_mpm_pseudoinverse_with_duplicates(self):
        result = minimal_pseudoinverse(np.diag([2.0, 2.0, 1.0]), np.sqrt(5.0))
        filtered = result.filtered_sigma
        np.testing.assert_allclose(filtered, [3.0, 3.0, 0.0], atol=1e-12)
        assert result.rank == 2

    def test_mpmi_equal_values_share_fate(self):
        factors = svd(np.diag([1.0, 1.0]))
        quartic = factors.quartic
        assert quartic.breaks[0] == quartic.breaks[1]
        u = np.array([2.0, 1.0])
        # jump at the shared breakpoint: left (1/9)*5, right 5; ||u||^2 = 5
        target_sq = 3.0
        report = solve(factors, u, "mpmi", delta_abs=float(np.sqrt(target_sq)))
        assert report.jump_root
        assert report.effective_rank == 2
        assert report.condition_number == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_allclose(
            report.solution, np.array([2.0, 1.0]) / 1.5, atol=1e-12
        )

    @pytest.mark.parametrize("method", ["tr", "morozov"])
    def test_alpha_grid_keeps_ties(self, method, rng, monkeypatch):
        # sigma^2 = 4 sits three times in the ascending alpha grid, with zero
        # jumps; alpha must have the bits of the search over the merged grid
        factors = oracles.diag_factors([3.0, 2.0, 2.0, 2.0, 1.0, 0.5])
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return solve_generalized_root(*args, **kwargs)

        monkeypatch.setattr(minpinv.mpmi, "solve_generalized_root", recording)
        for _ in range(100):
            u = rng.standard_normal(6)
            calls.clear()
            delta_abs = rng.uniform(0.05, 0.95) * float(np.linalg.norm(u))
            report = solve(factors, u, method, delta_abs=delta_abs)
            ((eval_fn, breaks, jumps, target, tol_abs), kwargs), = calls
            assert kwargs == {"bounds": None}
            assert breaks.tolist().count(4.0) == 3
            merged = oracles.ascending_breakpoints_loop(breaks, jumps)
            alpha, _ = solve_generalized_root(eval_fn, *merged, target, tol_abs)
            assert report.parameter.hex() == alpha.hex()


class TestDegenerateShapes:
    def test_row_matrix(self):
        a = np.array([[3.0, 0.0, 4.0]])
        factors = svd(a)
        assert factors.sigma[0] == pytest.approx(5.0)
        report = solve(factors, np.array([10.0]), "mpmi", delta_abs=1e-6)
        # minimum-norm solution of a single equation
        np.testing.assert_allclose(
            report.solution, [1.2, 0.0, 1.6], atol=1e-4
        )

    def test_column_matrix(self):
        a = np.array([[3.0], [0.0], [4.0]])
        factors = svd(a)
        u = np.array([3.0, 1.0, 4.0])
        delta = 0.5
        report = solve(factors, u, "mpmi", delta_abs=delta)
        assert report.solution.shape == (1,)
        # sigma = 5, head of U^T u = 5, floor = 1: the discrepancy equation
        # 25 (1 - z)^2 + 1 = delta^2 + 1 gives z = 1 - delta/5
        assert report.solution[0] == pytest.approx(1.0 - delta / 5.0, rel=1e-10)
        assert report.residual_floor == pytest.approx(1.0, rel=1e-10)
        assert report.residual == pytest.approx(np.sqrt(delta**2 + 1.0**2), rel=1e-10)

    def test_scalar_matrix(self):
        result = minimal_pseudoinverse(np.array([[2.0]]), 0.1)
        assert result.pinv.shape == (1, 1)
        assert result.rank == 1
