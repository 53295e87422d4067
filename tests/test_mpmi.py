"""Filter factor contract, discrepancy equation, full noisy-rhs solves."""

import dataclasses

import numpy as np
import pytest

import oracles
from minpinv._kernels import QuarticFilter
from minpinv.baselines import solve
from minpinv.errors import InputError, SolverError
from minpinv.linalg import SvdFactors, spectrum_cond, svd
from minpinv.mpm import QUARTIC_MAX
from minpinv.mpmi import discrepancy_curve

# frozen from the bisection oracle: x**4 - x**3 = 1/16
X_AT_SIXTEENTH = 1.0534596701881083
# frozen interior-root example: A = diag(1), u = (2), target residual^2 0.2
INTERIOR_LEVEL = 0.6154008690164714


class TestFamilyContract:
    """Assumptions on the filter factors, checked on a concrete spectrum."""

    @pytest.fixture
    def quartic(self, rng):
        sigma = np.sort(rng.uniform(0.3, 4.0, 12))[::-1].copy()
        return QuarticFilter(sigma)

    def test_at_zero_all_one(self, quartic):
        np.testing.assert_array_equal(quartic.x_values(0.0), np.ones(len(quartic.sigma)))

    def test_right_limit_at_zero(self, quartic):
        # small but representable: t below ~eps rounds x to exactly 1.0
        x = quartic.x_values(float(quartic.breaks[-1]) * 1e-8)
        assert np.all(x >= 1.0)
        assert x[-1] > 1.0
        np.testing.assert_allclose(x, 1.0, atol=1e-7)

    def test_bounds_hold_up_to_breakpoint(self, quartic):
        for level in np.geomspace(quartic.breaks[-1] * 1e-6, 1.5 * quartic.breaks[0], 50):
            x = quartic.x_values(level)
            live = x > 0.0
            assert np.all(x[live] > 1.0)
            assert np.all(x[live] <= 1.5)

    def test_vanishes_at_cap(self, quartic):
        cap = 1.5 * quartic.breaks[0]
        assert np.all(quartic.x_values(cap) == 0.0)
        assert cap > quartic.breaks[0]

    def test_theta_bounded_and_nonincreasing(self, quartic):
        # derived property: 0 <= 1/x <= 1, nonincreasing in the level
        grid = np.concatenate([[0.0], np.geomspace(
            quartic.breaks[-1] * 1e-9, 1.5 * quartic.breaks[0], 400)])
        prev = np.ones(len(quartic.sigma))
        for level in grid:
            x = quartic.x_values(level)
            theta = np.divide(1.0, x, out=np.zeros(len(x)), where=x > 0.0)
            assert np.all(theta >= 0.0) and np.all(theta <= 1.0)
            assert np.all(theta <= prev + 1e-12)
            prev = theta

    def test_left_continuity_at_breakpoints(self, quartic):
        for k, brk in enumerate(quartic.breaks):
            at = quartic.x_values(float(brk))[k]
            just_below = quartic.x_values(float(brk) * (1.0 - 1e-13))[k]
            assert at == 1.5
            assert just_below == pytest.approx(1.5, abs=1e-6)

    def test_slopes_match_small_level_expansion(self, quartic):
        level = quartic.breaks[-1] * 1e-8
        x = quartic.x_values(level)
        # atol covers indices where slope * level sinks below one ulp of 1
        np.testing.assert_allclose(
            x - 1.0, quartic.sigma ** -4.0 * level, rtol=1e-6, atol=1e-15
        )

    def test_rejects_bad_construction(self):
        # a rising spectrum fails when the factors are built; a numerical
        # rank of zero fails at the filter and both entry points that use it
        f = svd(np.diag([2.0, 1.0]))
        with pytest.raises(InputError):
            SvdFactors(f.u, f.sigma[::-1].copy(), f.v, f.rank_tolerance)
        rank_zero = svd(np.diag([2.0, 1.0]), rank_tolerance=1e300)
        assert rank_zero.rank == 0
        with pytest.raises(InputError):
            rank_zero.quartic
        with pytest.raises(InputError):
            solve(rank_zero, np.ones(2), "mpmi", delta_abs=0.1)
        with pytest.raises(InputError):
            discrepancy_curve(rank_zero, np.ones(2))


class TestMpmiX:
    """The filter factor x of one singular value."""

    def test_at_zero(self):
        assert QuarticFilter([1.0]).x_values(0.0)[0] == 1.0

    def test_at_breakpoint(self):
        assert QuarticFilter([1.0]).x_values(QUARTIC_MAX)[0] == 1.5

    def test_frozen_value(self):
        # rho = 2, level = 1: x**4 - x**3 = 1/16
        x = QuarticFilter([2.0]).x_values(1.0)[0]
        assert x == pytest.approx(X_AT_SIXTEENTH, abs=1e-12)


class TestResidualFloor:
    """The floor coordinate of project_rhs: the part of u outside the range."""

    def test_zero_for_range_rhs(self, rng):
        a = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        f = svd(a)
        assert f.project_rhs(rng.standard_normal(5))[-1] <= 1e-10

    def test_component_outside_range(self):
        f = svd(np.diag([1.0, 0.0]))
        assert f.project_rhs(np.array([3.0, 4.0]))[-1] == pytest.approx(4.0)

    def test_matches_dense_projection(self, rng):
        a = oracles.rank_matrix(rng, 9, 6, 3)
        f = svd(a)
        u = rng.standard_normal(9)
        dense = np.linalg.norm(a @ (oracles.pinv(a) @ u) - u)
        assert f.project_rhs(u)[-1] == pytest.approx(dense, rel=1e-10)


class TestDiscrepancy:
    def test_zero_level_gives_floor(self, rng):
        a = oracles.rank_matrix(rng, 7, 5, 3)
        f = svd(a)
        u = rng.standard_normal(7)
        quartic = f.quartic
        coeffs = f.project_rhs(u)
        assert quartic.residual_sq(coeffs)[0](0.0) == pytest.approx(
            f.project_rhs(u)[-1] ** 2, rel=1e-12
        )

    def test_plateau_is_rhs_energy(self, rng):
        a = oracles.rank_matrix(rng, 7, 5, 3)
        f = svd(a)
        u = rng.standard_normal(7)
        quartic = f.quartic
        coeffs = f.project_rhs(u)
        past_top = 2.0 * quartic.breaks[0]
        assert quartic.residual_sq(coeffs)[0](past_top) == pytest.approx(
            float(u @ u), rel=1e-12
        )

    def test_breakpoint_value(self):
        # A = diag(1), u = (2), level at the breakpoint: (1 - 2/3)^2 * 4
        f = svd(np.diag([1.0]))
        quartic = f.quartic
        coeffs = f.project_rhs(np.array([2.0]))
        value = quartic.residual_sq(coeffs)[0](float(quartic.breaks[0]))
        assert value == pytest.approx(4.0 / 9.0, rel=1e-14)

    def test_discrepancy_saturates(self):
        # A = diag(1), u = (2): all of ||u||^2 past the breakpoint, 4/9 at it
        f = svd(np.diag([1.0]))
        quartic = f.quartic
        coeffs = f.project_rhs(np.array([2.0]))
        assert quartic.residual_sq(coeffs)[0](2.0) == 4.0
        at_break = quartic.residual_sq(coeffs)[0](QUARTIC_MAX)
        assert at_break == pytest.approx(4.0 / 9.0, rel=1e-14)

    def test_matches_oracle_everywhere(self, rng):
        a = oracles.rank_matrix(rng, 8, 6, 4)
        f = svd(a)
        u = rng.standard_normal(8)
        quartic = f.quartic
        coeffs = f.project_rhs(u)
        for level in np.geomspace(quartic.breaks[-1] * 1e-4, 1.5 * quartic.breaks[0], 40):
            ours = quartic.residual_sq(coeffs)[0](float(level))
            ref = oracles.mpmi_beta_sq(float(level), f.sigma, coeffs, f.rank)
            assert ours == pytest.approx(ref, rel=1e-9)


class TestSolveFilterLevel:
    def test_interior_root_frozen_example(self):
        f = svd(np.diag([1.0]))
        u = np.array([2.0])
        # target 0.2 = delta^2 (floor is 0): delta = sqrt(0.2)
        report = solve(f, u, "mpmi", delta_abs=np.sqrt(0.2))
        level, jumped = report.parameter, report.jump_root
        assert not jumped
        assert level == pytest.approx(INTERIOR_LEVEL, rel=1e-9)
        quartic = f.quartic
        coeffs = f.project_rhs(u)
        # solver contract: |value - target| <= 1e-12 * ||u||^2 = 4e-12
        assert quartic.residual_sq(coeffs)[0](level) == pytest.approx(0.2, abs=4e-12)

    def test_forced_jump(self):
        # target 1.0 sits between 4/9 (left) and 4 (right) at the breakpoint
        f = svd(np.diag([1.0]))
        report = solve(f, np.array([2.0]), "mpmi", delta_abs=1.0)
        level, jumped = report.parameter, report.jump_root
        assert jumped
        assert level == QUARTIC_MAX

    def test_level_shrinks_with_noise(self, desk_problem, desk_factors):
        rhs_norm = np.linalg.norm(desk_problem.exact_rhs)
        rng = np.random.default_rng(5)
        direction = rng.standard_normal(desk_problem.m)
        direction /= np.linalg.norm(direction)
        levels = []
        for delta in (0.1, 0.01, 0.001, 0.0001):
            u = desk_problem.exact_rhs + delta * rhs_norm * direction
            report = solve(desk_factors, u, "mpmi", delta_abs=delta * rhs_norm)
            levels.append(report.parameter)
        assert all(b < a for a, b in zip(levels, levels[1:]))

    def test_sandwich_property(self, rng):
        # every returned level satisfies f(level-0) <= target <= f(level+0)
        for trial in range(20):
            a = oracles.rank_matrix(rng, 8, 6, int(rng.integers(2, 6)))
            f = svd(a)
            u = rng.standard_normal(8)
            floor_sq = f.project_rhs(u)[-1] ** 2
            u_sq = float(u @ u)
            delta_sq = rng.uniform(0.02, 0.9) * (u_sq - floor_sq)
            level = solve(f, u, "mpmi", delta_abs=float(np.sqrt(delta_sq))).parameter
            quartic = f.quartic
            coeffs = f.project_rhs(u)
            target = delta_sq + floor_sq
            left = quartic.residual_sq(coeffs)[0](level)
            right = quartic.residual_sq(coeffs)[0](np.nextafter(level, np.inf))
            assert left <= target + 1e-9 * u_sq
            assert right >= target - 1e-9 * u_sq

    def test_matches_grid_oracle(self, rng):
        a = oracles.rank_matrix(rng, 7, 5, 4)
        f = svd(a)
        u = rng.standard_normal(7)
        floor_sq = f.project_rhs(u)[-1] ** 2
        delta = np.sqrt(0.3 * (float(u @ u) - floor_sq))
        level = solve(f, u, "mpmi", delta_abs=float(delta)).parameter
        coeffs = f.project_rhs(u)
        quartic = f.quartic
        oracle_level, _ = oracles.grid_root(
            lambda g: oracles.mpmi_beta_sq(g, f.sigma, coeffs, f.rank),
            0.0, 1.05 * float(quartic.breaks[0]),
            delta ** 2 + floor_sq,
        )
        assert oracle_level == pytest.approx(level, rel=1e-3)

    def test_noise_dominates_error(self):
        f = svd(np.diag([1.0]))
        with pytest.raises(SolverError, match="noise dominates"):
            solve(f, np.array([2.0]), "mpmi", delta_abs=2.0)  # target 4 = ||u||^2

    def test_curve_structure(self, rng):
        a = oracles.rank_matrix(rng, 8, 6, 4)
        f = svd(a)
        u = rng.standard_normal(8)
        curve = discrepancy_curve(f, u)
        basis = f.u[:, : f.rank]
        floor = u - basis @ (basis.T @ u)
        assert [fl.name for fl in dataclasses.fields(curve)] == ["levels", "values"]
        assert curve.values[0] == pytest.approx(float(floor @ floor), rel=1e-12)
        assert curve.values[-1] == pytest.approx(float(u @ u), rel=1e-12)
        assert np.all(np.diff(curve.values) >= 0.0)
        breaks = f.quartic.breaks
        assert curve.levels[1] == breaks[-1] * 1e-3
        assert curve.levels[-1] == breaks[0] * 1.05

    def test_curve_level_count(self):
        f = svd(np.diag([2.0, 1.0]))
        u = np.array([1.0, 1.0])
        assert len(discrepancy_curve(f, u, num=3).levels) == 3
        np.testing.assert_array_equal(discrepancy_curve(f, u, num=1).levels, [0.0])
        assert len(discrepancy_curve(f, u, num=np.int64(2)).levels) == 2
        for bad in (0, -1, 2.5, 3.0, True, "3"):
            with pytest.raises(InputError, match="at least one level"):
                discrepancy_curve(f, u, num=bad)


class TestConditionNumbers:
    def test_zero_level_gives_raw_cond(self, rng):
        a = oracles.rank_matrix(rng, 6, 6, 6)
        f = svd(a)
        quartic = f.quartic
        assert spectrum_cond(quartic.sigma * quartic.x_values(0.0)) == pytest.approx(
            spectrum_cond(f.sigma[: f.rank]), rel=1e-12
        )

    def test_breakpoint_structure(self, rng):
        sigma = np.array([4.0, 2.0, 1.0])
        f = svd(np.diag(sigma))
        quartic = f.quartic
        # level at the k=2 breakpoint: survivor block is {1, 2}, x_2 = 3/2
        level = float(quartic.breaks[1])
        x = quartic.x_values(level)
        assert x[1] == 1.5 and x[2] == 0.0
        nu = spectrum_cond(quartic.sigma * quartic.x_values(level))
        assert nu == pytest.approx(sigma[0] * x[0] / (sigma[1] * 1.5), rel=1e-12)

    def test_strict_improvement_on_survivor_block(self, rng):
        for _ in range(10):
            sigma = np.sort(rng.uniform(0.2, 5.0, 7))[::-1].copy()
            f = svd(np.diag(sigma))
            quartic = f.quartic
            level = float(rng.uniform(0.0, quartic.breaks[0]))
            if level == 0.0:
                continue
            x = quartic.x_values(level)
            live = x > 0.0
            survivors = sigma[live]
            nu = spectrum_cond(quartic.sigma * quartic.x_values(level))
            block_ratio = survivors[0] / survivors[-1]
            assert nu <= block_ratio * (1.0 + 1e-12)
            if survivors[0] > survivors[-1]:
                assert nu < block_ratio

    def test_filtered_spectrum_stays_sorted(self, rng):
        # inflation preserves nonincreasing order, so extreme ratio equals
        # the first/last-survivor formula
        sigma = np.sort(rng.uniform(0.2, 5.0, 9))[::-1].copy()
        quartic = QuarticFilter(sigma)
        for level in np.geomspace(quartic.breaks[-1] * 1e-3, 1.5 * quartic.breaks[0], 60):
            filtered = sigma * quartic.x_values(level)
            live = filtered[filtered > 0.0]
            if len(live) > 1:
                assert np.all(np.diff(live) <= 1e-12 * live[0])

    def test_all_truncated_error(self):
        f = svd(np.diag([1.0]))
        quartic = f.quartic
        with pytest.raises(SolverError, match="undefined condition number"):
            spectrum_cond(quartic.sigma * quartic.x_values(2.0 * QUARTIC_MAX))


class TestReportSchema:
    KEYS = {"method", "parameter", "effective_rank", "condition_number",
            "residual", "residual_floor", "jump_root"}

    def test_to_dict_keys(self):
        report = solve(svd(np.diag([2.0, 1.0])), np.array([1.0, 1.0]), "mpmi",
                       delta_abs=0.5)
        inline = report.to_dict()
        assert set(inline) == self.KEYS | {"solution"}
        assert inline["solution"] == report.solution.tolist()
        assert set(report.to_dict(solution_inline=False)) == self.KEYS


class TestMpmiSolve:
    def test_tiny_noise_recovers_inverse(self, rng):
        a = rng.standard_normal((6, 6)) + 10.0 * np.eye(6)
        u = rng.standard_normal(6)
        report = solve(a, u, "mpmi", delta_abs=1e-8 * float(np.linalg.norm(u)))
        direct = np.linalg.solve(a, u)
        assert np.linalg.norm(report.solution - direct) <= 1e-6 * np.linalg.norm(direct)

    def test_pinv_norm_never_exceeds_raw(self, rng):
        # ||filtered pinv|| <= ||A^+|| for every chosen level
        for _ in range(10):
            a = oracles.rank_matrix(rng, 8, 6, 5)
            f = svd(a)
            u = rng.standard_normal(8)
            floor_sq = f.project_rhs(u)[-1] ** 2
            delta = np.sqrt(rng.uniform(0.05, 0.9) * (float(u @ u) - floor_sq))
            report = solve(f, u, "mpmi", delta_abs=float(delta))
            quartic = f.quartic
            filtered = f.sigma[: f.rank] * quartic.x_values(report.parameter)
            ours = np.sqrt(np.sum(1.0 / filtered[filtered > 0.0] ** 2))
            raw = np.sqrt(np.sum(1.0 / f.sigma[: f.rank] ** 2))
            assert ours <= raw * (1.0 + 1e-12)

    def test_report_invariants(self, rng):
        a = oracles.rank_matrix(rng, 9, 7, 5)
        f = svd(a)
        u = rng.standard_normal(9)
        delta = 0.2 * float(np.linalg.norm(u))
        report = solve(f, u, "mpmi", delta_abs=delta)
        assert report.method == "mpmi"
        assert report.effective_rank <= f.rank
        assert report.residual >= report.residual_floor - 1e-10 * np.linalg.norm(u)
        dense_residual = np.linalg.norm(a @ report.solution - u)
        assert report.residual == pytest.approx(dense_residual, rel=1e-9)

    def test_jump_root_identity(self):
        # at a jump root x_r = 3/2 exactly: nu = (2/3) sigma_1 x_1 / sigma_r
        f = svd(np.diag([1.0]))
        report = solve(f, np.array([2.0]), "mpmi", delta_abs=1.0)
        assert report.jump_root
        quartic = f.quartic
        x = quartic.x_values(report.parameter)
        assert x[report.effective_rank - 1] == 1.5
        expected = (2.0 / 3.0) * f.sigma[0] * x[0] / f.sigma[report.effective_rank - 1]
        assert report.condition_number == pytest.approx(expected, rel=1e-12)

    def test_shrinking_noise_converges_to_normal_pseudosolution(self, rng):
        a = oracles.rank_matrix(rng, 20, 15, 10)
        f = svd(a)
        truth = oracles.pinv(a) @ (a @ rng.standard_normal(15))
        u_exact = a @ truth
        direction = rng.standard_normal(20)
        direction /= np.linalg.norm(direction)
        norm_u = float(np.linalg.norm(u_exact))
        errors = []
        for delta_rel in (1e-2, 1e-4, 1e-6):
            u = u_exact + delta_rel * norm_u * direction
            report = solve(f, u, "mpmi", delta_abs=delta_rel * norm_u)
            errors.append(
                np.linalg.norm(report.solution - truth) / np.linalg.norm(truth)
            )
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-3

    def test_desk_problem_accuracy_and_conditioning(
        self, desk_problem, desk_factors
    ):
        from minpinv.experiments import perturb_rhs

        norm_rhs = float(np.linalg.norm(desk_problem.exact_rhs))
        u = perturb_rhs(desk_problem.exact_rhs, 0.05, seed=0)
        report = solve(desk_factors, u, "mpmi", delta_abs=0.05 * norm_rhs)
        error = np.linalg.norm(report.solution - desk_problem.truth)
        error /= np.linalg.norm(desk_problem.truth)
        assert error <= 0.05
        sigma = desk_factors.sigma
        assert report.condition_number <= 1e-6 * spectrum_cond(sigma[: desk_factors.rank])
        # the (3/2) rho_1 / rho_r cap on the condition number
        cap = 1.5 * sigma[0] / sigma[report.effective_rank - 1]
        assert report.condition_number <= cap * (1.0 + 1e-12)

    def test_raw_matrix_and_factors_agree(self, rng):
        a = oracles.rank_matrix(rng, 7, 6, 4)
        u = rng.standard_normal(7)
        delta = 0.1 * float(np.linalg.norm(u))
        via_matrix = solve(a, u, "mpmi", delta_abs=delta)
        via_factors = solve(svd(a), u, "mpmi", delta_abs=delta)
        np.testing.assert_array_equal(via_matrix.solution, via_factors.solution)
