"""Kernel correctness: quartic roots, filter factors, distance, kernel fill."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from minpinv import _kernels
from minpinv.experiments import perturb_rhs
from minpinv.mpm import spectrum_distance_sq
from oracles import quartic_bisect

QUARTIC_TOP = 27.0 / 16.0
EPS = float(np.finfo(np.float64).eps)


def quartic_roots(t):
    """Roots x in [1, 3/2] of x**4 - x**3 = t, from the kernel's excess."""
    return 1.0 + _kernels.quartic_excess(t)


class TestQuarticRoots:
    def test_endpoints_exact(self):
        out = quartic_roots(np.array([0.0, QUARTIC_TOP]))
        assert out[0] == 1.0
        assert out[1] == 1.5

    @given(st.floats(min_value=0.0, max_value=QUARTIC_TOP))
    @settings(max_examples=300, deadline=None)
    def test_residual_and_range(self, t):
        x = float(quartic_roots(np.array([t]))[0])
        assert 1.0 <= x <= 1.5
        assert abs(x ** 4 - x ** 3 - t) <= 1e-13

    @given(st.floats(min_value=1e-6, max_value=QUARTIC_TOP - 1e-6))
    @settings(max_examples=100, deadline=None)
    def test_matches_bisection_oracle(self, t):
        x = float(quartic_roots(np.array([t]))[0])
        assert abs(x - quartic_bisect(t)) <= 1e-12

    def test_monotone_in_t(self):
        t = np.linspace(0.0, QUARTIC_TOP, 1000)
        x = quartic_roots(t)
        assert np.all(np.diff(x) >= 0.0)

    def test_matches_companion_roots(self):
        # the one real root in [1, 3/2] of x**4 - x**3 - t, from numpy.roots
        t = np.linspace(0.0, QUARTIC_TOP, 257)
        x = quartic_roots(t)
        for ti, xi in zip(t, x):
            roots = np.roots([1.0, -1.0, 0.0, 0.0, -ti])
            real = roots[np.abs(roots.imag) <= 1e-12].real
            (ref,) = real[(real >= 1.0 - 1e-12) & (real <= 1.5 + 1e-12)]
            assert abs(xi - ref) <= 1e-13


class TestFixedStepNewton:
    """One Newton step from the chord-table start and no convergence test,
    checked on dense grids: the start is within 9.94e-9 relative of the
    root, and the step squares that error (times at most 2/3), so the
    rounding of the step is all that is left."""

    GRID = np.linspace(0.0, QUARTIC_TOP, 200_001)

    def test_roots_within_four_eps_of_converged(self):
        ref = (1 + oracles.quartic_excess_bisect_array(self.GRID, iters=70)).astype(np.float64)
        x = quartic_roots(self.GRID)
        assert np.all(np.abs(x - ref) <= 4.0 * EPS * ref)

    def test_excess_keeps_relative_precision(self):
        # down to t = 1e-20, where x - 1 taken from a rounded x is pure noise
        t = np.concatenate([np.geomspace(1e-20, 1e-3, 10_001),
                            np.linspace(1e-3, QUARTIC_TOP, 10_001)])
        ref = oracles.quartic_excess_bisect_array(t).astype(np.float64)
        y = _kernels.quartic_excess(t)
        assert np.all(np.abs(y - ref) <= 8.0 * EPS * ref)

    def test_monotone_in_t(self):
        assert np.all(np.diff(_kernels.quartic_excess(self.GRID)) >= 0.0)
        assert np.all(np.diff(quartic_roots(self.GRID)) >= 0.0)

    def test_steps_back_by_at_most_twice_its_error(self):
        # over runs of adjacent floats the excess is not monotone, but it
        # never falls below an earlier value by more than twice the 4 eps
        # error of one value (measured: 2.7 eps, 5 ulps)
        centers = np.concatenate([
            np.linspace(0.0, QUARTIC_TOP, 41)[1:],
            np.geomspace(1e-20, 1e-3, 18),
            QUARTIC_TOP * (1.0 - np.geomspace(1e-3, 1e-15, 13)),
        ])
        for c in centers:
            t = c + np.arange(-1000, 1000) * np.spacing(c)
            y = _kernels.quartic_excess(t[(t > 0.0) & (t <= QUARTIC_TOP)])
            assert np.all(np.maximum.accumulate(y) - y <= 8.0 * EPS * y)

    def test_steps_back_at_most_three_ulps_towards_the_top(self):
        # a grid that crowds towards 27/16, where the root's slope is
        # largest: the excess falls below an earlier value at 909 points,
        # by at most 3 ulps (two Newton steps from the 1025-knot table: 4)
        y = _kernels.quartic_excess(QUARTIC_TOP * (1.0 - np.geomspace(1e-3, 1e-15, 100_001)))
        assert np.all(np.maximum.accumulate(y) - y <= 3.0 * np.spacing(y))

    def test_endpoints_and_outside_exact(self):
        t = np.array([0.0, QUARTIC_TOP, -1.0, 2.0])
        assert quartic_roots(t).tolist() == [1.0, 1.5, 1.0, 1.5]
        assert _kernels.quartic_excess(t).tolist() == [0.0, 0.5, 0.0, 0.5]

    @pytest.mark.parametrize("t", [1.0, np.float64(1.0), np.array(1.0),
                                   np.full(3, 1.0), np.full((2, 3), 1.0)],
                             ids=["float", "float64", "0-d", "1-D", "2-D"])
    def test_keeps_the_shape_of_its_input(self, t):
        y = _kernels.quartic_excess(t)
        assert np.shape(y) == np.shape(t)
        assert np.all(y == _kernels.quartic_excess(np.array([1.0]))[0])


class TestChordStart:
    """The tabulated start: an upper bound on the root, within 1e-8
    relative of it, read off chords of a convex table."""

    KNOTS = _kernels._CHORD_KNOTS
    POINTS = np.concatenate([
        np.linspace(0.0, QUARTIC_TOP, 200_001)[1:],
        np.geomspace(1e-20, 1e-3, 10_001),
        # the chords touch the table at the knots, so the bound is tightest there
        (KNOTS[1:, None] + np.arange(-8, 9) * np.spacing(KNOTS[1:, None])).ravel(),
    ])
    POINTS = POINTS[POINTS <= QUARTIC_TOP]

    @pytest.fixture(scope="class")
    def start_and_root(self):
        return (_kernels._start(self.POINTS),
                oracles.quartic_excess_bisect_array(self.POINTS))

    def test_start_is_an_upper_bound(self, start_and_root):
        start, root = start_and_root
        assert np.all(start >= root)
        assert _kernels._start(0.0) == 0.0

    def test_start_error_at_most_1e_8(self, start_and_root):
        # measured: 9.94e-9 (1.01e-5 from 1025 knots)
        start, root = start_and_root
        assert np.max((start - root) / root) <= 1e-8

    def test_table_is_convex(self):
        assert np.all(np.diff(_kernels._CHORD, 2) >= 0.0)


class TestQuarticFilterOnTheDeskSpectrum:
    """The live-prefix evaluator against the loop oracles, at every distinct
    breakpoint of the desk spectrum and every midpoint between two."""

    @pytest.fixture(scope="class")
    def case(self, desk_problem, desk_factors):
        sigma = desk_factors.sigma[: desk_factors.rank]
        u = perturb_rhs(desk_problem.exact_rhs, 0.05, 0)
        coeffs = desk_factors.project_rhs(u)
        breaks = np.unique(_kernels.QuarticFilter(sigma).breaks)
        levels = np.concatenate([breaks, 0.5 * (breaks[1:] + breaks[:-1])])
        return sigma, coeffs, breaks, levels

    def test_distance_matches_oracle(self, case):
        sigma, _, _, levels = case
        for level in levels.tolist():
            ref = oracles.mpm_beta(level, sigma)
            assert spectrum_distance_sq(level, sigma) == pytest.approx(ref, rel=1e-13)

    def test_distance_is_the_cached_curve_bit_for_bit(self, case):
        sigma, _, _, levels = case
        distance_sq = _kernels.QuarticFilter(sigma).distance_sq[0]
        for level in levels.tolist():
            assert spectrum_distance_sq(level, sigma) == distance_sq(level)

    def test_distance_builds_no_breakpoint_plan(self, case, monkeypatch):
        # one value needs the function only, not the points and bounds
        def refuse(self):
            raise AssertionError("spectrum_distance_sq built the breakpoint plan")

        monkeypatch.setattr(_kernels.QuarticFilter, "_plan", property(refuse))
        sigma, _, _, levels = case
        for level in levels.tolist():
            spectrum_distance_sq(level, sigma)

    def test_residual_matches_oracle(self, case):
        sigma, coeffs, _, levels = case
        residual_sq = _kernels.QuarticFilter(sigma).residual_sq(coeffs)[0]
        for level in levels.tolist():
            ref = oracles.mpmi_beta_sq(level, sigma, coeffs, len(sigma))
            assert residual_sq(level) == pytest.approx(ref, rel=1e-13)

    def test_three_halves_exactly_at_each_breakpoint(self, case):
        sigma, _, breaks, _ = case
        quartic = _kernels.QuarticFilter(sigma)
        for level in breaks.tolist():
            x = quartic.x_values(level)
            at = quartic.breaks == level
            assert np.all(x[at] == 1.5)
            assert np.all(x[quartic.breaks < level] == 0.0)
            inside = x[quartic.breaks > level]
            assert np.all((inside >= 1.0) & (inside < 1.5))


class TestFilterX:
    def test_branches(self):
        sigma = np.array([1.0, 1.0, 1.0, 0.0])
        # level at 0, at the breakpoint, past the breakpoint, zero entry
        assert _kernels.filter_x(sigma, 0.0).tolist() == [1.0, 1.0, 1.0, 0.0]
        at_break = _kernels.filter_x(sigma, QUARTIC_TOP)
        assert at_break[0] == 1.5
        past = _kernels.filter_x(sigma, 2.0)
        assert past.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_mixed_spectrum(self):
        sigma = np.array([2.0, 1.0, 0.5])
        level = QUARTIC_TOP  # exactly the breakpoint of sigma=1
        x = _kernels.filter_x(sigma, level)
        assert 1.0 < x[0] < 1.5
        assert x[1] == 1.5
        assert x[2] == 0.0


class TestDistanceAndDiscrepancy:
    def test_distance_zero_at_zero_level(self):
        sigma = np.array([3.0, 2.0, 1.0])
        assert _kernels.QuarticFilter(sigma).distance_sq[0](0.0) == 0.0

    def test_distance_saturates(self):
        sigma = np.array([1.0])
        assert _kernels.QuarticFilter(sigma).distance_sq[0](2.0) == 1.0

    def test_cached_distance_leaves_no_reference_cycle(self):
        # were the cached distance function to refer back to its filter,
        # every filter dropped after a distance would wait for the collector
        sigma = np.array([3.0, 2.0, 1.0])
        gc.collect()
        gc.disable()
        try:
            _kernels.QuarticFilter(sigma).distance_sq[0](0.5)
            spectrum_distance_sq(0.5, sigma)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPoissonKernel:
    def test_matches_formula(self):
        x = np.linspace(-1.0, 1.0, 7)
        y = np.linspace(-1.0, 1.0, 9)
        out = _kernels.poisson_kernel(x, y, 0.1)
        expected = 1.0 / ((x[:, None] - y[None, :]) ** 2 + 0.1 * 0.1)
        np.testing.assert_array_equal(out, expected)
