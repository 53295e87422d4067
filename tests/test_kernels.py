"""Kernel correctness: quartic roots, filter factors, distance, kernel fill."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from minpinv import _kernels
from oracles import quartic_bisect

QUARTIC_TOP = 27.0 / 16.0


class TestQuarticRoots:
    def test_endpoints_exact(self):
        out = _kernels.quartic_roots(np.array([0.0, QUARTIC_TOP]))
        assert out[0] == 1.0
        assert out[1] == 1.5

    @given(st.floats(min_value=0.0, max_value=QUARTIC_TOP))
    @settings(max_examples=300, deadline=None)
    def test_residual_and_range(self, t):
        x = float(_kernels.quartic_roots(np.array([t]))[0])
        assert 1.0 <= x <= 1.5
        assert abs(x ** 4 - x ** 3 - t) <= 1e-13

    @given(st.floats(min_value=1e-6, max_value=QUARTIC_TOP - 1e-6))
    @settings(max_examples=100, deadline=None)
    def test_matches_bisection_oracle(self, t):
        x = float(_kernels.quartic_roots(np.array([t]))[0])
        assert abs(x - quartic_bisect(t)) <= 1e-12

    def test_monotone_in_t(self):
        t = np.linspace(0.0, QUARTIC_TOP, 1000)
        x = _kernels.quartic_roots(t)
        assert np.all(np.diff(x) >= 0.0)

    def test_matches_companion_roots(self):
        # the one real root in [1, 3/2] of x**4 - x**3 - t, from numpy.roots
        t = np.linspace(0.0, QUARTIC_TOP, 257)
        x = _kernels.quartic_roots(t)
        for ti, xi in zip(t, x):
            roots = np.roots([1.0, -1.0, 0.0, 0.0, -ti])
            real = roots[np.abs(roots.imag) <= 1e-12].real
            (ref,) = real[(real >= 1.0 - 1e-12) & (real <= 1.5 + 1e-12)]
            assert abs(xi - ref) <= 1e-13


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
        assert _kernels.spectrum_distance_sq(sigma, 0.0) == 0.0

    def test_distance_saturates(self):
        sigma = np.array([1.0])
        assert _kernels.spectrum_distance_sq(sigma, 2.0) == 1.0


class TestPoissonKernel:
    def test_matches_formula(self):
        x = np.linspace(-1.0, 1.0, 7)
        y = np.linspace(-1.0, 1.0, 9)
        out = _kernels.poisson_kernel(x, y, 0.1)
        expected = 1.0 / ((x[:, None] - y[None, :]) ** 2 + 0.1 * 0.1)
        np.testing.assert_array_equal(out, expected)
