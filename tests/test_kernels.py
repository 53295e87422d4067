"""Kernel correctness and numba/numpy path agreement."""

import numpy as np
import pytest
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

    def test_discrepancy_saturates(self):
        sigma = np.array([1.0])
        v_sq = np.array([4.0])
        assert _kernels.discrepancy_head_sq(sigma, v_sq, 2.0) == 4.0
        at_break = _kernels.discrepancy_head_sq(sigma, v_sq, QUARTIC_TOP)
        assert at_break == pytest.approx(4.0 / 9.0, rel=1e-14)


class TestPoissonKernel:
    def test_matches_formula(self):
        x = np.linspace(-1.0, 1.0, 7)
        y = np.linspace(-1.0, 1.0, 9)
        out = _kernels.poisson_kernel(x, y, 0.1)
        expected = 1.0 / ((x[:, None] - y[None, :]) ** 2 + 0.1 * 0.1)
        np.testing.assert_array_equal(out, expected)


@pytest.mark.skipif(not _kernels.USING_NUMBA, reason="numba path inactive")
class TestPathAgreement:
    """The jit kernels and the numpy fallbacks must agree closely."""

    def test_quartic(self, rng):
        t = rng.uniform(0.0, QUARTIC_TOP, 4096)
        jit = _kernels.quartic_roots_numba(t)
        ref = _kernels.quartic_roots_numpy(t)
        np.testing.assert_allclose(jit, ref, rtol=0.0, atol=1e-14)

    def test_filter_and_sums(self, rng):
        sigma = np.sort(rng.uniform(1e-3, 10.0, 64))[::-1].copy()
        v_sq = rng.uniform(0.0, 4.0, 64)
        levels = np.concatenate([
            [0.0], np.geomspace(1e-12, 2.0 * QUARTIC_TOP * sigma[0] ** 4, 200),
        ])
        for level in levels[::7]:
            np.testing.assert_allclose(
                _kernels.filter_x_numba(sigma, level),
                _kernels.filter_x_numpy(sigma, level),
                rtol=0.0, atol=1e-14,
            )
        jit_d = _kernels.spectrum_distance_sq_grid_numba(sigma, levels)
        ref_d = _kernels.spectrum_distance_sq_grid_numpy(sigma, levels)
        np.testing.assert_allclose(jit_d, ref_d, rtol=1e-12)
        jit_b = _kernels.discrepancy_head_sq_grid_numba(sigma, v_sq, levels)
        ref_b = _kernels.discrepancy_head_sq_grid_numpy(sigma, v_sq, levels)
        np.testing.assert_allclose(jit_b, ref_b, rtol=1e-12)

    def test_poisson(self):
        x = np.linspace(-1.0, 1.0, 31)
        y = np.linspace(-1.0, 1.0, 33)
        np.testing.assert_array_equal(
            _kernels.poisson_kernel_numba(x, y, 0.1),
            _kernels.poisson_kernel_numpy(x, y, 0.1),
        )
