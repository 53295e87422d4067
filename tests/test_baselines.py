"""Truncated SVD, Tikhonov and Morozov-variant baselines."""

from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import minpinv.baselines
import minpinv.mpmi
import oracles
from minpinv.baselines import (
    METHODS,
    _alpha_curve,
    _morozov_values,
    _tikhonov_values,
    solve,
    tsvd_rank_by_matrix_error,
)
from minpinv._kernels import suffix_sums
from minpinv.errors import InputError, SolverError
from minpinv.experiments import perturb_rhs
from minpinv.linalg import spectrum_cond, svd
from minpinv.mpm import solve_generalized_root, spectrum_distance_sq
from minpinv.mpmi import discrepancy_root, discrepancy_target, head_residual_sq

# Median residual evaluations per tr / morozov desk solve (6 noise levels
# x seeds 0-3) with the breakpoint root finder and Anderson-Bjorck steps;
# Illinois steps took 12 each, the log-alpha bisection before them 29.
DESK_ALPHA_EVALS = {"tr": 11, "morozov": 11}
DESK_DELTAS = (0.005, 0.01, 0.05, 0.1, 0.2, 0.3)

# Integer-valued entries make tails and targets exact, so ties between a
# tail and the target (the "<=" boundary) come up often.
spectra = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0]), st.floats(1e-3, 10.0)),
    min_size=1, max_size=12,
).map(lambda values: np.sort(values)[::-1]).filter(lambda sigma: sigma[0] > 0.0)


class TestTsvdRankByDiscrepancy:
    def test_single_dominant_coefficient(self):
        f = svd(np.diag([2.0, 1.0, 0.5]))
        # U = I: coefficients are (3, 0, 0)
        assert solve(f, np.array([3.0, 0.0, 0.0]), "tsvd", delta_abs=1.0).parameter == 1

    def test_forced_arithmetic(self):
        # coefficients (2, 1, 1) with rank 2: tails 6, 2, 1; target 1.5
        f = svd(np.diag([2.0, 1.0, 0.0]))
        assert f.rank == 2
        u = np.array([2.0, 1.0, 1.0])
        rank = solve(f, u, "tsvd", delta_abs=np.sqrt(0.5)).parameter
        assert rank == 2

    def test_noise_dominates(self):
        f = svd(np.diag([1.0]))
        with pytest.raises(SolverError, match="noise dominates"):
            solve(f, np.array([2.0]), "tsvd", delta_abs=2.0)

    def test_small_noise_keeps_everything(self, rng):
        # in the small-noise limit truncation stops improving the cond
        a = oracles.rank_matrix(rng, 6, 5, 4)
        f = svd(a)
        u = a @ rng.standard_normal(5)
        rank = solve(f, u, "tsvd", delta_abs=1e-12 * float(np.linalg.norm(u))).parameter
        assert rank == f.rank
        report = solve(f, u, "tsvd", rank=rank)
        assert report.condition_number == pytest.approx(spectrum_cond(f.sigma[: f.rank]), rel=1e-12)


class TestRankScansMatchLoops:
    @settings(max_examples=200, deadline=None)
    @given(sigma=spectra, pad=st.integers(0, 3),
           rhs=st.lists(st.integers(-3, 3), min_size=15, max_size=15),
           delta_abs=st.one_of(st.integers(1, 5).map(float), st.floats(1e-3, 5.0)))
    def test_discrepancy_rank(self, sigma, pad, rhs, delta_abs):
        # diag(sigma) over zero rows: U is a signed permutation, so the
        # coefficients of an integer right-hand side stay integers
        f = svd(np.vstack([np.diag(sigma), np.zeros((pad, len(sigma)))]))
        u = np.array(rhs[: f.shape[0]], dtype=np.float64)
        coeffs = f.project_rhs(u)
        try:
            target, _, _ = discrepancy_target(coeffs, f.rank, delta_abs)
        except SolverError:
            assume(False)
        expected = oracles.tsvd_rank_scan(suffix_sums(coeffs * coeffs), f.rank, target)
        assert solve(f, u, "tsvd", delta_abs=delta_abs).parameter == expected

    @settings(max_examples=200, deadline=None)
    @given(sigma=spectra,
           matrix_error=st.one_of(st.integers(1, 5).map(float), st.floats(1e-3, 5.0)))
    def test_matrix_error_rank(self, sigma, matrix_error):
        tails = suffix_sums(sigma * sigma)
        assume(matrix_error * matrix_error < tails[0])
        expected = oracles.matrix_error_rank_scan(tails, matrix_error * matrix_error)
        assert tsvd_rank_by_matrix_error(sigma, matrix_error) == expected


class TestTsvdRankByMatrixError:
    def test_forced_arithmetic(self):
        # tails from kappa: sqrt(14), sqrt(5), 1, 0; budget 2.4 -> kappa 1
        assert tsvd_rank_by_matrix_error(np.array([3.0, 2.0, 1.0]), 2.4) == 1

    def test_single_value(self):
        assert tsvd_rank_by_matrix_error(np.array([1.0]), 0.5) == 1

    def test_budget_between_tails(self):
        assert tsvd_rank_by_matrix_error(np.array([3.0, 2.0, 1.0]), 1.5) == 2

    def test_zero_rank_error(self):
        with pytest.raises(SolverError, match="zero-rank"):
            tsvd_rank_by_matrix_error(np.array([1.0]), 2.0)

    def test_bad_budget(self):
        with pytest.raises(InputError):
            tsvd_rank_by_matrix_error(np.array([1.0]), 0.0)

    def test_nan_budget(self):
        # NaN fails every comparison; it must not read as a tiny budget
        # that keeps the full rank
        with pytest.raises(InputError, match="must be positive"):
            tsvd_rank_by_matrix_error(np.array([3.0, 2.0, 1.0]), float("nan"))

    @pytest.mark.parametrize("sigma", [[1.0, 3.0, 2.0], [3.0, -2.0, 1.0]])
    def test_rejects_a_bad_spectrum(self, sigma):
        # a rising or negative spectrum has no tail energy to fit the bound to
        with pytest.raises(InputError, match="spectrum"):
            tsvd_rank_by_matrix_error(np.array(sigma), 1.5)


class TestTsvdSolve:
    def test_full_rank_equals_pinv(self, rng):
        a = oracles.rank_matrix(rng, 7, 5, 5)
        f = svd(a)
        u = rng.standard_normal(7)
        report = solve(f, u, "tsvd", rank=f.rank)
        np.testing.assert_allclose(report.solution, oracles.pinv(a) @ u, atol=1e-10)

    def test_forced_truncation(self):
        f = svd(np.diag([2.0, 1.0]))
        report = solve(f, np.array([2.0, 1.0]), "tsvd", rank=1)
        np.testing.assert_allclose(report.solution, [1.0, 0.0], atol=1e-14)
        assert report.condition_number == pytest.approx(1.0)
        assert report.effective_rank == 1

    def test_residual_matches_dense(self, rng):
        a = oracles.rank_matrix(rng, 8, 6, 5)
        f = svd(a)
        u = rng.standard_normal(8)
        report = solve(f, u, "tsvd", rank=3)
        dense = np.linalg.norm(a @ report.solution - u)
        assert report.residual == pytest.approx(dense, rel=1e-9)
        assert report.residual >= report.residual_floor - 1e-12

    def test_rank_bounds(self, rng):
        f = svd(oracles.rank_matrix(rng, 5, 4, 3))
        with pytest.raises(InputError):
            solve(f, np.ones(5), "tsvd", rank=0)
        with pytest.raises(InputError):
            solve(f, np.ones(5), "tsvd", rank=f.rank + 1)

    @pytest.mark.parametrize("rank", [1.9, 2.0, True, np.True_],
                             ids=["1.9", "2.0", "True", "np.True_"])
    def test_rank_must_be_an_integer(self, rank):
        # truncating 1.9 or True to 1 would hide the caller's mistake
        f = svd(np.diag([3.0, 2.0, 1.0]))
        with pytest.raises(InputError, match="integer"):
            solve(f, np.ones(3), "tsvd", rank=rank)

    def test_numpy_integer_rank(self):
        f = svd(np.diag([3.0, 2.0, 1.0]))
        report = solve(f, np.ones(3), "tsvd", rank=np.int64(2))
        assert report.parameter == 2
        assert type(report.parameter) is int

    @pytest.mark.parametrize("method", ["tr", "morozov"])
    @pytest.mark.parametrize("alpha", [2, np.float32(0.5)], ids=["int", "float32"])
    def test_explicit_alpha_is_a_float(self, method, alpha):
        f = svd(np.diag([3.0, 2.0, 1.0]))
        report = solve(f, np.ones(3), method, alpha=alpha)
        assert report.parameter == alpha
        assert type(report.parameter) is float


class TestTikhonov:
    def test_alpha_to_zero_recovers_inverse(self, rng):
        a = rng.standard_normal((5, 5)) + 8.0 * np.eye(5)
        f = svd(a)
        u = rng.standard_normal(5)
        report = solve(f, u, "tr", alpha=1e-13)
        np.testing.assert_allclose(
            report.solution, np.linalg.solve(a, u), rtol=1e-8
        )

    def test_scalar_example(self):
        f = svd(np.diag([1.0]))
        report = solve(f, np.array([1.0]), "tr", alpha=1.0)
        np.testing.assert_allclose(report.solution, [0.5], atol=1e-15)

    def test_matches_normal_equations(self, rng):
        a = oracles.rank_matrix(rng, 8, 5, 5)
        f = svd(a)
        u = rng.standard_normal(8)
        alpha = 0.37
        report = solve(f, u, "tr", alpha=alpha)
        direct = np.linalg.solve(alpha * np.eye(5) + a.T @ a, a.T @ u)
        np.testing.assert_allclose(report.solution, direct, rtol=1e-9)

    def test_cond_formula(self, rng):
        sigma = np.sort(rng.uniform(0.1, 4.0, 6))[::-1].copy()
        f = svd(np.diag(sigma))
        alpha = 0.05
        report = solve(f, np.ones(6), "tr", alpha=alpha)
        scale = (alpha + sigma ** 2) / sigma
        assert report.condition_number == pytest.approx(
            np.max(scale) / np.min(scale), rel=1e-12)

    def test_cond_improves_below_alpha_product(self):
        # for alpha in (0, sigma_1 sigma_r): the first-to-last scale ratio
        # drops strictly below sigma_1 / sigma_r, and so does the cond
        sigma = np.array([4.0, 1.0, 0.5])
        f = svd(np.diag(sigma))
        raw = spectrum_cond(f.sigma[: f.rank])
        for alpha in (1e-6, 0.1, 0.9 * sigma[0] * sigma[-1]):
            scale = (alpha + sigma ** 2) / sigma
            assert scale[0] / scale[-1] < raw
            assert solve(f, np.ones(3), "tr", alpha=alpha).condition_number < raw

    def test_residual_monotone_in_alpha(self, rng):
        a = oracles.rank_matrix(rng, 7, 5, 4)
        f = svd(a)
        u = rng.standard_normal(7)
        alphas = np.geomspace(1e-8, 1e4, 50)
        residuals = [solve(f, u, "tr", alpha=al).residual for al in alphas]
        assert all(b >= a for a, b in zip(residuals, residuals[1:]))


class TestMorozovVariant:
    def test_alpha_to_zero_recovers_inverse(self, rng):
        a = rng.standard_normal((5, 5)) + 8.0 * np.eye(5)
        f = svd(a)
        u = rng.standard_normal(5)
        report = solve(f, u, "morozov", alpha=1e-13)
        np.testing.assert_allclose(
            report.solution, np.linalg.solve(a, u), rtol=1e-7
        )

    def test_scalar_example(self):
        f = svd(np.diag([1.0]))
        report = solve(f, np.array([1.0]), "morozov", alpha=1.0)
        np.testing.assert_allclose(report.solution, [0.25], atol=1e-15)

    def test_matches_dense_formula(self, rng):
        a = oracles.rank_matrix(rng, 6, 4, 4)
        f = svd(a)
        u = rng.standard_normal(6)
        alpha = 0.12
        report = solve(f, u, "morozov", alpha=alpha)
        m, n = a.shape
        dense = (
            np.linalg.solve(alpha * np.eye(n) + a.T @ a, a.T)
            @ a @ a.T @ np.linalg.solve(alpha * np.eye(m) + a @ a.T, u)
        )
        np.testing.assert_allclose(report.solution, dense, rtol=1e-8)

    def test_cond_asymptotic(self, rng):
        # cond(M) ~ cond(A) (1 - alpha (1/sigma_r^2 - 1/sigma_1^2))^2
        sigma = np.sort(rng.uniform(0.5, 4.0, 5))[::-1].copy()
        f = svd(np.diag(sigma))
        alpha = 1e-6 * sigma[-1] ** 2
        report = solve(f, np.ones(5), "morozov", alpha=alpha)
        raw = spectrum_cond(f.sigma[: f.rank])
        predicted = raw * (1.0 - alpha * (sigma[-1] ** -2 - sigma[0] ** -2)) ** 2
        assert report.condition_number == pytest.approx(predicted, rel=1e-9)
        assert report.condition_number < raw


class TestDiscrepancyAlpha:
    def test_closed_form_scalar(self):
        # (alpha/(alpha+1))^2 * 4 = 1 -> alpha = 1
        f = svd(np.diag([1.0]))
        alpha = solve(f, np.array([2.0]), "tr", delta_abs=1.0).parameter
        assert alpha == pytest.approx(1.0, rel=1e-8)

    def test_residual_hits_target(self, rng):
        a = oracles.rank_matrix(rng, 9, 6, 5)
        f = svd(a)
        u = rng.standard_normal(9)
        floor_sq = f.project_rhs(u)[-1] ** 2
        u_sq = float(u @ u)
        delta = np.sqrt(0.3 * (u_sq - floor_sq))
        for method in ("tr", "morozov"):
            alpha = solve(f, u, method, delta_abs=float(delta)).parameter
            report = solve(f, u, method, alpha=alpha)
            assert report.residual ** 2 == pytest.approx(
                delta ** 2 + floor_sq, abs=1e-9 * u_sq
            )
            assert report.residual >= report.residual_floor - 1e-12

    def test_alpha_monotone_in_noise(self, rng):
        a = oracles.rank_matrix(rng, 8, 6, 6)
        f = svd(a)
        u = a @ rng.standard_normal(6)
        norm_u = float(np.linalg.norm(u))
        alphas = [
            solve(f, u, "tr", delta_abs=delta_rel * norm_u).parameter
            for delta_rel in (0.3, 0.1, 0.01, 0.001)
        ]
        assert all(b < a for a, b in zip(alphas, alphas[1:]))

    def test_noise_dominates(self):
        f = svd(np.diag([1.0]))
        with pytest.raises(SolverError, match="noise dominates"):
            solve(f, np.array([2.0]), "tr", delta_abs=3.0)

    @pytest.mark.parametrize("method", ["tr", "morozov"])
    def test_desk_alpha_meets_tolerance(self, method, desk_problem, desk_factors):
        # closed forms of 1 - sigma_k / s_k, independent of the solver's
        # spectrum code: alpha / (alpha + sigma^2) for tr, and
        # 1 - sigma^4 / (alpha + sigma^2)^2 for morozov
        f = desk_factors
        sigma = f.sigma[: f.rank]
        norm = float(np.linalg.norm(desk_problem.exact_rhs))
        for delta in DESK_DELTAS:
            for seed in range(4):
                u = perturb_rhs(desk_problem.exact_rhs, delta, seed)
                alpha = solve(f, u, method, delta_abs=delta * norm).parameter
                coeffs = f.u.T @ u
                shrink = sigma * sigma / (alpha + sigma * sigma)
                gap = 1.0 - shrink if method == "tr" else 1.0 - shrink * shrink
                value = float(np.sum((gap * coeffs[: f.rank]) ** 2)
                              + np.sum(coeffs[f.rank:] ** 2))
                target = (delta * norm) ** 2 + float(np.sum(coeffs[f.rank:] ** 2))
                assert abs(value - target) <= 1e-10 * float(u @ u)

    @pytest.mark.parametrize("method", ["tr", "morozov"])
    def test_evaluations_per_desk_solve(self, method, desk_problem, desk_factors,
                                        monkeypatch):
        counts = []

        def counting(eval_fn, *args, **kwargs):
            calls = []

            def counted(alpha):
                calls.append(alpha)
                return eval_fn(alpha)

            result = solve_generalized_root(counted, *args, **kwargs)
            counts.append(len(calls))
            return result

        monkeypatch.setattr(minpinv.mpmi, "solve_generalized_root", counting)
        norm = float(np.linalg.norm(desk_problem.exact_rhs))
        for delta in DESK_DELTAS:
            for seed in range(4):
                u = perturb_rhs(desk_problem.exact_rhs, delta, seed)
                solve(desk_factors, u, method, delta_abs=delta * norm)
        assert len(counts) == 24
        assert np.median(counts) <= DESK_ALPHA_EVALS[method]

    @pytest.mark.parametrize("values", [_tikhonov_values, _morozov_values],
                             ids=["tr", "morozov"])
    def test_residual_is_the_masked_sum_bit_for_bit(self, values, projection_cases):
        # the root finder's evaluator drops head_residual_sq's mask, which
        # the rank block never needs; the finder evaluates f(0) too
        for f, u in projection_cases:
            sigma = f.sigma[: f.rank]
            coeffs = f.project_rhs(u)
            head_sq, floor_sq = coeffs[: f.rank] ** 2, float(np.sum(coeffs[f.rank:] ** 2))
            residual_sq = _alpha_curve(values, f, coeffs)[0]
            grid = np.geomspace(1e-3 * sigma[-1] ** 2, 1e6 * sigma[0] ** 2, 50)
            for alpha in [0.0, *grid]:
                s = values(sigma, alpha)
                assert residual_sq(alpha) == head_residual_sq(sigma, s, head_sq) + floor_sq

    def test_missed_tolerance_is_an_error(self):
        # the residual jumps from 0 to 4 at alpha = 1/2, over the target 1:
        # no alpha meets it, and the bracket closes on two adjacent floats
        def step(sigma, alpha):
            return sigma if alpha < 0.5 else np.full_like(sigma, np.inf)

        factors, coeffs = svd(np.diag([1.0])), np.array([2.0, 0.0])
        with pytest.raises(SolverError, match="bracket exhausted"):
            discrepancy_root(partial(_alpha_curve, step), 1e-10, factors, coeffs, 1.0)

    def test_target_above_the_upper_end(self):
        # at alpha = 1e6 sigma_1^2 the residual is still 4 (1 - 1e-6)^2,
        # short of a target within 1e-10 ||u||^2 of the plateau 4
        f = svd(np.diag([1.0]))
        with pytest.raises(SolverError, match="bracket exhausted"):
            solve(f, np.array([2.0]), "tr", delta_abs=np.sqrt(4.0 - 1e-9))


class TestSolveDispatch:
    def test_parameters_checked_before_factorizing(self):
        # the zero matrix cannot be factorized, so these errors can only
        # come from the parameter check
        zero = np.zeros((2, 2))
        with pytest.raises(InputError, match="does not accept"):
            solve(zero, np.ones(2), "mpm", delta_abs=0.1)
        with pytest.raises(InputError, match="exactly one"):
            solve(zero, np.ones(2), "tr", delta_abs=0.1, alpha=1.0)
        with pytest.raises(InputError, match="exactly one"):
            solve(zero, np.ones(2), "tsvd")
        with pytest.raises(InputError, match="unknown method"):
            solve(zero, np.ones(2), "lcurve", delta_abs=0.1)

    @pytest.mark.parametrize("method, name, value, message", [
        *[(method, "delta_abs", value, "noise bound must be positive")
          for method in ("mpmi", "tsvd", "tr", "morozov") for value in (-1.0, 0.0, np.nan)],
        *[("mpm", "h", value, "matrix error bound must be positive")
          for value in (-1.0, 0.0, np.nan)],
        *[(method, "alpha", value, "regularization parameter must be positive and finite")
          for method in ("tr", "morozov") for value in (-1.0, 0.0, np.nan, np.inf)],
        *[("tsvd", "rank", value, f"truncation rank must be an integer, got {value!r}")
          for value in (1.9, 2.0, True, np.True_)],
    ])
    def test_parameter_values_checked_before_factorizing(self, monkeypatch, method, name,
                                                         value, message):
        # a bad value needs no factors: it must not cost a factorization
        def no_svd(a):
            raise AssertionError("factorized before checking the parameter")

        monkeypatch.setattr(minpinv.baselines, "svd", no_svd)
        with pytest.raises(InputError) as exc:
            solve(np.eye(3), np.ones(3), method, **{name: value})
        assert str(exc.value) == message

    def test_discrepancy_choice_matches_two_steps(self, rng):
        a = oracles.rank_matrix(rng, 9, 6, 5)
        f = svd(a)
        u = rng.standard_normal(9)
        delta = 0.5 * float(np.sqrt(u @ u - f.project_rhs(u)[-1] ** 2))
        for method, name in (("tr", "alpha"), ("morozov", "alpha"), ("tsvd", "rank")):
            one = solve(f, u, method, delta_abs=delta)
            two = solve(f, u, method, **{name: one.parameter})
            assert one.parameter == two.parameter
            np.testing.assert_array_equal(one.solution, two.solution)


METHOD_PARAMETERS = [(method, name) for method, (_, _, accepted) in METHODS.items()
                     for name in accepted]


class TestNanParameters:
    """A NaN parameter fails every sign check instead of slipping past it."""

    @pytest.mark.parametrize("method,name", METHOD_PARAMETERS)
    def test_nan_parameter_rejected(self, method, name, rng):
        a = rng.standard_normal((5, 4)) + 4.0 * np.eye(5, 4)
        with pytest.raises(InputError):
            solve(a, rng.standard_normal(5), method, **{name: float("nan")})

    @pytest.mark.parametrize("method, alpha", [("morozov", 1e200), ("tr", 1.7e308)])
    def test_overflowing_spectrum_is_an_error(self, method, alpha):
        # a finite alpha whose spectrum leaves float range would report a NaN
        # or infinite condition number over a zeroed solution entry
        f = svd(np.diag([3.0, 2.0, 1.0, 0.5]))
        with np.errstate(over="ignore"), pytest.raises(SolverError, match="spectrum overflow"):
            solve(f, np.array([1.0, 2.0, 3.0, 4.0]), method, alpha=alpha)

    @pytest.mark.parametrize("method", ["tr", "morozov"])
    def test_infinite_alpha_rejected(self, method, rng):
        a = rng.standard_normal((5, 4)) + 4.0 * np.eye(5, 4)
        with pytest.raises(InputError):
            solve(a, rng.standard_normal(5), method, alpha=float("inf"))

    def test_nan_level_rejected(self):
        with pytest.raises(InputError):
            spectrum_distance_sq(float("nan"), np.array([2.0, 1.0]))
