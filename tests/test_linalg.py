"""Factorization contract, pseudoinverse application, Moore-Penrose checks."""

import numpy as np
import pytest
import scipy.linalg

import oracles
from minpinv.baselines import METHODS, solve
from minpinv.errors import InputError, SolverError
from minpinv.experiments import build_poisson, perturb_rhs
from minpinv.linalg import (
    EPS,
    assemble_filtered_matrix,
    assemble_filtered_pinv,
    frobenius_norm,
    moore_penrose_check,
    spectrum_cond,
    svd,
)
from minpinv.mpm import filtered_spectrum, solve_level


def orth_tol(factors):
    return 100.0 * len(factors.sigma) * EPS


class TestSvdContract:
    def test_identity(self):
        f = svd(np.eye(3))
        np.testing.assert_allclose(f.sigma, np.ones(3), atol=1e-15)
        # orthogonal factors up to sign conventions
        np.testing.assert_allclose(np.abs(f.u) @ np.abs(f.v.T), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        f = svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(f.sigma, [3.0, 2.0, 1.0], atol=1e-15)

    def test_factors_invariants_random(self, rng):
        for trial in range(10):
            m = int(rng.integers(2, 25))
            n = int(rng.integers(2, 25))
            a = rng.standard_normal((m, n))
            f = svd(a)
            assert f.u.shape == (m, m) and f.v.shape == (n, n)
            assert np.all(np.diff(f.sigma) <= 0.0)
            tol = orth_tol(f)
            assert frobenius_norm(f.u.T @ f.u - np.eye(m)) <= tol
            assert frobenius_norm(f.v.T @ f.v - np.eye(n)) <= tol
            rebuilt = (f.u[:, : len(f.sigma)] * f.sigma) @ f.v[:, : len(f.sigma)].T
            assert frobenius_norm(rebuilt - a) <= tol * frobenius_norm(a)

    def test_energy_identity(self, rng):
        # sum of squared singular values equals the squared Frobenius norm
        for _ in range(10):
            a = rng.standard_normal((12, 17))
            f = svd(a)
            assert np.sum(f.sigma ** 2) == pytest.approx(
                frobenius_norm(a) ** 2, rel=1e-10
            )

    def test_deterministic(self, rng):
        a = rng.standard_normal((15, 11))
        f1, f2 = svd(a), svd(a)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.v, f2.v)

    def test_eigendecomposition_cross_check(self, desk_problem, desk_factors):
        # independent route: eigenvalues of A^T A for the leading block
        a = desk_problem.matrix
        eigvals = np.linalg.eigvalsh(a.T @ a)[::-1]
        leading = np.sqrt(eigvals[:10])
        np.testing.assert_allclose(desk_factors.sigma[:10], leading, rtol=1e-9)

    def test_weyl_perturbation(self, rng):
        # first inequality: sum (sigma_k(A) - sigma_k(B))^2 <= ||A - B||^2
        for _ in range(10):
            a = rng.standard_normal((9, 13))
            b = rng.standard_normal((9, 13))
            sa, sb = svd(a).sigma, svd(b).sigma
            assert np.sum((sa - sb) ** 2) <= frobenius_norm(a - b) ** 2 + 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            svd(np.zeros((3, 3)))
        with pytest.raises(InputError):
            svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))
        with pytest.raises(InputError):
            svd(np.ones(4))

    def test_rank_tolerance_override(self):
        f = svd(np.diag([5.0, 1e-13]))
        assert f.rank == 2  # default cutoff is 5 * 2 * eps ~ 2e-15
        assert svd(np.diag([5.0, 1e-13]), rank_tolerance=1e-12).rank == 1

    def test_rank_tolerance_must_be_nonnegative(self):
        a = np.diag([5.0, 1.0])
        for bad in (-1.0, float("nan")):
            with pytest.raises(InputError, match="nonnegative"):
                svd(a, rank_tolerance=bad)
        assert svd(a, rank_tolerance=0.0).rank == 2
        assert svd(a, rank_tolerance=np.inf).rank == 0


def assert_same_report(report, ref, rtol=1e-10):
    gap = np.linalg.norm(report.solution - ref.solution)
    assert gap <= rtol * np.linalg.norm(ref.solution)
    assert report.parameter == pytest.approx(ref.parameter, rel=rtol)
    assert report.condition_number == pytest.approx(ref.condition_number, rel=rtol)
    assert report.jump_root == ref.jump_root
    assert report.effective_rank == ref.effective_rank


class TestMixedDrivers:
    """sigma from values-only gesvd, U and V from gesdd."""

    def test_sigma_is_values_only_gesvd(self, desk_problem, desk_factors):
        expected = scipy.linalg.svd(
            desk_problem.matrix, compute_uv=False, lapack_driver="gesvd"
        )
        assert np.array_equal(desk_factors.sigma, expected)

    @pytest.mark.parametrize("delta", [0.005, 0.05, 0.3])
    def test_desk_methods_match_gesvd_reference(self, desk_problem, desk_factors, delta):
        ref_factors = oracles.gesvd_factors(desk_problem.matrix)
        assert desk_factors.rank == ref_factors.rank
        delta_abs = delta * np.linalg.norm(desk_problem.exact_rhs)
        for seed in range(2):
            u = perturb_rhs(desk_problem.exact_rhs, delta, seed)
            for method, (_, accepted) in METHODS.items():
                bound = {accepted[0]: delta_abs}
                assert_same_report(solve(desk_factors, u, method, **bound),
                                   solve(ref_factors, u, method, **bound))

    def test_baselines_match_gesvd_reference_at_499(self):
        problem = build_poisson(499, 501, 0.1)
        factors = svd(problem.matrix)
        ref_factors = oracles.gesvd_factors(problem.matrix)
        assert factors.rank == ref_factors.rank
        for delta in (0.005, 0.3):
            u = perturb_rhs(problem.exact_rhs, delta, 0)
            delta_abs = delta * np.linalg.norm(problem.exact_rhs)
            for method in ("tsvd", "tr", "morozov"):
                assert_same_report(solve(factors, u, method, delta_abs=delta_abs),
                                   solve(ref_factors, u, method, delta_abs=delta_abs))

    def test_floor_is_projection_residual(self, rng, desk_problem, desk_factors):
        # the gesdd columns past the rank span the complement of U_r
        rank_deficient = np.vstack([oracles.rank_matrix(rng, 8, 10, 4), np.zeros((3, 10))])
        cases = [(desk_factors, perturb_rhs(desk_problem.exact_rhs, 0.005, 0)),
                 (svd(rank_deficient), rng.standard_normal(11))]
        for f, u in cases:
            coeffs = f.project_rhs(u)
            u_r = f.u[:, : f.rank]
            direct = np.sum((u - u_r @ (u_r.T @ u)) ** 2)
            assert np.sum(coeffs[f.rank:] ** 2) == pytest.approx(direct, rel=1e-10)


@pytest.fixture(scope="module")
def projection_cases():
    """(factors, right-hand side) pairs whose numerical rank is below m:
    the 299x301 model problem (rank 198) and a random rank-deficient one."""
    rng = np.random.default_rng(7)
    problem = build_poisson(299, 301, 0.1)
    deficient = oracles.rank_matrix(rng, 30, 24, 11)
    return [(svd(problem.matrix), perturb_rhs(problem.exact_rhs, 0.05, 0)),
            (svd(deficient), rng.standard_normal(30))]


class TestProjectRhs:
    """Coordinates on the rank block plus one floor coordinate."""

    def test_matches_full_projection(self, projection_cases):
        for f, u in projection_cases:
            assert f.rank < f.u.shape[0]
            coeffs = f.project_rhs(u)
            full = f.u.T @ u
            assert len(coeffs) == f.rank + 1
            head_gap = np.linalg.norm(coeffs[: f.rank] - full[: f.rank])
            assert head_gap <= 1e-13 * np.linalg.norm(full[: f.rank])
            tail = np.linalg.norm(f.u[:, f.rank:].T @ u)
            assert coeffs[-1] == pytest.approx(tail, rel=1e-12)

    def test_full_rank_floor_is_exactly_zero(self, rng, desk_factors, desk_problem):
        cases = [(desk_factors, perturb_rhs(desk_problem.exact_rhs, 0.05, 0)),
                 (svd(rng.standard_normal((6, 9))), rng.standard_normal(6))]
        for f, u in cases:
            assert f.rank == f.u.shape[0]
            coeffs = f.project_rhs(u)
            assert coeffs[-1] == 0.0
            np.testing.assert_array_equal(coeffs[:-1], f.u.T @ u)

    def test_rank_is_computed_once(self, rng):
        a = rng.standard_normal((5, 4))
        f = svd(a)
        assert f.rank == 4
        assert f.rank is f.__dict__["rank"]
        assert svd(a, rank_tolerance=1e300).rank == 0

    def test_mpm_survivors_past_the_rank(self, projection_cases):
        # a budget far below the energy past the rank keeps indices past it
        # alive; the solve must then project onto those columns too
        for f, u in projection_cases:
            positive = f.sigma[f.sigma > 0.0]
            h = 1e-3 * float(np.linalg.norm(positive[f.rank:]))
            report = solve(f, u, "mpm", h=h)
            assert report.effective_rank > f.rank
            # reference from the full U^T u and the whole positive spectrum
            level, _ = solve_level(h, f.sigma)
            s = filtered_spectrum(positive, level)
            full = f.u.T @ u
            head = full[: len(s)]
            z = f.v[:, : len(s)] @ np.divide(head, s, out=np.zeros(len(s)), where=s > 0.0)
            ratio = np.divide(positive, s, out=np.zeros(len(s)), where=s > 0.0)
            resid_sq = np.sum(((1.0 - ratio) * head) ** 2) + np.sum(full[len(s):] ** 2)
            assert np.linalg.norm(report.solution - z) <= 1e-12 * np.linalg.norm(z)
            assert report.residual == pytest.approx(np.sqrt(resid_sq), rel=1e-12)
            assert report.residual_floor == pytest.approx(
                np.linalg.norm(full[f.rank:]), rel=1e-12)
            assert report.effective_rank == int(np.sum(s > 0.0))


class TestApplyFilteredPinv:
    """A filtered pseudoinverse, materialized or applied through solve."""

    def test_unfiltered_square_inverse(self, rng):
        a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
        f = svd(a)
        u = rng.standard_normal(6)
        z = assemble_filtered_pinv(f, f.sigma) @ u
        np.testing.assert_allclose(z, np.linalg.solve(a, u), rtol=1e-9)

    def test_all_zero_filter(self, rng):
        f = svd(rng.standard_normal((5, 4)))
        z = assemble_filtered_pinv(f, np.zeros(4)) @ rng.standard_normal(5)
        np.testing.assert_array_equal(z, np.zeros(4))

    def test_forced_truncation(self):
        f = svd(np.diag([2.0, 1.0]))
        z = assemble_filtered_pinv(f, np.array([2.0, 0.0])) @ np.array([4.0, 3.0])
        np.testing.assert_allclose(z, [2.0, 0.0], atol=1e-14)

    def test_matches_materialized(self, rng):
        a = oracles.rank_matrix(rng, 8, 6, 4)
        f = svd(a)
        filtered = f.sigma.copy()
        filtered[3:] = 0.0
        u = rng.standard_normal(8)
        z_op = solve(f, u, "tsvd", rank=3).solution
        z_mat = assemble_filtered_pinv(f, filtered) @ u
        np.testing.assert_allclose(z_op, z_mat, atol=1e-12)

    def test_negative_filtered_spectrum_rejected(self, rng):
        f = svd(rng.standard_normal((5, 4)))
        filtered = np.array([1.0, 0.5, -0.1, 0.0])
        with pytest.raises(InputError, match="nonnegative"):
            assemble_filtered_pinv(f, filtered)

    def test_dimension_mismatch(self, rng):
        f = svd(rng.standard_normal((5, 4)))
        with pytest.raises(InputError):
            assemble_filtered_pinv(f, np.ones(3))
        with pytest.raises(InputError):
            f.project_rhs(np.ones(4))


class TestMoorePenrose:
    def test_identity(self):
        report = moore_penrose_check(np.eye(3), np.eye(3))
        assert report.max_residual() == 0.0

    def test_singular_diagonal(self):
        report = moore_penrose_check(np.diag([2.0, 0.0]), np.diag([0.5, 0.0]))
        assert report.max_residual() == 0.0

    def test_svd_assembled_random(self, rng):
        a = oracles.rank_matrix(rng, 7, 5, 3)
        f = svd(a)
        filtered = np.where(f.sigma > f.rank_tolerance, f.sigma, 0.0)
        report = moore_penrose_check(a, assemble_filtered_pinv(f, filtered))
        assert report.max_residual() <= 1e-10

    def test_matches_reference_pinv(self, rng):
        a = oracles.rank_matrix(rng, 6, 9, 4)
        report = moore_penrose_check(a, oracles.pinv(a))
        assert report.max_residual() <= 1e-10

    def test_shape_check(self):
        with pytest.raises(InputError):
            moore_penrose_check(np.eye(3), np.eye(4))


class TestConditionNumbers:
    def test_diagonal(self):
        f = svd(np.diag([3.0, 2.0, 1.0]))
        assert spectrum_cond(f.sigma[: f.rank]) == pytest.approx(3.0)

    def test_numerical_rank_drops_tail(self):
        # diag(5, ~0) at tolerance 1e-12 has numerical rank 1, ratio 1
        f = svd(np.diag([5.0, 1e-13]), rank_tolerance=1e-12)
        assert spectrum_cond(f.sigma[: f.rank]) == pytest.approx(1.0)
        f0 = svd(np.diag([5.0, 0.0]))
        assert f0.rank == 1
        assert spectrum_cond(f0.sigma[: f0.rank]) == pytest.approx(1.0)

    def test_full_ratio(self):
        f = svd(np.diag([5.0, 1e-13]))
        assert spectrum_cond(f.sigma) == pytest.approx(5e13, rel=1e-6)

    def test_reconstruction_vs_assembled(self, rng):
        a = oracles.rank_matrix(rng, 6, 6, 6)
        f = svd(a)
        np.testing.assert_allclose(
            assemble_filtered_matrix(f, f.sigma), a, atol=1e-10 * frobenius_norm(a)
        )

    def test_pinv_norm_identity(self, rng):
        # ||A^+||_F^2 equals the sum of inverse squared singular values
        a = oracles.rank_matrix(rng, 8, 6, 4)
        f = svd(a)
        filtered = np.where(f.sigma > f.rank_tolerance, f.sigma, 0.0)
        pinv = assemble_filtered_pinv(f, filtered)
        expected = np.sum(1.0 / f.sigma[: f.rank] ** 2)
        assert frobenius_norm(pinv) ** 2 == pytest.approx(expected, rel=1e-10)
