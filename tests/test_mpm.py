"""Quartic filter, spectral distance, level root, minimal pseudoinverse."""

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import minpinv.mpm
import minpinv.mpmi
import oracles
from minpinv import _kernels
from minpinv.baselines import solve
from minpinv.errors import InputError, SolverError
from minpinv.experiments import perturb_rhs
from minpinv.linalg import frobenius_norm, svd
from minpinv.mpm import (
    QUARTIC_MAX,
    minimal_pseudoinverse,
    solve_generalized_root,
    solve_level,
    spectrum_distance_sq,
)

EPS = float(np.finfo(np.float64).eps)

# frozen from the bisection oracle (tests/oracles.py)
ROOT_AT_ONE = 1.380277569097614

# Median root-function evaluations per solve on the 199x201 desk problem,
# 6 noise levels x seeds 0-3, recorded with the bound-pruned binary
# bracket search and Anderson-Bjorck steps.  Illinois steps made 8.5 and
# 4, the search without bounds 13 and 10, the linear breakpoint scan
# before it about 210 and 197.
DESK_EVALS = {"mpmi": 7.5, "mpm": 3.5}


def filter_factor(rho, level):
    """The quartic filter factor of one singular value at one level."""
    return float(_kernels.QuarticFilter([rho]).x_values(level)[0])


class TestQuarticRoot:
    def test_endpoints(self):
        x = 1.0 + _kernels.quartic_excess([0.0, QUARTIC_MAX])
        assert x[0] == 1.0
        assert x[1] == 1.5

    def test_frozen_midpoint(self):
        x = 1.0 + _kernels.quartic_excess([1.0])
        assert x[0] == pytest.approx(ROOT_AT_ONE, abs=1e-12)


class TestFilteredSigmaValue:
    """One filtered singular value rho * x: rho * 3/2 at the breakpoint, 0 past it."""

    def test_zero_level_is_identity(self):
        assert 1.0 * filter_factor(1.0, 0.0) == 1.0

    def test_breakpoint_takes_left_branch(self):
        assert 1.0 * filter_factor(1.0, QUARTIC_MAX) == 1.5

    def test_past_breakpoint_truncates(self):
        assert 1.0 * filter_factor(1.0, 2.0) == 0.0

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_value_in_allowed_set(self, rho, level):
        value = rho * filter_factor(rho, level)
        assert value == 0.0 or rho <= value <= 1.5 * rho + 1e-12 * rho

    @given(
        st.floats(min_value=0.1, max_value=5.0),
        # stay an ulp away from the breakpoint: pow vs chained products
        # differ there, and the exact-edge branch is covered elsewhere
        st.floats(min_value=1e-8, max_value=1.0 - 1e-9),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle(self, rho, frac):
        level = frac * QUARTIC_MAX * rho ** 4
        value = rho * filter_factor(rho, level)
        assert value == pytest.approx(
            oracles.mpm_filtered_value(rho, level), rel=1e-11
        )


class TestSpectrumDistance:
    def test_zero_at_zero(self):
        assert spectrum_distance_sq(0.0, np.array([3.0, 2.0, 1.0])) == 0.0

    def test_annihilation(self):
        assert spectrum_distance_sq(2.0, np.array([1.0])) == 1.0

    def test_frozen_midpoint(self):
        expected = (ROOT_AT_ONE - 1.0) ** 2  # 0.14461102955879052
        assert spectrum_distance_sq(1.0, np.array([1.0])) == pytest.approx(
            expected, rel=1e-11
        )

    def test_zero_entries_ignored(self):
        with_zero = spectrum_distance_sq(1.0, np.array([2.0, 0.0]))
        without = spectrum_distance_sq(1.0, np.array([2.0]))
        assert with_zero == without

    def test_monotone_and_left_continuous(self, rng):
        sigma = np.sort(rng.uniform(0.2, 3.0, 8))[::-1].copy()
        top = QUARTIC_MAX * sigma[0] ** 4
        grid = np.linspace(0.0, 1.1 * top, 4000)
        values = np.array([spectrum_distance_sq(g, sigma) for g in grid])
        assert np.all(np.diff(values) >= -1e-12 * values.max())
        # left continuity at every breakpoint: value at b matches values
        # just below, not the jumped-up value just above
        for s in sigma:
            b = QUARTIC_MAX * (s * s * s * s)  # kernel breakpoint bits
            at = spectrum_distance_sq(b, sigma)
            below = spectrum_distance_sq(b * (1.0 - 1e-12), sigma)
            above = spectrum_distance_sq(np.nextafter(b, np.inf), sigma)
            assert at == pytest.approx(below, rel=1e-6)
            assert above > at + 0.5 * s * s  # jump of 0.75 s^2

    def test_matches_oracle(self, rng):
        sigma = np.sort(rng.uniform(0.2, 3.0, 6))[::-1].copy()
        for level in np.geomspace(1e-4, 30.0, 25):
            assert spectrum_distance_sq(level, sigma) == pytest.approx(
                oracles.mpm_beta(level, sigma), rel=1e-10
            )

    def test_rejects_increasing_spectrum(self):
        with pytest.raises(InputError):
            spectrum_distance_sq(1.0, np.array([1.0, 2.0]))


class TestSolveLevel:
    def test_interior_root_inverts_distance(self):
        target_sq = spectrum_distance_sq(1.0, np.array([1.0]))
        level, jumped = solve_level(np.sqrt(target_sq), oracles.diag_factors([1.0]))
        assert not jumped
        assert level == pytest.approx(1.0, rel=1e-9)

    def test_jump_crossing(self):
        # distance^2 jumps from 0.25 to 1 at the single breakpoint
        level, jumped = solve_level(np.sqrt(0.5), oracles.diag_factors([1.0]))
        assert jumped
        assert level == QUARTIC_MAX

    def test_small_budget_stays_in_first_interval(self, rng):
        sigma = np.array([2.0, 1.0])
        for err_sq in (1e-6, 1e-8, 1e-10):
            level, jumped = solve_level(np.sqrt(err_sq), oracles.diag_factors(sigma))
            assert not jumped
            assert level < QUARTIC_MAX  # below the smaller breakpoint
            achieved = spectrum_distance_sq(level, sigma)
            assert achieved == pytest.approx(err_sq, rel=1e-12)

    def test_matches_grid_oracle(self, rng):
        sigma = np.sort(rng.uniform(0.5, 2.0, 5))[::-1].copy()
        target = 0.3 * float(np.sum(sigma ** 2))
        level, jumped = solve_level(np.sqrt(target), oracles.diag_factors(sigma))
        top = QUARTIC_MAX * sigma[0] ** 4
        oracle_level, _ = oracles.grid_root(
            lambda g: oracles.mpm_beta(g, sigma), 0.0, 1.05 * top, target
        )
        if jumped:
            # the oracle bracket must collapse onto the same breakpoint
            assert oracle_level == pytest.approx(level, rel=1e-4)
        else:
            assert spectrum_distance_sq(level, sigma) == pytest.approx(
                target, rel=1e-9
            )
            assert oracle_level == pytest.approx(level, rel=1e-4)

    def test_budget_exceeding_energy_rejected(self):
        sigma = np.array([2.0, 1.0])
        with pytest.raises(SolverError, match="matrix energy"):
            solve_level(np.sqrt(5.0) + 1e-9, oracles.diag_factors(sigma))
        with pytest.raises(SolverError, match="matrix energy"):
            solve_level(np.sqrt(5.0), oracles.diag_factors(sigma))  # equality also rejected

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            solve_level(0.0, oracles.diag_factors([1.0]))


@st.composite
def staircases(draw):
    """A nondecreasing left-continuous f(L) = a L + c L^3 plus the jumps of
    the breakpoints strictly below L, with a target for it.

    Breakpoints, jumps and coefficients are small integers, so every left
    value f(b_i) and right limit f(b_i) + jump_i is exact and the targets
    "left" and "right" sit exactly on one.  Jumps may be zero.
    """
    n = draw(st.integers(min_value=1, max_value=10))
    breaks = sorted(draw(st.sets(st.integers(min_value=1, max_value=1000),
                                 min_size=n, max_size=n)))
    jumps = draw(st.lists(st.integers(min_value=0, max_value=5),
                          min_size=n, max_size=n))
    a = draw(st.integers(min_value=1, max_value=4))
    c = draw(st.integers(min_value=0, max_value=3))
    below = np.concatenate([[0.0], np.cumsum(jumps, dtype=np.float64)])
    breaks = [float(b) for b in breaks]
    jumps = [float(j) for j in jumps]

    def f(level):
        return a * level + c * level ** 3 + float(below[bisect_left(breaks, level)])

    top = f(breaks[-1]) + jumps[-1]
    kind = draw(st.sampled_from(["left", "right", "between", "above"]))
    i = draw(st.integers(min_value=0, max_value=n - 1))
    if kind == "left":
        target = f(breaks[i])
    elif kind == "right":
        target = f(breaks[i]) + jumps[i]
    elif kind == "between":
        target = top * draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    else:
        target = top + 1.0
    tol_abs = top * draw(st.sampled_from([0.0, 1e-12, 1e-6]))
    return f, breaks, jumps, target, tol_abs


@st.composite
def per_index_staircases(draw):
    """A staircase from :func:`staircases` and the same breakpoints given
    per index, ascending: each point repeated one to three times, its jump
    on the last entry or split in integer parts over the entries (a part
    before the last is input the finder rejects).  Integer parts make
    every merged sum exact."""
    case = draw(staircases())
    _, breaks, jumps, _, _ = case
    index_breaks, index_jumps = [], []
    for brk, jump in zip(breaks, jumps):
        cuts = sorted(draw(st.lists(st.integers(0, int(jump)), max_size=2)))
        parts = np.diff([0, *cuts, int(jump)]).tolist()
        if draw(st.booleans()):
            parts = [0] * (len(parts) - 1) + [int(jump)]
        index_breaks += [brk] * len(parts)
        index_jumps += [float(part) for part in parts]
    return case, index_breaks, index_jumps


class TestGeneralizedRoot:
    @given(staircases())
    @settings(max_examples=200, deadline=None)
    def test_same_bracket_as_linear_scan(self, case):
        f, breaks, jumps, target, tol_abs = case
        try:
            ref_level, ref_jumped = oracles.generalized_root_scan(
                f, breaks, jumps, target, tol_abs)
        except ValueError:
            with pytest.raises(SolverError, match="bracket exhausted"):
                solve_generalized_root(f, breaks, jumps, target, tol_abs)
            return
        level, jumped = solve_generalized_root(f, breaks, jumps, target, tol_abs)
        assert type(level) is float
        assert jumped == ref_jumped
        # an interior level lies in (b_{i-1}, b_i], a jump root is b_i
        index = bisect_left(breaks, level)
        assert index == bisect_left(breaks, ref_level)
        if jumped:
            assert level == breaks[index]
        else:
            below = float(np.nextafter(level, -np.inf))
            assert abs(f(level) - target) <= tol_abs or f(below) < target <= f(level)

    @given(per_index_staircases())
    @settings(max_examples=200, deadline=None)
    def test_per_index_breaks_in_ascending_order(self, case):
        # a repeated point that carries its jump on its last entry gives the
        # outcome of the merged points; any other repetition, and any
        # descent, is an InputError
        (f, _, _, target, tol_abs), index_breaks, index_jumps = case

        def outcome(b, j):
            try:
                level, jumped = solve_generalized_root(f, b, j, target, tol_abs)
            except SolverError as exc:
                return exc.name
            return level.hex(), jumped

        if any(b == after and j != 0.0 for b, after, j
               in zip(index_breaks, index_breaks[1:], index_jumps)):
            with pytest.raises(InputError, match="ascend"):
                solve_generalized_root(f, index_breaks, index_jumps, target, tol_abs)
        else:
            merged = oracles.ascending_breakpoints_loop(index_breaks, index_jumps)
            assert outcome(index_breaks, index_jumps) == outcome(*merged)
        if len(set(index_breaks)) > 1:
            with pytest.raises(InputError, match="ascend"):
                solve_generalized_root(f, index_breaks[::-1], index_jumps[::-1],
                                       target, tol_abs)

    @pytest.mark.parametrize("method, bound", [("mpmi", "delta_abs"), ("mpm", "h")])
    def test_evaluations_per_desk_solve(self, method, bound, desk_problem,
                                        desk_factors, monkeypatch):
        counts = []

        def counting(eval_fn, *args, **kwargs):
            calls = []

            def counted(level):
                calls.append(level)
                return eval_fn(level)

            level, jumped = solve_generalized_root(counted, *args, **kwargs)
            assert type(level) is float
            counts.append(len(calls))
            return level, jumped

        monkeypatch.setattr(minpinv.mpm, "solve_generalized_root", counting)
        monkeypatch.setattr(minpinv.mpmi, "solve_generalized_root", counting)
        norm = float(np.linalg.norm(desk_problem.exact_rhs))
        for delta in (0.005, 0.01, 0.05, 0.1, 0.2, 0.3):
            for seed in range(4):
                u = perturb_rhs(desk_problem.exact_rhs, delta, seed)
                solve(desk_factors, u, method, **{bound: delta * norm})
        assert len(counts) == 24
        assert np.median(counts) <= DESK_EVALS[method]

    def test_warm_factors_evaluate_the_same_levels(self, desk_problem, monkeypatch):
        # the factors cache state that depends on sigma alone (filters,
        # merge plans, mpm's bounds) on first use; a solve must evaluate
        # the same levels, and run the quartic as often, whether or not
        # earlier solves built it
        seen = []
        quartic_excess = _kernels.quartic_excess

        def recording(eval_fn, *args, **kwargs):
            def recorded(level):
                seen.append(float(level).hex())
                return eval_fn(level)

            return solve_generalized_root(recorded, *args, **kwargs)

        def counted_excess(t):
            seen.append("quartic")
            return quartic_excess(t)

        monkeypatch.setattr(_kernels, "quartic_excess", counted_excess)
        monkeypatch.setattr(minpinv.mpm, "solve_generalized_root", recording)
        monkeypatch.setattr(minpinv.mpmi, "solve_generalized_root", recording)
        norm = float(np.linalg.norm(desk_problem.exact_rhs))
        deltas = (0.005, 0.01, 0.05, 0.1, 0.2, 0.3)

        def levels(factors, method, delta, seed):
            seen.clear()
            u = perturb_rhs(desk_problem.exact_rhs, delta, seed)
            bound = {"mpmi": "delta_abs", "mpm": "h"}[method]
            solve(factors, u, method, **{bound: delta * norm})
            return list(seen)

        warm = svd(desk_problem.matrix)
        for i in range(20):
            levels(warm, ("mpmi", "mpm")[i % 2], deltas[i // 2 % 6], 100 + i)
        for method in ("mpmi", "mpm"):
            fresh = levels(svd(desk_problem.matrix), method, 0.05, 7)
            assert "quartic" in fresh    # the patch sees the kernel calls
            assert levels(warm, method, 0.05, 7) == fresh

    def test_undeclared_step_is_an_error(self):
        # f steps by 1 at 0.25, which ``breaks`` does not declare: no level
        # meets the tolerance and the bracket closes on adjacent floats
        def f(level):
            return level + (1.0 if level > 0.25 else 0.0)

        with pytest.raises(SolverError, match="bracket exhausted"):
            solve_generalized_root(f, [1.0], [0.0], 0.75, 1e-12)

    def test_zero_tolerance_ends_on_adjacent_floats(self):
        # no float cubes to exactly 3; tolerance 0 asks for float resolution
        level, jumped = solve_generalized_root(lambda lv: lv ** 3, [2.0], [0.0], 3.0, 0.0)
        assert not jumped
        assert float(np.nextafter(level, -np.inf)) ** 3 < 3.0 < level ** 3

    def test_no_desk_solve_misses_its_tolerance(self, desk_problem, desk_factors):
        # 6 noise levels x 20 seeds: every mpmi and mpm solve ends inside
        # its tolerance or on a jump root, never on adjacent floats
        sigma = desk_factors.sigma
        norm = float(np.linalg.norm(desk_problem.exact_rhs))
        for delta in (0.005, 0.01, 0.05, 0.1, 0.2, 0.3):
            h = delta * norm
            level, jumped = solve_level(h, desk_factors)
            if not jumped:
                assert abs(spectrum_distance_sq(level, sigma) - h * h) <= 1e-12 * h * h
            for seed in range(20):
                u = perturb_rhs(desk_problem.exact_rhs, delta, seed)
                report = solve(desk_factors, u, "mpmi", delta_abs=h)
                if not report.jump_root:
                    # the solver's tolerance, plus rounding between its
                    # residual and the report's
                    target = h * h + report.residual_floor ** 2
                    assert abs(report.residual ** 2 - target) <= 1.001e-12 * float(u @ u)

    def test_distance_bits_match_the_root_finder(self, desk_factors, monkeypatch):
        # perfbench checks the mpm budget with spectrum_distance_sq at the
        # returned level: it must read the very value the finder evaluated
        seen = {}

        def recording(eval_fn, *args, **kwargs):
            def recorded(level):
                seen[level] = eval_fn(level)
                return seen[level]

            return solve_generalized_root(recorded, *args, **kwargs)

        monkeypatch.setattr(minpinv.mpm, "solve_generalized_root", recording)
        sigma = desk_factors.sigma
        energy = float(np.sum(sigma * sigma))
        for share in (1e-9, 1e-4, 0.01, 0.1, 0.5):
            level, _ = solve_level(np.sqrt(share * energy), desk_factors)
            assert level in seen
        for level, value in seen.items():
            assert spectrum_distance_sq(level, sigma) == value

    def test_distance_sum_is_built_once_per_factorization(self, desk_factors, monkeypatch):
        # like its breakpoints, mpm's distance function depends on sigma
        # alone: every solve_level on the same factors hands over one object
        seen = []

        def recording(eval_fn, *args, **kwargs):
            seen.append(eval_fn)
            return solve_generalized_root(eval_fn, *args, **kwargs)

        monkeypatch.setattr(minpinv.mpm, "solve_generalized_root", recording)
        energy = float(np.sum(desk_factors.sigma ** 2))
        for share in (1e-4, 0.1):
            solve_level(np.sqrt(share * energy), desk_factors)
        assert len(seen) == 2 and seen[0] is seen[1]

    def test_bisects_to_float_resolution(self):
        # f(L) = L below the breakpoint 1: the root 1e-300 lies about a
        # thousand halvings down and the tolerance is 0, so the finder must
        # resolve it to float resolution, not stop at a step count
        level, jumped = solve_generalized_root(lambda lv: lv, [1.0], [1.0], 1e-300, 0.0)
        assert not jumped
        assert abs(level - 1e-300) <= np.spacing(1e-300)


@st.composite
def quartic_functions(draw):
    """A quartic filter function with its root-finder input: the squared
    residual of random coefficients or the spectral distance.

    The spectrum is graded, sigma_k = 10**(-g p_k) at random p_k in
    [0, 1], with runs of tied entries; the distance's spectrum may end in
    zeros (a zero breakpoint).  Some coefficients are zero (rows out of
    reach) and one sits past the spectrum (the floor).  Returns
    (f, merged, per_index, total): ``merged`` is (breaks, jumps, bounds)
    from the filter, ``per_index`` the same breakpoints and jumps per
    index, for the oracle merge, ``total`` = sup f, the sum of the
    n weights; the bounds' margin is 16 n eps sup f.
    """
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(min_value=1, max_value=10))
    grade = draw(st.floats(min_value=0.0, max_value=12.0))
    ties = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n))
    sigma = np.repeat(10.0 ** (-grade * np.sort(rng.uniform(0.0, 1.0, n))), ties)
    sigma *= 10.0 ** draw(st.integers(min_value=-20, max_value=20))
    if draw(st.booleans()):
        coeffs = rng.standard_normal(len(sigma) + 1)
        coeffs[rng.uniform(size=len(coeffs)) < 0.25] = 0.0
        assume(np.any(coeffs[:-1]))
        quartic = _kernels.QuarticFilter(sigma)
        f, *merged = quartic.residual_sq(coeffs)
        weights, cap = coeffs * coeffs, _kernels.RESIDUAL_CAP
    else:
        sigma = np.append(sigma, np.zeros(draw(st.integers(min_value=0, max_value=2))))
        quartic = _kernels.QuarticFilter(sigma)
        f, *merged = quartic.distance_sq
        weights, cap = sigma * sigma, _kernels.DISTANCE_CAP
    per_index = quartic.breaks, (1.0 - cap) * weights[: len(sigma)]
    return f, merged, per_index, float(np.sum(weights))


class TestBoundedSearch:
    """The bounds that let the root finder skip bracket-search evaluations."""

    @given(quartic_functions())
    @settings(max_examples=300, deadline=None)
    def test_bounds_hold_at_every_merged_breakpoint(self, case):
        f, (breaks, jumps, (lower, upper)), per_index, _ = case
        assert not np.any(np.isnan(lower)) and not np.any(np.isnan(upper))
        ref_breaks, ref_jumps = oracles.ascending_breakpoints_loop(*per_index)
        assert breaks.tolist() == ref_breaks
        assert jumps.tolist() == ref_jumps
        for brk, low, high in zip(breaks.tolist(), lower.tolist(), upper.tolist()):
            assert low <= f(brk) <= high

    @given(quartic_functions(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_as_the_search_without_bounds(self, case, data):
        f, (breaks, jumps, bounds), per_index, total = case
        margin = 16.0 * (len(per_index[0]) + 1) * EPS * total
        j = data.draw(st.integers(min_value=0, max_value=len(breaks) - 1))
        left = f(float(breaks[j]))
        edge = data.draw(st.sampled_from([left, left + float(jumps[j])]))
        target = data.draw(st.one_of(
            st.just(edge),
            st.sampled_from([np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]),
            st.floats(min_value=-2.0, max_value=2.0).map(lambda r: edge + r * margin),
            st.floats(min_value=0.0, max_value=1.0).map(lambda r: r * f(float(breaks[-1]))),
        ))
        tol_abs = data.draw(st.sampled_from([0.0, 1e-12])) * total

        def outcome(*args, **kwargs):
            levels = []

            def recorded(level):
                levels.append(float(level))
                return f(level)

            try:
                level, jumped = solve_generalized_root(recorded, *args, target, tol_abs, **kwargs)
            except SolverError as exc:
                return exc.name, levels
            return (level.hex(), jumped), levels

        bounded, bounded_levels = outcome(breaks, jumps, bounds=bounds)
        plain, plain_levels = outcome(*oracles.ascending_breakpoints_loop(*per_index))
        assert bounded == plain
        # the bounded search evaluates a subset of the same levels
        assert set(bounded_levels) <= set(plain_levels)


class TestMinimalPseudoinverse:
    def test_tiny_budget_recovers_inverse(self, rng):
        a = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        result = minimal_pseudoinverse(a, 1e-12)
        np.testing.assert_allclose(result.pinv, np.linalg.inv(a), atol=1e-8)

    def test_forced_jump_example(self):
        # budget^2 = 0.64 sits inside the jump (0.25, 1): the surviving
        # value is inflated to 3/2, never zeroed
        result = minimal_pseudoinverse(np.diag([1.0]), 0.8)
        np.testing.assert_allclose(result.pinv, [[2.0 / 3.0]], atol=1e-15)
        np.testing.assert_allclose(result.matrix, [[1.5]], atol=1e-15)
        assert result.jumped

    def test_distance_within_budget(self, rng):
        for _ in range(10):
            a = rng.standard_normal((8, 6))
            budget = rng.uniform(0.05, 0.8) * frobenius_norm(a)
            result = minimal_pseudoinverse(a, budget)
            assert frobenius_norm(result.matrix - a) <= budget + 1e-10 * frobenius_norm(a)

    def test_spectrum_invariants(self, rng):
        a = rng.standard_normal((9, 7))
        result = minimal_pseudoinverse(a, 0.3 * frobenius_norm(a))
        # filtered values live in {0} union [sigma_k, 1.5 sigma_k]
        for raw, filt in zip(result.sigma, result.filtered_sigma):
            assert filt == 0.0 or raw <= filt <= 1.5 * raw * (1.0 + 1e-12)
        # quartic inflation preserves nonincreasing order
        assert np.all(np.diff(result.filtered_sigma) <= 1e-12 * result.sigma[0])

    def test_minimal_norm_surrogate(self, rng):
        # whenever ranks agree, the filtered pseudoinverse norm cannot
        # exceed that of the raw data pseudoinverse
        for _ in range(10):
            a = oracles.rank_matrix(rng, 7, 6, int(rng.integers(2, 6)))
            budget = rng.uniform(0.01, 0.5) * frobenius_norm(a)
            result = minimal_pseudoinverse(a, budget)
            raw_rank = svd(a).rank
            if result.rank == raw_rank:
                assert (
                    frobenius_norm(result.pinv)
                    <= frobenius_norm(oracles.pinv(a)) + 1e-10
                )

    def test_moore_penrose_of_output(self, rng):
        a = rng.standard_normal((6, 8))
        result = minimal_pseudoinverse(a, 0.2 * frobenius_norm(a))
        report = oracles.moore_penrose_check(result.matrix, result.pinv)
        assert report.max_residual() <= 1e-10


class TestPerturbationProperties:
    """Rank restoration and pseudoinverse accuracy under perturbation."""

    def test_rank_restoration_small_perturbation(self, rng):
        # 10 x 8 of exact rank 5, perturbation well below 1 / ||pinv||
        a_bar = oracles.rank_matrix(rng, 10, 8, 5)
        pinv_norm = frobenius_norm(oracles.pinv(a_bar))
        h = 1e-3 / pinv_norm
        noise = rng.standard_normal((10, 8))
        a_h = a_bar + noise * (h / frobenius_norm(noise))
        result = minimal_pseudoinverse(a_h, h)
        assert result.rank == 5

    def test_error_bound_random_pairs(self, rng):
        for _ in range(20):
            m = int(rng.integers(5, 12))
            n = int(rng.integers(5, 12))
            rank = int(rng.integers(1, min(m, n) + 1))
            a_bar = oracles.rank_matrix(rng, m, n, rank)
            ref = oracles.pinv(a_bar)
            pinv_norm = frobenius_norm(ref)
            h = 0.5 * rng.uniform(0.0, 1.0) / pinv_norm
            if h == 0.0:
                continue
            noise = rng.standard_normal((m, n))
            a_h = a_bar + noise * (h / frobenius_norm(noise))
            result = minimal_pseudoinverse(a_h, h)
            assert result.rank == rank
            bound = h * pinv_norm ** 2 / (1.0 - h * pinv_norm) ** 3
            assert frobenius_norm(result.pinv - ref) <= bound

    def test_convergence_as_budget_shrinks(self, rng):
        # geometric budget sequence: errors decrease monotonically to 0
        a_bar = oracles.rank_matrix(rng, 8, 7, 4)
        ref = oracles.pinv(a_bar)
        pinv_norm = frobenius_norm(ref)
        noise = rng.standard_normal((8, 7))
        noise /= frobenius_norm(noise)
        errors = []
        for exponent in range(2, 8):
            h = 0.25 ** exponent / pinv_norm
            result = minimal_pseudoinverse(a_bar + h * noise, h)
            errors.append(frobenius_norm(result.pinv - ref))
        assert all(b <= a * (1.0 + 1e-9) for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-3 * pinv_norm
