"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 8 is a
manual full-scale gate (set MINPINV_FULL_SCALE=1); it factorizes the
1991x2001 system and takes a few minutes.
"""

import time

import numpy as np
import pytest

import oracles
from minpinv import _kernels
from minpinv.baselines import solve, tsvd_rank_by_matrix_error
from minpinv.errors import SolverError
from minpinv.experiments import (
    ExperimentConfig,
    detail_json,
    perturb_rhs,
    run_experiment,
    table_csv,
)
from minpinv.linalg import (
    assemble_filtered_pinv,
    frobenius_norm,
    spectrum_cond,
    svd,
)
from minpinv.mpm import QUARTIC_MAX, minimal_pseudoinverse


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_quartic_kernel():
    rng = np.random.default_rng(1)
    t = rng.uniform(0.0, QUARTIC_MAX, 10_000)
    _kernels.quartic_excess(t[:8])  # warm-up outside the timed region
    start = time.perf_counter()
    x = 1.0 + _kernels.quartic_excess(t)
    elapsed = time.perf_counter() - start
    residual = float(np.max(np.abs(x ** 4 - x ** 3 - t)))
    ends = 1.0 + _kernels.quartic_excess(np.array([0.0, QUARTIC_MAX]))
    end_err = max(abs(ends[0] - 1.0), abs(ends[1] - 1.5))
    ok = residual <= 1e-13 and end_err <= 1e-14 and elapsed < 1.0
    assert report(
        1, ok,
        f"max|x^4-x^3-t|={residual:.2e} (<=1e-13), endpoint error "
        f"{end_err:.1e} (<=1e-14), {elapsed * 1e3:.1f} ms for 1e4 roots (<1 s)",
    )
    assert residual <= 1e-13
    assert end_err <= 1e-14
    assert elapsed < 1.0


def test_criterion_2_moore_penrose_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 31))
        n = int(rng.integers(2, 21))
        rank = int(rng.integers(1, min(m, n) + 1))
        a = oracles.rank_matrix(rng, m, n, rank)
        factors = svd(a)
        filtered = np.where(factors.sigma > factors.rank_tolerance,
                            factors.sigma, 0.0)
        candidate = assemble_filtered_pinv(factors, filtered)
        worst = max(worst, oracles.moore_penrose_check(a, candidate).max_residual())
    ok = worst <= 1e-10
    assert report(2, ok, f"100 random matrices, worst residual {worst:.2e} (<=1e-10)")
    assert worst <= 1e-10


def test_criterion_3_perturbed_pinv_rank_and_bound():
    rng = np.random.default_rng(3)
    failures = 0
    worst_ratio = 0.0
    for _ in range(50):
        m = int(rng.integers(4, 16))
        n = int(rng.integers(4, 16))
        rank = int(rng.integers(1, min(m, n) + 1))
        a_bar = oracles.rank_matrix(rng, m, n, rank)
        ref = oracles.pinv(a_bar)
        pinv_norm = frobenius_norm(ref)
        h = 0.5 / pinv_norm * float(rng.uniform(0.0, 1.0))
        if h == 0.0:
            continue
        noise = rng.standard_normal((m, n))
        a_h = a_bar + noise * (h / frobenius_norm(noise))
        result = minimal_pseudoinverse(a_h, h)
        bound = h * pinv_norm ** 2 / (1.0 - h * pinv_norm) ** 3
        err = frobenius_norm(result.pinv - ref)
        worst_ratio = max(worst_ratio, err / bound)
        if result.rank != rank or err > bound:
            failures += 1
    ok = failures == 0
    assert report(
        3, ok,
        f"50 perturbation pairs: {failures} failures, "
        f"worst error/bound ratio {worst_ratio:.3f}",
    )
    assert failures == 0


def test_criterion_4_discrepancy_structure(desk_problem, desk_factors):
    rng_seed = 4
    norm_rhs = float(np.linalg.norm(desk_problem.exact_rhs))
    u = perturb_rhs(desk_problem.exact_rhs, 0.05, seed=rng_seed)
    quartic = desk_factors.quartic
    coeffs = desk_factors.project_rhs(u)
    floor_sq = coeffs[-1] ** 2
    u_sq = float(u @ u)

    top = float(quartic.breaks[0])
    levels = np.linspace(0.0, 1.05 * top, 10_000)
    residual_sq = quartic.residual_sq(coeffs)[0]
    values = np.array([residual_sq(float(level)) for level in levels])

    nondecreasing = bool(np.all(np.diff(values) >= -1e-10 * u_sq))
    starts_at_floor = abs(values[0] - floor_sq) <= 1e-12 * max(floor_sq, u_sq)
    plateau = bool(np.all(
        np.abs(values[levels > top] - u_sq) <= 1e-12 * u_sq
    ))

    sandwich_ok = True
    for delta in (0.005, 0.01, 0.05, 0.1, 0.2, 0.3):
        for seed in range(5):
            u_d = perturb_rhs(desk_problem.exact_rhs, delta, seed=seed)
            delta_abs = delta * norm_rhs
            c = desk_factors.project_rhs(u_d)
            target = delta_abs ** 2 + c[-1] ** 2
            level = solve(desk_factors, u_d, "mpmi", delta_abs=delta_abs).parameter
            residual_sq = quartic.residual_sq(c)[0]
            left = residual_sq(level)
            right = residual_sq(np.nextafter(level, np.inf))
            uu = float(u_d @ u_d)
            if left > target + 1e-9 * uu or right < target - 1e-9 * uu:
                sandwich_ok = False
    ok = nondecreasing and starts_at_floor and plateau and sandwich_ok
    assert report(
        4, ok,
        f"1e4-point scan: nondecreasing={nondecreasing}, starts at floor="
        f"{starts_at_floor}, plateau={plateau}, generalized-root sandwich="
        f"{sandwich_ok}",
    )
    assert nondecreasing and starts_at_floor and plateau and sandwich_ok


def test_criterion_5_convergence_with_noise():
    rng = np.random.default_rng(5)
    a = oracles.rank_matrix(rng, 20, 15, 10)
    factors = svd(a)
    truth = oracles.pinv(a) @ (a @ rng.standard_normal(15))
    u_exact = a @ truth
    norm_u = float(np.linalg.norm(u_exact))
    direction = rng.standard_normal(20)
    direction /= np.linalg.norm(direction)
    errors = []
    for delta_rel in (1e-2, 1e-4, 1e-6):
        u = u_exact + delta_rel * norm_u * direction
        solution = solve(factors, u, "mpmi", delta_abs=delta_rel * norm_u).solution
        errors.append(float(np.linalg.norm(solution - truth)
                            / np.linalg.norm(truth)))
    decreasing = errors[0] > errors[1] > errors[2]
    small = errors[2] < 1e-3
    ok = decreasing and small
    assert report(
        5, ok,
        "relative errors at 1e-2/1e-4/1e-6: "
        + ", ".join(f"{e:.2e}" for e in errors)
        + f" (strictly decreasing={decreasing}, final <1e-3={small})",
    )
    assert decreasing and small


def test_criterion_6_condition_improvement(desk_problem, desk_factors):
    norm_rhs = float(np.linalg.norm(desk_problem.exact_rhs))
    raw_cond = spectrum_cond(desk_factors.sigma[: desk_factors.rank])
    checked = 0
    jump_checked = 0
    ok = True

    def check(factors, report_obj):
        nonlocal checked, jump_checked, ok
        checked += 1
        raw = spectrum_cond(factors.sigma[: factors.rank])
        if report_obj.condition_number > raw * (1 + 1e-12):
            ok = False
        if report_obj.jump_root:
            jump_checked += 1
            quartic = factors.quartic
            x = quartic.x_values(report_obj.parameter)
            r = report_obj.effective_rank
            if x[r - 1] != 1.5:
                ok = False
            expected = (2.0 / 3.0) * factors.sigma[0] * x[0] / factors.sigma[r - 1]
            if abs(report_obj.condition_number - expected) > 1e-12 * expected:
                ok = False

    # desk-scale solves across the noise grid
    for delta in (0.005, 0.01, 0.05, 0.1, 0.2, 0.3):
        for seed in range(10):
            u = perturb_rhs(desk_problem.exact_rhs, delta, seed=seed)
            check(desk_factors,
                  solve(desk_factors, u, "mpmi", delta_abs=delta * norm_rhs))
    assert raw_cond > 1e10  # the desk system really is ill-conditioned

    # forced jump roots on small systems
    f1 = svd(np.diag([1.0]))
    check(f1, solve(f1, np.array([2.0]), "mpmi", delta_abs=1.0))
    f2 = svd(np.diag([4.0, 2.0, 1.0]))
    rng = np.random.default_rng(6)
    for _ in range(40):
        u = rng.standard_normal(3) * 4.0
        floor_sq = f2.project_rhs(u)[-1] ** 2
        delta_sq = rng.uniform(0.05, 0.95) * (float(u @ u) - floor_sq)
        if delta_sq <= 0.0:
            continue
        try:
            check(f2, solve(f2, u, "mpmi", delta_abs=float(np.sqrt(delta_sq))))
        except SolverError:
            pass
    assert jump_checked > 0
    assert report(
        6, ok,
        f"{checked} solves: cond <= cond(A) everywhere; {jump_checked} jump "
        f"roots with x_r = 3/2 exactly and the 2/3 ratio identity at 1e-12",
    )
    assert ok


def test_criterion_7_desk_scale_ordering():
    start = time.perf_counter()
    config = ExperimentConfig(
        deltas=(0.01, 0.05, 0.1),
        seeds=tuple(range(20)),
        methods=("mpmi", "tsvd", "tr"),
    )
    table = run_experiment(config)
    elapsed = time.perf_counter() - start

    med = {(r.method, r.delta): r for r in table.rows}
    lines = []
    overall = True
    for delta in config.deltas:
        mpmi_row = med[("mpmi", delta)]
        tsvd_row = med[("tsvd", delta)]
        tr_row = med[("tr", delta)]
        acc_vs_tsvd = mpmi_row.accuracy <= tsvd_row.accuracy
        acc_vs_tr = mpmi_row.accuracy <= tr_row.accuracy
        cond_vs_tsvd = mpmi_row.condition_number < tsvd_row.condition_number
        cond_tsvd_tr = (
            tsvd_row.condition_number * 100.0 <= tr_row.condition_number
        )
        overall = overall and acc_vs_tsvd and acc_vs_tr and cond_vs_tsvd and cond_tsvd_tr
        lines.append(
            f"delta={delta}: acc mpmi/tsvd/tr = {mpmi_row.accuracy:.4f}/"
            f"{tsvd_row.accuracy:.4f}/{tr_row.accuracy:.4f} "
            f"[mpmi<=tsvd:{acc_vs_tsvd}, mpmi<=tr:{acc_vs_tr}]; "
            f"cond = {mpmi_row.condition_number:.3g}/"
            f"{tsvd_row.condition_number:.3g}/{tr_row.condition_number:.3g} "
            f"[mpmi<tsvd:{cond_vs_tsvd}, tsvd<<tr:{cond_tsvd_tr}]"
        )
    in_time = elapsed < 60.0
    detail = (f"medians over 20 seeds, {elapsed:.1f} s (<60 s: {in_time}); "
              + " | ".join(lines))
    assert report(7, overall and in_time, detail)
    assert in_time
    assert overall, (
        "desk-scale ordering failed; see the printed medians. Known issue: "
        "at matched discrepancy targets the inflation filter always retains "
        "at least as many indices as the truncation rule, so on this "
        "problem its median accuracy at delta>=0.05 and its condition "
        "number exceed the TSVD baseline."
    )


@pytest.mark.fullscale
def test_criterion_8_full_scale_anchors(full_factors):
    factors = full_factors
    ratio = float(factors.sigma[0] / factors.sigma[-1])
    anchor1 = 3.37e19
    ok1 = anchor1 / 10.0 <= ratio <= anchor1 * 10.0

    kappa = tsvd_rank_by_matrix_error(factors.sigma, 1e-10)
    nu_trunc = float(factors.sigma[0] / factors.sigma[kappa - 1])
    anchor2 = 2.48e9
    ok2 = anchor2 / 10.0 <= nu_trunc <= anchor2 * 10.0
    assert report(
        8, ok1 and ok2,
        f"sigma_1/sigma_M = {ratio:.3g} vs {anchor1:.3g} (within 10x: {ok1}); "
        f"truncated cond at budget 1e-10 = {nu_trunc:.3g} vs {anchor2:.3g} "
        f"(within 10x: {ok2})",
    )
    assert ok1
    assert ok2


def test_criterion_9_determinism():
    config = ExperimentConfig(
        deltas=(0.05, 0.1), seeds=tuple(range(5)), methods=("mpmi", "tsvd", "tr"),
    )
    first = run_experiment(config)
    second = run_experiment(config)
    same_csv = table_csv(first) == table_csv(second)
    same_json = detail_json(first) == detail_json(second)
    ok = same_csv and same_json
    assert report(
        9, ok,
        f"two desk-scale runs: identical CSV={same_csv}, identical JSON={same_json}",
    )
    assert ok
