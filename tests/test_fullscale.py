"""Manual full-scale checks (1991 x 2001): spectrum shape and benchmark
magnitudes. Enable with MINPINV_FULL_SCALE=1; on one core the shared
factorization takes about 6 s and the harness sweep a few seconds.

The published per-cell numbers are single noise realizations, so these
are order-of-magnitude comparisons, not reproductions.
"""

import numpy as np
import pytest

from minpinv.experiments import ExperimentConfig, run_experiment

pytestmark = pytest.mark.fullscale


def within_factor(value, anchor, factor=10.0):
    return anchor / factor <= value <= anchor * factor


def test_spectrum_decays_across_many_decades(full_factors):
    sigma = full_factors.sigma
    assert np.all(np.diff(sigma) <= 0.0)
    assert sigma[0] / sigma[-1] > 1e18
    # roughly geometric decay through the usable block
    ratios = sigma[9:150] / sigma[10:151]
    assert np.all(ratios > 1.05) and np.all(ratios < 1.4)


def test_benchmark_magnitudes(full_problem, full_factors):
    config = ExperimentConfig(
        m=1991, n=2001,
        deltas=(0.005, 0.05), seeds=tuple(range(5)),
        methods=("mpmi", "tsvd", "tr"),
    )
    table = run_experiment(config, problem=full_problem, factors=full_factors)
    rows = {(r.method, r.delta): r for r in table.rows}
    for row in rows.values():
        assert row.failures == 0

    print("\nfull-scale medians over 5 seeds:")
    for (method, delta), row in sorted(rows.items()):
        print(f"  {method} delta={delta}: accuracy={row.accuracy:.4g} "
              f"cond={row.condition_number:.4g}")

    # reference magnitudes at delta=0.05: accuracy 0.0117, cond 10.353
    assert within_factor(rows[("mpmi", 0.05)].accuracy, 0.0117)
    assert within_factor(rows[("mpmi", 0.05)].condition_number, 10.353)
    assert within_factor(rows[("tsvd", 0.05)].condition_number, 15.53)
    # the quadratic-regularization cond is astronomically worse than the
    # filtered ones (reference column: 2.3e12..5.6e14); the exact value is
    # sensitive to the discrepancy-target convention, so only the scale
    # separation is asserted (measured here: ~2.4e10 at delta=0.005)
    assert rows[("tr", 0.005)].condition_number >= 1e9
    for delta in config.deltas:
        assert (rows[("tr", delta)].condition_number
                >= 1e7 * rows[("mpmi", delta)].condition_number)
