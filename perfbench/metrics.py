"""Summaries: latency percentiles and the per-layer table."""

import collections
import math
import statistics

from tracing import self_times

TAIL_BEYOND = 10   # samples a reported tail percentile must leave above it
TAIL_MAX = 90


def tail_percentile(n):
    """Highest whole percentile <= 90 with at least ten samples beyond it.

    Nearest-rank: the p-th percentile of n samples is the
    ceil(p * n / 100)-th smallest, so n - ceil(p * n / 100) lie beyond
    it.  From 100 samples on this is 90.  Returns None below 11 samples.
    """
    for p in range(TAIL_MAX, 0, -1):
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            return p
    return None


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def latency_summary(latencies_s):
    """p50 and tail latency in ms with the sample count and tail rank used.

    Below 11 samples the tail reported is the maximum, marked percentile
    100, so the metric always exists and the result file says what it is.
    """
    ms = [1e3 * t for t in latencies_s]
    p = tail_percentile(len(ms))
    return {
        "samples": len(ms),
        "p50_ms": statistics.median(ms),
        "tail_percentile": p if p is not None else 100,
        "tail_ms": nearest_rank(ms, p) if p is not None else max(ms),
    }


# ---------------------------------------------------------------------------
# per-layer table

# (metric, unit, span or counter, aggregate).  Aggregates over the traced
# operations: calls / ms (inclusive) / self_ms per operation, ms per call,
# MB/s over spans carrying a byte count, computed MB per operation; and
# over the set-up repetitions: median seconds per set-up.  The README
# names the end-to-end metric and workload each row should move.
LAYER_ROWS = (
    ("mpm.root.bracket_evals_per_op", "count", "mpm.root.bracket_evals", "counter"),
    ("mpm.root.bisect_evals_per_op", "count", "mpm.root.bisect_evals", "counter"),
    ("mpm.root.jump_frac", "fraction", None, "jump_frac"),
    ("mpm.solve_generalized_root.ms_per_op", "ms", "mpm.solve_generalized_root", "ms"),
    ("mpm.solve_generalized_root.self_ms_per_op", "ms", "mpm.solve_generalized_root", "self_ms"),
    ("mpmi.solve_filter_level.ms_per_op", "ms", "mpmi.solve_filter_level", "ms"),
    ("mpm.solve_level.ms_per_op", "ms", "mpm.solve_level", "ms"),
    ("kernels.discrepancy_head_sq.calls_per_op", "count", "kernels.discrepancy_head_sq", "calls"),
    ("kernels.discrepancy_head_sq.ms_per_op", "ms", "kernels.discrepancy_head_sq", "ms"),
    ("kernels.spectrum_distance_sq.calls_per_op", "count", "kernels.spectrum_distance_sq", "calls"),
    ("kernels.spectrum_distance_sq.ms_per_op", "ms", "kernels.spectrum_distance_sq", "ms"),
    ("kernels.filter_x.calls_per_op", "count", "kernels.filter_x", "calls"),
    ("kernels.quartic_roots.calls_per_op", "count", "kernels.quartic_roots", "calls"),
    ("kernels.poisson_kernel.s", "s", "kernels.poisson_kernel", "setup_s"),
    ("experiments.build_poisson.s", "s", "experiments.build_poisson", "setup_s"),
    ("linalg.svd.s", "s", "linalg.svd", "setup_s"),
    ("linalg.svd.ms_per_op", "ms", "linalg.svd", "ms"),
    ("linalg.project_rhs.calls_per_op", "count", "linalg.project_rhs", "calls"),
    ("linalg.project_rhs.ms_per_op", "ms", "linalg.project_rhs", "ms"),
    ("linalg.project_rhs.mb_per_op_computed", "MB", "linalg.project_rhs", "mb"),
    ("linalg.apply_filtered_pinv.ms_per_op", "ms", "linalg.apply_filtered_pinv", "ms"),
    ("linalg.assemble_filtered_pinv.ms_per_op", "ms", "linalg.assemble_filtered_pinv", "ms"),
    ("mpm.minimal_pseudoinverse.ms_per_op", "ms", "mpm.minimal_pseudoinverse", "ms"),
    ("baselines.discrepancy_alpha.ms_per_op", "ms", "baselines.discrepancy_alpha", "ms"),
    ("baselines.tsvd_rank_by_discrepancy.ms_per_op", "ms", "baselines.tsvd_rank_by_discrepancy", "ms"),
    ("baselines.tsvd_solve.ms_per_op", "ms", "baselines.tsvd_solve", "ms"),
    ("baselines.tikhonov_solve.ms_per_op", "ms", "baselines.tikhonov_solve", "ms"),
    ("baselines.morozov_solve.ms_per_op", "ms", "baselines.morozov_solve", "ms"),
    ("matio.read_matrix.csv.mb_per_s", "MB/s", ("matio.read_matrix", "csv"), "mb_per_s"),
    ("matio.read_matrix.mtx.mb_per_s", "MB/s", ("matio.read_matrix", "mtx"), "mb_per_s"),
    ("matio.read_matrix.ms_per_op", "ms", "matio.read_matrix", "ms"),
    ("matio.write_matrix.mb_per_s", "MB/s", ("matio.write_matrix", None), "mb_per_s"),
    ("matio.write_matrix.ms_per_op", "ms", "matio.write_matrix", "ms"),
    ("cli.solve.ms", "ms", "cli.solve", "ms_per_call"),
    ("cli.pinv.ms", "ms", "cli.pinv", "ms_per_call"),
    ("cli.svd-report.ms", "ms", "cli.svd-report", "ms_per_call"),
    ("experiments.run_experiment.self_ms_per_op", "ms", "experiments.run_experiment", "self_ms"),
)


def layer_table(tracer, n_ops, setup_reps):
    """Every LAYER_ROWS metric from the spans of operations tagged
    ``("op", i)`` and set-ups tagged ``("setup", r)``.  A layer the
    workload never reaches reads 0."""
    calls = collections.Counter()
    incl, excl, busy, setup = (collections.defaultdict(float) for _ in range(4))
    nbytes = collections.Counter()
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        name, start, end, _parent, op, attrs = span
        if op is None:
            continue
        if op[0] == "setup":
            setup[name, op[1]] += end - start
        elif op[0] == "op":
            calls[name] += 1
            incl[name] += end - start
            excl[name] += self_s
            if attrs:
                for key in {(name, attrs.get("format")), (name, None)}:
                    nbytes[key] += attrs["bytes"]
                    busy[key] += end - start

    counters = collections.Counter()
    for op, counts in tracer.counts.items():
        if op is not None and op[0] == "op":
            counters.update(counts)
    ops = max(n_ops, 1)

    out = {}
    for metric, unit, source, agg in LAYER_ROWS:
        if agg == "counter":
            value = counters.get(source, 0) / ops
        elif agg == "jump_frac":
            solves = counters.get("mpm.root.solves", 0)
            value = counters.get("mpm.root.jumps", 0) / solves if solves else 0.0
        elif agg == "calls":
            value = calls.get(source, 0) / ops
        elif agg == "ms":
            value = 1e3 * incl.get(source, 0.0) / ops
        elif agg == "self_ms":
            value = 1e3 * excl.get(source, 0.0) / ops
        elif agg == "ms_per_call":
            n = calls.get(source, 0)
            value = 1e3 * incl.get(source, 0.0) / n if n else 0.0
        elif agg == "mb":
            value = nbytes.get((source, None), 0) / 1e6 / ops
        elif agg == "mb_per_s":
            t = busy.get(source, 0.0)
            value = nbytes.get(source, 0) / 1e6 / t if t else 0.0
        elif agg == "setup_s":
            per_rep = [setup.get((source, r), 0.0) for r in range(setup_reps)]
            value = statistics.median(per_rep) if per_rep else 0.0
        else:  # pragma: no cover - table typo
            raise ValueError(f"unknown aggregate {agg!r}")
        out[metric] = {"value": value, "unit": unit}
    return out
