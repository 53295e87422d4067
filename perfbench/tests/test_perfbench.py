"""Tests of the benchmark's own helpers: percentiles, span self time, the
output checks, seeded workload generation and exact work counters.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import metrics
import run
import tracing
import workloads

ROOT = os.path.dirname(run.HERE)


# -- percentiles ---------------------------------------------------------------

@pytest.mark.parametrize("n, p", [(1000, 90), (100, 90), (99, 89), (50, 80),
                                  (11, 9), (10, None), (1, None)])
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    assert metrics.tail_percentile(n) == p


def test_latency_summary_counts_samples():
    summary = metrics.latency_summary([k / 1e3 for k in range(1, 101)])
    assert summary["samples"] == 100
    assert summary["tail_percentile"] == 90
    assert summary["tail_ms"] == pytest.approx(90.0)
    assert summary["p50_ms"] == pytest.approx(50.5)


def test_latency_summary_below_eleven_samples_reports_the_maximum():
    summary = metrics.latency_summary([0.003, 0.001, 0.002])
    assert summary["tail_percentile"] == 100
    assert summary["tail_ms"] == pytest.approx(3.0)


# -- self time -----------------------------------------------------------------

def span(name, start, end, parent):
    return (name, start, end, parent, ("op", 0), None)


def test_self_time_subtracts_children_once():
    spans = [
        span("a", 0.0, 10.0, -1),
        span("b", 1.0, 4.0, 0),
        span("d", 2.0, 3.0, 1),   # grandchild: counts against b, not a
        span("c", 5.0, 7.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_merges_overlapping_and_clips_children():
    spans = [
        span("a", 0.0, 10.0, -1),
        span("b", 2.0, 6.0, 0),
        span("c", 4.0, 8.0, 0),    # overlaps b: 2..8 covered once
        span("d", 9.0, 12.0, 0),   # runs past a: only 9..10 counts
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


# -- checks --------------------------------------------------------------------

def test_discrepancy_check_uses_solver_tolerance():
    u_sq, floor_sq, delta = 100.0, 1.0, 2.0
    target = delta * delta + floor_sq
    inside = (target + 0.5e-10 * u_sq) ** 0.5
    assert checks.discrepancy("tr", inside, delta, floor_sq, u_sq) == []
    assert checks.discrepancy("mpmi", inside, delta, floor_sq, u_sq)
    assert checks.discrepancy("tsvd", target ** 0.5, delta, floor_sq, u_sq) == []
    assert checks.discrepancy("tsvd", 1.001 * target ** 0.5, delta, floor_sq, u_sq)


def test_budget_and_residual_checks():
    assert checks.mpm_budget(4.0, 2.0) == []
    assert checks.mpm_budget(4.0 * (1 + 1e-9), 2.0)
    assert checks.residual_matches(1.0, 1.0 + 1e-12) == []
    assert checks.residual_matches(1.0, 1.0 + 1e-6)
    assert checks.relative_error_below_one(0.5) == []
    assert checks.relative_error_below_one(1.0)
    seen = {}
    assert checks.repeatable(seen, "k", (1.0,)) == []
    assert checks.repeatable(seen, "k", (1.0,)) == []
    assert checks.repeatable(seen, "k", (2.0,))


@pytest.fixture(scope="module")
def desk():
    wl = workloads.DeskFilter(seed=5, workdir=None)
    wl.setup()
    return wl


def first_of(wl, method):
    i = next(i for i in range(wl.block_len()) if wl.spec(i)[1][0] == method)
    spec = wl.spec(i)
    return spec, wl.call(spec)


def test_harness_check_rejects_residual_above_target(desk):
    spec, record = first_of(desk, "mpmi")
    assert desk.check(spec, record)[0] == []
    doctored = dataclasses.replace(record, residual=1.01 * record.residual)
    fresh = workloads.DeskFilter(seed=5, workdir=None)
    fresh.problem, fresh.factors = desk.problem, desk.factors
    assert any("residual^2" in f for f in fresh.check(spec, doctored)[0])


def test_harness_check_rejects_mpm_distance_above_budget(desk):
    spec, record = first_of(desk, "mpm")
    assert desk.check(spec, record)[0] == []
    fresh = workloads.DeskFilter(seed=5, workdir=None)
    fresh.problem, fresh.factors = desk.problem, desk.factors
    doctored = dataclasses.replace(record, parameter=4.0 * record.parameter)
    assert any("distance" in f for f in fresh.check(spec, doctored)[0])


def test_harness_check_flags_outputs_that_do_not_repeat(desk):
    spec, record = first_of(desk, "mpmi")
    desk.check(spec, record)
    other = dataclasses.replace(record, accuracy=record.accuracy * (1 + 1e-15))
    assert any("gave" in f for f in desk.check(spec, other)[0])


def test_cli_check_rejects_pinv_distance_above_budget(tmp_path):
    wl = workloads.CliFiles(seed=2, workdir=str(tmp_path))
    wl.setup()
    i = next(i for i in range(wl.block_len()) if wl.spec(i)[1][0] == "pinv")
    spec = wl.spec(i)
    code, out, err = wl.call(spec)
    assert wl.check(spec, (code, out, err))[0] == []
    report = json.loads(out)
    report["distance"] *= 1.001
    failures = wl.check(spec, (code, json.dumps(report), err))[0]
    assert any("budget" in f for f in failures)


def test_cli_check_rejects_misreported_residual(tmp_path):
    wl = workloads.CliFiles(seed=2, workdir=str(tmp_path))
    wl.setup()
    i = next(i for i in range(wl.block_len()) if wl.spec(i)[1][1] == "tsvd")
    spec = wl.spec(i)
    code, out, err = wl.call(spec)
    assert wl.check(spec, (code, out, err))[0] == []
    report = json.loads(out)
    report["residual"] *= 1 + 1e-6
    fresh = workloads.CliFiles(seed=2, workdir=str(tmp_path))
    assert any("recomputed" in f for f in fresh.check(spec, (code, json.dumps(report), err))[0])


# -- seeded workload generation ------------------------------------------------

@pytest.mark.parametrize("cls", [workloads.DeskFilter, workloads.LargeBaselines,
                                 workloads.CliFiles])
def test_workload_inputs_are_deterministic_per_seed(cls, tmp_path):
    a, b, c = (cls(seed, str(tmp_path)) for seed in (7, 7, 8))
    n = 3 * a.block_len()
    assert [a.spec(i) for i in range(n)] == [b.spec(i) for i in range(n)]
    assert [a.spec(i) for i in range(n)] != [c.spec(i) for i in range(n)]
    for block in range(3):
        kinds = [a.spec(block * a.block_len() + j)[1] for j in range(a.block_len())]
        assert sorted(map(repr, kinds)) == sorted(map(repr, a.kinds))
    if cls is workloads.CliFiles:
        assert all((x[1] == y[1]).all() for x, y in zip(a.rhs, b.rhs))
    else:
        assert a.noise_seeds == b.noise_seeds != c.noise_seeds


# -- tracing and exact counters ------------------------------------------------

def test_tracer_wraps_every_binding_and_restores_them():
    import minpinv.mpm
    import minpinv.mpmi

    original = minpinv.mpm.solve_generalized_root
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert minpinv.mpmi.solve_generalized_root is minpinv.mpm.solve_generalized_root
        assert minpinv.mpm.solve_generalized_root is not original
    finally:
        tracer.uninstall()
    assert minpinv.mpm.solve_generalized_root is original
    assert minpinv.mpmi.solve_generalized_root is original


def test_work_counters_repeat_exactly(desk):
    tracer = tracing.Tracer()
    phase = run.Phase(desk, tracer)
    tracer.install()
    try:
        for tag in ("op", "replay"):
            for i in range(2):
                phase.run_op(i, tag=tag)
    finally:
        tracer.uninstall()
    counters = tracer.op_counters()
    first = [counters[("op", i)] for i in range(2)]
    assert first == [counters[("replay", i)] for i in range(2)]
    assert all(c["mpm.root.solves"] == 1 for c in first)
    assert all(c["mpm.root.bracket_evals"] > 0 for c in first)


def test_layer_table_has_every_declared_metric(desk):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.setup_times(desk, 1, tracer)
        run.Phase(desk, tracer).run_op(0)
    finally:
        tracer.uninstall()
    table = metrics.layer_table(tracer, 1, 1)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    for name, value in table.items():
        assert declared[name] == value["unit"]
    assert {n for n in declared if not n.startswith("trace.")} == set(table)
    assert table["linalg.svd.s"]["value"] > 0
    assert table["kernels.filter_x.calls_per_op"]["value"] > 0


# -- the command ---------------------------------------------------------------

def test_benchmark_fails_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-filter",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_end_to_end_reports_every_declared_metric(desk):
    phase, table, detail = run.end_to_end(desk, seconds=1e-3)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    assert {name: m["unit"] for name, m in table.items()} == declared
    assert phase.attempted == desk.block_len()
    assert phase.failed == 0 and detail["failed_frac"] == 0.0
    assert all(m["value"] > 0 for m in table.values())
