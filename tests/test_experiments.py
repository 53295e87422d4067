"""Model problem construction, noise model, harness determinism."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from minpinv.errors import InputError
from minpinv.experiments import (
    ExperimentConfig,
    RunRecord,
    _aggregate,
    build_poisson,
    detail_json,
    parse_config,
    perturb_rhs,
    relative_error,
    run_experiment,
    table_csv,
)
from minpinv.linalg import spectrum_cond


class TestBuildPoisson:
    def test_entry_formula(self):
        problem = build_poisson(5, 7, 0.1)
        i, j = 2, 4
        d = problem.x_grid[i] - problem.y_grid[j]
        assert problem.matrix[i, j] == 1.0 / (d * d + 0.1 * 0.1)

    def test_diagonal_peak(self):
        # x_i == y_j gives exactly 1 / h0^2
        problem = build_poisson(5, 5, 0.1)
        assert problem.matrix[0, 0] == pytest.approx(100.0, rel=1e-15)

    def test_grids(self):
        problem = build_poisson(9, 11, 0.2)
        assert problem.x_grid[0] == -1.0 and problem.x_grid[-1] == 1.0
        assert problem.y_grid[0] == -1.0 and problem.y_grid[-1] == 1.0
        assert np.all(np.diff(problem.x_grid) > 0.0)
        assert np.all(np.diff(problem.y_grid) > 0.0)

    def test_truth_vanishes_at_endpoints(self):
        problem = build_poisson(6, 13, 0.1)
        assert problem.truth[0] == pytest.approx(0.0, abs=1e-14)
        assert problem.truth[-1] == pytest.approx(0.0, abs=1e-14)

    def test_rhs_is_exact_product(self):
        problem = build_poisson(8, 9, 0.15)
        np.testing.assert_array_equal(problem.exact_rhs, problem.matrix @ problem.truth)

    def test_rejects_bad_sizes(self):
        with pytest.raises(InputError):
            build_poisson(1, 5, 0.1)
        with pytest.raises(InputError):
            build_poisson(5, 5, 0.0)


class TestPerturbRhs:
    def test_exact_noise_magnitude(self, rng):
        u = rng.standard_normal(50) * 3.0
        noisy = perturb_rhs(u, 0.05, seed=3)
        ratio = np.linalg.norm(noisy - u) / np.linalg.norm(u)
        assert ratio == pytest.approx(0.05, abs=1e-14)

    def test_deterministic_per_seed(self, rng):
        u = rng.standard_normal(40)
        np.testing.assert_array_equal(
            perturb_rhs(u, 0.1, seed=7), perturb_rhs(u, 0.1, seed=7)
        )

    def test_seeds_decorrelated(self, rng):
        u = rng.standard_normal(400)
        noises = np.stack([
            perturb_rhs(u, 0.1, seed=s) - u for s in range(100)
        ])
        units = noises / np.linalg.norm(noises, axis=1, keepdims=True)
        cors = units @ units.T
        off = cors[~np.eye(100, dtype=bool)]
        assert np.max(np.abs(off)) < 0.25
        assert abs(np.mean(off)) < 0.01

    def test_range_validation(self, rng):
        u = rng.standard_normal(5)
        with pytest.raises(InputError):
            perturb_rhs(u, 0.0, seed=0)
        with pytest.raises(InputError):
            perturb_rhs(u, 1.0, seed=0)
        with pytest.raises(InputError):
            perturb_rhs(np.zeros(5), 0.1, seed=0)


class TestRelativeError:
    def test_examples(self, rng):
        z = rng.standard_normal(6)
        assert relative_error(z, z) == 0.0
        assert relative_error(np.zeros(6), z) == pytest.approx(1.0)
        assert relative_error(2.0 * z, z) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(InputError):
            relative_error(np.ones(3), np.zeros(3))


class TestParseConfig:
    def test_defaults(self):
        config = parse_config("")
        assert (config.m, config.n) == (199, 201)
        assert config.aggregation == "median"

    def test_explicit_values(self):
        text = """
        # comment line
        m = 30
        n = 31
        h0 = 0.2
        deltas = 0.01, 0.05
        seeds = 0:3, 7
        methods = mpmi, tsvd
        aggregation = mean
        curve_points = 64
        """
        config = parse_config(text)
        assert (config.m, config.n, config.h0) == (30, 31, 0.2)
        assert config.deltas == (0.01, 0.05)
        assert config.seeds == (0, 1, 2, 7)
        assert config.methods == ("mpmi", "tsvd")
        assert config.aggregation == "mean"
        assert config.curve_points == 64

    def test_scale_presets(self):
        assert parse_config("scale = full").m == 1991
        assert parse_config("scale = desk").m == 199
        assert parse_config("scale = full").n == 2001
        assert parse_config("scale = full\nm = 30").m == 30   # explicit m overrides
        # the CLI's --full-scale forces the full grid:
        # tests/test_cli.py::TestExperiment::test_full_scale_forces_the_grid

    def test_every_field_is_a_key(self):
        # parse_config takes its keys and converters from the dataclass
        config = ExperimentConfig(m=30, n=31, h0=0.2, deltas=(0.01, 0.3), seeds=(4, 2),
                                  methods=("tsvd", "mpm"), aggregation="mean",
                                  curve_points=3)
        text = "\n".join(
            f"{key} = {', '.join(map(str, v)) if isinstance(v, list) else v}"
            for key, v in config.to_dict().items())
        assert parse_config(text) == config

    @pytest.mark.parametrize("text", [
        "bogus = 1",
        "deltas = 1.5",
        "deltas = 0.1\naggregation = mode",
        "methods = mpmi, magic",
        "m = x",
        "scale = tiny",
        "seeds =",
    ])
    def test_rejects_bad_config(self, text):
        with pytest.raises(InputError):
            parse_config(text)

    @pytest.mark.parametrize("key, text", [
        ("deltas", "deltas = 0.1, 0.10"),
        ("seeds", "seeds = 0:2, 1"),
        ("methods", "methods = tsvd, mpmi, tsvd"),
    ])
    def test_rejects_repeated_values(self, key, text):
        # a repeat would run its cells again and pool them into one row
        with pytest.raises(InputError, match=f"repeated {key}"):
            parse_config(text)


class TestConfigChecksItself:
    @pytest.mark.parametrize("changes", [
        {"deltas": (0.1, 0.1)},
        {"seeds": (1, 1)},
        {"methods": ("tsvd", "tsvd")},
        {"m": 1},
        {"h0": 0.0},
        {"h0": float("nan")},
        {"deltas": ()},
        {"deltas": (1.5,)},
        {"seeds": ()},
        {"methods": ("magic",)},
        {"aggregation": "mode"},
        {"curve_points": -1},
    ])
    def test_invalid_config_never_exists(self, changes):
        # construction and dataclasses.replace both run the checks
        with pytest.raises(InputError, match="^config: "):
            ExperimentConfig(**changes)
        with pytest.raises(InputError, match="^config: "):
            replace(ExperimentConfig(), **changes)

    @pytest.mark.parametrize("key, value", [
        ("m", 40.5), ("n", "41"), ("m", True), ("curve_points", 2.0),
        ("seeds", (0.5,)), ("seeds", (1, False)), ("h0", "0.1"), ("h0", True),
        ("deltas", (0.1, "0.2")),
    ])
    def test_wrong_types_name_the_key(self, key, value):
        message = f"^config: {key} must be (integers|real numbers), got "
        with pytest.raises(InputError, match=message):
            ExperimentConfig(**{key: value})
        with pytest.raises(InputError, match=message):
            replace(ExperimentConfig(), **{key: value})

    def test_numpy_scalars_are_accepted(self):
        config = ExperimentConfig(m=np.int64(40), n=np.int32(41), h0=np.float64(0.2),
                                  deltas=(np.float32(0.05), 1 / 8), seeds=(np.int64(3),),
                                  curve_points=np.uint8(0))
        assert config.m == 40 and config.seeds == (3,)


SMALL = ExperimentConfig(
    m=40, n=41, deltas=(0.05, 0.1), seeds=(0, 1, 2),
    methods=("mpmi", "tsvd", "tr", "morozov", "mpm"),
)


@pytest.fixture(scope="module")
def small_table():
    return run_experiment(SMALL)


class TestRunExperiment:

    def test_every_cell_ran(self, small_table):
        assert len(small_table.records) == 2 * 3 * 5
        assert all(r.error is None for r in small_table.records)

    def test_rows_cover_method_delta_grid(self, small_table):
        keys = {(row.method, row.delta) for row in small_table.rows}
        assert keys == {(m, d) for m in SMALL.methods for d in SMALL.deltas}
        for row in small_table.rows:
            assert row.accuracy is not None and row.accuracy >= 0.0
            assert row.condition_number >= 1.0

    def test_determinism_bytes(self, small_table):
        again = run_experiment(SMALL)
        assert table_csv(small_table) == table_csv(again)
        assert detail_json(small_table) == detail_json(again)

    def test_mean_aggregation(self):
        config = ExperimentConfig(
            m=40, n=41, deltas=(0.05,), seeds=(0, 1), methods=("tsvd",),
            aggregation="mean",
        )
        table = run_experiment(config)
        accs = [r.accuracy for r in table.records]
        assert table.rows[0].accuracy == pytest.approx(np.mean(accs))

    def test_curves_attached_when_requested(self):
        config = ExperimentConfig(
            m=40, n=41, deltas=(0.05,), seeds=(0,), methods=("mpmi", "tsvd"),
            curve_points=33,
        )
        table = run_experiment(config)
        mpmi_records = [r for r in table.records if r.method == "mpmi"]
        assert all(r.curve is not None for r in mpmi_records)
        assert all(len(r.curve.levels) == 33 for r in mpmi_records)
        tsvd_records = [r for r in table.records if r.method == "tsvd"]
        assert all(r.curve is None for r in tsvd_records)


class TestOutputSchemas:
    RUN_KEYS = {"method", "delta", "seed", "accuracy", "condition_number",
                "parameter", "effective_rank", "jump_root", "residual", "error"}

    def test_config_keys(self):
        out = ExperimentConfig().to_dict()
        assert set(out) == {"m", "n", "h0", "deltas", "seeds", "methods",
                            "aggregation", "curve_points"}
        for key in ("deltas", "seeds", "methods"):
            assert isinstance(out[key], list)
        assert out["deltas"] == list(ExperimentConfig.deltas)

    def test_detail_run_keys(self):
        # on this 2x4 system the seed-7 noise at delta 0.9 pushes the
        # discrepancy target past ||u||^2: one run succeeds, one fails
        config = ExperimentConfig(m=2, n=4, deltas=(0.9,), seeds=(0, 7),
                                  methods=("mpmi",), curve_points=5)
        table = run_experiment(config)
        assert table.records[0].curve is not None   # kept out of the JSON
        payload = json.loads(detail_json(table))
        assert set(payload) == {"config", "runs"}
        ok, failed = payload["runs"]
        assert set(ok) == set(failed) == self.RUN_KEYS
        assert ok["error"] is None and ok["accuracy"] is not None
        assert failed["error"] == "noise dominates signal"
        assert failed["jump_root"] is False
        assert all(failed[key] is None for key in self.RUN_KEYS
                   - {"method", "delta", "seed", "jump_root", "error"})


@st.composite
def record_sets(draw):
    """Records over two methods and two noise levels, with failed runs and
    few distinct values (so medians meet ties), in a shuffled order."""
    values = st.sampled_from([0.1, 0.3, 1.0 / 3.0, 2.5, 1e-300, 7e12])
    records = []
    for method in ("mpmi", "tr"):
        for delta in (0.05, 0.1):
            for seed in range(draw(st.integers(min_value=0, max_value=12))):
                if draw(st.booleans()) and draw(st.booleans()):
                    records.append(RunRecord(method, delta, seed, None, None, None,
                                             None, False, None, "noise dominates signal"))
                else:
                    records.append(RunRecord(
                        method, delta, seed, draw(values), draw(values), draw(values),
                        3, draw(st.booleans()), draw(values), None))
    order = draw(st.permutations(range(len(records))))
    return tuple(records[i] for i in order)


@given(record_sets(), st.sampled_from(["median", "mean"]))
@settings(max_examples=150, deadline=None)
def test_aggregate_gives_numpys_bits(records, aggregation):
    config = ExperimentConfig(deltas=(0.05, 0.1), methods=("mpmi", "tr"),
                              aggregation=aggregation)
    ours = _aggregate(config, records)
    assert repr(ours) == repr(oracles.aggregate_per_cell(config, records))


@pytest.fixture(scope="module")
def desk_table(desk_problem, desk_factors):
    config = ExperimentConfig(methods=("mpmi",), seeds=tuple(range(20)))
    return run_experiment(config, problem=desk_problem, factors=desk_factors)


class TestDeskInvariants:
    """Structural facts on the desk-scale system (shared factorization)."""

    def test_jump_roots_occur(self, desk_table):
        jumps = [r.jump_root for r in desk_table.records if r.error is None]
        assert any(jumps)

    def test_condition_never_beyond_original(self, desk_table, desk_factors):
        raw = spectrum_cond(desk_factors.sigma[: desk_factors.rank])
        for record in desk_table.records:
            if record.error is None:
                assert record.condition_number <= raw * (1.0 + 1e-12)

    def test_condition_capped_by_inflation_bound(self, desk_table, desk_factors):
        sigma = desk_factors.sigma
        for record in desk_table.records:
            if record.error is None:
                cap = 1.5 * sigma[0] / sigma[record.effective_rank - 1]
                assert record.condition_number <= cap * (1.0 + 1e-12)

    def test_accuracy_improves_as_noise_shrinks(self, desk_problem, desk_factors):
        config = ExperimentConfig(
            deltas=(0.1, 0.01, 0.001), seeds=tuple(range(5)), methods=("mpmi",),
        )
        table = run_experiment(config, problem=desk_problem, factors=desk_factors)
        by_delta = {row.delta: row.accuracy for row in table.rows}
        assert by_delta[0.1] > by_delta[0.01] > by_delta[0.001]

    def test_failures_recorded_not_raised(self, desk_problem, desk_factors):
        # delta so large that the discrepancy target can exceed ||u||^2
        # for some seeds; cells must fail soft
        config = ExperimentConfig(
            deltas=(0.75,), seeds=(0, 1, 2, 3), methods=("mpmi",),
        )
        table = run_experiment(config, problem=desk_problem, factors=desk_factors)
        assert len(table.records) == 4
        for record in table.records:
            assert record.error is None or record.error == "noise dominates signal"
