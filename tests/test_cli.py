"""End-to-end CLI behaviour: flags, files, exit codes, byte determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from minpinv import cli
from minpinv.baselines import METHODS, solve
from minpinv.cli import main
from minpinv.experiments import ExperimentConfig, build_poisson, perturb_rhs, run_experiment
from minpinv.linalg import frobenius_norm, spectrum_cond, svd
from minpinv.matio import load_matrix_csv, read_matrix, write_matrix, write_vector
from minpinv.mpm import spectrum_distance_sq


@pytest.fixture
def system_files(tmp_path, rng):
    a = rng.standard_normal((3, 3)) + 6.0 * np.eye(3)
    u = rng.standard_normal(3)
    matrix_path = tmp_path / "a.csv"
    rhs_path = tmp_path / "u.csv"
    write_matrix(matrix_path, a)
    write_vector(rhs_path, u)
    return a, u, str(matrix_path), str(rhs_path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_mpmi_matches_direct_solve(self, system_files, capsys):
        a, u, matrix_path, rhs_path = system_files
        code, out, _ = run_cli(
            capsys, "solve", "--matrix", matrix_path, "--rhs", rhs_path,
            "--method", "mpmi", "--delta-rel", "1e-10",
        )
        assert code == 0
        report = json.loads(out)
        direct = np.linalg.solve(a, u)
        assert np.linalg.norm(np.array(report["solution"]) - direct) <= 1e-6
        assert report["method"] == "mpmi"
        assert report["jump_root"] in (False, True)

    def test_tsvd_full_rank_matches_pinv(self, system_files, capsys):
        a, u, matrix_path, rhs_path = system_files
        rank = svd(a).rank
        code, out, _ = run_cli(
            capsys, "solve", "--matrix", matrix_path, "--rhs", rhs_path,
            "--method", "tsvd", "--rank", str(rank),
        )
        assert code == 0
        report = json.loads(out)
        expected = np.linalg.pinv(a) @ u
        np.testing.assert_allclose(report["solution"], expected, atol=1e-9)

    def test_tr_with_alpha(self, system_files, capsys):
        _, _, matrix_path, rhs_path = system_files
        code, out, _ = run_cli(
            capsys, "solve", "--matrix", matrix_path, "--rhs", rhs_path,
            "--method", "tr", "--alpha", "0.5",
        )
        assert code == 0
        assert json.loads(out)["parameter"] == 0.5

    def test_mpm_requires_h(self, system_files, capsys):
        _, _, matrix_path, rhs_path = system_files
        code, _, err = run_cli(
            capsys, "solve", "--matrix", matrix_path, "--rhs", rhs_path,
            "--method", "mpm", "--delta-rel", "0.1",
        )
        assert code == 2
        assert "error:" in err

    def test_mpm_with_h(self, system_files, capsys):
        a, u, matrix_path, rhs_path = system_files
        h = 0.2 * float(np.linalg.norm(a))
        code, out, _ = run_cli(
            capsys, "solve", "--matrix", matrix_path, "--rhs", rhs_path,
            "--method", "mpm", "--h", repr(h),
        )
        assert code == 0
        report = json.loads(out)
        z = np.array(report["solution"])
        assert report["residual"] == pytest.approx(
            float(np.linalg.norm(a @ z - u)), rel=1e-9)
        # the level root is found to within 1e-12 of the squared budget
        distance_sq = spectrum_distance_sq(report["parameter"], svd(a).sigma)
        assert distance_sq <= h * h * (1 + 1e-12)
        assert report["residual_floor"] <= 1e-12 * float(np.linalg.norm(u))

    def test_exactly_one_parameter_flag(self, system_files, capsys):
        _, _, matrix_path, rhs_path = system_files
        code, _, err = run_cli(
            capsys, "solve", "--matrix", matrix_path, "--rhs", rhs_path,
            "--method", "mpmi", "--delta-rel", "0.1", "--alpha", "1.0",
        )
        assert code == 2
        code, _, err = run_cli(
            capsys, "solve", "--matrix", matrix_path, "--rhs", rhs_path,
            "--method", "mpmi",
        )
        assert code == 2

    @pytest.mark.parametrize("flags, message", [
        (("--method", "mpm", "--delta-rel", "0.05"),
         "method mpm does not accept --delta-rel (allowed: ['--h'])"),
        (("--method", "mpmi", "--rank", "2"),
         "method mpmi does not accept --rank (allowed: ['--delta-rel', '--delta-abs'])"),
        (("--method", "tsvd", "--h", "0.1"),
         "method tsvd does not accept --h "
         "(allowed: ['--delta-rel', '--delta-abs', '--rank'])"),
        (("--method", "tsvd", "--rank", "2", "--h", "0.1"),
         "exactly one parameter required, got ['--rank', '--h']"),
    ], ids=["mpm-delta-rel", "mpmi-rank", "tsvd-h", "tsvd-rank-h"])
    def test_parameter_errors_name_flags(self, system_files, capsys, flags, message):
        # solve checks the parameters; the CLI names them as the flags typed
        _, _, matrix_path, rhs_path = system_files
        code, out, err = run_cli(
            capsys, "solve", "--matrix", matrix_path, "--rhs", rhs_path, *flags,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flags", [
        ("--method", "tsvd", "--delta-abs", "nan"),
        ("--method", "mpmi", "--delta-rel", "nan"),
        ("--method", "tr", "--alpha", "nan"),
        ("--method", "mpm", "--h", "nan"),
    ])
    def test_nan_parameter_exit_2(self, system_files, capsys, flags):
        _, _, matrix_path, rhs_path = system_files
        code, out, err = run_cli(
            capsys, "solve", "--matrix", matrix_path, "--rhs", rhs_path, *flags,
        )
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_parse_error_exit_2(self, tmp_path, system_files, capsys):
        _, _, _, rhs_path = system_files
        bad = tmp_path / "bad.csv"
        bad.write_text("rows,cols\n2,2\n1,2\n")
        code, _, err = run_cli(
            capsys, "solve", "--matrix", str(bad), "--rhs", rhs_path,
            "--method", "mpmi", "--delta-rel", "0.1",
        )
        assert code == 2
        assert "error:" in err

    def test_solver_error_exit_3(self, system_files, capsys):
        _, u, matrix_path, rhs_path = system_files
        huge = 10.0 * float(np.linalg.norm(u))
        code, _, err = run_cli(
            capsys, "solve", "--matrix", matrix_path, "--rhs", rhs_path,
            "--method", "mpmi", "--delta-abs", str(huge),
        )
        assert code == 3
        assert "noise dominates signal" in err

    def test_overflowing_spectrum_exit_3(self, system_files, capsys):
        # the report would carry a NaN condition number, which is not JSON
        _, _, matrix_path, rhs_path = system_files
        with np.errstate(over="ignore"):
            code, out, err = run_cli(
                capsys, "solve", "--matrix", matrix_path, "--rhs", rhs_path,
                "--method", "morozov", "--alpha", "1e200",
            )
        assert code == 3
        assert out == ""
        assert "spectrum overflow" in err

    def test_overflowing_spectrum_writes_only_the_error_line(self, system_files):
        # the numpy overflow inside the spectrum is the CLI's to report, once
        _, _, matrix_path, rhs_path = system_files
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "minpinv.cli", "solve", "--matrix", matrix_path,
             "--rhs", rhs_path, "--method", "morozov", "--alpha", "1e200"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default"))
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr == "error: spectrum overflow: morozov at parameter 1e+200\n"

    def test_desk_scale_report_matches_library(self, tmp_path, desk_problem,
                                               desk_factors, capsys):
        from minpinv.experiments import perturb_rhs

        u = perturb_rhs(desk_problem.exact_rhs, 0.05, seed=1)
        matrix_path = tmp_path / "desk.csv"
        rhs_path = tmp_path / "u.csv"
        write_matrix(matrix_path, desk_problem.matrix)
        write_vector(rhs_path, u)
        code, out, _ = run_cli(
            capsys, "solve", "--matrix", str(matrix_path), "--rhs", str(rhs_path),
            "--method", "mpmi", "--delta-rel", "0.05",
        )
        assert code == 0
        report = json.loads(out)
        # the CLI scales delta by the noisy rhs norm (exact one unknown)
        expected = solve(desk_factors, u, "mpmi",
                         delta_abs=0.05 * float(np.linalg.norm(u)))
        assert report["parameter"] == pytest.approx(expected.parameter, rel=1e-12)
        assert report["effective_rank"] == expected.effective_rank
        assert report["condition_number"] == pytest.approx(
            expected.condition_number, rel=1e-12)
        assert report["jump_root"] == expected.jump_root
        np.testing.assert_allclose(
            report["solution"], expected.solution, atol=1e-10)

    def test_large_solution_goes_to_sidecar(self, system_files, tmp_path,
                                            monkeypatch, capsys):
        import minpinv.cli as cli_module

        monkeypatch.setattr(cli_module, "INLINE_SOLUTION_LIMIT", 2)
        _, _, matrix_path, rhs_path = system_files
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "solve", "--matrix", matrix_path, "--rhs", rhs_path,
            "--method", "mpmi", "--delta-rel", "1e-8", "--out", str(out_path),
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert "solution" not in report
        sidecar = report["solution_path"]
        assert sidecar.endswith(".solution.csv")
        assert len(np.atleast_1d(load_matrix_csv(
            open(sidecar).read())[:, 0])) == 3

    def test_out_file_and_mm_input(self, tmp_path, rng, capsys):
        a = rng.standard_normal((4, 4)) + 5.0 * np.eye(4)
        u = rng.standard_normal(4)
        matrix_path = tmp_path / "a.mtx"
        rhs_path = tmp_path / "u.csv"
        out_path = tmp_path / "report.json"
        write_matrix(matrix_path, a)
        write_vector(rhs_path, u)
        code, out, _ = run_cli(
            capsys, "solve", "--matrix", str(matrix_path), "--rhs", str(rhs_path),
            "--method", "morozov", "--alpha", "1e-6", "--out", str(out_path),
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["method"] == "morozov"
        assert len(report["solution"]) == 4


class TestOneSolvePath:
    def test_cli_report_equals_harness_record(self, tmp_path, capsys):
        # the CLI and the harness dispatch through the same solve, so with
        # the same matrix bits, right side and noise bound every reported
        # number is bit-equal
        delta, seed = 0.05, 3
        config = ExperimentConfig(m=24, n=26, deltas=(delta,), seeds=(seed,),
                                  methods=tuple(METHODS))
        problem = build_poisson(config.m, config.n, config.h0)
        records = run_experiment(config, problem=problem).records
        u = perturb_rhs(problem.exact_rhs, delta, seed)
        delta_abs = delta * float(np.linalg.norm(problem.exact_rhs))
        write_matrix(tmp_path / "a.csv", problem.matrix)
        write_vector(tmp_path / "u.csv", u)
        assert [r.method for r in records] == list(METHODS)
        for record in records:
            assert record.error is None
            flag = "--h" if record.method == "mpm" else "--delta-abs"
            code, out, _ = run_cli(
                capsys, "solve", "--matrix", str(tmp_path / "a.csv"),
                "--rhs", str(tmp_path / "u.csv"), "--method", record.method,
                flag, repr(delta_abs),
            )
            assert code == 0
            report = json.loads(out)
            assert float(report["parameter"]) == record.parameter
            assert report["effective_rank"] == record.effective_rank
            assert report["jump_root"] == record.jump_root
            assert report["condition_number"] == record.condition_number
            assert report["residual"] == record.residual


class TestPinv:
    def test_identity_tiny_budget(self, tmp_path, capsys):
        matrix_path = tmp_path / "eye.csv"
        write_matrix(matrix_path, np.eye(3))
        code, out, err = run_cli(capsys, "pinv", "--matrix", str(matrix_path),
                                 "--h", "1e-10")
        assert code == 0
        pinv = load_matrix_csv(out)
        np.testing.assert_allclose(pinv, np.eye(3), atol=1e-8)
        report = json.loads(err)
        assert report["rank"] == 3
        assert report["distance"] <= 1e-10 + 1e-12

    def test_forced_jump_scalar(self, tmp_path, capsys):
        matrix_path = tmp_path / "one.csv"
        write_matrix(matrix_path, np.array([[1.0]]))
        code, out, err = run_cli(capsys, "pinv", "--matrix", str(matrix_path),
                                 "--h", "0.8")
        assert code == 0
        np.testing.assert_allclose(load_matrix_csv(out), [[2.0 / 3.0]], atol=1e-15)
        assert json.loads(err)["jump_root"] is True

    def test_distance_within_budget_random(self, tmp_path, rng, capsys):
        matrix_path = tmp_path / "r.csv"
        a = rng.standard_normal((6, 5))
        write_matrix(matrix_path, a)
        budget = 0.3 * float(np.linalg.norm(a))
        code, _, err = run_cli(capsys, "pinv", "--matrix", str(matrix_path),
                               "--h", str(budget))
        assert code == 0
        assert json.loads(err)["distance"] <= budget * (1.0 + 1e-10)

    def test_emit_matrix(self, tmp_path, rng, capsys):
        matrix_path = tmp_path / "r.csv"
        out_path = tmp_path / "pinv.csv"
        a = rng.standard_normal((5, 4))
        write_matrix(matrix_path, a)
        code, out, _ = run_cli(
            capsys, "pinv", "--matrix", str(matrix_path), "--h", "0.5",
            "--out", str(out_path), "--emit-matrix",
        )
        assert code == 0
        assert json.loads(out)["rank"] >= 1
        assert (tmp_path / "pinv.matrix.csv").exists()
        filtered = read_matrix(tmp_path / "pinv.matrix.csv")
        assert np.linalg.norm(filtered - a) <= 0.5 * (1.0 + 1e-10)

    @pytest.mark.parametrize("diagonal, h", [
        ((3.0, 2.0, 1.0, 0.5, 0.1), 0.2),   # interior root, one index truncated
        ((1.0,), 0.8),                      # the level lands on a breakpoint
    ], ids=["interior", "jump"])
    def test_agrees_with_solve_mpm(self, tmp_path, rng, capsys, diagonal, h):
        # pinv and solve --method mpm are the two mpm entry points: the same
        # level equation on the same factors
        q, _ = np.linalg.qr(rng.standard_normal((len(diagonal) + 1,) * 2))
        a = q[:, : len(diagonal)] * np.array(diagonal)
        write_matrix(tmp_path / "a.csv", a)
        write_vector(tmp_path / "u.csv", rng.standard_normal(len(diagonal) + 1))
        code, _, err = run_cli(capsys, "pinv", "--matrix", str(tmp_path / "a.csv"),
                               "--h", repr(h))
        assert code == 0
        pinv = json.loads(err)
        code, out, _ = run_cli(
            capsys, "solve", "--matrix", str(tmp_path / "a.csv"),
            "--rhs", str(tmp_path / "u.csv"), "--method", "mpm", "--h", repr(h),
        )
        assert code == 0
        report = json.loads(out)
        assert (report["parameter"], report["jump_root"], report["effective_rank"],
                report["condition_number"]) == \
            (pinv["level"], pinv["jump_root"], pinv["rank"], pinv["condition_number"])

    def test_emit_matrix_needs_out(self, tmp_path, capsys):
        matrix_path = tmp_path / "eye.csv"
        write_matrix(matrix_path, np.eye(2))
        code, _, _ = run_cli(capsys, "pinv", "--matrix", str(matrix_path),
                             "--h", "0.1", "--emit-matrix")
        assert code == 2


class TestSvdReport:
    def test_diagonal(self, tmp_path, capsys):
        matrix_path = tmp_path / "d.csv"
        write_matrix(matrix_path, np.diag([3.0, 2.0, 1.0]))
        code, out, err = run_cli(capsys, "svd-report", "--matrix", str(matrix_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,sigma"
        assert len(lines) == 4
        report = json.loads(err)
        assert report["condition_number"] == pytest.approx(3.0)
        assert report["numerical_rank"] == 3

    def test_sigma_column_nonincreasing(self, tmp_path, rng, capsys):
        matrix_path = tmp_path / "p.csv"
        from minpinv.experiments import build_poisson

        write_matrix(matrix_path, build_poisson(30, 31, 0.1).matrix)
        code, out, _ = run_cli(capsys, "svd-report", "--matrix", str(matrix_path))
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_parse_failure_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("gibberish")
        code, _, _ = run_cli(capsys, "svd-report", "--matrix", str(bad))
        assert code == 2

    def test_zero_matrix_exit_2(self, tmp_path, capsys):
        zero = tmp_path / "zero.csv"
        write_matrix(zero, np.zeros((3, 2)))
        code, out, err = run_cli(capsys, "svd-report", "--matrix", str(zero))
        assert (code, out) == (2, "")
        assert err == "error: cannot factorize the zero matrix\n"

    def test_computes_no_singular_vectors(self, tmp_path, rng, capsys, monkeypatch):
        matrix_path = tmp_path / "a.mtx"
        write_matrix(matrix_path, rng.standard_normal((6, 4)))
        calls = []
        numpy_svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            calls.append(kwargs)
            return numpy_svd(a, *args, **kwargs)

        monkeypatch.setattr(cli.np.linalg, "svd", recording)
        code, _, _ = run_cli(capsys, "svd-report", "--matrix", str(matrix_path))
        assert code == 0
        assert calls == [{"compute_uv": False}]

    @pytest.mark.parametrize("case", ["rank_deficient", "desk"])
    def test_report_is_built_from_svds_factors(self, tmp_path, capsys, desk_problem,
                                               case):
        if case == "desk":
            a = desk_problem.matrix
        else:
            a = oracles.rank_matrix(np.random.default_rng(3), 9, 12, 4)
        factors = svd(a)
        if case == "rank_deficient":
            assert factors.rank == 4
        expected_csv = "k,sigma\n" + "".join(
            f"{k},{value!r}\n" for k, value in enumerate(factors.sigma.tolist(), start=1))
        expected = {
            "rows": a.shape[0], "cols": a.shape[1], "frobenius_norm": frobenius_norm(a),
            "numerical_rank": factors.rank, "rank_tolerance": factors.rank_tolerance,
            "condition_number": spectrum_cond(factors.sigma[: factors.rank]),
            "condition_number_full": spectrum_cond(factors.sigma)
            if factors.sigma[-1] > 0.0 else None,
        }
        expected_json = json.dumps(expected, sort_keys=True, indent=2) + "\n"
        matrix_path, out_path = tmp_path / "a.mtx", tmp_path / "spectrum.csv"
        write_matrix(matrix_path, a)
        assert run_cli(capsys, "svd-report", "--matrix", str(matrix_path)) == (
            0, expected_csv, expected_json)
        assert run_cli(capsys, "svd-report", "--matrix", str(matrix_path),
                       "--out", str(out_path)) == (0, expected_json, "")
        assert out_path.read_text() == expected_csv


class TestExperiment:
    CONFIG = (
        "m = 40\nn = 41\ndeltas = 0.05, 0.1\nseeds = 0:3\n"
        "methods = mpmi, tsvd\ncurve_points = 17\n"
    )

    def test_outputs_and_determinism(self, tmp_path, capsys):
        config_path = tmp_path / "exp.config"
        config_path.write_text(self.CONFIG)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out_dir in (out1, out2):
            code, out, _ = run_cli(
                capsys, "experiment", "--config", str(config_path),
                "--out-dir", str(out_dir),
            )
            assert code == 0
            assert "wrote" in out
        table1 = (out1 / "table.csv").read_bytes()
        table2 = (out2 / "table.csv").read_bytes()
        assert table1 == table2
        assert (out1 / "detail.json").read_bytes() == (out2 / "detail.json").read_bytes()
        detail = json.loads((out1 / "detail.json").read_text())
        assert len(detail["runs"]) == 2 * 3 * 2
        curves = sorted(os.listdir(out1 / "curves"))
        assert len(curves) == 6  # mpmi only: 2 deltas x 3 seeds
        first = (out1 / "curves" / curves[0]).read_text().splitlines()
        assert first[0] == "level,residual_sq"
        assert len(first) == 1 + 17

    def test_seeds_override(self, tmp_path, capsys):
        config_path = tmp_path / "exp.config"
        config_path.write_text("m = 40\nn = 41\ndeltas = 0.05\nmethods = tsvd\n")
        out_dir = tmp_path / "o"
        code, _, _ = run_cli(
            capsys, "experiment", "--config", str(config_path),
            "--out-dir", str(out_dir), "--seeds", "5,6",
        )
        assert code == 0
        detail = json.loads((out_dir / "detail.json").read_text())
        assert sorted(r["seed"] for r in detail["runs"]) == [5, 6]

    def test_single_method_rows(self, tmp_path, capsys):
        config_path = tmp_path / "exp.config"
        config_path.write_text("m = 40\nn = 41\ndeltas = 0.05\nseeds = 0\nmethods = mpmi\n")
        out_dir = tmp_path / "o"
        code, _, _ = run_cli(capsys, "experiment", "--config", str(config_path),
                             "--out-dir", str(out_dir))
        assert code == 0
        lines = (out_dir / "table.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("mpmi,")

    @pytest.mark.parametrize("text, flags", [
        ("deltas = 0.1, 0.1\nmethods = tsvd, tsvd\nseeds = 0:2\n", ()),
        ("deltas = 0.1\nmethods = tsvd\n", ("--seeds", "1,1")),
        ("deltas = 0.1\nmethods = tsvd\n", ("--seeds", "x")),
    ])
    def test_repeated_or_bad_values_exit_2(self, tmp_path, capsys, text, flags):
        config_path = tmp_path / "exp.config"
        config_path.write_text("m = 40\nn = 41\n" + text)
        code, _, err = run_cli(capsys, "experiment", "--config", str(config_path),
                               "--out-dir", str(tmp_path / "o"), *flags)
        assert code == 2
        assert "error:" in err
        assert not (tmp_path / "o").exists()

    def test_full_scale_forces_the_grid(self, tmp_path, capsys, monkeypatch):
        # the run is stubbed out, so nothing is factorized at full scale
        class Captured(Exception):
            pass

        def capture(config):
            raise Captured(config)

        monkeypatch.setattr(cli, "run_experiment", capture)
        config_path = tmp_path / "exp.config"
        config_path.write_text("scale = desk\nm = 40\ndeltas = 0.05\nmethods = tsvd\n")
        with pytest.raises(Captured) as exc:
            main(["experiment", "--config", str(config_path), "--out-dir",
                  str(tmp_path / "o"), "--full-scale", "--seeds", "3"])
        config = exc.value.args[0]
        assert (config.m, config.n) == (1991, 2001)
        assert (config.deltas, config.seeds, config.methods) == ((0.05,), (3,), ("tsvd",))
        # the config is still parsed in full: a malformed m exits 2
        config_path.write_text("m = x\n")
        code, _, err = run_cli(capsys, "experiment", "--config", str(config_path),
                               "--out-dir", str(tmp_path / "o"), "--full-scale")
        assert code == 2
        assert "error: config:" in err

    def test_bad_config_exit_2(self, tmp_path, capsys):
        config_path = tmp_path / "exp.config"
        config_path.write_text("nonsense = true\n")
        code, _, _ = run_cli(capsys, "experiment", "--config", str(config_path),
                             "--out-dir", str(tmp_path / "o"))
        assert code == 2
        code, _, _ = run_cli(capsys, "experiment", "--config",
                             str(tmp_path / "missing.config"),
                             "--out-dir", str(tmp_path / "o"))
        assert code == 2

    def test_unreadable_config_names_the_path(self, tmp_path, capsys):
        not_ascii = tmp_path / "accent.config"
        not_ascii.write_bytes("# caf\u00e9\nmethods = tsvd\n".encode("utf-8"))
        for path in (str(tmp_path / "missing.config"), str(not_ascii)):
            code, _, err = run_cli(capsys, "experiment", "--config", path,
                                   "--out-dir", str(tmp_path / "o"))
            assert code == 2
            assert err.startswith(f"error: cannot read {path}: ")
        assert not (tmp_path / "o").exists()


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
