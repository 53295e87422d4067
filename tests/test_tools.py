"""The repository's own tools."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPARE = os.path.join(ROOT, "tools", "compare_outputs.py")


def _compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_differing_paths_names_changed_and_one_sided_files():
    old = {"same": b"1", "changed": b"2", "old_only": b""}
    new = {"same": b"1", "changed": b"3", "new_only": b""}
    assert _compare_outputs().differing_paths(old, new) == ["changed", "new_only", "old_only"]


def test_compare_outputs_finds_a_checkout_identical_to_itself():
    done = subprocess.run([sys.executable, COMPARE, ROOT, ROOT], capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    # the desk experiment alone writes 120 curves, a table and a detail file
    count, rest = done.stdout.split(" ", 1)
    assert rest == "files identical\n" and int(count) > 300


def test_detail_report_separates_discrete_fields_from_rounding():
    def payload(parameter, rank, error=None):
        runs = [{"method": "mpmi", "delta": 0.05, "seed": 0, "jump_root": False,
                 "effective_rank": 12, "error": None, "accuracy": 0.02,
                 "condition_number": 7.0, "parameter": 1e-6, "residual": 0.5},
                {"method": "mpm", "delta": 0.05, "seed": 0, "jump_root": True,
                 "effective_rank": rank, "error": error, "accuracy": 0.03,
                 "condition_number": 9.0, "parameter": parameter, "residual": 0.25}]
        return json.dumps({"config": {}, "runs": runs}).encode()

    compare = _compare_outputs()
    old = payload(1.0, 14)
    assert compare.detail_report(old, payload(1.0 + 2.0 ** -48, 14)) == [
        "desk/detail.json: discrete fields (method, delta, seed, jump_root,"
        " effective_rank, error) identical",
        "desk/detail.json: largest relative difference per method",
        "  mpmi: accuracy 0, condition_number 0, parameter 0, residual 0",
        "  mpm: accuracy 0, condition_number 0, parameter 3.55e-15, residual 0",
    ]
    report = compare.detail_report(old, payload(None, 13, error="SolverError"))
    assert report[0].endswith("differ in 1 of 2 runs")
    assert report[3] == "  mpm: accuracy 0, condition_number 0, parameter inf, residual 0"


def test_evaluation_report_pairs_searches_with_runs():
    def tree(*searches):
        runs = [{"method": method, "error": error} for method, error in
                (("mpmi", None), ("tsvd", None), ("mpm", None), ("mpmi", None),
                 ("mpm", "SolverError"), ("mpm", None))]
        return {"desk/detail.json": json.dumps({"runs": runs}).encode(),
                "streams/experiment.levels": "".join(s + "\n" for s in searches).encode()}

    compare = _compare_outputs()
    old = tree("0x1p+0 0x1p+1 0x1p+2", "0x1p+0", "0x1p+1 0x1p+0", "0x1p+0 0x1p-1")
    new = tree("0x1p+0 0x1p+1", "0x1p+0", "0x1p+1", "0x1p+0 0x1p-1 0x1p-2")
    assert compare.evaluation_report(old, new) == [
        "streams/experiment.levels: evaluations per root search, median / max",
        "  mpmi: OLD 2.5 / 3, NEW 1.5 / 2",
        "  mpm: OLD 1.5 / 2, NEW 2 / 3",
    ]
    # a failed search that evaluated levels leaves one line too many
    assert compare.evaluation_report(old, tree("", "", "", "", "")) == [
        "streams/experiment.levels: evaluations per root search, median / max",
        "  the searches do not pair with the runs of detail.json",
    ]
