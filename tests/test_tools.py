"""The repository's own tools."""

import importlib.util
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
