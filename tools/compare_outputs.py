"""Check that two checkouts of minpinv write byte-identical outputs.

    python tools/compare_outputs.py OLD_ROOT NEW_ROOT

Each root is a checkout holding ``src/minpinv`` (for example a
``git archive`` of a parent commit, unpacked).  For each root, one fresh
interpreter with ``PYTHONPATH=<root>/src`` and one BLAS thread runs these
commands through ``minpinv.cli.main``:

- ``experiment``: the five-method desk experiment (six deltas, seeds
  0:20, ``curve_points = 17``);
- ``solve`` on a seeded 99x101 Poisson problem, read from CSV and from
  ``.mtx``, for every method with every parameter flag (rejected ones
  included), plus out-of-range values;
- the in-range ``solve`` commands and ``pinv`` again on a copy of the
  ``.mtx`` matrix with a comment line, blank lines and CRLF ends between
  its values, which the MatrixMarket reader takes through its line
  filter rather than its one-call conversion;
- ``pinv --emit-matrix`` at two budgets;
- ``svd-report`` from ``.mtx`` to stdout and from CSV to ``--out``.

Both roots read the same input files, which this script writes with
numpy alone.  Every file a command writes is kept, and so are its
stdout, stderr and exit code, and the levels its root searches
evaluate: ``streams/<command>.levels`` has one line per call of
``minpinv.mpm.solve_generalized_root``, through any module's binding,
with the hex of each level evaluated, in order.  Outputs can match byte
for byte while a search took another path (a dropped bound costs
evaluations, not bits); the levels files tell the two apart.  The script
exits 0 when the two trees match byte for byte, and 1 with the list of
paths that differ or exist on one side only.  When ``desk/detail.json`` differs, it also says
whether the discrete fields of every run (``DISCRETE``) are identical
and prints, per method, the largest relative difference of each numeric
field, so a change that moves the levels by rounding alone reads as such.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

SHAPE = (99, 101)
H0 = 0.1
DELTA_REL = 0.05

DESK_CONFIG = """\
scale = desk
h0 = 0.1
deltas = 0.005, 0.01, 0.05, 0.1, 0.2, 0.3
seeds = 0:20
methods = mpmi, mpm, tsvd, tr, morozov
curve_points = 17
"""

MM_HEADER = "%%MatrixMarket matrix array real general"

DETAIL = os.path.join("desk", "detail.json")
# the run fields that must match exactly; every other field is numeric
DISCRETE = ("method", "delta", "seed", "jump_root", "effective_rank", "error")


def write_inputs(directory):
    """The Poisson problem 1/((x_i - y_j)**2 + h0**2) with the bump-sine
    truth and 5% seeded noise, as CSV and MatrixMarket files.  Returns
    the CLI commands that read them."""
    m, n = SHAPE
    x, y = np.linspace(-1.0, 1.0, m), np.linspace(-1.0, 1.0, n)
    a = 1.0 / ((x[:, None] - y[None, :]) ** 2 + H0 * H0)
    exact = a @ ((1.0 - y ** 2) * np.sin(4.0 * np.pi * y))
    noise = np.random.default_rng(0).standard_normal(m)
    u = exact + noise * (DELTA_REL * np.linalg.norm(exact) / np.linalg.norm(noise))

    def csv(b):
        return "".join([f"rows,cols\n{len(b)},{b.shape[1]}\n",
                        *(",".join(map(repr, row.tolist())) + "\n" for row in b)])

    def mtx(b):
        return f"{MM_HEADER}\n{b.shape[0]} {b.shape[1]}\n" + "".join(
            f"{v!r}\n" for v in b.T.ravel().tolist())

    def messy(b):
        lines = mtx(b).splitlines()
        lines[3:3] = ["% a comment between values", ""]
        lines.insert(len(lines) // 2, "  ")
        return "\r\n".join(lines) + "\r\n\r\n"

    for name, text in (("a.csv", csv(a)), ("a.mtx", mtx(a)), ("a_messy.mtx", messy(a)),
                       ("u.csv", csv(u[:, None])), ("u.mtx", mtx(u[:, None]))):
        with open(os.path.join(directory, name), "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    with open(os.path.join(directory, "desk.config"), "w", encoding="ascii") as fh:
        fh.write(DESK_CONFIG)

    # flag -> a value in range, then out-of-range ones (run from CSV only)
    fro = float(np.linalg.norm(a))
    values = {"--delta-rel": [DELTA_REL],
              "--delta-abs": [DELTA_REL * float(np.linalg.norm(u)), -1.0],
              "--rank": [12, 0, 1000], "--alpha": [1e-4, -1.0], "--h": [1e-4 * fro, -1.0]}
    commands = {"experiment": ["experiment", "--config", "desk.config", "--out-dir", "desk"]}
    for ext, matrix, rhs in (("csv", "a.csv", "u.csv"), ("mtx", "a.mtx", "u.mtx"),
                             ("messy", "a_messy.mtx", "u.mtx")):
        files = ["--matrix", matrix, "--rhs", rhs]
        for method in ("mpmi", "mpm", "tsvd", "tr", "morozov"):
            for flag, flag_values in values.items():
                for k, value in enumerate(flag_values if ext == "csv" else flag_values[:1]):
                    commands[f"solve_{ext}_{method}_{flag[2:]}_{k}"] = [
                        "solve", *files, "--method", method, flag, repr(value)]
    for share in (1e-6, 1e-2):
        commands[f"pinv_{share}"] = ["pinv", "--matrix", "a.csv", "--h", repr(share * fro),
                                     "--out", f"pinv_{share}.csv", "--emit-matrix"]
    commands["pinv_messy"] = ["pinv", "--matrix", "a_messy.mtx", "--h", repr(1e-2 * fro),
                              "--out", "pinv_messy.csv", "--emit-matrix"]
    commands["svd-report"] = ["svd-report", "--matrix", "a.mtx"]
    commands["svd-report_csv"] = ["svd-report", "--matrix", "a.csv", "--out", "spectrum.csv"]
    return commands


def record_levels():
    """Replace every ``minpinv.*`` module binding of the root finder with
    one that records the hex of each level it evaluates.  Returns the list
    that receives one list of levels per call."""
    import minpinv.mpm

    root = minpinv.mpm.solve_generalized_root
    calls = []

    def recording(eval_fn, *args, **kwargs):
        levels = []
        calls.append(levels)

        def recorded(level):
            levels.append(float(level).hex())
            return eval_fn(level)

        return root(recorded, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("minpinv."):
            for attr, value in list(vars(module).items()):
                if value is root:
                    setattr(module, attr, recording)
    return calls


def run_commands(commands):
    """Run each CLI command in this process, keeping its stdout, stderr,
    exit code and evaluated levels under ``streams/``.  Runs in the child,
    in its work dir."""
    from minpinv.cli import main

    calls = record_levels()
    os.makedirs("streams")
    for name, argv in commands.items():
        calls.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse rejects a value
                code = exc.code
        levels = "".join(" ".join(call) + "\n" for call in calls)
        for suffix, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()),
                             ("code", f"{code}\n"), ("levels", levels)):
            with open(os.path.join("streams", f"{name}.{suffix}"), "w",
                      encoding="utf-8") as fh:
                fh.write(text)


def run_root(root, workdir):
    """Write the inputs into ``workdir`` and run every command against
    ``root``'s source in a fresh interpreter there."""
    os.makedirs(workdir)
    commands = write_inputs(workdir)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([os.path.join(os.path.abspath(root), "src"),
                                           os.path.dirname(os.path.abspath(__file__))]))
    code = f"import compare_outputs; compare_outputs.run_commands({commands!r})"
    subprocess.run([sys.executable, "-c", code], cwd=workdir, env=env, check=True)


def tree(directory):
    """Relative path -> bytes of every file under ``directory``."""
    files = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, directory)] = fh.read()
    return files


def differing_paths(old, new):
    """Sorted paths whose bytes differ or that exist on one side only."""
    return sorted(p for p in old.keys() | new.keys() if old.get(p) != new.get(p))


def relative_difference(a, b):
    """|a - b| / max(|a|, |b|), 0 for equal values (None included) and inf
    when only one is None."""
    if a == b:
        return 0.0
    if a is None or b is None:
        return float("inf")
    return abs(a - b) / max(abs(a), abs(b))


def detail_report(old, new):
    """Lines comparing two ``detail.json`` payloads (bytes) run by run:
    whether the discrete fields are identical, then the largest relative
    difference of each numeric field, per method."""
    old_runs, new_runs = (json.loads(payload)["runs"] for payload in (old, new))
    discrete = [[tuple(r.get(k) for k in DISCRETE) for r in runs]
                for runs in (old_runs, new_runs)]
    differ = sum(a != b for a, b in zip(*discrete)) + abs(len(old_runs) - len(new_runs))
    lines = [f"{DETAIL}: discrete fields ({', '.join(DISCRETE)}) "
             + (f"differ in {differ} of {max(len(old_runs), len(new_runs))} runs"
                if differ else "identical")]
    largest = {}
    for a, b in zip(old_runs, new_runs):
        if a["method"] != b["method"]:
            continue
        fields = largest.setdefault(a["method"], {})
        for key in sorted(a.keys() - set(DISCRETE)):
            fields[key] = max(fields.get(key, 0.0), relative_difference(a[key], b.get(key)))
    lines.append(f"{DETAIL}: largest relative difference per method")
    lines += [f"  {method}: " + ", ".join(f"{key} {value:.3g}" for key, value in fields.items())
              for method, fields in largest.items()]
    return lines


def main(argv):
    if len(argv) != 2:
        print("usage: python tools/compare_outputs.py OLD_ROOT NEW_ROOT", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        trees = []
        for side, root in zip(("old", "new"), argv):
            run_root(root, os.path.join(scratch, side))
            trees.append(tree(os.path.join(scratch, side)))
    differing = differing_paths(*trees)
    for path in differing:
        print(path)
    if DETAIL in differing and all(DETAIL in t for t in trees):
        print("\n".join(detail_report(trees[0][DETAIL], trees[1][DETAIL])))
    if differing:
        print(f"{len(differing)} of {len(trees[0].keys() | trees[1].keys())} paths differ")
        return 1
    print(f"{len(trees[0])} files identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
