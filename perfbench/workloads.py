"""The benchmark's workloads: inputs made from a seed, one operation, checks.

A workload builds its inputs in ``__init__`` (untimed), repeats
``setup`` (timed as ``setup_s``), and then runs operations
``call(spec(i))`` in a closed loop with one caller.  ``check`` tests
one output.  Operations come in blocks that hold every kind of
operation once, in an order drawn from the seed, so any run covers the
mix evenly.

Product code is reached through module attributes (``experiments.
run_experiment``) so that the tracer's wrappers see every call; checks
use functions bound here at import, before any wrapper exists, so they
never show up in a trace.
"""

import contextlib
import io
import json
import os

import numpy as np

import checks
from minpinv import cli, experiments, linalg, matio
from minpinv.experiments import build_poisson, perturb_rhs, relative_error
from minpinv.linalg import svd
from minpinv.mpm import spectrum_distance_sq

HARNESS_DELTAS = (0.005, 0.01, 0.05, 0.1, 0.2, 0.3)
NOISE_POOL = 20   # noise seeds per run; outputs of repeated inputs must repeat
H0 = 0.1


class Workload:
    name = ""
    setup_reps = 3

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self._block = (None, None)

    def block_len(self):
        return len(self.kinds)

    def spec(self, i):
        """The i-th operation: a kind from the block's seeded order and a
        choice index into the workload's input pool."""
        block, j = divmod(i, len(self.kinds))
        if self._block[0] != block:
            rng = np.random.default_rng([self.seed, block])
            self._block = (block, (rng.permutation(len(self.kinds)),
                                   rng.integers(self.pool_size, size=len(self.kinds))))
        order, choice = self._block[1]
        return block, self.kinds[order[j]], int(choice[j])


class HarnessWorkload(Workload):
    """One ``run_experiment`` call on a one-cell config against a problem
    that set-up builds and factorizes once."""

    methods = ()
    shape = (0, 0)
    pool_size = NOISE_POOL

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.kinds = [(m, d) for m in self.methods for d in HARNESS_DELTAS]
        rng = np.random.default_rng(seed)
        self.noise_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, NOISE_POOL)]
        self._floors = {}
        self._seen = {}

    def setup(self):
        m, n = self.shape
        self.problem = experiments.build_poisson(m, n, H0)
        self.factors = linalg.svd(self.problem.matrix)

    def call(self, spec):
        _block, (method, delta), noise = spec
        config = experiments.ExperimentConfig(
            m=self.shape[0], n=self.shape[1], h0=H0, deltas=(delta,),
            seeds=(self.noise_seeds[noise],), methods=(method,))
        return experiments.run_experiment(
            config, problem=self.problem, factors=self.factors).records[0]

    def _floor(self, delta, noise_seed):
        """Squared residual floor and ||u||^2 of the regenerated right side."""
        key = (delta, noise_seed)
        if key not in self._floors:
            u = perturb_rhs(self.problem.exact_rhs, delta, noise_seed)
            tail = self.factors.u[:, self.factors.rank:].T @ u
            self._floors[key] = (float(tail @ tail), float(u @ u))
        return self._floors[key]

    def check(self, spec, record):
        """Returns (failures, rel_err, cond); the last two None unless a
        solve produced them."""
        _block, (method, delta), noise = spec
        if record.error is not None:
            return [f"{method}: solver error {record.error}"], None, None
        noise_seed = self.noise_seeds[noise]
        delta_abs = delta * float(np.linalg.norm(self.problem.exact_rhs))
        failures = checks.relative_error_below_one(record.accuracy)
        if method == "mpm":
            failures += checks.mpm_budget(
                spectrum_distance_sq(record.parameter, self.factors.sigma), delta_abs)
        else:
            floor_sq, u_norm_sq = self._floor(delta, noise_seed)
            failures += checks.discrepancy(
                method, record.residual, delta_abs, floor_sq, u_norm_sq)
        failures += checks.repeatable(
            self._seen, (method, delta, noise_seed),
            (record.accuracy, record.residual, record.parameter,
             record.condition_number))
        return failures, record.accuracy, record.condition_number


class DeskFilter(HarnessWorkload):
    name = "desk-filter"
    methods = ("mpmi", "mpm")
    shape = (199, 201)
    setup_reps = 9


class LargeBaselines(HarnessWorkload):
    name = "large-baselines"
    methods = ("tsvd", "tr", "morozov")
    shape = (995, 1001)
    setup_reps = 3


# ---------------------------------------------------------------------------
# CLI on files

CLI_SHAPE = (299, 301)
CLI_DELTAS = (0.01, 0.05, 0.1)
CLI_NOISE = 16   # noise seeds per noise level
CLI_RANK = 12
CLI_ALPHA_PER_DELTA = 1e6   # explicit --alpha = 1e6 * delta, near the
                            # discrepancy choice at this size
FORMATS = ("csv", "mtx")

# (command, method, parameter flag, input format slot, delta index): slot 0
# takes this block's format, slot 1 the other one, and they swap every
# block.  Every solve runs at every noise level.  Two of the 28 operations
# are pinv, so the 90th latency percentile falls inside the mpm/mpmi group
# rather than on the edge between it and the slower pinv group.
CLI_KINDS = tuple(
    ("solve", method, flag, slot, d)
    for method, flag, slot in (
        ("mpmi", "delta-rel", 0), ("tsvd", "delta-rel", 0),
        ("tr", "delta-abs", 0), ("morozov", "delta-rel", 0),
        ("tsvd", "rank", 1), ("tr", "alpha", 1), ("morozov", "alpha", 1),
        ("mpm", "h", 1))
    for d in range(len(CLI_DELTAS))
) + (
    ("svd-report", None, None, 0, None), ("svd-report", None, None, 1, None),
    ("pinv", None, "h", 0, 0), ("pinv", None, "h", 1, 2),
)


class CliFiles(Workload):
    """One in-process ``minpinv.cli.main`` call on files set-up wrote."""

    name = "cli-files"
    kinds = CLI_KINDS
    pool_size = CLI_NOISE
    setup_reps = 7

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        m, n = CLI_SHAPE
        self.problem = build_poisson(m, n, H0)
        self.factors = svd(self.problem.matrix)
        rng = np.random.default_rng(seed)
        noise_seeds = rng.integers(0, 2**31 - 1, CLI_NOISE)
        self.rhs = [(delta, perturb_rhs(self.problem.exact_rhs, delta, int(s)))
                    for delta in CLI_DELTAS for s in noise_seeds]
        self._seen = {}

    def _path(self, stem, fmt):
        return os.path.join(self.workdir, f"{stem}.{fmt}")

    def setup(self):
        for fmt in FORMATS:
            matio.write_matrix(self._path("A", fmt), self.problem.matrix)
            for k, (_delta, u) in enumerate(self.rhs):
                matio.write_vector(self._path(f"u{k}", fmt), u)

    def _rhs_index(self, spec):
        _block, (_command, _method, _flag, _slot, d), noise = spec
        return None if d is None else d * CLI_NOISE + noise

    def _args(self, spec):
        block, (command, method, flag, slot, _d), _noise = spec
        fmt = FORMATS[(block + slot) % 2]
        k = self._rhs_index(spec)
        if command == "svd-report":
            return ["svd-report", "--matrix", self._path("A", fmt),
                    "--out", self._path("spectrum", "csv")]
        delta, u = self.rhs[k]
        h = delta * float(np.linalg.norm(self.problem.exact_rhs))
        if command == "pinv":
            return ["pinv", "--matrix", self._path("A", fmt), "--h", repr(h),
                    "--out", self._path("pinv", "csv"), "--emit-matrix"]
        value = {"delta-rel": delta, "delta-abs": delta * float(np.linalg.norm(u)),
                 "rank": CLI_RANK, "alpha": CLI_ALPHA_PER_DELTA * delta,
                 "h": h}[flag]
        return ["solve", "--matrix", self._path("A", fmt),
                "--rhs", self._path(f"u{k}", fmt), "--method", method,
                f"--{flag}", repr(value)]

    def call(self, spec):
        args = self._args(spec)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
        return code, out.getvalue(), err.getvalue()

    def check(self, spec, output):
        _block, (command, method, flag, _slot, _d), _noise = spec
        k = self._rhs_index(spec)
        code, out, err = output
        if code != 0:
            return [f"{command} exited {code}: {err.strip()}"], None, None
        report = json.loads(out)
        if command == "svd-report":
            return self._check_spectrum(report), None, None
        if command == "pinv":
            return self._check_pinv(report, spec), None, None
        delta, u = self.rhs[k]
        z = np.array(report["solution"], dtype=np.float64)
        failures = checks.residual_matches(
            report["residual"], float(np.linalg.norm(self.problem.matrix @ z - u)))
        rel_err = relative_error(z, self.problem.truth)
        failures += checks.relative_error_below_one(rel_err)
        if flag in ("delta-rel", "delta-abs"):
            delta_abs = float(self._args(spec)[-1])
            if flag == "delta-rel":
                delta_abs *= float(np.linalg.norm(u))
            tail = self.factors.u[:, self.factors.rank:].T @ u
            failures += checks.discrepancy(
                method, report["residual"], delta_abs, float(tail @ tail),
                float(u @ u))
        # CSV and MatrixMarket hold the same bits, so the format is no part
        # of the key: both must give the same output.
        failures += checks.repeatable(
            self._seen, (method, flag, k),
            (report["residual"], report["parameter"], report["condition_number"],
             tuple(report["solution"])))
        return failures, rel_err, report["condition_number"]

    def _check_spectrum(self, report):
        failures = []
        if report["numerical_rank"] != self.factors.rank:
            failures.append(f"svd-report rank {report['numerical_rank']} "
                            f"!= {self.factors.rank}")
        with open(self._path("spectrum", "csv"), encoding="ascii") as fh:
            lines = fh.read().split()
        sigma = np.array([float(line.split(",")[1]) for line in lines[1:]])
        ref = self.factors.sigma
        if sigma.shape != ref.shape or np.max(np.abs(sigma - ref)) > 1e-12 * ref[0]:
            failures.append("svd-report spectrum differs from the reference SVD")
        return failures

    def _check_pinv(self, report, spec):
        h = float(self._args(spec)[4])
        failures = checks.mpm_budget(report["distance"] ** 2, h)
        with open(self._path("pinv", "csv"), encoding="ascii") as fh:
            head = [fh.readline().strip(), fh.readline().strip()]
        m, n = CLI_SHAPE
        if head != ["rows,cols", f"{n},{m}"]:
            failures.append(f"pinv output starts {head!r}, expected {n}x{m}")
        if not os.path.exists(self._path("pinv.matrix", "csv")):
            failures.append("pinv --emit-matrix wrote no matrix file")
        return failures


WORKLOADS = {w.name: w for w in (DeskFilter, LargeBaselines, CliFiles)}
