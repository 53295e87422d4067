"""Model-problem harness: kernel matrix, calibrated noise, method comparison.

The model system discretizes a smooth displacement kernel on uniform
grids over [-1, 1]; its singular values decay exponentially, which makes
the plain inverse useless and regularization mandatory.  The harness
perturbs the exact right-hand side with seeded Gaussian noise of an
exact relative magnitude, runs the selected solvers at matching noise
bounds, and aggregates accuracy and condition numbers per method and
noise level.  Identical configurations reproduce identical outputs
bit for bit.
"""

import json
from collections import Counter
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import _kernels
from .baselines import METHODS, solve
from .errors import InputError, SolverError
from .linalg import require_vector, svd
from .matio import format_float, format_rows
from .mpmi import discrepancy_curve

__all__ = [
    "PoissonProblem",
    "build_poisson",
    "perturb_rhs",
    "relative_error",
    "ExperimentConfig",
    "parse_config",
    "ExperimentTable",
    "run_experiment",
    "table_csv",
    "detail_json",
]

DESK_SHAPE = (199, 201)
FULL_SHAPE = (1991, 2001)
KNOWN_METHODS = tuple(METHODS)


@dataclass(frozen=True)
class PoissonProblem:
    """Displacement-kernel model system with known truth."""

    m: int
    n: int
    h0: float
    x_grid: np.ndarray
    y_grid: np.ndarray
    matrix: np.ndarray
    truth: np.ndarray        # z on the y grid
    exact_rhs: np.ndarray    # matrix @ truth


def build_poisson(m, n, h0):
    """Kernel matrix 1/((x_i - y_j)^2 + h0^2) with the bump-sine truth."""
    if m < 2 or n < 2:
        raise InputError("grid sizes must be at least 2")
    if h0 <= 0.0:
        raise InputError("depth parameter h0 must be positive")
    x_grid = np.linspace(-1.0, 1.0, m)
    y_grid = np.linspace(-1.0, 1.0, n)
    matrix = _kernels.poisson_kernel(x_grid, y_grid, float(h0))
    truth = (1.0 - y_grid ** 2) * np.sin(4.0 * np.pi * y_grid)
    return PoissonProblem(
        m=m,
        n=n,
        h0=float(h0),
        x_grid=x_grid,
        y_grid=y_grid,
        matrix=matrix,
        truth=truth,
        exact_rhs=matrix @ truth,
    )


def perturb_rhs(u_exact, delta_rel, seed):
    """Gaussian direction scaled so ||noise|| = delta_rel * ||u_exact||.

    Deterministic per (seed, size).  The exact-magnitude scaling makes
    the noise bound sharp, which the discrepancy equations consume as an
    upper bound.
    """
    u_exact = require_vector(u_exact, "exact right-hand side")
    if not 0.0 < delta_rel < 1.0:
        raise InputError("relative noise level must be in (0, 1)")
    norm_u = float(np.linalg.norm(u_exact))
    if norm_u == 0.0:
        raise InputError("exact right-hand side must be nonzero")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(u_exact.shape[0])
    while not np.any(direction):  # probability-zero guard
        direction = rng.standard_normal(u_exact.shape[0])
    direction /= np.linalg.norm(direction)
    return u_exact + delta_rel * norm_u * direction


def relative_error(z, z_ref):
    """||z - z_ref|| / ||z_ref||."""
    z = require_vector(z, "solution")
    z_ref = require_vector(z_ref, "reference solution")
    if z.shape != z_ref.shape:
        raise InputError("solution length mismatch")
    norm_ref = float(np.linalg.norm(z_ref))
    if norm_ref == 0.0:
        raise InputError("reference solution must be nonzero")
    return float(np.linalg.norm(z - z_ref)) / norm_ref


@dataclass(frozen=True)
class ExperimentConfig:
    m: int = DESK_SHAPE[0]
    n: int = DESK_SHAPE[1]
    h0: float = 0.1
    deltas: tuple = (0.005, 0.01, 0.05, 0.1, 0.2, 0.3)
    seeds: tuple = tuple(range(20))
    methods: tuple = ("mpmi", "tsvd", "tr")
    aggregation: str = "median"
    curve_points: int = 0

    def validate(self):
        if self.m < 2 or self.n < 2:
            raise InputError("config: m and n must be at least 2")
        if self.h0 <= 0.0:
            raise InputError("config: h0 must be positive")
        if not self.deltas:
            raise InputError("config: need at least one delta")
        for d in self.deltas:
            if not 0.0 < d < 1.0:
                raise InputError(f"config: delta {d} outside (0, 1)")
        if not self.seeds:
            raise InputError("config: need at least one seed")
        for method in self.methods:
            if method not in KNOWN_METHODS:
                raise InputError(f"config: unknown method {method!r}")
        if self.aggregation not in ("median", "mean"):
            raise InputError("config: aggregation must be median or mean")
        if self.curve_points < 0:
            raise InputError("config: curve_points must be nonnegative")
        for key in ("deltas", "seeds", "methods"):
            values = getattr(self, key)
            if len(set(values)) < len(values):
                repeated = sorted(v for v, n in Counter(values).items() if n > 1)
                raise InputError(f"config: repeated {key} {repeated}")
        return self

    def to_dict(self):
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


def _parse_seeds(text):
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo, hi = part.split(":", 1)
            seeds.extend(range(int(lo), int(hi)))
        else:
            seeds.append(int(part))
    return tuple(seeds)


def parse_config(text, full_scale=False):
    """Flat key=value configuration; '#' starts a comment line.

    Keys: m, n, h0, deltas, seeds, methods, aggregation, scale,
    curve_points.  ``scale`` (desk|full) presets m and n; explicit m/n
    override it.  ``full_scale=True`` forces the full-size grid.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip().lower()] = val.strip()

    known = {"m", "n", "h0", "deltas", "seeds", "methods", "aggregation",
             "scale", "curve_points"}
    unknown = set(values) - known
    if unknown:
        raise InputError(f"config: unknown keys {sorted(unknown)}")

    m, n = DESK_SHAPE
    scale = values.get("scale", "desk").lower()
    if scale == "full":
        m, n = FULL_SHAPE
    elif scale != "desk":
        raise InputError(f"config: scale must be desk or full, got {scale!r}")
    if full_scale:
        m, n = FULL_SHAPE

    try:
        config = ExperimentConfig(
            m=int(values.get("m", m)) if not full_scale else m,
            n=int(values.get("n", n)) if not full_scale else n,
            h0=float(values.get("h0", 0.1)),
            deltas=tuple(float(p) for p in values["deltas"].split(","))
            if "deltas" in values else ExperimentConfig.deltas,
            seeds=_parse_seeds(values["seeds"])
            if "seeds" in values else ExperimentConfig.seeds,
            methods=tuple(p.strip().lower() for p in values["methods"].split(","))
            if "methods" in values else ExperimentConfig.methods,
            aggregation=values.get("aggregation", "median").lower(),
            curve_points=int(values.get("curve_points", 0)),
        )
    except ValueError as exc:
        raise InputError(f"config: {exc}") from exc
    return config.validate()


@dataclass(frozen=True)
class RunRecord:
    """One (method, delta, seed) cell; a failed cell names only its error."""

    method: str
    delta: float
    seed: int
    accuracy: float | None = None
    condition_number: float | None = None
    parameter: float | None = None
    effective_rank: int | None = None
    jump_root: bool = False
    residual: float | None = None
    error: str | None = None
    curve: object = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class TableRow:
    method: str
    delta: float
    runs: int
    failures: int
    accuracy: float | None
    condition_number: float | None
    jump_fraction: float | None
    param_min: float | None
    param_median: float | None
    param_max: float | None


@dataclass(frozen=True)
class ExperimentTable:
    config: ExperimentConfig
    rows: tuple
    records: tuple


def _median(values):
    """np.median's value for a list of NaN-free floats, without numpy: the
    middle value, or the two middle values' sum halved, as ``np.mean``
    takes it."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _aggregate(config, records):
    """One row per (method, delta) of the configuration, from one pass that
    groups the records.  The reductions give np.median's and np.mean's
    bits: "mean" keeps np.mean, whose pairwise sum a plain loop would
    not match, and the jump fraction counts exactly before it divides."""
    agg = _median if config.aggregation == "median" else np.mean
    cells = {}
    for r in records:
        cells.setdefault((r.method, r.delta), []).append(r)
    rows = []
    for method in config.methods:
        for delta in config.deltas:
            cell = cells.get((method, delta), [])
            good = [r for r in cell if r.error is None]
            if good:
                params = [r.parameter for r in good]
                row = TableRow(
                    method=method,
                    delta=delta,
                    runs=len(cell),
                    failures=len(cell) - len(good),
                    accuracy=float(agg([r.accuracy for r in good])),
                    condition_number=float(agg([r.condition_number for r in good])),
                    jump_fraction=sum(r.jump_root for r in good) / len(good),
                    param_min=min(params),
                    param_median=_median(params),
                    param_max=max(params),
                )
            else:
                row = TableRow(method, delta, len(cell), len(cell),
                               None, None, None, None, None, None)
            rows.append(row)
    return tuple(rows)


def run_experiment(config, problem=None, factors=None):
    """Run every (method, delta, seed) cell and aggregate per method/delta.

    The factorization is computed once and shared; per-cell solver
    failures are recorded, not raised.
    """
    config.validate()
    if problem is None:
        problem = build_poisson(config.m, config.n, config.h0)
    if factors is None:
        factors = svd(problem.matrix)
    norm_rhs = float(np.linalg.norm(problem.exact_rhs))
    records = []
    for delta in config.deltas:
        for seed in config.seeds:
            u_delta = perturb_rhs(problem.exact_rhs, delta, seed)
            for method in config.methods:
                try:
                    # the noise bound goes in as the method's first parameter;
                    # for mpm it doubles as the matrix error budget (the
                    # matrix itself is exact here)
                    bound = METHODS[method][1][0]
                    report = solve(factors, u_delta, method, **{bound: delta * norm_rhs})
                    curve = None
                    if config.curve_points > 0 and method == "mpmi":
                        curve = discrepancy_curve(factors, u_delta, num=config.curve_points)
                    records.append(RunRecord(
                        method, delta, seed,
                        accuracy=relative_error(report.solution, problem.truth),
                        condition_number=report.condition_number,
                        parameter=float(report.parameter),
                        effective_rank=report.effective_rank,
                        jump_root=report.jump_root,
                        residual=report.residual,
                        curve=curve,
                    ))
                except SolverError as exc:
                    records.append(RunRecord(method, delta, seed, error=exc.name))
    records = tuple(records)
    return ExperimentTable(
        config=config, rows=_aggregate(config, records), records=records
    )


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def table_csv(table):
    header = ("method,delta,runs,failures,accuracy,cond,"
              "jump_fraction,param_min,param_median,param_max")
    lines = [header]
    for r in table.rows:
        lines.append(",".join(_cell(v) for v in (
            r.method, r.delta, r.runs, r.failures, r.accuracy,
            r.condition_number, r.jump_fraction,
            r.param_min, r.param_median, r.param_max,
        )))
    return "\n".join(lines) + "\n"


def detail_json(table):
    """Config and per-run fields as sorted JSON; curves go to their own files."""
    runs = [{f.name: getattr(r, f.name) for f in fields(r) if f.name != "curve"}
            for r in table.records]
    payload = {"config": table.config.to_dict(), "runs": runs}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def curve_csv(curve):
    lines = ["level,residual_sq",
             *format_rows(np.column_stack([curve.levels, curve.values]))]
    return "\n".join(lines) + "\n"
