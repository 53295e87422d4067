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
import math
import numbers
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from statistics import median

import numpy as np

from . import _kernels
from .baselines import METHODS, solve
from .errors import InputError, SolverError
from .linalg import require_vector, svd
from .matio import format_rows
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
SCALES = {"desk": DESK_SHAPE, "full": FULL_SHAPE}


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
    # math.sqrt(x @ x) is np.linalg.norm(x) of a vector, bit for bit
    norm_u = math.sqrt(u_exact @ u_exact)
    if norm_u == 0.0:
        raise InputError("exact right-hand side must be nonzero")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(u_exact.shape[0])
    while not direction.any():  # probability-zero guard
        direction = rng.standard_normal(u_exact.shape[0])
    direction /= math.sqrt(direction @ direction)
    return u_exact + delta_rel * norm_u * direction


def relative_error(z, z_ref):
    """||z - z_ref|| / ||z_ref||."""
    z = require_vector(z, "solution")
    z_ref = require_vector(z_ref, "reference solution")
    if z.shape != z_ref.shape:
        raise InputError("solution length mismatch")
    norm_ref = math.sqrt(z_ref @ z_ref)
    if norm_ref == 0.0:
        raise InputError("reference solution must be nonzero")
    diff = z - z_ref
    return math.sqrt(diff @ diff) / norm_ref


# numeric field -> the type of its value, or of each entry of a tuple field
_NUMBER_FIELDS = {"m": numbers.Integral, "n": numbers.Integral,
                  "curve_points": numbers.Integral, "seeds": numbers.Integral,
                  "h0": numbers.Real, "deltas": numbers.Real}


@dataclass(frozen=True)
class ExperimentConfig:
    """Harness settings, checked on construction and on ``replace``."""

    m: int = DESK_SHAPE[0]
    n: int = DESK_SHAPE[1]
    h0: float = 0.1
    deltas: tuple = (0.005, 0.01, 0.05, 0.1, 0.2, 0.3)
    seeds: tuple = tuple(range(20))
    methods: tuple = ("mpmi", "tsvd", "tr")
    aggregation: str = "median"
    curve_points: int = 0

    def __post_init__(self):
        for key, kind in _NUMBER_FIELDS.items():
            value = getattr(self, key)
            for v in value if key in ("deltas", "seeds") else (value,):
                if isinstance(v, bool) or not isinstance(v, kind):
                    what = "integers" if kind is numbers.Integral else "real numbers"
                    raise InputError(f"config: {key} must be {what}, got {v!r}")
        if self.m < 2 or self.n < 2:
            raise InputError("config: m and n must be at least 2")
        if not self.h0 > 0.0:
            raise InputError("config: h0 must be positive")
        if not self.deltas:
            raise InputError("config: need at least one delta")
        for d in self.deltas:
            if not 0.0 < d < 1.0:
                raise InputError(f"config: delta {d} outside (0, 1)")
        if not self.seeds:
            raise InputError("config: need at least one seed")
        for method in self.methods:
            if method not in METHODS:
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


# config key -> parser of its text, where the field's type is not the parser
_PARSERS = {
    "deltas": lambda text: tuple(float(p) for p in text.split(",")),
    "seeds": _parse_seeds,
    "methods": lambda text: tuple(p.strip().lower() for p in text.split(",")),
    "aggregation": str.lower,
}


def parse_config(text):
    """Flat key=value configuration; '#' starts a comment line.

    Keys: the fields of :class:`ExperimentConfig`, plus ``scale``
    (desk|full), which presets m and n; explicit m/n override it.
    Omitted keys keep the dataclass defaults.
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

    types = {f.name: f.type for f in fields(ExperimentConfig)}
    unknown = set(values) - set(types) - {"scale"}
    if unknown:
        raise InputError(f"config: unknown keys {sorted(unknown)}")
    scale = values.pop("scale", "desk").lower()
    if scale not in SCALES:
        raise InputError(f"config: scale must be desk or full, got {scale!r}")
    m, n = SCALES[scale]
    try:
        parsed = {key: _PARSERS.get(key, types[key])(val) for key, val in values.items()}
    except ValueError as exc:
        raise InputError(f"config: {exc}") from exc
    return ExperimentConfig(**{"m": m, "n": n, **parsed})


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
    accuracy: float | None = None
    condition_number: float | None = None
    jump_fraction: float | None = None
    param_min: float | None = None
    param_median: float | None = None
    param_max: float | None = None


@dataclass(frozen=True)
class ExperimentTable:
    config: ExperimentConfig
    rows: tuple
    records: tuple


def _aggregate(config, records):
    """One row per (method, delta) of the configuration, from one pass that
    groups the records.  The reductions give np.median's and np.mean's
    bits: ``median`` halves the two middle values' sum as np.median does,
    "mean" keeps np.mean, whose pairwise sum a plain loop would not
    match, and the jump fraction counts exactly before it divides."""
    agg = median if config.aggregation == "median" else np.mean
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
                    param_median=median(params),
                    param_max=max(params),
                )
            else:
                row = TableRow(method, delta, len(cell), len(cell))
            rows.append(row)
    return tuple(rows)


def run_experiment(config, problem=None, factors=None):
    """Run every (method, delta, seed) cell and aggregate per method/delta.

    The factorization is computed once and shared; per-cell solver
    failures are recorded, not raised.
    """
    if problem is None:
        problem = build_poisson(config.m, config.n, config.h0)
    if factors is None:
        factors = svd(problem.matrix)
    norm_rhs = math.sqrt(problem.exact_rhs @ problem.exact_rhs)
    records = []
    for delta in config.deltas:
        for seed in config.seeds:
            u_delta = perturb_rhs(problem.exact_rhs, delta, seed)
            for method in config.methods:
                try:
                    # the noise bound goes in as the method's first parameter;
                    # for mpm it doubles as the matrix error budget (the
                    # matrix itself is exact here)
                    bound = METHODS[method][2][0]
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
    return ExperimentTable(config, _aggregate(config, records), records)


def table_csv(table):
    """One line per row, with :class:`TableRow`'s fields as the columns (an
    empty cell for None; ``str`` of a float is its shortest round trip)."""
    names = [f.name for f in fields(TableRow)]
    header = ",".join("cond" if name == "condition_number" else name for name in names)
    rows = ([getattr(r, name) for name in names] for r in table.rows)
    lines = [header, *(",".join("" if v is None else str(v) for v in row) for row in rows)]
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
