"""Independent reference implementations used to freeze expected values.

Everything here deliberately avoids the package's own numerics: the
quartic is solved by pure bisection (not Newton), table rows are reduced
by numpy over one filtered cell at a time, spectral sums are
plain Python loops, pseudoinverses come from numpy's SVD with its own
cutoff, generalized roots are located by brute-force grid bracketing or
by a linear breakpoint scan, truncation ranks by a loop over the tails,
and matrix files are formatted, and MatrixMarket text read, one element
at a time.  The package
factorizes with numpy alone: its singular values come from the
values-only ``numpy.linalg.svd`` (``gesdd`` with JOBZ='N', which runs
dqds and is accurate in the deep tail) and its singular vectors from the
full-vector call (divide and conquer).  The references here come from
scipy's ``gesvd`` driver instead: :func:`gesvd_sigma` is values-only
``gesvd`` (dqds after its own bidiagonalization), and
:func:`gesvd_factors` takes values and vectors both from full-vector
``gesvd`` (QR iteration).  :func:`moore_penrose_check` measures how far
a candidate pseudoinverse is from the four Moore-Penrose identities.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from minpinv.errors import InputError
from minpinv.linalg import SvdFactors, default_rank_tolerance, frobenius_norm, require_matrix

QUARTIC_TOP = 27.0 / 16.0


def quartic_bisect(t, iters=200):
    """Bisection-only root of x**4 - x**3 = t on [1, 3/2]."""
    lo, hi = 1.0, 1.5
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid ** 4 - mid ** 3 < t:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-17:
            break
    return 0.5 * (lo + hi)


def quartic_excess_bisect_array(t, iters=140):
    """Bisection-only y = x - 1 with (1 + y)**3 y = t on [0, 1/2], elementwise,
    in numpy's extended precision where the platform has one.  140 halvings
    pin y to well below one ulp of itself for t down to about 1e-20."""
    t = np.asarray(t, dtype=np.longdouble)
    lo = np.zeros_like(t)
    hi = np.full_like(t, 0.5)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = (1 + mid) ** 3 * mid < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def fourth_power(rho):
    """rho**4 as chained products, the package's breakpoint convention:
    ``rho ** 4`` can differ in the last ulp, and a level placed exactly on
    a breakpoint must meet the same float."""
    return rho * rho * rho * rho


def mpm_filtered_value(rho, lam):
    """Left-continuous filtered singular value, straight from the rules."""
    if rho <= 0.0:
        return 0.0
    brk = QUARTIC_TOP * fourth_power(rho)
    if lam == 0.0:
        return rho
    if lam > brk:
        return 0.0
    if lam == brk:
        return 1.5 * rho
    return rho * quartic_bisect(lam / rho ** 4)


def mpm_beta(lam, sigma):
    """Sum over the spectrum of (filtered_k - sigma_k)**2."""
    total = 0.0
    for s in sigma:
        if s > 0.0:
            total += (mpm_filtered_value(s, lam) - s) ** 2
    return total


def mpmi_beta_sq(level, sigma_head, v, rank):
    """Squared residual: head terms (1 - 1/x_k)^2 v_k^2 plus the tail."""
    total = 0.0
    for k in range(rank):
        s = sigma_head[k]
        brk = QUARTIC_TOP * fourth_power(s)
        if level == 0.0:
            theta = 1.0
        elif level > brk:
            theta = 0.0
        elif level == brk:
            theta = 2.0 / 3.0
        else:
            theta = 1.0 / quartic_bisect(level / s ** 4)
        total += (1.0 - theta) ** 2 * v[k] ** 2
    for k in range(rank, len(v)):
        total += v[k] ** 2
    return total


def pinv(a):
    """Reference Moore-Penrose inverse (independent LAPACK driver)."""
    return np.linalg.pinv(a, rcond=1e-13)


def grid_root(fn, lo, hi, target, coarse=20001, refine=200):
    """Brute-force generalized root: bracket on a fine grid, then bisect.

    Returns (level, jumped_guess) where jumped_guess means the crossing
    collapsed to (numerically) a single point.
    """
    grid = np.linspace(lo, hi, coarse)
    values = np.array([fn(g) for g in grid])
    idx = int(np.searchsorted(values >= target, True))
    if idx == 0:
        return float(grid[0]), False
    a, b = float(grid[idx - 1]), float(grid[idx])
    for _ in range(refine):
        mid = 0.5 * (a + b)
        if fn(mid) < target:
            a = mid
        else:
            b = mid
        if b - a < 1e-16 * max(1.0, abs(b)):
            break
    return b, abs(fn(b) - target) > 1e-6 * max(target, 1.0)


def ascending_breakpoints_loop(breaks, jumps):
    """Distinct ascending breakpoints with jumps summed left to right, in
    ascending index order among equal breakpoints (a plain Python merge)."""
    order = np.argsort(breaks, kind="stable")
    merged_breaks, merged_jumps = [], []
    for brk, jump in zip(np.asarray(breaks)[order].tolist(),
                         np.asarray(jumps)[order].tolist()):
        if merged_breaks and brk == merged_breaks[-1]:
            merged_jumps[-1] += jump
        else:
            merged_breaks.append(brk)
            merged_jumps.append(jump)
    return merged_breaks, merged_jumps


def generalized_root_scan(eval_fn, breaks, jumps, target, tol_abs):
    """Linear-scan generalized root of a nondecreasing left-continuous
    function: evaluate at every breakpoint in ascending order until the
    left or right value reaches the target, then bisect the interval below.

    Same contract and exits as ``minpinv.mpm.solve_generalized_root``.
    """
    prev = 0.0
    for brk, jump in zip(breaks, jumps):
        left = eval_fn(brk)
        if target <= left:
            lo, hi = prev, brk
            while True:
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    return hi, False
                val = eval_fn(mid)
                if abs(val - target) <= tol_abs:
                    return mid, False
                if val < target:
                    lo = mid
                else:
                    hi = mid
        if target <= left + jump:
            return float(brk), True
        prev = brk
    raise ValueError(f"bracket exhausted for target {target}")


def aggregate_per_cell(config, records):
    """Table rows as numpy reduces them: for each (method, delta) filter all
    records, then np.median / np.mean / np.min / np.max over the cell."""
    from minpinv.experiments import TableRow

    agg = np.median if config.aggregation == "median" else np.mean
    rows = []
    for method in config.methods:
        for delta in config.deltas:
            cell = [r for r in records if r.method == method and r.delta == delta]
            good = [r for r in cell if r.error is None]
            if not good:
                rows.append(TableRow(method, delta, len(cell), len(cell),
                                     None, None, None, None, None, None))
                continue
            params = np.array([r.parameter for r in good], dtype=np.float64)
            rows.append(TableRow(
                method=method,
                delta=delta,
                runs=len(cell),
                failures=len(cell) - len(good),
                accuracy=float(agg([r.accuracy for r in good])),
                condition_number=float(agg([r.condition_number for r in good])),
                jump_fraction=float(np.mean([r.jump_root for r in good])),
                param_min=float(np.min(params)),
                param_median=float(np.median(params)),
                param_max=float(np.max(params)),
            ))
    return tuple(rows)


def rank_matrix(rng, m, n, rank, scale=1.0):
    """Random dense matrix with exact rank ``rank``."""
    left = rng.standard_normal((m, rank))
    right = rng.standard_normal((rank, n))
    return scale * (left @ right)


def gesvd_sigma(a):
    """Singular values from scipy's values-only ``gesvd``."""
    return scipy.linalg.svd(a, compute_uv=False, lapack_driver="gesvd")


def gesvd_factors(a):
    """SvdFactors with sigma, U and V all from full-vector ``gesvd``
    (QR iteration with every rotation applied to U and V), under the
    package's default rank tolerance."""
    u, sigma, vt = scipy.linalg.svd(a, full_matrices=True, lapack_driver="gesvd")
    return SvdFactors(u, sigma, vt.T, default_rank_tolerance(sigma, a.shape))


def diag_factors(sigma):
    """The exact SvdFactors of diag(sigma): identity U and V and rank
    tolerance 0, so every positive value is in the rank."""
    sigma = np.asarray(sigma, dtype=np.float64)
    eye = np.eye(len(sigma))
    return SvdFactors(eye, sigma, eye, 0.0)


def tsvd_rank_scan(tails, rank, target):
    """First k in 0..rank with tails[k] <= target, clamped to at least 1;
    ``rank`` when none fits (the discrepancy rank, as a loop)."""
    for k in range(rank + 1):
        if tails[k] <= target:
            return max(k, 1)
    return rank


def matrix_error_rank_scan(tails, target):
    """First kappa in 1..len(tails) - 1 with tails[kappa] <= target; the
    last index when none fits (the matrix-error rank, as a loop)."""
    for kappa in range(1, len(tails)):
        if tails[kappa] <= target:
            return kappa
    return len(tails) - 1


def dump_matrix_csv_scan(a):
    """CSV text of a 2-D float array, formatting one element at a time."""
    m, n = a.shape
    lines = ["rows,cols", f"{m},{n}"]
    for row in a:
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def dump_matrix_mm_scan(a):
    """MatrixMarket array text of a 2-D float array, column by column,
    formatting one element at a time."""
    m, n = a.shape
    lines = ["%%MatrixMarket matrix array real general", f"{m} {n}"]
    for j in range(n):
        for i in range(m):
            lines.append(repr(float(a[i, j])))
    return "\n".join(lines) + "\n"


def load_matrix_mm_scan(text, where="matrixmarket input"):
    """The matrix of MatrixMarket array text whose first line is the
    header, one line at a time: strip each line, drop blank and ``%``
    lines, take the size line, then ``float()`` each value in column-major
    order.  A bad count or value raises the package's message."""
    kept = []
    for line in text.splitlines()[1:]:
        line = line.strip()
        if line and not line.startswith("%"):
            kept.append(line)
    m, n = (int(d) for d in kept[0].split())
    values = kept[1:]
    if len(values) != m * n:
        raise InputError(f"{where}: expected {m * n} values, found {len(values)}")
    out = np.empty((m, n))
    for k, token in enumerate(values):
        try:
            out[k % m, k // m] = float(token)
        except ValueError:
            raise InputError(f"cannot parse number {token!r} in {where}") from None
    return out


@dataclass(frozen=True)
class PinvCheckReport:
    """Relative residuals of the four Moore-Penrose identities."""

    axa: float        # ||A X A - A|| / ||A||
    xax: float        # ||X A X - X|| / ||X||
    ax_symmetry: float  # ||(A X)^T - A X|| / (||A|| ||X||)
    xa_symmetry: float  # ||(X A)^T - X A|| / (||A|| ||X||)

    def max_residual(self):
        return max(self.axa, self.xax, self.ax_symmetry, self.xa_symmetry)


def moore_penrose_check(a, a_plus):
    """Residuals of the four Moore-Penrose conditions for X ~ A^+."""
    a = require_matrix(a, "matrix")
    a_plus = require_matrix(a_plus, "candidate pseudoinverse")
    if a_plus.shape != (a.shape[1], a.shape[0]):
        raise InputError(
            f"pseudoinverse shape {a_plus.shape} does not match matrix shape {a.shape}"
        )
    norm_a = frobenius_norm(a)
    norm_x = frobenius_norm(a_plus)
    ax = a @ a_plus
    xa = a_plus @ a
    scale_a = norm_a if norm_a > 0.0 else 1.0
    scale_x = norm_x if norm_x > 0.0 else 1.0
    return PinvCheckReport(
        axa=frobenius_norm(ax @ a - a) / scale_a,
        xax=frobenius_norm(xa @ a_plus - a_plus) / scale_x,
        ax_symmetry=frobenius_norm(ax.T - ax) / (scale_a * scale_x),
        xa_symmetry=frobenius_norm(xa.T - xa) / (scale_a * scale_x),
    )
