"""Hot numeric kernels with optional numba acceleration.

Every kernel exists in two interchangeable flavours: a pure-numpy
implementation (``*_numpy``) and, when numba is importable and not
disabled, an ``@njit``-compiled one (``*_numba``).  The module-level
names (``quartic_roots``, ``filter_x``, ...) are bound to whichever
flavour is active.  Set ``MINPINV_DISABLE_NUMBA=1`` in the environment
before import to force the numpy path; ``USING_NUMBA`` reports the
outcome.  ``benchmarks/bench_kernels.py`` times the two paths against
each other.

The central kernel solves x**4 - x**3 = t on [1, 3/2] for t in
[0, 27/16].  The left side is convex and strictly increasing there, so
Newton started from x = 3/2 converges monotonically; endpoints are
returned exactly.
"""

import os

import numpy as np

# Value of x**4 - x**3 at x = 3/2: the largest admissible right side.
QUARTIC_MAX = 27.0 / 16.0

# Newton stops once a step is within a few ulps of x; a fixed absolute
# threshold below one ulp of x in [1, 3/2] would never be met.
EPS = float(np.finfo(np.float64).eps)

_DISABLE = os.environ.get("MINPINV_DISABLE_NUMBA", "").strip().lower() in {
    "1", "true", "yes", "on",
}

if not _DISABLE:
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - numba is an optional extra
        HAVE_NUMBA = False
else:
    HAVE_NUMBA = False

USING_NUMBA = HAVE_NUMBA


# ---------------------------------------------------------------------------
# pure-numpy flavours

def quartic_roots_numpy(t):
    """Roots x in [1, 3/2] of x**4 - x**3 = t, elementwise over ``t``."""
    t = np.asarray(t, dtype=np.float64)
    x = np.full(t.shape, 1.5)
    for _ in range(100):
        step = (x * x * x * (x - 1.0) - t) / (x * x * (4.0 * x - 3.0))
        x -= step
        if np.all(np.abs(step) <= 4.0 * EPS * x):
            break
    np.clip(x, 1.0, 1.5, out=x)
    x[t <= 0.0] = 1.0
    x[t >= QUARTIC_MAX] = 1.5
    return x


def filter_x_numpy(sigma, level):
    """Inflation factors x_k(level) for the quartic spectral filter.

    Per index: 1 at level 0, the quartic root of level/sigma_k**4 up to
    the breakpoint (27/16)*sigma_k**4, exactly 3/2 at the breakpoint
    (left-continuous branch), 0 past it.  Zero singular values get 0.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    s4 = sigma * sigma * sigma * sigma
    breaks = QUARTIC_MAX * s4
    pos = sigma > 0.0
    x = np.zeros(sigma.shape)
    if level == 0.0:
        x[pos] = 1.0
        return x
    live = pos & (level <= breaks)
    with np.errstate(divide="ignore", over="ignore"):
        x[live] = quartic_roots_numpy(level / s4[live])
    x[live & (level == breaks)] = 1.5
    return x


def spectrum_distance_sq_numpy(sigma, level):
    """Squared Frobenius distance between the filtered and raw spectrum.

    Surviving entries contribute (sigma_k*(x_k - 1))**2, truncated ones
    sigma_k**2.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    x = filter_x_numpy(sigma, level)
    shift = np.where(x > 0.0, sigma * (x - 1.0), sigma)
    return float(np.sum(shift * shift))


def discrepancy_head_sq_numpy(sigma, v_sq, level):
    """Sum over the spectrum of (1 - theta[x_k(level)])**2 * v_k**2.

    theta[x] is 1/x for survivors and 0 past the breakpoint, so
    truncated indices contribute their full v_k**2.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    v_sq = np.asarray(v_sq, dtype=np.float64)
    x = filter_x_numpy(sigma, level)
    factor = np.where(x > 0.0, 1.0 - 1.0 / np.where(x > 0.0, x, 1.0), 1.0)
    return float(np.sum(factor * factor * v_sq))


def spectrum_distance_sq_grid_numpy(sigma, levels):
    out = np.empty(len(levels))
    for i, level in enumerate(levels):
        out[i] = spectrum_distance_sq_numpy(sigma, float(level))
    return out


def discrepancy_head_sq_grid_numpy(sigma, v_sq, levels):
    out = np.empty(len(levels))
    for i, level in enumerate(levels):
        out[i] = discrepancy_head_sq_numpy(sigma, v_sq, float(level))
    return out


def poisson_kernel_numpy(x, y, h0):
    """Dense kernel matrix 1/((x_i - y_j)**2 + h0**2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return 1.0 / ((x[:, None] - y[None, :]) ** 2 + h0 * h0)


# ---------------------------------------------------------------------------
# numba flavours

if USING_NUMBA:

    @njit(cache=True)
    def _quartic_root_scalar(t):
        if t <= 0.0:
            return 1.0
        if t >= QUARTIC_MAX:
            return 1.5
        x = 1.5
        for _ in range(100):
            step = (x * x * x * (x - 1.0) - t) / (x * x * (4.0 * x - 3.0))
            x -= step
            if abs(step) <= 4.0 * EPS * x:
                break
        if x < 1.0:
            x = 1.0
        elif x > 1.5:
            x = 1.5
        return x

    @njit(cache=True)
    def quartic_roots_numba(t):
        out = np.empty(t.shape[0])
        for i in range(t.shape[0]):
            out[i] = _quartic_root_scalar(t[i])
        return out

    @njit(cache=True)
    def _filter_x_scalar(s, level):
        if s <= 0.0:
            return 0.0
        if level == 0.0:
            return 1.0
        s4 = s * s * s * s
        brk = QUARTIC_MAX * s4
        if level > brk:
            return 0.0
        if level == brk:
            return 1.5
        return _quartic_root_scalar(level / s4)

    @njit(cache=True)
    def filter_x_numba(sigma, level):
        out = np.empty(sigma.shape[0])
        for k in range(sigma.shape[0]):
            out[k] = _filter_x_scalar(sigma[k], level)
        return out

    @njit(cache=True)
    def spectrum_distance_sq_numba(sigma, level):
        total = 0.0
        for k in range(sigma.shape[0]):
            s = sigma[k]
            if s <= 0.0:
                continue
            x = _filter_x_scalar(s, level)
            shift = s * (x - 1.0) if x > 0.0 else s
            total += shift * shift
        return total

    @njit(cache=True)
    def discrepancy_head_sq_numba(sigma, v_sq, level):
        total = 0.0
        for k in range(sigma.shape[0]):
            x = _filter_x_scalar(sigma[k], level)
            factor = 1.0 - 1.0 / x if x > 0.0 else 1.0
            total += factor * factor * v_sq[k]
        return total

    @njit(cache=True)
    def spectrum_distance_sq_grid_numba(sigma, levels):
        out = np.empty(levels.shape[0])
        for i in range(levels.shape[0]):
            out[i] = spectrum_distance_sq_numba(sigma, levels[i])
        return out

    @njit(cache=True)
    def discrepancy_head_sq_grid_numba(sigma, v_sq, levels):
        out = np.empty(levels.shape[0])
        for i in range(levels.shape[0]):
            out[i] = discrepancy_head_sq_numba(sigma, v_sq, levels[i])
        return out

    @njit(cache=True)
    def poisson_kernel_numba(x, y, h0):
        m = x.shape[0]
        n = y.shape[0]
        out = np.empty((m, n))
        h2 = h0 * h0
        for i in range(m):
            for j in range(n):
                d = x[i] - y[j]
                out[i, j] = 1.0 / (d * d + h2)
        return out

    quartic_roots = quartic_roots_numba
    filter_x = filter_x_numba
    spectrum_distance_sq = spectrum_distance_sq_numba
    discrepancy_head_sq = discrepancy_head_sq_numba
    spectrum_distance_sq_grid = spectrum_distance_sq_grid_numba
    discrepancy_head_sq_grid = discrepancy_head_sq_grid_numba
    poisson_kernel = poisson_kernel_numba
else:
    quartic_roots_numba = None
    filter_x_numba = None
    spectrum_distance_sq_numba = None
    discrepancy_head_sq_numba = None
    spectrum_distance_sq_grid_numba = None
    discrepancy_head_sq_grid_numba = None
    poisson_kernel_numba = None

    quartic_roots = quartic_roots_numpy
    filter_x = filter_x_numpy
    spectrum_distance_sq = spectrum_distance_sq_numpy
    discrepancy_head_sq = discrepancy_head_sq_numpy
    spectrum_distance_sq_grid = spectrum_distance_sq_grid_numpy
    discrepancy_head_sq_grid = discrepancy_head_sq_grid_numpy
    poisson_kernel = poisson_kernel_numpy


def as_kernel_array(a):
    """Contiguous float64 view/copy as expected by the numba kernels."""
    return np.ascontiguousarray(a, dtype=np.float64)
