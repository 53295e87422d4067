"""Hot numeric kernels, vectorized with numpy.

The central kernel solves x**4 - x**3 = t on [1, 3/2] for t in
[0, 27/16].  The left side is convex and strictly increasing there, so
Newton started from an upper bound on the root converges monotonically;
endpoints are returned exactly.  ``filter_x`` turns it into the quartic
filter factors of a spectrum, ``spectrum_distance_sq`` into the mpm
spectral distance, and ``poisson_kernel`` fills the model problem's
matrix.
"""

import numpy as np

# Value of x**4 - x**3 at x = 3/2: the largest admissible right side.
QUARTIC_MAX = 27.0 / 16.0

# Newton stops once a step is within a few ulps of x; a fixed absolute
# threshold below one ulp of x in [1, 3/2] would never be met.
EPS = float(np.finfo(np.float64).eps)

# There is one (numpy) flavour; the benchmark's environment record reads this.
USING_NUMBA = False


def quartic_roots(t):
    """Roots x in [1, 3/2] of x**4 - x**3 = t, elementwise over ``t``.

    Newton starts from x = 1 + y with (1 + 3y) y = t, capped at 3/2.
    Since (1 + y)**3 >= 1 + 3y, the start is an upper bound on the root.
    """
    t = np.asarray(t, dtype=np.float64)
    y = (np.sqrt(1.0 + 12.0 * np.maximum(t, 0.0)) - 1.0) / 6.0
    x = np.minimum(1.0 + y, 1.5)
    for _ in range(100):
        step = (x * x * x * (x - 1.0) - t) / (x * x * (4.0 * x - 3.0))
        x -= step
        if np.all(np.abs(step) <= 4.0 * EPS * x):
            break
    np.clip(x, 1.0, 1.5, out=x)
    x[t <= 0.0] = 1.0
    x[t >= QUARTIC_MAX] = 1.5
    return x


def filter_x(sigma, level):
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
        x[live] = quartic_roots(level / s4[live])
    x[live & (level == breaks)] = 1.5
    return x


def spectrum_distance_sq(sigma, level):
    """Squared Frobenius distance between the filtered and raw spectrum.

    Surviving entries contribute (sigma_k*(x_k - 1))**2, truncated ones
    sigma_k**2.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    x = filter_x(sigma, level)
    shift = np.where(x > 0.0, sigma * (x - 1.0), sigma)
    return float(np.sum(shift * shift))


def poisson_kernel(x, y, h0):
    """Dense kernel matrix 1/((x_i - y_j)**2 + h0**2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return 1.0 / ((x[:, None] - y[None, :]) ** 2 + h0 * h0)
