"""Hot numeric kernels, vectorized with numpy.

The central kernel solves x**4 - x**3 = t on [1, 3/2] for t in
[0, 27/16], as the excess y = x - 1 in [0, 1/2]: y keeps full relative
precision near x = 1, where x - 1 taken from a rounded x keeps only an
absolute eps, and both the mpm distance (x - 1)**2 and the mpmi residual
(1 - 1/x)**2 = (y / x)**2 are functions of y.  The left side is convex
and strictly increasing, so Newton started from an upper bound on the
root converges monotonically.  The start is read off a chord table of
y/t on 32 769 knots, built once at import (2 x 256 KiB), and is within
9.94e-9 relative of the root; one step squares that error to below the
rounding of the step itself, so the kernel takes exactly one, with no
convergence test, and lands within a few ulps of the root anywhere on
the range.  Endpoints are returned exactly.

``QuarticFilter`` applies the kernel to one nonincreasing spectrum, set
up once: the rank block (``SvdFactors.quartic``) or mpm's positive block
(``SvdFactors.positive_quartic``).  The breakpoints (27/16) sigma_k**4
fall with k, so the indices the filter keeps at a level are a prefix,
found by binary search; the quartic runs on that live prefix only, and
the truncated indices enter through suffix sums, which also bound the
values at the breakpoints.  ``filter_x`` is its only one-shot form, and
``poisson_kernel`` fills the model problem's matrix.
"""

import copy
from bisect import bisect_left, bisect_right
from functools import cached_property

import numpy as np

# Value of x**4 - x**3 at x = 3/2: the largest admissible right side.
QUARTIC_MAX = 27.0 / 16.0

# Newton steps from the tabulated start: its relative error of 9.94e-9
# falls to (2/3) e**2 < 7e-17, under the rounding of the step itself, so
# y is within 2.6 eps of the exact root over all of [0, 27/16] (checked
# on 200 000 uniform points and 20 001 geometric ones down to 1e-20).
NEWTON_STEPS = 1

# There is one (numpy) flavour; the benchmark's environment record reads this.
USING_NUMBA = False

# shift(1/2)**2, the most a kept index adds per unit weight (at x = 3/2,
# its breakpoint); past it the index adds its full weight.
RESIDUAL_CAP = (1.0 - 1.0 / 1.5) ** 2     # (1 - 1/x)**2
DISTANCE_CAP = 0.25                       # (x - 1)**2


def _newton(y, t, steps):
    """Newton steps on (1 + y)**3 y = t from ``y``, as y' = (3 q**2 + t) /
    (p (p + 4 q)) with p = 1 + y and q = y p: no term is negative, so
    nothing cancels.  An iterate's relative error e becomes
    3y (1 + 2y) / (p (1 + 4y)) e**2, at most (2/3) e**2 on [0, 1/2]."""
    for _ in range(steps):
        p = 1.0 + y
        q = y * p
        y = (3.0 * q * q + t) / (p * (p + 4.0 * q))
    return y


def _chord_table():
    """32 769 uniform knots on [0, 27/16] and c(t) = y/t = (1 + y)**-3 on
    them.  The chords' error falls with the square of their spacing:
    1.01e-5 relative at 1 025 knots, 9.94e-9 here.

    y takes four steps from the root 2t / (sqrt(1 + 12t) + 1) of
    (1 + 3y) y = t, above the root since (1 + y)**3 >= 1 + 3y.  c computed
    from it falls short of the exact value by up to 2.9 eps relative, so
    it is raised by 8 eps, which also covers the rounding of ``_start``.
    """
    knots = np.linspace(0.0, QUARTIC_MAX, 32769)
    p = 1.0 + _newton(np.minimum(2.0 * knots / (np.sqrt(1.0 + 12.0 * knots) + 1.0), 0.5),
                      knots, 4)
    return knots, (1.0 + 8.0 * np.finfo(float).eps) / (p * p * p)


_CHORD_KNOTS, _CHORD = _chord_table()


def _start(t):
    """Upper bound on the excess for t >= 0: c is convex, so its chords lie
    above it."""
    return np.minimum(np.interp(t, _CHORD_KNOTS, _CHORD) * t, 0.5)


def quartic_excess(t):
    """y = x - 1 for the roots x in [1, 3/2] of x**4 - x**3 = t, elementwise
    over ``t`` and of its shape; t <= 0 gives 0 and t >= 27/16 gives 1/2.

    Newton on (1 + y)**3 y = t starts from the chord table (``_start``),
    within 9.94e-9 relative above the root, and takes ``NEWTON_STEPS``
    steps.  y is within a few eps of the exact root, so it is not
    monotone at the scale of an ulp: as t grows it may fall below an
    earlier value.  On 27/16 (1 - geomspace(1e-3, 1e-15, 100001)) it does
    so at 909 points, by at most 3 ulps; a grid whose steps raise the
    exact root by more, such as 200 001 uniform points, never sees it.
    """
    t = np.maximum(np.asarray(t, dtype=np.float64), 0.0)
    # the iterates fall towards the root and stay in [0, 1/2], except for
    # t > 27/16, where they climb past the cap
    return np.minimum(_newton(_start(t), t, NEWTON_STEPS), 0.5)


def _residual_shift(y):
    return y / (1.0 + y)    # 1 - 1/x


def _distance_shift(y):
    return y                # x - 1


def suffix_sums(weights):
    """tails[k] = sum of weights[k:] for k = 0 .. len(weights), summed from the end."""
    tails = np.zeros(len(weights) + 1)
    np.cumsum(weights[::-1], out=tails[-2::-1])
    return tails


class QuarticFilter:
    """The quartic filter over one nonincreasing spectrum, set up once.

    Holds sigma**4, the breakpoints (27/16) sigma_k**4 and, negated, the
    same breakpoints as an ascending list for ``bisect``.  The fourth
    power is computed as chained products: ``sigma**4`` can differ in the
    last ulp, and a level placed on a breakpoint must meet the same float.
    """

    def __init__(self, sigma):
        self.sigma = np.asarray(sigma, dtype=np.float64)
        self.s4 = self.sigma * self.sigma * self.sigma * self.sigma
        self.breaks = QUARTIC_MAX * self.s4
        self._neg_breaks = (-self.breaks).tolist()
        self.positive = int(np.count_nonzero(self.sigma > 0.0))

    def excess(self, level):
        """Excess x_k(level) - 1 over the indices the filter keeps.

        At level 0 those are the positive entries, all at 0.  Above it
        they are the prefix with level <= (27/16) sigma_k**4: the quartic
        excess of level/sigma_k**4, exactly 1/2 at the breakpoint itself
        (left-continuous branch).  Every later index is truncated.
        """
        if level == 0.0:
            return np.zeros(self.positive)
        live = bisect_right(self._neg_breaks, -level)    # breaks >= level
        inner = bisect_left(self._neg_breaks, -level)    # breaks > level
        y = quartic_excess(level / self.s4[:live])
        y[inner:] = 0.5
        return y

    def x_values(self, level):
        """x_k(level) over the whole spectrum, 0 marking truncation."""
        x = np.zeros(len(self.sigma))
        y = self.excess(level)
        x[: len(y)] = 1.0 + y
        return x

    @cached_property
    def _plan(self):
        """What ``_sum_sq`` needs of sigma alone: the points, each index's
        point, the gather of hi, lo and cross, and sigma**-8 kept in range."""
        points, segment = np.unique(self.breaks, return_inverse=True)
        cross = (-self.s4).searchsorted(-3.0 * points, "right")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scale = (points / self.s4[0]) ** 2
            grade = (self.s4[0] / self.s4) ** 2
        gather = np.concatenate([np.searchsorted(self._neg_breaks, -points, "right"),
                                 np.searchsorted(self._neg_breaks, -points, "left"), cross])
        return points, segment, gather, cross, scale, grade, scale >= np.finfo(float).tiny

    def _level_sum(self, weights, shift):
        """``(f, tails)``: f(level) = sum_k weights_k shift(y_k)**2 over the
        kept indices plus weights_k for every truncated one, and tails the
        ``suffix_sums`` of ``weights``, which may run past the spectrum."""
        tails = suffix_sums(weights)
        tails_list = tails.tolist()

        def f(level):
            d = shift(self.excess(level))
            return float(np.dot(d * d, weights[: len(d)])) + tails_list[len(d)]

        return f, tails

    def _sum_sq(self, weights, shift, cap):
        """``(f, points, jumps, bounds)`` for ``_level_sum``'s f;
        ``weights`` past the spectrum always count in full, and
        shift(1/2)**2 = cap.

        The points b are the distinct breakpoints ascending, the jumps the
        summed (1 - cap) weights_k of each, and bounds = (lower, upper) on
        f(b).  At b the indices from lo = #(breaks > b) to hi - 1 =
        #(breaks >= b) - 1 are tied and add cap weights_k; those below lo
        add at most weights_k min(t_k**2, cap), as y_k <= t_k = b /
        sigma_k**4.  With W the weights' suffix sums the value lies between
        (1 - cap) W[hi] + cap W[lo] and (1 - cap) W[hi] + cap W[c] + b**2
        sum_{k<c} weights_k / sigma_k**8 for any c <= lo, here cross =
        #(t_k <= 1/3).  Both widen by 16 n eps W[0], n = len(weights), for
        rounding; a bound out of float range (b**2 subnormal, sigma**-8
        overflowing) is infinite.
        """
        points, segment, gather, cross, scale, grade, known = self._plan
        mix = [[1.0 - cap, cap, 0.0], [1.0 - cap, 0.0, cap]]
        n = len(self.s4)
        # bincount adds a tie's jumps in index order
        jumps = np.bincount(segment, weights=(1.0 - cap) * weights[:n])
        f, tails = self._level_sum(weights, shift)
        graded = np.zeros(n + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumsum(weights[:n] * grade, out=graded[1:])
            bounds = np.dot(mix, tails[gather].reshape(3, -1))    # lower, upper
            bounds[1] += scale * graded[cross]
        margin = 16.0 * len(weights) * np.finfo(float).eps * tails[0]
        bounds += [[-margin], [margin]]
        bounds[:, ~(known & (bounds[1] < np.inf))] = [[-np.inf], [np.inf]]
        return f, points, jumps, bounds

    def residual_sq(self, coeffs):
        """``_sum_sq`` for the squared residual of the filtered solve:
        (1 - 1/x_k)**2 c_k**2 over the kept indices, c_k**2 over the
        truncated ones and every coordinate past the spectrum."""
        return self._sum_sq(np.square(coeffs, dtype=np.float64), _residual_shift, RESIDUAL_CAP)

    @cached_property
    def distance_sq(self):
        """``_sum_sq`` for the squared Frobenius distance between the
        filtered and raw spectrum, which depends on sigma alone: (sigma_k
        (x_k - 1))**2 over the kept indices, sigma_k**2 over the truncated."""
        # built on a copy, which the function refers to: cached on the filter,
        # a function that referred back to it would make a reference cycle
        return copy.copy(self)._sum_sq(self.sigma * self.sigma, _distance_shift, DISTANCE_CAP)

    def distance_sq_at(self, level):
        """``distance_sq``'s function at one level, with neither its
        breakpoint plan nor its bounds built."""
        return self._level_sum(self.sigma * self.sigma, _distance_shift)[0](level)


def filter_x(sigma, level):
    """Inflation factors x_k(level) for the quartic spectral filter.

    ``sigma`` is nonincreasing.  Per index: 1 at level 0, the quartic
    root of level/sigma_k**4 up to the breakpoint (27/16)*sigma_k**4,
    exactly 3/2 at the breakpoint (left-continuous branch), 0 past it.
    Zero singular values get 0.
    """
    return QuarticFilter(sigma).x_values(level)


def poisson_kernel(x, y, h0):
    """Dense kernel matrix 1/((x_i - y_j)**2 + h0**2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return 1.0 / ((x[:, None] - y[None, :]) ** 2 + h0 * h0)
