"""Dense SVD factorization, filtered pseudoinverse application and checks.

The factorization makes two calls to ``numpy.linalg.svd``, which runs
LAPACK's divide-and-conquer driver ``gesdd``.  The singular values come
from the values-only call, :func:`singular_values` (``compute_uv=False``,
JOBZ='N'), which a caller that needs no singular vectors makes alone: there
``gesdd`` bidiagonalizes and ``dbdsdc`` hands the bidiagonal to
``dbdsqr``/``dlasq1``, the dqds iteration, which resolves the deep tail
of graded spectra to about machine precision relative to sigma_1.  Run
with vectors, ``gesdd`` divides and conquers instead and stalls there
about two orders of magnitude higher.  The singular vectors come from that second call
(``full_matrices=True``), several times faster than QR iteration with
every rotation applied to U and V; its own singular values are
discarded, so the rank, breakpoints and condition numbers all see the
values-only spectrum.  A solve reads the leading ``rank`` columns of U
and V; :attr:`SvdFactors.rank_block` keeps them as compact C-contiguous
copies, built at the first solve, so that ``U_r^T u``, the floor
``u - U_r h`` and ``V_r x`` stream 8 r (m + n) bytes rather than rows
of the full m x m and n x n arrays.  All public entry points validate
finiteness and shapes and raise :class:`~minpinv.errors.InputError` /
:class:`~minpinv.errors.SolverError`.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import QuarticFilter
from .errors import InputError, SolverError

EPS = np.finfo(np.float64).eps


def require_finite(a, what="array"):
    """Return ``a`` as a float64 ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise InputError(f"{what} contains non-finite entries")
    return a


def require_matrix(a, what="matrix"):
    a = require_finite(a, what)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InputError(f"{what} must be 2-dimensional, got shape {a.shape}")
    return a


def require_vector(u, what="vector"):
    u = require_finite(u, what)
    if u.ndim != 1 or u.shape[0] < 1:
        raise InputError(f"{what} must be 1-dimensional, got shape {u.shape}")
    return u


def check_spectrum(sigma):
    """``sigma`` as a float64 array, rejecting a spectrum with a negative
    entry or a rise: the quartic filter needs a nonincreasing one."""
    sigma = require_vector(sigma, "spectrum")
    if np.any(sigma < 0.0):
        raise InputError("spectrum entries must be nonnegative")
    if np.any(np.diff(sigma) > 0.0):
        raise InputError("spectrum must be nonincreasing")
    return sigma


def frobenius_norm(a):
    """Euclidean (Frobenius) norm; the matrix norm used throughout."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64)))


def default_rank_tolerance(sigma, shape):
    """sigma_1 * max(m, n) * machine epsilon, the standard rank cutoff."""
    return float(sigma[0]) * max(shape) * EPS


def numerical_rank(sigma, tolerance):
    """#{k : sigma_k > tolerance}."""
    return int(np.sum(sigma > tolerance))


@dataclass(frozen=True)
class SvdFactors:
    """Full orthogonal factors U (m x m), V (n x n) and singular values.

    ``sigma`` has length min(m, n), is nonnegative and nonincreasing;
    columns of ``u`` / ``v`` are the singular vectors (A = U diag(sigma) V^T).
    :func:`svd` takes ``sigma`` from the values-only call of
    ``numpy.linalg.svd`` (dqds) and ``u`` / ``v`` from its full-vector
    call (divide and conquer); see the module docstring.  Solves read only
    the leading ``rank`` columns, from :attr:`rank_block`, and past the
    rank (mpm survivors) slice U and V; both stay full so that reports and
    checks can still reach the complement of the range.
    ``rank_tolerance >= 0`` fixes the numerical rank: #{k : sigma_k > tol};
    ``svd(a, rank_tolerance=tol)`` sets it.  Construction checks all of
    this once (InputError); ``rank``, the rank block and the quartic
    filters are cached.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank_tolerance: float

    def __post_init__(self):
        m, n = self.shape
        if self.u.shape != (m, m) or self.v.shape != (n, n):
            raise InputError(f"U and V must be square, got {self.u.shape} and {self.v.shape}")
        if check_spectrum(self.sigma).shape[0] != min(m, n):
            raise InputError(f"spectrum length {len(self.sigma)} is not min(m, n) = {min(m, n)}")
        if not self.rank_tolerance >= 0.0:
            raise InputError("rank tolerance must be nonnegative")

    @property
    def shape(self):
        return (self.u.shape[0], self.v.shape[0])

    @cached_property
    def rank(self):
        return numerical_rank(self.sigma, self.rank_tolerance)

    @cached_property
    def rank_block(self):
        """``(U[:, :rank], V[:, :rank])`` as read-only C-contiguous arrays:
        the slice itself where it already is (U at rank = m, V at rank = n),
        else a copy.  The copies run the same BLAS kernels as the strided
        slices, so every result is bit-identical; they cost at most
        8 rank (m + n) bytes."""
        return _freeze(self.u[:, : self.rank]), _freeze(self.v[:, : self.rank])

    @cached_property
    def quartic(self):
        """The quartic filter over the numerical rank, whose values are all
        positive as the tolerance is nonnegative; InputError at rank 0."""
        if self.rank < 1:
            raise InputError("quartic filter needs a numerical rank of at least 1")
        return QuarticFilter(self.sigma[: self.rank])

    @cached_property
    def positive_quartic(self):
        """mpm's quartic filter, over every positive value (past the rank)."""
        return QuarticFilter(self.sigma[: np.count_nonzero(self.sigma)])

    def project_rhs(self, u, width=None):
        """U_w^T u over the leading w = ``width`` columns (default: the
        numerical rank), then one floor coordinate ||u - U_w U_w^T u||.

        The result keeps the norm of u, and for k <= w its squared tail past
        index k is ||U[:, k:]^T u||^2, at k = rank the squared residual
        floor.  The floor is exactly 0.0 when w = m; it is taken from the
        residual vector because ||u||^2 - ||U_w^T u||^2 cancels and can go
        negative.  Cost O(m w) rather than O(m^2).
        """
        u = require_vector(u, "right-hand side")
        if u.shape[0] != self.u.shape[0]:
            raise InputError(
                f"right-hand side length {u.shape[0]} does not match m={self.u.shape[0]}"
            )
        width = self.rank if width is None else width
        basis = self.rank_block[0] if width == self.rank else self.u[:, :width]
        head = basis.T @ u
        if basis.shape[1] == u.shape[0]:
            return np.concatenate((head, [0.0]))
        floor = u - basis @ head
        return np.concatenate((head, [math.sqrt(floor @ floor)]))


def _freeze(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _lapack_svd(a, **kwargs):
    try:
        return np.linalg.svd(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise SolverError("factorization failed", str(exc)) from exc


def singular_values(a):
    """Singular values of a dense real matrix, nonincreasing, without the
    singular vectors: ``numpy.linalg.svd(a, compute_uv=False)`` (``gesdd``
    with JOBZ='N', which runs ``dbdsqr``/``dlasq1``).  Raises
    ``InputError`` for non-finite or zero input and ``SolverError`` when
    the iteration fails to converge.
    """
    a = require_matrix(a)
    if not np.any(a):
        raise InputError("cannot factorize the zero matrix")
    return _lapack_svd(a, compute_uv=False)


def svd(a, rank_tolerance=None):
    """Full SVD of a dense real matrix as :class:`SvdFactors`.

    sigma from :func:`singular_values`, the values-only call, U and V
    from ``numpy.linalg.svd(a, full_matrices=True)``.
    Deterministic for identical input bits.  Raises ``InputError`` for
    non-finite or zero input or a negative ``rank_tolerance`` and
    ``SolverError`` when the iteration fails to converge.
    """
    a = np.asarray(a, dtype=np.float64)
    sigma = singular_values(a)
    u, _, vt = _lapack_svd(a, full_matrices=True)
    if rank_tolerance is None:
        rank_tolerance = default_rank_tolerance(sigma, a.shape)
    return SvdFactors(_freeze(u), _freeze(sigma), _freeze(vt.T), float(rank_tolerance))


def assemble_filtered_pinv(factors, filtered_sigma):
    """Materialize the n x m filtered pseudoinverse (for reports/tests)."""
    filtered_sigma = require_vector(filtered_sigma, "filtered spectrum")
    big_m = len(factors.sigma)
    if filtered_sigma.shape[0] != big_m:
        raise InputError("filtered spectrum length mismatch")
    if np.any(filtered_sigma < 0.0):
        raise InputError("filtered spectrum must be nonnegative")
    theta = np.divide(1.0, filtered_sigma, out=np.zeros_like(filtered_sigma),
                      where=filtered_sigma > 0.0)
    return (factors.v[:, :big_m] * theta) @ factors.u[:, :big_m].T


def assemble_filtered_matrix(factors, filtered_sigma):
    """Materialize the m x n matrix with the given regularized spectrum."""
    filtered_sigma = require_vector(filtered_sigma, "filtered spectrum")
    big_m = len(factors.sigma)
    if filtered_sigma.shape[0] != big_m:
        raise InputError("filtered spectrum length mismatch")
    return (factors.u[:, :big_m] * filtered_sigma) @ factors.v[:, :big_m].T


def spectrum_cond(values):
    """Extreme-value ratio max/min over the positive entries of a spectrum.

    Zero entries are truncated indices and take no part; raises
    "undefined condition number" when every entry is zero.
    """
    live = values[values > 0.0]
    if live.size == 0:
        raise SolverError(
            "undefined condition number", "all spectrum entries are zero"
        )
    return float(live.max() / live.min())
