"""Dense SVD factorization, filtered pseudoinverse application and checks.

The factorization uses two LAPACK drivers.  The singular values come
from values-only ``gesvd`` (bidiagonalization, then dqds), which
resolves the deep tail of graded spectra to about machine precision
relative to sigma_1; the divide-and-conquer driver ``gesdd``, run with
vectors, stalls there about two orders of magnitude higher.  The singular vectors come
from ``gesdd``, several times faster than ``gesvd`` with all rotations
applied to U and V; its own singular values are discarded, so the rank,
breakpoints and condition numbers all see the ``gesvd`` spectrum.  All
public entry points validate finiteness and shapes and raise
:class:`~minpinv.errors.InputError` / :class:`~minpinv.errors.SolverError`.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import InputError, SolverError

EPS = np.finfo(np.float64).eps


def require_finite(a, what="array"):
    """Return ``a`` as a float64 ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
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


def frobenius_norm(a):
    """Euclidean (Frobenius) norm; the matrix norm used throughout."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64)))


def default_rank_tolerance(sigma, shape):
    """sigma_1 * max(m, n) * machine epsilon, the standard rank cutoff."""
    if len(sigma) == 0:
        return 0.0
    return float(sigma[0]) * max(shape) * EPS


@dataclass(frozen=True)
class SvdFactors:
    """Full orthogonal factors U (m x m), V (n x n) and singular values.

    ``sigma`` has length min(m, n) and is nonincreasing; columns of
    ``u`` / ``v`` are the singular vectors (A = U diag(sigma) V^T).
    :func:`svd` takes ``sigma`` from values-only ``gesvd`` and ``u`` /
    ``v`` from ``gesdd`` (see the module docstring).  Solves read only
    the leading columns (:meth:`project_rhs`); U and V stay full so that
    reports and checks can still reach the complement of the range.
    ``rank_tolerance`` fixes the numerical rank: #{k : sigma_k > tol};
    ``svd(a, rank_tolerance=tol)`` sets it.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank_tolerance: float

    @property
    def shape(self):
        return (self.u.shape[0], self.v.shape[0])

    @cached_property
    def rank(self):
        return int(np.sum(self.sigma > self.rank_tolerance))

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
        basis = self.u[:, : self.rank if width is None else width]
        head = basis.T @ u
        full = basis.shape[1] == u.shape[0]
        return np.append(head, 0.0 if full else np.linalg.norm(u - basis @ head))


def _freeze(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def svd(a, rank_tolerance=None):
    """Full SVD of a dense real matrix as :class:`SvdFactors`.

    sigma from values-only ``gesvd``, U and V from ``gesdd``.
    Deterministic for identical input bits.  Raises ``InputError`` for
    non-finite or zero input and ``SolverError`` when the iteration
    fails to converge.
    """
    a = require_matrix(a)
    if not np.any(a):
        raise InputError("cannot factorize the zero matrix")
    try:
        # require_matrix has already rejected non-finite entries
        sigma = scipy.linalg.svd(a, compute_uv=False, check_finite=False,
                                 lapack_driver="gesvd")
        u, _, vt = scipy.linalg.svd(a, full_matrices=True, check_finite=False,
                                    lapack_driver="gesdd")
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SolverError("factorization failed", str(exc)) from exc
    if rank_tolerance is None:
        rank_tolerance = default_rank_tolerance(sigma, a.shape)
    elif not rank_tolerance >= 0.0:
        raise InputError("rank tolerance must be nonnegative")
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
    return float(np.max(live) / np.min(live))
