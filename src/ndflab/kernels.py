"""Gram matrices of the kernel K(xi, eta) = psi(xi+eta) - psi(xi-eta).

For a cnd function psi this kernel is positive definite; for a non-cnd
probe (e.g. |.|^alpha with alpha > 2) its Gram matrix can carry a
negative eigenvalue.  The variance identity ties the Gram quadratic
form with a law's weights to the exact moment gap E psi(X+Y) - E psi(X-Y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, FromTriplet, NdfSpec, as_point, psd_tolerance
from .distributions import DiscreteDistribution, _check_dims, _pair_values

__all__ = [
    "GramResult",
    "gram_matrix",
    "psd_check",
    "sine_decomposition_check",
    "variance_identity",
    "gram_to_csv",
]


@dataclass(frozen=True)
class GramResult:
    """PSD verdict for a symmetric kernel matrix."""

    min_eigenvalue: float
    psd: bool
    tol: float


def gram_matrix(psi, points) -> np.ndarray:
    """Kernel matrix K[i, j] = psi(p_i + p_j) - psi(p_i - p_j) over a point set."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("need a nonempty (k, n) point set")
    if pts.shape[1] != psi.dim:
        raise DimensionMismatch(f"points have dimension {pts.shape[1]}, psi has {psi.dim}")
    mat = _pair_values(psi, pts, 1.0) - _pair_values(psi, pts, -1.0)  # exactly symmetric
    if not np.isfinite(mat).all():
        raise ValueError("Gram matrix has non-finite entries: psi overflows on these points")
    return mat


def psd_check(matrix, tol: float | None = None) -> GramResult:
    """Minimum-eigenvalue PSD verdict for a symmetric matrix, in Python scalars."""
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    scale = float(np.max(np.abs(mat))) if mat.size else 0.0
    if np.max(np.abs(mat - mat.T), initial=0.0) > 1e-12 * max(1.0, scale):
        raise ValueError("matrix is not symmetric")
    tol = float(psd_tolerance(mat.shape[0], scale) if tol is None else tol)
    min_eig = float(np.min(np.linalg.eigvalsh(mat)))
    return GramResult(min_eigenvalue=min_eig, psd=min_eig >= -tol, tol=tol)


def sine_decomposition_check(psi: NdfSpec, xi, eta) -> tuple[float, float]:
    """(direct, decomposed) values of the kernel for a triplet-built psi.

    decomposed = 2 <Q xi, eta> + 2 sum_k sin<xi, u_k> sin<eta, u_k> m_k,
    which must equal psi(xi+eta) - psi(xi-eta).
    """
    if not isinstance(psi, FromTriplet):
        raise TypeError("sine decomposition needs an explicit Levy triplet")
    xi = as_point(xi, psi.dim)
    eta = as_point(eta, psi.dim)
    t = psi.triplet
    decomposed = 2.0 * float(xi @ t.q @ eta)
    for u, m in t.atoms:
        decomposed += 2.0 * m * np.sin(xi @ u) * np.sin(eta @ u)
    vals = psi.eval_many(np.stack([xi + eta, xi - eta]))
    direct = float(vals[0] - vals[1])
    return direct, float(decomposed)


def variance_identity(psi, dist: DiscreteDistribution) -> tuple[float, float, float, float]:
    """(quadratic_form, gap, e_plus, e_minus): w' K w over the law's atoms vs the exact moment gap.

    Both equal the variance of the Gaussian functional integrated against
    the law, so both are nonnegative for cnd psi.  P = psi(x_i + x_j) and
    M = psi(x_i - x_j) are evaluated once each, and e_plus = w'Pw, e_minus
    = w'Mw, gap = e_plus - e_minus (the bits of :func:`exact_gap`) and the
    Gram form w'(P - M)w are one double sum added in two orders.  So this
    checks summation rounding and the sign of the form, not a second route;
    a feature map phi with K(x, y) = <phi(x), phi(y)> would give one.
    """
    _check_dims(psi, dist)
    w = dist.weights
    plus = _pair_values(psi, dist.atoms, 1.0)
    minus = _pair_values(psi, dist.atoms, -1.0)
    e_plus, e_minus = float(w @ plus @ w), float(w @ minus @ w)
    plus -= minus  # the Gram matrix K, in place
    return float(w @ plus @ w), e_plus - e_minus, e_plus, e_minus


def gram_to_csv(matrix) -> str:
    """Row-major CSV with a header row of point indices; each entry is the text of format(v, ".17g")."""
    from . import _csv  # on first use: a command that writes no matrix does not load it

    mat = np.asarray(matrix, dtype=float)
    return _csv.rows(mat, head=",".join(str(i) for i in range(mat.shape[1])) + "\n")
