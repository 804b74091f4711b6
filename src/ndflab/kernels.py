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
from .distributions import DiscreteDistribution, _pair_values, exact_gap

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

    matrix: np.ndarray
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
    mat = _pair_values(psi, pts, 1.0) - _pair_values(psi, pts, -1.0)
    return 0.5 * (mat + mat.T)  # remove round-off asymmetry


def psd_check(matrix, tol: float | None = None) -> GramResult:
    """Minimum-eigenvalue PSD verdict for a symmetric matrix."""
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    scale = float(np.max(np.abs(mat))) if mat.size else 0.0
    if np.max(np.abs(mat - mat.T), initial=0.0) > 1e-12 * max(1.0, scale):
        raise ValueError("matrix is not symmetric")
    if tol is None:
        tol = psd_tolerance(mat.shape[0], scale)
    min_eig = float(np.min(np.linalg.eigvalsh(mat)))
    return GramResult(matrix=mat, min_eigenvalue=min_eig, psd=min_eig >= -tol, tol=tol)


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


def variance_identity(psi, dist: DiscreteDistribution) -> tuple[float, float]:
    """(quadratic_form, gap): w' K w over the law's atoms vs the exact moment gap.

    Both equal the variance of the Gaussian functional integrated
    against the law, hence agree and are nonnegative for cnd psi.
    """
    mat = gram_matrix(psi, dist.atoms)
    w = dist.weights
    quad = float(w @ mat @ w)
    return quad, exact_gap(psi, dist)


def gram_to_csv(matrix) -> str:
    """Row-major CSV with a header row of point indices."""
    mat = np.asarray(matrix, dtype=float)
    line = ",".join(["%.17g"] * mat.shape[1]) + "\n"  # the digits of format(v, ".17g")
    header = ",".join(str(i) for i in range(mat.shape[1])) + "\n"
    return header + "".join(line % tuple(row.tolist()) for row in mat)
