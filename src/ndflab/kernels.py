"""Gram matrices of the kernel K(xi, eta) = psi(xi+eta) - psi(xi-eta).

For a cnd function psi this kernel is positive definite; for a non-cnd
probe (e.g. |.|^alpha with alpha > 2) its Gram matrix can carry a
negative eigenvalue.  The variance identity ties the Gram quadratic
form with a law's weights to the exact moment gap E psi(X+Y) - E psi(X-Y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, psd_tolerance
from .distributions import DiscreteDistribution, _check_dims, _forms, _pair_tiles

__all__ = [
    "GramResult",
    "gram_matrix",
    "psd_check",
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
    """Kernel matrix K[i, j] = psi(p_i + p_j) - psi(p_i - p_j) over a point set.

    Filled from the pair engine's tiles, each mirrored into the lower
    triangle, so K is exactly symmetric and the only k x k array.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("need a nonempty (k, n) point set")
    if pts.shape[1] != psi.dim:
        raise DimensionMismatch(f"points have dimension {pts.shape[1]}, psi has {psi.dim}")
    k = pts.shape[0]
    mat = np.empty((k, k))
    for a, b, plus, tile in _pair_tiles(psi, pts, 1.0, -1.0):
        np.subtract(plus, tile, out=tile)
        if not np.isfinite(tile).all():
            raise ValueError("Gram matrix has non-finite entries: psi overflows on these points")
        mat[a:, a:b] = tile.T  # mirror first, so the diagonal block keeps
        mat[a:b, a:] = tile  # the values evaluated at (i, j) themselves
    return mat


def psd_check(matrix, tol: float | None = None) -> GramResult:
    """Minimum-eigenvalue PSD verdict for a symmetric matrix, in Python scalars.

    The asymmetry ``|A - A'|`` is taken 4096 values at a time, so the one
    matrix-sized array beside the matrix is ``eigvalsh``'s own copy.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(float(mat.max()), -float(mat.min())) if mat.size else 0.0
    step = max(1, 4096 // max(len(mat), 1))  # heap-sized blocks: larger ones, mapped and unmapped, raise peak RSS
    asym = [np.max(np.abs(mat[a:a + step] - mat[:, a:a + step].T)) for a in range(0, len(mat), step)]
    if np.max(asym, initial=0.0) > 1e-12 * max(1.0, scale):  # a NaN passes, as in one max over A - A'
        raise ValueError("matrix is not symmetric")
    tol = float(psd_tolerance(mat.shape[0], scale) if tol is None else tol)
    min_eig = float(np.min(np.linalg.eigvalsh(mat)))
    return GramResult(min_eigenvalue=min_eig, psd=min_eig >= -tol, tol=tol)


def variance_identity(psi, dist: DiscreteDistribution) -> tuple[float, float, float, float]:
    """(quadratic_form, gap, e_plus, e_minus): w' K w over the law's atoms vs the exact moment gap.

    Both are nonnegative for cnd psi.  Each pair-engine step gives tiles of
    P = psi(x_i + x_j) and M = psi(x_i - x_j), reduced as in
    :func:`exact_expectation` to e_plus = w'Pw and e_minus = w'Mw (its
    bits) and the form w'(P - M)w.  The form and the gap are one double
    sum added in two orders: this checks rounding and the form's sign, not
    a second route.
    """
    _check_dims(psi, dist)
    tiles = _pair_tiles(psi, dist.atoms, 1.0, -1.0)
    e_plus, e_minus, quad = _forms(dist.weights, ((a, b, p, m, p - m) for a, b, p, m in tiles))
    return quad, e_plus - e_minus, e_plus, e_minus


def gram_to_csv(matrix, start: int = 0, stop: int | None = None) -> str:
    """Rows ``start:stop`` of the row-major CSV of ``matrix``; each entry is the text of format(v, ".17g").

    The CSV's first line, a header of point indices, comes with row 0, so
    the texts of consecutive row blocks join into the whole CSV.
    """
    from . import _csv  # on first use: a command that writes no matrix does not load it

    mat = np.asarray(matrix, dtype=float)
    head = ",".join(str(i) for i in range(mat.shape[1])) + "\n" if start == 0 else ""
    return _csv.rows(mat[start:stop], head=head)
