"""Bifractional Brownian motion: covariance, exact grid sampling, kernel identity.

The centred Gaussian process B^{H,K} has covariance

    R(t, s) = 2**(-K) * ((t**(2H) + s**(2H))**K - |t - s|**(2HK)),

and exists for (H, K) in D = {0 < H <= 1, 0 < K <= 2, H*K <= 1}.  With
H = 1/2 and K = alpha in (0, 2], the signed and scaled process
2**(alpha/2) * sgn(xi) * B_{|xi|} has covariance |xi+eta|^alpha - |xi-eta|^alpha,
i.e. exactly the kernel of ``|.|^alpha`` from the kernel lab.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import psd_tolerance

__all__ = [
    "BbmParams",
    "GridPath",
    "bbm_covariance",
    "bbm_cov_matrix",
    "bbm_sample_paths",
    "empirical_covariance",
    "kernel_bbm_identity_gap",
    "paths_to_csv",
]


@dataclass(frozen=True)
class BbmParams:
    """(H, K) in the existence domain 0 < H <= 1, 0 < K <= 2, H*K <= 1."""

    h: float
    k: float

    def __post_init__(self):
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "k", float(self.k))
        if not (0.0 < self.h <= 1.0):
            raise ValueError(f"H must lie in (0, 1], got {self.h}")
        if not (0.0 < self.k <= 2.0):
            raise ValueError(f"K must lie in (0, 2], got {self.k}")
        if self.h * self.k > 1.0:
            raise ValueError(f"H*K must be <= 1, got {self.h * self.k}")


@dataclass(frozen=True)
class GridPath:
    """Sampled paths on a time grid: values[i, j] = path i at grid[j]."""

    grid: np.ndarray  # (m,)
    values: np.ndarray  # (n_paths, m)
    seed: int

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or values.ndim != 2 or values.shape[1] != grid.shape[0]:
            raise ValueError("values must be (n_paths, len(grid))")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]


def _check_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("grid must be a nonempty 1-d sequence")
    if g[0] < 0 or np.any(np.diff(g) <= 0):
        raise ValueError("grid must be strictly increasing with nonnegative times")
    return g


def bbm_covariance(params: BbmParams, t: float, s: float) -> float:
    """R(t, s) for scalar times t, s >= 0."""
    if t < 0 or s < 0:
        raise ValueError("times must be nonnegative")
    return float(_cov(params, np.array([t]), np.array([s]))[0])


def _cov(params: BbmParams, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    h, k = params.h, params.k
    return 2.0 ** (-k) * (
        (t ** (2 * h) + s ** (2 * h)) ** k - np.abs(t - s) ** (2 * h * k)
    )


def bbm_cov_matrix(params: BbmParams, grid) -> np.ndarray:
    """Covariance matrix R(t_i, t_j) over a time grid."""
    g = _check_grid(grid)
    cov = _cov(params, g[:, None], g[None, :])  # symmetric bit for bit
    if not np.isfinite(cov).all():
        raise ValueError("bBm covariance matrix has non-finite entries: the grid times overflow it")
    return cov


def bbm_sample_paths(params: BbmParams, grid, n_paths: int, seed: int) -> GridPath:
    """Exact Gaussian sampling on a grid via eigendecomposition of the covariance.

    Eigenvalues in [-tol, 0) are clipped to zero (the covariance is
    numerically semi-definite near the boundary of the existence
    domain); anything below -tol raises.
    """
    g = _check_grid(grid)
    if n_paths < 1:
        raise ValueError("need at least one path")
    cov = bbm_cov_matrix(params, g)
    eigvals, eigvecs = np.linalg.eigh(cov)
    tol = psd_tolerance(g.size, max(float(cov.diagonal().max()), 1.0))
    if eigvals.min() < -tol:
        raise ValueError(
            f"covariance indefinite (min eigenvalue {eigvals.min():.3e} < -{tol:.3e})"
        )
    root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal((n_paths, g.size))
    values = z @ root.T
    if g[0] == 0.0:
        values[:, 0] = 0.0  # R(0, .) = 0, paths start at the origin exactly
    return GridPath(grid=g, values=values, seed=seed)


def empirical_covariance(paths: GridPath) -> np.ndarray:
    """Unbiased sample covariance across paths, per grid-point pair."""
    if paths.n_paths < 2:
        raise ValueError("need at least two paths")
    return np.cov(paths.values, rowvar=False, ddof=1)


def _sgn(x: float) -> float:
    return float(np.sign(x))


def kernel_bbm_identity_gap(alpha: float, xi: float, eta: float) -> float:
    """|2^alpha sgn(xi) sgn(eta) R^{1/2,alpha}(|xi|,|eta|) - (|xi+eta|^alpha - |xi-eta|^alpha)|."""
    if not (0.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    params = BbmParams(h=0.5, k=alpha)
    lhs = 2.0**alpha * _sgn(xi) * _sgn(eta) * bbm_covariance(params, abs(xi), abs(eta))
    rhs = abs(xi + eta) ** alpha - abs(xi - eta) ** alpha
    return abs(lhs - rhs)


def paths_to_csv(paths: GridPath) -> str:
    """CSV with the grid times as the first row, one path per subsequent row.

    Each entry is the text of format(v, ".17g").
    """
    from . import _csv  # on first use: a command that writes no matrix does not load it

    return _csv.rows(paths.values, head=_csv.rows(paths.grid[None, :]))
