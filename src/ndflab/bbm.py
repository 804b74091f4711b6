"""Bifractional Brownian motion: covariance and exact grid sampling.

The centred Gaussian process B^{H,K} has covariance

    R(t, s) = 2**(-K) * ((t**(2H) + s**(2H))**K - |t - s|**(2HK)),

and exists for (H, K) in D = {0 < H <= 1, 0 < K <= 2, H*K <= 1}.  With
H = 1/2 and K = alpha in (0, 2], the signed and scaled process
2**(alpha/2) * sgn(xi) * B_{|xi|} has covariance |xi+eta|^alpha - |xi-eta|^alpha,
i.e. exactly the kernel of ``|.|^alpha`` from the kernel lab: on times
t, s >= 0, ``2**alpha * bbm_cov_matrix`` is the Gram matrix of
``EuclideanPower(alpha, 1)``.  Sampled paths are a plain
``(n_paths, len(grid))`` array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import psd_tolerance

__all__ = [
    "BbmParams",
    "bbm_covariance",
    "bbm_cov_matrix",
    "bbm_sample_paths",
    "empirical_covariance",
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


_COV_ROWS = 64  # rows of |t - s|^(2HK) held at a time while the covariance is built
_ROOT_BLOCK = 128  # columns per block of the in-place Cholesky factorisation
_DRAW_BLOCK = 19200  # path values drawn at a time, or one row: four blocks of the CSV formatter


def _check_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("grid must be a nonempty 1-d sequence")
    if not np.isfinite(g).all():
        raise ValueError("grid times must be finite")
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
    """Covariance matrix R(t_i, t_j) over a time grid.

    The matrix is built in its own array, ``_COV_ROWS`` rows at a time, by
    the elementwise operations of ``_cov``: so it equals ``_cov`` on the
    grid bit for bit and is exactly symmetric, and its only other memory is
    one block of ``|t - s|^(2HK)``.
    """
    g = _check_grid(grid)
    h, k = params.h, params.k
    t2h = g ** (2 * h)
    cov = np.add.outer(t2h, t2h)
    buf = np.empty((min(_COV_ROWS, g.size), g.size))
    for a in range(0, g.size, _COV_ROWS):
        block = cov[a:a + _COV_ROWS]
        block **= k
        dist = np.subtract(g[a:a + _COV_ROWS, None], g, out=buf[:len(block)])
        np.abs(dist, out=dist)
        dist **= 2 * h * k
        block -= dist
        block *= 2.0 ** (-k)
        if not np.isfinite(block).all():
            raise ValueError("bBm covariance matrix has non-finite entries: the grid times overflow it")
    return cov


def _psd_root(build):
    """(root, route, clipped): L with L @ L.T the covariance ``build()`` up to rounding.

    Route "cholesky" overwrites the matrix with its lower Cholesky factor,
    blocked and right-looking as LAPACK's potrf: numpy's ``cholesky`` on a
    diagonal block, a solve for the panel below it, then the panel's outer
    product off the trailing lower triangle a block column at a time, so
    the temporaries are a panel and one block column.  Where a block breaks
    down (HK = 1 gives R(t, s) = t s), the covariance is built again, with
    the same bits, for route "eigh": the eigenvectors scaled by the square
    roots of the eigenvalues, ``clipped`` of them in [-tol, 0) clipped to
    zero; anything below -tol raises.
    """
    a = build()
    try:
        for j in range(0, len(a), _ROOT_BLOCK):
            e = j + _ROOT_BLOCK
            a[j:e, j:e] = np.linalg.cholesky(a[j:e, j:e])
            a[j:e, e:] = 0.0
            a[e:, j:e] = np.linalg.solve(a[j:e, j:e], a[e:, j:e].T).T
            panel = a[e:, j:e]
            for c in range(e, len(a), _ROOT_BLOCK):
                a[c:, c:c + _ROOT_BLOCK] -= panel[c - e:] @ panel[c - e:c - e + _ROOT_BLOCK].T
        return a, "cholesky", 0
    except np.linalg.LinAlgError:
        del a
    cov = build()
    eigvals, root = np.linalg.eigh(cov)
    tol = psd_tolerance(cov.shape[0], max(float(cov.diagonal().max()), 1.0))
    if eigvals.min() < -tol:
        raise ValueError(f"covariance indefinite (min eigenvalue {eigvals.min():.3e} < -{tol:.3e})")
    root *= np.sqrt(np.clip(eigvals, 0.0, None))  # the eigenvectors, scaled in place
    return root, "eigh", int(np.count_nonzero(eigvals < 0.0))


def bbm_sample_paths(params: BbmParams, grid, n_paths: int, seed: int, *, stream: bool = False):
    """Exact Gaussian sampling on a grid: standard normals times a root of the covariance.

    Returns an (n_paths, len(grid)) array: row i is path i at the grid
    times.  The root (see :func:`_psd_root`) takes the covariance's place.
    Since R(0, .) = 0, a grid from t = 0 builds the covariance of its later
    times only, and its paths start at 0 exactly.  One generator draws the
    paths, ``_DRAW_BLOCK`` values at a time from the seed's Philox stream
    in row order, and fills the array.  With ``stream`` no path is held:
    the call returns (route, clipped, blocks), blocks being that generator
    of (start, rows), each valid until the next is drawn.
    """
    g = _check_grid(grid)
    if n_paths < 1:
        raise ValueError("need at least one path")
    lo = 1 if g[0] == 0.0 < g[-1] else 0  # R(0, .) = 0: column 0 stays 0
    root, route, clipped = _psd_root(lambda: bbm_cov_matrix(params, g[lo:]))

    def blocks():
        step = min(n_paths, max(1, _DRAW_BLOCK // g.size))
        z, rows = np.empty((step, len(root))), np.zeros((step, g.size))
        rng = np.random.Generator(np.random.Philox(key=seed))
        for start in range(0, n_paths, step):
            block = z[:n_paths - start]
            rng.standard_normal(out=block)
            np.matmul(block, root.T, out=rows[:len(block), lo:])
            yield start, rows[:len(block)]

    if stream:
        return route, clipped, blocks()
    paths = np.empty((n_paths, g.size))
    for start, rows in blocks():
        paths[start:start + len(rows)] = rows
    return paths


def empirical_covariance(paths) -> np.ndarray:
    """Unbiased sample covariance across the rows of a paths array, per grid-point pair."""
    if len(paths) < 2:
        raise ValueError("need at least two paths")
    return np.cov(paths, rowvar=False, ddof=1)


def paths_to_csv(grid, paths, start: int = 0) -> str:
    """CSV lines of ``paths``, the rows from row ``start`` on, after a line of the grid times when start is 0.

    Each entry is the text of format(v, ".17g").  The whole CSV is the grid
    times, then one line per path; the texts of consecutive row blocks,
    each with the index of its first row, join into it.
    """
    from . import _csv  # on first use: a command that writes no matrix does not load it

    head = _csv.rows(np.asarray(grid, dtype=float)[None, :]) if start == 0 else ""
    return _csv.rows(paths, head=head)
