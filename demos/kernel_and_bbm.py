"""The kernel psi(xi+eta) - psi(xi-eta) and bifractional Brownian motion.

Shows that the kernel's Gram matrices are PSD for cnd psi (and not for
|x|^3), that the Gram quadratic form with a law's weights reproduces
the exact moment gap (it is a Gaussian variance), and that for
psi = |x|^alpha the kernel is the covariance of a signed, scaled
bifractional Brownian motion B^{1/2, alpha} -- verified by exact grid
sampling.

Run:  python3 demos/kernel_and_bbm.py
"""

import numpy as np

from ndflab import (
    BbmParams,
    DiscreteDistribution,
    EuclideanPower,
    RawAbsPower,
    bbm_cov_matrix,
    bbm_sample_paths,
    empirical_covariance,
    gram_matrix,
    psd_check,
    variance_identity,
)

abs_power = EuclideanPower(1.0, 1)

# --- Gram matrices -----------------------------------------------------------

pts = [[1.0], [-10.0]]
mat = gram_matrix(abs_power, pts)
res = psd_check(mat)
print(f"Gram of K for |x| at {{1, -10}}:\n{mat}")
print(f"  min eigenvalue {res.min_eigenvalue:+.6f} -> PSD: {res.psd}")

bad = psd_check(gram_matrix(RawAbsPower(3.0), pts))
print(f"Gram of the |x|^3 probe at the same points:"
      f" min eigenvalue {bad.min_eigenvalue:+.2f} -> PSD: {bad.psd}")
print("  (the negative direction is exactly the alpha = 3 counterexample)\n")

# --- variance identity -------------------------------------------------------

law = DiscreteDistribution(np.array([[0.0], [1.0], [3.0]]), np.array([0.2, 0.3, 0.5]))
quad, gap = variance_identity(abs_power, law)[:2]
print(f"variance identity: w'Kw = {quad:.10f}, E|X+Y| - E|X-Y| = {gap:.10f}\n")

# --- bifractional Brownian motion -------------------------------------------

alpha = 1.5
params = BbmParams(h=0.5, k=alpha)
# on times t, s >= 0 the signs drop out: 2^alpha R^{1/2, alpha} is the Gram matrix of |x|^alpha
times = np.linspace(0.0, 3.0, 25)
cov = 2.0**alpha * bbm_cov_matrix(params, times)
gram = gram_matrix(EuclideanPower(alpha, 1), times)
print(f"kernel/bBm identity for alpha = {alpha}: worst |2^alpha R - K| on a grid"
      f" = {np.abs(cov - gram).max():.2e} (largest entry {np.abs(gram).max():.2f})")

grid = np.linspace(0.25, 2.0, 8)
paths = bbm_sample_paths(params, grid, n_paths=50_000, seed=3)  # one row per path
emp = empirical_covariance(paths)
analytic = bbm_cov_matrix(params, grid)
err = np.abs(emp - analytic).max()
print(f"sampled 50k B^(1/2, {alpha}) paths: max |empirical - analytic| covariance = {err:.4f}")
print(f"  (diagonal variance at t=2: analytic {analytic[-1, -1]:.4f},"
      f" empirical {emp[-1, -1]:.4f})")

# K > 1 needs the extended existence domain
ext = BbmParams(h=0.6, k=1.5)
paths = bbm_sample_paths(ext, grid, n_paths=50_000, seed=4)
print(f"\n(H, K) = (0.6, 1.5) with H*K <= 1 also samples fine:"
      f" var at t=2 = {empirical_covariance(paths)[-1, -1]:.4f}"
      f" vs analytic {bbm_cov_matrix(ext, grid)[-1, -1]:.4f}")
