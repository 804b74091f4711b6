"""Tour of the moment inequality E psi(X-Y) <= E psi(X+Y).

Builds a few cnd functions (Levy triplets, Euclidean powers, Bernstein
subordinations), evaluates both sides exactly on small discrete laws and
on one four-variable signed sum, and confirms them statistically with the
seeded Monte Carlo engine.

Run:  python3 demos/inequality_tour.py
"""

import numpy as np

from ndflab import (
    DiscreteDistribution,
    DiscreteSampler,
    EuclideanPower,
    FromTriplet,
    GaussianIso,
    LevyTriplet,
    Log1p,
    Power,
    Subordinated,
    convolution_power,
    exact_expectation,
    exact_gap,
    eval_psi,
    mc_inequality_verdict,
    metric_dpsi,
)

# --- a small zoo of cnd functions ------------------------------------------

abs_power = EuclideanPower(1.0, 1)  # psi(x) = |x|
quad = FromTriplet(LevyTriplet(q=2.0 * np.eye(1)))  # psi(x) = x^2
cosine = FromTriplet(LevyTriplet(q=np.zeros((1, 1)), atoms=(([1.0], 1.0),)))
log_sub = Subordinated(Log1p(), quad)  # psi(x) = log(1 + x^2)
root_sub = Subordinated(Power(0.5), quad)  # psi(x) = |x|, via subordination

print("psi(3) for five cnd functions:")
for name, psi in [("|x|", abs_power), ("x^2", quad), ("1-cos(x)", cosine),
                  ("log(1+x^2)", log_sub), ("sqrt(x^2)", root_sub)]:
    print(f"  {name:12s} -> {eval_psi(psi, 3.0):.6f}")

print(f"\nmetric d_psi(4, 0) for |x|: {metric_dpsi(abs_power, 4.0, 0.0)}  (= sqrt(4))")

# --- exact verification on a discrete law -----------------------------------

bernoulli = DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
print("\nBernoulli(1/2) on {0,1}, psi = |x|:")
e_plus, e_minus = exact_expectation(abs_power, bernoulli)  # one walk over the atom pairs gives both
print(f"  E|X-Y| = {e_minus}")
print(f"  E|X+Y| = {e_plus}")
for name, psi in [("x^2", quad), ("1-cos(x)", cosine), ("log(1+x^2)", log_sub)]:
    print(f"  gap for {name:12s}: {exact_gap(psi, bernoulli):+.6f}  (always >= 0)")

# signs ++-- on four i.i.d. copies: X1 + X2 - X3 - X4 = S - S' for S, S' i.i.d. sums of two copies
print(f"  E|X1+X2+X3+X4| - E|X1+X2-X3-X4| = {exact_gap(abs_power, convolution_power(bernoulli, 2))}")

# --- Monte Carlo for continuous laws ----------------------------------------

gauss = GaussianIso(1, 1.0, [0.0])
pair = mc_inequality_verdict(abs_power, gauss, 10**6, seed=7)
est_minus, est_plus = pair.est_minus, pair.est_plus
print(f"\nGaussian X, Y ~ N(0,1), psi = |x|, N = {pair.n_used} shared draws:")
print(f"  E|X-Y| ~ {est_minus.mean:.6f} +- {est_minus.stderr:.6f}")
print(f"  E|X+Y| ~ {est_plus.mean:.6f} +- {est_plus.stderr:.6f}")
print(f"  exact value 2/sqrt(pi) = {2 / np.sqrt(np.pi):.6f}")

skewed = DiscreteSampler(DiscreteDistribution(np.array([[0.0], [5.0]]), np.array([0.8, 0.2])))
verdict = mc_inequality_verdict(log_sub, skewed, 10**5, seed=8)
print(f"\nverdict for log(1+x^2) on a skewed two-point law: {verdict.kind}"
      f"  (z = {verdict.z_score:+.2f})")
