"""Where the inequality breaks: |x|^alpha with alpha > 2.

Walks the two-point family P(X=1)=p, P(X=-M)=q with q=c/M: the closed
form for E|X-Y|^alpha - E|X+Y|^alpha, its agreement with brute-force
enumeration, the scan for the smallest violating M, plus the alpha = 1
tail identity and the alpha = infinity essential-bound case where the
inequality still holds.

Run:  python3 demos/counterexample_walkthrough.py
"""

import numpy as np

from ndflab import (
    CounterexampleParams,
    CounterexampleSampler,
    RawAbsPower,
    counterexample_distribution,
    counterexample_gap_closed_form,
    counterexample_search,
    ess_bounds_check,
    exact_gap,
    mc_inequality_verdict,
    tail_integral,
)

params = CounterexampleParams(alpha=3.0, c=1.0, m=10.0)
law = counterexample_distribution(params)
print(f"two-point law: atoms {law.atoms[:, 0]}, weights {law.weights}")

gap = counterexample_gap_closed_form(params)
oracle = -exact_gap(RawAbsPower(3.0), law)
print(f"E|X-Y|^3 - E|X+Y|^3 closed form: {gap:.6f}, enumeration: {oracle:.6f}")
print("positive gap -> the inequality FAILS for alpha = 3\n")

# smallest violating M as alpha and c vary
grid = np.arange(1.0, 10001.0)
print("smallest violating M on the grid 1..10^4:")
for alpha, c in [(3.0, 1.0), (2.5, 0.8), (2.1, 1.0), (4.0, 0.5), (2.0001, 1.0)]:
    m = counterexample_search(alpha, c, grid[grid >= max(c, 1.0)])
    cond = c < 2 ** (2 - alpha) * alpha
    print(f"  alpha={alpha:<7} c={c:<4} sufficient condition met: {cond!s:5}  M = {m}")
print("  (as alpha -> 2, violations survive only for c near 1, at large M)\n")

# the same violation seen statistically
verdict = mc_inequality_verdict(RawAbsPower(3.0), CounterexampleSampler(params), 10**6, seed=1)
print(f"Monte Carlo verdict, capped at N=10^6: {verdict.kind} (z = {verdict.z_score:.1f}"
      f" after {verdict.n_used} draws)\n")

# alpha = 1: the elementary tail-integral identity
lhs, rhs = exact_gap(RawAbsPower(1.0), law), tail_integral(law)
print(f"alpha = 1 identity: E|X+Y| - E|X-Y| = {lhs:.10f}")
print(f"  2 int_0^inf [P(X>r) - P(X<-r)]^2 dr = {rhs:.10f}\n")

# alpha = infinity: essential bounds
diff_sup, sum_sup = ess_bounds_check(law)
print(f"alpha = inf: ess sup|X-Y| = {diff_sup} <= ess sup|X+Y| = {sum_sup}")
