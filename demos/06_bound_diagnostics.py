"""Diagnostics for the target-error upper bound.

The aggregated model's target cross-entropy is bounded by the weighted sum,
over sources, of: the model's own source error, the distance between its
target and source embedding clouds, a sample-complexity term, and the error
of a jointly trained reference model. The first inequality in the chain is
pure convexity (mixing distributions can't hurt log-loss more than the
weighted mean), so it holds pixel for pixel; the rest is measured here in
oracle mode, where target labels may be read for evaluation.
"""

import numpy as np

from fedseg.benchmark import run_benchmark

bench = run_benchmark(seed=0, corrupted=False, with_bound=True)
result = bench.result

print("per-source bound terms (cross-entropy as the error functional):")
print(f"{'source':8s} {'src CE':>8s} {'swd':>8s} {'complexity':>10s} {'joint CE':>9s} {'weight':>7s}")
for term, w in zip(bench.bound, result.weights.weights):
    print(f"{term.source_id:8s} {term.source_ce:8.4f} {term.swd_term:8.4f} "
          f"{term.complexity:10.4f} {term.joint_ce:9.4f} {w:7.3f}")

print(f"\nmeasured ensemble target CE (left side):  {bench.bound_lhs:.4f}")
print(f"measured bound value (right side):        {bench.bound_rhs:.4f}")
print(f"bound holds: {bench.bound_lhs <= bench.bound_rhs}")

# The convexity step alone, checked directly on one pixel distribution:
w = np.array([0.6, 0.4])
p = np.array([[0.7, 0.3], [0.2, 0.8]])
mix = w @ p
print(f"\nconvexity on one pixel (true class 0): "
      f"-log(mix) = {-np.log(mix[0]):.4f} <= "
      f"weighted CE = {float(w @ -np.log(p[:, 0])):.4f}")
