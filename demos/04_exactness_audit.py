"""Audit the finite-sample guarantee of the randomization test.

On a space small enough to enumerate, every estimable relabeling is
treated in turn as the observed assignment and its exact p-value is
computed against the full space.  The audit reports the law of those
p-values: each attainable level with the number of relabelings at it.
Under the sharp null the assignment is uniform over that space, so
P(p <= alpha) can never exceed alpha; with continuous outcomes the
p-values land exactly on the attainable grid.
"""

import didperm as dp

scheme = dp.RandomizationScheme(dp.Margins.AFFECTED_ONLY, dp.Mode.FIXED_MARGINS)
report = dp.exactness_audit(n=6, n_affected=3, n_time=3, scheme=scheme, outcome_seed=5)

print(f"space: {report.total_relabelings} relabelings, "
      f"{report.estimable_relabelings} estimable")
print("law of the exact p-value over the space (level: relabelings attaining it):")
for level, count in zip(report.p_levels.tolist(), report.level_counts.tolist()):
    print(f"  {level:.4f}: {count}")

print("\nvalidity P(p <= alpha) <= alpha:")
print(f"{'alpha':>8s} {'P(p <= alpha)':>14s} {'violation':>10s}")
for alpha in (0.01, 0.05, 0.10, 0.25, 0.5):
    rate = report.rejection_rate(alpha)
    print(f"{alpha:>8.2f} {rate:>14.4f} {rate - alpha:>10.4f}")
print(f"worst violation over all attainable levels: {report.worst_violation():.2e}")

print("\nthe same audit under Bernoulli(1/2) relabeling (all 2^n vectors):")
bern = dp.RandomizationScheme(dp.Margins.AFFECTED_ONLY, dp.Mode.BERNOULLI)
bern_report = dp.exactness_audit(n=6, n_affected=3, n_time=3, scheme=bern, outcome_seed=5)
print(f"space: {bern_report.total_relabelings} relabelings, "
      f"{bern_report.estimable_relabelings} estimable, "
      f"worst violation {bern_report.worst_violation():.2e}")
