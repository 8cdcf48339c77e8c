"""Run the doubly randomized significance test end to end.

We build a small panel shaped like the brand-search benchmark (a treated
brand whose search interest jumps after a public statement, a control
brand that barely moves), estimate the DiD coefficient, and compare it
against the null distribution obtained by relabeling both the group and
period indicators while holding outcomes fixed.
"""

import didperm as dp

sample = dp.make_fixture(dp.BRAND_SEARCH, per_cell=10)

print("cell means of the panel:")
print(dp.summarize(sample))

observed = dp.did_from_means(dp.compute_cell_means(sample))
print(f"\nobserved DiD coefficient: {observed:.4f}")

scheme = dp.RandomizationScheme(dp.Margins.DUAL, dp.Mode.FIXED_MARGINS)
null = dp.simulate_null(sample, scheme, iterations=15_000, master_seed=42)
result = dp.test_significance(observed, null, alpha=0.05)

print(f"null 95% interval: ({result.lower:.4f}, {result.upper:.4f})")
print(f"p-value: {result.p_value:.4f}  (corrected {result.p_value_corrected:.4f})")
print("decision:", "reject H0" if result.reject else "do not reject H0")

print("\nnull distribution sketch (20 equal-width bins):")
for lo, hi, count in dp.make_histogram(null, bins=20):
    bar = "#" * max(1, count // 60) if count else ""
    print(f"  [{lo:+7.3f}, {hi:+7.3f})  {count:5d} {bar}")
