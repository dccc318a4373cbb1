"""Monte Carlo verification of the error-control guarantees.

Simulates the meta-analysis model (independent studies; within each study
either independent, positively equicorrelated, or negatively correlated
block dependence across features), then estimates the realized error
rates and compares them with their theoretical bounds.
"""

from pcfdr import (
    SIMES,
    SelectionRule,
    SimulationScenario,
    ThresholdCollection,
    WeightScheme,
    dcc_probe,
    mc_fdr_pc,
    mc_replicability_error,
)

scenario = SimulationScenario(
    m=50, n=5, true_k=(3,) * 15 + (0,) * 35, mu=3.0,
    rho=0.5, dependence="equicorrelated_prds", reps=500, seed=42,
)
ws = WeightScheme.unit(scenario.m)

# FDR over the family of partial conjunction hypotheses at u = 2.
tc = ThresholdCollection(alpha=0.05, m=scenario.m, weights=ws)
est = mc_fdr_pc(scenario, 2, SIMES, tc)
bound = 0.05 * 35 / 50
print(f"FDR_PC estimate: {est.mean:.4f} +/- {est.se:.4f} "
      f"(bound alpha*|M0|/m = {bound:.4f})")

# Replicability error of the two-step procedure at q = 0.1.
rule = SelectionRule("step_up_on_combined", alpha=0.1)
est = mc_replicability_error(scenario, rule, SIMES, ws, q=0.1)
print(f"replicability error estimate: {est.mean:.4f} +/- {est.se:.4f} "
      f"(bound q = 0.1)")

# Dependency control probe: E[1(U <= c V)/V] <= c for a true-null
# feature's PC p-value U and the rejection volume V.
print("\ndependency control probe (Simes, rejection volume):")
for c, est in dcc_probe(scenario, 2, SIMES, [0.05, 0.1, 0.2]):
    print(f"  c={c}: estimate {est.mean:.4f} +/- {est.se:.4f}")

print("\nThe same checks run from the command line:")
print("  pcfdr verify --scenario scenarios/reference.json")
