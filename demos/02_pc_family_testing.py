"""FDR control over a family of partial conjunction hypotheses.

Hypotheses are organized into groups; for each group g we test "at least
u_g member hypotheses are false" via a partial conjunction p-value, then
run a weighted step-up procedure over the groups. The weighted false
discovery rate of the group-level claims is controlled at the nominal
level under the documented dependence conditions.
"""

import numpy as np

from pcfdr import (
    SIMES,
    GroupLayout,
    ThresholdCollection,
    WeightScheme,
    compute_pc_pvalues,
    realized_weighted_fdp,
    step_up,
)

rng = np.random.default_rng(1)

# 6 groups of 4 hypotheses; the first two groups carry signal.
# labels[i] is the group of hypothesis i.
labels = np.repeat(np.arange(6), 4)
p = rng.random(24)
p[0:4] = rng.random(4) * 1e-4   # group 0: all four false nulls
p[4:6] = rng.random(2) * 1e-4   # group 1: two false nulls
layout = GroupLayout(labels, u=np.full(6, 2))

pc = compute_pc_pvalues(p, layout, SIMES)
print("PC p-values per group (u = 2):")
for g, value in enumerate(pc):
    print(f"  group {g}: {value:.6f}")

ws = WeightScheme.unit(len(layout.u))
tc = ThresholdCollection(alpha=0.05, m=len(layout.u), weights=ws)
result = step_up(pc, tc)
print(f"\nrejected groups at alpha=0.05: {sorted(result.indices)}")

# Scoring against the ground truth (groups 2..5 have fewer than u=2
# false nulls, so their PC nulls are true).
true_nulls = {2, 3, 4, 5}
fdp = realized_weighted_fdp(result.indices, true_nulls, ws.penalty_v)
print(f"realized weighted FDP: {fdp:.3f}")
