#!/usr/bin/env python3
"""Monte Carlo counting curves and the two-sided bracketing.

Dirichlet counts bound the state density from below and the ground-state
boundary counts from above, pathwise at equal box size; the normalized
Dirichlet means grow with the box along a doubling chain while the upper
means shrink.  The seeded counter-based sampler makes every curve
reproducible bit for bit.
"""

import numpy as np

from breatherlab import (
    DistributionSpec,
    ModelSpec,
    PeriodicPotentialSpec,
    SingleSiteSpec,
    bracketing_report,
    estimate_ids,
    prepare_model,
)

model0 = ModelSpec(
    d=1,
    vper=PeriodicPotentialSpec(kind="cosine-sum", amplitudes=(0.5,)),
    site=SingleSiteSpec(kind="breather", amplitude=1.0, radius=0.4,
                        lambda_minus=1.0, lambda_plus=2.0),
    dist=DistributionSpec(kind="uniform", lambda_minus=1.0, lambda_plus=2.0),
)
model, gs = prepare_model(model0, 16)
energies = np.linspace(0.5, 8.0, 6)

print("normalized counting estimates, 200 realizations each:")
# Dirichlet ("D") and ground-state ("M") counts on the same realizations, one
# curve per box side from one call
curves = estimate_ids(model, gs, [4, 8, 16], energies, 200, 2718)
for L, cur in curves.items():
    print(f"  L = {L:2d}:  E      N_D        N_M")
    for j, E in enumerate(energies):
        print(f"         {E:4.1f}  {cur.estimates['D'][j]:.5f} "
              f"+- {cur.errors['D'][j]:.5f}  {cur.estimates['M'][j]:.5f} "
              f"+- {cur.errors['M'][j]:.5f}")

rep = bracketing_report(curves)  # reads the curves above, counts nothing
print(f"\npathwise D <= M pairs: "
      f"{rep['pathwise_pairs'] - rep['pathwise_violations']}/{rep['pathwise_pairs']}")
print(f"lower means nondecreasing in L: {rep['lower_monotone']} "
      f"(worst slack {rep['lower_worst_margin']:.2e})")
print(f"upper means nonincreasing in L: {rep['upper_monotone']} "
      f"(worst slack {rep['upper_worst_margin']:.2e})")
print(f"every D below every M per energy: {rep['cross_ordering']}")
