#!/usr/bin/env python3
"""The ground-state (Mezincescu) boundary condition and its gap.

With a cosine background the periodic unit-cell ground state psi is not
constant; folding its ghost ratios into the boundary diagonal makes the
periodized psi an exact eigenvector of every boxed operator, pinning the
ground level at the same energy for all box sizes.  The second level then
clears the first by roughly epsilon0 / L^2.
"""

import numpy as np

from breatherlab import (
    DistributionSpec,
    GridSpec,
    ModelSpec,
    PeriodicPotentialSpec,
    SingleSiteSpec,
    assemble,
    fit_gap_constant,
    ground_state_box,
    lowest_eigenvalues,
    mezincescu_correction,
    periodic_levels,
    periodized_ground_state,
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
print(f"unit-cell ground state: energy {gs.energy:.2e} after normalization, "
      f"range [{gs.c3:.4f}, {gs.c4:.4f}]")

print("\nexactness across box sizes (eigenvector residual, ground level):")
for L in (2, 4, 6, 8):
    grid = GridSpec(L=L, n=16)
    H = assemble(model, grid, mezincescu_correction(gs, grid))
    psi = periodized_ground_state(gs, grid)
    resid = np.linalg.norm(H.matrix @ psi - gs.energy * psi)
    e1 = lowest_eigenvalues(H, 1).energies[0]
    print(f"  L = {L}: residual {resid:.2e}, E1 = {e1: .2e}")

gap = fit_gap_constant({L: periodic_levels(ground_state_box(model, gs, GridSpec(L=L, n=16)))
                        for L in range(2, 11)})
print(f"\ngap scaling over L = 2..10: epsilon0 = min L^2 (E2-E1) = {gap.epsilon0:.4f}")
print(f"log-log slope of the gap in L: {gap.loglog_slope:.3f} (inverse-square: -2)")
for L, g in zip(gap.Ls, gap.gaps):
    print(f"  L = {L:2d}: gap {g:.6f}, L^2 * gap = {L**2 * g:.4f}")
