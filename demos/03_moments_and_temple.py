#!/usr/bin/env python3
"""Cutoff couplings, mapped energies, and the Temple lower bound.

The couplings are cut off at lambda_minus + c2/L^2 and mapped to per-site
energy contributions xi_k (the quadrature of the site potential in the
ground-state measure).  The energy form of the periodized ground state then
EQUALS the mean of the xi_k, its square obeys a linearized bound, and
Temple's inequality turns the two moments into a lower bound on the lowest
eigenvalue: E1 >= (3/4) * mean(xi).  The same machinery yields the deviation
chain (small xi forces the coupling into a window) and a binomial tail bound.
"""

import numpy as np

from breatherlab import (
    DistributionSpec,
    GridSpec,
    ModelSpec,
    PeriodicPotentialSpec,
    SingleSiteSpec,
    assemble,
    bernoulli_tail,
    deviation_chain_check,
    first_moment,
    fit_gap_constant,
    ground_state_box,
    make_temple_config,
    map_realization,
    mezincescu_correction,
    model_constants,
    periodic_levels,
    prepare_model,
    sample_fields,
    second_moment,
    temple_lower_bound,
)

model0 = ModelSpec(
    d=1,
    vper=PeriodicPotentialSpec(kind="cosine-sum", amplitudes=(0.5,)),
    site=SingleSiteSpec(kind="breather", amplitude=1.0, radius=0.4,
                        lambda_minus=1.0, lambda_plus=2.0),
    dist=DistributionSpec(kind="uniform", lambda_minus=1.0, lambda_plus=2.0),
)
model, gs = prepare_model(model0, 16)
consts = model_constants(model, gs)
gap = fit_gap_constant({L: periodic_levels(ground_state_box(model, gs, GridSpec(L=L, n=16)))
                        for L in range(2, 11)})
lam_star, p = model.dist.lambda_star()
cfg = make_temple_config(L=6, gamma=2.0 / p, constants=consts, epsilon0=gap.epsilon0)
print("constants:", consts.to_dict())
print(f"config: c2 = {cfg.c2:.4f}, gamma = {cfg.gamma}, c7 = {cfg.c7:.2f}, "
      f"energy scale = {cfg.energy_scale:.3e}")

grid = GridSpec(L=6, n=16)
bc = mezincescu_correction(gs, grid)

print("\nmoment identities on five random realizations:")
for i, lams in enumerate(sample_fields(model.dist, 42, range(5), 6, 1)):
    mapped = map_realization(gs, model, grid, lams, cfg)
    H = assemble(model, grid, bc, couplings=mapped.cutoffs)
    form, total = first_moment(gs, mapped, H)
    val, bnd = second_moment(gs, mapped, H, cfg)
    print(f"  #{i}: form {form:.8f} vs mean xi {total:.8f} "
          f"(diff {abs(form - total):.1e}); ||H psi||^2 {val:.2e} <= {bnd:.2e}")

print("\nTemple lower bound with the full applicability chain:")
box = ground_state_box(model, gs, grid)  # the box's skeleton, built once
per = periodic_levels(box)  # E1, E2 of the coupling-free box, once
print(f"  periodic levels on the box: E1 = {per[0]:.2e}, E2 = {per[1]:.6f}")
for i, lams in enumerate(sample_fields(model.dist, 43, range(5), 6, 1)):
    mapped = map_realization(gs, model, grid, lams, cfg)
    rep = temple_lower_bound(gs, model, box, mapped, cfg, per)
    print(f"  #{i}: E1 = {rep.lhs:.6f} >= (3/4) mean xi = {rep.rhs:.6f} "
          f"-> {rep.verdict}")

print("\ndeviation chain on a floor-hugging realization:")
mapped = map_realization(gs, model, grid,
                         1.0 + 1e-4 * np.random.default_rng(3).random(6), cfg)
rep = deviation_chain_check(mapped, cfg)
print(f"  {rep.constants['premise_count']}/6 sites have small xi, "
      f"violations: {rep.constants['violations']}")

print("\nbinomial tail against the Hoeffding-type bound (gamma = 2/p):")
for p_s in (0.3, 0.5, 0.8):
    for Ld in (8, 27, 64):
        exact, bound = bernoulli_tail(p_s, 2.0 / p_s, Ld)
        print(f"  p = {p_s}, sites = {Ld:2d}: exact {exact:.3e} <= bound {bound:.3e}")
