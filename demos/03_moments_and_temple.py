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

from dataclasses import asdict

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
    lowest_eigenvalues,
    make_temple_config,
    map_realization,
    mezincescu_correction,
    model_constants,
    periodic_levels,
    prepare_model,
    second_moment,
    temple_lower_bounds,
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
print("constants:", asdict(consts))
print(f"config: c2 = {cfg.c2:.4f}, gamma = {cfg.gamma}, c7 = {cfg.c7:.2f}, "
      f"energy scale = {cfg.energy_scale:.3e}")

grid = GridSpec(L=6, n=16)
bc = mezincescu_correction(gs, grid)

# couplings above the cap lambda_minus + c2/L^2 all cut off to the cap, so these
# five realizations are drawn inside [lambda_minus, lambda_minus + c2/L^2]
cap = cfg.c2 / grid.L**2
print(f"\nmoment identities on five realizations with couplings below the cap "
      f"(lambda_minus + {cap:.4f}):")
couplings = model.dist.lambda_minus + cap * np.random.default_rng(42).random((5, 6))
mapped = map_realization(gs, model, grid, couplings, cfg)
H = assemble(model, grid, bc, couplings=mapped.cutoffs)  # five operators, one per realization
form, total = first_moment(gs, mapped, H)
val, bnd = second_moment(gs, mapped, H, cfg)
for i in range(5):
    print(f"  #{i}: form {form[i]:.8f} vs mean xi {total[i]:.8f} "
          f"(diff {abs(form[i] - total[i]):.1e}); ||H psi||^2 {val[i]:.2e} <= {bnd[i]:.2e}")

print("\nTemple lower bound with the full applicability chain:")
box = ground_state_box(model, gs, grid)  # the box's skeleton, built once
per = periodic_levels(box)  # E1, E2 of the coupling-free box, once
print(f"  periodic levels on the box: E1 = {per[0]:.2e}, E2 = {per[1]:.6f}")
# drawn below the cap too: above it every coupling cuts off to the same field
couplings = model.dist.lambda_minus + cap * np.random.default_rng(43).random((5, 6))
mapped = map_realization(gs, model, grid, couplings, cfg)
rep = temple_lower_bounds(box, mapped, cfg, per)  # one count, one report for all five
# the check counts eigenvalues at (3/4) mean xi -+ t and solves for none; the
# levels are solved here only to show them beside the counts
e1 = lowest_eigenvalues(box.hamiltonian(mapped.potential), 1).energies[:, 0]
for i in range(5):
    n_lo, n_hi = rep.lhs[i]
    print(f"  #{i}: E1 = {e1[i]:.6f} >= (3/4) mean xi = {rep.rhs[i]:.6f}: "
          f"N(rhs -+ t) = ({n_lo}, {n_hi}) -> {rep.verdict[i]}")

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
