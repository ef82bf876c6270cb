#!/usr/bin/env python3
"""Assemble box operators under the four boundary treatments and check them.

Walks through:
  1. the unit-cell grid and the assembled sparse matrices,
  2. free spectra against the closed-form stencil eigenvalues,
  3. second-order convergence of the lowest Dirichlet level to pi^2/L^2,
  4. counting via matrix inertia vs a dense eigensolve.
"""

import numpy as np
from scipy import linalg

from breatherlab import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    DistributionSpec,
    GridSpec,
    ModelSpec,
    PeriodicPotentialSpec,
    SingleSiteSpec,
    assemble,
    count_below,
    prepare_model,
)

model0 = ModelSpec(
    d=1,
    vper=PeriodicPotentialSpec(kind="zero"),
    site=SingleSiteSpec(kind="breather", amplitude=1.0, radius=0.4,
                        lambda_minus=1.0, lambda_plus=2.0, standardized=True),
    dist=DistributionSpec(kind="uniform", lambda_minus=1.0, lambda_plus=2.0),
)
model, gs = prepare_model(model0, 16)

# -- free spectra vs the closed forms ---------------------------------------

L, n = 4, 16
N, h = n * L, 1.0 / n
grid = GridSpec(L=L, n=n)
print(f"box of side {L}, {n} points per cell, {grid.num_dof} degrees of freedom")

closed = {
    "Dirichlet": (4 / h**2) * np.sin(np.arange(1, N + 1) * np.pi / (2 * N)) ** 2,
    "Neumann": (4 / h**2) * np.sin(np.arange(N) * np.pi / (2 * N)) ** 2,
    "periodic": (4 / h**2) * np.sin(np.arange(N) * np.pi / N) ** 2,
}
for name, bc in (("Dirichlet", DIRICHLET), ("Neumann", NEUMANN),
                 ("periodic", PERIODIC)):
    H = assemble(model, grid, bc)
    w = np.sort(linalg.eigvalsh(H.to_dense()))
    err = np.max(np.abs(w - np.sort(closed[name])))
    print(f"  {name:9s}: lowest {w[0]: .6f}, closed-form max error {err:.2e}")

# -- stencil consistency ------------------------------------------------------

print("\nlowest Dirichlet level vs pi^2/L^2 (should shrink like h^2):")
L = 2
for n in (8, 16, 32):
    H = assemble(model, GridSpec(L=L, n=n), DIRICHLET)
    e1 = linalg.eigvalsh(H.to_dense())[0]
    print(f"  n = {n:3d}: E1 = {e1:.8f}, error {abs(e1 - np.pi**2 / L**2):.2e}")

# -- inertia counting ---------------------------------------------------------

rng = np.random.default_rng(1)
lams = rng.uniform(1.0, 2.0, 8)
H = assemble(model, GridSpec(L=8, n=16), DIRICHLET, couplings=lams)
w = np.sort(linalg.eigvalsh(H.to_dense()))
print("\neigenvalue counts by triangular-factorization inertia:")
for E in (w[0] - 0.1, w[2] + 1e-9, 25.0):
    c = count_below(H, E)
    print(f"  N({E: .4f}) = {c}  (dense count {int(np.sum(w <= E))})")
