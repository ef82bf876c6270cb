"""Numerical laboratory for random Schrodinger operators with breather-type disorder.

The package discretizes the operators on cubes, computes finite-volume
spectra under Dirichlet, Neumann, periodic, Robin and ground-state (Mezincescu)
boundary conditions, estimates the integrated density of states by seeded
Monte Carlo, and verifies the band-edge (Lifshitz tail) proof machinery at
desk scale.
"""

from .bounds import (
    BoundReport,
    DirichletTestFunction,
    GapFit,
    MappedRealization,
    ModelConstants,
    TempleConfig,
    bernoulli_tail,
    counting_corollary_check,
    deviation_chain_check,
    dirichlet_test_function,
    dirichlet_upper_bound,
    fit_gap_constant,
    first_moment,
    make_temple_config,
    map_realization,
    model_constants,
    periodic_levels,
    second_moment,
    temple_lower_bound,
)
from .ids import (
    BoxChoice,
    IDSCurve,
    LifshitzFit,
    Realization,
    bracketing_report,
    choose_box_size,
    estimate_ids,
    fit_lifshitz,
    lower_tail_check,
    matched_box_curve,
    sample_realization,
    synthetic_curve,
)
from .lattice import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    BoundaryCondition,
    DiscreteHamiltonian,
    GridSpec,
    GroundStateData,
    assemble,
    assemble_random_potential,
    couplings_array,
    kinetic_operator,
    mezincescu_correction,
    periodic_ground_state,
    periodic_potential_on_grid,
    periodized_ground_state,
    prepare_model,
)
from .model import (
    AssumptionReport,
    DistributionSpec,
    ModelSpec,
    PeriodicPotentialSpec,
    SingleSiteSpec,
    evaluate_site,
    normalize_energy,
    site_lambda_derivative,
    standardize,
    validate_assumptions,
)
from .spectral import (
    CountingValue,
    SpectralResult,
    count_below,
    lowest_eigenvalues,
)

__version__ = "0.1.0"
