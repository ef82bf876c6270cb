"""Numerical laboratory for random Schrodinger operators with breather-type disorder.

The package discretizes the operators on cubes, computes finite-volume
spectra under Dirichlet, Neumann, periodic and ground-state (Mezincescu)
boundary conditions, estimates the integrated density of states by seeded
Monte Carlo, and verifies the band-edge (Lifshitz tail) proof machinery at
desk scale.

The public names below load their submodule on first use (PEP 562), so
importing the package loads neither NumPy nor SciPy.
"""

import importlib

_EXPORTS = {
    "bounds": """BoundReport DirichletTestFunction GapFit MappedRealization ModelConstants
        TempleConfig bernoulli_tail counting_corollary_check deviation_chain_check
        dirichlet_test_function dirichlet_upper_bounds fit_gap_constant first_moment
        ground_state_box make_temple_config map_realization model_constants
        periodic_levels second_moment temple_lower_bounds""",
    "ids": """IDSCurve LifshitzFit bracketing_report estimate_ids fit_lifshitz
        lower_tail_check matched_box_curve sample_fields synthetic_curve""",
    "lattice": """DIRICHLET NEUMANN PERIODIC BoundaryCondition BoxSkeleton DiscreteHamiltonian
        GridSpec GroundStateData assemble couplings_array mezincescu_correction
        periodic_ground_state periodized_ground_state prepare_model random_potentials
        skeleton""",
    "model": """AssumptionReport DistributionSpec ModelSpec PeriodicPotentialSpec
        SingleSiteSpec normalize_energy standardize validate_assumptions""",
    "spectral": "SpectralResult count_below lowest_eigenvalues",
}
# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups bypass this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
