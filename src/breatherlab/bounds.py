"""Verification machinery for the band-edge estimates.

Everything here works on the standardized, energy-normalized model (ground
level at zero, site potentials vanishing at the coupling floor).  The
central objects are the cutoff couplings

    cut_k = min(lambda_k, lambda_minus + c2 / L^2)

and the mapped per-site energy contributions

    xi_k = sum_x psi(x)^2 u(cut_k, x - k) h^d,

the discrete quadrature of the single-site energy in the ground-state
measure.  The Temple lower bound, the counting corollary, the deviation
chain and the Dirichlet upper bound are checked as concrete numerical
inequalities with every constant recorded.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, InputError, PreconditionError
from .lattice import (
    DIRICHLET,
    BoxSkeleton,
    GridSpec,
    assemble_random_potential,
    couplings_array,
    mezincescu_correction,
    periodized_ground_state,
    skeleton,
)
from .model import analytic_kappa1, integral_derivative_profile, site_values
from .spectral import lowest_eigenvalues

BOUNDARY_TOL = 1e-10


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: sides, signed margin, verdict, constants.

    ``margin`` is oriented so that a nonnegative value means the inequality
    holds.  Float comparisons at |margin| <= boundary tolerance are reported
    as "boundary" rather than pass/fail; exact integer checks never are.
    """

    name: str
    lhs: float
    rhs: float
    margin: float
    verdict: str
    constants: dict

    @property
    def passed(self):
        return self.verdict != "fail"

    def to_dict(self):
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "pass": self.passed,
            "verdict": self.verdict,
            "constants": dict(self.constants),
        }


def _float_verdict(margin, scale=1.0):
    tol = BOUNDARY_TOL * (1.0 + abs(scale))
    if margin > tol:
        return "pass"
    if margin < -tol:
        return "fail"
    return "boundary"


def _exact_verdict(ok):
    return "pass" if ok else "fail"


@dataclass(frozen=True)
class ModelConstants:
    """Measured/analytic constants of a prepared model at run resolution.

    kappa1: sup of du/dlambda (analytic for built-in families).
    eps1, eps2: the integral-derivative window; the space integral uses the
    same n-point midpoint quadrature as the xi functionals, so the chain of
    discrete inequalities is self-consistent.
    c3, c4: min/max of the unit-cell ground state.
    """

    kappa1: float
    eps1: float
    eps2: float
    c3: float
    c4: float
    n: int

    def to_dict(self):
        return {
            "kappa1": self.kappa1, "eps1": self.eps1, "eps2": self.eps2,
            "c3": self.c3, "c4": self.c4, "n": self.n,
        }


def model_constants(model, gs, lambda_grid_size: int = 2049) -> ModelConstants:
    """Measure (kappa1, eps1, eps2) at the run resolution and read off c3, c4."""
    site = model.site
    lams = np.linspace(site.lambda_minus, site.lambda_plus, lambda_grid_size)
    phi_prime = integral_derivative_profile(model, lams, x_grid_size=gs.n)
    positive = phi_prime > 1e-12
    if not positive[0]:
        raise PreconditionError(
            "integral derivative vanishes at the coupling floor (assumption iv fails)"
        )
    stop = int(np.argmin(positive)) if not positive.all() else lams.size
    window = phi_prime[:stop]
    eps2 = float(lams[stop - 1] - site.lambda_minus)
    eps1 = float(min(window.min(), 1.0 / window.max()))
    kappa1 = analytic_kappa1(site)
    if kappa1 is None:
        pts_n = GridSpec(L=1, n=gs.n, d=gs.d).offset_points()
        from .model import site_derivative_values

        kappa1 = float(np.abs(site_derivative_values(site, lams, pts_n)).max())
    return ModelConstants(
        kappa1=float(kappa1), eps1=eps1, eps2=eps2, c3=gs.c3, c4=gs.c4, n=gs.n
    )


@dataclass(frozen=True)
class TempleConfig:
    """Cutoff scale, deviation parameters and the derived energy scale.

    The hypotheses tie the cutoff c2 to the gap constant epsilon0, the
    derivative sup kappa1 and the window (eps1, eps2); the coupling-window
    constant c7 and the energy scale make the deviation chain close.
    """

    L: int
    c2: float
    gamma: float
    c7: float
    epsilon0: float
    energy_scale: float
    constants: ModelConstants

    def validate(self):
        c = self.constants
        L2 = self.L**2
        checks = [
            (self.c2 <= c.eps2 * L2 + 1e-15, "c2 <= eps2 * L^2"),
            (4.0 * c.kappa1 * self.c2 / self.epsilon0 < 0.25,
             "4 kappa1 c2 / epsilon0 < 1/4"),
            (self.c2 <= self.epsilon0 * c.eps1 / (2.0 * c.c4) + 1e-15,
             "c2 <= epsilon0 eps1 / (2 c4)"),
            (self.gamma > 1.0, "gamma > 1"),
            (self.c7 >= 2.0 * self.gamma / (c.eps1 * c.c3**2) - 1e-12,
             "c7 >= 2 gamma / (eps1 c3^2)"),
            (self.c7 * self.energy_scale <= min(c.eps2, self.c2 / (2.0 * L2)) + 1e-15,
             "c7 * energy_scale <= min(eps2, c2 / (2 L^2))"),
            (self.c2 > 0.0, "c2 > 0"),
        ]
        for ok, label in checks:
            if not ok:
                raise PreconditionError(f"hypothesis violated: {label}")
        return self

    def to_dict(self):
        return {
            "L": self.L, "c2": self.c2, "gamma": self.gamma, "c7": self.c7,
            "epsilon0": self.epsilon0, "energy_scale": self.energy_scale,
            "constants": self.constants.to_dict(),
        }


def make_temple_config(L: int, gamma: float, constants: ModelConstants,
                       epsilon0: float, safety: float = 0.99) -> TempleConfig:
    """Choose (c2, c7, energy scale) maximal under the stated hypotheses."""
    c = constants
    if c.eps1 <= 0 or c.eps2 <= 0 or epsilon0 <= 0:
        raise PreconditionError(
            "infeasible: need positive eps1, eps2 and epsilon0 "
            f"(eps1={c.eps1}, eps2={c.eps2}, epsilon0={epsilon0})"
        )
    candidates = {
        "c2 <= eps2 L^2": c.eps2 * L**2,
        "c2 <= epsilon0 eps1 / (2 c4)": epsilon0 * c.eps1 / (2.0 * c.c4),
        "4 kappa1 c2 / epsilon0 < 1/4": epsilon0 / (16.0 * c.kappa1),
    }
    binding = min(candidates, key=candidates.get)
    c2 = safety * candidates[binding]
    if not c2 > 0:
        raise PreconditionError(f"infeasible: binding constraint {binding} forces c2 <= 0")
    c7 = 2.0 * gamma / (c.eps1 * c.c3**2)
    escale = c2 / (2.0 * c7 * L**2)
    cfg = TempleConfig(L=L, c2=c2, gamma=gamma, c7=c7, epsilon0=epsilon0,
                       energy_scale=escale, constants=constants)
    return cfg.validate()


@dataclass(frozen=True)
class MappedRealization:
    """Couplings, their cutoffs, and the mapped energy contributions xi_k."""

    couplings: np.ndarray
    cutoffs: np.ndarray
    xi: np.ndarray
    L: int
    d: int
    lambda_minus: float

    @property
    def num_sites(self):
        return self.couplings.size


def map_realization(gs, model, grid: GridSpec, couplings, cfg: TempleConfig) -> MappedRealization:
    """Cut the couplings at lambda_minus + c2/L^2 and quadrature-map them."""
    cfg.validate()
    lam = couplings_array(grid, couplings)
    cap = model.dist.lambda_minus + cfg.c2 / grid.L**2
    cut = np.minimum(lam, cap)
    weights = gs.cell_weights()
    vals = site_values(model.site, cut.ravel(), grid.offset_points())
    xi = vals @ weights
    return MappedRealization(
        couplings=lam, cutoffs=cut, xi=xi.reshape(lam.shape), L=grid.L, d=grid.d,
        lambda_minus=model.dist.lambda_minus,
    )


def first_moment(gs, mapped: MappedRealization, H_tilde):
    """Ground-state energy form vs the per-site sum; they agree exactly.

    Returns (<psi_L, H psi_L>, L^-d sum_k xi_k) in the quadrature inner
    product.  The boundary fold makes psi_L an exact eigenvector of the
    periodic part at level zero, and the site supports are disjoint on the
    grid, so the two numbers coincide to solver accuracy.
    """
    grid = H_tilde.grid
    psi = periodized_ground_state(gs, grid)
    hd = grid.h**grid.d
    form = float(psi @ (H_tilde.matrix @ psi)) * hd
    total = float(mapped.xi.sum()) / grid.L**grid.d
    return form, total


def second_moment(gs, mapped: MappedRealization, H_tilde, cfg: TempleConfig):
    """||H psi_L||^2 against the linearized bound 2 kappa1 c2 L^-2 * mean(xi)."""
    grid = H_tilde.grid
    psi = periodized_ground_state(gs, grid)
    hd = grid.h**grid.d
    value = float(np.sum((H_tilde.matrix @ psi) ** 2)) * hd
    mean_xi = float(mapped.xi.sum()) / grid.L**grid.d
    bound = 2.0 * cfg.constants.kappa1 * cfg.c2 / grid.L**2 * mean_xi
    return value, bound


def ground_state_box(model, gs, grid: GridSpec) -> BoxSkeleton:
    """The skeleton of the box under the ground-state boundary condition."""
    return skeleton(model, grid, mezincescu_correction(gs, grid))


def periodic_levels(box: BoxSkeleton) -> np.ndarray:
    """E1(per), E2(per): the two lowest levels of the coupling-free operator
    of a ``ground_state_box``."""
    return lowest_eigenvalues(box.hamiltonian(), 2).energies


def temple_lower_bound(gs, model, box: BoxSkeleton, mapped: MappedRealization,
                       cfg: TempleConfig, per) -> BoundReport:
    """Check E1 of the cutoff operator against (3/4) of the mean xi.

    ``box`` is the ``ground_state_box``, ``mapped`` the realization mapped on
    its grid and ``per`` its ``periodic_levels``.  The applicability chain
    0 = E1(per) <= E1(cut) <= form < nu <= E2(per) <= E2(cut) is verified link
    by link; a broken link is reported as a failure naming the link (that
    signals bad constants, not a solver bug).
    """
    cfg.validate()
    grid = box.grid
    if (mapped.L, mapped.d) != (grid.L, grid.d):
        raise InputError(f"realization mapped on L={mapped.L}, d={mapped.d}, not on {grid}")
    H_cut = box.hamiltonian(assemble_random_potential(model, grid, mapped.cutoffs).ravel())
    cut = lowest_eigenvalues(H_cut, 2).energies
    form, mean_xi = first_moment(gs, mapped, H_cut)
    sq_value, sq_bound = second_moment(gs, mapped, H_cut, cfg)
    nu = cfg.epsilon0 / (2.0 * grid.L**2) + form

    tol = 1e-9 * (1.0 + abs(per[1]))
    links = {
        "E1(per) = 0": abs(per[0]) <= tol,
        "E1(per) <= E1(cut)": cut[0] >= per[0] - tol,
        "E1(cut) <= form": form >= cut[0] - tol,
        "form < nu": nu > form,
        "nu <= E2(per)": per[1] >= nu,
        "E2(per) <= E2(cut)": cut[1] >= per[1] - tol,
    }
    factor = 1.0 - 4.0 * cfg.constants.kappa1 * cfg.c2 / cfg.epsilon0
    constants = dict(cfg.to_dict())
    constants.update({
        "E1_per": float(per[0]), "E2_per": float(per[1]),
        "E1_cut": float(cut[0]), "E2_cut": float(cut[1]),
        "form": form, "mean_xi": mean_xi, "nu": nu,
        "second_moment": sq_value, "second_moment_bound": sq_bound,
        "one_minus_4k1c2_over_eps0": factor,
        "links": {k: bool(v) for k, v in links.items()},
    })
    lhs, rhs = float(cut[0]), 0.75 * mean_xi
    verdict = _float_verdict(lhs - rhs, scale=abs(rhs))
    broken = [k for k, v in links.items() if not v]
    if broken:
        constants["broken_link"] = broken[0]
        verdict = "fail"
    return BoundReport(name="temple-lower-bound", lhs=lhs, rhs=rhs, margin=lhs - rhs,
                       verdict=verdict, constants=constants)


def counting_corollary_check(mapped: MappedRealization, E1: float, escale: float,
                             gamma: float) -> BoundReport:
    """If E1 <= escale, most mapped values must be small:
    #{xi_k < 2 gamma escale} > ((gamma-1)/gamma) L^d.  Vacuous when E1 > escale."""
    Ld = mapped.num_sites
    small = int(np.sum(mapped.xi < 2.0 * gamma * escale))
    threshold = (gamma - 1.0) / gamma * Ld
    constants = {
        "E1": E1, "energy_scale": escale, "gamma": gamma, "Ld": Ld,
        "vacuous": bool(E1 > escale),
    }
    verdict = "pass" if E1 > escale else _exact_verdict(small > threshold)
    return BoundReport(
        name="counting-corollary", lhs=float(small), rhs=threshold,
        margin=float(small) - threshold, verdict=verdict, constants=constants,
    )


def deviation_chain_check(mapped: MappedRealization, cfg: TempleConfig) -> BoundReport:
    """Per site: xi_k < 2 gamma E implies lambda_k < lambda_minus + c7 E.

    Small mapped energy forces the coupling itself (not just the cutoff)
    into the window, because c7 E <= c2/(2 L^2) keeps the cutoff inactive.
    """
    cfg.validate()
    thresh_xi = 2.0 * cfg.gamma * cfg.energy_scale
    lam_cap = cfg.c7 * cfg.energy_scale
    premise = mapped.xi.ravel() < thresh_xi
    conclusion = (mapped.couplings.ravel() - mapped.lambda_minus) < lam_cap
    violations = int(np.sum(premise & ~conclusion))
    constants = {
        "xi_threshold": thresh_xi, "coupling_window": lam_cap,
        "premise_count": int(premise.sum()), "sites": mapped.num_sites,
        "violations": violations,
    }
    return BoundReport(
        name="deviation-chain", lhs=float(violations), rhs=0.0,
        margin=-float(violations), verdict=_exact_verdict(violations == 0),
        constants=constants,
    )


def bernoulli_tail(p: float, gamma: float, Ld: int):
    """Exact probability P(#successes < Ld/gamma) against exp(-p^2 Ld / 2).

    With gamma = 2/p the threshold is p*Ld/2 and the exponential bound is
    Hoeffding's inequality, so exact <= bound holds for every (p, Ld).
    """
    if not 0.0 < p <= 1.0:
        raise DomainError("success probability must lie in (0, 1]")
    if abs(gamma - 2.0 / p) > 1e-9:
        raise DomainError("the tail bound is stated for gamma = 2/p")
    if Ld < 1:
        raise DomainError("need at least one site")
    threshold = math.ceil(Ld / gamma) - 1  # #successes < Ld/gamma
    exact = float(special.bdtr(threshold, Ld, p)) if threshold >= 0 else 0.0
    bound = math.exp(-0.5 * p * p * Ld)
    return exact, bound


@dataclass(frozen=True)
class DirichletTestFunction:
    """phi(x) = prod_i cos(pi t_i / L), t centered in the box (phi vanishes on
    the faces), with its non-random quadrature constants on that box:
    Q = ||phi||^2, T = <phi, K phi> for the Dirichlet kinetic K, P = <phi,
    V_per phi>, B1 = sup phi^2 L^d / Q and B2 = L^2 (T + P) / Q."""

    grid: GridSpec
    phi: np.ndarray
    Q: float
    T: float
    P: float
    B1: float
    B2: float
    box: BoxSkeleton


def dirichlet_test_function(model, grid: GridSpec) -> DirichletTestFunction:
    """Build the test function and its constants on one box, with the box's
    Dirichlet skeleton (K is its zero-potential operator)."""
    L, d, hd = grid.L, grid.d, grid.h**grid.d
    t = grid.axis_coords() - (L - 1) / 2.0
    axis_phi = np.cos(np.pi * t / L)
    phi = axis_phi
    for _ in range(d - 1):
        phi = np.multiply.outer(phi, axis_phi)
    phi = phi.ravel()

    box = skeleton(model, grid, DIRICHLET)
    K = box.operator(0.0)
    Q = float(np.sum(phi**2)) * hd
    T = float(phi @ (K.matrix @ phi)) * hd
    P = float(np.sum(phi**2 * box.vper)) * hd
    B1 = float(np.max(phi**2)) * L**d / Q
    B2 = (T + P) / Q * L**2
    return DirichletTestFunction(grid=grid, phi=phi, Q=Q, T=T, P=P, B1=B1, B2=B2, box=box)


def dirichlet_upper_bound(model, grid: GridSpec, couplings,
                          test: DirichletTestFunction) -> BoundReport:
    """Rayleigh-quotient upper bound E1 <= B1 L^-d int(V_omega) + B2 L^-2,
    with the test function and constants of ``dirichlet_test_function``."""
    if test.grid != grid:
        raise InputError(f"test function built on {test.grid}, box is {grid}")
    L, d, hd = grid.L, grid.d, grid.h**grid.d
    Q, T, P = test.Q, test.T, test.P

    vrand = assemble_random_potential(model, grid, couplings).ravel()
    H = test.box.hamiltonian(vrand)
    W = float(np.sum(test.phi**2 * vrand)) * hd
    quotient = (T + P + W) / Q

    e1 = float(lowest_eigenvalues(H, 1).energies[0])
    int_v = float(np.sum(vrand)) * hd
    rhs = test.B1 * int_v / L**d + test.B2 / L**2
    margin = rhs - e1
    constants = {
        "B1": test.B1, "B2": test.B2, "kinetic_times_L2": T / Q * L**2,
        "periodic_part": P / Q, "rayleigh_quotient": quotient,
        "int_V_omega": int_v, "E1": e1,
        "variational_ok": bool(e1 <= quotient + 1e-9 * (1 + abs(quotient))),
    }
    return BoundReport(
        name="dirichlet-upper-bound", lhs=e1, rhs=rhs, margin=margin,
        verdict=_float_verdict(margin, scale=abs(rhs)), constants=constants,
    )


@dataclass(frozen=True)
class GapFit:
    """Fitted finite-volume gap constant: epsilon0 = min_L L^2 (E2 - E1)."""

    epsilon0: float
    Ls: tuple
    gaps: tuple
    loglog_slope: float

    def to_dict(self):
        return {
            "epsilon0": self.epsilon0, "Ls": list(self.Ls),
            "gaps": list(self.gaps), "loglog_slope": self.loglog_slope,
        }


def fit_gap_constant(levels) -> GapFit:
    """Fit the ground-state-boundary gap across box sizes; ``levels`` maps each
    side L to its ``periodic_levels``."""
    Ls = tuple(levels)
    gaps = np.asarray([levels[L][1] - levels[L][0] for L in Ls])
    eps0 = float(np.min(np.asarray(Ls, dtype=float) ** 2 * gaps))
    slope = float(np.polyfit(np.log(np.asarray(Ls, float)), np.log(gaps), 1)[0])
    return GapFit(epsilon0=eps0, Ls=Ls, gaps=tuple(float(g) for g in gaps),
                  loglog_slope=slope)
