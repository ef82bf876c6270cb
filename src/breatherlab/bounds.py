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

Inequalities on random levels are inertia counts: with N(x) the number of
eigenvalues <= x, E1 > x iff N(x) = 0 and E2 > x iff N(x) <= 1.  Each check
makes one ``count_below`` call; only ``periodic_levels`` solves for levels.

A leading batch axis is optional throughout: ``map_realization`` maps one
coupling field (L,)*d or a batch (B,)+(L,)*d, and each check returns one
``BoundReport`` whose sides, verdict and per-realization constants are
arrays over that batch (0-d for one realization).
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, InputError, PreconditionError
from .lattice import (
    DIRICHLET,
    BoxSkeleton,
    GridSpec,
    cells_on_grid,
    couplings_array,
    mezincescu_correction,
    periodized_ground_state,
    random_potentials,
    skeleton,
)
from .model import analytic_kappa1, derivative_window, site_values
from .spectral import count_below, lowest_eigenvalues

BOUNDARY_TOL = 1e-10
LAMBDA_GRID_SIZE = 2049  # couplings at which model_constants reads the window
SAFETY = 0.99  # make_temple_config sets c2 this fraction of its binding constraint


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality over a batch of realizations: sides, verdict
    and constants, each an array over the batch.

    A check of a level E1 against ``rhs`` has as ``lhs`` the counts
    (N(rhs - t), N(rhs + t)), t = BOUNDARY_TOL * (1 + |rhs|), on a trailing
    axis; it is "boundary" where the two differ (E1 within t of ``rhs``).
    Integer checks are pass or fail.
    """

    name: str
    lhs: np.ndarray
    rhs: np.ndarray
    verdict: np.ndarray
    constants: dict

    @property
    def passed(self):
        return self.verdict != "fail"


def _level_check(H, rhs, upper, *energies):
    """Count each operator of ``H`` at rhs -+ t and at ``energies`` in one call:
    the ``lhs`` pair, the verdict of E1 >= rhs (<= if ``upper``), the other counts."""
    t = BOUNDARY_TOL * (1.0 + np.abs(rhs))
    counts = count_below(H, np.stack(np.broadcast_arrays(rhs - t, rhs + t, *energies), axis=-1))
    below, within = counts[..., 0] >= 1, counts[..., 1] >= 1  # E1 <= rhs - t, E1 <= rhs + t
    verdict = np.where(below == within, np.where(below == upper, "pass", "fail"), "boundary")
    return counts[..., :2], verdict, np.moveaxis(counts[..., 2:], -1, 0)


@dataclass(frozen=True)
class ModelConstants:
    """Measured/analytic constants of a prepared model at run resolution.

    kappa1: sup of du/dlambda (analytic for built-in families).
    eps1, eps2: the integral-derivative window; the space integral is the
    quadrature on ``model._midpoint_grid(n, d)``, the very points at which
    ``map_realization`` evaluates V_omega and the xi functionals, so the chain
    of discrete inequalities is self-consistent.
    c3, c4: min/max of the unit-cell ground state.
    """

    kappa1: float
    eps1: float
    eps2: float
    c3: float
    c4: float
    n: int


def model_constants(model, gs) -> ModelConstants:
    """Read (eps1, eps2) off the ``derivative_window`` at the run resolution,
    kappa1 analytically (for tabulated sites, from the window's own
    derivative values) and c3, c4 off the ground state."""
    site = model.site
    lams = np.linspace(site.lambda_minus, site.lambda_plus, LAMBDA_GRID_SIZE)
    deriv, _, stop, (eps1, eps2) = derivative_window(model, lams, gs.n, 1e-12)
    if stop == 0:
        raise PreconditionError(
            "integral derivative vanishes at the coupling floor (assumption iv fails)"
        )
    kappa1 = analytic_kappa1(site)
    if kappa1 is None:
        kappa1 = np.abs(deriv).max()
    return ModelConstants(kappa1=float(kappa1), eps1=eps1, eps2=eps2, c3=gs.c3, c4=gs.c4,
                          n=gs.n)


@dataclass(frozen=True)
class TempleConfig:
    """Cutoff scale, deviation parameters and the derived energy scale.

    The hypotheses tie the cutoff c2 to the gap constant epsilon0, the
    derivative sup kappa1 and the window (eps1, eps2); the coupling-window
    constant c7 and the energy scale make the deviation chain close.  They
    are checked once, when the config is made.
    """

    L: int
    c2: float
    gamma: float
    c7: float
    epsilon0: float
    energy_scale: float
    constants: ModelConstants

    def __post_init__(self):
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


def make_temple_config(L: int, gamma: float, constants: ModelConstants,
                       epsilon0: float) -> TempleConfig:
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
    c2 = SAFETY * candidates[binding]
    if not c2 > 0:
        raise PreconditionError(f"infeasible: binding constraint {binding} forces c2 <= 0")
    c7 = 2.0 * gamma / (c.eps1 * c.c3**2)
    escale = c2 / (2.0 * c7 * L**2)
    return TempleConfig(L=L, c2=c2, gamma=gamma, c7=c7, epsilon0=epsilon0,
                        energy_scale=escale, constants=constants)


@dataclass(frozen=True)
class MappedRealization:
    """Couplings, their cutoffs, the mapped energy contributions xi_k, each
    shaped (L,)*d or (B,)+(L,)*d, and the cutoff potential on the flat
    ``grid``, (N,) or (B, N): the random part of H_cut."""

    couplings: np.ndarray
    cutoffs: np.ndarray
    xi: np.ndarray
    potential: np.ndarray
    grid: GridSpec
    lambda_minus: float

    @property
    def num_sites(self):
        """Sites of one realization, L^d."""
        return self.grid.L**self.grid.d

    def per_realization(self, values):
        """Sum per-site ``values``, shaped like the couplings, over each realization."""
        return values.sum(axis=tuple(range(-self.grid.d, 0)))


def _dot(a, b):
    """a . b over the last axis, row by row the contiguous 1-D dot product, so a
    batch's row equals that of its realization alone bit for bit."""
    return (a[..., None, :] @ b)[..., 0]


def map_realization(gs, model, grid: GridSpec, couplings, cfg: TempleConfig) -> MappedRealization:
    """Cut the couplings, one field or a batch, at lambda_minus + c2/L^2 and
    quadrature-map them; the one site-value evaluation also gives the cutoff
    potential."""
    lam = couplings_array(grid, couplings)
    cap = model.dist.lambda_minus + cfg.c2 / grid.L**2
    cut = np.minimum(lam, cap)
    vals = site_values(model.site, cut.ravel()[:, None], grid.offset_points)
    potential = cells_on_grid(grid, vals)
    return MappedRealization(
        couplings=lam, cutoffs=cut, xi=_dot(vals, gs.cell_weights()).reshape(lam.shape),
        potential=potential.reshape(lam.shape[:lam.ndim - grid.d] + potential.shape[1:]),
        grid=grid, lambda_minus=model.dist.lambda_minus,
    )


def _moments(psi, mapped: MappedRealization, H_tilde, cfg=None):
    """<psi, H psi>, the mean of xi, ||H psi||^2 and its bound (None without
    ``cfg``), in the quadrature inner product and from one product H psi; for
    a batch, each realization's against its own operator of ``H_tilde``."""
    grid = H_tilde.grid
    hd = grid.h**grid.d
    h_psi = H_tilde @ psi
    mean_xi = mapped.per_realization(mapped.xi) / grid.L**grid.d
    bound = None if cfg is None else 2.0 * cfg.constants.kappa1 * cfg.c2 / grid.L**2 * mean_xi
    return _dot(h_psi, psi) * hd, mean_xi, np.sum(h_psi**2, axis=-1) * hd, bound


def first_moment(gs, mapped: MappedRealization, H_tilde):
    """Ground-state energy form vs the per-site sum; they agree exactly.

    Returns (<psi_L, H psi_L>, L^-d sum_k xi_k) in the quadrature inner
    product.  The boundary fold makes psi_L an exact eigenvector of the
    periodic part at level zero, and the site supports are disjoint on the
    grid, so the two numbers coincide to solver accuracy.
    """
    return _moments(periodized_ground_state(gs, H_tilde.grid), mapped, H_tilde)[:2]


def second_moment(gs, mapped: MappedRealization, H_tilde, cfg: TempleConfig):
    """||H psi_L||^2 against the linearized bound 2 kappa1 c2 L^-2 * mean(xi)."""
    return _moments(periodized_ground_state(gs, H_tilde.grid), mapped, H_tilde, cfg)[2:]


def ground_state_box(model, gs, grid: GridSpec) -> BoxSkeleton:
    """The skeleton of the box under the ground-state boundary condition."""
    return skeleton(model, grid, mezincescu_correction(gs, grid))


def periodic_levels(box: BoxSkeleton) -> np.ndarray:
    """E1(per), E2(per): the two lowest levels of the coupling-free operator
    of a ``ground_state_box``."""
    return lowest_eigenvalues(box.hamiltonian(), 2).energies


def _cutoff_operator(box: BoxSkeleton, mapped: MappedRealization):
    """H_cut of each realization of ``mapped`` on its ``ground_state_box``."""
    if mapped.grid != box.grid:
        raise InputError(f"realization mapped on {mapped.grid}, not on {box.grid}")
    return box.hamiltonian(mapped.potential)


def temple_lower_bounds(box: BoxSkeleton, mapped: MappedRealization, cfg: TempleConfig,
                        per) -> BoundReport:
    """Check E1 of each realization's cutoff operator against (3/4) of its
    mean xi: "pass" where N(rhs + t) = 0, "fail" where N(rhs - t) >= 1.

    ``box`` is the ``ground_state_box``, ``mapped`` one realization or a batch
    mapped on its grid and ``per`` its ``periodic_levels``.  The applicability
    chain 0 = E1(per) <= E1(cut) <= form < nu <= E2(per) <= E2(cut) is verified
    link by link, the cutoff levels' links by the same count; a broken link
    fails the realization (bad constants, not a solver bug), and ``links``
    tells which.
    """
    H = _cutoff_operator(box, mapped)
    form, mean_xi, sq_value, _ = _moments(box.psi, mapped, H)
    nu = cfg.epsilon0 / (2.0 * box.grid.L**2) + form
    tau = 1e-9 * (1.0 + abs(per[1]))
    rhs = 0.75 * mean_xi
    lhs, verdict, (n_e1, n_form, n_e2) = _level_check(H, rhs, False, per[0] - tau, form + tau,
                                                      per[1] - tau)
    links = {
        "E1(per) = 0": np.full(rhs.shape, abs(per[0]) <= tau),
        "E1(per) <= E1(cut)": n_e1 == 0,
        "E1(cut) <= form": n_form >= 1,
        "form < nu": nu > form,
        "nu <= E2(per)": per[1] >= nu,
        "E2(per) <= E2(cut)": n_e2 <= 1,
    }
    chain = np.logical_and.reduce(list(links.values()))
    constants = {"form": form, "second_moment": sq_value, "links": links}
    return BoundReport(name="temple-lower-bound", lhs=lhs, rhs=rhs,
                       verdict=np.where(chain, verdict, "fail"), constants=constants)


def counting_corollary_check(box: BoxSkeleton, mapped: MappedRealization, escale: float,
                             gamma: float) -> BoundReport:
    """If E1 <= escale, most mapped values must be small:
    #{xi_k < 2 gamma escale} > ((gamma-1)/gamma) L^d.  Vacuous when E1 > escale:
    where the cutoff operator on ``box``, the ``ground_state_box``, has N(escale) = 0."""
    Ld = mapped.num_sites
    small = mapped.per_realization(mapped.xi < 2.0 * gamma * escale)
    threshold = (gamma - 1.0) / gamma * Ld
    vacuous = count_below(_cutoff_operator(box, mapped), escale) == 0
    constants = {"energy_scale": escale, "gamma": gamma, "Ld": Ld, "vacuous": vacuous}
    return BoundReport(name="counting-corollary", lhs=small,
                       rhs=np.full(small.shape, threshold),
                       verdict=np.where(vacuous | (small > threshold), "pass", "fail"),
                       constants=constants)


def deviation_chain_check(mapped: MappedRealization, cfg: TempleConfig) -> BoundReport:
    """Per site: xi_k < 2 gamma E implies lambda_k < lambda_minus + c7 E.

    Small mapped energy forces the coupling itself (not just the cutoff)
    into the window, because c7 E <= c2/(2 L^2) keeps the cutoff inactive.
    """
    thresh_xi = 2.0 * cfg.gamma * cfg.energy_scale
    lam_cap = cfg.c7 * cfg.energy_scale
    premise = mapped.xi < thresh_xi
    conclusion = (mapped.couplings - mapped.lambda_minus) < lam_cap
    violations = mapped.per_realization(premise & ~conclusion)
    constants = {
        "xi_threshold": thresh_xi, "coupling_window": lam_cap,
        "premise_count": mapped.per_realization(premise), "sites": mapped.num_sites,
        "violations": violations,
    }
    return BoundReport(name="deviation-chain", lhs=violations, rhs=np.zeros(violations.shape),
                       verdict=np.where(violations == 0, "pass", "fail"), constants=constants)


def bernoulli_tail(p: float, gamma: float, Ld: int):
    """Exact probability P(#successes < Ld/gamma) against exp(-p^2 Ld / 2).

    With gamma = 2/p the threshold is p*Ld/2 and the exponential bound is
    Hoeffding's inequality, so exact <= bound holds for every (p, Ld).  The
    float p is a/2^k exactly, so with b = 2^k - a and t the threshold the tail
    is b^(Ld-t) sum_{i<=t} C(Ld, i) a^i b^(t-i) / 2^(k Ld): summed in integers,
    each term from the one before by an exact multiply and divide, and
    rounded once, by the int/int division.
    """
    if not 0.0 < p <= 1.0:
        raise DomainError("success probability must lie in (0, 1]")
    if abs(gamma - 2.0 / p) > 1e-9:
        raise DomainError("the tail bound is stated for gamma = 2/p")
    if Ld < 1:
        raise DomainError("need at least one site")
    threshold = math.ceil(Ld / gamma) - 1  # #successes < Ld/gamma
    a, scale = p.as_integer_ratio()  # p = a / scale, scale = 2^k
    b = scale - a  # 0 at p = 1, where every trial succeeds and the tail is empty
    term = total = b ** max(threshold, 0)
    for i in range(threshold if b else 0):
        term = term * (Ld - i) * a // ((i + 1) * b)
        total += term
    exact = total * b ** (Ld - threshold) / scale**Ld if threshold >= 0 else 0.0
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
    phi = reduce(np.multiply.outer, [np.cos(np.pi * t / L)] * d).ravel()

    box = skeleton(model, grid, DIRICHLET)
    K = box.operator(0.0)
    Q = float(np.sum(phi**2)) * hd
    T = float(phi @ (K @ phi)) * hd
    P = float(np.sum(phi**2 * box.vper)) * hd
    B1 = float(np.max(phi**2)) * L**d / Q
    B2 = (T + P) / Q * L**2
    return DirichletTestFunction(grid=grid, phi=phi, Q=Q, T=T, P=P, B1=B1, B2=B2, box=box)


def dirichlet_upper_bounds(model, couplings, test: DirichletTestFunction) -> BoundReport:
    """Rayleigh-quotient upper bound E1 <= B1 L^-d int(V_omega) + B2 L^-2 for
    one coupling field or a batch on the box of ``test``, with the test
    function and constants of ``dirichlet_test_function``: "pass" where
    N(rhs - t) >= 1, "fail" where N(rhs + t) = 0; ``variational_ok`` is E1 <= q,
    the Rayleigh quotient, i.e. N(q + 1e-9 (1 + |q|)) >= 1."""
    grid = test.grid
    L, d, hd = grid.L, grid.d, grid.h**grid.d
    lams = couplings_array(grid, couplings)
    v = np.ascontiguousarray(random_potentials(model, grid, lams.reshape(-1, L**d)))
    v = v.reshape(lams.shape[:lams.ndim - d] + v.shape[1:])
    quotient = (test.T + test.P + np.sum(test.phi**2 * v, axis=-1) * hd) / test.Q
    int_v = np.sum(v, axis=-1) * hd
    rhs = test.B1 * int_v / L**d + test.B2 / L**2
    lhs, verdict, (n_q,) = _level_check(test.box.hamiltonian(v), rhs, True,
                                        quotient + 1e-9 * (1 + np.abs(quotient)))
    constants = {
        "B1": test.B1, "B2": test.B2, "kinetic_times_L2": test.T / test.Q * L**2,
        "int_V_omega": int_v, "variational_ok": n_q >= 1,
    }
    return BoundReport(name="dirichlet-upper-bound", lhs=lhs, rhs=rhs, verdict=verdict,
                       constants=constants)


@dataclass(frozen=True)
class GapFit:
    """Fitted finite-volume gap constant: epsilon0 = min_L L^2 (E2 - E1)."""

    epsilon0: float
    Ls: tuple
    gaps: tuple
    loglog_slope: float


def fit_gap_constant(levels) -> GapFit:
    """Fit the ground-state-boundary gap across box sizes; ``levels`` maps each
    side L to its ``periodic_levels``."""
    Ls = tuple(levels)
    gaps = np.asarray([levels[L][1] - levels[L][0] for L in Ls])
    eps0 = float(np.min(np.asarray(Ls, dtype=float) ** 2 * gaps))
    slope = float(np.polyfit(np.log(np.asarray(Ls, float)), np.log(gaps), 1)[0])
    return GapFit(epsilon0=eps0, Ls=Ls, gaps=tuple(float(g) for g in gaps),
                  loglog_slope=slope)
