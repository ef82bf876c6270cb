"""Random-operator model: single-site potential families, coupling laws, assumptions.

The random potential is a sum of single-site terms, one per lattice cell,

    V(x) = sum_k u(lambda_k, x - k),

where the couplings lambda_k are i.i.d. on [lambda_minus, lambda_plus].  Two
built-in families are provided: the alloy type u(lam, x) = lam * f(x) and the
breather (dilation) type u(lam, x) = -f(lam * x), both built on the compactly
supported C^1 bump

    f(x) = a * (1 - |x|^2 / r^2)_+^2        (|.| Euclidean).

All spatial points are passed as arrays whose trailing axis holds the d
coordinates.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DIST_KINDS, SITE_KINDS, VPER_KINDS, DomainError, InputError

SIGN_TOL = 1e-9  # tolerance for sign conditions checked on grids
X_SCAN_POINTS = 4_000_000  # most x points an assumption scan visits (x_grid_size ** d)


def _bump_from_sqnorm(amplitude, radius, sqnorm, out=None):
    """Bump profile a*(1 - s/r^2)_+^2 evaluated from the squared norm s, in
    ``out`` if given (``sqnorm`` itself may be it)."""
    t = np.divide(sqnorm, radius * radius, out=np.empty(np.shape(sqnorm)) if out is None else out)
    np.maximum(np.subtract(1.0, t, out=t), 0.0, out=t)  # np.clip(t, 0, None) minus its wrappers
    return np.multiply(amplitude, np.square(t, out=t), out=t)


def _bump_ramp_from_sqnorm(amplitude, radius, sqnorm):
    """Radial factor a*(1 - s/r^2)_+ shared by the repulsivity function."""
    t = 1.0 - sqnorm / (radius * radius)
    return amplitude * np.clip(t, 0.0, None)


@dataclass(frozen=True)
class SingleSiteSpec:
    """One cell's potential family u(lambda, x), supported inside the unit cell.

    Assumption (i) holds by construction: every family vanishes outside the
    closed cell [-1/2, 1/2]^d.  ``radius`` is the support radius of the bump
    profile.  For the breather kind the dilated support at the weakest
    coupling must still fit in the cell, which forces radius <= lambda_minus
    / 2; the alloy kind needs radius <= 1/2; a tabulated site needs every
    ``x_nodes`` entry in [-1/2, 1/2], ``lambda_nodes`` that cover
    [lambda_minus, lambda_plus] and strictly monotone node axes, and is 0
    beyond its nodes.
    ``standardized`` marks the family after the floor slice u(lambda_minus,
    .) has been subtracted.
    """

    kind: str
    amplitude: float = 1.0
    radius: float = 0.4
    lambda_minus: float = 0.0
    lambda_plus: float = 1.0
    standardized: bool = False
    # tabulated kind only: u sampled on a (lambda, x-grid) product grid
    lambda_nodes: tuple = None
    x_nodes: tuple = None  # tuple of per-axis node tuples
    values: np.ndarray = None

    def __post_init__(self):
        if self.kind not in SITE_KINDS:
            raise InputError(f"unknown single-site kind {self.kind!r}")
        if not self.lambda_minus < self.lambda_plus:
            raise InputError("coupling range must satisfy lambda_minus < lambda_plus")
        if self.kind == "alloy":
            if self.amplitude < 0:
                raise InputError("alloy amplitude must be >= 0")
            if not 0 < self.radius <= 0.5:
                raise InputError("alloy profile needs 0 < radius <= 1/2")
        elif self.kind == "breather":
            if self.lambda_minus <= 0:
                raise InputError("breather coupling must stay positive (lambda_minus > 0)")
            if self.amplitude < 0:
                raise InputError("breather amplitude must be >= 0")
            if not 0 < self.radius <= 0.5 * self.lambda_minus:
                raise InputError(
                    "breather profile needs radius <= lambda_minus/2 so the dilated "
                    "support stays inside the unit cell for every coupling"
                )
        else:
            if self.lambda_nodes is None or self.x_nodes is None or self.values is None:
                raise InputError("tabulated site needs lambda_nodes, x_nodes and values")
            vals = np.asarray(self.values, dtype=float)
            if not np.all(np.isfinite(vals)):
                raise InputError("tabulated site values must be finite")
            shape = (len(self.lambda_nodes), *map(len, self.x_nodes))
            if vals.shape != shape:
                raise InputError(f"tabulated site values have shape {vals.shape}, "
                                 f"the nodes need {shape}")
            nodes = np.concatenate([np.asarray(ax, dtype=float).ravel() for ax in self.x_nodes])
            if not np.all(np.abs(nodes) <= 0.5):
                raise InputError("tabulated site x_nodes must lie in [-1/2, 1/2]: assumption "
                                 "(i) keeps u(lambda, .) inside the unit cell")
            lams = np.asarray(self.lambda_nodes, dtype=float)
            if not (lams.min(initial=np.inf) <= self.lambda_minus
                    and lams.max(initial=-np.inf) >= self.lambda_plus):  # a NaN node fails too
                raise InputError(f"tabulated site lambda_nodes must cover the coupling range "
                                 f"[{self.lambda_minus}, {self.lambda_plus}]: u is 0 beyond "
                                 "its nodes")
            for name, axes in (("lambda_nodes", [self.lambda_nodes]), ("x_nodes", self.x_nodes)):
                steps = [np.diff(np.asarray(ax, dtype=float).ravel()) for ax in axes]
                if not all(np.all(s > 0) or np.all(s < 0) for s in steps):  # a repeat fails both
                    raise InputError(f"tabulated site {name} must be strictly increasing or "
                                     "strictly decreasing on every axis")
            vals.setflags(write=False)
            object.__setattr__(self, "values", vals)

    def _interpolator(self):
        # imported here: only tabulated sites need scipy.interpolate
        from scipy.interpolate import RegularGridInterpolator

        axes = (np.asarray(self.lambda_nodes, float),) + tuple(
            np.asarray(ax, float) for ax in self.x_nodes
        )
        return RegularGridInterpolator(
            axes, self.values, method="linear", bounds_error=False, fill_value=0.0
        )

    def _check_lambda(self, lam):
        lo, hi = self.lambda_minus, self.lambda_plus
        slack = 1e-12 * (1.0 + abs(lo) + abs(hi))
        lam = np.asarray(lam, dtype=float)
        if lam.min(initial=np.inf) < lo - slack or lam.max(initial=-np.inf) > hi + slack:
            raise DomainError(
                f"coupling {lam} outside [{lo}, {hi}]"
            )


def site_values(site: SingleSiteSpec, lams, pts, out=None) -> np.ndarray:
    """Evaluate u(lam, x) for couplings ``lams`` at points ``pts`` (..., d).

    The couplings broadcast against the points without their coordinate
    axis: (K, 1) against (P, d) gives a (K, P) matrix, and (L, 1, ..., M)
    against (1, n, ..., 1, d) gives M realizations in grid order with the
    realization axis last.  ``out``, shaped as the broadcast, receives the
    values; the built-in families compute in it with no temporary of that
    shape.  Values are zero outside the closed unit cell (any coordinate
    beyond 1/2 in modulus), since every family is supported inside it.
    """
    site._check_lambda(lams)
    lams = np.asarray(lams, dtype=float)
    pts = np.asarray(pts, dtype=float)
    sq = (pts * pts).sum(axis=-1)
    out = np.empty(np.broadcast(lams, sq).shape) if out is None else out
    if site.kind == "alloy":
        prof = _bump_from_sqnorm(site.amplitude, site.radius, sq)
        coef = lams - site.lambda_minus if site.standardized else lams
        return np.multiply(coef, prof, out=out)
    if site.kind == "breather":
        np.multiply(lams**2, sq, out=out)
        np.negative(_bump_from_sqnorm(site.amplitude, site.radius, out, out=out), out=out)
        if site.standardized:
            base = _bump_from_sqnorm(site.amplitude, site.radius, site.lambda_minus**2 * sq)
            np.add(base, out, out=out)
    else:
        interp, d = site._interpolator(), pts.shape[-1]  # it takes queries (..., 1 + d)
        vals = interp(np.concatenate([np.broadcast_to(lams[..., None], out.shape + (1,)),
                                      np.broadcast_to(pts, out.shape + (d,))], axis=-1))
        if site.standardized:
            vals = vals - interp(np.concatenate([np.full(sq.shape + (1,), site.lambda_minus),
                                                 pts], axis=-1))
        out[...] = vals
    return out


def site_derivative_values(site: SingleSiteSpec, lams, pts) -> np.ndarray:
    """Evaluate du/dlambda for couplings (K,) at points (P, d), as a (K, P) matrix.

    Analytic for the built-in families; central finite differences in lambda
    for tabulated data.  Standardization does not change the derivative.
    """
    site._check_lambda(lams)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    pts = np.asarray(pts, dtype=float)
    sq = np.sum(pts * pts, axis=-1)

    if site.kind == "tabulated":
        step = 1e-6 * (site.lambda_plus - site.lambda_minus)
        lo = np.clip(lams - step, site.lambda_minus, site.lambda_plus)
        hi = np.clip(lams + step, site.lambda_minus, site.lambda_plus)
        unstd = replace(site, standardized=False)
        return (site_values(unstd, hi[:, None], pts)
                - site_values(unstd, lo[:, None], pts)) / (hi - lo)[:, None]
    if site.kind == "alloy":
        # a fresh C-ordered array, not a view: row sums keep their order of addition
        return np.broadcast_to(_bump_from_sqnorm(site.amplitude, site.radius, sq),
                               (lams.size, sq.size)).copy()
    # d/dlam [-f(lam x)] = -x . grad f(lam x) = g(lam x)/lam  with
    # g(y) = -y . grad f(y) = (4 a |y|^2 / r^2) (1 - |y|^2/r^2)_+ >= 0.
    ramp = _bump_ramp_from_sqnorm(4.0 * site.amplitude, site.radius, lams[:, None] ** 2 * sq)
    return lams[:, None] * sq / site.radius**2 * ramp


def analytic_kappa1(site: SingleSiteSpec):
    """Exact sup of du/dlambda for the built-in families, None for tabulated.

    The bump's repulsivity function peaks at value a (at |y| = r/sqrt(2)), so
    the breather derivative g(lam x)/lam is maximized at lam = lambda_minus.
    """
    if site.kind == "alloy":
        return site.amplitude
    if site.kind == "breather":
        return site.amplitude / site.lambda_minus
    return None


@dataclass(frozen=True)
class PeriodicPotentialSpec:
    """Unit-periodic background potential, sampled per unit cell.

    ``offset`` carries additive energy normalization shifts.  ``site_floor``
    holds the coupling-floor slice u(lambda_minus, .) absorbed from the random
    part during standardization; it contributes one term per cell, entirely
    inside that cell.
    """

    kind: str
    amplitudes: tuple = None
    values: np.ndarray = None
    offset: float = 0.0
    site_floor: SingleSiteSpec = None

    def __post_init__(self):
        if self.kind not in VPER_KINDS:
            raise InputError(f"unknown periodic potential kind {self.kind!r}")
        if self.kind == "cosine-sum":
            if self.amplitudes is None:
                raise InputError("cosine-sum potential needs per-axis amplitudes")
            object.__setattr__(self, "amplitudes", tuple(float(a) for a in self.amplitudes))
        if self.kind == "tabulated":
            if self.values is None:
                raise InputError("tabulated potential needs unit-cell samples")
            vals = np.asarray(self.values, dtype=float)
            if not np.all(np.isfinite(vals)):
                raise InputError("periodic potential samples must be finite and bounded")
            vals.setflags(write=False)
            object.__setattr__(self, "values", vals)

    def sample_cell(self, n: int, d: int) -> np.ndarray:
        """Sample on the midpoint grid of the unit cell, shape (n,)*d."""
        pts = _midpoint_grid(n, d)
        if self.kind == "zero":
            cell = np.zeros(len(pts))
        elif self.kind == "cosine-sum":
            if len(self.amplitudes) != d:
                raise InputError(f"cosine-sum needs {d} amplitudes, got {len(self.amplitudes)}")
            cos, cell = np.cos(2 * np.pi * pts), np.zeros(len(pts))
            for axis, amp in enumerate(self.amplitudes):
                cell = cell + amp * cos[:, axis]
        else:
            if self.values.shape != (n,) * d:
                raise InputError(
                    f"tabulated potential sampled at {self.values.shape}, grid wants {(n,) * d}"
                )
            cell = self.values.ravel()
        if self.site_floor is not None:
            cell = cell + site_values(self.site_floor, self.site_floor.lambda_minus, pts)
        return (cell + self.offset).reshape((n,) * d)


@dataclass(frozen=True)
class DistributionSpec:
    """Coupling law on [lambda_minus, lambda_plus] with inf supp = lambda_minus.

    ``alpha`` and ``kappa`` certify the small-window mass bound
    mu([lambda_minus, lambda_minus + eps)) >= alpha * eps**kappa; they are
    derived from the kind and its parameters, never passed in.  The uniform
    law is the two-point law without its atom and shares its formulas.
    """

    kind: str
    lambda_minus: float
    lambda_plus: float
    atom_mass_at_min: float = 0.0
    beta_a: float = None
    beta_b: float = None
    alpha: float = field(init=False)
    kappa: float = field(init=False)

    def __post_init__(self):
        if self.kind not in DIST_KINDS:
            raise InputError(f"unknown distribution kind {self.kind!r}")
        if not self.lambda_minus < self.lambda_plus:
            raise InputError("distribution needs lambda_minus < lambda_plus")
        if not 0.0 <= self.atom_mass_at_min < 1.0:
            raise InputError("atom mass at lambda_minus must lie in [0, 1)")
        if self.kind != "two-point-plus-uniform" and self.atom_mass_at_min != 0.0:
            raise InputError(f"{self.kind} distribution carries no atom")
        if self.kind == "truncated-beta":
            if self.beta_a is None or self.beta_b is None:
                raise InputError("truncated-beta needs shape parameters beta_a, beta_b")
            if self.beta_a <= 0 or self.beta_b <= 0:
                raise InputError("beta shape parameters must be positive")
        alpha, kappa = self._tail_constants()
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "kappa", kappa)

    @property
    def width(self):
        return self.lambda_plus - self.lambda_minus

    def _tail_constants(self):
        W = self.width
        if self.kind == "truncated-beta":
            a, b = self.beta_a, self.beta_b
            # F(eps) = I_{eps/W}(a, b) >= (1-t)^{b-1} t^a / (a B(a,b)) at t = eps/W;
            # valid for eps <= W/2 with the worst case (1/2)^{b-1} when b > 1.
            guard = min(1.0, 0.5 ** (b - 1.0))
            from scipy import special  # here and below: only the truncated-beta law needs it

            return guard / (a * special.beta(a, b) * W**a), a
        return (1.0 - self.atom_mass_at_min) / W, 1.0

    def tail_bound_range(self):
        """Largest eps up to which the (alpha, kappa) bound is certified."""
        if self.kind == "truncated-beta":
            return 0.5 * self.width
        return self.width

    def sample(self, uniforms: np.ndarray) -> np.ndarray:
        """Map uniform [0,1) variates through the inverse CDF."""
        u = np.asarray(uniforms, dtype=float)
        lo, W = self.lambda_minus, self.width
        if self.kind == "truncated-beta":
            from scipy import special

            return lo + W * special.betaincinv(self.beta_a, self.beta_b, u)
        q = self.atom_mass_at_min
        cont = lo + W * np.clip((u - q) / (1.0 - q), 0.0, 1.0)
        return np.where(u < q, lo, cont)

    def cdf_below(self, delta: float) -> float:
        """P(lambda - lambda_minus <= delta)."""
        if delta < 0:
            return 0.0
        t = min(delta / self.width, 1.0)
        if self.kind == "truncated-beta":
            from scipy import special

            return float(special.betainc(self.beta_a, self.beta_b, t))
        q = self.atom_mass_at_min
        return q + (1.0 - q) * t

    def lambda_star(self):
        """A split point with p = mu([lambda_star, lambda_plus]) in (0, 1).

        Defaults to the median; when an atom at lambda_minus holds half the
        mass or more the median degenerates to lambda_minus, and the midpoint
        quantile of the continuous part is used instead.
        """
        lo, W = self.lambda_minus, self.width
        if self.kind == "truncated-beta":
            from scipy import special

            return lo + W * float(special.betaincinv(self.beta_a, self.beta_b, 0.5)), 0.5
        q = self.atom_mass_at_min
        if q < 0.5:
            return lo + W * (0.5 - q) / (1.0 - q), 0.5
        return lo + 0.5 * W, 0.5 * (1.0 - q)


@dataclass(frozen=True)
class ModelSpec:
    """Full model: dimension, periodic background, site family, coupling law."""

    d: int
    vper: PeriodicPotentialSpec
    site: SingleSiteSpec
    dist: DistributionSpec
    energy_shift: float = 0.0

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise InputError("spatial dimension must be 1, 2 or 3")
        if (self.site.lambda_minus, self.site.lambda_plus) != (
            self.dist.lambda_minus,
            self.dist.lambda_plus,
        ):
            raise InputError("site family and coupling law disagree on the lambda range")


def standardize(model: ModelSpec) -> ModelSpec:
    """Subtract the coupling floor from the site family and absorb it into the
    periodic background, so that u(lambda_minus, .) = 0 and u >= 0.

    Idempotent: standardized models are returned unchanged.
    """
    if model.site.standardized:
        return model
    new_site = replace(model.site, standardized=True)
    floor_is_zero = model.site.kind == "alloy" and model.site.lambda_minus == 0.0
    if floor_is_zero:
        return replace(model, site=new_site)
    floor = replace(model.site, standardized=False)
    new_vper = replace(model.vper, site_floor=floor)
    return replace(model, vper=new_vper, site=new_site)


def normalize_energy(model: ModelSpec, ground_energy: float) -> ModelSpec:
    """Shift the periodic background by -ground_energy and record the shift."""
    new_vper = replace(model.vper, offset=model.vper.offset - ground_energy)
    return replace(
        model, vper=new_vper, energy_shift=model.energy_shift + ground_energy
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Verdicts and measured constants for the model assumptions (i)-(v).

    (i) support containment, which ``SingleSiteSpec`` enforces, so its
    verdict is always True; (ii) bounded coupling derivative (kappa1), (iii)
    monotonicity in the coupling, (iv) derivative of the space integral
    pinned in [eps1, 1/eps1] on a window of width eps2, (v) small-window mass
    bound of the coupling law.  ``tol`` is the sign tolerance ``SIGN_TOL``.
    """

    verdicts: dict
    kappa1: float
    eps1: float
    eps2: float
    alpha: float
    kappa: float
    worst_violation: float
    violation_site: tuple
    tol: float

    @property
    def passed(self):
        return all(self.verdicts.values())


def _midpoint_grid(n: int, d: int):
    """The midpoint grid of the unit cell, (n**d, d) points in C order: per
    axis the midpoints (j + 1/2)/n - 1/2 of n equal intervals.  V_per, V_omega,
    the coupling floor, the xi functionals and the assumption scans all read it."""
    offsets = (np.arange(n) + 0.5) / n - 0.5
    mesh = np.meshgrid(*([offsets] * d), indexing="ij")
    return np.stack([ax.ravel() for ax in mesh], axis=-1)


def derivative_window(model: ModelSpec, lams, n: int, threshold: float):
    """Read the window of assumption (iv) off couplings ``lams`` ascending from
    lambda_minus, at the n-point midpoint quadrature of the cell.

    Returns du/dlambda at (lams, grid points), (K, n**d); its quadrature
    phi'(lambda) over the cell, (K,); the count ``stop`` of leading couplings
    on which phi' > ``threshold``; and (eps1, eps2) with phi' in
    [eps1, 1/eps1] on [lambda_minus, lambda_minus + eps2] over those couplings,
    (0, 0) when ``stop`` is 0.
    """
    deriv = site_derivative_values(model.site, lams, _midpoint_grid(n, model.d))
    phi_prime = deriv.sum(axis=1) * (1.0 / n) ** model.d
    positive = phi_prime > threshold
    stop = int(np.argmin(positive)) if not positive.all() else len(positive)
    if stop == 0:
        return deriv, phi_prime, stop, (0.0, 0.0)
    window = phi_prime[:stop]
    eps1 = float(min(window.min(), 1.0 / window.max()))
    return deriv, phi_prime, stop, (eps1, float(lams[stop - 1] - model.site.lambda_minus))


def validate_assumptions(
    model: ModelSpec, lambda_grid_size: int = 64, x_grid_size: int = 256
) -> AssumptionReport:
    """Scan assumptions (ii)-(v) on (lambda, x) grids and report constants;
    (i) holds by construction of the site family.

    Grid sizes are per axis; the x scan uses x_grid_size**d points, so reduce
    the resolution for d >= 2.  (iii) holds when du/dlambda >= -SIGN_TOL.
    (iv) reads the ``derivative_window`` at threshold ``SIGN_TOL`` and holds
    when the window spans at least two grid couplings; when it fails, eps1 =
    0 and the worst violation is |phi'(lambda_minus)|.
    """
    if lambda_grid_size < 16 or x_grid_size < 16:
        raise DomainError("assumption scans need grid sizes >= 16")
    if x_grid_size**model.d > X_SCAN_POINTS:
        raise DomainError("x grid too large; reduce x_grid_size for this dimension")

    site = model.site
    lams = np.linspace(site.lambda_minus, site.lambda_plus, lambda_grid_size)
    deriv, phi_prime, stop, (eps1, eps2) = derivative_window(model, lams, x_grid_size, SIGN_TOL)

    # (i) support containment: every SingleSiteSpec is supported in the closed
    # cell (radius rules, tabulated x_nodes in [-1/2, 1/2]), so nothing to scan
    verdicts = {"i": True}
    worst = 0.0
    where = None

    # (ii) finite derivative sup
    finite = bool(np.all(np.isfinite(deriv)))
    kappa1 = float(np.abs(deriv).max()) if finite else float("inf")
    verdicts["ii"] = finite

    # (iii) monotonicity in the coupling
    dmin = float(deriv.min())
    verdicts["iii"] = dmin >= -SIGN_TOL
    if not verdicts["iii"] and where is None:
        i_bad = np.unravel_index(np.argmin(deriv), deriv.shape)
        worst = abs(dmin)
        where = ("iii", float(lams[i_bad[0]]),
                 tuple(_midpoint_grid(x_grid_size, model.d)[i_bad[1]].tolist()))

    # (iv) derivative of the space integral pinned away from 0 and infinity
    verdicts["iv"] = stop >= 2
    if not verdicts["iv"]:
        eps1 = 0.0
        if where is None:
            worst = abs(float(phi_prime[0]))
            where = ("iv", float(lams[0]), None)

    # (v) analytic small-window mass bound of the coupling law, spot-checked
    dist = model.dist
    alpha, kappa = dist.alpha, dist.kappa
    limit = min(eps2 if eps2 > 0 else dist.width, dist.tail_bound_range())
    eps_grid = np.linspace(limit / 32.0, limit, 32)
    bound_ok = all(
        dist.cdf_below(e) >= alpha * e**kappa * (1.0 - 1e-12) for e in eps_grid
    )
    verdicts["v"] = bool(bound_ok and dist.atom_mass_at_min < 1.0)
    if not verdicts["v"] and where is None:
        gaps = [alpha * e**kappa - dist.cdf_below(e) for e in eps_grid]
        worst = max(gaps)
        where = ("v", float(eps_grid[int(np.argmax(gaps))]), None)

    return AssumptionReport(verdicts=verdicts, kappa1=kappa1, eps1=eps1, eps2=eps2,
                            alpha=float(alpha), kappa=float(kappa),
                            worst_violation=float(worst), violation_site=where, tol=SIGN_TOL)
