"""Random-operator model: single-site potential families, coupling laws, assumptions.

The random potential is a sum of single-site terms, one per lattice cell,

    V(x) = sum_k u(lambda_k, x - k),

where the couplings lambda_k are i.i.d. on [lambda_minus, lambda_plus].  Two
built-in families are provided: the alloy type u(lam, x) = lam * f(x) and the
breather (dilation) type u(lam, x) = -f(lam * x), both built on the compactly
supported C^1 bump

    f(x) = a * (1 - |x|^2 / r^2)_+^2        (|.| Euclidean).

All spatial points are passed as arrays whose trailing axis holds the d
coordinates; bare scalars are accepted as d = 1 points.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .errors import DomainError, InputError

SITE_KINDS = ("alloy", "breather", "tabulated")
VPER_KINDS = ("zero", "cosine-sum", "tabulated")
DIST_KINDS = ("uniform", "truncated-beta", "two-point-plus-uniform")
# most x points an assumption scan visits (x_grid_size ** d)
X_SCAN_POINTS = 4_000_000

SIGN_TOL = 1e-9  # tolerance for sign conditions checked on grids


def _bump_from_sqnorm(amplitude, radius, sqnorm):
    """Bump profile a*(1 - s/r^2)_+^2 evaluated from the squared norm s."""
    t = 1.0 - sqnorm / (radius * radius)
    return amplitude * np.clip(t, 0.0, None) ** 2


def _bump_ramp_from_sqnorm(amplitude, radius, sqnorm):
    """Radial factor a*(1 - s/r^2)_+ shared by the repulsivity function."""
    t = 1.0 - sqnorm / (radius * radius)
    return amplitude * np.clip(t, 0.0, None)


def _as_points(x):
    """Normalize point input to an (..., d) float array.

    Scalars become a single d = 1 point.  Returns (points, was_scalar).
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0:
        return pts.reshape(1, 1), True
    return pts, False


@dataclass(frozen=True)
class SingleSiteSpec:
    """One cell's potential family u(lambda, x), supported inside the unit cell.

    ``radius`` is the support radius of the bump profile.  For the breather
    kind the dilated support at the weakest coupling must still fit in the
    cell, which forces radius <= lambda_minus / 2; the alloy kind needs
    radius <= 1/2.  ``standardized`` marks the family after the floor slice
    u(lambda_minus, .) has been subtracted.
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
        if np.any(lam < lo - slack) or np.any(lam > hi + slack):
            raise DomainError(
                f"coupling {lam} outside [{lo}, {hi}]"
            )


def site_values(site: SingleSiteSpec, lams, pts) -> np.ndarray:
    """Evaluate u(lam, x) for couplings ``lams`` (K,) at points ``pts`` (P, d).

    Returns a (K, P) matrix.  Values are exactly zero outside the closed unit
    cell (any coordinate beyond 1/2 in modulus).
    """
    site._check_lambda(lams)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    pts = np.asarray(pts, dtype=float)
    sq = np.sum(pts * pts, axis=-1)  # (P,)
    outside = np.any(np.abs(pts) > 0.5, axis=-1)

    if site.kind == "alloy":
        prof = _bump_from_sqnorm(site.amplitude, site.radius, sq)
        prof = np.where(outside, 0.0, prof)
        coef = lams - site.lambda_minus if site.standardized else lams
        out = coef[:, None] * prof[None, :]
    elif site.kind == "breather":
        scaled = lams[:, None] ** 2 * sq[None, :]
        out = -_bump_from_sqnorm(site.amplitude, site.radius, scaled)
        if site.standardized:
            base = site.lambda_minus**2 * sq
            out = _bump_from_sqnorm(site.amplitude, site.radius, base)[None, :] + out
        out = np.where(outside[None, :], 0.0, out)
    else:
        interp = site._interpolator()
        K, P = lams.size, sq.size
        flat_pts = pts.reshape(P, -1)
        query = np.concatenate(
            [np.repeat(lams, P)[:, None], np.tile(flat_pts, (K, 1))], axis=1
        )
        out = interp(query).reshape(K, P)
        if site.standardized:
            base_query = np.concatenate(
                [np.full((P, 1), site.lambda_minus), flat_pts], axis=1
            )
            out = out - interp(base_query)[None, :]
        out = np.where(outside[None, :], 0.0, out)
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
    outside = np.any(np.abs(pts) > 0.5, axis=-1)

    if site.kind == "alloy":
        prof = _bump_from_sqnorm(site.amplitude, site.radius, sq)
        prof = np.where(outside, 0.0, prof)
        out = np.broadcast_to(prof[None, :], (lams.size, sq.size)).copy()
    elif site.kind == "breather":
        # d/dlam [-f(lam x)] = -x . grad f(lam x) = g(lam x)/lam  with
        # g(y) = -y . grad f(y) = (4 a |y|^2 / r^2) (1 - |y|^2/r^2)_+ >= 0.
        scaled = lams[:, None] ** 2 * sq[None, :]
        ramp = _bump_ramp_from_sqnorm(4.0 * site.amplitude, site.radius, scaled)
        out = lams[:, None] * sq[None, :] / site.radius**2 * ramp
        out = np.where(outside[None, :], 0.0, out)
    else:
        width = site.lambda_plus - site.lambda_minus
        step = 1e-6 * width
        lo = np.clip(lams - step, site.lambda_minus, site.lambda_plus)
        hi = np.clip(lams + step, site.lambda_minus, site.lambda_plus)
        unstd = replace(site, standardized=False)
        out = (site_values(unstd, hi, pts) - site_values(unstd, lo, pts)) / (
            (hi - lo)[:, None]
        )
    return out


def evaluate_site(site: SingleSiteSpec, lam: float, x):
    """u(lam, x) at a single coupling; ``x`` is (..., d) or a scalar (d = 1)."""
    pts, was_scalar = _as_points(x)
    lead = pts.shape[:-1]
    flat = pts.reshape(-1, pts.shape[-1])
    vals = site_values(site, [lam], flat)[0].reshape(lead)
    return float(vals[0]) if was_scalar else vals


def site_lambda_derivative(site: SingleSiteSpec, lam: float, x):
    """du/dlambda at a single coupling; same point convention as evaluate_site."""
    pts, was_scalar = _as_points(x)
    lead = pts.shape[:-1]
    flat = pts.reshape(-1, pts.shape[-1])
    vals = site_derivative_values(site, [lam], flat)[0].reshape(lead)
    return float(vals[0]) if was_scalar else vals


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
        """Sample on the cell-centered unit-cell grid, shape (n,)*d."""
        offsets = (np.arange(n) + 0.5) / n - 0.5
        if self.kind == "zero":
            cell = np.zeros((n,) * d)
        elif self.kind == "cosine-sum":
            amps = self.amplitudes
            if len(amps) != d:
                raise InputError(f"cosine-sum needs {d} amplitudes, got {len(amps)}")
            cell = np.zeros((n,) * d)
            for axis, amp in enumerate(amps):
                shape = [1] * d
                shape[axis] = n
                cell = cell + amp * np.cos(2 * np.pi * offsets).reshape(shape)
        else:
            if self.values.shape != (n,) * d:
                raise InputError(
                    f"tabulated potential sampled at {self.values.shape}, grid wants {(n,) * d}"
                )
            cell = self.values.copy()
        if self.site_floor is not None:
            mesh = np.meshgrid(*([offsets] * d), indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
            cell = cell + site_values(
                self.site_floor, [self.site_floor.lambda_minus], pts
            )[0].reshape((n,) * d)
        return cell + self.offset

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Pointwise values at arbitrary points (..., d); tabulated kind is
        evaluated as piecewise constant on its sampling cells."""
        pts = np.asarray(pts, dtype=float)
        d = pts.shape[-1]
        frac = pts - np.round(pts)  # cell-relative offsets in [-1/2, 1/2)
        if self.kind == "zero":
            out = np.zeros(pts.shape[:-1])
        elif self.kind == "cosine-sum":
            out = sum(
                amp * np.cos(2 * np.pi * frac[..., i]) for i, amp in enumerate(self.amplitudes)
            )
        else:
            n = self.values.shape[0]
            idx = np.clip(((frac + 0.5) * n).astype(int), 0, n - 1)
            out = self.values[tuple(np.moveaxis(idx, -1, 0))]
        if self.site_floor is not None:
            flat = frac.reshape(-1, d)
            floor = site_values(self.site_floor, [self.site_floor.lambda_minus], flat)[0]
            out = out + floor.reshape(pts.shape[:-1])
        return out + self.offset


@dataclass(frozen=True)
class DistributionSpec:
    """Coupling law on [lambda_minus, lambda_plus] with inf supp = lambda_minus.

    ``alpha`` and ``kappa`` certify the small-window mass bound
    mu([lambda_minus, lambda_minus + eps)) >= alpha * eps**kappa; they are
    derived analytically for the built-in kinds when not given.
    """

    kind: str
    lambda_minus: float
    lambda_plus: float
    atom_mass_at_min: float = 0.0
    beta_a: float = None
    beta_b: float = None
    alpha: float = None
    kappa: float = None

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
        if self.alpha is None:
            object.__setattr__(self, "alpha", alpha)
        if self.kappa is None:
            object.__setattr__(self, "kappa", kappa)

    @property
    def width(self):
        return self.lambda_plus - self.lambda_minus

    def _tail_constants(self):
        W = self.width
        if self.kind == "uniform":
            return 1.0 / W, 1.0
        if self.kind == "two-point-plus-uniform":
            return (1.0 - self.atom_mass_at_min) / W, 1.0
        a, b = self.beta_a, self.beta_b
        # F(eps) = I_{eps/W}(a, b) >= (1-t)^{b-1} t^a / (a B(a,b)) at t = eps/W;
        # valid for eps <= W/2 with the worst case (1/2)^{b-1} when b > 1.
        guard = min(1.0, 0.5 ** (b - 1.0))
        return guard / (a * special.beta(a, b) * W**a), a

    def tail_bound_range(self):
        """Largest eps up to which the (alpha, kappa) bound is certified."""
        if self.kind == "truncated-beta":
            return 0.5 * self.width
        return self.width

    def sample(self, uniforms: np.ndarray) -> np.ndarray:
        """Map uniform [0,1) variates through the inverse CDF."""
        u = np.asarray(uniforms, dtype=float)
        lo, W = self.lambda_minus, self.width
        if self.kind == "uniform":
            return lo + W * u
        if self.kind == "truncated-beta":
            return lo + W * special.betaincinv(self.beta_a, self.beta_b, u)
        q = self.atom_mass_at_min
        cont = lo + W * np.clip((u - q) / (1.0 - q), 0.0, 1.0)
        return np.where(u < q, lo, cont)

    def cdf_below(self, delta: float) -> float:
        """P(lambda - lambda_minus <= delta)."""
        if delta < 0:
            return 0.0
        t = min(delta / self.width, 1.0)
        if self.kind == "uniform":
            return t
        if self.kind == "truncated-beta":
            return float(special.betainc(self.beta_a, self.beta_b, t))
        q = self.atom_mass_at_min
        return q + (1.0 - q) * t

    def mass_below(self, eps: float) -> float:
        """mu([lambda_minus, lambda_minus + eps)), the open-interval mass."""
        # continuous parts have no atoms, so the half-open mass matches cdf_below
        return self.cdf_below(eps)

    def lambda_star(self):
        """A split point with p = mu([lambda_star, lambda_plus]) in (0, 1).

        Defaults to the median; when an atom at lambda_minus holds half the
        mass or more the median degenerates to lambda_minus, and the midpoint
        quantile of the continuous part is used instead.
        """
        lo, W = self.lambda_minus, self.width
        if self.kind == "uniform":
            return lo + 0.5 * W, 0.5
        if self.kind == "truncated-beta":
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


def total_potential(model: ModelSpec, couplings: dict, pts) -> np.ndarray:
    """Brute-force V_per(x) + sum_k u(lambda_k, x - k) at arbitrary points.

    ``couplings`` maps lattice sites (int tuples) to coupling values.  Used as
    an independent oracle; not the assembly path.
    """
    pts = np.asarray(pts, dtype=float)
    out = model.vper.evaluate(pts)
    flat = pts.reshape(-1, pts.shape[-1])
    acc = np.zeros(flat.shape[0])
    for k, lam in couplings.items():
        shift = flat - np.asarray(k, dtype=float)
        acc += site_values(model.site, [lam], shift)[0]
    return out + acc.reshape(pts.shape[:-1])


@dataclass(frozen=True)
class AssumptionReport:
    """Verdicts and measured constants for the model assumptions (i)-(v).

    (i) support containment, (ii) bounded coupling derivative (kappa1),
    (iii) monotonicity in the coupling, (iv) derivative of the space integral
    pinned in [eps1, 1/eps1] on a window of width eps2, (v) small-window mass
    bound of the coupling law.
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

    def to_dict(self):
        return {
            "verdicts": dict(self.verdicts),
            "kappa1": self.kappa1,
            "eps1": self.eps1,
            "eps2": self.eps2,
            "alpha": self.alpha,
            "kappa": self.kappa,
            "worst_violation": self.worst_violation,
            "violation_site": list(self.violation_site) if self.violation_site else None,
            "tol": self.tol,
            "passed": self.passed,
        }


def _midpoint_grid(m: int, d: int):
    """Cell-centered product grid on the unit cell, (m**d, d) points."""
    offsets = (np.arange(m) + 0.5) / m - 0.5
    mesh = np.meshgrid(*([offsets] * d), indexing="ij")
    return np.stack([ax.ravel() for ax in mesh], axis=-1)


def integral_derivative_profile(model: ModelSpec, lams, x_grid_size: int = 256):
    """Quadrature of du/dlambda over the unit cell at each coupling in ``lams``.

    This is the discrete version of d/dlambda of the space integral of u; the
    same midpoint rule is used everywhere downstream, so the constants
    measured from this profile are the ones the finite-volume estimates obey.
    """
    pts = _midpoint_grid(x_grid_size, model.d)
    weight = (1.0 / x_grid_size) ** model.d
    deriv = site_derivative_values(model.site, lams, pts)
    return deriv.sum(axis=1) * weight


def validate_assumptions(
    model: ModelSpec, lambda_grid_size: int = 64, x_grid_size: int = 256, tol: float = SIGN_TOL
) -> AssumptionReport:
    """Scan the model assumptions on (lambda, x) grids and report constants.

    Grid sizes are per axis; the x scan uses x_grid_size**d points, so reduce
    the resolution for d >= 2.
    """
    if lambda_grid_size < 16 or x_grid_size < 16:
        raise DomainError("assumption scans need grid sizes >= 16")
    if x_grid_size**model.d > X_SCAN_POINTS:
        raise DomainError("x grid too large; reduce x_grid_size for this dimension")

    site = model.site
    lams = np.linspace(site.lambda_minus, site.lambda_plus, lambda_grid_size)
    pts = _midpoint_grid(x_grid_size, model.d)
    deriv = site_derivative_values(site, lams, pts)

    verdicts = {}
    worst = 0.0
    where = None

    # (i) support containment: u vanishes identically outside the unit cell
    out_axis = 0.5 + (np.arange(8) + 0.5) / 16.0  # coordinates in (1/2, 1]
    shell = []
    for axis in range(model.d):
        base = _midpoint_grid(8, model.d)
        for s in out_axis:
            shifted = base.copy()
            shifted[:, axis] = s
            shell.append(shifted)
            shifted2 = base.copy()
            shifted2[:, axis] = -s
            shell.append(shifted2)
    shell = np.concatenate(shell, axis=0)
    outside_vals = site_values(site, lams[:: max(1, lambda_grid_size // 16)], shell)
    verdicts["i"] = bool(np.all(outside_vals == 0.0))
    if not verdicts["i"]:
        i_bad = np.unravel_index(np.argmax(np.abs(outside_vals)), outside_vals.shape)
        worst = float(np.abs(outside_vals).max())
        where = ("i", float(lams[i_bad[0]]), tuple(shell[i_bad[1]]))

    # (ii) finite derivative sup
    finite = bool(np.all(np.isfinite(deriv)))
    kappa1 = float(np.abs(deriv).max()) if finite else float("inf")
    verdicts["ii"] = finite

    # (iii) monotonicity in the coupling
    dmin = float(deriv.min())
    verdicts["iii"] = dmin >= -tol
    if not verdicts["iii"] and where is None:
        i_bad = np.unravel_index(np.argmin(deriv), deriv.shape)
        worst = abs(dmin)
        where = ("iii", float(lams[i_bad[0]]), tuple(pts[i_bad[1]]))

    # (iv) derivative of the space integral pinned away from 0 and infinity
    weight = (1.0 / x_grid_size) ** model.d
    phi_prime = deriv.sum(axis=1) * weight
    positive = phi_prime > tol
    if positive[0]:
        stop = int(np.argmin(positive)) if not positive.all() else lambda_grid_size
        j_star = stop - 1
    else:
        j_star = 0
    eps2 = float(lams[j_star] - site.lambda_minus)
    if j_star >= 1:
        window = phi_prime[: j_star + 1]
        eps1 = float(min(window.min(), 1.0 / window.max()))
        verdicts["iv"] = True
    else:
        eps1 = 0.0
        verdicts["iv"] = False
        if where is None:
            worst = abs(float(phi_prime[0]))
            where = ("iv", float(lams[0]), None)

    # (v) analytic small-window mass bound of the coupling law, spot-checked
    dist = model.dist
    alpha, kappa = dist.alpha, dist.kappa
    limit = min(eps2 if eps2 > 0 else dist.width, dist.tail_bound_range())
    eps_grid = np.linspace(limit / 32.0, limit, 32)
    bound_ok = all(
        dist.mass_below(e) >= alpha * e**kappa * (1.0 - 1e-12) for e in eps_grid
    )
    verdicts["v"] = bool(bound_ok and dist.atom_mass_at_min < 1.0)
    if not verdicts["v"] and where is None:
        gaps = [alpha * e**kappa - dist.mass_below(e) for e in eps_grid]
        worst = max(gaps)
        where = ("v", float(eps_grid[int(np.argmax(gaps))]), None)

    return AssumptionReport(
        verdicts=verdicts,
        kappa1=kappa1,
        eps1=eps1,
        eps2=eps2,
        alpha=float(alpha),
        kappa=float(kappa),
        worst_violation=float(worst),
        violation_site=where,
        tol=tol,
    )
