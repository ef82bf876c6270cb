"""Model-layer tests: site families, standardization, assumption scans."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breatherlab.errors import DomainError, InputError
from breatherlab.model import (
    DistributionSpec,
    ModelSpec,
    PeriodicPotentialSpec,
    SingleSiteSpec,
    analytic_kappa1,
    normalize_energy,
    site_derivative_values,
    site_values,
    standardize,
    validate_assumptions,
)


def bump_scalar(a, r, x):
    """Independent scalar oracle for the bump profile (plain formula)."""
    s = float(np.sum(np.square(x)))
    t = 1.0 - s / r**2
    return a * max(t, 0.0) ** 2


def u_at(site, lam, pts):
    """u(lam, x) at one coupling for points (P, d), shape (P,)."""
    return site_values(site, lam, pts)


def du_at(site, lam, pts):
    """du/dlambda at one coupling for points (P, d), shape (P,)."""
    return site_derivative_values(site, [lam], pts)[0]


def periodic_values(vper, pts):
    """V_per at arbitrary points (..., d), tabulated kind piecewise constant on
    its sampling cells: pointwise, not the cell sampling of the assembly."""
    pts = np.asarray(pts, dtype=float)
    d = pts.shape[-1]
    frac = pts - np.round(pts)  # cell-relative offsets in [-1/2, 1/2)
    if vper.kind == "zero":
        out = np.zeros(pts.shape[:-1])
    elif vper.kind == "cosine-sum":
        out = sum(
            amp * np.cos(2 * np.pi * frac[..., i]) for i, amp in enumerate(vper.amplitudes)
        )
    else:
        n = vper.values.shape[0]
        idx = np.clip(((frac + 0.5) * n).astype(int), 0, n - 1)
        out = vper.values[tuple(np.moveaxis(idx, -1, 0))]
    if vper.site_floor is not None:
        flat = frac.reshape(-1, d)
        floor = u_at(vper.site_floor, vper.site_floor.lambda_minus, flat)
        out = out + floor.reshape(pts.shape[:-1])
    return out + vper.offset


def total_potential(model, couplings: dict, pts):
    """Brute-force V_per(x) + sum_k u(lambda_k, x - k) at arbitrary points;
    ``couplings`` maps lattice sites (int tuples) to coupling values."""
    pts = np.asarray(pts, dtype=float)
    out = periodic_values(model.vper, pts)
    flat = pts.reshape(-1, pts.shape[-1])
    acc = np.zeros(flat.shape[0])
    for k, lam in couplings.items():
        acc += u_at(model.site, lam, flat - np.asarray(k, dtype=float))
    return out + acc.reshape(pts.shape[:-1])


def breather_site(a=1.0, r=0.4, lo=1.0, hi=2.0, standardized=False):
    return SingleSiteSpec(
        kind="breather", amplitude=a, radius=r, lambda_minus=lo, lambda_plus=hi,
        standardized=standardized,
    )


def alloy_site(a=1.0, r=0.4, lo=0.0, hi=1.0, standardized=False):
    return SingleSiteSpec(
        kind="alloy", amplitude=a, radius=r, lambda_minus=lo, lambda_plus=hi,
        standardized=standardized,
    )


def breather_model(d=1, vper_kind="zero", amp=0.5, **site_kw):
    site = breather_site(**site_kw)
    if vper_kind == "zero":
        vper = PeriodicPotentialSpec(kind="zero")
    else:
        vper = PeriodicPotentialSpec(kind="cosine-sum", amplitudes=(amp,) * d)
    dist = DistributionSpec(
        kind="uniform", lambda_minus=site.lambda_minus, lambda_plus=site.lambda_plus
    )
    return ModelSpec(d=d, vper=vper, site=site, dist=dist)


class TestEvaluateSite:
    def test_breather_matches_scalar_formula(self):
        # u(lam, x) = -f(lam x); cross-check against the plain scalar formula
        site = breather_site(a=1.0, r=0.4)
        val = u_at(site, 2.0, [[0.1]])[0]
        assert val == pytest.approx(-bump_scalar(1.0, 0.4, 0.2), abs=1e-15)
        assert val == pytest.approx(-0.5625, abs=1e-12)

    def test_breather_standardized_zero_at_floor(self):
        site = breather_site(standardized=True)
        xs = np.linspace(-0.5, 0.5, 41)[:, None]
        vals = u_at(site, site.lambda_minus, xs)
        assert np.all(vals == 0.0)

    def test_alloy_monotone_in_coupling(self):
        site = alloy_site()
        xs = np.linspace(-0.6, 0.6, 101)[:, None]
        lo = u_at(site, 0.3, xs)
        hi = u_at(site, 0.8, xs)
        assert np.all(hi >= lo)

    def test_outside_cell_is_exact_zero(self):
        xg = np.linspace(-0.5, 0.5, 9)
        tabulated = SingleSiteSpec(kind="tabulated", lambda_minus=1.0, lambda_plus=2.0,
                                   lambda_nodes=(1.0, 2.0), x_nodes=(tuple(xg),),
                                   values=np.ones((2, 9)))
        for site in (breather_site(), alloy_site(a=2.0, r=0.5), tabulated):
            pts = np.array([[0.51], [0.75], [-0.9], [12.0]])
            assert np.all(u_at(site, site.lambda_plus, pts) == 0.0)

    @pytest.mark.parametrize("face", [-0.5, 0.5])
    def test_tabulated_node_on_cell_face_accepted(self, face):
        # the closed cell holds its faces: a table may reach them, and is 1 there
        nodes = (-0.5, 0.0, 0.5) if face > 0 else (-0.5, 0.25)
        site = SingleSiteSpec(kind="tabulated", lambda_minus=0.0, lambda_plus=1.0,
                              lambda_nodes=(0.0, 1.0), x_nodes=(nodes,),
                              values=np.ones((2, len(nodes))))
        assert u_at(site, 0.5, [[face]])[0] == 1.0
        assert u_at(site, 0.5, [[face * (1 + 1e-15)]])[0] == 0.0

    @pytest.mark.parametrize("x_nodes", [((-1.0, 0.0, 1.0),), ((-0.5, 0.5), (0.0, 0.5000001)),
                                         ((-0.5, float("nan")),)],
                             ids=["reaches-next-cell", "second-axis-past-face", "nan-node"])
    def test_tabulated_nodes_outside_cell_rejected(self, x_nodes):
        # assumption (i): u(lambda, .) is supported in the unit cell
        values = np.ones((2,) + tuple(map(len, x_nodes)))
        with pytest.raises(InputError, match=r"x_nodes .*assumption \(i\)"):
            SingleSiteSpec(kind="tabulated", lambda_minus=0.0, lambda_plus=1.0,
                           lambda_nodes=(0.0, 1.0), x_nodes=x_nodes, values=values)

    @pytest.mark.parametrize("lambda_nodes", [(1.0, 1.5), (1.25, 2.0), (1.0, float("nan"), 2.0)],
                             ids=["stops-short", "starts-late", "nan-node"])
    def test_tabulated_nodes_short_of_coupling_range_rejected(self, lambda_nodes):
        # the table is 0 beyond its nodes: u would read 0.0 at lambda = 1.8
        values = np.ones((len(lambda_nodes), 3))
        with pytest.raises(InputError, match=r"lambda_nodes must cover .*\[1.0, 2.0\]"):
            SingleSiteSpec(kind="tabulated", lambda_minus=1.0, lambda_plus=2.0,
                           lambda_nodes=lambda_nodes, x_nodes=((-0.5, 0.0, 0.5),), values=values)

    @pytest.mark.parametrize("lambda_nodes", [(2.0, 1.0, 1.5), (1.0, 1.5, 1.5, 2.0)],
                             ids=["unsorted", "repeated-node"])
    def test_tabulated_lambda_axis_not_monotone_rejected(self, lambda_nodes):
        # SciPy's interpolator raises ValueError on such an axis
        values = np.ones((len(lambda_nodes), 3))
        with pytest.raises(InputError, match="lambda_nodes must be strictly increasing or "
                                             "strictly decreasing"):
            SingleSiteSpec(kind="tabulated", lambda_minus=1.0, lambda_plus=2.0,
                           lambda_nodes=lambda_nodes, x_nodes=((-0.5, 0.0, 0.5),), values=values)

    @pytest.mark.parametrize("x_nodes", [((-0.5, 0.25, 0.0),), ((-0.5, 0.5), (0.0, 0.0, 0.5))],
                             ids=["unsorted", "second-axis-repeated-node"])
    def test_tabulated_x_axis_not_monotone_rejected(self, x_nodes):
        values = np.ones((2,) + tuple(map(len, x_nodes)))
        with pytest.raises(InputError, match="x_nodes must be strictly increasing or "
                                             "strictly decreasing"):
            SingleSiteSpec(kind="tabulated", lambda_minus=0.0, lambda_plus=1.0,
                           lambda_nodes=(0.0, 1.0), x_nodes=x_nodes, values=values)

    def test_tabulated_descending_axes_accepted(self):
        # SciPy accepts descending axes; u reads the same table either way
        up = SingleSiteSpec(kind="tabulated", lambda_minus=1.0, lambda_plus=2.0,
                            lambda_nodes=(1.0, 2.0), x_nodes=((-0.5, 0.0, 0.5),),
                            values=np.array([[0.0, 1.0, 0.0], [0.0, 3.0, 1.0]]))
        down = SingleSiteSpec(kind="tabulated", lambda_minus=1.0, lambda_plus=2.0,
                              lambda_nodes=(2.0, 1.0), x_nodes=((0.5, 0.0, -0.5),),
                              values=up.values[::-1, ::-1])
        pts = np.array([[-0.25], [0.0], [0.3]])
        assert np.allclose(u_at(down, 1.5, pts), u_at(up, 1.5, pts))

    def test_coupling_domain_error(self):
        site = breather_site(lo=1.0, hi=2.0)
        with pytest.raises(DomainError):
            u_at(site, 2.5, [[0.0]])
        with pytest.raises(DomainError):
            u_at(site, 0.5, [[0.0]])

    def test_tabulated_values_of_wrong_shape_rejected(self):
        # two coupling nodes and three x nodes need 2 x 3 values, not 2 x 2
        with pytest.raises(InputError, match=r"\(2, 2\).*\(2, 3\)"):
            SingleSiteSpec(kind="tabulated", lambda_minus=0.0, lambda_plus=1.0,
                           lambda_nodes=(0.0, 1.0), x_nodes=((-0.5, 0.0, 0.5),),
                           values=[[0.0, 0.0], [0.0, 1.0]])

    def test_2d_points(self):
        site = breather_site(a=1.5, r=0.3, lo=1.0, hi=2.0)
        pt = np.array([0.05, -0.08])
        got = u_at(site, 1.7, pt[None, :])[0]
        assert got == pytest.approx(-bump_scalar(1.5, 0.3, 1.7 * pt), abs=1e-14)


@st.composite
def constructible_sites(draw, d):
    """Any SingleSiteSpec the constructor accepts, of every kind, plain or
    standardized; tabulated nodes anywhere in the closed cell."""
    kind = draw(st.sampled_from(["alloy", "breather", "tabulated"]))
    standardized = draw(st.booleans())
    lo = draw(st.floats(0.1, 4.0))
    hi = lo + draw(st.floats(0.01, 4.0))
    amplitude = draw(st.floats(0.0, 10.0))
    if kind != "tabulated":
        cap = 0.5 if kind == "alloy" else 0.5 * lo
        radius = draw(st.floats(0.01, 1.0)) * cap
        return SingleSiteSpec(kind=kind, amplitude=amplitude, radius=radius, lambda_minus=lo,
                              lambda_plus=hi, standardized=standardized)
    axes = tuple(tuple(sorted(draw(st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=6,
                                            unique=True)))) for _ in range(d))
    lam_nodes = tuple(np.linspace(lo, hi, draw(st.integers(2, 4))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-amplitude, amplitude, (len(lam_nodes),) + tuple(map(len, axes)))
    return SingleSiteSpec(kind=kind, lambda_minus=lo, lambda_plus=hi, standardized=standardized,
                          lambda_nodes=lam_nodes, x_nodes=axes, values=values)


@st.composite
def sites_and_outside_points(draw):
    """A site at d = 1 or 2 and points (P, d) each with one coordinate beyond 1/2
    in modulus (the others anywhere), with couplings in the site's range."""
    d = draw(st.sampled_from([1, 2]))
    site = draw(constructible_sites(d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-3.0, 3.0, (32, d))
    beyond = np.nextafter(0.5, 1.0) + rng.exponential(draw(st.sampled_from([1e-15, 1e-3, 1.0])),
                                                      32)
    pts[np.arange(32), rng.integers(0, d, 32)] = rng.choice([-1.0, 1.0], 32) * beyond
    lams = np.concatenate([[site.lambda_minus, site.lambda_plus],
                           rng.uniform(site.lambda_minus, site.lambda_plus, 3)])
    return site, pts, lams


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=sites_and_outside_points())
def test_every_family_vanishes_outside_the_cell(case):
    # assumption (i) holds by construction: site_values keeps no cell-face
    # mask, so every family the constructor accepts must be 0 off the cell
    site, pts, lams = case
    assert np.all(site_values(site, lams[:, None], pts) == 0.0)
    assert np.all(site_derivative_values(site, lams, pts) == 0.0)


class TestDerivative:
    def test_alloy_derivative_is_profile(self):
        site = alloy_site(a=0.7, r=0.45)
        xs = np.linspace(-0.5, 0.5, 31)[:, None]
        d1 = du_at(site, 0.2, xs)
        d2 = du_at(site, 0.9, xs)
        f = np.array([bump_scalar(0.7, 0.45, x) for x in xs])
        assert np.allclose(d1, f, atol=1e-14)
        assert np.allclose(d1, d2, atol=1e-14)

    def test_breather_derivative_nonnegative(self):
        site = breather_site()
        lams = np.linspace(1.0, 2.0, 23)
        xs = np.linspace(-0.5, 0.5, 57)[:, None]
        dv = site_values(site, lams[:, None], xs)  # sanity: values finite
        assert np.all(np.isfinite(dv))
        for lam in lams:
            assert np.all(du_at(site, lam, xs) >= 0.0)

    def test_breather_derivative_against_finite_difference(self):
        # analytic -x f'(lam x) vs difference quotient of the site values
        site = breather_site(a=1.0, r=0.4)
        step = 1e-5
        rng = np.random.default_rng(7)
        for _ in range(20):
            lam = rng.uniform(1.1, 1.9)
            x = rng.uniform(-0.45, 0.45)
            up, down = u_at(site, lam + step, [[x]])[0], u_at(site, lam - step, [[x]])[0]
            fd = (up - down) / (2 * step)
            assert du_at(site, lam, [[x]])[0] == pytest.approx(fd, abs=1e-6)

    def test_repulsivity_closed_form(self):
        # g(x) = -x f'(x) = (4 a |x|^2 / r^2)(1 - |x|^2/r^2)_+ and the breather
        # derivative is g(lam x)/lam; both forms must agree on a grid.
        a, r = 1.3, 0.35
        site = breather_site(a=a, r=r, lo=1.0, hi=2.0)
        lam = 1.6
        xs = np.linspace(-0.49, 0.49, 97)
        got = du_at(site, lam, xs[:, None])
        y2 = (lam * xs) ** 2
        g = 4.0 * a * y2 / r**2 * np.clip(1.0 - y2 / r**2, 0.0, None)
        assert np.allclose(got, g / lam, atol=1e-13)
        assert np.all(g >= 0.0)

    def test_tabulated_derivative_finite_difference(self):
        lam_nodes = tuple(np.linspace(1.0, 2.0, 21))
        x_nodes = (tuple(np.linspace(-0.5, 0.5, 41)),)
        lam_grid = np.asarray(lam_nodes)
        x_grid = np.asarray(x_nodes[0])
        vals = lam_grid[:, None] * np.array([bump_scalar(1.0, 0.4, x) for x in x_grid])[None, :]
        site = SingleSiteSpec(
            kind="tabulated", lambda_minus=1.0, lambda_plus=2.0,
            lambda_nodes=lam_nodes, x_nodes=x_nodes, values=vals,
        )
        d = du_at(site, 1.5, [[0.1]])[0]
        assert d == pytest.approx(bump_scalar(1.0, 0.4, 0.1), rel=1e-3)


class TestStandardize:
    def test_alloy_floor_zero_unchanged(self):
        model = ModelSpec(
            d=1,
            vper=PeriodicPotentialSpec(kind="zero"),
            site=alloy_site(lo=0.0, hi=1.0),
            dist=DistributionSpec(kind="uniform", lambda_minus=0.0, lambda_plus=1.0),
        )
        std = standardize(model)
        assert std.vper.site_floor is None
        xs = np.linspace(-0.5, 0.5, 33)[:, None]
        for lam in (0.0, 0.4, 1.0):
            assert np.allclose(
                u_at(std.site, lam, xs), u_at(model.site, lam, xs)
            )

    def test_breather_standardized_nonnegative(self):
        model = breather_model()
        std = standardize(model)
        xs = np.linspace(-0.5, 0.5, 101)[:, None]
        for lam in np.linspace(1.0, 2.0, 11):
            vals = u_at(std.site, lam, xs)
            assert np.all(vals >= 0.0)
        assert np.all(u_at(std.site, 1.0, xs) == 0.0)

    def test_total_potential_invariant(self):
        # V_per + V_omega evaluated at random points is unchanged by the
        # floor shuffle, checked against direct summation.
        model = breather_model(vper_kind="cosine-sum", amp=0.3)
        std = standardize(model)
        rng = np.random.default_rng(11)
        couplings = {(k,): rng.uniform(1.0, 2.0) for k in range(-3, 4)}
        pts = rng.uniform(-1.2, 1.2, size=(100, 1))
        before = total_potential(model, couplings, pts)
        after = total_potential(std, couplings, pts)
        assert np.allclose(before, after, atol=1e-12)

    def test_idempotent(self):
        model = standardize(breather_model())
        assert standardize(model) is model

    def test_monotone_pointwise_after_standardization(self):
        std = standardize(breather_model())
        xs = np.linspace(-0.5, 0.5, 64)[:, None]
        lams = np.linspace(1.0, 2.0, 16)
        vals = site_values(std.site, lams[:, None], xs)
        assert np.all(np.diff(vals, axis=0) >= -1e-12)


class TestDistributions:
    def test_uniform_tail_constants(self):
        dist = DistributionSpec(kind="uniform", lambda_minus=1.0, lambda_plus=3.0)
        assert dist.alpha == pytest.approx(0.5)
        assert dist.kappa == 1.0
        assert dist.cdf_below(0.5) == pytest.approx(0.25)

    def test_beta_sampling_and_tail(self):
        dist = DistributionSpec(
            kind="truncated-beta", lambda_minus=0.0, lambda_plus=1.0, beta_a=0.5, beta_b=1.0
        )
        u = np.linspace(0.001, 0.999, 999)
        x = dist.sample(u)
        assert np.all((x >= 0.0) & (x <= 1.0))
        for eps in (0.01, 0.1, 0.4):
            assert dist.cdf_below(eps) >= dist.alpha * eps**dist.kappa * (1 - 1e-9)

    @pytest.mark.parametrize("a,b", [(0.5, 1.0), (0.5, 0.5), (2.0, 3.0), (3.0, 2.0),
                                     (0.3, 4.0), (5.0, 0.7)])
    def test_beta_quantile_matches_scipy_stats(self, a, b):
        from scipy import stats

        dist = DistributionSpec(
            kind="truncated-beta", lambda_minus=1.0, lambda_plus=3.0, beta_a=a, beta_b=b
        )
        u = np.random.default_rng(17).random(4000)
        u[:3] = (0.0, 0.5, 1.0 - 2.0**-53)
        assert np.array_equal(dist.sample(u), 1.0 + 2.0 * stats.beta.ppf(u, a, b))
        star, p = dist.lambda_star()
        assert star == 1.0 + 2.0 * float(stats.beta.ppf(0.5, a, b))
        assert p == 0.5

    def test_atom_distribution(self):
        dist = DistributionSpec(
            kind="two-point-plus-uniform", lambda_minus=1.0, lambda_plus=2.0,
            atom_mass_at_min=0.6,
        )
        u = np.linspace(0.0, 0.999, 1000)
        x = dist.sample(u)
        assert np.mean(x == 1.0) == pytest.approx(0.6, abs=2e-3)
        star, p = dist.lambda_star()
        assert 1.0 < star < 2.0
        assert 0.0 < p < 1.0

    @pytest.mark.parametrize("lo,hi", [(1.0, 2.0), (0.0, 1.0), (-0.3, 2.7)])
    def test_uniform_is_two_point_without_atom(self, lo, hi):
        # the uniform law runs the two-point formulas at atom 0: bit for bit the
        # closed forms lo + W u, min(delta / W, 1), lo + W / 2 and 1 / W
        uniform = DistributionSpec(kind="uniform", lambda_minus=lo, lambda_plus=hi)
        atomless = DistributionSpec(kind="two-point-plus-uniform", lambda_minus=lo,
                                    lambda_plus=hi, atom_mass_at_min=0.0)
        W = hi - lo
        u = np.r_[0.0, 1.0 - 2.0**-53, np.random.default_rng(3).random(1000)]
        for dist in (uniform, atomless):
            assert np.array_equal(dist.sample(u), lo + W * u)
            for delta in (-0.25, -1e-300, 0.0, 0.3 * W, W, 1.7 * W):
                want = 0.0 if delta < 0 else min(delta / W, 1.0)
                assert np.float64(dist.cdf_below(delta)).tobytes() == np.float64(want).tobytes()
            assert dist.lambda_star() == (lo + 0.5 * W, 0.5)
            assert (dist.alpha, dist.kappa) == (1.0 / W, 1.0)
            assert dist.tail_bound_range() == W
        with pytest.raises(InputError, match="carries no atom"):
            DistributionSpec(kind="uniform", lambda_minus=lo, lambda_plus=hi,
                             atom_mass_at_min=0.1)

    def test_atom_mass_one_rejected(self):
        with pytest.raises(InputError):
            DistributionSpec(
                kind="two-point-plus-uniform", lambda_minus=0.0, lambda_plus=1.0,
                atom_mass_at_min=1.0,
            )


class TestValidateAssumptions:
    def test_breather_passes(self):
        model = breather_model()
        rep = validate_assumptions(model, lambda_grid_size=64, x_grid_size=256)
        assert rep.passed, rep
        assert rep.kappa1 <= analytic_kappa1(model.site) + 1e-12
        assert rep.eps1 > 0 and rep.eps2 > 0

    def test_uniform_assumption_v(self):
        model = breather_model()
        rep = validate_assumptions(model)
        assert rep.verdicts["v"]
        assert rep.kappa == 1.0
        assert rep.alpha == pytest.approx(1.0 / model.dist.width)

    def test_sign_changing_alloy_fails_iii(self):
        x_nodes = (tuple(np.linspace(-0.5, 0.5, 41)),)
        xg = np.asarray(x_nodes[0])
        f = np.sin(2 * np.pi * xg) * np.exp(-8 * xg**2)  # takes both signs
        lam_nodes = (0.0, 0.5, 1.0)
        vals = np.asarray(lam_nodes)[:, None] * f[None, :]
        site = SingleSiteSpec(
            kind="tabulated", lambda_minus=0.0, lambda_plus=1.0,
            lambda_nodes=lam_nodes, x_nodes=x_nodes, values=vals,
        )
        model = ModelSpec(
            d=1,
            vper=PeriodicPotentialSpec(kind="zero"),
            site=site,
            dist=DistributionSpec(kind="uniform", lambda_minus=0.0, lambda_plus=1.0),
        )
        rep = validate_assumptions(model, lambda_grid_size=16, x_grid_size=64)
        assert not rep.verdicts["iii"]
        assert rep.violation_site is not None and rep.violation_site[0] == "iii"
        assert rep.worst_violation > 0

    def test_flat_floor_fails_iv_with_empty_window(self):
        # u is flat in lambda on [lambda_minus, lambda_minus + 1/2]: the window
        # of (iv) holds no coupling, so eps1 = eps2 = 0 and (iv) is the site
        x_nodes = (tuple(np.linspace(-0.5, 0.5, 33)),)
        bump = np.clip(1.0 - (np.asarray(x_nodes[0]) / 0.4) ** 2, 0.0, None) ** 2
        site = SingleSiteSpec(kind="tabulated", lambda_minus=0.0, lambda_plus=1.0,
                              lambda_nodes=(0.0, 0.5, 1.0), x_nodes=x_nodes,
                              values=np.stack([0.0 * bump, 0.0 * bump, bump]))
        model = ModelSpec(d=1, vper=PeriodicPotentialSpec(kind="zero"), site=site,
                          dist=DistributionSpec(kind="uniform", lambda_minus=0.0,
                                                lambda_plus=1.0))
        rep = validate_assumptions(model, lambda_grid_size=16, x_grid_size=64)
        assert rep.verdicts == {"i": True, "ii": True, "iii": True, "iv": False, "v": True}
        assert rep.violation_site[0] == "iv"
        assert (rep.eps1, rep.eps2, rep.worst_violation) == (0.0, 0.0, 0.0)

    def test_deterministic(self):
        model = breather_model(vper_kind="cosine-sum")
        r1 = validate_assumptions(model)
        r2 = validate_assumptions(model)
        assert asdict(r1) == asdict(r2)

    def test_grid_size_guard(self):
        with pytest.raises(DomainError):
            validate_assumptions(breather_model(), lambda_grid_size=8)


class TestNormalize:
    def test_shift_recorded(self):
        model = breather_model(vper_kind="cosine-sum")
        shifted = normalize_energy(model, 1.25)
        assert shifted.vper.offset == pytest.approx(-1.25)
        assert shifted.energy_shift == pytest.approx(1.25)
        again = normalize_energy(shifted, -0.25)
        assert again.vper.offset == pytest.approx(-1.0)
        assert again.energy_shift == pytest.approx(1.0)
