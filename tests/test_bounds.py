"""Bounds tests: mapped variables, moments, Temple chain, tail estimates."""

import math

import numpy as np
import pytest

from breatherlab.bounds import (
    bernoulli_tail,
    counting_corollary_check,
    deviation_chain_check,
    dirichlet_test_function,
    dirichlet_upper_bound,
    fit_gap_constant,
    first_moment,
    ground_state_box,
    make_temple_config,
    map_realization,
    model_constants,
    periodic_levels,
    second_moment,
    temple_lower_bound,
)
from breatherlab.errors import DomainError, InputError, PreconditionError
from breatherlab.lattice import (
    GridSpec,
    assemble,
    mezincescu_correction,
    prepare_model,
)
from breatherlab.model import (
    DistributionSpec,
    ModelSpec,
    PeriodicPotentialSpec,
    SingleSiteSpec,
    site_values,
)
from breatherlab.spectral import lowest_eigenvalues


def base_model(vper_amp=0.5):
    vper = (PeriodicPotentialSpec(kind="cosine-sum", amplitudes=(vper_amp,))
            if vper_amp else PeriodicPotentialSpec(kind="zero"))
    return ModelSpec(
        d=1,
        vper=vper,
        site=SingleSiteSpec(
            kind="breather", amplitude=1.0, radius=0.4, lambda_minus=1.0, lambda_plus=2.0
        ),
        dist=DistributionSpec(kind="uniform", lambda_minus=1.0, lambda_plus=2.0),
    )


def flat_background_model():
    """Standardized site + zero background: the normalized V_per vanishes."""
    return ModelSpec(
        d=1,
        vper=PeriodicPotentialSpec(kind="zero"),
        site=SingleSiteSpec(
            kind="breather", amplitude=1.0, radius=0.4, lambda_minus=1.0, lambda_plus=2.0,
            standardized=True,
        ),
        dist=DistributionSpec(kind="uniform", lambda_minus=1.0, lambda_plus=2.0),
    )


@pytest.fixture(scope="module")
def prepped():
    return prepare_model(base_model(), 16)


@pytest.fixture(scope="module")
def consts(prepped):
    model, gs = prepped
    return model_constants(model, gs)


def box_at(model, gs, L):
    """The ground-state-boundary skeleton of the side-L box."""
    return ground_state_box(model, gs, GridSpec(L=L, n=16))


@pytest.fixture(scope="module")
def gapfit(prepped):
    model, gs = prepped
    return fit_gap_constant({L: periodic_levels(box_at(model, gs, L)) for L in range(2, 11)})


@pytest.fixture(scope="module")
def cfg6(prepped, consts, gapfit):
    model, _ = prepped
    _, p = model.dist.lambda_star()
    return make_temple_config(L=6, gamma=2.0 / p, constants=consts,
                              epsilon0=gapfit.epsilon0)


def draw_couplings(rng, L, lo=1.0, hi=2.0):
    return rng.uniform(lo, hi, size=L)


class TestGapFit:
    def test_positive_epsilon0_and_inverse_square_scaling(self, gapfit):
        assert gapfit.epsilon0 > 0
        assert -2.3 <= gapfit.loglog_slope <= -1.7

    def test_gaps_are_periodic_level_spacings(self, prepped, gapfit):
        model, gs = prepped
        for L, gap in zip(gapfit.Ls, gapfit.gaps):
            e1, e2 = periodic_levels(box_at(model, gs, L))
            assert gap == e2 - e1


class TestMapRealization:
    def test_floor_couplings_give_zero_xi(self, prepped, cfg6):
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        mapped = map_realization(gs, model, grid, np.full(6, 1.0), cfg6)
        assert np.all(mapped.xi == 0.0)
        assert np.all(mapped.cutoffs == 1.0)

    def test_cutoff_saturates(self, prepped, cfg6):
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        cap = 1.0 + cfg6.c2 / 36.0
        mapped = map_realization(gs, model, grid, np.full(6, 1.9), cfg6)
        assert np.allclose(mapped.cutoffs, cap, atol=1e-15)
        assert np.all(mapped.couplings == 1.9)

    def test_xi_nonnegative_and_monotone(self, prepped, cfg6):
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        lams = np.linspace(1.0, 2.0, 6)
        mapped = map_realization(gs, model, grid, lams, cfg6)
        assert np.all(mapped.xi >= 0.0)
        assert np.all(np.diff(mapped.xi) >= -1e-15)  # increasing couplings

    def test_config_violation_named(self, prepped, consts, gapfit):
        from breatherlab.bounds import TempleConfig

        # c2 = 5 passes the eps2 L^2 cap but breaks the kappa1 smallness bound
        bad = TempleConfig(L=6, c2=5.0, gamma=4.0, c7=1.0, epsilon0=gapfit.epsilon0,
                           energy_scale=1e-5, constants=consts)
        with pytest.raises(PreconditionError, match="kappa1"):
            model, gs = prepped
            map_realization(gs, model, GridSpec(L=6, n=16), np.full(6, 1.5), bad)

    def test_xi_refined_quadrature_oracle(self):
        # quadrature map at run resolution vs an 8x refined grid; the flat
        # background keeps psi exactly constant at both resolutions
        model, gs64 = prepare_model(flat_background_model(), 64)
        lam = 1.02
        g64 = GridSpec(L=1, n=64)
        xi64 = site_values(model.site, [lam], g64.offset_points())[0] @ gs64.cell_weights()
        _, gs512 = prepare_model(flat_background_model(), 512)
        g512 = GridSpec(L=1, n=512)
        xi512 = site_values(model.site, [lam], g512.offset_points())[0] @ gs512.cell_weights()
        assert xi64 == pytest.approx(xi512, rel=1e-3)


class TestMoments:
    def test_trivial_floor(self, prepped, cfg6):
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        mapped = map_realization(gs, model, grid, np.full(6, 1.0), cfg6)
        H = assemble(model, grid, mezincescu_correction(gs, grid),
                     couplings=mapped.cutoffs)
        form, total = first_moment(gs, mapped, H)
        assert abs(form) <= 1e-10 and total == 0.0
        val, bnd = second_moment(gs, mapped, H, cfg6)
        assert abs(val) <= 1e-10 and bnd == 0.0

    def test_first_moment_identity_random(self, prepped, cfg6):
        model, gs = prepped
        grid = GridSpec(L=4, n=16)
        cfg = make_temple_config(L=4, gamma=cfg6.gamma, constants=cfg6.constants,
                                 epsilon0=cfg6.epsilon0)
        rng = np.random.default_rng(21)
        bc = mezincescu_correction(gs, grid)
        for _ in range(25):
            lams = draw_couplings(rng, 4)
            mapped = map_realization(gs, model, grid, lams, cfg)
            H = assemble(model, grid, bc, couplings=mapped.cutoffs)
            form, total = first_moment(gs, mapped, H)
            assert abs(form - total) <= 1e-10

    def test_first_moment_paper_bound(self, prepped, cfg6):
        # L^-d sum xi <= c2 c4 / (eps1 L^2)
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        rng = np.random.default_rng(22)
        c = cfg6.constants
        cap = cfg6.c2 * c.c4 / (c.eps1 * 36.0)
        for _ in range(50):
            mapped = map_realization(gs, model, grid, draw_couplings(rng, 6), cfg6)
            assert mapped.xi.sum() / 6.0 <= cap

    def test_second_moment_per_cell_oracle(self, prepped, cfg6):
        # ||H psi_L||^2 equals the per-cell quadrature of u^2 in the
        # ground-state measure under disjoint supports
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        rng = np.random.default_rng(23)
        bc = mezincescu_correction(gs, grid)
        for _ in range(10):
            mapped = map_realization(gs, model, grid, draw_couplings(rng, 6), cfg6)
            H = assemble(model, grid, bc, couplings=mapped.cutoffs)
            val, _ = second_moment(gs, mapped, H, cfg6)
            w = gs.cell_weights()
            u = site_values(model.site, mapped.cutoffs.ravel(), grid.offset_points())
            oracle = float((u**2 @ w).sum()) / 6.0
            assert abs(val - oracle) <= 1e-10

    def test_second_moment_bounded_100(self, prepped, cfg6):
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        rng = np.random.default_rng(24)
        bc = mezincescu_correction(gs, grid)
        for _ in range(100):
            mapped = map_realization(gs, model, grid, draw_couplings(rng, 6), cfg6)
            H = assemble(model, grid, bc, couplings=mapped.cutoffs)
            val, bnd = second_moment(gs, mapped, H, cfg6)
            assert val <= bnd + 1e-12


def temple_at(gs, model, grid, couplings, cfg):
    """Map one realization and run the Temple check on its box."""
    mapped = map_realization(gs, model, grid, couplings, cfg)
    box = ground_state_box(model, gs, grid)
    return temple_lower_bound(gs, model, box, mapped, cfg, periodic_levels(box))


class TestTemple:
    def test_floor_realization_boundary(self, prepped, cfg6):
        model, gs = prepped
        rep = temple_at(gs, model, GridSpec(L=6, n=16), np.full(6, 1.0), cfg6)
        assert rep.verdict in ("pass", "boundary")
        assert rep.passed
        assert abs(rep.margin) <= 1e-9

    def test_three_quarter_factor(self, cfg6):
        c = cfg6.constants
        factor = 1.0 - 4.0 * c.kappa1 * cfg6.c2 / cfg6.epsilon0
        assert factor > 0.75

    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_random_realizations_hold(self, prepped, consts, gapfit, L):
        model, gs = prepped
        _, p = model.dist.lambda_star()
        cfg = make_temple_config(L=L, gamma=2.0 / p, constants=consts,
                                 epsilon0=gapfit.epsilon0)
        rng = np.random.default_rng(100 + L)
        grid = GridSpec(L=L, n=16)
        box = ground_state_box(model, gs, grid)
        per = periodic_levels(box)
        for _ in range(20):
            mapped = map_realization(gs, model, grid, draw_couplings(rng, L), cfg)
            rep = temple_lower_bound(gs, model, box, mapped, cfg, per)
            assert rep.passed, rep.to_dict()
            assert all(rep.constants["links"].values())

    def test_report_serializes(self, prepped, cfg6):
        import json

        model, gs = prepped
        rep = temple_at(gs, model, GridSpec(L=6, n=16), np.full(6, 1.3), cfg6)
        payload = rep.to_dict()
        assert {"name", "lhs", "rhs", "margin", "pass", "constants"} <= set(payload)
        json.dumps(payload)

    def test_mapped_from_other_box_rejected(self, prepped, consts, gapfit, cfg6):
        model, gs = prepped
        cfg4 = make_temple_config(L=4, gamma=cfg6.gamma, constants=consts,
                                  epsilon0=gapfit.epsilon0)
        grid4, grid6 = GridSpec(L=4, n=16), GridSpec(L=6, n=16)
        mapped4 = map_realization(gs, model, grid4, np.full(4, 1.3), cfg4)
        box6 = ground_state_box(model, gs, grid6)
        with pytest.raises(InputError, match="L=4"):
            temple_lower_bound(gs, model, box6, mapped4, cfg6, periodic_levels(box6))

    def test_config_violation_named(self, prepped, consts, gapfit, cfg6):
        from breatherlab.bounds import TempleConfig

        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        mapped = map_realization(gs, model, grid, np.full(6, 1.5), cfg6)
        bad = TempleConfig(L=6, c2=5.0, gamma=4.0, c7=1.0, epsilon0=gapfit.epsilon0,
                           energy_scale=1e-5, constants=consts)
        box = ground_state_box(model, gs, grid)
        with pytest.raises(PreconditionError, match="kappa1"):
            temple_lower_bound(gs, model, box, mapped, bad, periodic_levels(box))


class TestCorollary:
    def test_all_floor_nonvacuous(self, prepped, cfg6):
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        mapped = map_realization(gs, model, grid, np.full(6, 1.0), cfg6)
        rep = counting_corollary_check(mapped, E1=0.0, escale=cfg6.energy_scale,
                                       gamma=cfg6.gamma)
        assert rep.verdict == "pass"
        assert rep.lhs == 6  # every site counts as small
        assert not rep.constants["vacuous"]

    def test_gamma_two_threshold(self, prepped, cfg6):
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        mapped = map_realization(gs, model, grid, np.full(6, 1.0), cfg6)
        rep = counting_corollary_check(mapped, E1=0.0, escale=1e-3, gamma=2.0)
        assert rep.rhs == pytest.approx(3.0)  # (gamma-1)/gamma = 1/2 of L^d

    def test_sweep_no_counterexample(self, prepped, consts, gapfit):
        model, gs = prepped
        _, p = model.dist.lambda_star()
        cfg = make_temple_config(L=4, gamma=2.0 / p, constants=consts,
                                 epsilon0=gapfit.epsilon0)
        grid = GridSpec(L=4, n=16)
        bc = mezincescu_correction(gs, grid)
        atom = DistributionSpec(kind="two-point-plus-uniform", lambda_minus=1.0,
                                lambda_plus=2.0, atom_mass_at_min=0.8)
        rng = np.random.default_rng(31)
        nonvacuous = 0
        for _ in range(200):
            lams = atom.sample(rng.random(4))
            mapped = map_realization(gs, model, grid, lams, cfg)
            H = assemble(model, grid, bc, couplings=mapped.cutoffs)
            e1 = float(lowest_eigenvalues(H, 1).energies[0])
            rep = counting_corollary_check(mapped, e1, cfg.energy_scale, cfg.gamma)
            assert rep.passed
            if not rep.constants["vacuous"]:
                nonvacuous += 1
        assert nonvacuous > 0


class TestDeviationChain:
    def test_floor_trivial(self, prepped, cfg6):
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        mapped = map_realization(gs, model, grid, np.full(6, 1.0), cfg6)
        rep = deviation_chain_check(mapped, cfg6)
        assert rep.verdict == "pass"
        assert rep.constants["premise_count"] == 6

    def test_contrapositive_witness(self, prepped, cfg6):
        # a coupling at exactly lambda_minus + c7 E must carry xi >= 2 gamma E
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        witness = 1.0 + cfg6.c7 * cfg6.energy_scale
        lams = np.full(6, witness)
        mapped = map_realization(gs, model, grid, lams, cfg6)
        assert np.all(mapped.xi >= 2.0 * cfg6.gamma * cfg6.energy_scale)
        rep = deviation_chain_check(mapped, cfg6)
        assert rep.verdict == "pass"

    def test_monte_carlo_sweep(self, prepped, cfg6):
        # 10^4 site samples, half concentrated near the floor to make the
        # premise non-vacuous
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        rng = np.random.default_rng(37)
        premise_seen = 0
        for block in range(100):
            u = rng.random(6)
            if block % 2 == 0:
                lams = 1.0 + 1e-4 * u  # hug the floor
            else:
                lams = 1.0 + u
            mapped = map_realization(gs, model, grid, lams, cfg6)
            rep = deviation_chain_check(mapped, cfg6)
            assert rep.constants["violations"] == 0
            premise_seen += rep.constants["premise_count"]
        assert premise_seen > 0


class TestBernoulliTail:
    def test_single_site_example(self):
        exact, bound = bernoulli_tail(0.5, 4.0, 1)
        assert exact == pytest.approx(0.5, abs=1e-12)
        assert bound == pytest.approx(math.exp(-0.125), abs=1e-12)
        assert exact <= bound

    def test_p_one_limit(self):
        exact, bound = bernoulli_tail(1.0, 2.0, 10)
        assert exact == 0.0
        assert exact <= bound

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("Ld", [8, 27, 64])
    def test_exact_below_bound(self, p, Ld):
        exact, bound = bernoulli_tail(p, 2.0 / p, Ld)
        assert exact <= bound
        # cross-check the exact value against an explicit binomial sum
        thresh = math.ceil(Ld / (2.0 / p)) - 1
        brute = sum(
            math.comb(Ld, k) * p**k * (1 - p) ** (Ld - k) for k in range(thresh + 1)
        )
        assert exact == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                   0.9, 1.0])
    def test_matches_scipy_stats(self, p):
        from scipy import stats

        for Ld in (1, 2, 3, 8, 27, 64, 125, 216, 343, 512):
            exact, _ = bernoulli_tail(p, 2.0 / p, Ld)
            thresh = math.ceil(Ld * p / 2.0) - 1
            oracle = float(stats.binom.cdf(thresh, Ld, p)) if thresh >= 0 else 0.0
            assert exact == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_gamma_mismatch_rejected(self):
        with pytest.raises(DomainError):
            bernoulli_tail(0.5, 3.0, 8)


class TestDirichletUpperBound:
    def test_free_kinetic_constant(self):
        # V_omega = 0: E1 <= B2 / L^2 with B2 near d pi^2
        model, _ = prepare_model(flat_background_model(), 16)
        grid = GridSpec(L=4, n=16)
        rep = dirichlet_upper_bound(model, grid, np.full(4, 1.0),
                                    dirichlet_test_function(model, grid))
        assert rep.passed
        assert rep.constants["B2"] == pytest.approx(np.pi**2, rel=1e-3)
        assert rep.constants["int_V_omega"] == 0.0

    def test_realized_b1_is_two(self):
        model, _ = prepare_model(flat_background_model(), 16)
        grid = GridSpec(L=4, n=16)
        rep = dirichlet_upper_bound(model, grid, np.full(4, 1.0),
                                    dirichlet_test_function(model, grid))
        h, L = 1 / 16, 4
        assert rep.constants["B1"] == pytest.approx(
            2.0 * np.cos(np.pi * h / (2 * L)) ** 2, rel=1e-12
        )
        assert rep.constants["B1"] == pytest.approx(2.0, abs=0.01)

    def test_hundred_realizations(self):
        model, _ = prepare_model(flat_background_model(), 16)
        grid = GridSpec(L=6, n=16)
        rng = np.random.default_rng(41)
        test = dirichlet_test_function(model, grid)
        for _ in range(100):
            lams = rng.uniform(1.0, 2.0, 6)
            rep = dirichlet_upper_bound(model, grid, lams, test)
            assert rep.passed, rep.to_dict()
            assert rep.constants["variational_ok"]

    def test_with_periodic_background(self, prepped):
        # nonzero normalized background folds into the non-random part
        model, _ = prepped
        grid = GridSpec(L=4, n=16)
        rep = dirichlet_upper_bound(model, grid, np.full(4, 1.4),
                                    dirichlet_test_function(model, grid))
        assert rep.passed
        assert rep.constants["kinetic_times_L2"] == pytest.approx(np.pi**2, rel=1e-3)

    def test_constants_independent_of_couplings(self, prepped):
        model, _ = prepped
        grid = GridSpec(L=4, n=16)
        test = dirichlet_test_function(model, grid)
        for lams in (np.full(4, 1.0), np.array([1.1, 1.9, 1.4, 2.0])):
            rep = dirichlet_upper_bound(model, grid, lams, test)
            assert (rep.constants["B1"], rep.constants["B2"]) == (test.B1, test.B2)

    def test_test_function_from_other_box_rejected(self, prepped):
        model, _ = prepped
        test4 = dirichlet_test_function(model, GridSpec(L=4, n=16))
        for grid in (GridSpec(L=6, n=16), GridSpec(L=4, n=8)):
            with pytest.raises(InputError, match="test function"):
                dirichlet_upper_bound(model, grid, np.full(grid.L, 1.0), test4)
