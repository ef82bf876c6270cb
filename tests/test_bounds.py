"""Bounds tests: mapped variables, moments, Temple chain, tail estimates."""

import math
from dataclasses import replace

import numpy as np
import pytest

from breatherlab import bounds, spectral
from breatherlab.bounds import (
    BOUNDARY_TOL,
    bernoulli_tail,
    counting_corollary_check,
    deviation_chain_check,
    dirichlet_test_function,
    dirichlet_upper_bounds,
    fit_gap_constant,
    first_moment,
    ground_state_box,
    make_temple_config,
    map_realization,
    model_constants,
    periodic_levels,
    second_moment,
    temple_lower_bounds,
)
from breatherlab.errors import DomainError, InputError, PreconditionError
from breatherlab.lattice import (
    GridSpec,
    assemble,
    mezincescu_correction,
    prepare_model,
    random_potentials,
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


def d2_model():
    """The shipped bounds model at d = 2: V_per amplitudes 0.5 along each axis."""
    return replace(base_model(), d=2, vper=PeriodicPotentialSpec(kind="cosine-sum",
                                                                 amplitudes=(0.5, 0.5)))


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

    def test_config_violation_named(self, consts, gapfit):
        from breatherlab.bounds import TempleConfig

        # c2 = 5 passes the eps2 L^2 cap but breaks the kappa1 smallness bound;
        # the config is rejected when it is made, before any realization is mapped
        with pytest.raises(PreconditionError, match="kappa1"):
            TempleConfig(L=6, c2=5.0, gamma=4.0, c7=1.0, epsilon0=gapfit.epsilon0,
                         energy_scale=1e-5, constants=consts)

    def test_potential_is_the_cutoff_potential_on_the_grid(self, prepped, cfg6):
        # the one site-value evaluation gives the operator's random part too
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        mapped = map_realization(gs, model, grid, np.linspace(1.0, 2.0, 6), cfg6)
        assert mapped.grid == grid
        assert np.array_equal(mapped.potential,
                              random_potentials(model, grid, [mapped.cutoffs])[0])

    def test_batch_rows_are_the_realizations(self, prepped, cfg6):
        # a batch maps each field as that field alone does, bit for bit, and
        # its potential is the batch of cutoff potentials
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        fields = np.random.default_rng(51).uniform(1.0, 2.0, (7, 6))
        batch = map_realization(gs, model, grid, fields, cfg6)
        assert batch.xi.shape == batch.cutoffs.shape == (7, 6)
        assert batch.potential.shape == (7, grid.num_dof)
        assert np.array_equal(batch.potential, random_potentials(model, grid, batch.cutoffs))
        for lams, xi, potential in zip(fields, batch.xi, batch.potential):
            one = map_realization(gs, model, grid, lams, cfg6)
            assert np.array_equal(one.xi, xi)
            assert np.array_equal(one.potential, potential)

    def test_empty_batch(self, prepped, cfg6):
        # no realization: every array and every check holds an empty batch axis
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        mapped = map_realization(gs, model, grid, np.empty((0, 6)), cfg6)
        assert mapped.xi.shape == (0, 6) and mapped.potential.shape == (0, grid.num_dof)
        box = ground_state_box(model, gs, grid)
        temple = temple_lower_bounds(box, mapped, cfg6, periodic_levels(box))
        reports = [temple,
                   counting_corollary_check(box, mapped, cfg6.energy_scale, cfg6.gamma),
                   deviation_chain_check(mapped, cfg6),
                   dirichlet_upper_bounds(model, mapped.couplings,
                                          dirichlet_test_function(model, grid))]
        for rep in reports:
            assert rep.rhs.shape == rep.passed.shape == (0,)
        # the level checks hold a count pair per realization, the integer checks one integer
        assert [rep.lhs.shape for rep in reports] == [(0, 2), (0,), (0,), (0, 2)]
        assert all(link.shape == (0,) for link in temple.constants["links"].values())

    def test_xi_refined_quadrature_oracle(self):
        # quadrature map at run resolution vs an 8x refined grid; the flat
        # background keeps psi exactly constant at both resolutions
        model, gs64 = prepare_model(flat_background_model(), 64)
        lam = 1.02
        g64 = GridSpec(L=1, n=64)
        xi64 = site_values(model.site, lam, g64.offset_points) @ gs64.cell_weights()
        _, gs512 = prepare_model(flat_background_model(), 512)
        g512 = GridSpec(L=1, n=512)
        xi512 = site_values(model.site, lam, g512.offset_points) @ gs512.cell_weights()
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
            u = site_values(model.site, mapped.cutoffs.ravel()[:, None], grid.offset_points)
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
    return temple_lower_bounds(box, mapped, cfg, periodic_levels(box))


class TestTemple:
    def test_floor_realization_boundary(self, prepped, cfg6):
        model, gs = prepped
        rep = temple_at(gs, model, GridSpec(L=6, n=16), np.full(6, 1.0), cfg6)
        # E1 = rhs = 0: no level at or below rhs - t, the ground level by rhs + t
        assert rep.verdict == "boundary"
        assert rep.passed
        assert rep.lhs.tolist() == [0, 1]

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
        mapped = map_realization(gs, model, grid, [draw_couplings(rng, L) for _ in range(20)],
                                 cfg)
        rep = temple_lower_bounds(box, mapped, cfg, per)
        assert rep.passed.shape == (20,)
        assert rep.passed.all(), rep
        assert all(link.all() for link in rep.constants["links"].values())

    def test_report_serializes(self, prepped, cfg6, tmp_path):
        import json
        from dataclasses import asdict

        from breatherlab.cli import dump_json

        model, gs = prepped
        rep = temple_at(gs, model, GridSpec(L=6, n=16), np.full(6, 1.3), cfg6)
        dump_json(asdict(rep), tmp_path / "rep.json")
        payload = json.loads((tmp_path / "rep.json").read_text())
        assert {"name", "lhs", "rhs", "verdict", "constants"} <= set(payload)
        assert payload["verdict"] == "pass" and payload["lhs"] == [0, 0]
        assert all(v is True for v in payload["constants"]["links"].values())

    def test_mapped_from_other_box_rejected(self, prepped, consts, gapfit, cfg6):
        model, gs = prepped
        cfg4 = make_temple_config(L=4, gamma=cfg6.gamma, constants=consts,
                                  epsilon0=gapfit.epsilon0)
        grid4, grid6 = GridSpec(L=4, n=16), GridSpec(L=6, n=16)
        mapped4 = map_realization(gs, model, grid4, np.full(4, 1.3), cfg4)
        box6 = ground_state_box(model, gs, grid6)
        with pytest.raises(InputError, match="L=4"):
            temple_lower_bounds(box6, mapped4, cfg6, periodic_levels(box6))

    def test_config_violation_named(self, consts, gapfit):
        from breatherlab.bounds import TempleConfig

        # a config that breaks a hypothesis never reaches the Temple check
        with pytest.raises(PreconditionError, match="kappa1"):
            TempleConfig(L=6, c2=5.0, gamma=4.0, c7=1.0, epsilon0=gapfit.epsilon0,
                         energy_scale=1e-5, constants=consts)


class TestCorollary:
    def test_all_floor_nonvacuous(self, prepped, cfg6):
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        mapped = map_realization(gs, model, grid, np.full(6, 1.0), cfg6)
        # the floor field's E1 = 0 <= escale, so the check is not vacuous
        rep = counting_corollary_check(ground_state_box(model, gs, grid), mapped,
                                       escale=cfg6.energy_scale, gamma=cfg6.gamma)
        assert rep.verdict == "pass"
        assert rep.lhs == 6  # every site counts as small
        assert not rep.constants["vacuous"]

    def test_gamma_two_threshold(self, prepped, cfg6):
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        mapped = map_realization(gs, model, grid, np.full(6, 1.0), cfg6)
        rep = counting_corollary_check(ground_state_box(model, gs, grid), mapped, escale=1e-3,
                                       gamma=2.0)
        assert rep.rhs == pytest.approx(3.0)  # (gamma-1)/gamma = 1/2 of L^d
        assert not rep.constants["vacuous"]

    def test_sweep_no_counterexample(self, prepped, consts, gapfit):
        model, gs = prepped
        _, p = model.dist.lambda_star()
        cfg = make_temple_config(L=4, gamma=2.0 / p, constants=consts,
                                 epsilon0=gapfit.epsilon0)
        grid = GridSpec(L=4, n=16)
        box = ground_state_box(model, gs, grid)
        atom = DistributionSpec(kind="two-point-plus-uniform", lambda_minus=1.0,
                                lambda_plus=2.0, atom_mass_at_min=0.8)
        rng = np.random.default_rng(31)
        lams = atom.sample(rng.random((200, 4)))  # the stream of 200 draws of 4
        mapped = map_realization(gs, model, grid, lams, cfg)
        rep = counting_corollary_check(box, mapped, cfg.energy_scale, cfg.gamma)
        assert rep.passed.all()
        # vacuity is E1 > escale: the count agrees with an independent eigensolve
        # of each realization's cutoff operator, assembled from its couplings
        bc = mezincescu_correction(gs, grid)
        e1 = lowest_eigenvalues(assemble(model, grid, bc, couplings=mapped.cutoffs), 1).energies
        assert np.array_equal(rep.constants["vacuous"], e1[:, 0] > cfg.energy_scale)
        assert (~rep.constants["vacuous"]).sum() > 0


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

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.8, 0.999, 1.0])
    def test_exact_is_the_rounded_rational_tail(self, p):
        # the tail at the float p, summed in rationals and rounded once
        from fractions import Fraction

        q = Fraction(p)
        for Ld in range(1, 65):
            thresh = math.ceil(Ld / (2.0 / p)) - 1
            tail = sum(math.comb(Ld, k) * q**k * (1 - q) ** (Ld - k) for k in range(thresh + 1))
            assert bernoulli_tail(p, 2.0 / p, Ld)[0] == float(tail), Ld

    def test_gamma_mismatch_rejected(self):
        with pytest.raises(DomainError):
            bernoulli_tail(0.5, 3.0, 8)


class TestDirichletUpperBound:
    def test_free_kinetic_constant(self):
        # V_omega = 0: E1 <= B2 / L^2 with B2 near d pi^2
        model, _ = prepare_model(flat_background_model(), 16)
        grid = GridSpec(L=4, n=16)
        rep = dirichlet_upper_bounds(model, np.full(4, 1.0), dirichlet_test_function(model, grid))
        assert rep.passed
        assert rep.constants["B2"] == pytest.approx(np.pi**2, rel=1e-3)
        assert rep.constants["int_V_omega"] == 0.0

    def test_realized_b1_is_two(self):
        model, _ = prepare_model(flat_background_model(), 16)
        grid = GridSpec(L=4, n=16)
        rep = dirichlet_upper_bounds(model, np.full(4, 1.0), dirichlet_test_function(model, grid))
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
        fields = [rng.uniform(1.0, 2.0, 6) for _ in range(100)]
        rep = dirichlet_upper_bounds(model, fields, test)
        assert rep.passed.shape == (100,)
        assert rep.passed.all(), rep
        assert rep.constants["variational_ok"].all()

    def test_with_periodic_background(self, prepped):
        # nonzero normalized background folds into the non-random part
        model, _ = prepped
        grid = GridSpec(L=4, n=16)
        rep = dirichlet_upper_bounds(model, np.full(4, 1.4), dirichlet_test_function(model, grid))
        assert rep.passed
        assert rep.constants["kinetic_times_L2"] == pytest.approx(np.pi**2, rel=1e-3)

    def test_constants_independent_of_couplings(self, prepped):
        model, _ = prepped
        grid = GridSpec(L=4, n=16)
        test = dirichlet_test_function(model, grid)
        for fields in (np.full(4, 1.0), np.array([1.1, 1.9, 1.4, 2.0])):
            rep = dirichlet_upper_bounds(model, fields, test)
            assert (rep.constants["B1"], rep.constants["B2"]) == (test.B1, test.B2)


class TestBatching:
    """A batch of M realizations and M batches of one give the same verdicts,
    links, count pairs and integer constants, exactly."""

    def test_temple_verdicts(self, prepped, cfg6):
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        box = ground_state_box(model, gs, grid)
        per = periodic_levels(box)
        rng = np.random.default_rng(61)
        fields = np.array([np.full(6, 1.0)] + [draw_couplings(rng, 6) for _ in range(23)])
        batch = temple_lower_bounds(box, map_realization(gs, model, grid, fields, cfg6), cfg6, per)
        assert set(batch.verdict.tolist()) == {"boundary", "pass"}
        for b, lams in enumerate(fields):
            one = map_realization(gs, model, grid, lams, cfg6)
            alone = temple_lower_bounds(box, one, cfg6, per)
            assert alone.verdict == batch.verdict[b]
            assert {k: bool(v) for k, v in alone.constants["links"].items()} == \
                {k: bool(v[b]) for k, v in batch.constants["links"].items()}
            assert np.array_equal(alone.lhs, batch.lhs[b])

    def test_corollary_and_deviation_verdicts(self, prepped, cfg6):
        # every other field hugs the floor, so the premise holds at some sites,
        # and every fourth sits on it, so the corollary is not always vacuous
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        box = ground_state_box(model, gs, grid)
        rng = np.random.default_rng(63)
        width = np.where(np.arange(24) % 2 == 0, 2.0 * cfg6.c7 * cfg6.energy_scale, 1.0)
        fields = 1.0 + width[:, None] * rng.random((24, 6))
        fields[::4] = 1.0
        mapped = map_realization(gs, model, grid, fields, cfg6)
        cor = counting_corollary_check(box, mapped, cfg6.energy_scale, cfg6.gamma)
        dev = deviation_chain_check(mapped, cfg6)
        assert 0 < cor.constants["vacuous"].sum() < 24
        assert dev.constants["premise_count"].sum() > 0
        for b, lams in enumerate(fields):
            one = map_realization(gs, model, grid, lams, cfg6)
            alone = counting_corollary_check(box, one, cfg6.energy_scale, cfg6.gamma)
            assert alone.verdict == cor.verdict[b]
            assert alone.lhs == cor.lhs[b] and alone.rhs == cor.rhs[b]
            assert alone.constants["vacuous"] == cor.constants["vacuous"][b]
            alone = deviation_chain_check(one, cfg6)
            assert alone.verdict == dev.verdict[b]
            for key in ("premise_count", "violations"):
                assert alone.constants[key] == dev.constants[key][b]

    def test_dirichlet_verdicts(self):
        model, _ = prepare_model(flat_background_model(), 16)
        test = dirichlet_test_function(model, GridSpec(L=6, n=16))
        rng = np.random.default_rng(62)
        fields = [rng.uniform(1.0, 2.0, 6) for _ in range(24)]
        batch = dirichlet_upper_bounds(model, fields, test)
        for b, lams in enumerate(fields):
            alone = dirichlet_upper_bounds(model, lams, test)
            assert alone.verdict == batch.verdict[b]
            assert alone.constants["variational_ok"] == batch.constants["variational_ok"][b]
            assert np.array_equal(alone.lhs, batch.lhs[b])


class TestCountedVerdicts:
    """Each count-decided verdict and link turns when the level it is about is
    moved 10 tolerances across its threshold, every other input fixed."""

    @staticmethod
    def below_cap(prepped, cfg6, seed):
        """A realization on the L = 6 box with couplings below the cutoff cap."""
        model, gs = prepped
        grid = GridSpec(L=6, n=16)
        lams = 1.0 + cfg6.c2 / 36.0 * np.random.default_rng(seed).random(6)
        return ground_state_box(model, gs, grid), map_realization(gs, model, grid, lams, cfg6)

    def test_temple_bound_turns_with_e1(self, prepped, cfg6):
        box, mapped = self.below_cap(prepped, cfg6, 71)
        per = periodic_levels(box)
        rhs = temple_lower_bounds(box, mapped, cfg6, per).rhs
        t = BOUNDARY_TOL * (1.0 + abs(rhs))
        tau = 1e-9 * (1.0 + abs(per[1]))
        e1 = lowest_eigenvalues(box.hamiltonian(mapped.potential), 1).energies[0]
        for target, verdict, pair in ((rhs - 10 * t, "fail", [1, 1]),
                                      (rhs + 10 * t, "pass", [0, 0])):
            # a constant shift of the potential moves every level by it, not xi
            shifted = replace(mapped, potential=mapped.potential + (target - e1))
            rep = temple_lower_bounds(box, shifted, cfg6, per)
            assert rep.rhs == rhs
            assert all(rep.constants["links"].values())
            assert (rep.verdict, rep.lhs.tolist()) == (verdict, pair)
        # shifted to 10 tau below E1(per), the first link on the cutoff operator breaks
        shifted = replace(mapped, potential=mapped.potential + (per[0] - 10 * tau - e1))
        rep = temple_lower_bounds(box, shifted, cfg6, per)
        assert not rep.constants["links"]["E1(per) <= E1(cut)"] and rep.verdict == "fail"

    def test_temple_e2_link_turns_with_e2_per(self, prepped, cfg6):
        box, mapped = self.below_cap(prepped, cfg6, 72)
        e1_per = periodic_levels(box)[0]
        e2 = lowest_eigenvalues(box.hamiltonian(mapped.potential), 2).energies[1]
        for sign, holds in ((1, False), (-1, True)):
            per = np.array([e1_per, e2 + sign * 10e-9 * (1.0 + abs(e2))])
            rep = temple_lower_bounds(box, mapped, cfg6, per)
            links = dict(rep.constants["links"])
            assert links.pop("E2(per) <= E2(cut)") == holds
            assert all(links.values())
            assert rep.verdict == ("pass" if holds else "fail")

    def test_temple_form_link_turns_with_form(self, prepped, cfg6, monkeypatch):
        # E1(cut) <= form holds for every operator (psi is a unit vector), so
        # the form is moved instead, to 10 tau on either side of E1(cut)
        box, mapped = self.below_cap(prepped, cfg6, 74)
        per = periodic_levels(box)
        tau = 1e-9 * (1.0 + abs(per[1]))
        e1 = lowest_eigenvalues(box.hamiltonian(mapped.potential), 1).energies[0]
        moments = bounds._moments
        for offset, holds in ((-10, False), (10, True)):
            monkeypatch.setattr(bounds, "_moments", lambda *args, form=e1 + offset * tau:
                                (form, *moments(*args)[1:]))
            rep = temple_lower_bounds(box, mapped, cfg6, per)
            links = dict(rep.constants["links"])
            assert links.pop("E1(cut) <= form") == holds
            assert all(links.values())
            assert rep.verdict == ("pass" if holds else "fail")

    def test_corollary_vacuity_turns_with_e1(self, prepped, cfg6):
        box, mapped = self.below_cap(prepped, cfg6, 75)
        escale, tol = cfg6.energy_scale, 10 * BOUNDARY_TOL
        e1 = lowest_eigenvalues(box.hamiltonian(mapped.potential), 1).energies[0]
        for target, vacuous in ((escale - tol, False), (escale + tol, True)):
            shifted = replace(mapped, potential=mapped.potential + (target - e1))
            rep = counting_corollary_check(box, shifted, escale, cfg6.gamma)
            assert rep.constants["vacuous"] == vacuous

    def test_dirichlet_bound_turns_with_rhs(self):
        model, _ = prepare_model(flat_background_model(), 16)
        grid = GridSpec(L=6, n=16)
        test = dirichlet_test_function(model, grid)
        lams = np.random.default_rng(73).uniform(1.0, 2.0, 6)
        v = random_potentials(model, grid, [lams])[0]
        e1 = lowest_eigenvalues(test.box.hamiltonian(v), 1).energies[0]
        random_part = test.B1 * dirichlet_upper_bounds(model, lams, test).constants[
            "int_V_omega"] / 6
        for offset, verdict, pair in ((-10, "fail", [0, 0]), (10, "pass", [1, 1])):
            rhs = e1 + offset * BOUNDARY_TOL * (1.0 + abs(e1))
            rep = dirichlet_upper_bounds(model, lams, replace(test, B2=(rhs - random_part) * 36))
            assert rep.rhs == pytest.approx(rhs, rel=1e-14)
            assert rep.constants["variational_ok"]
            assert (rep.verdict, rep.lhs.tolist()) == (verdict, pair)


class TestTwoDimensions:
    @pytest.fixture(scope="class")
    def prepped2(self):
        return prepare_model(d2_model(), 8)

    def test_temple_chain_holds(self, prepped2):
        model, gs = prepped2
        boxes = {L: ground_state_box(model, gs, GridSpec(L=L, n=8, d=2)) for L in (2, 3, 4)}
        levels = {L: periodic_levels(box) for L, box in boxes.items()}
        _, p = model.dist.lambda_star()
        cfg = make_temple_config(L=3, gamma=2.0 / p, constants=model_constants(model, gs),
                                 epsilon0=fit_gap_constant(levels).epsilon0)
        fields = np.random.default_rng(81).uniform(1.0, 2.0, (4, 3, 3))
        mapped = map_realization(gs, model, boxes[3].grid, fields, cfg)
        rep = temple_lower_bounds(boxes[3], mapped, cfg, levels[3])
        assert rep.verdict.tolist() == ["pass"] * 4
        assert all(link.all() for link in rep.constants["links"].values())

    def test_iterative_levels_repeat(self, prepped2, monkeypatch):
        # shift-invert Lanczos starts from one fixed vector, so repeated solves
        # of one box agree bit for bit
        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 10)
        model, gs = prepped2
        H = ground_state_box(model, gs, GridSpec(L=3, n=8, d=2)).hamiltonian()
        assert H.num_dof == 576
        solves = [lowest_eigenvalues(H, 2) for _ in range(6)]
        assert {res.method for res in solves} == {"iterative"}
        assert len({res.energies.tobytes() for res in solves}) == 1
