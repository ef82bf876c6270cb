"""IDS tests: seeded sampling, estimation, bracketing, exponent fits."""

import dataclasses
import io

import numpy as np
import pytest
from scipy import linalg

from breatherlab.errors import InputError, InsufficientDataError
from breatherlab.ids import (
    IDSCurve,
    bracketing_report,
    choose_box_size,
    estimate_ids,
    fit_lifshitz,
    lower_tail_check,
    matched_box_curve,
    sample_fields,
    synthetic_curve,
)
from breatherlab.lattice import (
    DIRICHLET,
    NEUMANN,
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
)
from breatherlab.spectral import count_below


def breather_model(dist_kind="uniform", atom=0.0, amp=1.0):
    if dist_kind == "uniform":
        dist = DistributionSpec(kind="uniform", lambda_minus=1.0, lambda_plus=2.0)
    else:
        dist = DistributionSpec(kind="two-point-plus-uniform", lambda_minus=1.0,
                                lambda_plus=2.0, atom_mass_at_min=atom)
    return ModelSpec(
        d=1,
        vper=PeriodicPotentialSpec(kind="zero"),
        site=SingleSiteSpec(kind="breather", amplitude=amp, radius=0.4,
                            lambda_minus=1.0, lambda_plus=2.0, standardized=True),
        dist=dist,
    )


@pytest.fixture(scope="module")
def prepped():
    return prepare_model(breather_model(), 16)


def bc_pair(gs):
    def make(grid):
        return [DIRICHLET, mezincescu_correction(gs, grid)]
    return make


class TestSampling:
    def test_deterministic(self):
        dist = DistributionSpec(kind="uniform", lambda_minus=1.0, lambda_plus=2.0)
        a = sample_fields(dist, 42, [7], 8, 1)
        b = sample_fields(dist, 42, [7], 8, 1)
        assert np.array_equal(a, b)
        c = sample_fields(dist, 42, [8], 8, 1)
        assert not np.array_equal(a, c)

    def test_marginals_law_of_large_numbers(self):
        dist = DistributionSpec(kind="uniform", lambda_minus=1.0, lambda_plus=2.0)
        draws = sample_fields(dist, 1, range(1000), 100, 1).ravel()
        mean = draws.mean()
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(mean - 1.5) <= 3 * se

    def test_independent_indices(self):
        dist = DistributionSpec(kind="uniform", lambda_minus=0.0, lambda_plus=1.0)
        a = sample_fields(dist, 5, 2 * np.arange(100), 100, 1).ravel()
        b = sample_fields(dist, 5, 2 * np.arange(100) + 1, 100, 1).ravel()
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) <= 3.0 / np.sqrt(a.size)

    def test_couplings_immutable(self):
        dist = DistributionSpec(kind="uniform", lambda_minus=0.0, lambda_plus=1.0)
        fields = sample_fields(dist, 1, [1], 4, 2)
        assert fields.shape == (1, 16)
        with pytest.raises(ValueError):
            fields[0, 0] = 3.0


    @pytest.mark.parametrize("seed,indices,L,d", [
        pytest.param(42, [0, 1, 7], 7, 1, id="count-not-multiple-of-4"),
        pytest.param(808, [(1 << 32) + 5, (8 << 32) + 1999], 64, 1, id="index-above-2^32"),
        pytest.param(2**64 - 1, [0, 3], 5, 1, id="seed-max"),
        pytest.param(2718, [0, 4, 11], 3, 2, id="d2"),
    ])
    def test_fields_are_numpy_philox_streams(self, seed, indices, L, d):
        # with couplings uniform on [0, 1] the field is the raw stream
        dist = DistributionSpec(kind="uniform", lambda_minus=0.0, lambda_plus=1.0)
        fields = sample_fields(dist, seed, indices, L, d)
        assert fields.shape == (len(indices), L**d)
        for row, index in zip(fields, indices):
            key = np.array([seed, index], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(row, gen.random(L**d))


class TestEstimate:
    def test_negative_energies_zero(self, prepped):
        model, gs = prepped
        cur = estimate_ids(model, 16, 4, bc_pair(gs)(GridSpec(4, 16)),
                           [-1.0, -0.1], 20, 3)
        for lab in ("D", "M"):
            assert np.all(cur.estimates[lab] == 0.0)
            assert np.all(cur.errors[lab] == 0.0)

    def test_pathwise_bracketing(self, prepped):
        model, gs = prepped
        cur = estimate_ids(model, 16, 8, bc_pair(gs)(GridSpec(8, 16)),
                           np.linspace(0.0, 12.0, 7), 50, 11)
        assert np.all(cur.counts["D"] <= cur.counts["M"])
        assert np.all(cur.estimates["D"] <= cur.estimates["M"])

    def test_curves_nondecreasing(self, prepped):
        model, gs = prepped
        cur = estimate_ids(model, 16, 6, bc_pair(gs)(GridSpec(6, 16)),
                           np.linspace(0.0, 20.0, 9), 30, 17)
        for lab in ("D", "M"):
            assert np.all(np.diff(cur.estimates[lab]) >= 0.0)

    def test_reproducible(self, prepped):
        model, gs = prepped
        mk = bc_pair(gs)
        a = estimate_ids(model, 16, 4, mk(GridSpec(4, 16)), [0.5, 2.0], 25, 99)
        b = estimate_ids(model, 16, 4, mk(GridSpec(4, 16)), [0.5, 2.0], 25, 99)
        for lab in ("D", "M"):
            assert np.array_equal(a.counts[lab], b.counts[lab])
            assert np.array_equal(a.estimates[lab], b.estimates[lab])

    def test_fast_path_matches_general(self, prepped):
        # count each realization row by row with count_below, then compare
        # against the batched Sturm sweep
        model, gs = prepped
        from breatherlab.ids import _count_block

        grid = GridSpec(4, 16)
        bcs = bc_pair(gs)(grid)
        energies = np.array([0.5, 1.5, 3.0])
        idx = np.arange(12)
        fast = _count_block((model, grid, bcs, energies, 7, idx, 0))
        fields = sample_fields(model.dist, 7, idx, 4, 1)
        for bc in bcs:
            slow = np.array([[count_below(assemble(model, grid, bc, couplings=lams), E).count
                              for E in energies] for lams in fields])
            assert np.array_equal(fast[bc.label], slow)

    def test_workers_equivalent(self, prepped):
        model, gs = prepped
        mk = bc_pair(gs)
        serial = estimate_ids(model, 16, 4, mk(GridSpec(4, 16)), [1.0], 16, 5,
                              workers=1)
        parallel = estimate_ids(model, 16, 4, mk(GridSpec(4, 16)), [1.0], 16, 5,
                                workers=2)
        assert np.array_equal(serial.counts["D"], parallel.counts["D"])
        assert np.array_equal(serial.counts["M"], parallel.counts["M"])

    def test_unsorted_energies_rejected(self, prepped):
        model, gs = prepped
        with pytest.raises(InputError):
            estimate_ids(model, 16, 4, bc_pair(gs)(GridSpec(4, 16)), [2.0, 1.0], 5, 1)

    def test_degenerate_coupling_law_reproduces_periodic_counts(self, prepped):
        # couplings pinned to the floor within 1e-12: the M = 1 curve matches
        # the deterministic counting function of the periodic operator at
        # energies away from its spectrum
        model, gs = prepped
        tight = DistributionSpec(kind="uniform", lambda_minus=1.0,
                                 lambda_plus=1.0 + 1e-12)
        from dataclasses import replace

        degen = replace(model, dist=tight,
                        site=replace(model.site, lambda_plus=1.0 + 1e-12))
        grid = GridSpec(4, 16)
        bcs = bc_pair(gs)(grid)
        energies = [0.3, 1.1, 3.3]
        cur = estimate_ids(degen, 16, 4, bcs, energies, 1, 1)
        from breatherlab.spectral import count_below

        for bc in bcs:
            H = assemble(model, grid, bc, couplings=np.full(4, 1.0))
            for j, E in enumerate(energies):
                assert cur.counts[bc.label][0, j] == count_below(H, E).count

    def test_d2_general_path(self):
        # two-dimensional boxes run through the generic factorization path
        model2 = ModelSpec(
            d=2,
            vper=PeriodicPotentialSpec(kind="zero"),
            site=SingleSiteSpec(kind="breather", amplitude=1.0, radius=0.4,
                                lambda_minus=1.0, lambda_plus=2.0,
                                standardized=True),
            dist=DistributionSpec(kind="uniform", lambda_minus=1.0,
                                  lambda_plus=2.0),
        )
        model, gs = prepare_model(model2, 6)
        grid = GridSpec(2, 6, d=2)
        bcs = [DIRICHLET, mezincescu_correction(gs, grid)]
        cur = estimate_ids(model, 6, 2, bcs, [2.0, 9.0], 5, 77)
        again = estimate_ids(model, 6, 2, bcs, [2.0, 9.0], 5, 77)
        assert np.all(cur.counts["D"] <= cur.counts["M"])
        assert np.array_equal(cur.counts["M"], again.counts["M"])

    def test_csv_layout(self, prepped):
        model, gs = prepped
        cur = estimate_ids(model, 16, 4, bc_pair(gs)(GridSpec(4, 16)),
                           [0.5, 1.0], 10, 21)
        buf = io.StringIO()
        cur.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "E,N_D,se_D,N_M,se_M,L,n,M,seed"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.5
        assert first[5:] == ["4", "16", "10", "21"]

    def test_csv_round_trip_exact(self, prepped, tmp_path):
        model, gs = prepped
        cur = estimate_ids(model, 16, 4, bc_pair(gs)(GridSpec(4, 16)),
                           [0.5, 1.0, 3.0], 10, 21)
        path = tmp_path / "curve.csv"
        cur.to_csv(path)
        back = IDSCurve.from_csv(path, 1)
        for name in ("energies", "box_sizes"):
            assert np.array_equal(getattr(back, name), getattr(cur, name))
        for label in ("D", "M"):
            assert np.array_equal(back.estimates[label], cur.estimates[label])
            assert np.array_equal(back.errors[label], cur.errors[label])
        assert (back.n, back.M, back.seed, back.d) == (16, 10, 21, 1)


def run_curves(model, bcs, Ls, energies, M, seed):
    """One run's curves, keyed by box size, as ``cmd_ids`` hands them over."""
    return {L: estimate_ids(model, 16, L, bcs, energies, M, seed) for L in Ls}


class TestBracketing:
    def test_report_passes(self, prepped):
        model, gs = prepped
        energies = np.linspace(0.5, 8.0, 6)
        rep = bracketing_report(run_curves(
            model, [DIRICHLET, mezincescu_correction(gs, GridSpec(4, 16))],
            [4, 8, 16], energies, 60, 13))
        assert rep["pathwise_violations"] == 0
        assert rep["lower_monotone"] and rep["upper_monotone"]
        assert rep["cross_ordering"]
        assert rep["all_pass"]

    def test_report_reads_run_from_curves(self, prepped):
        model, gs = prepped
        energies = np.linspace(0.5, 8.0, 4)
        curves = run_curves(model, bc_pair(gs)(GridSpec(4, 16)), [8, 4], energies, 12, 31)
        rep = bracketing_report(curves)
        assert (rep["Ls"], rep["samples"], rep["seed"]) == ([8, 4], 12, 31)
        assert rep["energies"] == list(energies)
        assert rep["pathwise_pairs"] == 2 * 12 * 4
        for L, cur in curves.items():
            for label in ("D", "M"):
                assert rep["curves"][L][label] == list(cur.estimates[label])

    def test_given_curve_without_counts_rejected(self, prepped):
        model, gs = prepped
        bcs = bc_pair(gs)(GridSpec(4, 16))
        curves = run_curves(model, bcs, [4, 8], [0.5, 2.0], 6, 31)
        curves[4] = dataclasses.replace(curves[4], counts=None)
        with pytest.raises(InputError):
            bracketing_report(curves)

    def test_curve_without_upper_label_rejected(self, prepped):
        model, _ = prepped
        curves = run_curves(model, [DIRICHLET, NEUMANN], [4, 8], [0.5, 2.0], 6, 31)
        with pytest.raises(InputError, match="D and M"):
            bracketing_report(curves)

    def test_given_curve_other_run_rejected(self, prepped):
        model, gs = prepped
        bcs = bc_pair(gs)(GridSpec(4, 16))
        energies = [0.5, 2.0]
        curves = run_curves(model, bcs, [8], energies, 6, 31)
        curves[4] = estimate_ids(model, 16, 4, bcs, energies, 6, 32)
        with pytest.raises(InputError):
            bracketing_report(curves)

    def test_single_box_rejected(self, prepped):
        model, gs = prepped
        with pytest.raises(InputError, match="two box sizes"):
            bracketing_report(run_curves(model, bc_pair(gs)(GridSpec(4, 16)), [4],
                                         [0.5], 6, 31))

    def test_free_case_closed_form_counts(self):
        # deterministic check at E = 5 for the free operator: normalized
        # Dirichlet counts do not decrease along L = 4, 8, 16
        n, h = 8, 1.0 / 8
        values = []
        for L in (4, 8, 16):
            N = n * L
            modes = (4 / h**2) * np.sin(np.arange(1, N + 1) * np.pi / (2 * N)) ** 2
            values.append(np.sum(modes <= 5.0) / L)
        assert values[0] <= values[1] <= values[2]
        model, gs = prepare_model(breather_model(), 8)
        for L, expect in zip((4, 8, 16), values):
            H = assemble(model, GridSpec(L, 8), DIRICHLET,
                         couplings=np.full(L, 1.0))
            w = linalg.eigvalsh(H.to_dense())
            assert np.sum(w <= 5.0) / L == pytest.approx(expect)


class TestChooseBoxSize:
    def test_lower_form_example(self):
        choice = choose_box_size(np.pi**2 / 4.0, form="lower", B2=np.pi**2)
        assert choice.L == 4 and not choice.clamped

    def test_upper_form_clamps(self, prepped):
        from breatherlab.bounds import (
            fit_gap_constant,
            ground_state_box,
            make_temple_config,
            model_constants,
            periodic_levels,
        )

        model, gs = prepped
        consts = model_constants(model, gs)
        gap = fit_gap_constant({L: periodic_levels(ground_state_box(model, gs, GridSpec(L, 16)))
                                for L in (2, 3, 4)})
        cfg = make_temple_config(L=4, gamma=4.0, constants=consts, epsilon0=gap.epsilon0)
        # at E = c2/(2 c7) the raw size is exactly 1, clamped up to 2
        E = cfg.c2 / (2.0 * cfg.c7)
        choice = choose_box_size(E, cfg=cfg, form="upper")
        assert choice.L == 2 and choice.clamped

    def test_sqrt_scaling(self):
        a = choose_box_size(0.25, form="lower", B2=np.pi**2, L_max=1000)
        b = choose_box_size(1.0, form="lower", B2=np.pi**2, L_max=1000)
        assert a.raw == pytest.approx(2 * b.raw)

    def test_domain(self):
        with pytest.raises(InputError):
            choose_box_size(-1.0, form="lower", B2=1.0)


class TestLifshitzFit:
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_synthetic_exact_slope(self, s):
        E = np.geomspace(0.05, 0.8, 12)
        cur = synthetic_curve(E, c=2.0, s=s)
        # keep every N(E) value inside a window it actually visits
        vals = cur.estimates["M"]
        window = (max(vals.min() * 0.5, 1e-300), min(vals.max() * 2, 0.999))
        fit = fit_lifshitz(cur, window=window, label="M", max_rel_se=1.0, target=-s)
        assert fit.slope == pytest.approx(-s, abs=1e-3)

    def test_constant_c_does_not_shift_slope(self):
        E = np.geomspace(0.1, 0.9, 10)
        cur = synthetic_curve(E, c=3.0, s=1.0)
        vals = cur.estimates["M"]
        window = (vals.min() * 0.5, min(vals.max() * 2, 0.999))
        fit = fit_lifshitz(cur, window=window, max_rel_se=1.0)
        assert fit.slope == pytest.approx(-1.0, abs=1e-3)

    def test_insufficient_data_names_window(self):
        E = np.geomspace(0.1, 0.9, 10)
        cur = synthetic_curve(E, c=2.0, s=0.5)
        with pytest.raises(InsufficientDataError, match="1e-09"):
            fit_lifshitz(cur, window=(1e-10, 1e-9))

    def test_bad_window_rejected(self):
        E = np.geomspace(0.1, 0.9, 10)
        cur = synthetic_curve(E, c=2.0, s=0.5)
        with pytest.raises(InputError):
            fit_lifshitz(cur, window=(0.5, 1.5))

    def test_target_follows_dimension(self):
        E = np.geomspace(0.1, 0.9, 10)
        cur = synthetic_curve(E, c=2.0, s=1.0, d=2)
        vals = cur.estimates["M"]
        window = (vals.min() * 0.5, min(vals.max() * 2, 0.999))
        fit = fit_lifshitz(cur, window=window, max_rel_se=10.0)
        assert fit.target == -1.0

    def test_bootstrap_interval_contains_slope(self, prepped):
        model, gs = prepped
        cur = matched_box_curve(model, 16, bc_pair(gs),
                                np.geomspace(1.0, 6.0, 6), 200, 2024,
                                B2=np.pi**2, L_max=24)
        est = cur.estimates["M"]
        lo = max(1e-6, est[est > 0].min() * 0.5)
        hi = min(0.9, est.max() * 1.5)
        fit = fit_lifshitz(cur, window=(lo, hi), label="M", max_rel_se=2.0,
                           min_points=3)
        assert fit.ci_lo <= fit.slope <= fit.ci_hi
        assert fit.n_resamples > 0


class TestLowerTail:
    def test_analytic_tail_dominated(self, prepped):
        model, gs = prepped
        rep = lower_tail_check(model, 16, bc_pair(gs), [0.5, 1.0, 2.0],
                               200, 77, B1=2.0, B2=np.pi**2, eps1=0.1, eps2=1.0)
        assert rep["all_pass"]
        for row in rep["rows"]:
            assert row["estimate"] >= row["analytic"] - 2 * row["se"]
