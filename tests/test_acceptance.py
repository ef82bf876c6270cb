"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one line

    criterion NN (name): PASS|FAIL [t s]

run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json
import time

import numpy as np
import pytest
import scipy.sparse as sps
from scipy import linalg

from breatherlab.bounds import (
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
from breatherlab.cli import main
from breatherlab.ids import (
    bracketing_report,
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
    PERIODIC,
    GridSpec,
    assemble,
    mezincescu_correction,
    periodized_ground_state,
    prepare_model,
    random_potentials,
    skeleton,
)
from breatherlab.model import (
    DistributionSpec,
    ModelSpec,
    PeriodicPotentialSpec,
    SingleSiteSpec,
)
from breatherlab.spectral import count_below, lowest_eigenvalues


def report(num, name, ok, elapsed, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} ({name}): {verdict} [{elapsed:.1f}s] {detail}")


def cosine_model():
    return ModelSpec(
        d=1,
        vper=PeriodicPotentialSpec(kind="cosine-sum", amplitudes=(0.5,)),
        site=SingleSiteSpec(kind="breather", amplitude=1.0, radius=0.4,
                            lambda_minus=1.0, lambda_plus=2.0),
        dist=DistributionSpec(kind="uniform", lambda_minus=1.0, lambda_plus=2.0),
    )


def flat_model(amplitude=1.0, dist=None):
    return ModelSpec(
        d=1,
        vper=PeriodicPotentialSpec(kind="zero"),
        site=SingleSiteSpec(kind="breather", amplitude=amplitude, radius=0.4,
                            lambda_minus=1.0, lambda_plus=2.0, standardized=True),
        dist=dist or DistributionSpec(kind="uniform", lambda_minus=1.0,
                                      lambda_plus=2.0),
    )


@pytest.fixture(scope="module")
def cosine_prepped():
    return prepare_model(cosine_model(), 16)


@pytest.fixture(scope="module")
def cosine_env(cosine_prepped):
    model, gs = cosine_prepped
    consts = model_constants(model, gs)
    gap = fit_gap_constant({L: periodic_levels(ground_state_box(model, gs, GridSpec(L, 16)))
                            for L in range(2, 11)})
    _, p = model.dist.lambda_star()
    return model, gs, consts, gap, p


@pytest.fixture(scope="module")
def flat_prepped():
    return prepare_model(flat_model(), 16)


def free_closed_form(kind, L, n):
    N, h = n * L, 1.0 / n
    if kind == "D":
        m = np.arange(1, N + 1)
        return np.sort((4 / h**2) * np.sin(m * np.pi / (2 * N)) ** 2)
    if kind == "N":
        m = np.arange(N)
        return np.sort((4 / h**2) * np.sin(m * np.pi / (2 * N)) ** 2)
    m = np.arange(N)
    return np.sort((4 / h**2) * np.sin(m * np.pi / N) ** 2)


def test_criterion_01_solver_correctness():
    t0 = time.perf_counter()
    model, _ = prepare_model(flat_model(), 16)
    worst = 0.0
    for L, n in ((1, 16), (4, 16), (8, 8)):
        grid = GridSpec(L=L, n=n)
        for kind, bc in (("D", DIRICHLET), ("N", NEUMANN), ("P", PERIODIC)):
            H = assemble(model, grid, bc)
            got = np.sort(linalg.eigvalsh(H.to_dense()))
            worst = max(worst, float(np.max(np.abs(got - free_closed_form(kind, L, n)))))
    spectra_ok = worst <= 1e-10

    rng = np.random.default_rng(2718)
    count_ok = True
    for _ in range(50):
        dim = int(rng.integers(50, 501))
        B = rng.normal(size=(dim, dim))
        A = (B + B.T) / 2
        w = np.sort(linalg.eigvalsh(A))
        E = float(rng.normal(scale=max(1.0, np.abs(w).max() / 2)))
        got = count_below(sps.csr_matrix(A), E)
        count_ok = count_ok and got == int(np.sum(w <= E))
    elapsed = time.perf_counter() - t0
    ok = spectra_ok and count_ok and elapsed < 10.0
    report(1, "solver correctness", ok, elapsed,
           f"max spectrum error {worst:.2e}, counts exact: {count_ok}")
    assert spectra_ok and count_ok
    assert elapsed < 10.0


def test_criterion_02_mezincescu_exactness(cosine_prepped):
    t0 = time.perf_counter()
    model, gs = cosine_prepped
    e1_unit = lowest_eigenvalues(assemble(model, GridSpec(1, 16), PERIODIC),
                                 1).energies[0]
    worst_diff = 0.0
    worst_resid = 0.0
    for L in range(2, 9):
        grid = GridSpec(L, 16)
        H = assemble(model, grid, mezincescu_correction(gs, grid))
        psi = periodized_ground_state(gs, grid)
        worst_resid = max(worst_resid,
                          float(np.linalg.norm(H.matrix @ psi - gs.energy * psi)))
        e1 = lowest_eigenvalues(H, 1).energies[0]
        worst_diff = max(worst_diff, abs(float(e1) - float(e1_unit)))
    elapsed = time.perf_counter() - t0
    ok = worst_diff <= 1e-8 and worst_resid <= 1e-10 and elapsed < 30.0
    report(2, "ground-state boundary exactness", ok, elapsed,
           f"max |E1 diff| {worst_diff:.2e}, max residual {worst_resid:.2e}")
    assert worst_diff <= 1e-8
    assert worst_resid <= 1e-10
    assert elapsed < 30.0


def test_criterion_03_gap_scaling(cosine_env):
    t0 = time.perf_counter()
    _, _, _, gap, _ = cosine_env
    elapsed = time.perf_counter() - t0
    ok = gap.epsilon0 > 0 and -2.3 <= gap.loglog_slope <= -1.7 and elapsed < 60.0
    report(3, "gap scaling", ok, elapsed,
           f"epsilon0 {gap.epsilon0:.4f}, slope {gap.loglog_slope:.3f}")
    assert gap.epsilon0 > 0
    assert -2.3 <= gap.loglog_slope <= -1.7
    assert elapsed < 60.0


def test_criterion_04_moment_identities(cosine_env):
    t0 = time.perf_counter()
    model, gs, consts, gap, p = cosine_env
    cfg = make_temple_config(L=6, gamma=2.0 / p, constants=consts,
                             epsilon0=gap.epsilon0)
    grid = GridSpec(6, 16)
    box = skeleton(model, grid, mezincescu_correction(gs, grid))
    mapped = map_realization(gs, model, grid, sample_fields(model.dist, 404, range(100), 6, 1),
                             cfg)
    # the cut-off operators, built from the cutoffs apart from the mapped potential
    H = box.hamiltonian(random_potentials(model, grid, mapped.cutoffs.reshape(100, -1)))
    form, total = first_moment(gs, mapped, H)
    val, bnd = second_moment(gs, mapped, H, cfg)
    worst_id = float(np.max(np.abs(form - total)))
    min_margin = float(np.min(bnd - val))
    passes = int(np.sum((np.abs(form - total) <= 1e-9) & (val <= bnd)))
    elapsed = time.perf_counter() - t0
    ok = passes == 100 and elapsed < 120.0
    report(4, "moment identities", ok, elapsed,
           f"{passes}/100, max |form-sum| {worst_id:.2e}, min margin {min_margin:.2e}")
    assert passes == 100
    assert elapsed < 120.0


def test_criterion_05_temple_bound(cosine_env):
    t0 = time.perf_counter()
    model, gs, consts, gap, p = cosine_env
    total = 0
    passes = 0
    for L in (4, 6, 8):
        cfg = make_temple_config(L=L, gamma=2.0 / p, constants=consts,
                                 epsilon0=gap.epsilon0)
        grid = GridSpec(L, 16)
        box = ground_state_box(model, gs, grid)
        per = periodic_levels(box)
        mapped = map_realization(
            gs, model, grid, sample_fields(model.dist, 505, (L << 16) + np.arange(100), L, 1), cfg)
        rep = temple_lower_bounds(box, mapped, cfg, per)
        total += rep.verdict.size
        chain = np.logical_and.reduce(list(rep.constants["links"].values()))
        passes += int(np.sum(rep.passed & chain))
    elapsed = time.perf_counter() - t0
    ok = passes == total == 300 and elapsed < 300.0
    report(5, "temple lower bound", ok, elapsed, f"{passes}/{total} with full chain")
    assert passes == total == 300
    assert elapsed < 300.0


def test_criterion_06_deviation_machinery(cosine_env):
    t0 = time.perf_counter()
    model, gs, consts, gap, p = cosine_env
    cfg = make_temple_config(L=6, gamma=2.0 / p, constants=consts,
                             epsilon0=gap.epsilon0)
    grid = GridSpec(6, 16)
    box = skeleton(model, grid, mezincescu_correction(gs, grid))
    rng = np.random.default_rng(606)
    sites = 0
    fields = []
    while sites < 10**4:
        u = rng.random(6)
        if len(fields) % 2 == 0:  # every other realization hugs the floor
            lams = 1.0 + (2.0 * cfg.c7 * cfg.energy_scale) * u
        else:
            lams = 1.0 + u
        fields.append(lams)
        sites += 6
    mapped = map_realization(gs, model, grid, np.array(fields), cfg)
    # whether E1 <= escale, for every cutoff operator from one batched count on the box
    below = count_below(box.hamiltonian(mapped.potential), cfg.energy_scale)
    cor = counting_corollary_check(mapped, cfg.energy_scale, cfg.gamma, below)
    dev = deviation_chain_check(mapped, cfg)
    corollary_bad = int(np.sum(~cor.passed))
    deviation_bad = int(np.sum(dev.constants["violations"]))
    nonvacuous = int(np.sum(~cor.constants["vacuous"]))
    premise_sites = int(np.sum(dev.constants["premise_count"]))

    bern_ok = True
    for pp in (0.3, 0.5, 0.8):
        for Ld in (8, 27, 64):
            exact, bound = bernoulli_tail(pp, 2.0 / pp, Ld)
            bern_ok = bern_ok and exact <= bound
    elapsed = time.perf_counter() - t0
    ok = (corollary_bad == 0 and deviation_bad == 0 and bern_ok
          and premise_sites > 0 and elapsed < 60.0)
    report(6, "deviation machinery", ok, elapsed,
           f"{sites} site samples, {premise_sites} premise-active, "
           f"tail grid ok: {bern_ok}")
    assert corollary_bad == 0 and deviation_bad == 0
    assert bern_ok and premise_sites > 0
    assert elapsed < 60.0


def test_criterion_07_lower_bound_lemma(flat_prepped):
    t0 = time.perf_counter()
    model, gs = flat_prepped
    grid = GridSpec(6, 16)
    test = dirichlet_test_function(model, grid)
    rep = dirichlet_upper_bounds(model, sample_fields(model.dist, 707, range(100), 6, 1), test)
    passes = int(np.sum(rep.passed))
    B1, B2 = rep.constants["B1"], rep.constants["B2"]
    consts = model_constants(model, gs)
    curve = matched_box_curve(model, gs, [0.5, 1.0, 2.0], 400, 708, B2=B2)
    tail = lower_tail_check(curve, model.dist, B1=B1, eps1=consts.eps1, eps2=consts.eps2)
    elapsed = time.perf_counter() - t0
    ok = passes == 100 and tail["all_pass"] and elapsed < 300.0
    report(7, "lower-bound lemma and tail", ok, elapsed,
           f"{passes}/100 realized-constant, tail at 3 energies: {tail['all_pass']}")
    assert passes == 100
    assert tail["all_pass"]
    assert all(r["delta_within_eps2"] for r in tail["rows"])
    assert elapsed < 300.0


def test_criterion_08_lifshitz_exponent():
    t0 = time.perf_counter()
    # synthetic self-test first: exact functional form recovers its exponent
    self_ok = True
    for s in (0.5, 1.0, 1.5):
        E = np.geomspace(0.05, 0.8, 12)
        cur = synthetic_curve(E, c=2.0, s=s)
        vals = cur.estimates["M"]
        window = (max(vals.min() * 0.5, 1e-300), min(vals.max() * 2.0, 0.999))
        fit = fit_lifshitz(cur, window=window, label="M", target=-s)
        self_ok = self_ok and abs(fit.slope + s) <= 1e-3
    assert self_ok

    dist = DistributionSpec(kind="two-point-plus-uniform", lambda_minus=1.0,
                            lambda_plus=2.0, atom_mass_at_min=0.5)
    model, gs = prepare_model(flat_model(amplitude=8.0, dist=dist), 16)
    B2 = dirichlet_test_function(model, GridSpec(4, 16)).B2
    energies = np.geomspace(0.05, 0.30, 8)
    curve = matched_box_curve(model, gs, energies, 2000, 808, B2=B2, L_max=64)
    fit = fit_lifshitz(curve, window=(1e-4, 1e-1), label="M")
    elapsed = time.perf_counter() - t0
    in_band = -0.8 <= fit.slope <= -0.3
    ok = self_ok and in_band and fit.n_points >= 5 and elapsed < 1800.0
    report(8, "lifshitz exponent", ok, elapsed,
           f"self-test ok, slope {fit.slope:.3f} in [-0.8, -0.3] "
           f"(target {fit.target}), {fit.n_points} points, "
           f"ci [{fit.ci_lo:.3f}, {fit.ci_hi:.3f}]")
    assert in_band
    assert fit.n_points >= 5
    assert elapsed < 1800.0


def test_criterion_09_bracketing(cosine_prepped):
    t0 = time.perf_counter()
    model, gs = cosine_prepped
    energies = np.linspace(0.5, 8.0, 6)
    rep = bracketing_report(estimate_ids(model, gs, [4, 8, 16], energies, 200, 909))
    elapsed = time.perf_counter() - t0
    ok = rep["all_pass"] and elapsed < 600.0
    report(9, "bracketing", ok, elapsed,
           f"pathwise {rep['pathwise_pairs'] - rep['pathwise_violations']}"
           f"/{rep['pathwise_pairs']}, monotone: "
           f"{rep['lower_monotone']}/{rep['upper_monotone']}, "
           f"cross: {rep['cross_ordering']}")
    assert rep["pathwise_violations"] == 0
    assert rep["lower_monotone"] and rep["upper_monotone"] and rep["cross_ordering"]
    assert elapsed < 600.0


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    curve_path = tmp_path / "replay_curve.csv"
    synthetic_curve(np.geomspace(0.05, 0.8, 12), c=2.0, s=0.5).to_csv(curve_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "schema_version": 1,
        "model": {
            "d": 1,
            "vper": {"kind": "cosine-sum", "amplitudes": [0.5]},
            "site": {"kind": "breather", "amplitude": 1.0, "radius": 0.4},
            "dist": {"kind": "uniform", "lambda_minus": 1.0, "lambda_plus": 2.0},
        },
        "grid": {"n": 16, "L": [4, 8]},
        "experiment": {"seed": 1010, "samples": 5, "eigenvalues": 3,
                       "realizations": 2, "temple_Ls": [4],
                       "gap_Ls": [2, 3, 4], "bernoulli_p": [0.5],
                       "bernoulli_Ld": [8],
                       "curve_csv": str(curve_path),
                       "window": [1e-6, 0.5], "target": -0.5,
                       "tolerance_band": [-0.55, -0.45],
                       "energies": {"kind": "linear", "start": 0.0,
                                    "stop": 5.0, "count": 5}},
        "output": {"dir": str(tmp_path / "unused")},
    }))
    identical = True
    for command, primary in (("validate", ["validate_report.json",
                                           "validate_report.txt"]),
                             ("spectrum", ["spectrum.csv"]),
                             ("ids", ["ids_curve.csv", "bracketing.json"]),
                             ("lifshitz", ["lifshitz.json"]),
                             ("bounds", ["bounds_report.json"])):
        a, b = tmp_path / f"{command}_a", tmp_path / f"{command}_b"
        code_a = main([command, "--config", str(cfg_path), "--out", str(a),
                       "--no-cache"])
        code_b = main([command, "--config", str(cfg_path), "--out", str(b),
                       "--no-cache"])
        identical = identical and code_a == code_b
        for name in primary:
            identical = identical and (a / name).read_bytes() == (b / name).read_bytes()
    elapsed = time.perf_counter() - t0
    report(10, "byte determinism", identical, elapsed,
           "all five commands, primary outputs compared")
    assert identical
