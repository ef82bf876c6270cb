"""Lattice tests: stencils, boundary folds, ground state, random potential."""

import numpy as np
import pytest
from scipy import linalg

from breatherlab import spectral
from breatherlab.errors import StateError
from breatherlab.lattice import (
    GroundStateData,
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    BoundaryCondition,
    GridSpec,
    assemble,
    cells_on_grid,
    mezincescu_correction,
    periodic_ground_state,
    periodized_ground_state,
    prepare_model,
    random_potentials,
)
from breatherlab.model import (
    DistributionSpec,
    ModelSpec,
    PeriodicPotentialSpec,
    SingleSiteSpec,
    _midpoint_grid,
    site_values,
)


def free_model(d=1):
    return ModelSpec(
        d=d,
        vper=PeriodicPotentialSpec(kind="zero"),
        site=SingleSiteSpec(
            kind="breather", amplitude=1.0, radius=0.4, lambda_minus=1.0, lambda_plus=2.0,
            standardized=True,
        ),
        dist=DistributionSpec(kind="uniform", lambda_minus=1.0, lambda_plus=2.0),
    )


def cosine_model(d=1, amp=0.5):
    return ModelSpec(
        d=d,
        vper=PeriodicPotentialSpec(kind="cosine-sum", amplitudes=(amp,) * d),
        site=SingleSiteSpec(
            kind="breather", amplitude=1.0, radius=0.4, lambda_minus=1.0, lambda_plus=2.0,
            standardized=True,
        ),
        dist=DistributionSpec(kind="uniform", lambda_minus=1.0, lambda_plus=2.0),
    )


def dirichlet_free_spectrum(L, n, d=1):
    """Closed-form spectrum of the free Dirichlet stencil, sorted."""
    N = n * L
    h = 1.0 / n
    modes = (4.0 / h**2) * np.sin(np.arange(1, N + 1) * np.pi / (2 * N)) ** 2
    if d == 1:
        return np.sort(modes)
    full = modes
    for _ in range(d - 1):
        full = (full[:, None] + modes[None, :]).ravel()
    return np.sort(full)


def neumann_free_spectrum(L, n):
    N = n * L
    h = 1.0 / n
    return np.sort((4.0 / h**2) * np.sin(np.arange(N) * np.pi / (2 * N)) ** 2)


def periodic_free_spectrum(L, n):
    N = n * L
    h = 1.0 / n
    return np.sort((4.0 / h**2) * np.sin(np.arange(N) * np.pi / N) ** 2)


class TestFreeSpectra:
    @pytest.mark.parametrize("L,n", [(1, 16), (4, 16), (8, 8)])
    def test_dirichlet_closed_form(self, L, n):
        H = assemble(free_model(), GridSpec(L=L, n=n), DIRICHLET)
        got = np.sort(linalg.eigvalsh(H.to_dense()))
        assert np.allclose(got, dirichlet_free_spectrum(L, n), atol=1e-10 * (n**2))

    def test_dirichlet_lowest_value_example(self):
        # L = 1, n = 4: lowest eigenvalue (4/h^2) sin^2(pi h / (2L)) ~ 9.37
        H = assemble(free_model(), GridSpec(L=1, n=4), DIRICHLET)
        e1 = linalg.eigvalsh(H.to_dense())[0]
        assert e1 == pytest.approx(64 * np.sin(np.pi / 8) ** 2, abs=1e-10)
        assert e1 == pytest.approx(9.37, abs=0.01)

    def test_neumann_constant_kernel(self):
        H = assemble(free_model(), GridSpec(L=4, n=8), NEUMANN)
        w = linalg.eigvalsh(H.to_dense())
        assert abs(w[0]) < 1e-12 * (8**2)
        assert np.allclose(w, neumann_free_spectrum(4, 8), atol=1e-9)

    def test_periodic_fourier_oracle(self):
        H = assemble(free_model(), GridSpec(L=4, n=8), PERIODIC)
        w = linalg.eigvalsh(H.to_dense())
        assert np.allclose(w, periodic_free_spectrum(4, 8), atol=1e-9)

    def test_periodic_2d(self):
        H = assemble(free_model(d=2), GridSpec(L=2, n=4, d=2), PERIODIC)
        w = np.sort(linalg.eigvalsh(H.to_dense()))
        m = periodic_free_spectrum(2, 4)
        oracle = np.sort((m[:, None] + m[None, :]).ravel())
        assert np.allclose(w, oracle, atol=1e-9)

    def test_stencil_consistency_order_h2(self):
        # free Dirichlet lowest eigenvalue -> pi^2/L^2 at rate O(h^2)
        L = 2
        errs = []
        for n in (8, 16, 32):
            H = assemble(free_model(), GridSpec(L=L, n=n), DIRICHLET)
            e1 = linalg.eigvalsh(H.to_dense())[0]
            errs.append(abs(e1 - np.pi**2 / L**2))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


class TestSymmetry:
    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN, PERIODIC])
    def test_exact_symmetry(self, bc):
        model = cosine_model()
        rng = np.random.default_rng(3)
        lams = rng.uniform(1.0, 2.0, size=(5,))
        H = assemble(model, GridSpec(L=5, n=8), bc, couplings=lams)
        diff = (H.matrix - H.matrix.T).tocoo()
        assert diff.nnz == 0

    def test_mezincescu_symmetry(self):
        model = cosine_model()
        gs = periodic_ground_state(model, 8)
        grid = GridSpec(L=3, n=8)
        H = assemble(model, grid, mezincescu_correction(gs, grid))
        assert (H.matrix - H.matrix.T).nnz == 0

    def test_symmetry_2d(self):
        model = cosine_model(d=2, amp=0.3)
        gs = periodic_ground_state(model, 6)
        grid = GridSpec(L=2, n=6, d=2)
        for bc in (DIRICHLET, NEUMANN, PERIODIC, mezincescu_correction(gs, grid)):
            H = assemble(model, grid, bc)
            assert (H.matrix - H.matrix.T).nnz == 0


class TestGroundState:
    def test_free_ground_state_constant(self):
        gs = periodic_ground_state(free_model(), 16)
        assert gs.energy == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(gs.psi, 1.0, atol=1e-10)
        assert gs.c3 == pytest.approx(1.0, abs=1e-10)
        assert gs.c4 == pytest.approx(1.0, abs=1e-10)

    def test_cosine_matches_dense_solve(self):
        model = cosine_model()
        gs = periodic_ground_state(model, 64)
        H = assemble(model, GridSpec(L=1, n=64), PERIODIC)
        w, v = linalg.eigh(H.to_dense(), subset_by_index=(0, 0))
        assert gs.energy == pytest.approx(w[0], abs=1e-10)
        vec = np.abs(v[:, 0])
        vec = vec / np.sqrt(np.sum(vec**2) / 64)
        assert np.allclose(gs.psi, vec, atol=1e-10)

    def test_iterative_path_matches_dense(self, monkeypatch):
        model = cosine_model()
        dense = periodic_ground_state(model, 64)
        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 10)
        iterative = periodic_ground_state(model, 64)
        assert iterative.energy == pytest.approx(dense.energy, abs=1e-9)
        assert np.allclose(iterative.psi, dense.psi, atol=1e-8)

    def test_positivity_amplitude_two(self):
        gs = periodic_ground_state(cosine_model(amp=2.0), 32)
        assert gs.c3 > 0


class TestMezincescu:
    def test_free_equals_neumann(self):
        # for exactly constant psi the ghost ratio is 1, i.e. the Neumann fold
        model = free_model()
        const_gs = GroundStateData(
            psi=np.ones(8), energy=0.0, c3=1.0, c4=1.0, n=8, d=1
        )
        grid = GridSpec(L=3, n=8)
        HM = assemble(model, grid, mezincescu_correction(const_gs, grid))
        HN = assemble(model, grid, NEUMANN)
        assert (HM.matrix - HN.matrix).nnz == 0
        # the solver's free ground state is constant to rounding, so its
        # fold matches Neumann to the same accuracy
        gs = periodic_ground_state(model, 8)
        HM2 = assemble(model, grid, mezincescu_correction(gs, grid))
        assert np.max(np.abs((HM2.matrix - HN.matrix).toarray())) < 1e-11

    def test_exact_eigenvector_residual(self):
        model, gs = prepare_model(cosine_model(), 16)
        grid = GridSpec(L=4, n=16)
        H = assemble(model, grid, mezincescu_correction(gs, grid))
        psi_L = periodized_ground_state(gs, grid)
        resid = H.matrix @ psi_L - gs.energy * psi_L
        assert np.linalg.norm(resid) <= 1e-10 * (16**2)
        # after normalization the eigenvalue itself sits at zero
        assert abs(gs.energy) < 1e-9

    @pytest.mark.parametrize("L", range(2, 9))
    def test_ground_level_matches_unit_cell(self, L):
        model, gs = prepare_model(cosine_model(), 16)
        grid = GridSpec(L=L, n=16)
        H = assemble(model, grid, mezincescu_correction(gs, grid))
        e1 = linalg.eigvalsh(H.to_dense(), subset_by_index=(0, 0))[0]
        assert abs(e1 - gs.energy) <= 1e-8

    def test_requires_ground_state(self):
        with pytest.raises(StateError):
            assemble(free_model(), GridSpec(L=2, n=8),
                     BoundaryCondition("mezincescu", ground_state=None))


class TestMidpointGrid:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", range(4, 14))
    def test_one_grid_for_every_cell_quadrature(self, n, d):
        # V_omega and xi read the grid's points, V_per and the window scans the
        # model's: the same bits, also where 1/n is not a power of two
        points = GridSpec(L=1, n=n, d=d).offset_points()
        assert points.tobytes() == _midpoint_grid(n, d).tobytes()
        assert points.shape == (n**d, d)


class TestRandomPotential:
    def test_all_floor_couplings_zero_field(self):
        model, _ = prepare_model(free_model(), 8)
        grid = GridSpec(L=4, n=8)
        lams = np.full(4, model.dist.lambda_minus)
        v = random_potentials(model, grid, [lams])[0]
        assert np.all(v == 0.0)

    def test_single_cell_matches_site(self):
        model, _ = prepare_model(free_model(), 8)
        grid = GridSpec(L=1, n=8)
        v = random_potentials(model, grid, [[1.7]])[0]
        pts = grid.offset_points()
        direct = site_values(model.site, 1.7, pts)
        assert np.allclose(v, direct, atol=1e-14)

    def test_2d_brute_force_oracle(self):
        # power-of-two n keeps the coordinate arithmetic exact, so the
        # brute-force sum and the assembled field agree bit for bit
        model, _ = prepare_model(free_model(d=2), 8)
        grid = GridSpec(L=3, n=8, d=2)
        rng = np.random.default_rng(5)
        lams = rng.uniform(1.0, 2.0, size=(3, 3))
        v = random_potentials(model, grid, [lams.ravel()])[0].reshape(grid.shape)
        coords = grid.axis_coords()
        oracle = np.zeros(grid.shape)
        for kx in range(3):
            for ky in range(3):
                for ix, x in enumerate(coords):
                    for iy, y in enumerate(coords):
                        oracle[ix, iy] += site_values(
                            model.site, lams[kx, ky], np.array([[x - kx, y - ky]]),
                        )[0]
        assert np.max(np.abs(v - oracle)) == 0.0

    @pytest.mark.parametrize("standardized", [False, True])
    @pytest.mark.parametrize("kind", ["alloy", "breather", "tabulated"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_grid_order_matches_site_order(self, d, kind, standardized):
        # evaluated in grid order with the realization axis last, the
        # potentials equal the site-order evaluation placed by cells_on_grid
        # bit for bit, as the transpose of a C-ordered (N, M) array, and
        # written in place into a caller's buffer
        tab = {} if kind != "tabulated" else dict(
            lambda_nodes=tuple(np.linspace(1.0, 2.0, 5)),
            x_nodes=(tuple(np.linspace(-0.5, 0.5, 9)),) * d,
            values=np.random.default_rng(1).uniform(0.0, 1.0, (5,) + (9,) * d))
        site = SingleSiteSpec(kind=kind, amplitude=1.3, radius=0.4, lambda_minus=1.0,
                              lambda_plus=2.0, standardized=standardized, **tab)
        model = ModelSpec(d=d, vper=PeriodicPotentialSpec(kind="zero"), site=site,
                          dist=DistributionSpec(kind="uniform", lambda_minus=1.0, lambda_plus=2.0))
        grid = GridSpec(L=3, n=6, d=d)
        fields = np.random.default_rng(d).uniform(1.0, 2.0, (5, 3**d))
        v = random_potentials(model, grid, fields)
        site_order = site_values(site, fields.ravel()[:, None], grid.offset_points())
        assert np.array_equal(v, cells_on_grid(grid, site_order))
        assert v.shape == (5, grid.num_dof) and v.T.flags.c_contiguous
        buf = np.full((grid.num_dof, 10), np.nan)
        assert np.shares_memory(random_potentials(model, grid, fields, out=buf[:, 5:]), buf)
        assert np.array_equal(buf[:, 5:].T, v) and np.all(np.isnan(buf[:, :5]))

    def test_raising_single_coupling_monotone(self):
        # raising one coupling never lowers any eigenvalue
        model, gs = prepare_model(cosine_model(), 8)
        grid = GridSpec(L=4, n=8)
        bc = mezincescu_correction(gs, grid)
        lams = np.array([1.2, 1.5, 1.1, 1.8])
        w_lo = linalg.eigvalsh(assemble(model, grid, bc, couplings=lams).to_dense())
        lams2 = lams.copy()
        lams2[2] = 1.9
        w_hi = linalg.eigvalsh(assemble(model, grid, bc, couplings=lams2).to_dense())
        assert np.all(w_hi >= w_lo - 1e-10)


class TestOrderingAndExport:
    def test_dirichlet_counting_below_robin_family(self):
        # form ordering: counting function of D is dominated by that of the
        # Neumann and of the ground-state condition
        model, gs = prepare_model(cosine_model(), 8)
        grid = GridSpec(L=3, n=8)
        lams = np.array([1.3, 1.9, 1.4])
        wD = linalg.eigvalsh(assemble(model, grid, DIRICHLET, couplings=lams).to_dense())
        for bc in (NEUMANN, mezincescu_correction(gs, grid)):
            wX = linalg.eigvalsh(assemble(model, grid, bc, couplings=lams).to_dense())
            for E in np.linspace(0.0, 30.0, 7):
                assert np.sum(wD <= E) <= np.sum(wX <= E)


class TestPrepare:
    def test_normalized_ground_level_zero(self):
        model, gs = prepare_model(cosine_model(), 16)
        assert abs(gs.energy) <= 1e-10
        # applying the shift again is idempotent up to solver tolerance
        model2, gs2 = prepare_model(model, 16)
        assert abs(gs2.energy) <= 1e-10
        assert abs(model2.energy_shift - model.energy_shift) <= 1e-10

    def test_free_shift_is_zero(self):
        model, gs = prepare_model(free_model(), 16)
        assert model.energy_shift == pytest.approx(0.0, abs=1e-10)
