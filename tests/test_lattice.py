"""Lattice tests: stencils, boundary folds, ground state, random potential."""

import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    skeleton,
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


def family_case(d, kind, standardized):
    """A zero-V_per model of one site family, its grid (n a power of two, so
    grid coordinates minus cell centers are the cell points exactly) and five
    coupling fields."""
    tab = {} if kind != "tabulated" else dict(
        lambda_nodes=tuple(np.linspace(1.0, 2.0, 5)),
        x_nodes=(tuple(np.linspace(-0.5, 0.5, 9)),) * d,
        values=np.random.default_rng(1).uniform(0.0, 1.0, (5,) + (9,) * d))
    site = SingleSiteSpec(kind=kind, amplitude=1.3, radius=0.4, lambda_minus=1.0,
                          lambda_plus=2.0, standardized=standardized, **tab)
    model = ModelSpec(d=d, vper=PeriodicPotentialSpec(kind="zero"), site=site,
                      dist=DistributionSpec(kind="uniform", lambda_minus=1.0, lambda_plus=2.0))
    grid = GridSpec(L=5 if d == 1 else 3, n=8 if d == 1 else 4, d=d)
    fields = np.random.default_rng(d).uniform(1.0, 2.0, (5, grid.L**d))
    return model, grid, fields


@functools.lru_cache(maxsize=None)
def brute_force_potentials(d, kind, standardized):
    """V_omega of the ``family_case`` fields point by point: at each grid point
    x, site_values(lambda_k, x - k) with k the cell center nearest x."""
    model, grid, fields = family_case(d, kind, standardized)
    out = np.empty((len(fields), grid.num_dof))
    for r, x in enumerate(itertools.product(grid.axis_coords(), repeat=d)):
        k = np.rint(x).astype(int)  # no grid point lies on a cell face
        site = np.ravel_multi_index(k, (grid.L,) * d)
        out[:, r] = site_values(model.site, fields[:, site], (np.array(x) - k)[None])
    return out


def unravel_ghost_ratios(grid, gs, axis, side, rows):
    """psi(ghost) / psi(inner) of face rows, from each row's grid coordinates:
    the cell point is the coordinate modulo n, the ghost one step out of the box."""
    multi = list(np.unravel_index(rows, grid.shape))
    inner = [m % grid.n for m in multi]
    ghost = list(inner)
    ghost[axis] = (multi[axis] + (-1 if side == 0 else 1)) % grid.n
    return gs.psi[tuple(ghost)] / gs.psi[tuple(inner)]


class TestCellMap:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cell_values_tile_the_box(self, d):
        # V_per and psi_L are the unit-cell samples repeated in every cell
        vper = PeriodicPotentialSpec(kind="tabulated",
                                     values=np.random.default_rng(d).uniform(-1, 1, (4,) * d))
        model = dataclasses.replace(cosine_model(d=d), vper=vper)
        gs = periodic_ground_state(model, 4)
        grid = GridSpec(L=3, n=4, d=d)
        assert np.array_equal(skeleton(model, grid, DIRICHLET).vper,
                              np.tile(vper.sample_cell(4, d), (3,) * d).ravel())
        assert np.array_equal(periodized_ground_state(gs, grid),
                              (np.tile(gs.psi, (3,) * d) * 3 ** (-d / 2.0)).ravel())

    @pytest.mark.parametrize("L", [1, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ghost_ratios_match_unravel_formula(self, d, L):
        # an asymmetric cell potential: psi differs at the two faces of a cell
        vper = PeriodicPotentialSpec(kind="tabulated",
                                     values=np.random.default_rng(d).uniform(-9, 9, (4,) * d))
        model = dataclasses.replace(cosine_model(d=d), vper=vper)
        gs = periodic_ground_state(model, 4)
        grid = GridSpec(L=L, n=4, d=d)
        folds = skeleton(model, grid, mezincescu_correction(gs, grid)).folds
        flat = np.arange(grid.num_dof).reshape(grid.shape)
        expect = np.zeros_like(folds)
        for axis in range(d):
            for side, face in enumerate((flat.take([0], axis=axis).ravel(),
                                         flat.take([-1], axis=axis).ravel())):
                ratios = unravel_ghost_ratios(grid, gs, axis, side, face)
                assert not np.all(ratios == 1.0)
                expect[axis, face] = ratios / (grid.h * grid.h)
        assert np.array_equal(folds, expect)


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
        points = GridSpec(L=1, n=n, d=d).offset_points
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
        pts = grid.offset_points
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
        # the potentials over the whole box, the site-order evaluation placed by
        # cells_on_grid and the point-by-point sum all agree bit for bit, and
        # the potentials come as the transpose of a C-ordered (N, M) array
        model, grid, fields = family_case(d, kind, standardized)
        v = random_potentials(model, grid, fields)
        site_order = site_values(model.site, fields.ravel()[:, None], grid.offset_points)
        assert np.array_equal(v, brute_force_potentials(d, kind, standardized))
        assert np.array_equal(cells_on_grid(grid, site_order), v)
        assert v.shape == (5, grid.num_dof) and v.T.flags.c_contiguous
        # at d = 2 rows 8:21 leave cell 2 and come back into it; 9:10 is one cell
        for start, stop in ((8, 21), (9, 10), (0, 0)):
            assert np.array_equal(random_potentials(model, grid, fields, start, stop),
                                  brute_force_potentials(d, kind, standardized)[:, start:stop])

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(case=st.tuples(st.sampled_from([1, 2]),
                          st.sampled_from(["alloy", "breather", "tabulated"]), st.booleans()),
           data=st.data())
    def test_row_ranges_match_brute_force(self, case, data):
        # any rows start:stop of any subset of the fields, one cell or many
        model, grid, fields = family_case(*case)
        start = data.draw(st.integers(0, grid.num_dof), label="start")
        stop = data.draw(st.integers(start, grid.num_dof), label="stop")
        which = np.array(data.draw(st.lists(st.integers(0, len(fields) - 1), max_size=7),
                                   label="which"), dtype=int)
        v = random_potentials(model, grid, fields[which], start, stop)
        assert v.shape == (which.size, stop - start) and v.T.flags.c_contiguous
        assert np.array_equal(v, brute_force_potentials(*case)[which, start:stop])

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
