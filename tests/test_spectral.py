"""Spectral tests: eigenvalue solves, inertia counts, gaps."""

import numpy as np
import pytest
import scipy.sparse as sps
from scipy import linalg

from breatherlab import spectral
from breatherlab.lattice import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
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
from breatherlab.spectral import (
    CountingValue,
    count_below,
    lowest_eigenvalues,
    tridiag_count_below,
)


def free_model():
    return ModelSpec(
        d=1,
        vper=PeriodicPotentialSpec(kind="zero"),
        site=SingleSiteSpec(
            kind="breather", amplitude=1.0, radius=0.4, lambda_minus=1.0, lambda_plus=2.0,
            standardized=True,
        ),
        dist=DistributionSpec(kind="uniform", lambda_minus=1.0, lambda_plus=2.0),
    )


def random_coupling_hamiltonian(L=25, n=8, seed=0, bc=DIRICHLET):
    model, _ = prepare_model(free_model(), n)
    rng = np.random.default_rng(seed)
    lams = rng.uniform(1.0, 2.0, size=L)
    return assemble(model, GridSpec(L=L, n=n), bc, couplings=lams)


class TestLowestEigenvalues:
    def test_dirichlet_closed_form(self):
        H = assemble(free_model(), GridSpec(L=4, n=16), DIRICHLET)
        res = lowest_eigenvalues(H, 6)
        N, h = 64, 1.0 / 16
        oracle = (4 / h**2) * np.sin(np.arange(1, 7) * np.pi / (2 * N)) ** 2
        assert res.method == "dense"
        assert np.allclose(res.energies, oracle, atol=1e-10 * (16**2))

    def test_neumann_zero_ground_energy(self):
        H = assemble(free_model(), GridSpec(L=4, n=16), NEUMANN)
        res = lowest_eigenvalues(H, 1)
        assert abs(res.energies[0]) <= 1e-9

    def test_iterative_matches_dense(self, monkeypatch):
        # force the iterative path on a dim-200 random-coupling operator
        H = random_coupling_hamiltonian(L=25, n=8)
        assert H.num_dof == 200
        de = lowest_eigenvalues(H, 4)
        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 100)
        it = lowest_eigenvalues(H, 4)
        assert it.method == "iterative" and de.method == "dense"
        assert np.allclose(it.energies, de.energies, atol=1e-8)

    def test_residuals_reported(self):
        H = random_coupling_hamiltonian()
        res = lowest_eigenvalues(H, 3)
        assert np.all(res.residuals <= 1e-9 * (1 + np.abs(res.energies)))

    @pytest.mark.parametrize("threshold", [2000, 100])
    def test_vectors_are_the_checked_eigenvectors(self, threshold, monkeypatch):
        H = random_coupling_hamiltonian()
        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", threshold)
        res = lowest_eigenvalues(H, 3)
        assert res.vectors.shape == (H.num_dof, 3)
        for j in range(3):
            v = res.vectors[:, j]
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(H.matrix @ v - res.energies[j] * v) == \
                res.residuals[j]

    def test_nondecreasing(self):
        H = random_coupling_hamiltonian(seed=3)
        res = lowest_eigenvalues(H, 8)
        assert np.all(np.diff(res.energies) >= -1e-12)


    def test_tridiagonal_solve_matches_dense_on_shipped_operators(self):
        import json
        from pathlib import Path

        from breatherlab import cli

        boxes = {}  # distinct (model, n) -> box sides used with it
        for path in (Path(__file__).resolve().parents[1] / "configs").glob("*.json"):
            cfg = cli.load_config(str(path))
            key = json.dumps([cfg["model"], cfg["grid"]["n"]], sort_keys=True)
            boxes.setdefault(key, (cfg, set()))[1].update(
                cfg["grid"]["L"], cfg["experiment"].get("temple_Ls", []))
        for cfg, Ls in boxes.values():
            model, gs = cli._prepare(cfg, cli.build_model(cfg))
            lams = np.random.default_rng(0).uniform(model.dist.lambda_minus,
                                                    model.dist.lambda_plus, max(Ls))
            for L in sorted(Ls):
                grid = GridSpec(L=L, n=cfg["grid"]["n"])
                for bc in (DIRICHLET, NEUMANN, mezincescu_correction(gs, grid)):
                    for couplings in (None, lams[:L]):
                        H = assemble(model, grid, bc, couplings=couplings)
                        assert H.tridiagonal
                        res = lowest_eigenvalues(H, 4)
                        w = linalg.eigh(H.to_dense(), eigvals_only=True,
                                        subset_by_index=(0, 3))
                        assert np.allclose(res.energies, w, rtol=0.0,
                                           atol=1e-12 * (1.0 + np.abs(w).max()))


class TestCountBelow:
    def test_below_lowest_is_zero(self):
        H = random_coupling_hamiltonian(seed=1)
        e1 = lowest_eigenvalues(H, 1).energies[0]
        assert count_below(H, e1 - 1e-6).count == 0

    def test_above_gershgorin_is_dim(self):
        H = random_coupling_hamiltonian(seed=2)
        A = H.matrix
        upper = float((A.diagonal() + np.asarray(np.abs(A).sum(axis=1)).ravel()).max())
        assert count_below(H, upper + 1.0).count == H.num_dof

    def test_dense_oracle_50_random_instances(self):
        # inertia counts equal dense-eigensolve counts, exactly
        rng = np.random.default_rng(42)
        for trial in range(50):
            N = int(rng.integers(20, 120))
            B = rng.normal(size=(N, N))
            A = (B + B.T) / 2
            w = np.sort(linalg.eigvalsh(A))
            E = float(rng.normal(scale=np.abs(w).max()))
            got = count_below(sps.csr_matrix(A), E).count
            assert got == int(np.sum(w <= E))

    def test_tridiagonal_path_matches_dense(self):
        H = random_coupling_hamiltonian(seed=4)
        w = np.sort(linalg.eigvalsh(H.to_dense()))
        for E in np.linspace(0, float(w.max()), 9):
            assert count_below(H, E).count == int(np.sum(w <= E))

    def test_sparse_path_matches_dense(self):
        # periodic corners break the tridiagonal structure, driving the
        # generic factorization path
        model, _ = prepare_model(free_model(), 8)
        H = assemble(model, GridSpec(L=30, n=8), PERIODIC,
                     couplings=np.random.default_rng(9).uniform(1, 2, 30))
        w = np.sort(linalg.eigvalsh(H.to_dense()))
        for E in np.linspace(0.1, 50.0, 7):
            got = count_below(H, E).count
            assert got == int(np.sum(w <= E))

    def test_jump_by_multiplicity(self):
        # free periodic spectrum has degenerate pairs; the count jumps by 2
        H = assemble(free_model(), GridSpec(L=4, n=8), PERIODIC)
        w = np.sort(linalg.eigvalsh(H.to_dense()))
        e2 = w[1]
        assert np.isclose(w[1], w[2])
        below = count_below(H, e2 - 1e-8).count
        above = count_below(H, e2 + 1e-8).count
        assert above - below == 2

    def test_degenerate_level_falls_back_to_dense(self, monkeypatch):
        # the unpivoted sparse factorization breaks down next to the doubly
        # degenerate periodic level; Bunch-Kaufman takes over at that energy
        calls = []
        dense_inertia = spectral._dense_inertia

        def spy(A, pivot_tol):
            calls.append(pivot_tol)
            return dense_inertia(A, pivot_tol)

        monkeypatch.setattr(spectral, "_dense_inertia", spy)
        H = assemble(free_model(), GridSpec(L=4, n=8), PERIODIC)
        w = np.sort(linalg.eigvalsh(H.to_dense()))
        for E in (w[1] - 1e-8, w[1] + 1e-8):
            assert count_below(H, E).count == int(np.sum(w <= E))
        assert len(calls) >= 1

    def test_d2_breather_counts_sparse_only(self, monkeypatch):
        # a mid-sized d = 2 operator (N = 1024) counts on sparse LDL^T alone
        def fail(A, pivot_tol):
            raise AssertionError("dense inertia called")

        monkeypatch.setattr(spectral, "_dense_inertia", fail)
        model2 = ModelSpec(
            d=2,
            vper=PeriodicPotentialSpec(kind="zero"),
            site=SingleSiteSpec(kind="breather", amplitude=1.0, radius=0.4,
                                lambda_minus=1.0, lambda_plus=2.0,
                                standardized=True),
            dist=DistributionSpec(kind="uniform", lambda_minus=1.0,
                                  lambda_plus=2.0),
        )
        model, _ = prepare_model(model2, 8)
        lams = np.random.default_rng(5).uniform(1.0, 2.0, size=(4, 4))
        H = assemble(model, GridSpec(L=4, n=8, d=2), DIRICHLET, couplings=lams)
        assert H.num_dof == 1024
        w = np.sort(linalg.eigvalsh(H.to_dense()))
        for E in (0.5, 2.0, 8.0, 50.0, float(w[40] + w[41]) / 2):
            assert count_below(H, E).count == int(np.sum(w <= E))

    def test_count_at_exact_eigenvalue_includes_it(self):
        # diagonal matrix with an eigenvalue exactly at E: the perturb policy
        # counts it (E_n <= E)
        A = sps.csr_matrix(np.diag([0.0, 1.0, 1.0, 2.0]))
        assert count_below(A, 1.0).count == 3
        assert count_below(A, 0.0).count == 1

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        B = rng.normal(size=(40, 40))
        A = (B + B.T) / 2
        perm = rng.permutation(40)
        P = np.eye(40)[perm]
        for E in (-2.0, 0.0, 2.0):
            c1 = count_below(sps.csr_matrix(A), E).count
            c2 = count_below(sps.csr_matrix(P @ A @ P.T), E).count
            assert c1 == c2

    def test_counts_nondecreasing_in_energy(self):
        H = random_coupling_hamiltonian(seed=6)
        energies = np.linspace(-1, 60, 25)
        counts = [count_below(H, E).count for E in energies]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_count_above_returned_eigenvalues(self):
        H = random_coupling_hamiltonian(seed=7)
        res = lowest_eigenvalues(H, 5)
        c = count_below(H, float(res.energies[-1]) + 1e-8).count
        assert c >= 5

    def test_batched_tridiag(self):
        rng = np.random.default_rng(13)
        B, N = 7, 30
        diag = rng.uniform(1.0, 3.0, size=(B, N))
        off = rng.uniform(-1.0, 1.0, size=N - 1)
        counts = tridiag_count_below(diag, off, 2.0)
        for b in range(B):
            A = np.diag(diag[b]) + np.diag(off, 1) + np.diag(off, -1)
            assert counts[b] == int(np.sum(linalg.eigvalsh(A) <= 2.0))


class TestSpectralGap:
    def test_free_periodic_gap_formula(self):
        L, n = 4, 16
        H = assemble(free_model(), GridSpec(L=L, n=n), PERIODIC)
        h = 1.0 / n
        e1, e2 = lowest_eigenvalues(H, 2).energies
        gap = e2 - e1
        assert e1 == pytest.approx(0.0, abs=1e-9)
        assert gap == pytest.approx((4 / h**2) * np.sin(np.pi * h / L) ** 2, abs=1e-8)
        assert gap == pytest.approx(4 * np.pi**2 / L**2, rel=0.01)

    def test_degenerate_second_level(self):
        # periodic free second/third eigenvalues coincide; gap is still E2-E1
        H = assemble(free_model(), GridSpec(L=4, n=8), PERIODIC)
        e1, e2 = lowest_eigenvalues(H, 2).energies
        gap = e2 - e1
        w = np.sort(linalg.eigvalsh(H.to_dense()))
        assert e2 == pytest.approx(w[1], abs=1e-9)
        assert gap > 0

    def test_counting_value_type(self):
        H = random_coupling_hamiltonian(seed=8)
        cv = count_below(H, 5.0)
        assert isinstance(cv, CountingValue)
        assert cv.energy == 5.0
