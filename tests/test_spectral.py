"""Spectral tests: eigenvalue solves, inertia counts, gaps."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg

from breatherlab import spectral
from breatherlab.errors import ConvergenceError, NumericalError
from breatherlab.lattice import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    DiscreteHamiltonian,
    GridSpec,
    assemble,
    mezincescu_correction,
    prepare_model,
    skeleton,
)
from breatherlab.model import (
    DistributionSpec,
    ModelSpec,
    PeriodicPotentialSpec,
    SingleSiteSpec,
)
from breatherlab.spectral import count_below, lowest_eigenvalues


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
        assert res.method == "tridiagonal"
        assert np.allclose(res.energies, oracle, atol=1e-10 * (16**2))

    def test_neumann_zero_ground_energy(self):
        H = assemble(free_model(), GridSpec(L=4, n=16), NEUMANN)
        res = lowest_eigenvalues(H, 1)
        assert abs(res.energies[0]) <= 1e-9

    def test_iterative_matches_dense(self, monkeypatch):
        # force the iterative path on a dim-200 random-coupling operator; a
        # periodic one, since a tridiagonal operator never goes iterative
        H = random_coupling_hamiltonian(L=25, n=8, bc=PERIODIC)
        assert H.num_dof == 200
        de = lowest_eigenvalues(H, 4)
        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 100)
        it = lowest_eigenvalues(H, 4)
        assert it.method == "iterative" and de.method == "dense"
        assert np.allclose(it.energies, de.energies, atol=1e-8)

    def test_lanczos_start_vector_repeats(self, monkeypatch):
        # shift-invert Lanczos starts from the Philox stream keyed on START_KEY,
        # the same vector on every call, so an iterative solve repeats bit for bit
        import scipy.sparse.linalg as spla

        starts, eigsh = [], spla.eigsh
        monkeypatch.setattr(spla, "eigsh",
                            lambda *a, **kw: starts.append(kw["v0"]) or eigsh(*a, **kw))
        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 100)
        H = random_coupling_hamiltonian(L=25, n=8, bc=PERIODIC)
        first, second = lowest_eigenvalues(H, 3), lowest_eigenvalues(H, 3)
        key = np.array(spectral.START_KEY, dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        assert len(starts) == 2
        assert np.array_equal(starts[0], 2.0 * gen.random(H.num_dof) - 1.0)
        assert starts[0].tobytes() == starts[1].tobytes()
        assert first.energies.tobytes() == second.energies.tobytes()
        assert first.vectors.tobytes() == second.vectors.tobytes()

    def test_tridiagonal_above_threshold(self):
        # N = 2560 > DENSE_THRESHOLD: still multisection, no shift-invert Lanczos
        H = assemble(free_model(), GridSpec(L=40, n=64), DIRICHLET)
        assert H.num_dof > spectral.DENSE_THRESHOLD
        res = lowest_eigenvalues(H, 4)
        N, h = 2560, 1.0 / 64
        oracle = (4 / h**2) * np.sin(np.arange(1, 5) * np.pi / (2 * N)) ** 2
        assert res.method == "tridiagonal"
        assert np.allclose(res.energies, oracle, atol=1e-10 * 64**2)

    def test_residuals_reported(self):
        H = random_coupling_hamiltonian()
        res = lowest_eigenvalues(H, 3)
        assert np.all(res.residuals <= 1e-9 * (1 + np.abs(res.energies)))

    @pytest.mark.parametrize("threshold", [2000, 100])
    def test_vectors_are_the_checked_eigenvectors(self, threshold, monkeypatch):
        # tridiagonal, or iterative: a periodic box above the threshold
        H = random_coupling_hamiltonian(bc=DIRICHLET if threshold == 2000 else PERIODIC)
        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", threshold)
        res = lowest_eigenvalues(H, 3)
        assert res.method == ("tridiagonal" if threshold == 2000 else "iterative")
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
                        assert H.box.tridiagonal
                        res = lowest_eigenvalues(H, 4)
                        w = linalg.eigh(H.to_dense(), eigvals_only=True,
                                        subset_by_index=(0, 3))
                        assert np.allclose(res.energies, w, rtol=0.0,
                                           atol=1e-12 * (1.0 + np.abs(w).max()))


class TestGuardedRaises:
    """The engine's own failure exits, reached by stubbing the step that fails."""

    def test_arpack_stall_carries_best_iterate(self, monkeypatch):
        import scipy.sparse.linalg as spla

        H = random_coupling_hamiltonian(L=25, n=8, bc=PERIODIC)
        best = (np.array([0.5, 0.7]), np.ones((H.num_dof, 2)))

        def stall(*args, **kwargs):
            raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", *best)

        monkeypatch.setattr(spla, "eigsh", stall)
        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 100)
        with pytest.raises(ConvergenceError, match="stalled after max iterations") as err:
            lowest_eigenvalues(H, 2)
        assert err.value.best[0] is best[0] and err.value.best[1] is best[1]

    def test_residual_past_tolerance_raises(self, monkeypatch):
        # eigenvectors knocked off their levels fail the residual check
        H = random_coupling_hamiltonian(L=8, n=8)
        iterate = spectral._inverse_iteration
        monkeypatch.setattr(spectral, "_inverse_iteration",
                            lambda off, rows, w: iterate(off, rows, w) + 1e-3)
        with pytest.raises(ConvergenceError, match="exceed the residual tolerance") as err:
            lowest_eigenvalues(H, 3)
        w, v, resid = err.value.best
        assert w.shape == (3,) and v.shape == (H.num_dof, 3) and np.all(resid > 1e-6)

    def test_eight_failed_nudges_raise(self, monkeypatch):
        # a sweep that reports every pair near a zero pivot is retried eight
        # times, then given up
        calls = []
        sweep = spectral._sturm_counts

        def never_ok(off, read, which, e):
            calls.append(e.shape)
            counts, ok = sweep(off, read, which, e)
            return counts, np.zeros_like(ok)

        monkeypatch.setattr(spectral, "_sturm_counts", never_ok)
        with pytest.raises(NumericalError, match="near-zero pivots near E=2.0"):
            count_below(random_coupling_hamiltonian(L=8, n=8), 2.0)
        assert len(calls) == 9


class TestCountBelow:
    def test_below_lowest_is_zero(self):
        H = random_coupling_hamiltonian(seed=1)
        e1 = lowest_eigenvalues(H, 1).energies[0]
        assert count_below(H, e1 - 1e-6) == 0

    def test_above_gershgorin_is_dim(self):
        H = random_coupling_hamiltonian(seed=2)
        A = H.matrix
        upper = float((A.diagonal() + np.asarray(np.abs(A).sum(axis=1)).ravel()).max())
        assert count_below(H, upper + 1.0) == H.num_dof

    def test_dense_oracle_50_random_instances(self):
        # inertia counts equal dense-eigensolve counts, exactly
        rng = np.random.default_rng(42)
        for trial in range(50):
            N = int(rng.integers(20, 120))
            B = rng.normal(size=(N, N))
            A = (B + B.T) / 2
            w = np.sort(linalg.eigvalsh(A))
            E = float(rng.normal(scale=np.abs(w).max()))
            got = count_below(sps.csr_matrix(A), E)
            assert got == int(np.sum(w <= E))

    def test_tridiagonal_path_matches_dense(self):
        H = random_coupling_hamiltonian(seed=4)
        w = np.sort(linalg.eigvalsh(H.to_dense()))
        for E in np.linspace(0, float(w.max()), 9):
            assert count_below(H, E) == int(np.sum(w <= E))

    def test_sparse_path_matches_dense(self):
        # periodic corners break the tridiagonal structure, driving the
        # generic factorization path
        model, _ = prepare_model(free_model(), 8)
        H = assemble(model, GridSpec(L=30, n=8), PERIODIC,
                     couplings=np.random.default_rng(9).uniform(1, 2, 30))
        w = np.sort(linalg.eigvalsh(H.to_dense()))
        for E in np.linspace(0.1, 50.0, 7):
            got = count_below(H, E)
            assert got == int(np.sum(w <= E))

    def test_jump_by_multiplicity(self):
        # free periodic spectrum has degenerate pairs; the count jumps by 2
        H = assemble(free_model(), GridSpec(L=4, n=8), PERIODIC)
        w = np.sort(linalg.eigvalsh(H.to_dense()))
        e2 = w[1]
        assert np.isclose(w[1], w[2])
        below = count_below(H, e2 - 1e-8)
        above = count_below(H, e2 + 1e-8)
        assert above - below == 2

    def test_degenerate_level_falls_back_to_dense(self, monkeypatch):
        # the unpivoted sparse factorization breaks down next to the doubly
        # degenerate periodic level; the eigenvalue count takes over at that energy
        calls = []
        dense_inertia = spectral._dense_inertia

        def spy(A, pivot_tol):
            calls.append(pivot_tol)
            return dense_inertia(A, pivot_tol)

        monkeypatch.setattr(spectral, "_dense_inertia", spy)
        H = assemble(free_model(), GridSpec(L=4, n=8), PERIODIC)
        w = np.sort(linalg.eigvalsh(H.to_dense()))
        for E in (w[1] - 1e-8, w[1] + 1e-8):
            assert count_below(H, E) == int(np.sum(w <= E))
        assert len(calls) >= 1

    def test_d2_breather_counts_sparse_only(self, monkeypatch):
        # a mid-sized d = 2 operator (N = 1024), as a bare matrix, counts on
        # sparse LDL^T alone
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
        lams = np.random.default_rng(5).uniform(1.0, 2.0, size=16)
        H = assemble(model, GridSpec(L=4, n=8, d=2), DIRICHLET, couplings=lams)
        assert H.num_dof == 1024
        w = np.sort(linalg.eigvalsh(H.to_dense()))
        for E in (0.5, 2.0, 8.0, 50.0, float(w[40] + w[41]) / 2):
            assert count_below(H.matrix, E) == int(np.sum(w <= E))

    def test_count_at_exact_eigenvalue_includes_it(self):
        # diagonal matrix with an eigenvalue exactly at E: the perturb policy
        # counts it (E_n <= E)
        A = sps.csr_matrix(np.diag([0.0, 1.0, 1.0, 2.0]))
        assert count_below(A, 1.0) == 3
        assert count_below(A, 0.0) == 1

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        B = rng.normal(size=(40, 40))
        A = (B + B.T) / 2
        perm = rng.permutation(40)
        P = np.eye(40)[perm]
        for E in (-2.0, 0.0, 2.0):
            c1 = count_below(sps.csr_matrix(A), E)
            c2 = count_below(sps.csr_matrix(P @ A @ P.T), E)
            assert c1 == c2

    def test_counts_nondecreasing_in_energy(self):
        H = random_coupling_hamiltonian(seed=6)
        energies = np.linspace(-1, 60, 25)
        counts = [count_below(H, E) for E in energies]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_count_above_returned_eigenvalues(self):
        H = random_coupling_hamiltonian(seed=7)
        res = lowest_eigenvalues(H, 5)
        c = count_below(H, float(res.energies[-1]) + 1e-8)
        assert c >= 5

    def test_batched_tridiag(self):
        # each row of a batch is counted as its own operator, over an energy grid
        H = random_coupling_hamiltonian(L=4, n=8)
        rng = np.random.default_rng(13)
        diag = rng.uniform(100.0, 400.0, size=(7, H.num_dof))
        energies = np.array([150.0, 250.0, 350.0])
        counts = count_below(replace(H, diag=diag), energies)
        assert counts.shape == (7, 3)
        for b in range(7):
            A = H.to_dense()
            np.fill_diagonal(A, diag[b])
            w = linalg.eigvalsh(A)
            assert list(counts[b]) == [int(np.sum(w <= E)) for E in energies]


def bare_d2_model():
    return ModelSpec(
        d=2,
        vper=PeriodicPotentialSpec(kind="zero"),
        site=SingleSiteSpec(kind="breather", amplitude=1.0, radius=0.4, lambda_minus=1.0,
                            lambda_plus=2.0, standardized=True),
        dist=DistributionSpec(kind="uniform", lambda_minus=1.0, lambda_plus=2.0),
    )


class TestOneEngine:
    @pytest.mark.parametrize("bc,n,E", [(NEUMANN, 4, 48.0), (DIRICHLET, 4, 80.0),
                                        (NEUMANN, 8, 192.0), (DIRICHLET, 8, 320.0)])
    def test_zero_diagonal_entry_counts_right(self, bc, n, E):
        # E equals a diagonal entry of the bare d = 2 kinetic part, so H - E has
        # exact zeros there and SuperLU (the bare matrix's path) pivots off the
        # diagonal; those signs are not the inertia, and the eigenvalue count
        # takes over
        H = assemble(bare_d2_model(), GridSpec(L=2, n=n, d=2), bc)
        assert E in H.matrix.diagonal()
        w = linalg.eigvalsh(H.to_dense())
        assert np.abs(w - E).min() > 1.0
        assert count_below(H.matrix, E) == int(np.sum(w <= E))

    @pytest.mark.parametrize("E", [256.0 + 1e-9, 256.0 + 1e-8])
    def test_pivot_growth_next_to_degenerate_level(self, monkeypatch, E):
        # the bare d = 2 Neumann operator has a 15-fold level at 256: just above
        # it SuperLU's U grows ~1e10-1e11 times max|A| and its signs miscount
        # (144 and 145); the growth check hands the count of the bare matrix to
        # the eigenvalue count
        calls = []
        dense_inertia = spectral._dense_inertia

        def spy(A, pivot_tol):
            calls.append(pivot_tol)
            return dense_inertia(A, pivot_tol)

        monkeypatch.setattr(spectral, "_dense_inertia", spy)
        H = assemble(bare_d2_model(), GridSpec(L=2, n=8, d=2), NEUMANN)
        w = linalg.eigvalsh(H.to_dense())
        assert np.sum(np.abs(w - 256.0) < 1e-9) == 15
        assert count_below(H.matrix, E) == int(np.sum(w <= E)) == 151
        assert calls

    def test_zero_diagonal_entry_small_matrix(self):
        A = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.5], [0.0, 0.5, 5.0]])
        assert count_below(sps.csr_matrix(A), 1.0) == int(np.sum(linalg.eigvalsh(A) <= 1.0)) == 1

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @example(seed=1, d=1, L=3, bc=PERIODIC, B=2, degenerate=True, n=4)
    @example(seed=2, d=2, L=2, bc=PERIODIC, B=1, degenerate=True, n=4)
    @example(seed=3, d=3, L=2, bc=DIRICHLET, B=3, degenerate=False, n=4)
    @example(seed=4, d=3, L=2, bc=NEUMANN, B=2, degenerate=True, n=4)
    @example(seed=5, d=2, L=8, bc=DIRICHLET, B=3, degenerate=False, n=4)
    @example(seed=6, d=2, L=8, bc=NEUMANN, B=1, degenerate=True, n=4)
    @example(seed=7, d=2, L=1, bc=DIRICHLET, B=3, degenerate=False, n=5)
    @example(seed=8, d=2, L=3, bc=NEUMANN, B=2, degenerate=True, n=5)
    @example(seed=9, d=2, L=3, bc=DIRICHLET, B=2, degenerate=False, n=5)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3]), L=st.integers(2, 8),
           bc=st.sampled_from([DIRICHLET, NEUMANN, PERIODIC]), B=st.integers(1, 4),
           degenerate=st.booleans(), n=st.just(4))
    def test_three_paths_agree(self, seed, d, L, bc, B, degenerate, n):
        # a batch (Sturm at d = 1 and the red-black line kernel at d = 2, both
        # under D and N, odd points per axis too; sparse LDL^T otherwise) counts each of its
        # operators as that operator alone does, and as its sparse (SuperLU
        # LDL^T) and dense (eigenvalue count) matrices do; counts equal
        # eigvalsh away from the spectrum; some energies sit exactly on a
        # diagonal entry.  A degenerate batch repeats the bare operator, whose
        # periodic and d >= 2 spectra hold multiple levels, and adds energies
        # 1e-9 below and above its most degenerate level
        rng = np.random.default_rng(seed)
        grid = GridSpec(L=L if d < 3 else 1, n=n, d=d)  # lines of 5-32 points at d = 2
        box = skeleton(replace(free_model(), d=d), grid, bc)
        H = box.hamiltonian()
        shift = 0.0 if degenerate else rng.uniform(-20.0, 20.0, size=(B, H.num_dof))
        rows = np.broadcast_to(box.diagonal(box.vper) + shift, (B, H.num_dof)).copy()
        energies = np.r_[rng.uniform(rows.min() - 10.0, rows.max() + 10.0, 3),
                         rng.choice(rows.ravel(), 3)]
        if degenerate:
            w = linalg.eigvalsh(H.to_dense())
            mult = (np.abs(w[:, None] - w) < 1e-9).sum(axis=0)
            level = w[np.argmax(mult)]
            assert mult.max() >= 2 or (d == 1 and bc is not PERIODIC)
            near = [level - 1e-9, level + 1e-9]
            energies = np.r_[energies, near]
        energies = np.sort(energies)
        counts = count_below(replace(H, diag=rows), energies)
        assert counts.shape == (B, energies.size)
        for b in range(B):
            alone = replace(H, diag=rows[b])
            assert np.array_equal(count_below(alone, energies), counts[b])
            assert np.array_equal(count_below(alone.matrix, energies), counts[b])
            assert np.array_equal(count_below(alone.to_dense(), energies), counts[b])
            w = linalg.eigvalsh(alone.to_dense())
            far = np.abs(w[:, None] - energies).min(axis=0) >= 5e-10
            assert np.array_equal(counts[b][far], (w[:, None] <= energies).sum(axis=0)[far])
            if degenerate:  # the near-level counts are compared and differ by the multiplicity
                at = np.searchsorted(energies, near)
                assert far[at].all() and counts[b][at[1]] - counts[b][at[0]] == mult.max()

    def test_forced_breakdown_counts_by_eigenvalues(self, monkeypatch):
        # sparse LDL^T reports a breakdown on every pair of the bare matrices of
        # a d = 2 batch: the eigenvalue count takes each pair at its own energy,
        # with the same counts
        rng = np.random.default_rng(41)
        box = skeleton(bare_d2_model(), GridSpec(L=3, n=4, d=2), NEUMANN)
        rows = box.diagonal(box.vper) + rng.uniform(-20.0, 20.0, size=(3, box.grid.num_dof))
        H = replace(box.hamiltonian(), diag=rows)
        energies = np.sort(rng.uniform(rows.min(), rows.max(), 5))
        unforced = count_below(H, energies)
        assert unforced.min() < unforced.max()
        calls = []
        dense_inertia = spectral._dense_inertia

        def spy(A, pivot_tol):
            calls.append(pivot_tol)
            return dense_inertia(A, pivot_tol)

        monkeypatch.setattr(spectral, "_sparse_inertia", lambda A, pivot_tol: (0, False))
        monkeypatch.setattr(spectral, "_dense_inertia", spy)
        for b, row in enumerate(rows):
            assert np.array_equal(count_below(replace(H, diag=row).matrix, energies), unforced[b])
        assert len(calls) == unforced.size


class TestLineKernel:
    """d = 2 boxes that are not periodic count by block LDL^T on the black
    half of the grid, one anti-diagonal a step (``spectral._line_counts``);
    the twins of the SuperLU tests above."""

    def check_edges(self, monkeypatch, b, base, dense, count):
        # operators of b x b points with diagonals around ``base``, counted by
        # ``count(rows, energies)``: energies across the spectrum and on a red
        # and a black diagonal entry of operator 0, at a corner and inside;
        # each count equals eigvalsh's on ``dense(row)``, and only pairs on a
        # diagonal entry may be recounted
        rng = np.random.default_rng(b)
        rows = base + rng.uniform(-20.0, 20.0, size=(3, b * b))
        w = np.array([linalg.eigvalsh(dense(row)) for row in rows])
        on_entry = rows[0, [1, b * b - 2, 0, (b // 2) * (b + 1)]]  # red, red, black, black
        energies = np.r_[np.sort(rng.uniform(w.min() - 1.0, w.max() + 1.0, 5)), on_entry]
        assert np.abs(w[:, :, None] - energies).min() > 1e-6
        recounted, factor_counts = [], spectral._factor_counts

        def spy(A, read, which, e):
            recounted.extend(zip(which.tolist(), e[0].tolist()))
            return factor_counts(A, read, which, e)

        monkeypatch.setattr(spectral, "_factor_counts", spy)
        assert np.array_equal(count(rows, energies), (w[:, :, None] <= energies).sum(axis=1))
        assert all(r == 0 and np.abs(E - on_entry).min() < 1e-9 for r, E in recounted)

    @pytest.mark.parametrize("b", range(4, 18))
    def test_anti_diagonal_edges(self, monkeypatch, b):
        # b = 4 ... 17 points a side, one cell: an even b's largest block is
        # b - 1, an odd b's b, and from b = 9 on they pass LEAF; the
        # Mezincescu condition sees a V_per, so its faces differ from Neumann's
        model, gs = prepare_model(replace(bare_d2_model(), vper=PeriodicPotentialSpec(
            kind="cosine-sum", amplitudes=(0.5, 0.5))), b)
        grid = GridSpec(L=1, n=b, d=2)
        for bc in (DIRICHLET, NEUMANN, mezincescu_correction(gs, grid)):
            box = skeleton(model, grid, bc)
            H = box.hamiltonian()
            self.check_edges(monkeypatch, b, box.diagonal(box.vper),
                             lambda row: replace(H, diag=row).to_dense(),
                             lambda rows, E: count_below(replace(H, diag=rows), E))

    @pytest.mark.parametrize("b", [2, 3])
    def test_boxes_below_a_cell(self, monkeypatch, b):
        # b = 2 and 3, below a cell's 4 points: the kernel alone, on a
        # stand-in box with the coupling of n = 4
        c, path = -16.0, np.eye(b, k=1) + np.eye(b, k=-1)
        off = c * (np.kron(path, np.eye(b)) + np.kron(np.eye(b), path))
        box = SimpleNamespace(grid=SimpleNamespace(points_per_axis=b), coupling=c,
                              stencil=sps.csr_matrix(off + np.eye(b * b)))

        def count(rows, energies):
            cols = np.ascontiguousarray(rows.T)
            got, ok = spectral._line_counts(
                box, lambda i, j, which: cols[i:j] if which is None else cols[i:j, which], None,
                np.repeat(energies[:, None], rows.shape[0], axis=1))
            assert ok.all()
            return got.T

        self.check_edges(monkeypatch, b, np.full(b * b, -4.0 * c),
                         lambda row: off + np.diag(row), count)

    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
    @pytest.mark.parametrize("L", [1, 3])
    def test_odd_points_per_axis(self, bc, L):
        # n = 5: lines of 5 and 15 points, whose largest anti-diagonal block
        # is a whole line
        box = skeleton(bare_d2_model(), GridSpec(L=L, n=5, d=2), bc)
        rng = np.random.default_rng(L)
        rows = box.diagonal(box.vper) + rng.uniform(-20.0, 20.0, size=(3, box.grid.num_dof))
        energies = np.sort(rng.uniform(rows.min() - 50.0, rows.max() + 50.0, 7))
        counts = count_below(replace(box.hamiltonian(), diag=rows), energies)
        for b, row in enumerate(rows):
            w = linalg.eigvalsh(replace(box.hamiltonian(), diag=row).to_dense())
            assert np.abs(w[:, None] - energies).min() > 1e-6
            assert np.array_equal(counts[b], (w[:, None] <= energies).sum(axis=0))

    @pytest.mark.parametrize("superlu_breaks", [False, True])
    def test_energy_on_a_red_diagonal_entry(self, monkeypatch, superlu_breaks):
        # E equals the diagonal at a red point (i + j odd): its pivot a_r is an
        # exact zero, so the pair is flagged and recounted by SuperLU at E;
        # where SuperLU breaks down there too, the pair is nudged above E and
        # counted right
        box = skeleton(bare_d2_model(), GridSpec(L=2, n=4, d=2), NEUMANN)
        b = box.grid.points_per_axis
        row = box.diagonal(box.vper) + np.random.default_rng(5).uniform(-20.0, 20.0,
                                                                         box.grid.num_dof)
        E = row[1 * b + 2]  # line 1, position 2
        w = linalg.eigvalsh(replace(box.hamiltonian(), diag=row).to_dense())
        assert np.abs(w - E).min() > 1e-6
        recounted, factor_counts = [], spectral._factor_counts

        def spy(A, read, which, e):
            recounted.extend(e[0].tolist())
            got, good = factor_counts(A, read, which, e)
            return got, good & ~(superlu_breaks & (e == E))

        monkeypatch.setattr(spectral, "_factor_counts", spy)
        assert count_below(replace(box.hamiltonian(), diag=row), [E]) == int(np.sum(w <= E))
        assert recounted[0] == E and len(recounted) == 1 + superlu_breaks
        assert all(E < nudged < E + 1e-9 for nudged in recounted[1:])

    @pytest.mark.parametrize("bc,n,E", [(NEUMANN, 4, 48.0), (DIRICHLET, 4, 80.0),
                                        (NEUMANN, 8, 192.0), (DIRICHLET, 8, 320.0)])
    def test_zero_diagonal_entry_counts_right(self, bc, n, E):
        # E equals a diagonal entry of the bare d = 2 kinetic part: a leaf meets
        # an exact zero pivot there
        H = assemble(bare_d2_model(), GridSpec(L=2, n=n, d=2), bc)
        assert E in H.diag
        w = linalg.eigvalsh(H.to_dense())
        assert np.abs(w - E).min() > 1.0
        assert count_below(H, E) == int(np.sum(w <= E))

    @pytest.mark.parametrize("E", [256.0 + 1e-9, 256.0 + 1e-8])
    def test_next_to_degenerate_level(self, E):
        # just above the 15-fold level at 256 of the bare d = 2 Neumann operator
        H = assemble(bare_d2_model(), GridSpec(L=2, n=8, d=2), NEUMANN)
        w = linalg.eigvalsh(H.to_dense())
        assert np.sum(np.abs(w - 256.0) < 1e-9) == 15
        assert count_below(H, E) == int(np.sum(w <= E)) == 151

    def test_forced_flag_recounts_each_pair_by_superlu(self, monkeypatch):
        # a probe tolerance that no inverse meets flags every pair of a d = 2
        # batch: _factor_counts recounts each pair at its own energy, with the
        # same counts
        rng = np.random.default_rng(41)
        box = skeleton(bare_d2_model(), GridSpec(L=3, n=4, d=2), NEUMANN)
        rows = box.diagonal(box.vper) + rng.uniform(-20.0, 20.0, size=(3, box.grid.num_dof))
        H = replace(box.hamiltonian(), diag=rows)
        energies = np.sort(rng.uniform(rows.min(), rows.max(), 5))
        unforced = count_below(H, energies)
        assert unforced.min() < unforced.max()
        recounted, factor_counts = [], spectral._factor_counts

        def spy(A, read, which, e):
            recounted.extend(zip(which.tolist(), e[0].tolist()))
            return factor_counts(A, read, which, e)

        monkeypatch.setattr(spectral, "_factor_counts", spy)
        monkeypatch.setattr(spectral, "PROBE_TOL", -1.0)
        assert np.array_equal(count_below(H, energies), unforced)
        assert sorted(recounted) == sorted((b, E) for b in range(3) for E in energies)

    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
    def test_vouches_for_nearly_every_pair(self, monkeypatch, bc):
        # lines of 64 points (the bench's L = 8 box) and energies across the
        # whole spectrum: the Newton-Schulz step keeps the probe residuals
        # small, so at most 1 of the 72 pairs is recounted (without it about a
        # fifth are), and every count equals SuperLU's on the bare matrix
        box = skeleton(bare_d2_model(), GridSpec(L=8, n=8, d=2), bc)
        rng = np.random.default_rng(64)
        rows = box.diagonal(box.vper) + rng.uniform(-20.0, 20.0, size=(12, box.grid.num_dof))
        energies = np.sort(rng.uniform(rows.min() - 256.0, rows.max() + 256.0, 6))
        recounted, factor_counts = [], spectral._factor_counts
        monkeypatch.setattr(spectral, "_factor_counts",
                            lambda A, read, which, e: recounted.append(e.size)
                            or factor_counts(A, read, which, e))
        counts = count_below(replace(box.hamiltonian(), diag=rows), energies)
        assert sum(recounted) <= 1
        monkeypatch.setattr(spectral, "_factor_counts", factor_counts)
        for b, row in enumerate(rows):
            assert np.array_equal(count_below(replace(box.hamiltonian(), diag=row).matrix,
                                              energies), counts[b])

    def test_scipy_loads_only_for_flagged_pairs(self):
        # the kernel and the products it is checked with run on NumPy alone;
        # the recount of a flagged pair is the first use of SciPy
        src = str(Path(spectral.__file__).resolve().parents[1])
        probe = (
            "import sys; import numpy as np; from breatherlab import spectral; "
            "from breatherlab.lattice import NEUMANN, GridSpec, skeleton; "
            "from breatherlab.model import ModelSpec, PeriodicPotentialSpec, SingleSiteSpec, "
            "DistributionSpec; "
            "site = SingleSiteSpec(kind='breather', amplitude=1.0, radius=0.4, "
            "lambda_minus=1.0, lambda_plus=2.0, standardized=True); "
            "model = ModelSpec(d=2, vper=PeriodicPotentialSpec(kind='zero'), site=site, "
            "dist=DistributionSpec(kind='uniform', lambda_minus=1.0, lambda_plus=2.0)); "
            "box = skeleton(model, GridSpec(L=3, n=4, d=2), NEUMANN); "
            "H = box.hamiltonian(np.linspace(-20.0, 20.0, box.grid.num_dof)); "
            "H.to_dense(); H @ np.ones(box.grid.num_dof); "
            "plain = spectral.count_below(H, [10.0, 200.0]); "
            "before = 'scipy' in sys.modules; spectral.PROBE_TOL = -1.0; "
            "forced = spectral.count_below(H, [10.0, 200.0]); "
            "print(before, 'scipy' in sys.modules, (plain == forced).all())")
        run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert run.stdout.split() == ["False", "True", "True"]

    def test_bench_block_holds_under_four_stacks(self, monkeypatch):
        # the count_below call of the L = 8 block of bench/configs/ids_2d.json
        # at its seed, 72 pairs at b = 64: the kernel holds about three
        # (P, 63, 63) stacks, its largest anti-diagonal block, for its largest
        # pair group (3.3 of them), so a fourth one held at once fails this bound
        from breatherlab import cli, ids

        cfg = cli.load_config(str(Path(__file__).resolve().parents[1] / "bench" / "configs"
                                  / "ids_2d.json"), command="ids")
        prepared, gs = cli._prepare(cfg, cli.build_model(cfg))
        M = cfg["experiment"]["samples"]
        args = (prepared, GridSpec(L=8, n=gs.n, d=2), gs, cli.energies_from(
            cfg["experiment"]["energies"]), cfg["experiment"]["seed"],
            ids.stream_indices("realization", 0, M))
        ids._count_block(args)  # first-call allocations outside the trace
        stacks, peaks, invert = [], [], spectral._invert

        def traced(H, E):
            tracemalloc.start()
            try:
                counts = count_below(H, E)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return counts

        monkeypatch.setattr(ids, "count_below", traced)
        monkeypatch.setattr(spectral, "_invert", lambda S, pivots, out, scratch:
                            stacks.append(S.shape) or invert(S, pivots, out, scratch))
        counts = ids._count_block(args)
        assert sum(c.size for c in counts.values()) == 72
        P, b = max(stacks)[:2]
        assert b == 63 and P < 72
        assert peaks[0] <= 3.5 * P * b * b * 8

    def test_bench_blocks_need_no_recount(self, monkeypatch):
        # both blocks of bench/configs/ids_2d.json, at its seed and at seeds
        # 0-3: the kernel vouches for every pair, so SuperLU is never called
        from breatherlab import cli, ids

        cfg = cli.load_config(str(Path(__file__).resolve().parents[1] / "bench" / "configs"
                                  / "ids_2d.json"), command="ids")
        prepared, gs = cli._prepare(cfg, cli.build_model(cfg))
        experiment, recounted, factor_counts = cfg["experiment"], [], spectral._factor_counts
        monkeypatch.setattr(spectral, "_factor_counts",
                            lambda A, read, which, e: recounted.append(e.size)
                            or factor_counts(A, read, which, e))
        for seed in (experiment["seed"], 0, 1, 2, 3):
            for L in cfg["grid"]["L"]:
                counts = ids._count_block((prepared, GridSpec(L=L, n=gs.n, d=2), gs,
                                           cli.energies_from(experiment["energies"]), seed,
                                           ids.stream_indices("realization", 0,
                                                              experiment["samples"])))
                assert sum(c.size for c in counts.values()) == 72
        assert recounted == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="minor faults as Linux counts them")
    def test_bench_block_reuses_its_workspace(self):
        # the count_below call of the same L = 8 block, in a fresh process that
        # has run no kernel before: one workspace serves every pair group and
        # block step, where fresh stacks per step took ~37 000 minor page
        # faults (malloc hands them back and faults them in again)
        pytest.importorskip("resource")
        src = str(Path(spectral.__file__).resolve().parents[1])
        config = Path(__file__).resolve().parents[1] / "bench" / "configs" / "ids_2d.json"
        probe = (
            "import resource, sys; from breatherlab import cli, ids; "
            "from breatherlab.lattice import GridSpec; "
            "cfg = cli.load_config(sys.argv[1], command='ids'); "
            "prepared, gs = cli._prepare(cfg, cli.build_model(cfg)); "
            "M, count, faults = cfg['experiment']['samples'], ids.count_below, []; "
            "flt = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
            "ids.count_below = lambda H, E: faults.append(-flt()) or (count(H, E), "
            "faults.append(flt()))[0]; "
            "ids._count_block((prepared, GridSpec(L=8, n=gs.n, d=2), gs, cli.energies_from("
            "cfg['experiment']['energies']), cfg['experiment']['seed'], "
            "ids.stream_indices('realization', 0, M))); "
            "print(sum(faults))")
        run = subprocess.run([sys.executable, "-c", probe, str(config)], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert int(run.stdout) < 5000

    def test_pairs_are_counted_under_the_stack_cap(self):
        # 2 400 (diagonal, energy) pairs: memory is bounded by STACK_VALUES
        # doubles however many pairs a call counts, which is what the
        # "2 * experiment.samples * box points" rule of the CLI relies on
        box = skeleton(bare_d2_model(), GridSpec(L=3, n=8, d=2), DIRICHLET)
        rows = box.diagonal(box.vper) + np.random.default_rng(2).uniform(
            0.0, 50.0, size=(400, box.grid.num_dof))
        H = replace(box.hamiltonian(), diag=rows)
        energies = np.linspace(10.0, 300.0, 6)
        count_below(H, energies[:1])  # first-call allocations outside the trace
        tracemalloc.start()
        try:
            counts = count_below(H, energies)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.size >= 2000
        assert 8 * spectral.STACK_VALUES / 2 < peak < 8 * spectral.STACK_VALUES


class TestPerOperatorGrid:
    """For a batch, a 2-D energy grid (B, K) is one grid per operator: row b of
    the counts is operator b counted alone on row b of the grid."""

    @pytest.mark.parametrize("d,bc", [(1, DIRICHLET), (1, NEUMANN), (2, DIRICHLET)])
    def test_rows_are_single_operator_calls(self, d, bc):
        # d = 1 runs the Sturm sweep, d = 2 the factorization path
        rng = np.random.default_rng(70 + d)
        box = skeleton(bare_d2_model() if d == 2 else free_model(), GridSpec(L=3, n=4, d=d), bc)
        assert box.tridiagonal == (d == 1)
        rows = box.diagonal(box.vper) + rng.uniform(-20.0, 20.0, size=(5, box.grid.num_dof))
        grid = rng.uniform(rows.min(), rows.max(), size=(5, 4))
        grid[:, 0] = rows[:, 0]  # on a diagonal entry of its own operator
        counts = count_below(replace(box.hamiltonian(), diag=rows), grid)
        assert counts.shape == (5, 4) and counts.dtype.kind == "i"
        for b in range(5):
            assert np.array_equal(count_below(replace(box.hamiltonian(), diag=rows[b]), grid[b]),
                                  counts[b])

    def test_grid_rows_must_match_operators(self):
        H = random_coupling_hamiltonian(L=4, n=8)
        with pytest.raises(ValueError, match="broadcast"):
            count_below(replace(H, diag=np.zeros((2, H.num_dof))), np.zeros((3, 4)))


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
        # one energy gives one integer; a grid and a batch add axes, a batch of
        # one too
        H = random_coupling_hamiltonian(seed=8)
        one = count_below(H, 5.0)
        assert isinstance(one, np.integer)
        grid = count_below(H, [5.0, 50.0])
        assert grid.shape == (2,) and grid[0] == one
        batch = replace(H, diag=np.stack([H.matrix.diagonal()] * 3))
        assert count_below(batch, [5.0, 50.0]).tolist() == [grid.tolist()] * 3
        assert count_below(batch, 5.0).tolist() == [one] * 3
        assert count_below(replace(H, diag=H.diag[None, :]), 5.0).tolist() == [one]


def lapack_agreement(box, rows, m):
    """Assert that the batched solve of ``rows`` on ``box`` gives LAPACK's m
    lowest eigenvalues of each operator to 1e-12 (1 + |E|), and that every
    returned pair is a checked eigenpair of its operator.  A batch of one
    keeps its batch axis in both entry points."""
    res = lowest_eigenvalues(DiscreteHamiltonian(box=box, diag=rows), m)
    assert res.energies.shape == res.residuals.shape == (len(rows), m)
    assert res.vectors.shape == (len(rows), box.grid.num_dof, m)
    first = DiscreteHamiltonian(box=box, diag=rows[:1])
    assert lowest_eigenvalues(first, m).energies.shape == (1, m)
    assert count_below(first, res.energies[0]).shape == (1, m)
    for b, row in enumerate(rows):
        w = linalg.eigh_tridiagonal(row, box.off, eigvals_only=True, select="i",
                                    select_range=(0, m - 1))
        assert np.all(np.abs(res.energies[b] - w) <= 1e-12 * (1.0 + np.abs(w)))
        H = DiscreteHamiltonian(box=box, diag=row)
        for j in range(m):
            v, E = res.vectors[b, :, j], res.energies[b, j]
            assert np.linalg.norm(H.matrix @ v - E * v) == res.residuals[b, j]
            assert res.residuals[b, j] <= spectral.EIG_TOL * (1.0 + abs(E))
        assert np.allclose(res.vectors[b].T @ res.vectors[b], np.eye(m), atol=1e-10)


class TestBatchedEigensolver:
    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), B=st.integers(1, 50), m=st.integers(1, 4),
           L=st.integers(1, 12), n=st.sampled_from([4, 8, 16]),
           bc=st.sampled_from([DIRICHLET, NEUMANN]), wells=st.booleans())
    def test_matches_lapack(self, seed, B, m, L, n, bc, wells):
        # random diagonals, or two equal wells behind a high barrier, whose
        # two lowest levels split by far less than the other gaps
        rng = np.random.default_rng(seed)
        box = skeleton(free_model(), GridSpec(L=max(L, 2 if wells else 1), n=n), bc)
        N = box.grid.num_dof
        if wells:  # mirror images of each other
            potential = np.full(N, 64.0 * n * n)
            width = max(2, N // 8)
            potential[width:2 * width] = potential[N - 2 * width:N - width] = 0.0
            rows = box.diagonal(potential) + rng.uniform(0.0, 1.0, size=(B, 1))
        else:
            rows = box.diagonal(box.vper) + rng.uniform(0.0, 50.0, size=(B, N))
        lapack_agreement(box, rows, min(m, N))

    def test_a_dropped_level_fails_the_check(self, monkeypatch):
        # a solver that skips the second level still returns checked eigenpairs,
        # so only the comparison with LAPACK catches it
        levels = spectral._sturm_levels
        monkeypatch.setattr(spectral, "_sturm_levels",
                            lambda off, rows, m: np.delete(levels(off, rows, m + 1), 1, axis=1))
        box = skeleton(free_model(), GridSpec(L=4, n=8), DIRICHLET)
        rows = box.diagonal(box.vper) + np.random.default_rng(3).uniform(0.0, 50.0, (5, 32))
        with pytest.raises(AssertionError):
            lapack_agreement(box, rows, 3)

    def test_close_levels_get_orthogonal_vectors(self):
        # two equal wells far apart: E1 and E2 agree to rounding, and inverse
        # iteration alone returns two vectors of their plane that are not
        # orthogonal
        box = skeleton(free_model(), GridSpec(L=12, n=8), DIRICHLET)
        potential = np.full(96, 4000.0)
        potential[4:12] = potential[84:92] = 0.0
        rows = box.diagonal(potential)[None, :]
        res = lowest_eigenvalues(DiscreteHamiltonian(box=box, diag=rows), 2)
        assert res.energies[0, 1] - res.energies[0, 0] < 1e-10
        lapack_agreement(box, rows, 2)

    @pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN, PERIODIC])
    @pytest.mark.parametrize("d", [1, 2])
    def test_product_sums_in_matrix_order(self, bc, d):
        # H @ x equals the CSR product bit for bit, with and without SciPy
        model = free_model() if d == 1 else bare_d2_model()
        box = skeleton(model, GridSpec(L=3, n=4, d=d), bc)
        rng = np.random.default_rng(d)
        H = box.hamiltonian(rng.uniform(-5.0, 5.0, box.grid.num_dof))
        x = rng.normal(size=(box.grid.num_dof, 3))
        assert np.array_equal(H @ x, H.matrix @ x)
        assert np.array_equal(H @ x[:, 0], H.matrix @ x[:, 0])
        assert np.array_equal(H.to_dense(), H.matrix.toarray())

    @pytest.mark.parametrize("bc,d", [(DIRICHLET, 1), (PERIODIC, 1), (DIRICHLET, 2)])
    def test_batched_product_is_each_operators_own(self, bc, d):
        # a batch's H @ x equals, row by row, the product of that operator
        # alone bit for bit: for one x, one x per operator, and k columns each
        model = free_model() if d == 1 else bare_d2_model()
        box = skeleton(model, GridSpec(L=3, n=4, d=d), bc)
        N, B = box.grid.num_dof, 4
        rng = np.random.default_rng(10 + d)
        H = box.hamiltonian(rng.uniform(-5.0, 5.0, (B, N)))
        for x in (rng.normal(size=N), rng.normal(size=(B, N)), rng.normal(size=(B, N, 3))):
            y = H @ x
            assert y.shape == (B, N) + x.shape[2:]
            for b in range(B):
                alone, xb = replace(H, diag=H.diag[b]), x if x.ndim == 1 else x[b]
                assert np.array_equal(y[b], alone @ xb)
                assert np.array_equal(y[b], alone.matrix @ xb)

    def test_eigenpairs_do_not_depend_on_layout(self):
        # the same batch C-ordered and F-ordered gives the same bits
        box = skeleton(free_model(), GridSpec(L=6, n=8), DIRICHLET)
        rows = box.diagonal(box.vper) + np.random.default_rng(4).uniform(0.0, 50.0, (3, 48))
        c_res, f_res = (lowest_eigenvalues(DiscreteHamiltonian(box=box, diag=diag), 4)
                        for diag in (np.ascontiguousarray(rows), np.asfortranarray(rows)))
        for field in ("energies", "vectors", "residuals"):
            assert np.array_equal(getattr(c_res, field), getattr(f_res, field))


class TestEmptyBatch:
    """A batch of no operators gives empty results, shaped as for B operators."""

    CASES = [(1, DIRICHLET), (1, PERIODIC), (2, DIRICHLET)]

    @staticmethod
    def empty(d, bc):
        model = free_model() if d == 1 else bare_d2_model()
        box = skeleton(model, GridSpec(L=4, n=16 if d == 1 else 4, d=d), bc)
        return DiscreteHamiltonian(box=box, diag=np.empty((0, box.grid.num_dof)))

    @pytest.mark.parametrize("d,bc", CASES)
    def test_count_below(self, d, bc):
        H = self.empty(d, bc)
        assert count_below(H, 5.0).shape == (0,)
        assert count_below(H, [1.0, 5.0]).shape == (0, 2)
        assert count_below(H, np.empty((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize("d,bc", CASES)
    def test_lowest_eigenvalues(self, d, bc):
        H = self.empty(d, bc)
        res = lowest_eigenvalues(H, 3)
        assert res.energies.shape == res.residuals.shape == (0, 3)
        assert res.vectors.shape == (0, H.num_dof, 3)
