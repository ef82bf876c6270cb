"""IDS tests: seeded sampling, estimation, bracketing, exponent fits."""

import dataclasses
import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import linalg

from breatherlab import cli, ids, philox
from breatherlab.errors import STREAMS, DomainError, InputError, InsufficientDataError
from breatherlab.ids import (
    BOOT_RESAMPLES,
    BOOT_SEED,
    IDSCurve,
    _percentiles,
    bracketing_report,
    estimate_ids,
    fit_lifshitz,
    lower_tail_check,
    matched_box_curve,
    pool_size,
    sample_fields,
    stream_indices,
    synthetic_curve,
)
from breatherlab.lattice import (
    DIRICHLET,
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


def breather_model(dist_kind="uniform", atom=0.0, amp=1.0, d=1):
    if dist_kind == "uniform":
        dist = DistributionSpec(kind="uniform", lambda_minus=1.0, lambda_plus=2.0)
    else:
        dist = DistributionSpec(kind="two-point-plus-uniform", lambda_minus=1.0,
                                lambda_plus=2.0, atom_mass_at_min=atom)
    return ModelSpec(
        d=d,
        vper=PeriodicPotentialSpec(kind="zero"),
        site=SingleSiteSpec(kind="breather", amplitude=amp, radius=0.4,
                            lambda_minus=1.0, lambda_plus=2.0, standardized=True),
        dist=dist,
    )


@pytest.fixture(scope="module")
def prepped():
    return prepare_model(breather_model(), 16)


def bc_pair(gs, grid):
    """The boundary-condition pair every estimate counts under."""
    return [DIRICHLET, mezincescu_correction(gs, grid)]


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
        pytest.param(11, range(4100), 7, 1, id="two-rounds"),
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

    def test_temporaries_do_not_grow_with_samples(self):
        # the streams run a round of ROUND_BLOCKS blocks at a time, written into
        # the output in place: twice the realizations add only their fields and
        # their indices
        dist = DistributionSpec(kind="two-point-plus-uniform", lambda_minus=1.0,
                                lambda_plus=2.0, atom_mass_at_min=0.5)
        peaks = []
        for M in (20_000, 40_000):
            indices = np.arange(M)
            tracemalloc.start()
            try:
                sample_fields(dist, 808, indices, 8, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 1.1 * 20_000 * (8 + 1) * 8


# the (role, first slot, last slot) of every draw of one run, and the largest
# count a draw takes, within the configuration caps: box sides and samples are
# at most MAX_POINTS, energy points at most MAX_VALUES (samples * energies)
RUNS = {
    "bounds": ([("temple", 1, cli.MAX_POINTS), ("dirichlet", 1, cli.MAX_POINTS)],
               cli.MAX_BOUNDS_SAMPLES),  # slot L: the box side
    "lifshitz": ([("realization", 1, cli.MAX_VALUES)], cli.MAX_POINTS),  # point j: slot j + 1
    "ids": ([("realization", 0, 0)], cli.MAX_POINTS),  # every side, both conditions
}


def owners(run, index):
    """Every (role, slot, k) of ``run`` whose stream index is ``index``."""
    roles, cap = RUNS[run]
    found = set()
    for role, first, last in roles:
        base, shift, _ = STREAMS[role]
        off = index - base  # = (slot << shift) + k with 0 <= k < cap
        for slot in range(max(first, -(-(off - cap + 1) >> shift)), min(last, off >> shift) + 1):
            found.add((role, slot, off - (slot << shift)))
    return found


class TestStreams:
    def test_layout(self):
        # the indices that every shipped output was drawn from
        assert stream_indices("realization", 0, 3).tolist() == [0, 1, 2]
        assert stream_indices("realization", 4, 2).tolist() == [(4 << 32), (4 << 32) + 1]
        assert stream_indices("temple", 8, 2).tolist() == [8 << 20, (8 << 20) + 1]
        assert stream_indices("dirichlet", 4, 1).tolist() == [(1 << 62) + (4 << 22)]
        assert stream_indices("dirichlet", 4, 1).dtype == np.uint64

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_field_edges_of_one_run_disjoint(self, run):
        # the first and last two slots of every role at the first and last two
        # k: the slot fields are affine in (slot, k), so a clash anywhere
        # shows at these edges
        roles, cap = RUNS[run]
        for role, first, last in roles:
            for slot in sorted({first, min(first + 1, last), max(last - 1, first), last}):
                indices = stream_indices(role, slot, cap)
                for k in sorted({0, 1, cap - 2, cap - 1}):
                    assert owners(run, int(indices[k])) == {(role, slot, k)}

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_draws_of_one_run_disjoint(self, data):
        run = data.draw(st.sampled_from(sorted(RUNS)))
        roles, cap = RUNS[run]
        role, first, last = data.draw(st.sampled_from(roles))
        slot = data.draw(st.integers(first, last))
        k = data.draw(st.integers(0, cap - 1))
        index = int(stream_indices(role, slot, k + 1)[k])
        assert owners(run, index) == {(role, slot, k)}

    @pytest.mark.parametrize("role", sorted(STREAMS))
    def test_overflow_raises(self, role):
        base, shift, width = STREAMS[role]
        slots = 1 << (62 - shift)
        assert int(stream_indices(role, slots - 1, 1)[0]) == base + ((slots - 1) << shift)
        assert stream_indices(role, 0, 0).size == 0
        for slot, count in ((slots, 1), (-1, 1), (0, (1 << width) + 1), (0, -1)):
            with pytest.raises(DomainError, match=f"{role} streams"):
                stream_indices(role, slot, count)


class TestEstimate:
    def test_negative_energies_zero(self, prepped):
        model, gs = prepped
        cur = estimate_ids(model, gs, [4], [-1.0, -0.1], 20, 3)[4]
        for lab in ("D", "M"):
            assert np.all(cur.estimates[lab] == 0.0)
            assert np.all(cur.errors[lab] == 0.0)

    def test_pathwise_bracketing(self, prepped):
        model, gs = prepped
        cur = estimate_ids(model, gs, [8], np.linspace(0.0, 12.0, 7), 50, 11)[8]
        assert np.all(cur.counts["D"] <= cur.counts["M"])
        assert np.all(cur.estimates["D"] <= cur.estimates["M"])

    def test_curves_nondecreasing(self, prepped):
        model, gs = prepped
        cur = estimate_ids(model, gs, [6], np.linspace(0.0, 20.0, 9), 30, 17)[6]
        for lab in ("D", "M"):
            assert np.all(np.diff(cur.estimates[lab]) >= 0.0)

    def test_reproducible(self, prepped):
        model, gs = prepped
        a = estimate_ids(model, gs, [4], [0.5, 2.0], 25, 99)[4]
        b = estimate_ids(model, gs, [4], [0.5, 2.0], 25, 99)[4]
        for lab in ("D", "M"):
            assert np.array_equal(a.counts[lab], b.counts[lab])
            assert np.array_equal(a.estimates[lab], b.estimates[lab])

    @staticmethod
    def counts_alone(model, gs, grid, energies, seed, idx):
        """Counts of each realization alone, assembled and counted row by row."""
        fields = sample_fields(model.dist, seed, idx, grid.L, grid.d)
        return {bc.label: np.array([[count_below(assemble(model, grid, bc, couplings=lams), E)
                                     for E in energies]
                                    for lams in fields])
                for bc in bc_pair(gs, grid)}

    def test_fast_path_matches_general(self, prepped):
        # count each realization row by row with count_below, then compare
        # against the batched Sturm sweep
        model, gs = prepped
        from breatherlab.ids import _count_block

        grid = GridSpec(4, 16)
        energies = np.array([0.5, 1.5, 3.0])
        idx = np.arange(12)
        fast = _count_block((model, grid, gs, energies, 7, idx))
        slow = self.counts_alone(model, gs, grid, energies, 7, idx)
        for lab in ("D", "M"):
            assert np.array_equal(fast[lab], slow[lab])

    def test_fast_path_matches_general_d2(self):
        # at d = 2 the two conditions differ on the whole boundary layer of the
        # box, the rows a chunk rewrites before its "M" count
        from breatherlab.ids import _count_block

        model, gs = prepare_model(breather_model(d=2), 4)
        grid = GridSpec(L=2, n=4, d=2)
        energies = np.array([2.0, 9.0, 40.0])
        idx = np.arange(5)
        fast = _count_block((model, grid, gs, energies, 7, idx))
        slow = self.counts_alone(model, gs, grid, energies, 7, idx)
        for lab in ("D", "M"):
            assert np.array_equal(fast[lab], slow[lab])
        assert np.any(slow["D"] != slow["M"])

    @pytest.mark.parametrize("rows,extra", [
        (1, 0),  # one row a block
        (5, 1),  # blocks smaller than a cell (n = 16), ragged: 12 of 5 rows, then 4
        (24, 7),  # blocks across cells that do not divide n: 24, 24, then 16
        (64, 0),  # the whole box in one block
    ])
    def test_stream_blocks_match_counts_alone(self, prepped, monkeypatch, rows, extra):
        # reading the diagonals a row block at a time cannot change a count:
        # each (realization, energy) pair is swept on its own, and the blocks
        # cover the N = 64 rows once, in order, none above SWEEP_VALUES values
        from breatherlab import ids, lattice, spectral

        model, gs = prepped
        grid = GridSpec(4, 16)
        energies = np.array([0.5, 1.5, 3.0])
        idx = np.arange(12) + 40
        values = rows * energies.size * 2 * idx.size + extra  # e holds K x 2M pairs
        monkeypatch.setattr(spectral, "SWEEP_VALUES", values)
        reads, batch_rows = [], lattice.RandomBatch.rows

        def spy(self, start, stop, which=None):
            block = batch_rows(self, start, stop, which)
            reads.append((start, stop, block.shape, block.flags.c_contiguous))
            return block

        monkeypatch.setattr(lattice.RandomBatch, "rows", spy)
        counts = ids._count_block((model, grid, gs, energies, 3, idx))
        alone = self.counts_alone(model, gs, grid, energies, 3, idx)
        for lab in ("D", "M"):
            assert counts[lab].shape == (12, 3)
            assert np.array_equal(counts[lab], alone[lab])
        stops = list(range(rows, grid.num_dof, rows)) + [grid.num_dof]
        assert [(start, stop) for start, stop, _, _ in reads] == list(zip([0] + stops, stops))
        assert all(shape == (stop - start, 24) and contiguous and shape[0] * 24 <= values
                   for start, stop, shape, contiguous in reads)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("standardized", [True, False])
    @pytest.mark.parametrize("kind", ["alloy", "breather", "tabulated"])
    def test_stream_of_every_family_matches_counts_alone(self, kind, standardized, d):
        # a block computed from the coupling fields is base + V_omega of each
        # field, the bits of random_potentials + np.add for every site family
        from breatherlab.ids import _count_block
        from breatherlab.lattice import RandomBatch, random_potentials

        xs = np.linspace(-0.5, 0.5, 5)
        bump = np.cos(np.pi * xs) if d == 1 else np.outer(np.cos(np.pi * xs), np.cos(np.pi * xs))
        family = {"alloy": dict(amplitude=3.0, radius=0.45),
                  "breather": dict(amplitude=3.0, radius=0.4),
                  "tabulated": dict(lambda_nodes=(1.0, 1.5, 2.0), x_nodes=(tuple(xs),) * d,
                                    values=np.multiply.outer([1.0, 2.5, 4.0], bump))}[kind]
        site = SingleSiteSpec(kind=kind, lambda_minus=1.0, lambda_plus=2.0,
                              standardized=standardized, **family)
        model = dataclasses.replace(breather_model(d=d), site=site)
        n = 8 if d == 1 else 4
        _, gs = prepare_model(model, n)
        grid = GridSpec(L=3, n=n, d=d)
        energies = np.array([2.0, 15.0, 60.0])
        idx = np.arange(4) + 9
        counts = _count_block((model, grid, gs, energies, 21, idx))
        alone = self.counts_alone(model, gs, grid, energies, 21, idx)
        for lab in ("D", "M"):
            assert np.array_equal(counts[lab], alone[lab])
        assert np.any(alone["D"] != alone["M"]) and len(np.unique(alone["M"])) > 2
        fields = sample_fields(model.dist, 21, idx, grid.L, d)
        bases = np.random.default_rng(5).uniform(-3.0, 3.0, (grid.num_dof, 2))
        batch = RandomBatch(model, grid, fields, bases)
        whole = np.concatenate([bases[:, c, None] + random_potentials(model, grid, fields).T
                                for c in range(2)], axis=1)
        assert batch.shape == whole.T.shape
        for start, stop in ((0, grid.num_dof), (1, 6), (5, 7), (6, 11)):  # one cell or more
            assert np.array_equal(batch.rows(start, stop), whole[start:stop])
            which = np.array([7, 0, 3, 3, 5])
            assert np.array_equal(batch.rows(start, stop, which), whole[start:stop, which])

    def test_forced_retry_reads_only_its_columns(self, prepped, monkeypatch):
        # pairs that fail their pivot check are counted again, and the retry
        # computes the diagonals of their columns alone, not the whole batch
        from breatherlab import ids, lattice, spectral

        model, gs = prepped
        task = (model, GridSpec(4, 16), gs, np.array([0.5, 1.5, 3.0]), 3, np.arange(12))
        plain = ids._count_block(task)
        reads, batch_rows, sweep = [], lattice.RandomBatch.rows, spectral._sturm_counts

        def spy(self, start, stop, which=None):
            reads.append(None if which is None else which.tolist())
            return batch_rows(self, start, stop, which)

        def failing(off, read, which, e):
            counts, ok = sweep(off, read, which, e)
            if which is None:  # the first sweep: three pairs fail, two on column 17 ("M" 5)
                ok[[1, 0, 2], [3, 17, 17]] = False
            return counts, ok

        monkeypatch.setattr(lattice.RandomBatch, "rows", spy)
        monkeypatch.setattr(spectral, "_sturm_counts", failing)
        forced = ids._count_block(task)
        for lab in ("D", "M"):
            assert np.array_equal(forced[lab], plain[lab])
        # 72 pairs: one block of all 64 rows, then the failed pairs' columns in
        # (energy, column) order
        assert reads == [None, [17, 3, 17]]

    @pytest.mark.parametrize("d,L,n", [(1, 6, 16), (2, 3, 4)])
    def test_count_block_is_one_count(self, monkeypatch, d, L, n):
        # a block's realizations are one batch of 2M diagonals, "D" then "M":
        # one count_below call, so a d >= 2 block stacks all its pairs at once
        from breatherlab import ids
        from breatherlab.lattice import RandomBatch

        model, gs = prepare_model(breather_model(d=d), n)
        grid = GridSpec(L=L, n=n, d=d)
        calls, count = [], ids.count_below

        def spy(H, E):
            calls.append(H.diag)
            return count(H, E)

        monkeypatch.setattr(ids, "count_below", spy)
        counts = ids._count_block((model, grid, gs, np.array([1.0, 4.0]), 5, np.arange(10)))
        assert counts["D"].shape == counts["M"].shape == (10, 2)
        assert len(calls) == 1
        batch = calls[0]
        assert isinstance(batch, RandomBatch) and batch.shape == (20, grid.num_dof)

    def test_count_block_streams_its_diagonals(self):
        # the largest block of configs/lifshitz.json (L = 29 at E = 0.05,
        # M = 2000): the sweep holds its pivots and one row block of diagonals
        # (each about SWEEP_VALUES values) and the block's temporaries, so the
        # peak stays close to the block's coupling fields plus four such blocks
        from breatherlab import cli
        from breatherlab.ids import _count_block
        from breatherlab.spectral import SWEEP_VALUES

        cfg = cli.load_config(str(Path(__file__).parents[1] / "configs" / "lifshitz.json"),
                              command="lifshitz")
        model, gs = cli._prepare(cfg, cli.build_model(cfg))
        exp = cfg["experiment"]
        M, L = exp["samples"], 29
        task = (model, GridSpec(L=L, n=gs.n), gs, cli.energies_from(exp["energies"])[:1],
                exp["seed"], np.arange(M) + (1 << 32))
        tracemalloc.start()
        try:
            _count_block(task)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * (M * L + 4 * SWEEP_VALUES) * 8

    def test_workers_equivalent(self, prepped):
        # M = 6 < 4 * workers splits too: every M runs in min(workers, M) blocks,
        # for one box side and for a matched curve's three energy points alike
        model, gs = prepped
        for M in (16, 6):
            for estimate in (
                    lambda workers: estimate_ids(model, gs, [4], [1.0], M, 5, workers=workers)[4],
                    lambda workers: matched_box_curve(model, gs, [0.5, 1.0, 2.0], M, 5,
                                                      B2=np.pi**2, workers=workers)):
                serial, parallel = estimate(1), estimate(2)
                assert np.array_equal(serial.counts["D"], parallel.counts["D"])
                assert np.array_equal(serial.counts["M"], parallel.counts["M"])

    def test_sides_of_one_call_match_single_sides(self, prepped):
        # one call over several sides at two workers gives each side the curve
        # of a one-side call at one worker: the same realizations, in order
        model, gs = prepped
        energies = [0.5, 1.0, 2.0]
        curves = estimate_ids(model, gs, [6, 4], energies, 7, 13, workers=2)
        assert list(curves) == [6, 4]
        for L, cur in curves.items():
            alone = estimate_ids(model, gs, [L], energies, 7, 13)[L]
            for lab in ("D", "M"):
                assert np.array_equal(cur.counts[lab], alone.counts[lab])
                assert np.array_equal(cur.estimates[lab], alone.estimates[lab])
                assert np.array_equal(cur.errors[lab], alone.errors[lab])
            assert np.array_equal(cur.box_sizes, [L] * 3)

    @pytest.mark.parametrize("workers,runs,M,size", [
        (1, 3, 50, 1), (2, 1, 1, 1), (2, 3, 6, 2), (4, 1, 3, 3), (4, 8, 1, 4),
    ])
    def test_pool_size(self, workers, runs, M, size):
        # min(workers, blocks) over runs * min(workers, M) blocks; > 1 opens a
        # pool.  Each run here is work enough alone: 32 energies on a d = 2
        # box of 64 x 64 points
        assert pool_size(workers, M, [(8, [0.0] * 32)] * runs, 8, 2) == size

    def test_no_pool_below_the_work_threshold(self):
        # work = M * energies * points (d = 1), * n L / 2 more at d = 2
        assert ids.POOL_WORK == 2**22
        assert pool_size(4, 2**18, [(4, [0.0] * 4)], 1, 1) == 1  # 2**22 exactly
        assert pool_size(4, 2**18, [(4, [0.0] * 4), (1, [0.0])], 1, 1) == 4
        assert pool_size(4, 64, [(32, [0.0] * 4)], 1, 2) == 1  # 2**22 exactly
        assert pool_size(4, 64, [(32, [0.0] * 4)] * 2, 1, 2) == 4

    def test_unsorted_energies_rejected(self, prepped):
        model, gs = prepped
        with pytest.raises(InputError):
            estimate_ids(model, gs, [4], [2.0, 1.0], 5, 1)

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
        energies = [0.3, 1.1, 3.3]
        cur = estimate_ids(degen, gs, [4], energies, 1, 1)[4]
        from breatherlab.spectral import count_below

        for bc in bc_pair(gs, grid):
            H = assemble(model, grid, bc, couplings=np.full(4, 1.0))
            for j, E in enumerate(energies):
                assert cur.counts[bc.label][0, j] == count_below(H, E)

    def test_d2_general_path(self):
        # two-dimensional boxes count by block LDL^T along their grid lines
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
        cur = estimate_ids(model, gs, [2], [2.0, 9.0], 5, 77)[2]
        again = estimate_ids(model, gs, [2], [2.0, 9.0], 5, 77)[2]
        assert np.all(cur.counts["D"] <= cur.counts["M"])
        assert np.array_equal(cur.counts["M"], again.counts["M"])

    def test_csv_layout(self, prepped):
        model, gs = prepped
        cur = estimate_ids(model, gs, [4], [0.5, 1.0], 10, 21)[4]
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
        cur = estimate_ids(model, gs, [4], [0.5, 1.0, 3.0], 10, 21)[4]
        path = tmp_path / "curve.csv"
        cur.to_csv(path)
        back = IDSCurve.from_csv(path, 1)
        for name in ("energies", "box_sizes"):
            assert np.array_equal(getattr(back, name), getattr(cur, name))
        for label in ("D", "M"):
            assert np.array_equal(back.estimates[label], cur.estimates[label])
            assert np.array_equal(back.errors[label], cur.errors[label])
        assert (back.n, back.M, back.seed, back.d) == (16, 10, 21, 1)


def run_curves(model, gs, Ls, energies, M, seed):
    """One run's curves, keyed by box size, as ``cmd_ids`` hands them over."""
    return estimate_ids(model, gs, Ls, energies, M, seed)


class TestBracketing:
    def test_report_passes(self, prepped):
        model, gs = prepped
        energies = np.linspace(0.5, 8.0, 6)
        rep = bracketing_report(run_curves(model, gs, [4, 8, 16], energies, 60, 13))
        assert rep["pathwise_violations"] == 0
        assert rep["lower_monotone"] and rep["upper_monotone"]
        assert rep["cross_ordering"]
        assert rep["all_pass"]

    def test_report_reads_run_from_curves(self, prepped):
        model, gs = prepped
        energies = np.linspace(0.5, 8.0, 4)
        curves = run_curves(model, gs, [8, 4], energies, 12, 31)
        rep = bracketing_report(curves)
        assert (rep["Ls"], rep["samples"], rep["seed"]) == ([8, 4], 12, 31)
        assert rep["energies"] == list(energies)
        assert rep["pathwise_pairs"] == 2 * 12 * 4
        for L, cur in curves.items():
            for label in ("D", "M"):
                assert rep["curves"][L][label] == list(cur.estimates[label])

    def test_given_curve_without_counts_rejected(self, prepped):
        model, gs = prepped
        curves = run_curves(model, gs, [4, 8], [0.5, 2.0], 6, 31)
        curves[4] = dataclasses.replace(curves[4], counts=None)
        with pytest.raises(InputError):
            bracketing_report(curves)

    def test_curve_without_upper_label_rejected(self, prepped):
        model, gs = prepped
        curves = {L: dataclasses.replace(cur, counts={"D": cur.counts["D"]})
                  for L, cur in run_curves(model, gs, [4, 8], [0.5, 2.0], 6, 31).items()}
        with pytest.raises(InputError, match="D and M"):
            bracketing_report(curves)

    def test_given_curve_other_run_rejected(self, prepped):
        model, gs = prepped
        energies = [0.5, 2.0]
        curves = run_curves(model, gs, [8], energies, 6, 31)
        curves[4] = estimate_ids(model, gs, [4], energies, 6, 32)[4]
        with pytest.raises(InputError):
            bracketing_report(curves)

    def test_single_box_rejected(self, prepped):
        model, gs = prepped
        with pytest.raises(InputError, match="two box sizes"):
            bracketing_report(run_curves(model, gs, [4], [0.5], 6, 31))

    def test_failing_checks_and_exact_margins(self):
        # hand-made curves, sides unsorted; estimates and errors are dyadic and
        # every 2 sqrt(s_a^2 + s_b^2) is exact (3/32 against 4/32 gives 5/32),
        # so each margin below is exact
        energies = np.array([1.0, 2.0])
        D = {4: [0.25, 0.5], 8: [0.5, 0.25], 16: [0.375, 1.375]}
        Mg = {4: [1.0, 1.5], 8: [0.75, 1.75], 16: [1.25, 1.25]}
        sD = {4: 0.0, 8: 3 / 32, 16: 0.0}
        sM = {4: 0.0, 8: 4 / 32, 16: 0.0}
        counts_D = {L: np.zeros((2, 2), dtype=int) for L in (8, 4, 16)}
        counts_M = {L: np.ones((2, 2), dtype=int) for L in (8, 4, 16)}
        counts_D[8][1, 0] = 2  # one realization counts more under D than under M
        curves = {L: IDSCurve(energies=energies, box_sizes=np.full(2, L), n=8, M=2, seed=5,
                              d=1, estimates={"D": np.array(D[L]), "M": np.array(Mg[L])},
                              errors={"D": np.full(2, sD[L]), "M": np.full(2, sM[L])},
                              counts={"D": counts_D[L], "M": counts_M[L]})
                  for L in (8, 4, 16)}
        rep = bracketing_report(curves)
        assert rep["Ls"] == [8, 4, 16]
        assert (rep["pathwise_violations"], rep["pathwise_pairs"]) == (1, 12)
        # lower: D(8) - D(4) + 2 (3/32) at E = 2 is -1/4 + 3/16
        assert (rep["lower_monotone"], rep["lower_worst_margin"]) == (False, -0.0625)
        # upper: M(8) - M(16) + 2 (4/32) at E = 1 is -1/2 + 1/4
        assert (rep["upper_monotone"], rep["upper_worst_margin"]) == (False, -0.25)
        # cross: M(16) - D(16) at E = 2 is 1.25 - 1.375
        assert (rep["cross_ordering"], rep["cross_worst_margin"]) == (False, -0.125)
        assert rep["all_pass"] is False
        # mend every failure: the pathwise count and the three least margins
        counts_D[8][1, 0] = 0
        D[8][1], Mg[16][0], D[16][1] = 0.4375, 1.0, 1.25
        for L in (8, 16):
            curves[L].estimates["D"][:] = D[L]
            curves[L].estimates["M"][:] = Mg[L]
        rep = bracketing_report(curves)
        assert rep["pathwise_violations"] == 0
        # zero margins pass: M(8) - M(16) + 1/4 at E = 1, M(16) - D(16) at E = 2
        assert (rep["lower_worst_margin"], rep["upper_worst_margin"],
                rep["cross_worst_margin"]) == (0.0625, 0.0, 0.0)
        assert rep["lower_monotone"] and rep["upper_monotone"] and rep["cross_ordering"]
        assert rep["all_pass"] is True

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
    """The box side of ``matched_box_curve``: ceil(2 sqrt(B2) / sqrt(E)) in
    [2, L_max]."""

    def test_lower_form_example(self, prepped):
        # 4 exactly at E = pi^2 / 4, and clamped at either end of [2, L_max]
        model, gs = prepped
        curve = matched_box_curve(model, gs, [0.01, np.pi**2 / 4.0, 100.0], 1, 0,
                                  B2=np.pi**2, L_max=10)
        assert list(curve.box_sizes) == [10, 4, 2]

    def test_sqrt_scaling(self, prepped):
        # a quarter of the energy doubles the side (exact in floats at B2 = 4)
        model, gs = prepped
        curve = matched_box_curve(model, gs, [0.25, 1.0], 1, 0, B2=4.0, L_max=1000)
        assert list(curve.box_sizes) == [8, 4]

    def test_domain(self, prepped):
        model, gs = prepped
        with pytest.raises(InputError):
            matched_box_curve(model, gs, [-1.0, 1.0], 1, 0, B2=1.0)


class TestLifshitzFit:
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_synthetic_exact_slope(self, s):
        E = np.geomspace(0.05, 0.8, 12)
        cur = synthetic_curve(E, c=2.0, s=s)
        # keep every N(E) value inside a window it actually visits
        vals = cur.estimates["M"]
        window = (max(vals.min() * 0.5, 1e-300), min(vals.max() * 2, 0.999))
        fit = fit_lifshitz(cur, window=window, label="M", target=-s)
        assert fit.slope == pytest.approx(-s, abs=1e-3)

    def test_constant_c_does_not_shift_slope(self):
        E = np.geomspace(0.1, 0.9, 10)
        cur = synthetic_curve(E, c=3.0, s=1.0)
        vals = cur.estimates["M"]
        window = (vals.min() * 0.5, min(vals.max() * 2, 0.999))
        fit = fit_lifshitz(cur, window=window)
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
        fit = fit_lifshitz(cur, window=window)
        assert fit.target == -1.0

    def test_bootstrap_interval_contains_slope(self, prepped, monkeypatch):
        model, gs = prepped
        cur = matched_box_curve(model, gs,
                                np.geomspace(1.0, 6.0, 6), 200, 2024,
                                B2=np.pi**2, L_max=24)
        est = cur.estimates["M"]
        lo = max(1e-6, est[est > 0].min() * 0.5)
        hi = min(0.9, est.max() * 1.5)
        monkeypatch.setattr(ids, "MAX_REL_SE", 2.0)
        monkeypatch.setattr(ids, "MIN_POINTS", 3)
        fit = fit_lifshitz(cur, window=(lo, hi), label="M")
        assert fit.ci_lo <= fit.slope <= fit.ci_hi
        assert fit.n_resamples > 0


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(values=arrays(np.float64, st.integers(10, 400), elements=st.sampled_from(
    [-3.5, -1.0, -0.0, 0.25, 2.0]) | st.floats(-1e6, 1e6, allow_subnormal=False)))
def test_percentiles_are_numpy_linear(values):
    # the bootstrap interval of fit_lifshitz is np.percentile's linear method
    # (its t >= 0.5 branch included), value for value, ties and negatives too;
    # np.percentile itself imports numpy.ma on its first call
    assert np.array_equal(_percentiles(values, [2.5, 97.5]),
                          np.percentile(values, [2.5, 97.5]))


def gathered_bootstrap(curve, window, label, max_rel_se):
    """(slope, ci_lo, ci_hi, n_resamples) by the gather-and-mean loop: each
    resample's means are those of its drawn rows of counts, each fitted alone."""
    est, se = curve.estimates[label], curve.errors[label]
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(est > 0, se / est, np.inf)
    admissible = (est >= window[0]) & (est <= window[1]) & (rel < max_rel_se)
    x = np.log(curve.energies[admissible])
    slope = np.polyfit(x, np.log(np.abs(np.log(est[admissible]))), 1)[0]
    counts = curve.counts[label][:, admissible]
    vols = curve.box_sizes[admissible].astype(float) ** curve.d
    M = counts.shape[0]
    rows, slopes = philox.integer_rows((BOOT_SEED, curve.seed), M, M), []
    for _ in range(BOOT_RESAMPLES):
        mean_b = counts[next(rows)].mean(axis=0) / vols
        if np.any(mean_b <= 0.0) or np.any(mean_b >= 1.0):
            continue
        slopes.append(np.polyfit(x, np.log(np.abs(np.log(mean_b))), 1)[0])
    if len(slopes) >= 10:
        ci_lo, ci_hi = np.percentile(slopes, [2.5, 97.5])
    else:
        ci_lo = ci_hi = slope
    return float(slope), float(ci_lo), float(ci_hi), len(slopes)


def counts_curve(counts, L, seed):
    """Curve of the raw "M" counts (M, P) on a side-L box at d = 1."""
    counts = np.asarray(counts)
    M, P = counts.shape
    vol = float(L)
    est = counts.mean(axis=0) / vol
    err = counts.std(axis=0, ddof=1) / np.sqrt(M) / vol if M > 1 else np.zeros(P)
    return IDSCurve(energies=np.geomspace(0.1, 0.8, P), box_sizes=np.full(P, L), n=0, M=M,
                    seed=seed, d=1, estimates={"M": est}, errors={"M": err},
                    counts={"M": counts})


class TestBootstrapDrawCounts:
    """The draw-count products reproduce the gather-and-mean bootstrap exactly."""

    def check(self, monkeypatch, cur, window, max_rel_se, min_points):
        monkeypatch.setattr(ids, "MAX_REL_SE", max_rel_se)
        monkeypatch.setattr(ids, "MIN_POINTS", min_points)
        fit = fit_lifshitz(cur, window=window, label="M")
        ref = gathered_bootstrap(cur, window, "M", max_rel_se)
        assert (fit.slope, fit.ci_lo, fit.ci_hi, fit.n_resamples) == ref
        return fit

    def test_matched_box_curve(self, prepped, monkeypatch):
        model, gs = prepped
        cur = matched_box_curve(model, gs, np.geomspace(1.0, 6.0, 6), 200, 2024,
                                B2=np.pi**2, L_max=24)
        est = cur.estimates["M"]
        window = (max(1e-6, est[est > 0].min() * 0.5), min(0.9, est.max() * 1.5))
        fit = self.check(monkeypatch, cur, window, max_rel_se=2.0, min_points=3)
        assert fit.n_resamples > 0

    def test_small_sample_drops_resamples_at_0_and_1(self, monkeypatch):
        # M = 3: a resample drawing realization 0 alone reads mean 0 at the first
        # energy, one drawing realization 2 alone reads 1 at the last; both drop
        cur = counts_curve([[0, 1, 1, 2, 3], [1, 1, 2, 2, 3], [1, 2, 2, 3, 4]], L=4, seed=5)
        fit = self.check(monkeypatch, cur, (1e-3, 0.99), max_rel_se=10.0, min_points=5)
        assert 10 <= fit.n_resamples < BOOT_RESAMPLES

    def test_single_realization(self, monkeypatch):
        cur = counts_curve([[1, 2, 3, 5, 6]], L=8, seed=9)
        fit = self.check(monkeypatch, cur, (1e-3, 0.99), max_rel_se=10.0, min_points=5)
        assert fit.n_resamples == BOOT_RESAMPLES and fit.ci_lo == fit.slope == fit.ci_hi


class TestLowerTail:
    def test_analytic_tail_dominated(self, prepped):
        model, gs = prepped
        curve = matched_box_curve(model, gs, [0.5, 1.0, 2.0], 200, 77, B2=np.pi**2)
        rep = lower_tail_check(curve, model.dist, B1=2.0, eps1=0.1, eps2=1.0)
        assert rep["all_pass"]
        # the check reads the curve's Dirichlet estimates and boxes, no new samples
        assert [row["estimate"] for row in rep["rows"]] == list(curve.estimates["D"])
        assert [row["L"] for row in rep["rows"]] == list(curve.box_sizes)
        for row in rep["rows"]:
            assert row["estimate"] >= row["analytic"] - 2 * row["se"]
