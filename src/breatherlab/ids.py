"""Monte Carlo estimation of the integrated density of states.

Couplings are generated by the counter-based Philox4x64-10 generator keyed on
(master_seed, stream index), the index of ``stream_indices``, with the value
of a site read off at its position in site order (row-major over the cells),
so every field is a pure function of (master_seed, index, site) and runs are
reproducible bit for bit regardless of worker scheduling.  One Philox, the
package's own (``philox``, equal bit for bit to NumPy's), serves the fields,
the bootstrap of ``fit_lifshitz`` and the eigensolvers' start vectors.
``sample_fields`` draws all streams of a block in one call, a bounded group of
streams at a time.  A block's Dirichlet and ground-state diagonals are one
``lattice.RandomBatch``, which one ``count_below`` call sweeps over all its
realizations and energies, computing each row block from the fields as it
reads it.  A run is (box side, energies, stream slot): ``estimate_ids`` makes
one per box side, all at slot 0, and ``matched_box_curve`` one per energy
point.  Without a pool a run is one block; a pool, opened for more than one
worker on work above ``POOL_WORK``, takes min(workers, M) contiguous index
blocks of every run, all submitted before any is awaited; merged in block
order, the counts do not depend on the workers.

Estimates are normalized eigenvalue counts N(E, H^{L,X}) / L^d averaged over
realizations; Dirichlet counts ("D") bound the limit from below and
ground-state (Mezincescu) counts ("M") from above, pathwise at equal box
size.  Every estimate counts under exactly that pair, built from the ground
state of the prepared model.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import philox
from .errors import STREAMS, DomainError, InputError, InsufficientDataError
from .lattice import (DIRICHLET, DiscreteHamiltonian, GridSpec, RandomBatch,
                      mezincescu_correction, skeleton)
from .model import DistributionSpec
from .spectral import count_below

CSV_HEADER = "E,N_D,se_D,N_M,se_M,L,n,M,seed"
LABELS = ("D", "M")  # the bracketing pair: Dirichlet below, ground state above
BOOT_RESAMPLES, BOOT_SEED = 200, 0xB007  # the percentile bootstrap of fit_lifshitz
MAX_REL_SE, MIN_POINTS = 0.25, 5  # a fit point's largest relative error; the fewest points
# the work of pool_size up to which one process beats a pool of two: configs/ids_bracketing.json
# at M = 200, 800, 2 000 (work 0.54, 2.15, 5.4 million) ran 37 and 27 ms slower and 56 ms
# faster at two workers (medians of 6 fresh processes, 2 cores)
POOL_WORK = 2**22


def stream_indices(role: str, slot: int, count: int) -> np.ndarray:
    """Stream indices of realizations 0..count-1 of ``slot`` of ``role`` (``errors.STREAMS``)."""
    base, shift, width = STREAMS[role]
    if not (0 <= slot < 1 << (62 - shift) and 0 <= count <= 1 << width):
        raise DomainError(f"{role} streams need 0 <= slot < 2**{62 - shift} and "
                          f"0 <= count <= 2**{width}, got slot {slot}, count {count}")
    return np.uint64(base + (slot << shift)) + np.arange(count, dtype=np.uint64)


def sample_fields(dist: DistributionSpec, seed: int, indices, L: int, d: int) -> np.ndarray:
    """Coupling fields of the realizations ``indices``: read-only, (M, L**d).

    Site k (row-major) of row i is the inverse-CDF image of the k-th double of
    the Philox4x64-10 stream keyed on (seed, indices[i]), the stream of
    ``Generator(Philox(key=key)).random``.  The streams run in groups of about
    ``philox.ROUND_BLOCKS`` blocks, each written into the output in place.
    """
    count, idx = L**d, np.asarray(indices, dtype=np.uint64).ravel()
    fields = np.empty((idx.size, count))
    group = max(1, philox.ROUND_BLOCKS // -(-count // 4))  # streams per round
    for start in range(0, idx.size, group):
        part = idx[start:start + group]
        keys = np.column_stack([np.full_like(part, seed), part])
        fields[start:start + group] = dist.sample(philox.doubles(keys, count))
    fields.setflags(write=False)
    return fields


@dataclass(frozen=True)
class IDSCurve:
    """Per-energy, per-boundary-condition normalized counting estimates.

    ``box_sizes`` is per energy point (constant for fixed-box runs, varying
    for the energy-matched band-edge pipeline).  ``counts`` optionally keeps
    the raw per-realization integer counts for pathwise checks and bootstrap
    resampling.
    """

    energies: np.ndarray
    box_sizes: np.ndarray
    n: int
    M: int
    seed: int
    d: int
    estimates: dict
    errors: dict
    counts: dict = None

    def to_csv(self, file, header: bool = True):
        """Write the pinned ``CSV_HEADER`` column layout."""
        if "D" not in self.estimates or "M" not in self.estimates:
            raise InputError("curve CSV needs both the D and M estimates")
        close = False
        if isinstance(file, (str, bytes, os.PathLike)):
            file = open(file, "w", newline="\n")
            close = True
        try:
            if header:
                file.write(CSV_HEADER + "\n")
            for j, E in enumerate(self.energies):
                file.write(
                    f"{E:.17g},{self.estimates['D'][j]:.17g},{self.errors['D'][j]:.17g},"
                    f"{self.estimates['M'][j]:.17g},{self.errors['M'][j]:.17g},"
                    f"{int(self.box_sizes[j])},{self.n},{self.M},{self.seed}\n"
                )
        finally:
            if close:
                file.close()

    @classmethod
    def from_csv(cls, path, d: int) -> "IDSCurve":
        """Read one curve written by ``to_csv`` (the file does not store d); a bad
        header, row width or value, a file without rows, or rows of a second
        curve (a decreasing energy, another n, M or seed) raise InputError."""
        width = CSV_HEADER.count(",") + 1
        try:
            with open(path, encoding="utf-8") as fh:
                header, *lines = fh.read().strip().split("\n")
            if header != CSV_HEADER:
                raise ValueError(f"header {header!r} != {CSV_HEADER!r}")
            if not lines:
                raise ValueError("no data rows")
            table = []
            for line in lines:
                fields = line.split(",")
                if len(fields) != width:
                    raise ValueError(f"row {line!r} has {len(fields)} fields, not {width}")
                table.append([float(v) for v in fields[:5]] + [int(v) for v in fields[5:]])
            for k in range(1, len(table)):  # one curve: energies nondecreasing, one run
                if table[k][0] < table[k - 1][0] or table[k][6:] != table[0][6:]:
                    raise ValueError(f"row {lines[k]!r} starts a second curve "
                                     "(a decreasing energy, or another n, M or seed)")
        except (OSError, ValueError) as err:
            raise InputError(f"curve CSV {path}: {err}") from err
        E, N_D, se_D, N_M, se_M, box = (np.array([r[j] for r in table]) for j in range(6))
        _, n, M, seed = table[0][5:]
        return cls(energies=E, box_sizes=box, n=n, M=M, seed=seed, d=d,
                   estimates={"D": N_D, "M": N_M}, errors={"D": se_D, "M": se_M})


def _count_block(args):
    """Counts (realizations x energies) under "D" and "M" for one index block:
    one ``count_below`` call over a ``RandomBatch`` of its coupling fields on
    the two conditions' base diagonals (the folds touch only the diagonal),
    2M diagonals, "D" then "M", of which no (N, 2M) array is ever held."""
    model, grid, gs, energies, master_seed, indices = args
    fields = sample_fields(model.dist, master_seed, indices, grid.L, grid.d)
    diri, mez = (skeleton(model, grid, bc) for bc in (DIRICHLET, mezincescu_correction(gs, grid)))
    batch = RandomBatch(model, grid, fields, np.column_stack([box.diagonal(box.vper)
                                                             for box in (diri, mez)]))
    return dict(zip(LABELS, np.split(count_below(DiscreteHamiltonian(diri, batch), energies), 2)))


def pool_size(workers: int, M: int, runs, n: int, d: int) -> int:
    """Processes for ``runs`` (box side L, energies, ...) of M realizations
    each, which a pool splits into min(workers, M) index blocks; a pool is
    opened only where this exceeds 1.  It is 1 unless the work, M * energies *
    the values one count touches summed over runs, exceeds ``POOL_WORK``: a
    count touches the box's points at d = 1 (one Sturm pivot each) and
    points * n L / 2 at d >= 2 (the order of the values that the line
    kernel's block steps touch)."""
    work = sum(M * len(E) * (n * L) ** d * (n * L / 2) ** (d - 1) for L, E, *_ in runs)
    return min(workers, len(runs) * min(workers, M)) if work > POOL_WORK else 1


def _estimate_runs(model, gs, runs, M: int, master_seed: int, workers: int):
    """(estimates, errors, counts) of each run (L, energies, "realization" stream
    slot): every index block of every run is submitted to one pool before any
    result is awaited, and each run is reduced over its own (M, len(energies)) counts."""
    processes = pool_size(workers, M, runs, gs.n, model.d)
    blocks = min(workers, M) if processes > 1 else 1  # per run
    tasks = [(model, GridSpec(L=L, n=gs.n, d=model.d), gs, energies, master_seed, blk)
             for L, energies, slot in runs
             for blk in np.array_split(stream_indices("realization", slot, M), blocks)]
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(_count_block, tasks))
    else:
        results = list(map(_count_block, tasks))
    out = []
    for k, (L, energies, _) in enumerate(runs):
        run = results[k * blocks:(k + 1) * blocks]  # merged in block order
        counts = {lab: np.concatenate([r[lab] for r in run]) for lab in LABELS}
        vol = float(L**model.d)
        out.append(({lab: c.mean(axis=0) / vol for lab, c in counts.items()},
                    {lab: c.std(axis=0, ddof=1) / math.sqrt(M) / vol if M > 1
                     else np.zeros(len(energies)) for lab, c in counts.items()}, counts))
    return out


def estimate_ids(model, gs, Ls, energies, M: int, master_seed: int,
                 workers: int = 1) -> dict:
    """Estimate N(E)/L^d under Dirichlet ("D") and ground-state ("M") boundary
    conditions over M realizations, on the side-L box of every L in ``Ls`` at
    the resolution of the ground state ``gs``: ``{L: IDSCurve}``.

    Both conditions and all sides share the same realizations (couplings
    depend on (master_seed, index) only), so pathwise comparisons are
    meaningful.  The blocks of all sides run in one pool.
    """
    if np.any(np.diff(energies) < 0):
        raise InputError("energies must be sorted")
    energies = np.asarray(energies, dtype=float)
    runs = _estimate_runs(model, gs, [(L, energies, 0) for L in Ls], M, master_seed, workers)
    return {L: IDSCurve(energies=energies, box_sizes=np.full(len(energies), L, dtype=int),
                        n=gs.n, M=M, seed=master_seed, d=model.d,
                        estimates=estimates, errors=errors, counts=counts)
            for L, (estimates, errors, counts) in zip(Ls, runs)}


def bracketing_report(curves) -> dict:
    """Monotone bracketing of the IDS between the two boundary conditions.

    ``curves`` maps box sizes to curves of one run (same energies, M and
    seed) with raw counts under the labels "D" (Dirichlet) and "M"
    (ground-state boundary).  Pathwise count ordering at equal L is checked
    exactly.  The other three checks read one margin,
    b - a + 2 sqrt(s_a^2 + s_b^2), between estimates a and b with standard
    errors s_a and s_b, which is nonnegative where b >= a within two combined
    standard errors: over adjacent sides in increasing L, the Dirichlet means
    do not decrease ("lower") and the ground-state means do not increase
    ("upper"); over all pairs of sides, every Dirichlet value sits below every
    ground-state value at each energy ("cross").  A check passes when all its
    margins are >= 0, and reports the least of them.
    """
    Ls = list(curves)
    if len(Ls) < 2:
        raise InputError("bracketing needs at least two box sizes")
    lab_lo, lab_hi = LABELS
    first = curves[Ls[0]]
    energies, M, master_seed = first.energies, first.M, first.seed
    for L, cur in curves.items():
        if cur.counts is None or not {lab_lo, lab_hi} <= set(cur.counts):
            raise InputError(f"curve for L={L} carries no raw D and M counts")
        if (cur.M, cur.seed) != (M, master_seed) or not np.array_equal(cur.energies, energies):
            raise InputError(f"curve for L={L} has other energies, M or seed")

    counts = {lab: np.array([curves[L].counts[lab] for L in Ls]) for lab in LABELS}
    pathwise_violations = int(np.sum(counts[lab_lo] > counts[lab_hi]))
    # (sides in increasing L, energies) arrays of the estimates and their errors
    order = sorted(Ls)
    est = {lab: np.array([curves[L].estimates[lab] for L in order]) for lab in LABELS}
    err = {lab: np.array([curves[L].errors[lab] for L in order]) for lab in LABELS}

    def margins(lab_a, a, lab_b, b):
        sa, sb = err[lab_a][a], err[lab_b][b]
        return est[lab_b][b] - est[lab_a][a] + 2.0 * np.sqrt(sa**2 + sb**2)

    i = np.arange(len(order))
    checks = {"lower": margins(lab_lo, i[:-1], lab_lo, i[1:]),
              "upper": margins(lab_hi, i[1:], lab_hi, i[:-1]),
              "cross": margins(lab_lo, i[:, None], lab_hi, i[None, :])}
    ok = {name: bool(np.all(m >= 0.0)) for name, m in checks.items()}
    worst = {name: float(np.min(m)) for name, m in checks.items()}

    return {
        "Ls": [int(L) for L in Ls],
        "energies": [float(E) for E in energies],
        "samples": M,
        "seed": master_seed,
        "pathwise_violations": pathwise_violations,
        "pathwise_pairs": counts[lab_lo].size,
        "lower_monotone": ok["lower"],
        "lower_worst_margin": worst["lower"],
        "upper_monotone": ok["upper"],
        "upper_worst_margin": worst["upper"],
        "cross_ordering": ok["cross"],
        "cross_worst_margin": worst["cross"],
        "all_pass": pathwise_violations == 0 and all(ok.values()),
        "curves": {int(L): {lab: list(map(float, curves[L].estimates[lab])) for lab in LABELS}
                   for L in Ls},
    }


def matched_box_curve(model, gs, energies, M: int, master_seed: int, B2: float,
                      L_max: int = 64, workers: int = 1) -> IDSCurve:
    """Estimate the IDS with the box size matched per energy, L ~ E^(-1/2):
    L = ceil(2 sqrt(B2) / sqrt(E)) from the test-function bound, clamped to
    [2, L_max].

    Realizations are independent across energy points: point j draws slot
    j + 1 of the "realization" streams.  Each point is one run of
    ``_estimate_runs``, so the blocks of every point go to one pool at once.
    """
    energies = np.sort(np.asarray(energies, dtype=float))
    if np.any(energies <= 0):
        raise InputError("box matching needs E > 0")
    # 2 sqrt(B2 / E) can differ by an ulp and move the ceiling
    Ls = [min(max(math.ceil(2.0 * math.sqrt(B2) / math.sqrt(E)), 2), L_max) for E in energies]
    runs = _estimate_runs(model, gs, [(L, energies[j:j + 1], j + 1) for j, L in enumerate(Ls)],
                          M, master_seed, workers)
    estimates, errors = ({lab: np.concatenate([run[k][lab] for run in runs]) for lab in LABELS}
                         for k in (0, 1))
    counts = {lab: np.concatenate([run[2][lab] for run in runs], axis=1) for lab in LABELS}
    return IDSCurve(
        energies=energies, box_sizes=np.array(Ls),
        n=gs.n, M=M, seed=master_seed, d=model.d,
        estimates=estimates, errors=errors, counts=counts,
    )


@dataclass(frozen=True)
class LifshitzFit:
    """Log-log-log slope of the counting estimates near the band edge."""

    window: tuple
    slope: float
    ci_lo: float
    ci_hi: float
    target: float
    points: tuple
    label: str
    n_points: int
    n_resamples: int


def fit_lifshitz(curve: IDSCurve, window=(1e-4, 1e-1), label: str = "M",
                 target: float = None) -> LifshitzFit:
    """Least-squares slope of log|log N| against log E on the window.

    At least ``MIN_POINTS`` points need estimates inside [N_min, N_max] with
    relative standard error under ``MAX_REL_SE``.  The confidence interval is
    a percentile bootstrap over realizations (``BOOT_RESAMPLES`` resamples)
    when raw counts are available; the resamples are the draws of
    ``Generator(Philox(key=(BOOT_SEED, seed))).integers``, taken from
    ``philox.integer_rows``.  A resample's means are its draw counts times the
    integer counts, over M and the box volumes: exact sums, equal to the means
    of its drawn rows bit for bit.  One slope expression fits the point
    estimate and every resample whose means all lie strictly inside (0, 1).
    """
    lo, hi = window
    if not 0.0 < lo < hi < 1.0:
        raise InputError("window must satisfy 0 < N_min < N_max < 1")
    est = np.asarray(curve.estimates[label], dtype=float)
    se = np.asarray(curve.errors[label], dtype=float)
    admissible = (est >= lo) & (est <= hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(est > 0, se / est, np.inf)
    admissible &= rel < MAX_REL_SE
    if int(admissible.sum()) < MIN_POINTS:
        raise InsufficientDataError(
            f"window [{lo:g}, {hi:g}] admits {int(admissible.sum())} points "
            f"(need {MIN_POINTS}) with relative error < {MAX_REL_SE:g}"
        )
    means = [est[admissible]]  # the point estimate, then the kept resamples
    if curve.counts is not None:
        counts = curve.counts[label][:, admissible]
        vols = (curve.box_sizes[admissible].astype(float)) ** curve.d
        M = counts.shape[0]
        rows = philox.integer_rows((BOOT_SEED, curve.seed), M, M)
        for _ in range(BOOT_RESAMPLES):
            mean_b = np.bincount(next(rows), minlength=M) @ counts / M / vols
            if np.all((mean_b > 0.0) & (mean_b < 1.0)):
                means.append(mean_b)
    x = np.log(curve.energies[admissible])
    y = np.log(np.abs(np.log(np.array(means))))
    slope, *slopes = [np.polyfit(x, row, 1)[0] for row in y]
    if len(slopes) >= 10:
        ci_lo, ci_hi = _percentiles(slopes, [2.5, 97.5])
    else:
        ci_lo = ci_hi = slope
    return LifshitzFit(
        window=(float(lo), float(hi)), slope=float(slope),
        ci_lo=float(ci_lo), ci_hi=float(ci_hi),
        target=float(-curve.d / 2.0 if target is None else target),
        points=tuple((float(a), float(b)) for a, b in zip(x, y[0])),
        label=label, n_points=int(admissible.sum()), n_resamples=len(slopes),
    )


def _percentiles(values, q) -> np.ndarray:
    """``np.percentile(values, q)``, 0 <= q < 100, by its linear method and
    NumPy's ``_lerp``, without the ``numpy.ma`` import of its first call."""
    ordered, at = np.sort(values), (len(values) - 1) * (np.asarray(q, dtype=float) / 100)
    i = np.floor(at).astype(int)
    a, b, t = ordered[i], ordered[i + 1], at - i
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def synthetic_curve(energies, c: float, s: float, d: int = 1) -> IDSCurve:
    """Curve with N(E) = exp(-c E^-s) under both labels, for fit self-tests."""
    energies = np.asarray(energies, dtype=float)
    est = np.exp(-c * energies ** (-s))
    data = {"D": est.copy(), "M": est.copy()}
    zero = {"D": np.zeros_like(est), "M": np.zeros_like(est)}
    return IDSCurve(
        energies=energies, box_sizes=np.ones(len(energies), dtype=int),
        n=0, M=1, seed=0, d=d, estimates=data, errors=zero, counts=None,
    )


def lower_tail_check(curve: IDSCurve, dist: DistributionSpec, B1: float,
                     eps1: float, eps2: float) -> dict:
    """Check the Dirichlet estimates of a ``matched_box_curve`` against the
    analytic lower tail.

    At each energy, with the matched box L and the coupling window
    delta = eps1 E / (2 B1), the estimate must dominate
    P(lambda - lambda_minus <= delta)^(L^d) / L^d within two standard errors.
    """
    rows = []
    for j, E in enumerate(curve.energies.tolist()):
        L, est, se = int(curve.box_sizes[j]), curve.estimates["D"][j], curve.errors["D"][j]
        delta = eps1 * E / (2.0 * B1)
        p_site = dist.cdf_below(delta)
        analytic = p_site ** (L**curve.d) / L**curve.d
        rows.append({
            "E": E, "L": L, "delta": delta,
            "delta_within_eps2": bool(delta <= eps2),
            "p_site": p_site, "analytic": analytic,
            "estimate": float(est), "se": float(se), "pass": bool(est >= analytic - 2.0 * se),
        })
    return {"rows": rows, "all_pass": all(row["pass"] for row in rows)}
