"""Spectral primitives: lowest eigenvalues and the eigenvalue count.

Both entry points take an operator (a ``DiscreteHamiltonian``) whose
``diag`` is one diagonal (N,) or a batch (B, N): B operators that share the
box's off-diagonal part and take one row each as their diagonal.  A batch of
none (B = 0) gives empty results, shaped as for B operators.

Solver settings are the module constants below, not options.
``lowest_eigenvalues`` returns every residual within ``EIG_TOL * (1 + |E|)``.
A tridiagonal operator (d = 1 under a non-periodic condition), whatever its
size, is solved by multisection on Sturm counts: each sweep counts K
trial energies inside the bracket of every (operator, level) pair at once,
until each bracket is as narrow as the rounding of the count.  Its
eigenvectors come from inverse iteration shifted by those eigenvalues: a
batched LDL^T solve over the same (N, B) columns, the levels of each operator
orthonormalized after every solve.  Any other operator is solved directly up
to ``DENSE_THRESHOLD`` degrees of freedom and by shift-invert Lanczos above.
Inverse iteration and Lanczos start from one fixed vector on [-1, 1), drawn
from the package's Philox stream keyed on ``START_KEY``, so a solve repeats
bit for bit and loads no ``numpy.random``.
A direct solve is dense: NumPy's ``eigh`` at d = 1 (periodic boxes, the unit
cell among them), SciPy's subset ``eigh`` at d >= 2, where SciPy is loaded
anyway.

``count_below``, the one counting engine, uses matrix inertia: the number of
negative pivots of a symmetric triangular factorization of H - E*I equals the
number of eigenvalues below E.  Tridiagonal operators run one Sturm sweep over
every (diagonal, energy) pair, reading ~``SWEEP_VALUES`` diagonal values at a
time (a ``lattice.RandomBatch`` computes each row block as its base diagonals
plus one ``random_potentials`` call over those rows); other
sparse operators run sparse LDL^T on each whole diagonal, with a dense
eigenvalue count (NumPy's ``eigvalsh``) at the same energy when a pivot is
near zero, the factor grows past ``GROWTH_TOL`` or SuperLU pivots off the
diagonal (its signs are then not the inertia).  Counts are taken at E + 0:
a pair hitting a pivot or eigenvalue within ``PIVOT_TOL`` of zero is nudged up
by 1e-12*(1+|E|), doubling on each of at most 8 retries, which matches the
closed-under-"<=" convention up to a measure-zero set of energies.

SciPy is imported only by the paths that need it: sparse LDL^T, shift-invert
Lanczos and dense solves at d >= 2.  A d = 1 run loads none of it.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import philox
from .errors import ConvergenceError, NumericalError

DENSE_THRESHOLD = 2000
EIG_TOL = 1e-9
PIVOT_TOL = 1e-12
GROWTH_TOL = 1e8
EPS = np.finfo(float).eps
START_KEY = (0x57A127, 0)  # the Philox stream of the fixed start vectors
SWEEP_VALUES = 2**15  # pivots, and diagonal values, a Sturm sweep holds per block of rows


@dataclass(frozen=True)
class SpectralResult:
    """Lowest eigenvalues in nondecreasing order, repeated by multiplicity.

    ``vectors`` holds the matching unit eigenvectors as columns.  For a batch
    of operators every field but ``method`` gains a leading batch axis.
    """

    energies: np.ndarray
    residuals: np.ndarray
    method: str
    vectors: np.ndarray


def lowest_eigenvalues(H, m: int) -> SpectralResult:
    """The m smallest eigenvalues of a symmetric operator, or of each operator
    of a batch (``H.diag`` shaped (B, N)).

    A tridiagonal operator takes multisection and inverse iteration (method
    "tridiagonal") at any size.  Any other takes dense ``eigh`` ("dense") up to
    ``DENSE_THRESHOLD`` degrees of freedom (read at call time), NumPy's at
    d = 1 and SciPy's subset solver at d >= 2, and shift-invert Lanczos
    ("iterative") above the threshold, from one fixed generic start vector so
    that a call repeats bit for bit.  Every returned pair satisfies
    ||H v - E v|| <= EIG_TOL * (1 + |E|), otherwise a ConvergenceError
    carrying the best iterate is raised.
    """
    box, rows = H.box, np.atleast_2d(H.diag)
    B, N = rows.shape
    if m < 1:
        raise ValueError("need m >= 1 eigenvalues")
    m = min(m, N)
    w, v = np.empty((B, m)), np.empty((B, N, m))
    if box.tridiagonal:
        w = _sturm_levels(box.off, rows, m)
        v = _inverse_iteration(box.off, rows, w)
        method = "tridiagonal"
    elif N <= DENSE_THRESHOLD or m >= N - 1:
        for b, row in enumerate(rows):
            op = replace(H, diag=row)
            if box.grid.d == 1:  # a periodic box, the unit cell among them
                vals, vecs = np.linalg.eigh(op.to_dense())
            else:  # SciPy is loaded at d >= 2; its subset solver forms only m vectors
                from scipy.linalg import eigh

                vals, vecs = eigh(op.to_dense(), subset_by_index=(0, m - 1))
            w[b], v[b] = vals[:m], vecs[:, :m]
        method = "dense"
    else:
        import scipy.sparse.linalg as spla

        for b, row in enumerate(rows):
            A = replace(H, diag=row).matrix
            row_abs = np.asarray(np.abs(A).sum(axis=1)).ravel()
            sigma = float((row - (row_abs - np.abs(row))).min()) - 1.0
            try:
                vals, vecs = spla.eigsh(A, k=m, sigma=sigma, which="LM", tol=EIG_TOL * 1e-2,
                                        v0=_start(N))
            except spla.ArpackNoConvergence as err:
                raise ConvergenceError(
                    f"eigensolver stalled after max iterations ({err})",
                    best=(err.eigenvalues, err.eigenvectors),
                ) from err
            order = np.argsort(vals)
            w[b], v[b] = vals[order], vecs[:, order]
        method = "iterative"
    if H.diag.ndim == 1:
        w, v = w[0], v[0]
    # the residual of each column, a contiguous 1-D dot product as in np.linalg.norm
    r = np.swapaxes(H @ v - w[..., None, :] * v, -1, -2).copy()
    resid = np.sqrt((r[..., None, :] @ r[..., None])[..., 0, 0])
    bad = ~(resid <= EIG_TOL * (1.0 + np.abs(w)))
    if np.any(bad):
        raise ConvergenceError(
            f"{int(bad.sum())} eigenpairs exceed the residual tolerance",
            best=(w, v, resid),
        )
    return SpectralResult(energies=w, residuals=resid, method=method, vectors=v)


def _sturm_levels(off, rows, m):
    """The m lowest eigenvalues (B, m) of the tridiagonal operators with
    couplings ``off`` and diagonal rows ``rows`` (B, N): multisection on
    ``_sturm_counts``.  Each sweep counts K trial energies inside the bracket
    of every (operator, level) pair, K chosen so that a sweep holds ~2048
    pairs, and keeps the two trials between which the count passes the level.
    A bracket is done once it is within EPS * max(4 |E|, |T| / 8), |T| the
    Gershgorin bound of its operator: as narrow as the rounding of a count."""
    B = rows.shape[0]
    cols = np.ascontiguousarray(rows.T)  # every sweep reads it without a copy
    radius = np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off])
    lo = np.repeat((rows - radius).min(axis=1)[None, :], m, axis=0)  # (m, B)
    hi = np.repeat((rows + radius).max(axis=1)[None, :], m, axis=0)
    floor = EPS / 8.0 * np.maximum(np.abs(lo), np.abs(hi))
    level = np.arange(m)[:, None]
    K = int(np.clip(2048 // max(B * m, 1), 4, 64))
    frac = (np.arange(1, K + 1) / (K + 1))[:, None, None]
    while np.any(hi - lo > np.maximum(floor, 4.0 * EPS * np.maximum(np.abs(lo), np.abs(hi)))):
        trial = lo + (hi - lo) * frac  # (K, m, B)
        counts, _ = _sturm_counts(off, lambda i, j, _: cols[i:j], None, trial.reshape(K * m, B))
        passed = (counts.reshape(K, m, B) <= level).sum(axis=0)  # trials below the level
        below = np.take_along_axis(trial, np.maximum(passed - 1, 0)[None], axis=0)[0]
        above = np.take_along_axis(trial, np.minimum(passed, K - 1)[None], axis=0)[0]
        lo, hi = np.where(passed > 0, below, lo), np.where(passed < K, above, hi)
    return ((lo + hi) / 2.0).T


def _inverse_iteration(off, rows, w):
    """Unit eigenvectors (B, N, m) for the eigenvalues ``w`` (B, m) of the
    tridiagonal operators of ``_sturm_levels``: two steps of inverse iteration
    from a fixed start vector per level, every (operator, level) column
    shifted by its eigenvalue and solved through one LDL^T factorization (an
    exact zero pivot replaced by EPS * |T|; a tiny one only makes the step
    larger).  After each solve the levels of an operator are orthonormalized
    in order, which also separates levels closer than the shifts can."""
    rows = np.ascontiguousarray(rows)  # the sums below run in stride order
    N = rows.shape[1]
    m = w.shape[1]
    shifted = rows.T[:, :, None] - w  # (N, B, m)
    tiny = EPS * (np.abs(rows).max(initial=0.0) + 2.0 * np.abs(off).max())
    piv = np.empty_like(shifted)
    mult = np.empty((N - 1,) + w.shape)  # the subdiagonal of L: off / pivot
    piv[0] = shifted[0]
    for i in range(N):
        if i:
            np.divide(off[i - 1], piv[i - 1], out=mult[i - 1])
            np.subtract(shifted[i], off[i - 1] * mult[i - 1], out=piv[i])
        piv[i][piv[i] == 0.0] = tiny
    inv = 1.0 / piv
    x = np.empty_like(shifted)
    x[:] = _start(N * m).reshape(N, 1, m)  # one start per level
    for _ in range(2):
        for i in range(1, N):  # L y = x
            x[i] -= mult[i - 1] * x[i - 1]
        x[-1] *= inv[-1]
        for i in range(N - 2, -1, -1):  # D L^T x = y
            x[i] *= inv[i]
            x[i] -= mult[i] * x[i + 1]
        for j in range(m):
            for k in range(j):
                x[:, :, j] -= np.einsum("nb,nb->b", x[:, :, j], x[:, :, k]) * x[:, :, k]
            x[:, :, j] /= np.sqrt(np.einsum("nb,nb->b", x[:, :, j], x[:, :, j]))
    return np.ascontiguousarray(x.transpose(1, 0, 2))


def _start(size: int) -> np.ndarray:
    """The fixed generic start vector of the eigensolvers: ``size`` draws on
    [-1, 1) from the Philox stream keyed on ``START_KEY``."""
    return 2.0 * philox.doubles([START_KEY], size)[0] - 1.0


def _dense_inertia(A: np.ndarray, pivot_tol: float):
    """Count of the eigenvalues of the dense symmetric A below zero.

    Returns (count, ok); ok is False when an eigenvalue sits within pivot_tol
    of zero relative to the matrix scale.
    """
    w = np.linalg.eigvalsh(A)
    scale = max(1.0, float(np.abs(A).max()))
    return int(np.sum(w < 0.0)), not np.any(np.abs(w) <= pivot_tol * scale)


def _sparse_inertia(A, pivot_tol: float):
    """Negative-pivot count from a symmetric-permutation sparse factorization.

    Returns (count, ok); ok is False when a pivot sits within pivot_tol of zero
    relative to the matrix scale, when an entry of U is not finite or exceeds
    GROWTH_TOL times that scale (next to a highly degenerate level the signs
    of such a factorization miscount), or when SuperLU pivoted off the
    diagonal.
    """
    import scipy.sparse.linalg as spla

    scale = max(1.0, float(np.abs(A.data).max()) if A.nnz else 1.0)
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:
        return 0, False
    U = lu.U
    pivots = U.diagonal()
    largest = np.maximum(U.data.max(initial=0.0), -U.data.min(initial=0.0))  # NaN stays NaN
    if (not np.array_equal(lu.perm_r, lu.perm_c) or np.any(np.abs(pivots) <= pivot_tol * scale)
            or not largest <= GROWTH_TOL * scale):
        return 0, False
    return int(np.sum(pivots < 0.0)), True


def _sturm_counts(off, read, which, e):
    """Sturm sweep of the tridiagonal operators with couplings ``off`` over
    every pair of ``e`` (K, R), pair (k, r) taking column r of ``read(..,
    which)`` as its diagonal: the number of LDL^T pivots of H - E that are
    <= 0, and whether every pivot of the pair stayed finite and above
    PIVOT_TOL * max(1, max |row| + |E|).  The recurrence is LAPACK's (dstebz),
    run on the negated pivots so that an exact zero pivot counts and is
    followed as -0, a block of ~``SWEEP_VALUES`` pivots read and counted at once."""
    off2 = off**2
    N = off.size + 1
    block = int(np.clip(SWEEP_VALUES // max(e.size, 1), 1, N))
    piv = np.empty((block,) + e.shape)  # minus the pivots of the rows of a block
    neg, smallest = np.zeros(e.shape, dtype=int), np.full(e.shape, np.inf)
    top = np.zeros(e.shape[1])  # the largest |diagonal value| of each column
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, N, block):
            rows = np.ascontiguousarray(read(start, min(start + block, N), which))
            np.maximum(top, np.maximum(rows.max(axis=0), -rows.min(axis=0)), out=top)
            for j, row in enumerate(rows):
                cur = piv[j]
                if start + j:
                    np.divide(off2[start + j - 1], prev, out=cur)
                    np.add(row, cur, out=cur)
                    np.subtract(e, cur, out=cur)
                else:
                    np.subtract(e, row, out=cur)
                prev = cur
            done = piv[:len(rows)]
            neg += (done >= 0.0).sum(axis=0)
            # a NaN pivot keeps smallest NaN, so the pair is retried
            np.minimum(smallest, np.abs(done).min(axis=0), out=smallest)
            del rows, row  # freed before the next block is read
    return neg, smallest > PIVOT_TOL * np.maximum(1.0, top + np.abs(e))


def _factor_counts(A, read, which, e):
    """Inertia of A - E*I with its diagonal replaced by column r of ``read(..,
    which)``, read once for all its energies, for every pair (k, r) of ``e``
    (K, R): sparse LDL^T on one CSC copy of A whose diagonal slots take each
    shifted column, the dense eigenvalue count at the same energy where it
    breaks down (and always for ndarray input)."""
    import scipy.sparse as sps

    counts, ok = np.zeros(e.shape, dtype=int), np.zeros(e.shape, dtype=bool)
    sparse = sps.issparse(A)
    if sparse:  # a diagonal slot in every column, filled per pair
        n = np.arange(A.shape[0])
        A = sps.csc_matrix(sps.triu(A, 1) + sps.tril(A, -1) + sps.identity(n.size))
        slots = np.flatnonzero(A.indices == np.repeat(n, np.diff(A.indptr)))
    dense = None if sparse else np.array(A, dtype=float)
    for r, col in enumerate(np.arange(e.shape[1]) if which is None else which):
        column = read(0, A.shape[0], np.array([col]))[:, 0]
        for k, energy in enumerate(e[:, r]):
            shifted = column - energy
            if sparse:
                A.data[slots] = shifted
                counts[k, r], ok[k, r] = _sparse_inertia(A, PIVOT_TOL)
            if not ok[k, r]:
                if dense is None:
                    dense = A.toarray()
                np.fill_diagonal(dense, shifted)
                counts[k, r], ok[k, r] = _dense_inertia(dense, PIVOT_TOL)
    return counts, ok


def count_below(H, E):
    """N(E, H) = #{eigenvalues <= E} via the inertia of H - E*I.

    ``E`` is one energy or a 1-D grid.  ``H`` is a matrix or an operator,
    whose ``diag`` may be a batch (B, N): B operators that share the
    off-diagonal part and take one row each as their diagonal: an array, best
    the transpose of a C-ordered (N, B) one as ``random_potentials`` returns,
    or a ``lattice.RandomBatch``.  Returns int counts shaped shape(E), with a
    leading B axis for a batch.  For a batch, a 2-D ``E`` (B, K) is one grid
    per operator, row b counted on operator b, and the counts are shaped (B, K) too.

    A tridiagonal operator runs one Sturm sweep over all (row, energy) pairs;
    other sparse input runs sparse LDL^T, with a dense eigenvalue count at the
    same energy on breakdown; ndarray input runs the eigenvalue count.  A pair
    meeting a near-zero pivot is retried at a nudged energy, at most 8 times,
    reading the diagonals of the retried pairs alone.
    """
    box, diag = getattr(H, "box", H), H.diagonal()
    B = diag.shape[0] if diag.ndim == 2 else 1
    if getattr(box, "tridiagonal", False):
        kernel, A = _sturm_counts, box.off
    else:
        kernel, A = _factor_counts, getattr(box, "stencil", box)
    energy = np.asarray(E, dtype=float)
    grids = diag.ndim == 2 and energy.ndim == 2  # a batch, one grid per operator
    grid = energy if grids else energy.reshape(1, -1)
    e = np.broadcast_to(grid, (B, grid.shape[1])).T.copy()  # (K, B), nudged per pair
    shape = (B,) + energy.shape[1 if grids else 0:] if diag.ndim == 2 else energy.shape
    # the one row-block accessor: rows i:j of the (N, B) layout, all columns or ``which``
    cols = np.atleast_2d(diag).T if isinstance(diag, np.ndarray) else None
    read = diag.rows if cols is None else (
        lambda i, j, which: cols[i:j] if which is None else cols[i:j, which])
    counts, ok = kernel(A, read, None, e)
    for attempt in range(8):
        if ok.all():
            break
        k, r = np.nonzero(~ok)
        e[k, r] += 1e-12 * (1.0 + np.abs(e[k, r])) * (2.0**attempt)
        got, good = kernel(A, read, r, e[k, r][None, :])
        counts[k, r], ok[k, r] = got[0], good[0]
    if not ok.all():
        raise NumericalError(f"factorization kept hitting near-zero pivots near E={E}")
    return np.ascontiguousarray(counts.T).reshape(shape)[()]
