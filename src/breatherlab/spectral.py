"""Spectral primitives: lowest eigenvalues and the eigenvalue count.

Solver settings are the module constants below, not options: eigensolves are
direct up to ``DENSE_THRESHOLD`` degrees of freedom (tridiagonal LAPACK for d = 1
operators under a non-periodic condition, dense otherwise) and shift-invert
Lanczos above, with every residual within ``EIG_TOL * (1 + |E|)``.

``count_below``, the one counting engine, uses matrix inertia: the number of
negative pivots of a symmetric triangular factorization of H - E*I equals the
number of eigenvalues below E.  Tridiagonal operators run one Sturm sweep over
every (diagonal, energy) pair; other sparse operators run sparse LDL^T, with
dense Bunch-Kaufman at the same energy when a pivot is near zero or SuperLU
pivots off the diagonal (its signs are then not the inertia).  Counts are
taken at E + 0: a pair hitting a pivot within ``PIVOT_TOL`` of zero is nudged
up by 1e-12*(1+|E|), doubling on each of at most 8 retries, which matches the
closed-under-"<=" convention up to a measure-zero set of energies.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from scipy import linalg

from .errors import ConvergenceError, NumericalError

DENSE_THRESHOLD = 2000
EIG_TOL = 1e-9
PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class SpectralResult:
    """Lowest eigenvalues in nondecreasing order, repeated by multiplicity.

    ``vectors`` holds the matching unit eigenvectors as columns.
    """

    energies: np.ndarray
    residuals: np.ndarray
    method: str
    vectors: np.ndarray


def _matrix_of(H):
    return H.matrix if hasattr(H, "matrix") else H


def lowest_eigenvalues(H, m: int) -> SpectralResult:
    """The m smallest eigenvalues of a symmetric operator.

    Direct solves up to ``DENSE_THRESHOLD`` degrees of freedom (read at call
    time): LAPACK ``eigh_tridiagonal`` (method "tridiagonal") on an operator
    that says it is ``tridiagonal``, dense ``eigh`` ("dense") otherwise;
    shift-invert Lanczos ("iterative") above the threshold.  Every returned
    pair satisfies ||H v - E v|| <= EIG_TOL * (1 + |E|), otherwise a
    ConvergenceError carrying the best iterate is raised.
    """
    A = _matrix_of(H)
    N = A.shape[0]
    if m < 1:
        raise ValueError("need m >= 1 eigenvalues")
    m = min(m, N)
    if N <= DENSE_THRESHOLD or m >= N - 1:
        if getattr(H, "tridiagonal", False):
            w, v = linalg.eigh_tridiagonal(A.diagonal(), A.diagonal(1), select="i",
                                           select_range=(0, m - 1))
            method = "tridiagonal"
        else:
            dense = A.toarray() if sps.issparse(A) else np.asarray(A)
            w, v = linalg.eigh(dense, subset_by_index=(0, m - 1))
            method = "dense"
    else:
        diag = A.diagonal()
        row_abs = np.asarray(np.abs(A).sum(axis=1)).ravel()
        sigma = float((diag - (row_abs - np.abs(diag))).min()) - 1.0
        try:
            w, v = spla.eigsh(A, k=m, sigma=sigma, which="LM", tol=EIG_TOL * 1e-2)
        except spla.ArpackNoConvergence as err:
            raise ConvergenceError(
                f"eigensolver stalled after max iterations ({err})",
                best=(err.eigenvalues, err.eigenvectors),
            ) from err
        order = np.argsort(w)
        w, v = w[order], v[:, order]
        method = "iterative"
    resid = np.array([
        np.linalg.norm(A @ v[:, j] - w[j] * v[:, j]) for j in range(m)
    ])
    bad = resid > EIG_TOL * (1.0 + np.abs(w))
    if np.any(bad):
        raise ConvergenceError(
            f"{int(bad.sum())} eigenpairs exceed the residual tolerance",
            best=(w, v, resid),
        )
    return SpectralResult(energies=w, residuals=resid, method=method, vectors=v)


def _dense_inertia(A: np.ndarray, pivot_tol: float):
    """Negative-pivot count from a dense LDL^T factorization.

    Returns (count, ok); ok is False when a pivot sits within pivot_tol of
    zero relative to the matrix scale.
    """
    scale = max(1.0, float(np.abs(A).max()))
    _, D, _ = linalg.ldl(A)
    n = A.shape[0]
    count = 0
    i = 0
    while i < n:
        if i + 1 < n and D[i, i + 1] != 0.0:
            a, b, c = D[i, i], D[i, i + 1], D[i + 1, i + 1]
            det = a * c - b * b
            tr = a + c
            if abs(det) <= (pivot_tol * scale) ** 2:
                return count, False
            if det < 0.0:
                count += 1
            elif tr < 0.0:
                count += 2
            i += 2
        else:
            p = D[i, i]
            if abs(p) <= pivot_tol * scale:
                return count, False
            if p < 0.0:
                count += 1
            i += 1
    return count, True


def _sparse_inertia(A: sps.csc_matrix, pivot_tol: float):
    """Negative-pivot count from a symmetric-permutation sparse factorization.

    Returns (count, ok); ok is False when a pivot sits within pivot_tol of zero
    relative to the matrix scale, or when SuperLU pivoted off the diagonal.
    """
    scale = max(1.0, float(np.abs(A.data).max()) if A.nnz else 1.0)
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:
        return 0, False
    pivots = lu.U.diagonal()
    if (not np.array_equal(lu.perm_r, lu.perm_c) or not np.all(np.isfinite(pivots))
            or np.any(np.abs(pivots) <= pivot_tol * scale)):
        return 0, False
    return int(np.sum(pivots < 0.0)), True


def _sturm_counts(A, rows, e):
    """Sturm sweep of tridiagonal ``A`` over every pair of ``e`` (K, R), pair
    (k, r) taking row r of ``rows`` (R, N) as its diagonal: the negative pivots
    of the LDL^T recurrence, and whether every pivot of the pair stayed finite
    and above PIVOT_TOL * max(1, max |row| + |E|)."""
    cols = np.ascontiguousarray(rows.T)  # each step reads one contiguous row of cols
    off2 = A.diagonal(1) ** 2
    dcur = cols[0] - e
    neg = (dcur < 0.0).astype(int)
    smallest = np.abs(dcur)  # a NaN pivot keeps it NaN, so the pair is retried
    shifted, flag = np.empty_like(dcur), np.empty(dcur.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(1, cols.shape[0]):
            np.subtract(cols[i], e, out=shifted)
            np.divide(off2[i - 1], dcur, out=dcur)
            np.subtract(shifted, dcur, out=dcur)
            neg += np.less(dcur, 0.0, out=flag)
            np.minimum(smallest, np.abs(dcur, out=shifted), out=smallest)
    row_max = np.maximum(cols.max(axis=0), -cols.min(axis=0))
    return neg, smallest > PIVOT_TOL * np.maximum(1.0, row_max + np.abs(e))


def _factor_counts(A, rows, e):
    """Inertia of A - E*I with its diagonal replaced by row r, for every pair
    (k, r) of ``e`` (K, R): sparse LDL^T on one CSC copy of A whose diagonal
    slots take each shifted row, Bunch-Kaufman at the same energy where it
    breaks down (and always for ndarray input)."""
    counts, ok = np.zeros(e.shape, dtype=int), np.zeros(e.shape, dtype=bool)
    sparse = sps.issparse(A)
    if sparse:  # a diagonal slot in every column, filled per pair
        n = np.arange(A.shape[0])
        A = sps.csc_matrix(sps.triu(A, 1) + sps.tril(A, -1) + sps.identity(n.size))
        slots = np.flatnonzero(A.indices == np.repeat(n, np.diff(A.indptr)))
    dense = None if sparse else np.array(A, dtype=float)
    for (k, r), energy in np.ndenumerate(e):
        shifted = rows[r] - energy
        if sparse:
            A.data[slots] = shifted
            counts[k, r], ok[k, r] = _sparse_inertia(A, PIVOT_TOL)
        if not ok[k, r]:
            if dense is None:
                dense = A.toarray()
            np.fill_diagonal(dense, shifted)
            counts[k, r], ok[k, r] = _dense_inertia(dense, PIVOT_TOL)
    return counts, ok


def count_below(H, E, diagonals=None):
    """N(E, H) = #{eigenvalues <= E} via the inertia of H - E*I.

    ``E`` is one energy or a 1-D grid.  ``diagonals`` (B, N) stands for B
    operators that keep the off-diagonal part of H and take one row each as
    their diagonal; pass the transpose of a C-ordered (N, B) array so the Sturm
    sweep reads contiguous memory without a copy.  Returns int counts shaped
    (B,) + shape(E), or shape(E) without ``diagonals``.

    An operator that says it is ``tridiagonal`` runs one Sturm sweep over all
    (row, energy) pairs; other sparse input runs sparse LDL^T, with
    Bunch-Kaufman at the same energy on breakdown; ndarray input runs
    Bunch-Kaufman.  A pair meeting a near-zero pivot is retried at a nudged
    energy, at most 8 times.
    """
    A = _matrix_of(H)
    rows = A.diagonal()[None, :] if diagonals is None else np.asarray(diagonals, dtype=float)
    kernel = _sturm_counts if getattr(H, "tridiagonal", False) else _factor_counts
    energy = np.asarray(E, dtype=float)
    e = np.repeat(energy.reshape(-1, 1), rows.shape[0], axis=1)  # (K, B), nudged per pair
    counts, ok = kernel(A, rows, e)
    for attempt in range(8):
        if ok.all():
            break
        k, r = np.nonzero(~ok)
        e[k, r] += 1e-12 * (1.0 + np.abs(e[k, r])) * (2.0**attempt)
        got, good = kernel(A, rows[r], e[k, r][None, :])
        counts[k, r], ok[k, r] = got[0], good[0]
    if not ok.all():
        raise NumericalError(f"factorization kept hitting near-zero pivots near E={E}")
    shape = energy.shape if diagonals is None else rows.shape[:1] + energy.shape
    return np.ascontiguousarray(counts.T).reshape(shape)[()]
