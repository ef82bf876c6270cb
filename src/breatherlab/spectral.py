"""Spectral primitives: lowest eigenvalues and counting functions.

Solver settings are the module constants below, not options: eigensolves are
direct up to ``DENSE_THRESHOLD`` degrees of freedom (tridiagonal LAPACK for d = 1
operators under a non-periodic condition, dense otherwise) and shift-invert
Lanczos above, with every residual within ``EIG_TOL * (1 + |E|)``.

Counting uses matrix inertia: the number of negative pivots of a symmetric
triangular factorization of H - E*I equals the number of eigenvalues below E.
Tridiagonal operators run the Sturm recurrence, batched over rows that share
one off-diagonal; other sparse operators run sparse LDL^T, with dense
Bunch-Kaufman at the same energy when it breaks down.  Counts are
always taken at E + 0: energies hitting a pivot within ``PIVOT_TOL`` of zero
are nudged up by 1e-12*(1+|E|) and recomputed, which matches the
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


@dataclass(frozen=True)
class CountingValue:
    energy: float
    count: int


def _matrix_of(H):
    return H.matrix if hasattr(H, "matrix") else H


def lowest_eigenvalues(H, m: int) -> SpectralResult:
    """The m smallest eigenvalues of a symmetric operator.

    Direct ("dense") solves up to ``DENSE_THRESHOLD`` degrees of freedom (read
    at call time): LAPACK ``eigh_tridiagonal`` on an operator that says it is
    ``tridiagonal``, dense ``eigh`` otherwise; shift-invert Lanczos above the
    threshold.  Every returned pair satisfies
    ||H v - E v|| <= EIG_TOL * (1 + |E|), otherwise a ConvergenceError
    carrying the best iterate is raised.
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
    """Negative-pivot count from a symmetric-permutation sparse factorization."""
    scale = max(1.0, float(np.abs(A.data).max()) if A.nnz else 1.0)
    try:
        lu = spla.splu(
            A,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:
        return 0, False
    pivots = lu.U.diagonal()
    if np.any(np.abs(pivots) <= pivot_tol * scale) or not np.all(np.isfinite(pivots)):
        return 0, False
    return int(np.sum(pivots < 0.0)), True


def tridiag_count_below(diag: np.ndarray, off: np.ndarray, E, diag_max=None):
    """Eigenvalue counts <= E for a batch of symmetric tridiagonal matrices.

    ``diag`` is (B, N), one row per matrix, ``off`` (N-1,) is shared and ``E``
    is one energy or one per row; pass the transpose of a C-ordered (N, B)
    array so each step of the LDL^T pivot recurrence (Sturm sequence) reads
    contiguous memory.  A row's pivot tolerance is PIVOT_TOL * max(1,
    diag_max + |E|), ``diag_max`` defaulting to max |diag|; a row that meets a
    near-zero (or non-finite) pivot is retried at a nudged energy, at most 8
    times.
    """
    cols = np.asarray(diag, dtype=float).T
    B = cols.shape[1]
    off = np.asarray(off, dtype=float)
    off2 = off * off
    energy = np.array(np.broadcast_to(np.asarray(E, dtype=float), (B,)))
    if diag_max is None:
        diag_max = float(np.abs(cols).max())
    tol = PIVOT_TOL * np.maximum(1.0, diag_max + np.abs(energy))

    counts = np.zeros(B, dtype=int)
    pending = np.arange(B)
    for attempt in range(9):
        rows = cols if pending.size == B else cols[:, pending]
        e = energy[pending]
        dcur = rows[0] - e
        neg = (dcur < 0.0).astype(int)
        smallest = np.abs(dcur)  # a NaN pivot keeps it NaN, so the row is retried
        shifted, flag = np.empty_like(dcur), np.empty(dcur.shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for i in range(1, rows.shape[0]):
                np.subtract(rows[i], e, out=shifted)
                np.divide(off2[i - 1], dcur, out=dcur)
                np.subtract(shifted, dcur, out=dcur)
                neg += np.less(dcur, 0.0, out=flag)
                np.minimum(smallest, np.abs(dcur, out=shifted), out=smallest)
        ok = smallest > tol[pending]
        counts[pending[ok]] = neg[ok]
        pending = pending[~ok]
        if pending.size == 0:
            return counts
        energy[pending] += 1e-12 * (1.0 + np.abs(energy[pending])) * (2.0**attempt)
    raise NumericalError(
        f"tridiagonal factorization kept hitting near-zero pivots at E={E}"
    )


def count_below(H, E: float) -> CountingValue:
    """N(E, H) = #{eigenvalues <= E} via the inertia of H - E*I.

    An operator that says it is ``tridiagonal``: Sturm recurrence; other
    sparse input: sparse LDL^T with Bunch-Kaufman at the same energy on
    breakdown; ndarray: Bunch-Kaufman.
    """
    A = _matrix_of(H)
    N = A.shape[0]
    sparse = sps.issparse(A)

    if getattr(H, "tridiagonal", False):
        cnt = tridiag_count_below(A.diagonal()[None, :], A.diagonal(1), E)
        return CountingValue(energy=float(E), count=int(cnt[0]))
    if sparse:
        A = A.tocsc()

    energy = float(E)
    for attempt in range(8):
        ok = False
        if sparse:
            shifted = (A - energy * sps.identity(N, format="csc")).tocsc()
            count, ok = _sparse_inertia(shifted, PIVOT_TOL)
        if not ok:
            dense = A.toarray() if sparse else np.asarray(A, dtype=float)
            count, ok = _dense_inertia(dense - energy * np.eye(N), PIVOT_TOL)
        if ok:
            return CountingValue(energy=float(E), count=int(count))
        energy = energy + 1e-12 * (1.0 + abs(energy)) * (2.0**attempt)
    raise NumericalError(f"factorization breakdown persisted near E={E}")

