"""Spectral primitives: lowest eigenvalues, counting functions, gaps.

Counting uses matrix inertia: the number of negative pivots of a symmetric
triangular factorization of H - E*I equals the number of eigenvalues below E.
Sparse operators run sparse LDL^T (the Sturm recurrence when tridiagonal),
with dense Bunch-Kaufman at the same energy when it breaks down;
``dense_threshold`` governs the eigensolvers only.  Counts are always taken
at E + 0: energies hitting a pivot within ``pivot_tol`` of zero are nudged
up by 1e-12*(1+|E|) and recomputed, which matches the closed-under-"<="
convention up to a measure-zero set of energies.
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


def lowest_eigenvalues(H, m: int, tol: float = EIG_TOL,
                       dense_threshold: int = DENSE_THRESHOLD) -> SpectralResult:
    """The m smallest eigenvalues of a symmetric operator.

    Dense solves below ``dense_threshold`` degrees of freedom; shift-invert
    Lanczos above it.  Every returned pair satisfies
    ||H v - E v|| <= tol * (1 + |E|), otherwise a ConvergenceError carrying
    the best iterate is raised.
    """
    A = _matrix_of(H)
    N = A.shape[0]
    if m < 1:
        raise ValueError("need m >= 1 eigenvalues")
    m = min(m, N)
    if N <= dense_threshold or m >= N - 1:
        dense = A.toarray() if sps.issparse(A) else np.asarray(A)
        w, v = linalg.eigh(dense, subset_by_index=(0, m - 1))
        method = "dense"
    else:
        diag = A.diagonal()
        row_abs = np.asarray(np.abs(A).sum(axis=1)).ravel()
        sigma = float((diag - (row_abs - np.abs(diag))).min()) - 1.0
        try:
            w, v = spla.eigsh(A, k=m, sigma=sigma, which="LM", tol=tol * 1e-2)
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
    bad = resid > tol * (1.0 + np.abs(w))
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


def tridiag_count_below(diag: np.ndarray, off: np.ndarray, E: float,
                        pivot_tol: float = PIVOT_TOL, max_retries: int = 8):
    """Eigenvalue counts <= E for a batch of symmetric tridiagonal matrices.

    ``diag`` has shape (..., N) and ``off`` shape (N-1,) or (..., N-1); the
    count is returned per batch row.  This is the LDL^T pivot recurrence
    (Sturm sequence), vectorized across the batch.
    """
    diag = np.atleast_2d(np.asarray(diag, dtype=float))
    off = np.asarray(off, dtype=float)
    if off.ndim == 1:
        off = np.broadcast_to(off, diag.shape[:-1] + off.shape)
    B, N = diag.shape[0], diag.shape[-1]
    off2 = off * off
    scale = max(1.0, float(np.abs(diag).max()) + abs(E))

    counts = np.zeros(B, dtype=int)
    pending = np.arange(B)
    energy = np.full(B, float(E))
    for attempt in range(max_retries + 1):
        dcur = diag[pending, 0] - energy[pending]
        neg = (dcur < 0.0).astype(int)
        bad = np.abs(dcur) <= pivot_tol * scale
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for i in range(1, N):
                dcur = (diag[pending, i] - energy[pending]) - off2[pending, i - 1] / dcur
                neg += dcur < 0.0
                bad |= np.abs(dcur) <= pivot_tol * scale
                bad |= ~np.isfinite(dcur)
        ok = ~bad
        counts[pending[ok]] = neg[ok]
        pending = pending[bad]
        if pending.size == 0:
            return counts
        energy[pending] += 1e-12 * (1.0 + np.abs(energy[pending])) * (2.0**attempt)
    raise NumericalError(
        f"tridiagonal factorization kept hitting near-zero pivots at E={E}"
    )


def count_below(H, E: float, pivot_tol: float = PIVOT_TOL) -> CountingValue:
    """N(E, H) = #{eigenvalues <= E} via the inertia of H - E*I.

    Sparse input: Sturm recurrence if tridiagonal, else sparse LDL^T with
    Bunch-Kaufman at the same energy on breakdown; ndarray: Bunch-Kaufman.
    """
    A = _matrix_of(H)
    N = A.shape[0]
    sparse = sps.issparse(A)

    if sparse:
        upper = sps.triu(A, k=1).tocoo()
        bandwidth = 0 if upper.nnz == 0 else int(np.max(upper.col - upper.row))
        if bandwidth <= 1:
            diag = A.diagonal()
            off = A.diagonal(1)
            cnt = tridiag_count_below(diag[None, :], off, E, pivot_tol)
            return CountingValue(energy=float(E), count=int(cnt[0]))
        A = A.tocsc()

    energy = float(E)
    for attempt in range(8):
        ok = False
        if sparse:
            shifted = (A - energy * sps.identity(N, format="csc")).tocsc()
            count, ok = _sparse_inertia(shifted, pivot_tol)
        if not ok:
            dense = A.toarray() if sparse else np.asarray(A, dtype=float)
            count, ok = _dense_inertia(dense - energy * np.eye(N), pivot_tol)
        if ok:
            return CountingValue(energy=float(E), count=int(count))
        energy = energy + 1e-12 * (1.0 + abs(energy)) * (2.0**attempt)
    raise NumericalError(f"factorization breakdown persisted near E={E}")


def spectral_gap(H, tol: float = EIG_TOL, dense_threshold: int = DENSE_THRESHOLD):
    """(E1, E2, E2 - E1) with eigenvalues repeated by multiplicity."""
    res = lowest_eigenvalues(H, 2, tol=tol, dense_threshold=dense_threshold)
    e1, e2 = float(res.energies[0]), float(res.energies[1])
    return e1, e2, e2 - e1
