"""Finite-difference Hamiltonians on cubes with four boundary treatments.

The cube of side L is tiled by L**d unit cells centered on the integer
lattice sites I_L = {0, ..., L-1}**d, so the box is [-1/2, L-1/2]**d (an
integer translate of the centered cube; every spectral quantity is invariant
under that translation, and integer cell centers keep the periodic extension
of the unit-cell ground state exactly sampled for every L).  Each cell holds
n**d cell-centered grid points with spacing h = 1/n; no grid point lies on a
cell boundary.

The Laplacian is the second-order stencil with ghost-point elimination at the
box faces: the ghost value is a multiple c of the adjacent inner value, with
c = -1 (Dirichlet, odd reflection through the face), c = +1 (Neumann),
c = (2 - rho h)/(2 + rho h) (Robin with coefficient rho at the face), and
c = Psi(ghost)/Psi(inner) for the ground-state (Mezincescu) condition, Psi
being the periodic extension of the unit-cell ground state.  All folds touch
only the diagonal, so every assembled matrix is exactly symmetric.

A box's ``skeleton`` (stencil, V_per, folds) is built once per (model, grid,
boundary condition); a realization only supplies the diagonal V_omega.  In
d = 1 under a non-periodic condition the operator is ``tridiagonal``.
"""

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from .errors import GroundStateError, InputError, StateError
from .model import ModelSpec, normalize_energy, site_values, standardize
from .spectral import lowest_eigenvalues

BC_KINDS = ("dirichlet", "neumann", "periodic", "robin", "mezincescu")


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid: L cells per axis, n points per cell."""

    L: int
    n: int
    d: int = 1

    def __post_init__(self):
        if self.L < 1:
            raise InputError("grid needs L >= 1")
        if self.n < 4:
            raise InputError("grid needs n >= 4 points per cell")
        if self.d not in (1, 2, 3):
            raise InputError("grid dimension must be 1, 2 or 3")

    @property
    def h(self):
        return 1.0 / self.n

    @property
    def points_per_axis(self):
        return self.n * self.L

    @property
    def num_dof(self):
        return self.points_per_axis**self.d

    @property
    def shape(self):
        return (self.points_per_axis,) * self.d

    def axis_coords(self):
        """Global coordinates along one axis, (m + 1/2)h - 1/2."""
        m = np.arange(self.points_per_axis)
        return (m + 0.5) * self.h - 0.5

    def cell_offsets(self):
        """Cell-relative offsets along one axis, strictly inside (-1/2, 1/2)."""
        j = np.arange(self.n)
        return (j + 0.5) * self.h - 0.5

    def offset_points(self):
        """All cell-relative points of one cell, shape (n**d, d)."""
        o = self.cell_offsets()
        mesh = np.meshgrid(*([o] * self.d), indexing="ij")
        return np.stack([ax.ravel() for ax in mesh], axis=-1)

    def point_coords(self, flat_indices):
        """Coordinates of flat grid indices, shape (K, d)."""
        multi = np.unravel_index(np.asarray(flat_indices), self.shape)
        coords = [(m + 0.5) * self.h - 0.5 for m in multi]
        return np.stack(coords, axis=-1)


@dataclass(frozen=True)
class BoundaryCondition:
    """One of dirichlet | neumann | periodic | robin | mezincescu.

    ``rho`` (robin only) is a scalar or a callable mapping boundary points
    (K, d) to coefficients (K,).  ``ground_state`` (mezincescu only) supplies
    the periodic unit-cell ground state used for the ghost ratios.
    """

    kind: str
    rho: object = 0.0
    ground_state: object = None

    def __post_init__(self):
        if self.kind not in BC_KINDS:
            raise InputError(f"unknown boundary condition {self.kind!r}")

    @property
    def label(self):
        return {"dirichlet": "D", "neumann": "N", "periodic": "P",
                "robin": "R", "mezincescu": "M"}[self.kind]


DIRICHLET = BoundaryCondition("dirichlet")
NEUMANN = BoundaryCondition("neumann")
PERIODIC = BoundaryCondition("periodic")


@dataclass(frozen=True)
class GroundStateData:
    """Positive periodic unit-cell ground state and derived constants.

    ``psi`` is normalized so its squared midpoint quadrature over the unit
    cell equals one; c3/c4 are its min/max.  The quadrature weights
    psi**2 * h**d define the measure used by all moment functionals.
    """

    psi: np.ndarray
    energy: float
    c3: float
    c4: float
    n: int
    d: int

    def __post_init__(self):
        arr = np.asarray(self.psi, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "psi", arr)

    def cell_weights(self):
        """Quadrature weights psi(x)**2 h**d over one cell, flattened C-order."""
        h = 1.0 / self.n
        return (self.psi**2).ravel() * h**self.d


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """Assembled symmetric sparse operator on the cube grid."""

    grid: GridSpec
    bc: BoundaryCondition
    matrix: sps.csr_matrix

    @property
    def tridiagonal(self):
        """d = 1 under a non-periodic condition: no wrap-around entry."""
        return self.grid.d == 1 and self.bc.kind != "periodic"

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def num_dof(self):
        return self.matrix.shape[0]

    def to_dense(self):
        return self.matrix.toarray()

    def export_coo(self, file):
        """Write 'row col value' lines, sorted by (row, col), 17 digit floats."""
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        close = False
        if isinstance(file, (str, bytes, os.PathLike)):
            file = open(file, "w", newline="\n")
            close = True
        try:
            for i in order:
                file.write(f"{coo.row[i]} {coo.col[i]} {coo.data[i]:.17g}\n")
        finally:
            if close:
                file.close()


@dataclass(frozen=True)
class BoxSkeleton:
    """Everything of H on one box that a realization does not change.

    ``stencil`` is the CSR pattern of -Laplacian_h with its off-diagonal
    values set and its diagonal entries at ``diag_slots`` of ``stencil.data``;
    ``vper`` is V_per on the grid (flat) and ``folds[axis]`` the ghost folds
    c/h^2 of that axis's two faces (zero off the faces).  A realization only
    moves the diagonal: ``hamiltonian(v)`` is H with V_per + v.
    """

    grid: GridSpec
    bc: BoundaryCondition
    vper: np.ndarray
    folds: np.ndarray
    stencil: sps.csr_matrix
    diag_slots: np.ndarray

    tridiagonal = DiscreteHamiltonian.tridiagonal  # reads only grid and bc

    def diagonal(self, potential) -> np.ndarray:
        """Diagonal of -Laplacian_h + diag(potential), folds applied axis by axis."""
        h2 = self.grid.h * self.grid.h
        diag = np.full(self.grid.num_dof, 2.0 * self.grid.d / h2) + potential
        for fold in self.folds:
            diag -= fold
        return diag

    def operator(self, potential) -> DiscreteHamiltonian:
        """-Laplacian_h + diag(potential) on this box; 0.0 gives the bare kinetic part."""
        mat = self.stencil.copy()
        mat.data[self.diag_slots] = self.diagonal(potential)
        return DiscreteHamiltonian(grid=self.grid, bc=self.bc, matrix=mat)

    def hamiltonian(self, v_random=None) -> DiscreteHamiltonian:
        """H with V_per + ``v_random`` (flat); without it, the periodic operator."""
        return self.operator(self.vper if v_random is None else self.vper + v_random)


def couplings_array(grid: GridSpec, couplings) -> np.ndarray:
    """Normalize couplings (mapping site->lambda, or dense array) to (L,)*d."""
    shape = (grid.L,) * grid.d
    if isinstance(couplings, dict):
        out = np.empty(shape)
        out.fill(np.nan)
        for k, lam in couplings.items():
            key = (k,) if np.isscalar(k) else tuple(k)
            out[key] = lam
        if np.any(np.isnan(out)):
            missing = np.argwhere(np.isnan(out))[0]
            raise InputError(f"missing coupling for site {tuple(missing)}")
        return out
    arr = np.asarray(couplings, dtype=float)
    if arr.shape != shape:
        raise InputError(f"couplings shape {arr.shape}, expected {shape}")
    return arr


def assemble_random_potential(model: ModelSpec, grid: GridSpec, couplings) -> np.ndarray:
    """Sample V_omega = sum_k u(lambda_k, . - k) on the grid, shape (nL,)*d.

    Each grid point belongs to exactly one cell and the site supports stay
    inside their cells, so the sum has at most one nonzero term per point.
    """
    lams = couplings_array(grid, couplings)
    return random_potentials(model, grid, lams.reshape(1, -1))[0].reshape(grid.shape)


def random_potentials(model: ModelSpec, grid: GridSpec, fields) -> np.ndarray:
    """V_omega for a batch of coupling fields (M, L**d), flat: shape (M, (nL)**d)."""
    L, n, d = grid.L, grid.n, grid.d
    fields = np.asarray(fields, dtype=float)
    vals = site_values(model.site, fields.ravel(), grid.offset_points())
    src = vals.reshape((fields.shape[0],) + (L,) * d + (n,) * d)
    # interleave (k1..kd, j1..jd) -> (k1, j1, k2, j2, ...) behind the batch axis
    perm = [0]
    for axis in range(1, d + 1):
        perm.extend([axis, d + axis])
    return np.transpose(src, perm).reshape(fields.shape[0], grid.num_dof)


def _boundary_fold(grid: GridSpec, bc: BoundaryCondition, axis: int, side: int,
                   flat_idx: np.ndarray) -> np.ndarray:
    """Ghost multiplier c for each boundary point on one face."""
    if bc.kind == "dirichlet":
        return np.full(flat_idx.size, -1.0)
    if bc.kind == "neumann":
        return np.full(flat_idx.size, 1.0)
    if bc.kind == "robin":
        pts = grid.point_coords(flat_idx)
        rho = bc.rho(pts) if callable(bc.rho) else np.full(flat_idx.size, float(bc.rho))
        rho = np.asarray(rho, dtype=float)
        denom = 2.0 + rho * grid.h
        if np.any(denom <= 0):
            raise InputError("robin coefficient too negative for this mesh (needs rho*h > -2)")
        return (2.0 - rho * grid.h) / denom
    # mezincescu: ratio of the periodic ground-state extension ghost/inner
    gs = bc.ground_state
    if gs is None:
        raise StateError("mezincescu boundary requested before the ground state was computed")
    if gs.n != grid.n or gs.d != grid.d:
        raise StateError("ground state resolution does not match the grid")
    multi = list(np.unravel_index(flat_idx, grid.shape))
    inner = [m % grid.n for m in multi]
    ghost = list(inner)
    shift = -1 if side == 0 else 1
    ghost[axis] = (multi[axis] + shift) % grid.n
    psi = gs.psi
    return psi[tuple(ghost)] / psi[tuple(inner)]


def skeleton(model: ModelSpec, grid: GridSpec, bc: BoundaryCondition) -> BoxSkeleton:
    """Build the parts of H on one box that no realization changes."""
    if model.d != grid.d:
        raise InputError("model and grid dimension disagree")
    d, npa = grid.d, grid.points_per_axis
    N = grid.num_dof
    h2 = grid.h * grid.h
    flat = np.arange(N).reshape(grid.shape)

    rows, cols, data = [], [], []
    folds = np.zeros((d, N))
    for axis in range(d):
        lo = flat.take(range(npa - 1), axis=axis).ravel()
        hi = flat.take(range(1, npa), axis=axis).ravel()
        rows.extend([lo, hi])
        cols.extend([hi, lo])
        val = np.full(lo.size, -1.0 / h2)
        data.extend([val, val])
        if bc.kind == "periodic":
            top = flat.take([npa - 1], axis=axis).ravel()
            bot = flat.take([0], axis=axis).ravel()
            rows.extend([top, bot])
            cols.extend([bot, top])
            wrap = np.full(top.size, -1.0 / h2)
            data.extend([wrap, wrap])
        else:
            for side, sel in ((0, flat.take([0], axis=axis).ravel()),
                              (1, flat.take([npa - 1], axis=axis).ravel())):
                folds[axis, sel] = _boundary_fold(grid, bc, axis, side, sel) / h2

    rows.append(np.arange(N))
    cols.append(np.arange(N))
    data.append(np.ones(N))  # diagonal slots, marked nonzero until filled
    stencil = sps.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N),
    ).tocsr()
    stencil.sum_duplicates()
    entry_rows = np.repeat(np.arange(N), np.diff(stencil.indptr))
    diag_slots = np.flatnonzero(stencil.indices == entry_rows)
    vper = np.tile(model.vper.sample_cell(grid.n, d), (grid.L,) * d).ravel()
    return BoxSkeleton(grid=grid, bc=bc, vper=vper, folds=folds, stencil=stencil,
                       diag_slots=diag_slots)


def assemble(model: ModelSpec, grid: GridSpec, bc: BoundaryCondition,
             couplings=None) -> DiscreteHamiltonian:
    """Assemble H = -Laplacian_h + diag(V_per + V_omega) on the cube.

    ``couplings`` selects the random part; omit it for the purely periodic
    operator.  A one-off build: callers with many realizations on one box
    hold its ``skeleton`` and move only the diagonal.
    """
    box = skeleton(model, grid, bc)
    if couplings is None:
        return box.hamiltonian()
    return box.hamiltonian(assemble_random_potential(model, grid, couplings).ravel())


def periodic_ground_state(model: ModelSpec, n: int) -> GroundStateData:
    """Lowest eigenpair of the unit-cell periodic operator, sign-fixed positive.

    The eigenvector is normalized so that the squared midpoint quadrature of
    psi over the cell equals one (so the periodized state on any cube of side
    L has unit quadrature norm after the L**(-d/2) scaling).  The pair comes
    from ``lowest_eigenvalues`` and so passes its residual check.
    """
    grid = GridSpec(L=1, n=n, d=model.d)
    H = assemble(model, grid, PERIODIC)
    res = lowest_eigenvalues(H, 1)
    e0, vec = float(res.energies[0]), res.vectors[:, 0]
    vec = vec * np.sign(vec[int(np.argmax(np.abs(vec)))])
    if vec.min() <= 0.0:
        raise GroundStateError(
            "periodic ground state is not strictly positive after sign fix; "
            f"min component {vec.min():.3e} (degenerate or crossed state?)"
        )
    h = 1.0 / n
    norm = np.sqrt(np.sum(vec**2) * h**model.d)
    psi = (vec / norm).reshape((n,) * model.d)
    return GroundStateData(
        psi=psi, energy=e0, c3=float(psi.min()), c4=float(psi.max()), n=n, d=model.d
    )


def mezincescu_correction(gs: GroundStateData, grid: GridSpec) -> BoundaryCondition:
    """Ground-state boundary condition built from the periodic extension of psi.

    The ghost value at each boundary point is psi(ghost)/psi(inner) times the
    inner value, which makes the periodized ground state an exact eigenvector
    of the boxed periodic operator with its unit-cell eigenvalue.
    """
    if gs.n != grid.n or gs.d != grid.d:
        raise StateError("ground state resolution does not match the grid")
    return BoundaryCondition(kind="mezincescu", ground_state=gs)


def periodized_ground_state(gs: GroundStateData, grid: GridSpec) -> np.ndarray:
    """psi_L: periodic extension of psi on the cube, unit quadrature norm, flat."""
    tiled = np.tile(gs.psi, (grid.L,) * gs.d)
    return (tiled * grid.L ** (-gs.d / 2.0)).ravel()


def prepare_model(model: ModelSpec, n: int):
    """Standardize the site family and shift energies so the periodic ground
    level sits at zero; returns the prepared model and its ground state."""
    std = standardize(model)
    gs0 = periodic_ground_state(std, n)
    normed = normalize_energy(std, gs0.energy)
    gs = periodic_ground_state(normed, n)
    return normed, gs
