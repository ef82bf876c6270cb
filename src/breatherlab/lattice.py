"""Finite-difference Hamiltonians on cubes with four boundary treatments.

The cube of side L is tiled by L**d unit cells centered on the integer
lattice sites I_L = {0, ..., L-1}**d, so the box is [-1/2, L-1/2]**d (an
integer translate of the centered cube; every spectral quantity is invariant
under that translation, and integer cell centers keep the periodic extension
of the unit-cell ground state exactly sampled for every L).  Each cell holds
n**d cell-centered grid points with spacing h = 1/n; no grid point lies on a
cell boundary.  ``GridSpec.cell_map``, the cell and cell point of each grid
row, is the one statement of this layout: V_omega (``random_potentials``, any
rows), V_per, psi_L, the ghost ratios and ``cells_on_grid`` all read it.

The Laplacian is the second-order stencil with ghost-point elimination at the
box faces: the ghost value is a multiple c of the adjacent inner value, with
c = -1 (Dirichlet, odd reflection through the face), c = +1 (Neumann), and
c = Psi(ghost)/Psi(inner) for the ground-state (Mezincescu) condition, Psi
being the periodic extension of the unit-cell ground state.  All folds touch
only the diagonal, so every assembled matrix is exactly symmetric.

A box's ``skeleton`` (V_per, folds, couplings) is built once per (model,
grid, boundary condition); a realization only supplies the diagonal V_omega.
Every off-diagonal entry is -1/h^2, at the columns of the skeleton's NumPy
table ``neighbors`` (N, 2d + 1), from which ``H @ x``, ``to_dense`` and the
CSR ``matrix`` are built.  In d = 1 under a non-periodic condition the
operator is ``tridiagonal``.  No operator needs SciPy until its sparse
``matrix`` is asked for, which only SuperLU and shift-invert Lanczos do.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GroundStateError, InputError, StateError
from .model import ModelSpec, _midpoint_grid, normalize_energy, site_values, standardize
from .spectral import lowest_eigenvalues

BC_KINDS = ("dirichlet", "neumann", "periodic", "mezincescu")


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

    @cached_property
    def offset_points(self):
        """All cell-relative points of one cell, read-only (n**d, d): the
        midpoint grid ``model._midpoint_grid(n, d)`` that every cell quadrature reads."""
        pts = _midpoint_grid(self.n, self.d)
        pts.setflags(write=False)
        return pts

    @cached_property
    def cell_map(self):
        """(cells, points), two int arrays (N,): grid row r lies in cell
        ``cells[r]`` (a coupling-field column, row-major over I_L) at cell point
        ``points[r]`` (a row of ``offset_points``)."""
        cells = points = np.zeros(1, dtype=int)
        for c, p in [np.divmod(np.arange(self.points_per_axis), self.n)] * self.d:
            cells, points = ((cells[:, None] * self.L + c).ravel(),  # C order: the last
                             (points[:, None] * self.n + p).ravel())  # axis runs fastest
        return cells, points


@dataclass(frozen=True)
class BoundaryCondition:
    """One of dirichlet | neumann | periodic | mezincescu.

    ``ground_state`` (mezincescu only) supplies the periodic unit-cell ground
    state used for the ghost ratios.
    """

    kind: str
    ground_state: object = None

    def __post_init__(self):
        if self.kind not in BC_KINDS:
            raise InputError(f"unknown boundary condition {self.kind!r}")

    @property
    def label(self):
        return {"dirichlet": "D", "neumann": "N", "periodic": "P",
                "mezincescu": "M"}[self.kind]


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
    """H on one box: the skeleton ``box`` with the diagonal ``diag`` (N,), or
    a batch of B operators on that box with one diagonal each, ``diag`` (B, N).

    ``matrix`` (CSR, SciPy) and ``to_dense`` take one operator; ``matrix`` is
    built on first use, for the solvers that need SciPy.  ``H @ x`` takes x
    (N,) or (N, k), for a batch also each operator's own x (B, N) or
    (B, N, k), and sums each row in the column order of ``matrix``, so the two
    agree bit for bit, a batch's row b with its operator alone, and no product
    needs SciPy.
    """

    box: "BoxSkeleton"
    diag: np.ndarray

    @property
    def grid(self):
        return self.box.grid

    @property
    def num_dof(self):
        return self.diag.shape[-1]

    def diagonal(self) -> np.ndarray:
        return self.diag

    def _entries(self):
        """Each row's entries in the column order of ``box.neighbors``: (..., N, 2d + 1)."""
        table = self.box.neighbors
        return np.where(table == np.arange(self.num_dof)[:, None], self.diag[..., None],
                        self.box.coupling)

    @cached_property
    def matrix(self):
        import scipy.sparse as sps

        table, N = self.box.neighbors, self.num_dof
        kept = table < N
        return sps.csr_matrix((self._entries()[kept], table[kept],
                               np.r_[0, np.cumsum(kept.sum(axis=1))]), shape=(N, N))

    def __matmul__(self, x):
        x = np.asarray(x)
        cols = x.ndim > self.diag.ndim  # x holds columns: (..., N, k)
        if self.grid.d > 1:
            x = np.broadcast_to(x, self.diag.shape + x.shape[x.ndim - cols:])
            axis = x.ndim - 1 - cols  # the points
            x = np.concatenate([x, np.zeros_like(x.take([0], axis=axis))], axis=axis)
            entries = self._entries()
            y = 0.0  # + each term in column order; a missing neighbor adds -0.0
            for slot, col in enumerate(self.box.neighbors.T):
                a = entries[..., slot]
                y = y + (a[..., None] if cols else a) * x.take(col, axis)
            return y
        if cols:  # work on (..., k, N): the points on the last axis
            x = np.swapaxes(x, -1, -2)
        diag = self.diag[..., None, :] if cols else self.diag  # d = 1: bands; the table costs RSS
        off, wrap = self.box.off, self.box.wrap
        y = diag * x  # row i: ((off x[i-1] + diag x[i]) + off x[i+1])
        y[..., 1:] = off * x[..., :-1] + y[..., 1:]
        y[..., :-1] += off * x[..., 1:]
        if wrap:  # row 0 ends with its wrap entry, row N-1 starts with it
            y[..., 0] += wrap * x[..., -1]
            y[..., -1] = (wrap * x[..., 0] + off[-1] * x[..., -2]) + diag[..., -1] * x[..., -1]
        return np.swapaxes(y, -1, -2) if cols else y

    def to_dense(self):
        if self.grid.d > 1:
            N, table = self.num_dof, self.box.neighbors
            dense = np.zeros((N, N + 1))  # column N takes the missing neighbors
            np.put_along_axis(dense, table, self._entries(), axis=1)
            return dense[:, :N]
        dense = np.diag(self.diag)  # d = 1: bands; the table gives these bits but more peak RSS
        i = np.arange(self.num_dof - 1)
        dense[i, i + 1] = dense[i + 1, i] = self.box.off
        if self.box.wrap:
            dense[0, -1] = dense[-1, 0] = self.box.wrap
        return dense


@dataclass(frozen=True)
class BoxSkeleton:
    """Everything of H on one box that a realization does not change.

    ``vper`` is V_per on the grid (flat) and ``folds[axis]`` the ghost folds
    c/h^2 of that axis's two faces (zero off the faces).  Every off-diagonal
    entry is ``coupling``, -1/h^2, at the columns of ``neighbors``.  In d = 1
    the operator is ``off`` (the N - 1 couplings) plus, under the periodic
    condition, the two corner entries ``wrap``.  A realization only moves the
    diagonal: ``hamiltonian(v)`` is H with V_per + v, a batch for v (B, N).
    """

    grid: GridSpec
    bc: BoundaryCondition
    vper: np.ndarray
    folds: np.ndarray

    @property
    def tridiagonal(self):
        """d = 1 under a non-periodic condition: no wrap-around entry."""
        return self.grid.d == 1 and self.bc.kind != "periodic"

    @property
    def coupling(self) -> float:
        """-1/h^2, every off-diagonal entry of H."""
        return -1.0 / (self.grid.h * self.grid.h)

    @cached_property
    def off(self) -> np.ndarray:
        return np.full(self.grid.points_per_axis - 1, self.coupling)

    @property
    def wrap(self) -> float:
        return self.coupling if self.bc.kind == "periodic" else 0.0

    @cached_property
    def neighbors(self) -> np.ndarray:
        """(N, 2d + 1) ints, read-only: the columns of row r's entries in
        ascending order, r itself among them; N stands for a neighbor that a
        face row of a box that is not periodic lacks, and sorts last."""
        npa, N = self.grid.points_per_axis, self.grid.num_dof
        flat = np.arange(N).reshape(self.grid.shape)
        table = [flat.ravel()]
        for axis in range(self.grid.d):
            for step, face in ((1, 0), (-1, npa - 1)):  # the neighbor below, above
                nb = np.roll(flat, step, axis=axis)
                if self.bc.kind != "periodic":
                    nb[(slice(None),) * axis + (face,)] = N
                table.append(nb.ravel())
        table = np.sort(np.column_stack(table), axis=1)
        table.setflags(write=False)
        return table

    @cached_property
    def stencil(self):
        """The CSR matrix of H with every diagonal entry 1, for SuperLU."""
        return DiscreteHamiltonian(box=self, diag=np.ones(self.grid.num_dof)).matrix

    def diagonal(self, potential) -> np.ndarray:
        """Diagonal of -Laplacian_h + diag(potential), folds applied axis by
        axis; a batch comes out C-ordered whatever the layout of ``potential``."""
        h2 = self.grid.h * self.grid.h
        diag = np.add(np.full(self.grid.num_dof, 2.0 * self.grid.d / h2), potential, order="C")
        for fold in self.folds:
            diag -= fold
        return diag

    def operator(self, potential) -> DiscreteHamiltonian:
        """-Laplacian_h + diag(potential) on this box; 0.0 gives the bare kinetic part."""
        return DiscreteHamiltonian(box=self, diag=self.diagonal(potential))

    def hamiltonian(self, v_random=None) -> DiscreteHamiltonian:
        """H with V_per + ``v_random`` (flat); without it, the periodic operator."""
        return self.operator(self.vper if v_random is None else self.vper + v_random)

    @cached_property
    def psi(self) -> np.ndarray:
        """psi_L of a box under the ground-state condition, tiled on first use."""
        return periodized_ground_state(self.bc.ground_state, self.grid)


def couplings_array(grid: GridSpec, couplings) -> np.ndarray:
    """The coupling field as a float array, checked to be in site order (row-major
    over I_L, the layout of ``ids.sample_fields``): (L**d,), or a batch (B, L**d)."""
    arr, sites = np.asarray(couplings, dtype=float), grid.L**grid.d
    if arr.ndim not in (1, 2) or arr.shape[-1] != sites:
        raise InputError(f"couplings shape {arr.shape}, expected ({sites},) or (B, {sites})")
    return arr


def random_potentials(model: ModelSpec, grid: GridSpec, fields, start: int = 0,
                      stop: int = None) -> np.ndarray:
    """V_omega = sum_k u(lambda_k, . - k) on the R grid rows start:stop for one
    coupling field (L**d,) or a batch (M, L**d): shape (R,) or (M, R), the
    transpose of a C-ordered (R, M) array, the layout ``count_below`` reads.

    Each grid point lies in one cell and the site supports stay inside their
    cells, so a row takes the one term that ``grid.cell_map`` names; rows of
    one cell share one coupling per field.
    """
    fields = np.asarray(fields, dtype=float)
    cells, points = (a[start:stop] for a in grid.cell_map)
    cells = cells[:1] if cells.size and cells.min() == cells.max() else cells
    pts = grid.offset_points[points]
    return site_values(model.site, fields[..., cells].T,
                       pts[:, None] if fields.ndim == 2 else pts).T


@dataclass(frozen=True)
class RandomBatch:
    """Diagonals (C M, N) computed as they are read, column c M + m of the
    (N, C M) layout being base c of ``bases`` (N, C) + V_omega of field m of
    ``fields`` (M, L**d), each row block by one ``random_potentials`` call."""

    model: ModelSpec
    grid: GridSpec
    fields: np.ndarray
    bases: np.ndarray
    ndim = 2
    shape = property(lambda self: (self.bases.shape[1] * len(self.fields), self.grid.num_dof))

    def rows(self, start: int, stop: int, which=None) -> np.ndarray:
        """Rows start:stop, C-ordered: all columns (each field once) or those of ``which``."""
        M, bases = len(self.fields), self.bases[start:stop]
        fields = self.fields if which is None else self.fields[which % M]
        v = random_potentials(self.model, self.grid, fields, start, stop).T
        if which is not None:
            return bases[:, which // M] + v
        return (bases[:, :, None] + v[:, None]).reshape(stop - start, -1)


def cells_on_grid(grid: GridSpec, cell_values) -> np.ndarray:
    """Place ``site_values`` rows of M realizations, (M * L**d, n**d) or
    (M, L**d, n**d) in site order, on the flat grid: shape (M, (nL)**d)."""
    cells, points = grid.cell_map
    return np.asarray(cell_values).reshape(-1, grid.L**grid.d, grid.n**grid.d)[:, cells, points]


def _boundary_fold(grid: GridSpec, bc: BoundaryCondition, inner: np.ndarray,
                   ghost: np.ndarray) -> np.ndarray:
    """Ghost multiplier c for the face rows ``inner``.  The ghost point of
    inner[i] is one step out of the box; psi is periodic, so it has the cell
    point of ghost[i], the row across the box on the opposite face."""
    if bc.kind != "mezincescu":  # Dirichlet: odd reflection, Neumann: even
        return np.full(inner.size, -1.0 if bc.kind == "dirichlet" else 1.0)
    # mezincescu: ratio of the periodic ground-state extension ghost/inner
    gs = bc.ground_state
    if gs is None:
        raise StateError("mezincescu boundary requested before the ground state was computed")
    if gs.n != grid.n or gs.d != grid.d:
        raise StateError("ground state resolution does not match the grid")
    psi, points = gs.psi.ravel(), grid.cell_map[1]
    return psi[points[ghost]] / psi[points[inner]]


def skeleton(model: ModelSpec, grid: GridSpec, bc: BoundaryCondition) -> BoxSkeleton:
    """Build the parts of H on one box that no realization changes."""
    if model.d != grid.d:
        raise InputError("model and grid dimension disagree")
    d, npa = grid.d, grid.points_per_axis
    flat = np.arange(grid.num_dof).reshape(grid.shape)
    folds = np.zeros((d, grid.num_dof))
    for axis in range(d) if bc.kind != "periodic" else ():
        faces = (flat.take([0], axis=axis).ravel(), flat.take([npa - 1], axis=axis).ravel())
        for inner, ghost in (faces, faces[::-1]):
            folds[axis, inner] = _boundary_fold(grid, bc, inner, ghost) / (grid.h * grid.h)
    vper = model.vper.sample_cell(grid.n, d).ravel()[grid.cell_map[1]]
    return BoxSkeleton(grid=grid, bc=bc, vper=vper, folds=folds)


def assemble(model: ModelSpec, grid: GridSpec, bc: BoundaryCondition,
             couplings=None) -> DiscreteHamiltonian:
    """Assemble H = -Laplacian_h + diag(V_per + V_omega) on the cube.

    ``couplings``, one field (L**d,) or a batch (B, L**d) in site order, selects
    the random part; omit it for the purely periodic operator.  A one-off build:
    callers with many realizations on one box hold its ``skeleton`` and move
    only the diagonal.
    """
    box = skeleton(model, grid, bc)
    if couplings is None:
        return box.hamiltonian()
    return box.hamiltonian(random_potentials(model, grid, couplings_array(grid, couplings)))


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
    return gs.psi.ravel()[grid.cell_map[1]] * grid.L ** (-gs.d / 2.0)


def prepare_model(model: ModelSpec, n: int):
    """Standardize the site family and shift energies so the periodic ground
    level sits at zero; returns the prepared model and its ground state."""
    std = standardize(model)
    gs0 = periodic_ground_state(std, n)
    normed = normalize_energy(std, gs0.energy)
    gs = periodic_ground_state(normed, n)
    return normed, gs
