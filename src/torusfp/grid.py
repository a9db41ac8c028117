"""Uniform periodic grids on the unit d-torus (d in {1, 2}) with discrete calculus.

The torus has side length 1 per axis.  Samples live at the lattice points
x_i = i*h, each the center of the cell [i*h - h/2, i*h + h/2) modulo 1.  Flat
storage order is axis-1-fastest: flat index k = i1 + n*i2.

Discrete operators: second-order central differences for gradient and
divergence.  With periodic wrap these are exactly adjoint to each other under
the midpoint quadrature, and the quadrature itself is spectrally accurate for
smooth periodic integrands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .errors import UsageError

__all__ = [
    "TorusGrid",
    "Field",
    "VectorField",
    "Trajectory",
    "gradient",
    "divergence",
    "divergence_values",
    "integrate",
    "sup_norm",
    "save_field_csv",
    "load_field_csv",
]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on [0,1)^dim with n_per_axis cells per axis."""

    dim: int
    n_per_axis: int
    # read-only index arrays built once per grid: neighbour maps and the
    # CSC layout of the periodic stencil
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n_per_axis < 8:
            raise ValueError(f"n_per_axis must be >= 8, got {self.n_per_axis}")

    @property
    def h(self) -> float:
        return 1.0 / self.n_per_axis

    @property
    def n_cells(self) -> int:
        return self.n_per_axis**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        # numpy shape of the unflattened value array; the LAST numpy axis is
        # spatial axis 1 (it varies fastest in the flat order)
        return (self.n_per_axis,) * self.dim

    @property
    def lu_column_order(self) -> str:
        """SuperLU column order (``permc_spec``) for factoring the periodic
        stencil: COLAMD in 1-D; the minimum degree order of A^T + A in 2-D,
        where it cuts the fill of the 5-point stencil well below COLAMD's."""
        return "COLAMD" if self.dim == 1 else "MMD_AT_PLUS_A"

    def numpy_axis(self, axis: int) -> int:
        """Numpy axis of spatial axis ``axis`` (0-based) in ``shape`` order."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        return self.dim - 1 - axis

    def coords1d(self) -> np.ndarray:
        """Sample coordinates i*h along one axis."""
        return np.arange(self.n_per_axis) * self.h

    def meshgrid(self) -> list[np.ndarray]:
        """Flat coordinate arrays [x1, ..., xd], each of length n_cells."""
        x = self.coords1d()
        if self.dim == 1:
            return [x]
        x2, x1 = np.meshgrid(x, x, indexing="ij")
        return [x1.ravel(), x2.ravel()]

    def point(self, flat_index: int) -> tuple[float, ...]:
        """Coordinates of the cell with the given flat index."""
        n = self.n_per_axis
        if self.dim == 1:
            return (flat_index * self.h,)
        i2, i1 = divmod(flat_index, n)
        return (i1 * self.h, i2 * self.h)

    def neighbors(self, shift: int, axis: int) -> np.ndarray:
        """Read-only flat indices of the periodic neighbours ``shift`` cells
        along ``axis``: ``values[grid.neighbors(s, a)][k]`` is the value at
        cell k + s*e_a.  Built once per grid object."""
        idx = self._cache.get((shift, axis))
        if idx is None:
            idx = np.arange(self.n_cells).reshape(self.shape)
            idx = np.roll(idx, -shift, axis=self.numpy_axis(axis)).ravel()
            idx.setflags(write=False)
            self._cache[(shift, axis)] = idx
        return idx

    def stencil_matrix(self, diag: np.ndarray, neighbor_coeffs) -> sparse.csc_matrix:
        """CSC matrix of the periodic (2*dim+1)-point stencil: row k holds
        ``diag[k]`` at column k and, per axis a with pair ``(up, down)`` in
        ``neighbor_coeffs``, ``up[k]`` at k + e_a and ``down[k]`` at k - e_a.
        The sorted ``indices``, ``indptr`` and slot order are built once per
        grid object and shared, read-only, by every matrix."""
        n, width = self.n_cells, 2 * self.dim + 1
        layout = self._cache.get("stencil")
        if layout is None:
            # data slots: (+e_a, -e_a) per axis, then the diagonal
            cols = [self.neighbors(s, a) for a in range(self.dim) for s in (+1, -1)]
            cols = np.concatenate(cols + [np.arange(n)])
            order = np.lexsort((np.tile(np.arange(n), width), cols))  # by column, then row
            idx_dtype = np.int32 if n * width < 2**31 else np.int64
            # the stencil is symmetric, so every column holds width entries
            indptr = np.arange(0, n * width + 1, width, dtype=idx_dtype)
            layout = ((order % n).astype(idx_dtype), indptr, order)
            for arr in layout:
                arr.setflags(write=False)
            self._cache["stencil"] = layout
        indices, indptr, order = layout
        data = np.concatenate([c for pair in neighbor_coeffs for c in pair] + [diag])[order]
        return sparse.csc_matrix((data, indices, indptr), shape=(n, n))


def _as_readonly(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Field:
    """Scalar samples on a TorusGrid, flat storage (axis-1-fastest)."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly(self.values).ravel())
        if self.values.size != self.grid.n_cells:
            raise ValueError(
                f"field has {self.values.size} values, grid has {self.grid.n_cells} cells"
            )
        if not np.all(np.isfinite(self.values)):
            bad = int(np.flatnonzero(~np.isfinite(self.values))[0])
            raise ValueError(f"non-finite field value at flat index {bad}")

    @classmethod
    def from_function(cls, grid: TorusGrid, fn) -> "Field":
        """Sample fn(x1[, x2]) on the grid; fn must accept arrays."""
        return cls(grid, np.asarray(fn(*grid.meshgrid()), dtype=float) * np.ones(grid.n_cells))

    @classmethod
    def constant(cls, grid: TorusGrid, value: float) -> "Field":
        return cls(grid, np.full(grid.n_cells, float(value)))


@dataclass(frozen=True, eq=False)
class VectorField:
    """Per-axis component samples at the cells."""

    grid: TorusGrid
    components: tuple

    def __post_init__(self):
        comps = tuple(_as_readonly(c).ravel() for c in self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) != self.grid.dim:
            raise ValueError(f"expected {self.grid.dim} components, got {len(comps)}")
        for c in comps:
            if c.size != self.grid.n_cells:
                raise ValueError("component length does not match grid")
            if not np.all(np.isfinite(c)):
                raise ValueError("non-finite vector field component")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-indexed sequence of Fields on a common grid, times strictly increasing."""

    grid: TorusGrid
    times: np.ndarray
    frames: list = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "times", _as_readonly(self.times).ravel())
        if len(self.frames) != self.times.size:
            raise ValueError("frames and times length mismatch")
        if self.times.size == 0:
            raise ValueError("a trajectory needs at least one frame")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        for fr in self.frames:
            if fr.grid != self.grid:
                raise ValueError("all frames must live on the trajectory grid")

    def values_matrix(self) -> np.ndarray:
        """(n_times, n_cells) copy of all frame values."""
        return np.stack([fr.values for fr in self.frames])


def _central(values: np.ndarray, grid: TorusGrid, axis: int) -> np.ndarray:
    """(v_{i+1} - v_{i-1}) / (2h) along one axis, on the last numpy axis of
    ``values`` (one row per leading index)."""
    ahead, behind = grid.neighbors(+1, axis), grid.neighbors(-1, axis)
    return (values[..., ahead] - values[..., behind]) / (2.0 * grid.h)


def gradient(f: Field) -> VectorField:
    """Central-difference gradient, (grad f)_i = (f_{i+1} - f_{i-1}) / (2h) per axis."""
    g = f.grid
    return VectorField(g, tuple(_central(f.values, g, a) for a in range(g.dim)))


def divergence_values(grid: TorusGrid, components) -> np.ndarray:
    """Central-difference divergence of per-axis components, each of shape
    ``(..., n_cells)``: a block of rows is differenced in one pass."""
    out = np.zeros(np.shape(components[0]))
    for a, comp in enumerate(components):
        out += _central(comp, grid, a)
    return out


def divergence(g: VectorField) -> Field:
    """Central-difference divergence, exactly adjoint to ``gradient`` under
    the midpoint quadrature; its total integral telescopes to zero exactly."""
    return Field(g.grid, divergence_values(g.grid, g.components))


def integrate(f: Field) -> float:
    """Midpoint quadrature, h^dim * sum of cell values."""
    return float(f.grid.h**f.grid.dim * np.sum(f.values))


def sup_norm(f: Field) -> float:
    return float(np.max(np.abs(f.values)))


# Field snapshot files: CSV with header "x1[,x2],value", one row per cell in
# flat (axis-1-fastest) order, 17 significant digits.

def save_field_csv(f: Field, path, header_comment: str | None = None) -> None:
    g = f.grid
    coords = g.meshgrid()
    cols = "x1,value" if g.dim == 1 else "x1,x2,value"
    with open(path, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(cols + "\n")
        for k in range(g.n_cells):
            xs = ",".join(f"{c[k]:.17g}" for c in coords)
            fh.write(f"{xs},{f.values[k]:.17g}\n")


def load_field_csv(path, grid: TorusGrid | None = None) -> Field:
    """Load a snapshot CSV; infers the grid when none is given."""
    rows = []
    with open(path) as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line
                continue
            rows.append([float(tok) for tok in line.split(",")])
    if header is None or not rows:
        raise UsageError(f"empty or headerless field file: {path}")
    ncols = len(rows[0])
    if ncols not in (2, 3):
        raise UsageError(f"field file must have 2 or 3 columns, got {ncols}")
    dim = ncols - 1
    data = np.asarray(rows)
    if grid is None:
        n = round(len(rows) ** (1.0 / dim))
        if n**dim != len(rows):
            raise UsageError(f"row count {len(rows)} is not a {dim}-dim lattice size")
        grid = TorusGrid(dim, n)
    if grid.dim != dim or grid.n_cells != len(rows):
        raise UsageError("field file does not match the requested grid")
    expected = grid.meshgrid()
    for a in range(dim):
        if not np.allclose(data[:, a], expected[a], atol=1e-12):
            raise UsageError(f"coordinate column x{a + 1} does not match the grid lattice")
    return Field(grid, data[:, dim])
