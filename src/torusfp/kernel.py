"""Discrete fundamental solution (propagator) of the linear part of the
model, and empirical validation of the kernel bounds (Gaussian envelope,
integral bounds, row-mass sandwich).

The propagator from time s to t is a product of single-substep implicit
(backward Euler) solves (I - dt*L)^{-1} with coefficients frozen at each
substep midpoint, divided by the quadrature weight so that entries
approximate kernel values K(x_i, t; y_j, s).  The integral bounds and the
Duhamel fit read each substep's kernel as it is made and store no ladder.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .coeff import CoefficientSet
from .errors import NumericsError, UsageError
from .grid import Field, TorusGrid, _central, gradient

__all__ = [
    "Propagator",
    "GaussianFit",
    "MassSandwichReport",
    "IntegralBoundsReport",
    "assemble_lfp",
    "build_propagator",
    "apply_propagator",
    "validate_gaussian_bounds",
    "validate_integral_bounds",
    "validate_mass_sandwich",
    "matrix_exponential_propagator",
    "fit_duhamel_constant",
    "ImplicitStepper",
]


def assemble_lfp(c: CoefficientSet, grid: TorusGrid, t: float) -> sparse.csc_matrix:
    """Sparse divergence-form operator: face-averaged D/pi diffusion,
    central grad(phi)/pi drift, and the zeroth-order coefficient W."""
    if grid != c.grid:
        raise UsageError("coefficient set and grid mismatch")
    h = grid.h
    pi_vals = c.pi_at(t).values
    a = c.D.values / pi_vals
    grad_phi = gradient(c.phi)

    diag = c.W_at(t).values.copy()
    neighbor_coeffs = []
    for axis in range(grid.dim):
        a_up = 0.5 * (a + a[grid.neighbors(+1, axis)]) / h**2
        a_dn = 0.5 * (a + a[grid.neighbors(-1, axis)]) / h**2
        b = grad_phi.components[axis] / pi_vals / (2.0 * h)
        neighbor_coeffs.append((a_up + b, a_dn - b))
        diag -= a_up + a_dn
    return grid.stencil_matrix(diag, neighbor_coeffs)


class ImplicitStepper:
    """Backward-Euler stepping engine with LU reuse.

    The caller names each step: its length ``dt`` and the time ``t_mid`` at
    which the coefficients are frozen.  A time-independent mobility keys its
    factors on the ``dt`` the callers pass; otherwise each midpoint has its own.
    """

    def __init__(self, c: CoefficientSet, grid: TorusGrid):
        self.c = c
        self.grid = grid
        self._lu_cache: dict[float, object] = {}

    def _factor(self, t_mid: float, dt: float):
        L = assemble_lfp(self.c, self.grid, t_mid)
        m = sparse.identity(self.grid.n_cells, format="csc") - dt * L
        try:
            return spla.splu(m, permc_spec=self.grid.lu_column_order)
        except RuntimeError as err:
            raise NumericsError(
                f"singular implicit solve, assumptions A1/A4 likely violated: {err}"
            ) from err

    def advance(self, values: np.ndarray, t_mid: float | np.ndarray, dt: float) -> np.ndarray:
        """Advance raw values by one backward-Euler step of length dt with the
        coefficients frozen at t_mid.  A 2-D ``values`` holds one state per
        column, and ``t_mid`` may then hold one midpoint per column."""
        if not dt > 0:
            raise UsageError(f"advance requires dt > 0, got {dt:.3g}")
        if self.c.time_independent_pi:
            lu = self._lu_cache.get(dt)
            if lu is None:
                lu = self._lu_cache[dt] = self._factor(0.0, dt)
            return lu.solve(values)
        if dt > 1e-2:
            raise UsageError(
                f"time-dependent mobility requires steps with dt <= 1e-2, got {dt:.3g}"
            )
        if np.ndim(t_mid) == 0:
            return self._factor(t_mid, dt).solve(values)
        return np.column_stack(
            [self._factor(t, dt).solve(values[:, k]) for k, t in enumerate(t_mid)]
        )


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(nbytes: int, what: str, remedy: str = "a smaller n or fewer substeps") -> None:
    """Refuse, before any allocation, a request larger than physical memory."""
    total = _physical_memory()
    if nbytes > total:
        raise UsageError(
            f"{what} needs about {nbytes / 2**30:.3g} GiB, more than the "
            f"{total / 2**30:.3g} GiB of physical memory; use {remedy}"
        )


def _frames_bytes(grid: TorusGrid, count: int) -> int:
    """Bytes that ``count`` kept Fields hold: their float64 values and about
    1 KiB of Python objects each (the Field, and what is kept beside it)."""
    return count * (8 * grid.n_cells + 1024)


def _propagator_bytes(grid: TorusGrid, substeps: int, ladder_stride: int | None) -> int:
    """float64 bytes build_propagator holds at once: the kept ladder plus
    three N x N matrices (running product, solve output, scaled result)."""
    kept = substeps // ladder_stride if ladder_stride else 0
    return 8 * grid.n_cells**2 * (kept + 3)


# bytes of one row block's (rows, N, dim, N) difference in the Hoelder accumulation
_C3_BLOCK_BYTES = 2**20


def _c3_block_rows(grid: TorusGrid) -> int:
    n = grid.n_cells
    return min(n, max(1, _C3_BLOCK_BYTES // (8 * grid.dim * n**2)))


def _integral_bounds_bytes(grid: TorusGrid) -> int:
    """Peak float64 bytes of _integral_constants, whatever the substep count:
    three row gradients (dim N x N each), B's difference and its squares;
    four N x N matrices of the substep loop and six for the Hoelder
    accumulator, its mirror's index arrays and small temporaries; and the
    accumulation's (rows, N, dim, N) difference, (rows, N, N) magnitudes and
    one more difference as headroom."""
    n, d = grid.n_cells, grid.dim
    return 8 * n**2 * (5 * d + 10 + _c3_block_rows(grid) * (2 * d + 1))


def _duhamel_fit_bytes(grid: TorusGrid) -> int:
    """Peak float64 bytes of fit_duhamel_constant: four N x N matrices of the
    substep loop, and one kernel's row gradients, their squares and magnitudes."""
    return 8 * grid.n_cells**2 * (2 * grid.dim + 5)


@dataclass(frozen=True, eq=False)
class Propagator:
    """Grid-to-grid kernel K(x_i, t; y_j, s) as a dense matrix.

    Applying to a Field g computes h^dim * matrix @ g.values.  ``ladder``
    (when a stride is given to build_propagator) holds (time, matrix)
    checkpoints of every stride-th substep, for validate_gaussian_bounds.
    """

    grid: TorusGrid
    s: float
    t: float
    matrix: np.ndarray
    substeps: int
    ladder: tuple = ()

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if not (0 <= self.s < self.t):
            raise UsageError(f"need 0 <= s < t, got s={self.s}, t={self.t}")

    @property
    def min_entry(self) -> float:
        return float(np.min(self.matrix))

    def row_masses(self) -> np.ndarray:
        return self.grid.h**self.grid.dim * np.sum(self.matrix, axis=1)


def _substep_kernels(c: CoefficientSet, grid: TorusGrid, s: float, t: float, substeps: int):
    """The one substep loop: yield (t_k, op / h^dim) after each implicit solve
    from s, op being their product so far.  The last kernel is checked for
    negative entries and, when W vanishes, for unit row masses first."""
    if t <= s:
        raise UsageError(f"need t > s, got s={s}, t={t}")
    if substeps < 1:
        raise UsageError("substeps must be >= 1")
    stepper = ImplicitStepper(c, grid)
    hdim = grid.h**grid.dim
    dt = (t - s) / substeps
    op = np.eye(grid.n_cells)
    for k in range(substeps):
        op = stepper.advance(op, s + (k + 0.5) * dt, dt)
        matrix = op / hdim
        if k == substeps - 1:
            worst = float(np.min(matrix))
            if worst < -1e-6:
                raise NumericsError(
                    f"propagator has entries down to {worst:.3g}; substepping too coarse"
                )
            deviation = np.max(np.abs(op.sum(axis=1) - 1.0))
            if c.W_inf == c.W_sup == 0.0 and deviation > 1e-8:
                raise NumericsError(
                    "discrete maximum principle violated: row masses deviate from 1 "
                    f"by {deviation:.3g} although W is identically 0"
                )
        yield s + (k + 1) * dt, matrix


def build_propagator(
    c: CoefficientSet, grid: TorusGrid, s: float, t: float, substeps: int, ladder_stride: int | None = None
) -> Propagator:
    """Assemble the discrete kernel as a product of implicit substep solves,
    keeping the kernel of every ladder_stride-th substep (none for 0 or None)
    as a (time, matrix) checkpoint for validate_gaussian_bounds."""
    _require_memory(_propagator_bytes(grid, substeps, ladder_stride), "the propagator")
    ladder = []
    for k, (t_k, matrix) in enumerate(_substep_kernels(c, grid, s, t, substeps), 1):
        if ladder_stride and k % ladder_stride == 0:
            ladder.append((t_k, matrix))
    return Propagator(grid, s, t, matrix, substeps, tuple(ladder))


def apply_propagator(p: Propagator, g: Field) -> Field:
    if g.grid != p.grid:
        raise UsageError("propagator and field grids differ")
    hdim = p.grid.h**p.grid.dim
    return Field(p.grid, hdim * (p.matrix @ g.values))


def _row_gradients(matrix: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """(N, dim, N) array: central y-gradient of every kernel row."""
    n = grid.n_cells
    out = np.empty((n, grid.dim, n))
    for axis in range(grid.dim):
        out[:, axis, :] = _central(matrix, grid, axis)
    return out


def _grad_magnitude(grads: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(grads**2, axis=1))


def _max_row_integral(grads: np.ndarray, grid: TorusGrid) -> float:
    """max_x h^dim sum_y |grads[x, :, y]| of (N, dim, N) row gradients."""
    return np.max(grid.h**grid.dim * _grad_magnitude(grads).sum(axis=1))


def _distance_matrix(grid: TorusGrid) -> np.ndarray:
    pts = np.stack(grid.meshgrid(), axis=1)
    d = np.abs(pts[:, None, :] - pts[None, :, :])
    d = np.minimum(d, 1.0 - d)
    return np.sqrt(np.sum(d * d, axis=2))


@dataclass(frozen=True)
class GaussianFit:
    C_fit: float
    c_fit: float
    max_residual: float
    deriv_order: tuple

    def __post_init__(self):
        if not (np.isfinite(self.C_fit) and np.isfinite(self.c_fit)):
            raise NumericsError("Gaussian fit produced non-finite constants")
        if self.C_fit <= 0 or self.c_fit <= 0:
            raise NumericsError("Gaussian fit produced non-positive constants")


def _require_unit_horizon(span: float) -> None:
    """The Gaussian envelope is validated on horizons t - s <= 1 only."""
    if span > 1.0:
        raise UsageError(f"Gaussian bounds are validated on unit horizons only, got t-s={span:.3g}")


def validate_gaussian_bounds(
    p: Propagator, orders: tuple = (0, 0), rel_floor: float = 0.02
) -> GaussianFit:
    """Fit the heat-kernel-type envelope to the discrete kernel and its
    derivatives over the substep ladder.

    The envelope is |d_t^a grad_y^b K| <= C tau^{-(d+2a+b)/2} exp(-c r^2/tau)
    with r the torus distance.  The decay rate c comes from a least-squares
    fit of log-data against r^2/tau; C is then the smallest constant making
    every sampled residual <= 0.  Two exclusions keep the fit on resolved
    data: values below rel_floor times the peak of their time slice (the far
    tail of an implicit time discretization decays exponentially, not
    Gaussianly), and ladder times below a minimum number of substeps (the
    early backward Euler kernel is a resolvent, not yet Gaussian): the
    smallest count keeping the time-discretization tail lift
    z^2*dt/(32*tau) below 0.05 across the dynamic range rel_floor admits.
    """
    _require_unit_horizon(p.t - p.s)
    a_ord, b_ord = orders
    if a_ord < 0 or b_ord < 0 or 2 * a_ord + b_ord > 2:
        raise UsageError(f"supported derivative orders have 2a+b <= 2, got {orders}")
    if not p.ladder:
        raise UsageError("the propagator holds no ladder checkpoints")
    z_max = 4.0 * np.log(1.0 / rel_floor)
    min_tau_substeps = max(8, int(np.ceil(z_max**2 / (32.0 * 0.05))))

    grid = p.grid
    d = grid.dim
    dt = (p.t - p.s) / p.substeps
    dist2 = _distance_matrix(grid) ** 2
    k_exp = (d + 2 * a_ord + b_ord) / 2.0

    z_all, u_all = [], []
    times, mats = zip(*p.ladder)
    for idx, (t_k, mat) in enumerate(p.ladder):
        tau = t_k - p.s
        if tau < min_tau_substeps * dt - 1e-15:
            continue
        if a_ord == 1:
            if idx == 0 or idx == len(p.ladder) - 1:
                continue
            data = np.abs((mats[idx + 1] - mats[idx - 1]) / (times[idx + 1] - times[idx - 1]))
        elif b_ord == 0:
            data = np.abs(mat)
        elif b_ord == 1:
            data = _grad_magnitude(_row_gradients(mat, grid))
        else:
            grads = _row_gradients(mat, grid)
            mag2 = np.zeros_like(mat)
            for axis in range(d):
                mag2 += _row_gradients(grads[:, axis, :], grid)[:, axis, :] ** 2
            data = np.sqrt(mag2)
        mask = data > max(rel_floor * np.max(data), 1e-280)
        z_all.append((dist2[mask] / tau).ravel())
        u_all.append((np.log(data[mask]) + k_exp * np.log(tau)).ravel())

    if not z_all:
        raise UsageError(
            f"no ladder time past the first {min_tau_substeps} substeps; "
            "add substeps or raise rel_floor"
        )
    z = np.concatenate(z_all)
    u = np.concatenate(u_all)
    slope = np.polyfit(z, u, 1)[0]
    c_fit = max(-slope, 1e-8)
    log_c_env = float(np.max(u + c_fit * z))
    resid = float(np.max(u + c_fit * z - log_c_env))
    return GaussianFit(float(np.exp(log_c_env)), float(c_fit), resid, (a_ord, b_ord))


@dataclass(frozen=True)
class MassSandwichReport:
    lower: float
    upper: float
    row_min: float
    row_max: float
    tol: float
    slack: float
    passed: bool


def validate_mass_sandwich(p: Propagator, c: CoefficientSet, tol: float = 1e-6) -> MassSandwichReport:
    """Check exp(W_inf (t-s)) <= row mass <= exp(W_sup (t-s)) within
    tol plus an O(h^2) slack (reported)."""
    c.require_grid(p)
    span = p.t - p.s
    lower = float(np.exp(c.W_inf * span))
    upper = float(np.exp(c.W_sup * span))
    masses = p.row_masses()
    slack = p.grid.h**2
    passed = bool(
        np.all(masses >= lower - tol - slack) and np.all(masses <= upper + tol + slack)
    )
    return MassSandwichReport(
        lower, upper, float(np.min(masses)), float(np.max(masses)), tol, slack, passed
    )


@dataclass(frozen=True)
class IntegralBoundsReport:
    C1: float
    C2: float
    C3: float
    C1_refined: float
    C2_refined: float
    C3_refined: float
    stable: bool
    beta: float
    notes: str = ""


def _frozen_pi(c: CoefficientSet) -> CoefficientSet:
    """Stationary view with the mobility frozen at t=0 (for validators)."""
    if c.time_independent_pi:
        return c
    from .coeff import build_coefficients

    # the t=0 sample enters as a table, which is time-independent by construction
    return build_coefficients(replace(c.problem, pi_coeff=c.pi_at(0.0)))


def _hoelder_sums(grads, grid: TorusGrid) -> np.ndarray:
    """(N, N) matrix of sum_k h^dim sum_y |g_k[i, :, y] - g_k[j, :, y]| over
    the ladder's row gradients g_k (any iterable), added in ladder order.

    Only row blocks of the upper triangle j >= i are formed; (g_i - g_j)^2
    and (g_j - g_i)^2 are equal bit for bit, so its mirror is the full sum.
    """
    n, d = grid.n_cells, grid.dim
    hdim = grid.h**d
    rows = _c3_block_rows(grid)
    acc = np.zeros((n, n))
    # the block temporaries live in two buffers kept for the whole sum:
    # fresh ones make the allocator map and unmap pages for every block
    diff_buf = np.empty(rows * n * d * n)
    mag_buf = np.empty(rows * n * n)
    for g in grads:
        for i0 in range(0, n, rows):
            i1 = min(i0 + rows, n)
            pairs = (i1 - i0) * (n - i0)
            diff = diff_buf[: pairs * d * n].reshape(i1 - i0, n - i0, d, n)
            np.subtract(g[i0:i1, None, :, :], g[None, i0:, :, :], out=diff)
            mag = mag_buf[: pairs * n].reshape(pairs, n)
            np.sum(np.square(diff, out=diff).reshape(pairs, d, n), axis=1, out=mag)
            np.sqrt(mag, out=mag)
            acc[i0:i1, i0:] += hdim * mag.sum(axis=1).reshape(i1 - i0, n - i0)
    lower = np.tril_indices(n, -1)
    acc[lower] = acc.T[lower]
    return acc


def _integral_constants(
    c: CoefficientSet, grid: TorusGrid, times, substeps: int, beta: float
) -> tuple[float, float, float]:
    t_max = max(times)
    dt = t_max / substeps
    # A(tau): max over x of the integral of |grad_y K|; B(sigma): the same for
    # |d_tau grad_y K| by centred differences, on a window of three gradients
    a_of_tau = np.empty(substeps)
    b_of_tau = np.full(substeps, np.nan)
    window = []

    def ladder_gradients():
        for k, (_, matrix) in enumerate(_substep_kernels(c, grid, 0.0, t_max, substeps)):
            window.append(_row_gradients(matrix, grid))
            a_of_tau[k] = _max_row_integral(window[-1], grid)
            if len(window) == 3:
                b_of_tau[k - 1] = _max_row_integral((window[2] - window[0]) / (2.0 * dt), grid)
                del window[0]
            yield window[-1]

    # Hoelder difference integral at the final time
    acc = _hoelder_sums(ladder_gradients(), grid)
    b_of_tau[0] = b_of_tau[1] if substeps > 2 else 0.0
    b_of_tau[-1] = b_of_tau[-2] if substeps > 2 else 0.0

    def int_a(width: float) -> float:
        ks = np.flatnonzero((np.arange(1, substeps + 1) * dt) <= width + 1e-15)
        return float(np.sum(a_of_tau[ks]) * dt)

    c1 = 0.0
    c2 = 0.0
    for tp in times:
        for tt in times:
            if tt <= tp + 1e-15:
                continue
            c1 = max(c1, int_a(tt - tp) / np.sqrt(tt - tp))
            # triple integral: s in [0, t'), tau in [t', t)
            si = np.arange(0.5 * dt, tp, dt)
            tj = np.arange(tp + 0.5 * dt, tt, dt)
            if si.size and tj.size:
                sig = tj[None, :] - si[:, None]
                idx = np.clip(np.round(sig / dt).astype(int) - 1, 0, substeps - 1)
                lhs = float(np.sum(b_of_tau[idx]) * dt * dt)
                c2 = max(c2, lhs / np.sqrt(tt - tp))

    acc *= dt
    dist = _distance_matrix(grid)
    n = grid.n_cells
    denom = t_max ** ((1.0 - beta) / 2.0) * dist**beta
    off = ~np.eye(n, dtype=bool)
    c3 = float(np.max(acc[off] / denom[off]))
    return c1, c2, c3


def validate_integral_bounds(
    c: CoefficientSet, grid: TorusGrid, times, substeps: int = 64
) -> IntegralBoundsReport:
    """Fit the smallest constants in the three kernel integral bounds, with
    the declared Hoelder exponent ``c.beta_declared``, and check their
    stability under one grid refinement (factor-2 drift)."""
    times = sorted(float(t) for t in times)
    if times[-1] > 1.0:
        raise UsageError("integral bounds are validated for times <= 1 only")
    if times[-1] <= 0:
        raise UsageError("need at least one positive time")
    beta = c.beta_declared
    notes = ""
    cc = _frozen_pi(c)
    if cc is not c:
        notes = "mobility frozen at t=0 for this validation; "

    try:
        spec2 = c.problem.with_resolution(2 * grid.n_per_axis)
    except UsageError:
        spec2 = None  # table-backed: no refinement
    grids = [grid] if spec2 is None else [grid, spec2.make_grid()]
    _require_memory(max(_integral_bounds_bytes(g) for g in grids), "the integral-bound validation")

    c1, c2, c3 = _integral_constants(cc, grid, times, substeps, beta)
    if spec2 is None:
        return IntegralBoundsReport(c1, c2, c3, np.nan, np.nan, np.nan, False, beta,
                                    notes + "table-backed problem; refinement skipped")
    from .coeff import build_coefficients

    c2set = _frozen_pi(build_coefficients(spec2))
    r1, r2, r3 = _integral_constants(c2set, spec2.make_grid(), times, substeps, beta)
    ratios = [max(a, b) / max(min(a, b), 1e-300) for a, b in ((c1, r1), (c2, r2), (c3, r3))]
    stable = all(r < 2.0 for r in ratios)
    return IntegralBoundsReport(c1, c2, c3, r1, r2, r3, stable, beta, notes)


# horizon and substeps of the kernel that fit_duhamel_constant measures
_DUHAMEL_HORIZON = 0.01
_DUHAMEL_SUBSTEPS = 64


def fit_duhamel_constant(c: CoefficientSet, grid: TorusGrid) -> float:
    """Fitted constant C1 in the Duhamel-kernel bound
    int_t' ^t int |grad_y K| <= C1 |t - t'|^(1/2), measured on the actual
    discrete kernel over [0, 0.01].  This is the measured surrogate fed to
    the time-bound formula."""
    _require_memory(_duhamel_fit_bytes(grid), "the Duhamel-constant fit")
    kernels = _substep_kernels(_frozen_pi(c), grid, 0.0, _DUHAMEL_HORIZON, _DUHAMEL_SUBSTEPS)
    dt = _DUHAMEL_HORIZON / _DUHAMEL_SUBSTEPS
    best = acc = 0.0
    for k, (_, matrix) in enumerate(kernels):
        acc += _max_row_integral(_row_gradients(matrix, grid), grid) * dt
        best = max(best, acc / np.sqrt((k + 1) * dt))
    return float(best)


def matrix_exponential_propagator(
    c: CoefficientSet, grid: TorusGrid, s: float, t: float
) -> Propagator:
    """Exact-in-time propagator expm((t-s) L) for time-independent mobility;
    kept as a cross-check for the substepped construction on small grids."""
    if not c.time_independent_pi:
        raise UsageError("matrix exponential cross-check requires time-independent mobility")
    if grid.n_cells > 4096:
        raise UsageError("matrix exponential cross-check is limited to small grids")
    from scipy.linalg import expm

    L = assemble_lfp(c, grid, 0.5 * (s + t)).toarray()
    op = expm((t - s) * L)
    return Propagator(grid, s, t, op / grid.h**grid.dim, substeps=1)
