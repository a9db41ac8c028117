"""Reference forms and generators used only by the tests: a seeded element
of the admissible set Y, the two discrete forms of the PDE right side, the
discrete equation residual of a trajectory, the periodized heat kernel, the
y-gradients of a discrete kernel's rows and the sup norm of a trajectory."""

import numpy as np

from torusfp.coeff import CoefficientSet
from torusfp.errors import UsageError
from torusfp.grid import Field, Trajectory, VectorField, divergence, gradient, sup_norm
from torusfp.kernel import Propagator, _row_gradients, assemble_lfp
from torusfp.picard import PicardSpace, _lattice, _nonlinear_source


def frame_source(c: CoefficientSet, favg: np.ndarray, t: float) -> np.ndarray:
    """div(V f log f) of one frame ``favg`` with V at time t."""
    return _nonlinear_source(c, favg[None], np.array([t]))[0]


def random_y_trajectory(
    space: PicardSpace,
    grid,
    rng: np.random.Generator,
    nt: int = 64,
) -> Trajectory:
    """Seeded smooth random element of Y: a four-mode low-frequency Fourier
    series with 1/k^2-decaying coefficients, mildly modulated in time,
    clipped to [mu, R]."""
    times = _lattice(0.0, space.T, nt)
    xs = grid.meshgrid()
    base = rng.uniform(space.mu + 0.2 * (space.R - space.mu), space.R - 0.2 * (space.R - space.mu))
    amp_scale = 0.5 * (space.R - space.mu)
    vals = np.full((nt + 1, grid.n_cells), base)
    t_hat = times / space.T if space.T > 0 else times
    for _ in range(4):
        kvec = rng.integers(1, 4, size=grid.dim)
        phase = rng.uniform(0, 2 * np.pi)
        tphase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(-1, 1) * amp_scale / float(np.sum(kvec**2))
        arg = phase
        for a in range(grid.dim):
            arg = arg + 2 * np.pi * kvec[a] * xs[a]
        spatial = np.cos(arg)
        modulation = 1.0 + 0.3 * np.cos(np.pi * t_hat + tphase)
        vals += amp * modulation[:, None] * spatial[None, :]
    vals = np.clip(vals, space.mu, space.R)
    return Trajectory(grid, times, [Field(grid, row) for row in vals])


def rhs_divergence_form(f: Field, c: CoefficientSet, t: float = 0.0) -> Field:
    """Discrete right side in gradient-flow form: div((f/pi) grad(D log f + phi))."""
    mu_chem = Field(f.grid, c.D.values * np.log(f.values) + c.phi.values)
    grad_mu = gradient(mu_chem)
    mobility = f.values / c.pi_at(t).values
    flux = VectorField(f.grid, tuple(mobility * comp for comp in grad_mu.components))
    return divergence(flux)


def rhs_expanded_form(f: Field, c: CoefficientSet, t: float = 0.0) -> Field:
    """Discrete right side in linear-plus-nonlinear form: L f + div(V f log f)."""
    lf = assemble_lfp(c, c.grid, t) @ f.values
    nl = frame_source(c, f.values, t)
    return Field(f.grid, lf + nl)


def pde_residual(traj: Trajectory, c: CoefficientSet) -> float:
    """Sup norm of the discrete equation residual d_t f - L f - div(V f log f)
    along a trajectory, with centered differencing on each lattice interval."""
    vals = traj.values_matrix()
    worst = 0.0
    for m in range(len(traj.times) - 1):
        delta = traj.times[m + 1] - traj.times[m]
        t_mid = 0.5 * (traj.times[m] + traj.times[m + 1])
        favg = Field(traj.grid, 0.5 * (vals[m] + vals[m + 1]))
        rhs = rhs_expanded_form(favg, c, t_mid)
        resid = (vals[m + 1] - vals[m]) / delta - rhs.values
        worst = max(worst, float(np.max(np.abs(resid))))
    return worst


def sup_norm_traj(tr: Trajectory) -> float:
    return max(sup_norm(fr) for fr in tr.frames)


def kernel_y_gradient(p: Propagator) -> list:
    """Discrete gradient of each kernel row viewed as a function of y."""
    grads = _row_gradients(p.matrix, p.grid)
    return [
        VectorField(p.grid, tuple(grads[i, a, :] for a in range(p.grid.dim)))
        for i in range(p.grid.n_cells)
    ]


def periodized_heat_kernel(x, y, tau: float, a: float = 1.0) -> float:
    """Heat kernel on the unit torus by image summation over |k|_inf <= 3.

    Valid for tau in (0, 1]; the first omitted image contributes below 1e-12
    there for diffusivity a <= 1.
    """
    if tau <= 0:
        raise UsageError(f"tau must be positive, got {tau}")
    if tau > 1:
        raise UsageError(f"periodized evaluation requires tau <= 1, got {tau}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = x.size
    offsets = np.arange(-3, 4)
    if d == 1:
        shifts = offsets[:, None]
    else:
        k1, k2 = np.meshgrid(offsets, offsets, indexing="ij")
        shifts = np.column_stack([k1.ravel(), k2.ravel()])
    diff = x[None, :] - y[None, :] - shifts
    r2 = np.sum(diff * diff, axis=1)
    return float(np.sum((4.0 * np.pi * a * tau) ** (-d / 2.0) * np.exp(-r2 / (4.0 * a * tau))))
