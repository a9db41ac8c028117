"""Production finite-volume solver: positivity-preserving, mass-conserving,
free-energy-dissipating scheme in gradient-flow (chemical potential) form.

Face fluxes are J = (f_up / pi_face) * (mu_{i+1} - mu_i) / h with the mobility
upwinded on the sign of the potential jump (the upwind-mobility scheme of
Carrillo, Chertock & Huang, Commun. Comput. Phys. 17 (2015)); this makes the
discrete free energy decrease by a sum of nonnegative terms and keeps the
sampled equilibrium an exact steady state (all potential jumps vanish there).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .coeff import CoefficientSet, ProblemSpec, build_coefficients, sample_initial_data, validate_assumptions
from .equilibrium import apriori_bounds, dissipation_rate, equilibrium_state, free_energy
from .errors import NumericsError, UsageError, check_ranges
from .grid import Field, Trajectory, TorusGrid, gradient, integrate
from .kernel import _frames_bytes, _require_memory

__all__ = [
    "FVConfig",
    "DiagnosticsRow",
    "SimulationResult",
    "chemical_potential",
    "fv_step",
    "stable_dt",
    "simulate",
]

log = logging.getLogger(__name__)

# Potential jumps below this threshold, relative to the rounding scale
# |D log f| + |phi| + D of mu = D log f + phi (its two terms, plus D times
# the rounding log f inherits from f), are rounding noise (exactly zero in
# exact arithmetic at the equilibrium); snapping them keeps the sampled
# equilibrium steady to the last bit.
_SNAP_REL = 1e-14

_DT_MIN = 1e-12


@dataclass(frozen=True)
class FVConfig:
    dt_safety: float = 0.9
    stepper: str = "implicit"
    max_newton_iter: int = 30
    newton_tol: float = 1e-13
    diag_every: int = 10

    def __post_init__(self):
        check_ranges("run", vars(self), (
            ("dt_safety", 0 < self.dt_safety <= 1, "in (0, 1]"),
            ("stepper", self.stepper in ("implicit", "explicit"), "'implicit' or 'explicit'"),
            ("max_newton_iter", self.max_newton_iter >= 1, ">= 1"),
            ("newton_tol", self.newton_tol > 0, "> 0"),
            ("diag_every", self.diag_every >= 1, ">= 1"),
        ))


def chemical_potential(f: Field, c: CoefficientSet) -> Field:
    """mu = D log f + phi, the variational derivative of the free energy."""
    c.require_grid(f)
    if np.min(f.values) <= 0:
        k = int(np.argmin(f.values))
        raise NumericsError(
            f"chemical potential needs f > 0; min {f.values[k]:.6g} at {f.grid.point(k)}"
        )
    return Field(f.grid, c.D.values * np.log(f.values) + c.phi.values)


def _face_terms(grid: TorusGrid, u: np.ndarray, c: CoefficientSet, t: float) -> list[tuple]:
    """Per axis a, the terms of the flux through the faces i + e_a/2:
    (up, dmu, snap, up_sel, f_up, pi_face) with ``up`` the neighbour index
    i + e_a, ``dmu`` the potential jump over h, ``snap`` the jumps that are
    rounding noise, ``up_sel`` where the mobility is upwinded from i + e_a,
    ``f_up`` the upwinded density and ``pi_face`` the face-averaged pi."""
    d_log = c.D.values * np.log(u)
    mu = d_log + c.phi.values
    scale = np.abs(d_log) + np.abs(c.phi.values) + c.D.values
    pi_vals = c.pi_at(t).values
    terms = []
    for a in range(grid.dim):
        up = grid.neighbors(+1, a)
        mu_up = mu[up]
        dmu = (mu_up - mu) / grid.h
        snap = np.abs(mu_up - mu) <= _SNAP_REL * np.maximum(scale, scale[up])
        up_sel = dmu > 0
        f_up = np.where(up_sel, u[up], u)
        pi_face = 0.5 * (pi_vals + pi_vals[up])
        terms.append((up, dmu, snap, up_sel, f_up, pi_face))
    return terms


def _fluxes(terms: list[tuple]) -> list[np.ndarray]:
    """Per-axis face fluxes from ``_face_terms``; entry i of axis a is the
    flux through face i + e_a/2."""
    fluxes = []
    for _, dmu, snap, _, f_up, pi_face in terms:
        j = f_up / pi_face * dmu
        j[snap] = 0.0
        fluxes.append(j)
    return fluxes


def _face_fluxes(
    grid: TorusGrid, u: np.ndarray, c: CoefficientSet, t: float
) -> list[np.ndarray]:
    """The face fluxes at u."""
    return _fluxes(_face_terms(grid, u, c, t))


def _flux_divergence(grid: TorusGrid, fluxes: list[np.ndarray]) -> np.ndarray:
    out = np.zeros(grid.n_cells)
    for a, j in enumerate(fluxes):
        out += (j - j[grid.neighbors(-1, a)]) / grid.h
    return out


def _newton_matrix(
    grid: TorusGrid, u: np.ndarray, c: CoefficientSet, terms: list[tuple], dt: float
) -> sparse.csc_matrix:
    """Exact Jacobian of u - dt * div J(u) (the implicit-step residual
    without the constant previous-state term), from the face terms
    ``_face_terms`` computed at u."""
    h = grid.h
    dmu_du = c.D.values / u
    diag = np.ones(grid.n_cells)
    neighbor_coeffs = []
    for a, (nbr, dmu, snap, up_sel, f_up, pi_face) in enumerate(terms):
        prev = grid.neighbors(-1, a)
        # dJ_face/du_i and dJ_face/du_{i+1}
        dja = (np.where(~up_sel, dmu, 0.0) - f_up * dmu_du / h) / pi_face
        djb = (np.where(up_sel, dmu, 0.0) + f_up * dmu_du[nbr] / h) / pi_face
        dja[snap] = 0.0
        djb[snap] = 0.0
        # residual_i = u_i - f_i - dt/h * (J_a[i] - J_a[prev_a(i)])
        diag -= dt / h * dja
        neighbor_coeffs.append((-dt / h * djb, dt / h * dja[prev]))
        diag += dt / h * djb[prev]
    return grid.stencil_matrix(diag, neighbor_coeffs)


def _implicit_step(
    grid: TorusGrid, f_vals: np.ndarray, c: CoefficientSet, t_new: float, dt: float, cfg: FVConfig
) -> np.ndarray:
    def residual(u: np.ndarray) -> tuple[np.ndarray, list[tuple], np.ndarray]:
        """The residual at u, with the face terms and the flux divergence
        it was built from: one face-term pass per iterate feeds the
        residual, the Jacobian and the conservative update."""
        terms = _face_terms(grid, u, c, t_new)
        div = _flux_divergence(grid, _fluxes(terms))
        return u - f_vals - dt * div, terms, div

    u = f_vals.copy()
    g, terms, div = residual(u)
    norm = float(np.max(np.abs(g)))
    # residual kinks of size ~ f * SNAP_REL * scale * dt/h^2 from flux
    # snapping put a floor under the achievable residual
    floor = max(cfg.newton_tol, 1e-10 * (1.0 + float(np.max(np.abs(f_vals)))))
    for _ in range(cfg.max_newton_iter):
        if norm <= cfg.newton_tol:
            break
        jac = _newton_matrix(grid, u, c, terms, dt)
        try:
            delta = spla.splu(jac, permc_spec=grid.lu_column_order).solve(-g)
        except RuntimeError as err:
            raise NumericsError(f"Newton linear solve failed: {err}") from err
        lam = 1.0
        for _ in range(30):
            trial = u + lam * delta
            norm_trial = math.inf
            if np.min(trial) > 0:
                g_trial, terms_trial, div_trial = residual(trial)
                norm_trial = float(np.max(np.abs(g_trial)))
            # at the floor, a step that cannot lower the residual is roundoff:
            # halving it further cannot help either
            if norm_trial < norm or norm <= floor:
                break
            lam *= 0.5
        else:
            raise NumericsError(
                f"Newton damping failed at t={t_new:.6g} (residual {norm:.3g})"
            )
        if norm_trial >= norm:
            break
        u, g, norm, terms, div = trial, g_trial, norm_trial, terms_trial, div_trial
    else:
        if norm > floor:
            raise NumericsError(
                f"Newton did not reach tol {cfg.newton_tol:g} in {cfg.max_newton_iter} "
                f"iterations at t={t_new:.6g} (residual {norm:.3g})"
            )
    # conservative final update: the flux-difference form telescopes exactly
    return f_vals + dt * div


def _explicit_step(
    grid: TorusGrid, f_vals: np.ndarray, c: CoefficientSet, t: float, dt: float
) -> np.ndarray:
    """Forward-Euler step; a segment whose update is not positive is
    replaced by its two halves, and the segments run left to right."""
    pending = [(t, dt)]  # the leftmost segment last
    while pending:
        t, dt = pending.pop()
        if dt < _DT_MIN:
            raise NumericsError(
                f"explicit step size fell below {_DT_MIN:g} while restoring positivity"
            )
        out = f_vals + dt * _flux_divergence(grid, _face_fluxes(grid, f_vals, c, t))
        if np.min(out) <= 0:
            pending += [(t + 0.5 * dt, 0.5 * dt), (t, 0.5 * dt)]
        else:
            f_vals = out
    return f_vals


def _step(
    grid: TorusGrid, f_vals: np.ndarray, c: CoefficientSet, t: float, dt: float, cfg: FVConfig
) -> np.ndarray:
    """One step of size dt from time t with the configured stepper."""
    if cfg.stepper == "implicit":
        return _implicit_step(grid, f_vals, c, t + dt, dt, cfg)
    return _explicit_step(grid, f_vals, c, t, dt)


def fv_step(f: Field, c: CoefficientSet, t: float, dt: float, cfg: FVConfig) -> Field:
    """Advance one step of size dt starting at time t."""
    c.require_grid(f)
    if dt <= 0:
        raise UsageError("dt must be positive")
    if np.min(f.values) <= 0:
        raise NumericsError("fv_step needs strictly positive input")
    return Field(f.grid, _step(f.grid, f.values, c, t, dt, cfg))


def stable_dt(f: Field, c: CoefficientSet, t: float, cfg: FVConfig) -> float:
    """Step-size policy: diffusive stability limit for the explicit mode,
    accuracy-limited dt = safety * h for the implicit mode."""
    c.require_grid(f)
    grid = f.grid
    if cfg.stepper == "implicit":
        return cfg.dt_safety * grid.h
    pi_vals = c.pi_at(t).values
    diff = float(np.max(c.D.values / pi_vals))
    drift = 0.0
    for comp in gradient(c.phi).components:
        drift = max(drift, float(np.max(np.abs(comp / pi_vals))))
    return cfg.dt_safety * grid.h**2 / (2.0 * grid.dim * diff + grid.h * drift)


@dataclass(frozen=True)
class DiagnosticsRow:
    t: float
    mass: float
    free_energy: float
    dissipation_rate: float
    dF_dt_numeric: float
    min_f: float
    max_f: float
    linf_to_feq: float


@dataclass(frozen=True)
class SimulationResult:
    trajectory: Trajectory
    rows: list
    dt: float
    n_steps: int
    equilibrium: object
    bounds: object
    warnings: list = field(default_factory=list)


def simulate(spec: ProblemSpec, cfg: FVConfig) -> SimulationResult:
    """March the finite-volume scheme to T_final, record f0, every
    ``diag_every``-th state and the last, and then build one DiagnosticsRow
    per recorded frame.

    Raises AssumptionError when the standing assumptions fail on the sampled
    data, and UsageError before the march when the recorded frames would not
    fit in physical memory.  A priori envelope violations beyond 1e-6 + h^2
    are reported as warnings with their location, not errors.
    """
    c = build_coefficients(spec)
    grid = c.grid
    f0 = sample_initial_data(spec)
    validate_assumptions(c, f0, spec).require()

    eq = equilibrium_state(c, integrate(f0))
    bounds = apriori_bounds(f0, eq, c)
    env_slack = 1e-6 + grid.h**2

    dt = min(stable_dt(f0, c, 0.0, cfg), spec.T_final)
    n_steps = max(1, int(math.ceil(spec.T_final / dt - 1e-9)))
    # the recorded frames and rows; coefficients and step work take < 64 frames more
    _require_memory(
        _frames_bytes(grid, 2 + (n_steps - 1) // cfg.diag_every + 64),
        "the recorded frames of simulate", "a smaller n or t_final, or a larger diag_every",
    )

    warnings: list[str] = []
    recorded = [(0.0, f0)]
    vals = f0.values
    t = 0.0
    for k in range(n_steps):
        step = min(dt, spec.T_final - t)
        vals = _step(grid, vals, c, t, step, cfg)
        t += step
        lo = float(np.min(vals))
        hi = float(np.max(vals))
        if lo < bounds.m - env_slack or hi > bounds.M + env_slack:
            where = grid.point(int(np.argmin(vals) if lo < bounds.m - env_slack else np.argmax(vals)))
            msg = (
                f"a priori envelope violated at t={t:.6g}, x={where}: "
                f"min={lo:.6g} (m={bounds.m:.6g}), max={hi:.6g} (M={bounds.M:.6g})"
            )
            warnings.append(msg)
            log.warning(msg)
        if (k + 1) % cfg.diag_every == 0 or k == n_steps - 1:
            recorded.append((t, Field(grid, vals)))

    times, frames = zip(*recorded)
    energies = [free_energy(fr, c) for fr in frames]
    rows = [
        DiagnosticsRow(
            t=t,
            mass=integrate(fr),
            free_energy=fe,
            dissipation_rate=dissipation_rate(fr, c, t),
            dF_dt_numeric=float(slope),
            min_f=float(np.min(fr.values)),
            max_f=float(np.max(fr.values)),
            linf_to_feq=float(np.max(np.abs(fr.values - eq.f_eq.values))),
        )
        for (t, fr), fe, slope in zip(recorded, energies, np.gradient(energies, times))
    ]
    traj = Trajectory(grid, times, list(frames))
    return SimulationResult(traj, rows, dt, n_steps, eq, bounds, warnings)
