"""Numerical realization of the fixed-point existence construction: the
admissible set Y, the Duhamel map, the explicit time bound, Banach
iteration, the continuity estimate, and global-in-time concatenation.

The Duhamel map is evaluated in its pre-integration-by-parts form: the
propagator applied to div(V f log f), with the time integral by composite
midpoint over a uniform lattice.  By the semigroup property this is one
recurrence, Psi[m+1] = S_delta Psi[m] + delta * S_{delta/2} src_m, whose
src = 0 case is the linear evolution.  On the discrete level this agrees
exactly with the gradient-of-kernel form by the adjointness of the grid
calculus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coeff import CoefficientSet, resolved_lambda, resolved_mu
from .equilibrium import apriori_bounds, equilibrium_state
from .errors import AssumptionError, NumericsError, UsageError
# ``divergence`` is unused here but kept: perfbench/tracing.py patches picard.divergence
from .grid import Field, TorusGrid, Trajectory, divergence, divergence_values, integrate, sup_norm
from .kernel import ImplicitStepper, _frames_bytes, _require_memory, fit_duhamel_constant

__all__ = [
    "PicardSpace",
    "GlobalPlan",
    "FixedPointReport",
    "WindowReport",
    "time_bound",
    "time_bound_primed",
    "picard_space",
    "psi_map",
    "fixed_point_solve",
    "contraction_ratio",
    "continuity_check",
    "global_solve",
]

# global_solve refuses window counts above this
_MAX_WINDOWS = 200_000


def time_bound(
    mu: float, f0_norm: float, c_gauss: float, v_norm: float, w_inf: float, w_sup: float
) -> float:
    """Explicit local existence horizon T: the window horizon T' of
    ``time_bound_primed`` with m = inf and M = 0.

    sqrt(T) is the smaller of the contraction branch
    min(mu,1) / (2 (C R (2R/mu + |log mu| + 1) ||V|| + 1)) with
    R = 1 + mu + 2||f0||, and the row-mass branch
    sqrt(log 2 / (|W_inf| + |W_sup| + 1)).
    """
    return time_bound_primed(mu, math.inf, 0.0, f0_norm, c_gauss, v_norm, w_inf, w_sup)[0]


def time_bound_primed(
    mu: float,
    m: float,
    big_m: float,
    f0_norm: float,
    c_gauss: float,
    v_norm: float,
    w_inf: float,
    w_sup: float,
) -> tuple[float, float, float]:
    """Window horizon T' for the global induction, with the primed constants
    R' = 1 + mu + 2||f0|| + 2M and gamma = min(mu, m/4).

    Returns (T', R', gamma).
    """
    if mu <= 0 or m <= 0:
        raise UsageError(f"mu and m must be positive, got mu={mu}, m={m}")
    gamma = min(mu, m / 4.0)
    r_prime = 1.0 + mu + 2.0 * f0_norm + 2.0 * big_m
    branch1 = min(mu, 1.0, m / 4.0) / (
        2.0 * (c_gauss * r_prime * (2.0 * r_prime / gamma + abs(math.log(gamma)) + 1.0) * v_norm + 1.0)
    )
    branch2 = math.sqrt(math.log(2.0) / (abs(w_inf) + abs(w_sup) + 1.0))
    return min(branch1, branch2) ** 2, r_prime, gamma


@dataclass(frozen=True)
class PicardSpace:
    """Parameters of the admissible set Y = {f : f >= mu, sup|f| <= R} on a
    horizon T, plus the constants the horizon was computed from.

    C_gauss is the measured kernel constant fed to the time-bound formula (a
    fitted surrogate for the unquantified theoretical constant; it is inert
    when V vanishes).
    """

    mu: float
    Lambda: float
    R: float
    T: float
    C_gauss: float
    W_inf: float
    W_sup: float
    V_norm: float


def _horizon(
    f0: Field, c: CoefficientSet, mu: float, m: float, big_m: float, safety: float
) -> tuple[PicardSpace, float]:
    """The horizon rule shared by ``picard_space`` and ``global_solve``.

    When V is nonzero, C_gauss is fitted from the actual discrete kernel and
    the horizon T' of ``time_bound_primed`` shrinks by ``safety``; when V
    vanishes the formula does not involve C and T' is used as is.  Returns
    the space Y (mu = gamma, R = R', T = the shrunk horizon) and T'.
    """
    v_norm = c.V_sup
    c_gauss = fit_duhamel_constant(c, c.grid) if v_norm > 0 else 1.0
    t_prime, r_prime, gamma = time_bound_primed(
        mu, m, big_m, sup_norm(f0), c_gauss, v_norm, c.W_inf, c.W_sup
    )
    space = PicardSpace(
        mu=gamma,
        Lambda=resolved_lambda(c.problem, f0),
        R=r_prime,
        T=t_prime * (safety if v_norm > 0 else 1.0),
        C_gauss=c_gauss,
        W_inf=c.W_inf,
        W_sup=c.W_sup,
        V_norm=v_norm,
    )
    return space, t_prime


def picard_space(
    f0: Field, c: CoefficientSet, mu: float | None = None, safety: float = 0.5
) -> PicardSpace:
    """Build the solver's operating space by policy: the horizon T of
    ``time_bound`` under the rule of ``_horizon``.

    mu defaults to min(f0)/4 (the largest value the initial-data assumption
    permits).
    """
    mu = resolved_mu(c.problem, f0) if mu is None else mu
    return _horizon(f0, c, mu, math.inf, 0.0, safety)[0]


def _require_in_y(values: np.ndarray, space: PicardSpace, slack: float, what: str):
    vmin, vsup = float(np.min(values)), float(np.max(np.abs(values)))
    if vmin < space.mu - slack or vsup > space.R + slack:
        raise NumericsError(
            f"{what} leaves Y: min={vmin:.6g} (mu={space.mu:.6g}), "
            f"sup={vsup:.6g} (R={space.R:.6g})"
        )


def _lattice(t0: float, length: float, nt: int) -> np.ndarray:
    """The window lattice t0 + (length/nt)*m, m = 0..nt."""
    return t0 + (length / nt) * np.arange(nt + 1)


def _lattice_bytes(grid: TorusGrid, nt: int) -> int:
    """Peak bytes of the Picard iteration on nt intervals: 9 + 2 dim blocks
    of (nt + 1) x N float64 values, for the iterate, its image, the sources
    with V's dim components, their temporaries and the previous window."""
    return 8 * (nt + 1) * grid.n_cells * (9 + 2 * grid.dim)


def _nonlinear_source(c: CoefficientSet, favg: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """The sources div(V f log f) of the ``(nt, N)`` block of midpoint
    averages ``favg``, row m with V at ``mids[m]``, in one pass."""
    w = favg * np.log(favg)
    v = np.stack([c.V_at(t).components for t in mids], axis=1)
    return divergence_values(c.grid, v * w)


def _psi_values(
    fvals: np.ndarray,
    f0_vals: np.ndarray,
    c: CoefficientSet,
    stepper: ImplicitStepper,
    t0: float,
    length: float,
    nt: int,
    v_zero: bool,
) -> np.ndarray:
    """The Duhamel map of the frames ``fvals`` on the window lattice, as the
    recurrence out[m+1] = S_delta out[m] + delta * S_{delta/2} src_m with src_m
    the source at the midpoint average of fvals[m], fvals[m+1]; when V
    vanishes src = 0 and the frames are the free evolution of f0.

    No half step depends on the recurrence, so all of them are advanced
    first, as one block."""
    delta = length / nt
    mids = _lattice(t0, length, nt)[:-1] + 0.5 * delta
    if not v_zero:
        srcs = _nonlinear_source(c, 0.5 * (fvals[:-1] + fvals[1:]), mids)
        kicks = delta * stepper.advance(srcs.T, mids + 0.25 * delta, 0.5 * delta).T
    out = np.empty_like(fvals)
    out[0] = f0_vals
    for m in range(nt):
        out[m + 1] = stepper.advance(out[m], mids[m], delta)
        if not v_zero:
            out[m + 1] += kicks[m]
    return out


def _uniform_lattice_params(times: np.ndarray) -> tuple[float, float, int]:
    """(t0, length, nt) of ``times``, which must be the window lattice of
    ``_lattice`` up to the rounding of its end points."""
    nt = times.size - 1
    if nt < 1:
        raise UsageError("trajectory needs at least two time points")
    t0, t_end = float(times[0]), float(times[-1])
    tol = 4.0 * nt * np.finfo(float).eps * max(abs(t0), abs(t_end))
    if np.max(np.abs(times - _lattice(t0, t_end - t0, nt))) > tol:
        raise UsageError("the Duhamel quadrature requires a uniform time lattice")
    return t0, t_end - t0, nt


def psi_map(
    f: Trajectory,
    f0: Field,
    c: CoefficientSet,
    space: PicardSpace,
) -> Trajectory:
    """One application of the Duhamel map to a trajectory in Y."""
    c.require_grid(f, f0)
    vals = f.values_matrix()
    _require_in_y(vals, space, 1e-10, "psi_map input")
    t0, length, nt = _uniform_lattice_params(f.times)
    stepper = ImplicitStepper(c, c.grid)
    out = _psi_values(vals, f0.values, c, stepper, t0, length, nt, space.V_norm == 0.0)
    return Trajectory(c.grid, f.times, [Field(c.grid, row) for row in out])


@dataclass(frozen=True)
class FixedPointReport:
    """The Banach iteration of one window.  ``history`` holds one row
    (iteration, residual, ratio, min_f, max_f) per iterate: the sup-norm
    difference to the previous iterate, its ratio to the previous one (nan
    on the first row and after a zero difference), and the iterate's
    extrema.  When V vanishes the map ignores the iterate: one row is made,
    and the other fields also count the implied zero difference."""

    iterations: int
    final_residual: float
    empirical_contraction: float
    in_Y_every_iterate: bool
    history: tuple


def _fixed_point_values(
    f0_vals: np.ndarray,
    c: CoefficientSet,
    space: PicardSpace,
    stepper: ImplicitStepper,
    t0: float,
    length: float,
    nt: int,
    tol: float,
    max_iter: int,
    initial_slack: float = 1e-12,
) -> tuple[np.ndarray, FixedPointReport]:
    if float(np.min(f0_vals)) < 4.0 * space.mu - initial_slack:
        raise AssumptionError(
            f"initial data must satisfy f0 >= 4*mu = {4 * space.mu:.6g}, "
            f"min f0 = {np.min(f0_vals):.6g}"
        )
    v_zero = space.V_norm == 0.0
    u = np.tile(f0_vals, (nt + 1, 1))
    history: list[tuple] = []
    for iteration in range(1, max_iter + 1):
        unew = _psi_values(u, f0_vals, c, stepper, t0, length, nt, v_zero)
        d = float(np.max(np.abs(unew - u)))
        prev = history[-1][1] if history else 0.0
        vmin, vmax = float(np.min(unew)), float(np.max(unew))
        history.append((iteration, d, d / prev if prev > 0 else math.nan, vmin, vmax))
        vsup = max(vmax, -vmin)
        if vmin < space.mu - 1e-6 or vsup > space.R + 1e-6:
            raise NumericsError(
                f"Picard iterate exits Y at iteration {iteration}: "
                f"min={vmin:.6g} (mu={space.mu:.6g}), sup={vsup:.6g} (R={space.R:.6g})"
            )
        if len(history) >= 3 and all(ratio > 1.0 for _, _, ratio, _, _ in history[-3:]):
            raise NumericsError(
                "Picard iteration not contracting for 3 consecutive steps; "
                "T is too large for the discrete setting"
            )
        u = unew
        if d <= tol or v_zero:
            break
    else:
        raise NumericsError(f"Picard iteration did not converge in {max_iter} iterations")

    # when V = 0 and d > tol, the next difference is exactly zero
    implied = d > tol
    ratios = [ratio for _, _, ratio, _, _ in history if not math.isnan(ratio)]
    report = FixedPointReport(
        iterations=len(history) + implied,
        final_residual=0.0 if implied else d,
        empirical_contraction=max(ratios, default=0.0),
        in_Y_every_iterate=not any(
            lo < space.mu - 1e-10 or max(hi, -lo) > space.R + 1e-10 for *_, lo, hi in history
        ),
        history=tuple(history),
    )
    return u, report


def fixed_point_solve(
    f0: Field,
    c: CoefficientSet,
    space: PicardSpace,
    tol: float = 1e-8,
    max_iter: int = 40,
    nt: int = 64,
    t0: float = 0.0,
) -> tuple[Trajectory, FixedPointReport]:
    """Banach iteration of the Duhamel map from the constant-in-time
    extension of f0, on a lattice of nt midpoint intervals over
    [t0, t0 + space.T].  The report's ``history`` holds one row per iterate.

    Raises UsageError, before any allocation, when the iteration's
    ``(nt + 1, N)`` blocks would not fit in physical memory.
    """
    c.require_grid(f0)
    _require_memory(_lattice_bytes(c.grid, nt), "the Picard iteration", "a smaller n or nt")
    stepper = ImplicitStepper(c, c.grid)
    vals, report = _fixed_point_values(f0.values, c, space, stepper, t0, space.T, nt, tol, max_iter)
    traj = Trajectory(c.grid, _lattice(t0, space.T, nt), [Field(c.grid, row) for row in vals])
    return traj, report


def contraction_ratio(
    f: Trajectory, g: Trajectory, f0: Field, c: CoefficientSet, space: PicardSpace
) -> float:
    """sup-norm ratio ||psi f - psi g|| / ||f - g||; zero for f = g."""
    if not np.array_equal(f.times, g.times):
        raise UsageError("trajectories must share one time lattice")
    pf = psi_map(f, f0, c, space).values_matrix()
    pg = psi_map(g, f0, c, space).values_matrix()
    denom = float(np.max(np.abs(f.values_matrix() - g.values_matrix())))
    if denom == 0.0:
        return 0.0
    return float(np.max(np.abs(pf - pg))) / denom


def continuity_check(
    f0: Field,
    g0: Field,
    c: CoefficientSet,
    space: PicardSpace,
    tol: float = 1e-10,
    max_iter: int = 40,
    nt: int = 64,
) -> float:
    """Solve both fixed points and return ||f - g||_traj / ||f0 - g0||."""
    uf, _ = fixed_point_solve(f0, c, space, tol, max_iter, nt)
    ug, _ = fixed_point_solve(g0, c, space, tol, max_iter, nt)
    denom = float(np.max(np.abs(f0.values - g0.values)))
    if denom == 0.0:
        return 0.0
    return float(np.max(np.abs(uf.values_matrix() - ug.values_matrix()))) / denom


@dataclass(frozen=True)
class WindowReport:
    """The Picard iteration of one ``global_solve`` window: its count, its
    largest ratio of successive differences, and the margins of its frames
    inside the a priori envelope, min - m and M - max (negative within
    the envelope tolerance)."""

    index: int
    iterations: int
    empirical_contraction: float
    lower_margin: float
    upper_margin: float


@dataclass(frozen=True)
class GlobalPlan:
    m: float
    M: float
    R_prime: float
    gamma: float
    T_prime: float
    num_windows: int
    window: float  # the marched window length (the last window may be shorter)
    window_reports: tuple[WindowReport, ...] = ()  # filled in by the march


def global_solve(
    f0: Field,
    c: CoefficientSet,
    T_final: float,
    tol: float = 1e-9,
    max_iter: int = 40,
    nt_per_window: int = 16,
    envelope_tol: float = 1e-4,
    num_windows_override: int | None = None,
    safety: float = 0.5,
) -> tuple[Trajectory, GlobalPlan]:
    """March the fixed-point solver over consecutive windows of length T'
    up to T_final, each window starting from the previous terminal frame.

    Every computed frame is checked against the a priori envelope
    [m - envelope_tol, M + envelope_tol]; seam frames are asserted
    bit-identical across windows.  The returned trajectory holds the seam
    frames (window boundaries) and the returned plan one WindowReport per
    window.  Marching refuses to start when the window horizon would
    require more than _MAX_WINDOWS windows (the honest horizon is tiny for
    strongly nonlinear problems; num_windows_override takes responsibility
    for longer windows).
    """
    if T_final <= 0:
        raise UsageError("T_final must be positive")
    from .coeff import validate_assumptions

    validate_assumptions(c, f0, c.problem).require()
    eq = equilibrium_state(c, integrate(f0))
    bnd = apriori_bounds(f0, eq, c)
    space, t_prime = _horizon(f0, c, resolved_mu(c.problem, f0), bnd.m, bnd.M, safety)
    if num_windows_override is not None:
        nw = num_windows_override
        space = replace(space, T=T_final / nw)
    else:
        nw = int(math.ceil(T_final / space.T - 1e-12))
        if nw > _MAX_WINDOWS:
            raise NumericsError(
                f"global solve needs {nw} windows of T'={t_prime:.3g} to reach "
                f"T_final={T_final:g}; set the window count with --windows N or "
                "[picard] windows (or a smaller T_final) to proceed"
            )
    plan = GlobalPlan(
        m=bnd.m, M=bnd.M, R_prime=space.R, gamma=space.mu, T_prime=t_prime, num_windows=nw,
        window=space.T,
    )

    _require_memory(
        _lattice_bytes(c.grid, nt_per_window) + _frames_bytes(c.grid, nw + 1),
        "the global march", "a smaller n or nt_per_window, or fewer windows",
    )
    stepper = ImplicitStepper(c, c.grid)
    seam_times = [0.0]
    seams = [f0]
    reports = []
    for k in range(nw):
        start = k * space.T
        length = space.T if k < nw - 1 else T_final - start
        cur = seams[-1].values
        try:
            vals, rep = _fixed_point_values(
                cur,
                c,
                space,
                stepper,
                start,
                length,
                nt_per_window,
                tol,
                max_iter,
                initial_slack=envelope_tol + 1e-9,
            )
        except NumericsError as err:
            raise NumericsError(f"window {k} of {nw} failed: {err}") from err
        if not np.array_equal(vals[0], cur):
            raise NumericsError(f"window {k}: seam frame is not bit-identical")
        *_, lo, hi = rep.history[-1]
        if lo < bnd.m - envelope_tol or hi > bnd.M + envelope_tol:
            raise NumericsError(
                f"window {k}: a priori envelope violated "
                f"(min={lo:.6g} vs m={bnd.m:.6g}, max={hi:.6g} vs M={bnd.M:.6g}); "
                "discretization error"
            )
        reports.append(
            WindowReport(k, rep.iterations, rep.empirical_contraction, lo - bnd.m, bnd.M - hi)
        )
        seam_times.append(start + length)
        seams.append(Field(c.grid, vals[-1]))

    traj = Trajectory(c.grid, np.asarray(seam_times), seams)
    return traj, replace(plan, window_reports=tuple(reports))

