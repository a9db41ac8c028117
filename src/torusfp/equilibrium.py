"""Equilibrium state, free energy, dissipation rate, and the two-sided
a priori envelopes that bound every solution in terms of the initial data
and the equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeff import CoefficientSet
from .errors import NumericsError
from .grid import Field, gradient, integrate

__all__ = [
    "EquilibriumState",
    "AprioriBounds",
    "equilibrium_state",
    "free_energy",
    "dissipation_rate",
    "apriori_bounds",
]


@dataclass(frozen=True)
class EquilibriumState:
    f_eq: Field
    C_eq: float
    mass: float


@dataclass(frozen=True)
class AprioriBounds:
    m: float
    M: float
    lower_env: Field
    upper_env: Field


def _require_positive(f: Field, what: str):
    if np.min(f.values) <= 0:
        k = int(np.argmin(f.values))
        raise NumericsError(
            f"{what} must be positive; min value {f.values[k]:.6g} at {f.grid.point(k)}"
        )


def _gibbs_values(c: CoefficientSet, C: float) -> np.ndarray:
    # an overflow to inf is a valid sign of the mass defect while bracketing
    with np.errstate(over="ignore"):
        return np.exp(-(c.phi.values - C) / c.D.values)


def equilibrium_state(c: CoefficientSet, mass: float) -> EquilibriumState:
    """Find the Gibbs state exp(-(phi - C)/D) whose total mass matches, to
    the relative tolerance ``[tolerances] root`` of ``c.problem``.

    The mass defect g(C) = integrate(exp(-(phi-C)/D)) - mass is strictly
    increasing in C (D > 0), so bisection is unconditionally safe.  An exact
    constant-D guess is tried first, then the bracket is expanded
    geometrically until the sign changes.  When exp(-phi/D) under- or
    overflows, the guess is the mean of phi + D log(mass), whose extrema
    bracket the root on the unit torus.
    """
    if mass <= 0:
        raise NumericsError(f"mass must be positive, got {mass}")
    grid = c.grid
    hdim = grid.h**grid.dim

    def defect(C: float) -> float:
        return hdim * float(np.sum(_gibbs_values(c, C))) - mass

    tol = c.problem.tolerances.root * mass
    base = hdim * float(np.sum(_gibbs_values(c, 0.0)))
    if 0 < base < np.inf:
        # exact for constant D; a good starting point otherwise
        C = float(np.mean(c.D.values)) * np.log(mass / base)
    else:
        C = float(np.mean(c.phi.values + c.D.values * np.log(mass)))
    g = defect(C)
    if abs(g) <= tol:
        return EquilibriumState(Field(grid, _gibbs_values(c, C)), float(C), mass)

    step = max(1.0, abs(C))
    lo, hi = C, C
    glo, ghi = g, g
    expansions = 0
    while glo > 0 or ghi < 0:
        expansions += 1
        if expansions > 200:
            raise NumericsError(
                "equilibrium constant bracketing failed after 200 expansions "
                "(pathological coefficients?)"
            )
        if glo > 0:
            lo -= step
            glo = defect(lo)
        if ghi < 0:
            hi += step
            ghi = defect(hi)
        step *= 2.0

    for _ in range(400):
        mid = 0.5 * (lo + hi)
        gm = defect(mid)
        if abs(gm) <= tol:
            return EquilibriumState(Field(grid, _gibbs_values(c, mid)), float(mid), mass)
        if gm < 0:
            lo = mid
        else:
            hi = mid
    raise NumericsError("equilibrium constant bisection did not reach tolerance")


def free_energy(f: Field, c: CoefficientSet) -> float:
    """F[f] = integral of D f (log f - 1) + phi f."""
    c.require_grid(f)
    _require_positive(f, "free_energy input")
    vals = c.D.values * f.values * (np.log(f.values) - 1.0) + c.phi.values * f.values
    return integrate(Field(f.grid, vals))


def dissipation_rate(f: Field, c: CoefficientSet, time: float = 0.0) -> float:
    """Instantaneous free-energy dissipation, integral of (f/pi) |grad(D log f + phi)|^2.

    This is the nonnegative rate at which F decreases along solutions.
    """
    c.require_grid(f)
    _require_positive(f, "dissipation_rate input")
    mu_chem = Field(f.grid, c.D.values * np.log(f.values) + c.phi.values)
    g = gradient(mu_chem)
    mag2 = np.zeros(f.grid.n_cells)
    for comp in g.components:
        mag2 += comp * comp
    pi_vals = c.pi_at(time).values
    return integrate(Field(f.grid, f.values / pi_vals * mag2))


def apriori_bounds(f0: Field, eq: EquilibriumState, c: CoefficientSet) -> AprioriBounds:
    """Pointwise envelopes sandwiching any solution started from f0.

    lower_env(x) = exp( min_y D(y) log(f0/f_eq)(y) / D(x) ) * f_eq(x) and the
    max analog above; m and M are the grid extrema of the envelopes.
    """
    c.require_grid(f0, eq.f_eq)
    _require_positive(f0, "apriori_bounds initial data")
    log_ratio = c.D.values * np.log(f0.values / eq.f_eq.values)
    lo = float(np.min(log_ratio))
    hi = float(np.max(log_ratio))
    lower = np.exp(lo / c.D.values) * eq.f_eq.values
    upper = np.exp(hi / c.D.values) * eq.f_eq.values
    lower_env = Field(f0.grid, lower)
    upper_env = Field(f0.grid, upper)
    return AprioriBounds(
        m=float(np.min(lower)),
        M=float(np.max(upper)),
        lower_env=lower_env,
        upper_env=upper_env,
    )
