"""Coefficient functions: sampling onto grids and machine checks of the
standing assumptions (uniform parabolicity, boundedness, initial-data
bounds, temperature/mobility bounds).

Coefficients enter as expression strings (see ``expressions``) or tabulated
snapshot CSVs.  The absolute temperature D and the potential phi must not
depend on time; the mobility pi may.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import expressions as ex
from .errors import AssumptionError, ExprDomainError, UsageError, check_ranges
from .grid import Field, TorusGrid, VectorField, divergence, gradient

__all__ = [
    "Tolerances",
    "ProblemSpec",
    "CoefficientSet",
    "AssumptionCheck",
    "AssumptionReport",
    "build_coefficients",
    "validate_assumptions",
    "sample_initial_data",
]


@dataclass(frozen=True)
class Tolerances:
    root: float = 1e-12

    def __post_init__(self):
        check_ranges("tolerances", vars(self), (("root", self.root > 0, "> 0"),))


@dataclass(frozen=True)
class ProblemSpec:
    """Everything needed to pose one problem instance.

    Coefficient entries are either parsed expressions or Fields loaded from
    snapshot CSVs (tables are time-independent by construction).  ``mu`` and
    ``lam`` default to the extremal values permitted by the initial-data
    assumption: mu = min(f0)/4 and lam = max(f0).
    """

    dim: int
    n_per_axis: int
    d_coeff: object  # ex.Expr | Field
    pi_coeff: object
    phi_coeff: object
    f0: object
    T_final: float
    mu: float | None = None
    lam: float | None = None
    beta_declared: float = 0.5
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        run_keys = {
            "t_final": self.T_final, "mu": self.mu, "lambda": self.lam, "beta": self.beta_declared,
        }
        check_ranges("run", run_keys, (
            ("t_final", self.T_final > 0, "> 0"),
            ("mu", self.mu is None or self.mu > 0, "> 0"),
            ("lambda", self.mu is None or self.lam is None or self.lam >= 4 * self.mu, ">= 4*mu"),
            ("beta", 0 < self.beta_declared < 1, "in (0, 1)"),
        ))

    def make_grid(self) -> TorusGrid:
        return TorusGrid(self.dim, self.n_per_axis)

    def with_resolution(self, n_per_axis: int) -> "ProblemSpec":
        """Same problem on a finer/coarser grid (expression-backed only)."""
        for entry in (self.d_coeff, self.pi_coeff, self.phi_coeff, self.f0):
            if isinstance(entry, Field):
                raise UsageError("cannot change resolution of a table-backed problem")
        return replace(self, n_per_axis=n_per_axis)


def _sample(entry, grid: TorusGrid, t: float, what: str) -> np.ndarray:
    if isinstance(entry, Field):
        if entry.grid != grid:
            raise UsageError(f"tabulated {what} does not match the problem grid")
        return entry.values
    if isinstance(entry, ex.Expr):
        if ex.max_var_index(entry) > grid.dim:
            raise UsageError(
                f"{what} uses variable x{ex.max_var_index(entry)} but the problem is {grid.dim}-d"
            )
        try:
            return ex.eval_on_grid(entry, grid, t)
        except ExprDomainError as err:
            when = f" at t={t:.6g}" if what == "pi" else ""
            raise UsageError(f"{what} is undefined on the grid{when}: {err}") from err
    raise UsageError(f"{what} must be an expression or a tabulated Field")


def sample_initial_data(spec: ProblemSpec) -> Field:
    grid = spec.make_grid()
    return Field(grid, _sample(spec.f0, grid, 0.0, "f0"))


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Sampled coefficients plus the certified constants derived from them.

    ``pi_at``, ``V_at`` and ``W_at`` are pure functions of time; for a
    time-independent mobility they return cached samples.  The certified
    constants are grid extrema over the time samples of ``build_coefficients``:
    theta is the least sampled D/pi (the uniform parabolicity constant),
    W_inf/W_sup bracket the zeroth-order coefficient and V_sup is the sup
    norm of V.
    """

    grid: TorusGrid
    D: Field
    phi: Field
    pi_at: object
    V_at: object
    W_at: object
    theta: float
    C_D: float
    C_pi_low: float
    C_pi_up: float
    W_inf: float
    W_sup: float
    V_sup: float
    beta_declared: float
    time_independent_pi: bool
    problem: ProblemSpec

    def v_sup_norm(self) -> float:
        """Sup norm of V over the grid and the certified times."""
        return self.V_sup

    def require_grid(self, *items) -> None:
        """Raise UsageError unless every item (a Field, Trajectory or
        Propagator) lives on the grid of these coefficients."""
        if any(item.grid != self.grid for item in items):
            raise UsageError("inputs and coefficients must share one grid")


# interior time samples of a time-dependent mobility
_TIME_SAMPLES = 64


def build_coefficients(spec: ProblemSpec) -> CoefficientSet:
    """Sample D, phi, wire the pi/V/W generators, and certify the constants.

    Raises AssumptionError on a positivity violation (D <= 0 or pi <= 0 at a
    sample; both break assumption A4/A1) and UsageError if D or phi depends
    on t.
    """
    grid = spec.make_grid()
    for entry, name in ((spec.d_coeff, "D"), (spec.phi_coeff, "phi")):
        if isinstance(entry, ex.Expr) and ex.uses_time(entry):
            raise UsageError(f"{name} must not depend on t")

    d_vals = _sample(spec.d_coeff, grid, 0.0, "D")
    phi_vals = _sample(spec.phi_coeff, grid, 0.0, "phi")
    if np.min(d_vals) <= 0:
        k = int(np.argmin(d_vals))
        raise AssumptionError(
            f"assumption A4 violated: D <= 0 at {grid.point(k)} (D={d_vals[k]:.6g})"
        )
    D = Field(grid, d_vals)
    phi = Field(grid, phi_vals)
    grad_d = gradient(D)
    grad_phi = gradient(phi)

    time_independent = isinstance(spec.pi_coeff, Field) or not ex.uses_time(spec.pi_coeff)

    def pi_values(t: float) -> np.ndarray:
        vals = _sample(spec.pi_coeff, grid, t, "pi")
        if np.min(vals) <= 0:
            k = int(np.argmin(vals))
            raise AssumptionError(
                f"assumption A4 violated: pi <= 0 at {grid.point(k)}, t={t:.6g} "
                f"(pi={vals[k]:.6g})"
            )
        return vals

    def v_of(p: np.ndarray) -> VectorField:
        return VectorField(grid, tuple(c / p for c in grad_d.components))

    def w_of(p: np.ndarray) -> Field:
        return divergence(VectorField(grid, tuple(c / p for c in grad_phi.components)))

    if time_independent:
        pi0 = Field(grid, pi_values(0.0))
        v0, w0 = v_of(pi0.values), w_of(pi0.values)

        def pi_at(t: float) -> Field:
            return pi0

        def V_at(t: float) -> VectorField:
            return v0

        def W_at(t: float) -> Field:
            return w0

    else:

        def pi_at(t: float) -> Field:
            return Field(grid, pi_values(t))

        def V_at(t: float) -> VectorField:
            return v_of(pi_values(t))

        def W_at(t: float) -> Field:
            return w_of(pi_values(t))

    # uniform interior samples plus both endpoints
    times = [0.0] if time_independent else np.linspace(0.0, spec.T_final, _TIME_SAMPLES + 2)
    theta = np.inf
    pi_low, pi_up = np.inf, -np.inf
    w_inf, w_sup = np.inf, -np.inf
    v_sup = 0.0
    for t in times:
        p = pi_values(float(t))
        theta = min(theta, float(np.min(d_vals / p)))
        pi_low = min(pi_low, float(np.min(p)))
        pi_up = max(pi_up, float(np.max(p)))
        w = w_of(p).values
        w_inf = min(w_inf, float(np.min(w)))
        w_sup = max(w_sup, float(np.max(w)))
        mag = np.zeros(grid.n_cells)
        for comp in v_of(p).components:
            mag += comp * comp
        v_sup = max(v_sup, float(np.sqrt(np.max(mag))))

    return CoefficientSet(
        grid=grid,
        D=D,
        phi=phi,
        pi_at=pi_at,
        V_at=V_at,
        W_at=W_at,
        theta=theta,
        C_D=float(np.min(d_vals)),
        C_pi_low=pi_low,
        C_pi_up=pi_up,
        W_inf=w_inf,
        W_sup=w_sup,
        V_sup=v_sup,
        beta_declared=spec.beta_declared,
        time_independent_pi=time_independent,
        problem=spec,
    )


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    witness: str
    value: float


@dataclass(frozen=True)
class AssumptionReport:
    checks: list
    mu: float
    lam: float

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> list:
        return [c for c in self.checks if not c.passed]

    def require(self) -> None:
        """Raise AssumptionError naming each failing check and its witness."""
        if not self.all_pass:
            names = ", ".join(ch.name for ch in self.failing())
            details = "; ".join(ch.witness for ch in self.failing())
            raise AssumptionError(f"assumption(s) {names} fail: {details}")


def resolved_mu(spec: ProblemSpec, f0: Field) -> float:
    """The configured mu, else min(f0)/4."""
    if spec.mu is not None:
        return spec.mu
    return float(np.min(f0.values)) / 4.0


def resolved_lambda(spec: ProblemSpec, f0: Field) -> float:
    """The configured lambda, else max(f0)."""
    if spec.lam is not None:
        return spec.lam
    return float(np.max(f0.values))


def validate_assumptions(c: CoefficientSet, f0: Field, spec: ProblemSpec) -> AssumptionReport:
    """Check A1-A4 on the sampled data; failures are report entries, never raises.

    A2 (Hoelder regularity of the coefficients) cannot be verified from finite
    samples; it is checked at the level of boundedness only, with the declared
    exponent recorded as a user assertion.
    """
    c.require_grid(f0)
    mu = resolved_mu(spec, f0)
    lam = resolved_lambda(spec, f0)
    checks = []

    pi0 = c.pi_at(0.0).values
    a = c.D.values / pi0
    k = int(np.argmin(a))
    checks.append(
        AssumptionCheck(
            "A1", c.theta > 0, f"min D/pi = {c.theta:.12g} at {c.grid.point(k)}", c.theta
        )
    )

    # Boundedness of the non-divergence-form coefficients and of V; the
    # Hoelder exponent itself is only declared.
    a_sup = float(np.max(a))
    grad_a = gradient(Field(c.grid, a))
    first_order = 0.0
    for gphi, ga in zip(gradient(c.phi).components, grad_a.components):
        first_order = max(first_order, float(np.max(np.abs(gphi / pi0 + ga))))
    w_sup = max(abs(c.W_inf), abs(c.W_sup))
    bound = max(a_sup, first_order, w_sup, c.V_sup)
    checks.append(
        AssumptionCheck(
            "A2",
            bool(np.isfinite(bound)),
            f"coefficients bounded by {bound:.6g}; "
            f"Hoelder exponent beta={c.beta_declared} declared, not verified",
            bound,
        )
    )

    fmin = float(np.min(f0.values))
    fmax = float(np.max(f0.values))
    # 0 < 4*mu also catches non-positive f0 under the default mu = min(f0)/4
    ok3 = 0 < 4 * mu <= fmin and fmax <= lam
    kmin = int(np.argmin(f0.values))
    checks.append(
        AssumptionCheck(
            "A3",
            ok3,
            f"min f0 = {fmin:.12g} at {c.grid.point(kmin)} vs 4*mu = {4 * mu:.12g} "
            f"(need 0 < 4*mu <= min f0); max f0 = {fmax:.12g} vs lam = {lam:.12g}",
            fmin,
        )
    )

    ok4 = c.C_D >= 1.0 and 0 < c.C_pi_low <= c.C_pi_up
    kd = int(np.argmin(c.D.values))
    checks.append(
        AssumptionCheck(
            "A4",
            ok4,
            f"min D = {c.C_D:.12g} at {c.grid.point(kd)} (need >= 1); "
            f"pi in [{c.C_pi_low:.12g}, {c.C_pi_up:.12g}]",
            c.C_D,
        )
    )
    return AssumptionReport(checks, mu=mu, lam=lam)
