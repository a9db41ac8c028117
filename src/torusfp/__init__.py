"""Structure-preserving solvers and verification suites for a nonlinear
Fokker-Planck model of grain-boundary dynamics on the periodic torus."""

__version__ = "0.1.0"

from .coeff import (
    AssumptionReport,
    CoefficientSet,
    ProblemSpec,
    Tolerances,
    build_coefficients,
    sample_initial_data,
    validate_assumptions,
)
from .equilibrium import (
    AprioriBounds,
    EquilibriumState,
    apriori_bounds,
    dissipation_rate,
    equilibrium_state,
    free_energy,
)
from .errors import (
    AssumptionError,
    ExprDomainError,
    ExprError,
    NumericsError,
    TorusFPError,
    UsageError,
)
from .expressions import eval_expr, eval_on_grid, parse_expr, to_source
from .fvsolver import FVConfig, chemical_potential, fv_step, simulate, stable_dt
from .grid import (
    Field,
    TorusGrid,
    Trajectory,
    VectorField,
    divergence,
    gradient,
    integrate,
    load_field_csv,
    save_field_csv,
    sup_norm,
)
from .kernel import (
    GaussianFit,
    Propagator,
    apply_propagator,
    build_propagator,
    validate_gaussian_bounds,
    validate_integral_bounds,
    validate_mass_sandwich,
)
from .picard import (
    FixedPointReport,
    GlobalPlan,
    PicardSpace,
    WindowReport,
    contraction_ratio,
    continuity_check,
    fixed_point_solve,
    global_solve,
    picard_space,
    psi_map,
    time_bound,
    time_bound_primed,
)
