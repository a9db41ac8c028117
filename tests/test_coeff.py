import numpy as np
import pytest

from conftest import make_spec, sample_f0

from torusfp import expressions as ex
from torusfp.coeff import build_coefficients, validate_assumptions
from torusfp.errors import AssumptionError, UsageError
from torusfp.grid import Field, gradient


def test_trivial_coefficients(heat64):
    _, c = heat64
    assert c.theta == 1.0
    assert c.v_sup_norm() == 0.0
    assert c.W_inf == 0.0 and c.W_sup == 0.0
    assert c.C_D == 1.0
    assert c.C_pi_low == 1.0 and c.C_pi_up == 1.0
    assert c.time_independent_pi


def test_variable_d_certification():
    spec = make_spec(n=128, d="2+cos(2*pi*x1)")
    c = build_coefficients(spec)
    # min of D is at x = 1/2, a grid point, so theta is exact
    assert c.theta == pytest.approx(1.0, abs=1e-12)
    v = c.V_at(0.0).components[0]
    x = c.grid.coords1d()
    assert np.max(np.abs(v + 2 * np.pi * np.sin(2 * np.pi * x))) <= 2e-2


def test_time_independence_detection():
    c = build_coefficients(make_spec(pi="1"))
    assert c.time_independent_pi
    c2 = build_coefficients(make_spec(pi="1+0.1*sin(2*pi*t)"))
    assert not c2.time_independent_pi


def test_positivity_violations_name_a4():
    with pytest.raises(AssumptionError, match="A4"):
        build_coefficients(make_spec(d="cos(2*pi*x1)"))
    with pytest.raises(AssumptionError, match="A4"):
        build_coefficients(make_spec(pi="cos(2*pi*x1)"))


def test_time_dependent_d_rejected():
    with pytest.raises(UsageError):
        build_coefficients(make_spec(d="1+t"))
    with pytest.raises(UsageError):
        build_coefficients(make_spec(phi="t*x1"))


def test_assumption_report_a3(heat64):
    spec, c = heat64
    f0 = sample_f0(spec)
    rep = validate_assumptions(c, f0, make_spec(mu=0.25))
    a3 = next(ch for ch in rep.checks if ch.name == "A3")
    assert a3.passed  # 4 mu = 1 <= f0
    rep2 = validate_assumptions(c, f0, make_spec(mu=0.3, lam=1.2))
    a3 = next(ch for ch in rep2.checks if ch.name == "A3")
    assert not a3.passed
    assert "min f0 = 1" in a3.witness
    assert not rep2.all_pass


def test_assumption_report_a4(heat64):
    spec, c = heat64
    rep = validate_assumptions(c, sample_f0(spec), spec)
    a4 = next(ch for ch in rep.checks if ch.name == "A4")
    assert a4.passed
    assert a4.value == 1.0  # C_D = 1 suffices
    # D below 1 everywhere fails A4 even though it is positive
    spec_small = make_spec(d="0.5")
    c_small = build_coefficients(spec_small)
    rep2 = validate_assumptions(c_small, sample_f0(spec_small), spec_small)
    a4 = next(ch for ch in rep2.checks if ch.name == "A4")
    assert not a4.passed


def test_a2_reports_boundedness_and_declared_beta():
    spec = make_spec(n=64, d="2+cos(2*pi*x1)", phi="cos(2*pi*x1)", beta=0.7)
    c = build_coefficients(spec)
    rep = validate_assumptions(c, sample_f0(spec), spec)
    a2 = next(ch for ch in rep.checks if ch.name == "A2")
    assert a2.passed
    assert "0.7" in a2.witness


def test_v_consistency_identity():
    spec = make_spec(n=64, d="2+cos(2*pi*x1)", pi="2")
    c = build_coefficients(spec)
    manual = gradient(c.D).components[0] / c.pi_at(0.0).values
    assert np.max(np.abs(c.V_at(0.0).components[0] - manual)) <= 1e-12


def test_w_sandwich_over_time_samples():
    spec = make_spec(
        n=64, phi="cos(2*pi*x1)", pi="1+0.3*cos(2*pi*t)*cos(2*pi*x1)", t_final=2.0
    )
    c = build_coefficients(spec)
    for t in np.linspace(0, spec.T_final, 23):
        w = c.W_at(float(t)).values
        assert np.all(w >= c.W_inf - 1e-12)
        assert np.all(w <= c.W_sup + 1e-12)


def test_theta_certification_over_time():
    spec = make_spec(n=64, d="2", pi="1+0.5*sin(2*pi*t)", t_final=1.0)
    c = build_coefficients(spec)
    for t in np.linspace(0, 1.0, 31):
        assert np.min(c.D.values / c.pi_at(float(t)).values) >= c.theta - 1e-12


def test_tabulated_coefficient_roundtrip(tmp_path):
    from torusfp.grid import TorusGrid, load_field_csv, save_field_csv

    g = TorusGrid(1, 16)
    table = Field.from_function(g, lambda x: 2 + np.cos(2 * np.pi * x))
    path = tmp_path / "d.csv"
    save_field_csv(table, path)
    spec = make_spec(n=16)
    spec = type(spec)(
        dim=1,
        n_per_axis=16,
        d_coeff=load_field_csv(path, g),
        pi_coeff=ex.parse_expr("1"),
        phi_coeff=ex.parse_expr("0"),
        f0=ex.parse_expr("1"),
        T_final=1.0,
    )
    c = build_coefficients(spec)
    assert np.array_equal(c.D.values, table.values)
    with pytest.raises(UsageError):
        spec.with_resolution(32)  # tables cannot be refined


def test_variable_index_beyond_dim_rejected():
    with pytest.raises(UsageError):
        build_coefficients(make_spec(dim=1, phi="cos(2*pi*x2)"))


def test_problem_spec_validation():
    with pytest.raises(UsageError):
        make_spec(t_final=-1.0)
    with pytest.raises(UsageError):
        make_spec(mu=-0.1)
    with pytest.raises(UsageError):
        make_spec(mu=0.5, lam=1.0)  # needs lam >= 4 mu
    with pytest.raises(UsageError):
        make_spec(beta=1.5)


def test_v_sup_is_certified_over_the_time_samples():
    spec = make_spec(
        n=64, d="2+cos(2*pi*x1)", pi="1+0.2*sin(2*pi*t)+0.2*cos(2*pi*x1)", t_final=0.7
    )
    c = build_coefficients(spec)
    # reference: the sup of |V| over the grid at 64 interior times plus both ends
    sup = 0.0
    for t in np.linspace(0.0, spec.T_final, 66):
        mag = np.zeros(c.grid.n_cells)
        for comp in c.V_at(float(t)).components:
            mag += comp * comp
        sup = max(sup, float(np.sqrt(np.max(mag))))
    assert c.V_sup == sup
    assert c.v_sup_norm() == sup


def test_undefined_mobility_names_pi_and_the_time():
    spec = make_spec(pi="1 + sqrt(0.5 - t)")
    with pytest.raises(UsageError, match=r"pi is undefined on the grid at t=0\.5\d*: sqrt"):
        build_coefficients(spec)


def _mismatched_calls():
    """The seven functions that take a Field or Propagator next to the
    coefficients, each called with inputs of the 1-D problem and the
    coefficients ``c`` of another grid."""
    from torusfp.equilibrium import apriori_bounds, dissipation_rate, free_energy
    from torusfp.fvsolver import FVConfig, chemical_potential, fv_step, stable_dt
    from torusfp.kernel import validate_mass_sandwich

    return {
        "fv_step": lambda f, eq, p, c: fv_step(f, c, 0.0, 0.01, FVConfig()),
        "stable_dt": lambda f, eq, p, c: stable_dt(f, c, 0.0, FVConfig(stepper="explicit")),
        "chemical_potential": lambda f, eq, p, c: chemical_potential(f, c),
        "free_energy": lambda f, eq, p, c: free_energy(f, c),
        "dissipation_rate": lambda f, eq, p, c: dissipation_rate(f, c),
        "apriori_bounds": lambda f, eq, p, c: apriori_bounds(f, eq, c),
        "validate_mass_sandwich": lambda f, eq, p, c: validate_mass_sandwich(p, c),
    }


@pytest.mark.parametrize("name", sorted(_mismatched_calls()))
def test_grid_mismatch_fails_fast(name):
    # 64 cells on both grids, so nothing but the grid check can tell them apart
    from torusfp.equilibrium import equilibrium_state
    from torusfp.grid import integrate
    from torusfp.kernel import build_propagator

    one = build_coefficients(make_spec(n=64, d="2+cos(2*pi*x1)", phi="0.5*cos(2*pi*x1)"))
    two = build_coefficients(make_spec(n=8, dim=2))
    assert one.grid.n_cells == two.grid.n_cells
    f = Field.from_function(one.grid, lambda x: 1 + 0.5 * np.cos(2 * np.pi * x))
    eq = equilibrium_state(one, integrate(f))
    p = build_propagator(one, one.grid, 0.0, 0.01, 4)
    with pytest.raises(UsageError, match="grid"):
        _mismatched_calls()[name](f, eq, p, two)
