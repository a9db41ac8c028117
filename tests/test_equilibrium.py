import numpy as np
import pytest
from scipy.special import i0

from conftest import make_spec, sample_f0

from torusfp.coeff import build_coefficients
from torusfp.equilibrium import (
    apriori_bounds,
    dissipation_rate,
    equilibrium_state,
    free_energy,
)
from torusfp.errors import NumericsError
from torusfp.grid import Field, integrate


def test_equilibrium_constant_coefficients(heat64):
    _, c = heat64
    eq = equilibrium_state(c, 1.0)
    assert eq.C_eq == 0.0
    assert np.all(eq.f_eq.values == 1.0)


def test_equilibrium_cosine_matches_bessel_oracle(cosine128):
    _, c = cosine128
    eq = equilibrium_state(c, 1.0)
    # the oracle: C solves e^C I0(1) = 1, i.e. C = -log I0(1) = -0.235914...
    assert eq.C_eq == pytest.approx(-np.log(i0(1.0)), abs=1e-9)
    assert abs(integrate(eq.f_eq) - 1.0) <= 1e-12


def test_equilibrium_scaled_d_and_mass():
    c = build_coefficients(make_spec(d="2"))
    eq = equilibrium_state(c, 3.0)
    assert eq.C_eq == pytest.approx(2 * np.log(3.0), rel=1e-13)
    assert np.max(np.abs(eq.f_eq.values - 3.0)) <= 1e-12


def test_equilibrium_gibbs_identity(cosine128):
    _, c = cosine128
    eq = equilibrium_state(c, 1.0)
    expected = np.exp(-(c.phi.values - eq.C_eq) / c.D.values)
    assert np.max(np.abs(eq.f_eq.values - expected)) <= 1e-12


def test_equilibrium_needs_positive_mass(heat64):
    _, c = heat64
    with pytest.raises(NumericsError):
        equilibrium_state(c, -1.0)


def test_free_energy_examples(heat64):
    _, c = heat64
    g = c.grid
    assert free_energy(Field.constant(g, 1.0), c) == pytest.approx(-1.0, abs=1e-14)
    assert free_energy(Field.constant(g, np.e), c) == pytest.approx(0.0, abs=1e-13)


def test_free_energy_at_equilibrium(cosine128):
    # for D = 1: F[f_eq] = C_eq - mass
    _, c = cosine128
    eq = equilibrium_state(c, 1.0)
    assert free_energy(eq.f_eq, c) == pytest.approx(eq.C_eq - 1.0, abs=1e-12)
    assert abs(free_energy(eq.f_eq, c) - (-1.23597)) <= 1e-4


def test_free_energy_rejects_nonpositive(heat64):
    _, c = heat64
    with pytest.raises(NumericsError, match="positive"):
        free_energy(Field.constant(c.grid, -0.5), c)


def test_dissipation_examples(cosine128, heat64):
    _, c = cosine128
    eq = equilibrium_state(c, 1.0)
    assert dissipation_rate(eq.f_eq, c) <= 1e-12  # D log f_eq + phi is constant
    _, ch = heat64
    assert dissipation_rate(Field.constant(ch.grid, 2.0), ch) == 0.0


def test_dissipation_matches_fine_grid_oracle():
    spec = make_spec(n=128, f0="1+0.5*cos(2*pi*x1)")
    c = build_coefficients(spec)
    val = dissipation_rate(sample_f0(spec), c)
    spec_fine = make_spec(n=1024, f0="1+0.5*cos(2*pi*x1)")
    c_fine = build_coefficients(spec_fine)
    oracle = dissipation_rate(sample_f0(spec_fine), c_fine)
    assert val > 0
    assert abs(val - oracle) / oracle <= 0.01


def test_dissipation_uses_mobility_at_requested_time():
    spec = make_spec(n=64, pi="1+0.5*sin(2*pi*t)", f0="1+0.5*cos(2*pi*x1)", t_final=1.0)
    c = build_coefficients(spec)
    f = sample_f0(spec)
    d0 = dissipation_rate(f, c, 0.0)
    d_quarter = dissipation_rate(f, c, 0.25)  # pi = 1.5 there
    assert d_quarter == pytest.approx(d0 / 1.5, rel=1e-12)


def test_dissipation_nonnegative_on_random_fields(heat64, rng):
    spec = make_spec(n=64, d="2+cos(2*pi*x1)", phi="0.5*cos(2*pi*x1)", pi="2")
    c = build_coefficients(spec)
    x = c.grid.coords1d()
    for _ in range(25):
        vals = 1.0 + 0.5 * rng.uniform() * np.cos(2 * np.pi * x + rng.uniform(0, np.pi))
        vals += 0.2 * rng.uniform() * np.cos(4 * np.pi * x)
        assert dissipation_rate(Field(c.grid, np.clip(vals, 0.1, None)), c) >= -1e-13


def test_apriori_bounds_reduce_to_data_range(heat64):
    _, c = heat64
    g = c.grid
    f0 = Field.from_function(g, lambda x: 1.5 + 0.5 * np.cos(2 * np.pi * x))
    eq = equilibrium_state(c, integrate(f0))
    b = apriori_bounds(f0, eq, c)
    assert b.m == pytest.approx(1.0, abs=1e-12)
    assert b.M == pytest.approx(2.0, abs=1e-12)


def test_apriori_bounds_cosine_problem(cosine128):
    _, c = cosine128
    f0 = Field.constant(c.grid, 1.0)
    eq = equilibrium_state(c, 1.0)
    b = apriori_bounds(f0, eq, c)
    # with D = 1 the equilibrium constant cancels: m = e^-2, M = e^2 exactly
    assert b.m == pytest.approx(np.exp(-2.0), abs=1e-6)
    assert b.M == pytest.approx(np.exp(2.0), abs=1e-4)


def test_apriori_bounds_at_equilibrium(cosine128):
    _, c = cosine128
    eq = equilibrium_state(c, 1.0)
    b = apriori_bounds(eq.f_eq, eq, c)
    assert np.max(np.abs(b.lower_env.values - eq.f_eq.values)) <= 1e-12
    assert np.max(np.abs(b.upper_env.values - eq.f_eq.values)) <= 1e-12
    assert b.m == pytest.approx(float(np.min(eq.f_eq.values)), abs=1e-12)
    assert b.M == pytest.approx(float(np.max(eq.f_eq.values)), abs=1e-12)


def test_c_eq_monotone_in_mass(cosine128):
    _, c = cosine128
    masses = [0.3, 0.7, 1.0, 2.5, 7.0]
    cs = [equilibrium_state(c, m).C_eq for m in masses]
    assert all(b > a for a, b in zip(cs, cs[1:]))


def test_equilibrium_minimizes_free_energy(cosine128, rng):
    _, c = cosine128
    eq = equilibrium_state(c, 1.0)
    base = free_energy(eq.f_eq, c)
    x = c.grid.coords1d()
    for _ in range(20):
        k = rng.integers(1, 5)
        eta = np.cos(2 * np.pi * k * x + rng.uniform(0, 2 * np.pi))
        eta -= np.mean(eta)  # zero total mass
        perturbed = Field(c.grid, eq.f_eq.values + 1e-3 * eta)
        assert base <= free_energy(perturbed, c) + 1e-12


def test_envelopes_sandwich_initial_data(cosine128, rng):
    _, c = cosine128
    x = c.grid.coords1d()
    for _ in range(10):
        vals = 1.0 + 0.4 * rng.uniform() * np.cos(2 * np.pi * x + rng.uniform(0, np.pi))
        f0 = Field(c.grid, vals)
        eq = equilibrium_state(c, integrate(f0))
        b = apriori_bounds(f0, eq, c)
        assert np.all(b.lower_env.values <= f0.values + 1e-12)
        assert np.all(f0.values <= b.upper_env.values + 1e-12)
        assert np.all(b.lower_env.values <= b.upper_env.values)


@pytest.mark.parametrize("offset", [800.0, -800.0])
def test_equilibrium_ignores_a_large_potential_offset(offset):
    # exp(-phi/D) under- (+800) or overflows (-800) in the constant-D guess
    ref = equilibrium_state(build_coefficients(make_spec(phi="0.5*cos(2*pi*x1)")), 1.0)
    c = build_coefficients(make_spec(phi=f"{offset!r} + 0.5*cos(2*pi*x1)"))
    eq = equilibrium_state(c, 1.0)
    assert np.max(np.abs(eq.f_eq.values / ref.f_eq.values - 1.0)) <= 1e-12
