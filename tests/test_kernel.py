import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_spec, traced_peak
from oracles import kernel_y_gradient, periodized_heat_kernel

import torusfp.kernel as kernel
from torusfp.coeff import build_coefficients
from torusfp.errors import NumericsError, UsageError
from torusfp.grid import Field, TorusGrid, integrate
from torusfp.kernel import (
    apply_propagator,
    build_propagator,
    fit_duhamel_constant,
    matrix_exponential_propagator,
    validate_gaussian_bounds,
    validate_integral_bounds,
    validate_mass_sandwich,
)


def test_heat_diagonal_matches_periodized_gaussian(heat64):
    _, c = heat64
    p = build_propagator(c, c.grid, 0.0, 0.01, 50)
    exact = (4 * np.pi * 0.01) ** -0.5  # 2.8209; image terms < 1e-80
    diag = np.diag(p.matrix)
    assert np.max(np.abs(diag - exact) / exact) <= 0.02
    assert abs(exact - 2.8209) <= 1e-4


def test_row_masses_are_one_without_zeroth_order(heat64):
    _, c = heat64
    spec_d = make_spec(n=64, d="2+cos(2*pi*x1)", pi="1.5+0.5*sin(2*pi*x1)")
    c_d = build_coefficients(spec_d)
    for cc in (c, c_d):
        p = build_propagator(cc, cc.grid, 0.0, 0.05, 20)
        assert np.max(np.abs(p.row_masses() - 1.0)) <= 1e-8


def test_constants_invariant_when_w_vanishes(heat64):
    _, c = heat64
    p = build_propagator(c, c.grid, 0.0, 0.02, 10)
    out = apply_propagator(p, Field.constant(c.grid, 3.7))
    assert np.max(np.abs(out.values - 3.7)) <= 1e-8


def test_identity_limit(heat64):
    _, c = heat64
    p = build_propagator(c, c.grid, 0.0, 1e-8, 1)
    g = Field.from_function(c.grid, lambda x: 1 + 0.5 * np.cos(2 * np.pi * x))
    out = apply_propagator(p, g)
    assert np.max(np.abs(out.values - g.values)) <= 1e-6


def test_fourier_mode_decay():
    spec = make_spec(n=128)
    c = build_coefficients(spec)
    tau = 1e-3
    p = build_propagator(c, c.grid, 0.0, tau, 10)  # dt = 1e-4
    x = c.grid.coords1d()
    out = apply_propagator(p, Field(c.grid, np.cos(2 * np.pi * x)))
    exact = np.exp(-4 * np.pi**2 * tau) * np.cos(2 * np.pi * x)
    assert np.max(np.abs(out.values - exact)) <= 1e-4


def test_positivity_of_propagation(heat64, rng):
    _, c = heat64
    p = build_propagator(c, c.grid, 0.0, 0.01, 20)
    assert p.min_entry >= -1e-10
    g = Field(c.grid, np.abs(rng.standard_normal(c.grid.n_cells)))
    assert np.min(apply_propagator(p, g).values) >= -1e-10


def test_strict_positivity_after_enough_substeps():
    spec = make_spec(n=64, phi="0.2*cos(2*pi*x1)")
    c = build_coefficients(spec)
    p = build_propagator(c, c.grid, 0.0, 0.02, 10)
    assert np.min(p.matrix) > 0.0


def test_grid_mismatch_rejected(heat64):
    _, c = heat64
    p = build_propagator(c, c.grid, 0.0, 0.01, 5)
    other = Field.constant(TorusGrid(1, 32), 1.0)
    with pytest.raises(UsageError):
        apply_propagator(p, other)


def test_kernel_gradient_flattens_at_long_time(heat64):
    _, c = heat64
    p = build_propagator(c, c.grid, 0.0, 1.0, 100)
    grads = kernel_y_gradient(p)
    worst = max(np.max(np.abs(v.components[0])) for v in grads)
    assert worst <= 1e-3


def test_kernel_gradient_vanishes_at_diagonal(heat64):
    _, c = heat64
    p = build_propagator(c, c.grid, 0.0, 0.01, 100)
    grads = kernel_y_gradient(p)
    worst = max(abs(v.components[0][i]) for i, v in enumerate(grads))
    assert worst <= 1e-8  # even kernel rows


def test_kernel_gradient_integral_matches_periodized_oracle(heat64):
    _, c = heat64
    tau = 0.01
    p = build_propagator(c, c.grid, 0.0, tau, 100)
    grads = kernel_y_gradient(p)
    val = max(c.grid.h * np.sum(np.abs(v.components[0])) for v in grads)
    # |grad K| integrates to 2 (K(0) - K(1/2)) for the periodized kernel
    oracle = 2 * (
        periodized_heat_kernel([0.0], [0.0], tau) - periodized_heat_kernel([0.0], [0.5], tau)
    )
    assert abs(val - oracle) / oracle <= 0.02


def test_periodized_heat_kernel_values():
    assert periodized_heat_kernel([0.0], [0.0], 0.0025, 1.0) == pytest.approx(
        (0.01 * np.pi) ** -0.5, abs=1e-12
    )
    two_images = 2 * (0.01 * np.pi) ** -0.5 * np.exp(-25.0)
    assert periodized_heat_kernel([0.0], [0.5], 0.0025, 1.0) == pytest.approx(
        two_images, abs=1e-15
    )
    g = TorusGrid(1, 256)
    vals = np.array([periodized_heat_kernel([0.3], [y], 0.0025) for y in g.coords1d()])
    assert abs(integrate(Field(g, vals)) - 1.0) <= 1e-10
    with pytest.raises(UsageError):
        periodized_heat_kernel([0.0], [0.0], 0.0)
    with pytest.raises(UsageError):
        periodized_heat_kernel([0.0], [0.0], 2.0)


def test_periodized_heat_kernel_2d():
    val = periodized_heat_kernel([0.1, 0.2], [0.1, 0.2], 0.0025, 1.0)
    assert val == pytest.approx((4 * np.pi * 0.0025) ** -1.0, rel=1e-12)


def test_gaussian_fit_heat_case():
    spec = make_spec(n=256)
    c = build_coefficients(spec)
    p = build_propagator(c, c.grid, 0.0, 2e-3, 600, ladder_stride=20)
    fit = validate_gaussian_bounds(p, (0, 0))
    # analytic envelope: c = 1/4, C = (4 pi)^(-1/2) = 0.2821
    assert fit.c_fit >= 0.24
    assert fit.C_fit <= 0.30
    assert fit.max_residual <= 1e-12


def test_gaussian_fit_variable_coefficients_finite():
    spec = make_spec(n=64, d="2+cos(2*pi*x1)")  # D in [1, 3]
    c = build_coefficients(spec)
    p = build_propagator(c, c.grid, 0.0, 2e-3, 300, ladder_stride=10)
    for orders in ((0, 0), (0, 1), (1, 0), (0, 2)):
        fit = validate_gaussian_bounds(p, orders)
        assert np.isfinite(fit.C_fit) and fit.C_fit > 0
        assert fit.c_fit > 0


def test_gaussian_fit_rejects_long_horizons(heat64):
    _, c = heat64
    p = build_propagator(c, c.grid, 0.0, 1.5, 150, ladder_stride=50)
    with pytest.raises(UsageError):
        validate_gaussian_bounds(p, (0, 0))
    with pytest.raises(UsageError):
        validate_gaussian_bounds(build_propagator(c, c.grid, 0.0, 0.01, 8), (0, 0))


def test_gaussian_fit_rejects_high_orders(heat64):
    _, c = heat64
    p = build_propagator(c, c.grid, 0.0, 0.01, 16, ladder_stride=1)
    with pytest.raises(UsageError):
        validate_gaussian_bounds(p, (1, 1))


def test_mass_sandwich_trivial_when_w_vanishes(heat64):
    _, c = heat64
    p = build_propagator(c, c.grid, 0.0, 0.05, 20)
    rep = validate_mass_sandwich(p, c)
    assert rep.lower == 1.0 and rep.upper == 1.0
    assert rep.passed
    assert abs(rep.row_min - 1.0) <= 1e-8 and abs(rep.row_max - 1.0) <= 1e-8


def test_mass_sandwich_unit_w_band():
    # phi = cos(2 pi x)/(4 pi^2) puts W in (-1, 1)
    spec = make_spec(n=64, phi=f"cos(2*pi*x1)/{4 * np.pi**2!r}")
    c = build_coefficients(spec)
    assert -1.0 <= c.W_inf < 0 < c.W_sup <= 1.0
    p = build_propagator(c, c.grid, 0.0, 0.1, 100)
    masses = p.row_masses()
    assert np.all(masses >= np.exp(-0.1) - 1e-4)
    assert np.all(masses <= np.exp(0.1) + 1e-4)
    assert validate_mass_sandwich(p, c).passed
    # constants are preserved only when W vanishes identically
    assert np.max(np.abs(masses - 1.0)) > 1e-3


def test_mass_sandwich_identity_limit():
    spec = make_spec(n=64, phi="0.1*cos(2*pi*x1)")
    c = build_coefficients(spec)
    p = build_propagator(c, c.grid, 0.0, 1e-9, 1)
    assert np.max(np.abs(p.row_masses() - 1.0)) <= 1e-7


def test_semigroup_property(heat64):
    spec = make_spec(n=64, d="2+cos(2*pi*x1)", phi="0.3*cos(2*pi*x1)")
    c = build_coefficients(spec)
    g = c.grid
    p_full = build_propagator(c, g, 0.0, 0.01, 64)
    p_a = build_propagator(c, g, 0.0, 0.005, 32)
    p_b = build_propagator(c, g, 0.005, 0.01, 32)
    hdim = g.h**g.dim
    composed = hdim * (p_b.matrix @ p_a.matrix)
    assert np.max(np.abs(composed - p_full.matrix)) <= 1e-8


def test_substep_convergence_is_first_order(heat64):
    spec = make_spec(n=64, d="2+cos(2*pi*x1)", phi="0.3*cos(2*pi*x1)")
    c = build_coefficients(spec)
    g = c.grid
    smooth = Field.from_function(g, lambda x: 1 + 0.3 * np.cos(2 * np.pi * x))
    outs = []
    for subs in (8, 16, 32):
        p = build_propagator(c, g, 0.0, 0.02, subs)
        outs.append(apply_propagator(p, smooth).values)
    ratio = np.max(np.abs(outs[1] - outs[2])) / np.max(np.abs(outs[0] - outs[1]))
    assert 0.4 <= ratio <= 0.6


def test_matrix_exponential_cross_check():
    spec = make_spec(n=32, d="2+cos(2*pi*x1)", phi="0.3*cos(2*pi*x1)")
    c = build_coefficients(spec)
    g = c.grid
    ref = matrix_exponential_propagator(c, g, 0.0, 0.01)
    errs = []
    for subs in (16, 32, 64):
        p = build_propagator(c, g, 0.0, 0.01, subs)
        errs.append(np.max(np.abs(p.matrix - ref.matrix)))
    # first-order convergence toward the exact-in-time exponential
    assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.1)
    assert errs[2] / errs[1] == pytest.approx(0.5, abs=0.1)


def test_time_dependent_mobility_needs_fine_substeps():
    spec = make_spec(n=64, pi="1+0.2*sin(2*pi*t)", t_final=1.0)
    c = build_coefficients(spec)
    with pytest.raises(UsageError):
        build_propagator(c, c.grid, 0.0, 0.5, 2)
    p = build_propagator(c, c.grid, 0.0, 0.02, 4)
    assert np.max(np.abs(p.row_masses() - 1.0)) <= 1e-8  # W = 0 still


@pytest.mark.parametrize("s", [0.0, 0.3])
def test_time_independent_propagator_factors_once(heat64, kernel_lu_factors, s):
    # every substep has the caller's length dt, so the one cached factor
    # serves all 600 of them, wherever the lattice starts
    _, c = heat64
    build_propagator(c, c.grid, s, s + 0.01, 600)
    assert len(kernel_lu_factors) == 1


def test_integral_bounds_heat_stability(heat64):
    _, c = heat64
    rep = validate_integral_bounds(c, c.grid, [0.0, 0.005, 0.01, 0.02], substeps=64)
    assert rep.stable  # refinement 64 -> 128 drifts by < 2x
    for val, ref in ((rep.C1, rep.C1_refined), (rep.C2, rep.C2_refined), (rep.C3, rep.C3_refined)):
        assert np.isfinite(val) and val > 0
        assert max(val, ref) / min(val, ref) < 2.0


def test_integral_bounds_rejects_long_times(heat64):
    _, c = heat64
    with pytest.raises(UsageError):
        validate_integral_bounds(c, c.grid, [0.0, 1.5])


def test_fit_duhamel_constant_heat(heat64):
    _, c = heat64
    c1 = fit_duhamel_constant(c, c.grid)
    # continuum value 2/sqrt(pi) = 1.128 for unit diffusivity
    assert 0.5 <= c1 <= 2.0


def test_excessive_negativity_raises():
    # a single huge drift-dominated step produces oscillatory entries
    spec = make_spec(n=64, phi="40*cos(2*pi*x1)")
    c = build_coefficients(spec)
    with pytest.raises(NumericsError):
        build_propagator(c, c.grid, 0.0, 0.5, 1)


def test_propagator_2d_row_masses():
    spec = make_spec(n=8, dim=2, d="1+0.5*cos(2*pi*x1)*cos(2*pi*x2)")
    c = build_coefficients(spec)
    p = build_propagator(c, c.grid, 0.0, 0.01, 10)
    assert np.max(np.abs(p.row_masses() - 1.0)) <= 1e-8
    out = apply_propagator(p, Field.constant(c.grid, 2.0))
    assert np.max(np.abs(out.values - 2.0)) <= 1e-8


def test_frozen_mobility_is_the_t0_sample():
    from torusfp.kernel import _frozen_pi

    spec = make_spec(n=32, d="2+cos(2*pi*x1)", phi="cos(2*pi*x1)", pi="1+0.2*sin(2*pi*t)+0.2*cos(2*pi*x1)")
    c = build_coefficients(spec)
    frozen = _frozen_pi(c)
    assert frozen.time_independent_pi
    assert np.array_equal(frozen.pi_at(0.37).values, c.pi_at(0.0).values)
    assert np.array_equal(frozen.W_at(0.37).values, c.W_at(0.0).values)
    for got, want in zip(frozen.V_at(0.37).components, c.V_at(0.0).components):
        assert np.array_equal(got, want)


def test_memory_estimates_cover_the_dense_temporaries():
    # each estimate is an upper bound on the traced peak, and a tight one
    for dim, n in [(1, 64), (2, 8)]:
        c = build_coefficients(make_spec(n=n, dim=dim))
        peak = traced_peak(lambda: kernel._integral_constants(c, c.grid, [0.0, 0.005, 0.01], 64, 0.5))
        assert peak <= kernel._integral_bounds_bytes(c.grid) <= 3 * peak
        peak = traced_peak(lambda: fit_duhamel_constant(c, c.grid))
        assert peak <= kernel._duhamel_fit_bytes(c.grid) <= 3 * peak
    # kernel-validate on a 2-D n=8 grid refines to n=16 (N = 256 cells)
    assert kernel._integral_bounds_bytes(TorusGrid(2, 16)) < 2**30
    assert kernel._propagator_bytes(TorusGrid(1, 64), 600, 20) == 8 * 64**2 * (30 + 3)
    assert kernel._propagator_bytes(TorusGrid(1, 64), 600, None) == 8 * 64**2 * 3


def test_requests_beyond_physical_memory_are_refused(heat64, monkeypatch):
    _, c = heat64
    monkeypatch.setattr(kernel, "_physical_memory", lambda: 2**16)
    with pytest.raises(UsageError, match="the propagator needs about"):
        build_propagator(c, c.grid, 0.0, 0.01, 10)
    # the Duhamel fit holds no propagator, and checks its own estimate before any substep
    with monkeypatch.context() as mp:
        mp.setattr(kernel.ImplicitStepper, "advance", lambda *args: pytest.fail("advanced first"))
        with pytest.raises(UsageError, match="the Duhamel-constant fit needs about"):
            fit_duhamel_constant(c, c.grid)
    # the n=128 refinement's estimate is checked before the n=64 grid is built
    monkeypatch.setattr(kernel, "_physical_memory", lambda: kernel._integral_bounds_bytes(c.grid))
    monkeypatch.setattr(kernel, "_integral_constants", lambda *args: pytest.fail("built first"))
    with pytest.raises(UsageError, match="integral-bound validation needs about"):
        validate_integral_bounds(c, c.grid, [0.005, 0.01], substeps=8)


def _magnitude(g):
    return np.sqrt(np.sum(g**2, axis=1))


def _broadcast_hoelder_sums(grads, grid):
    """The Hoelder sums as one full (N, N, dim, N) difference per ladder matrix."""
    n, hdim = grid.n_cells, grid.h**grid.dim
    acc = np.zeros((n, n))
    for g in grads:
        diff = g[:, None, :, :] - g[None, :, :, :]
        mags = _magnitude(diff.reshape(n * n, grid.dim, n))
        acc += hdim * mags.sum(axis=1).reshape(n, n)
    return acc


def _ladder_gradients(c, t_max, substeps):
    """Row gradients of every substep kernel: the whole ladder is stored
    first, then differenced column by column."""
    grid = c.grid
    stepper = kernel.ImplicitStepper(c, grid)
    dt = t_max / substeps
    op = np.eye(grid.n_cells)
    ladder = []
    for k in range(substeps):
        op = stepper.advance(op, (k + 0.5) * dt, dt)
        ladder.append(op / grid.h**grid.dim)
    grads = []
    for matrix in ladder:
        g = np.empty((grid.n_cells, grid.dim, grid.n_cells))
        for axis in range(grid.dim):
            up, dn = grid.neighbors(+1, axis), grid.neighbors(-1, axis)
            g[:, axis, :] = (matrix[:, up] - matrix[:, dn]) / (2.0 * grid.h)
        grads.append(g)
    return grads


def _hoelder_constant(acc, grid, t_max, substeps, beta):
    dist = kernel._distance_matrix(grid)
    denom = t_max ** ((1.0 - beta) / 2.0) * dist**beta
    off = ~np.eye(grid.n_cells, dtype=bool)
    return float(np.max(acc[off] * (t_max / substeps) / denom[off]))


@pytest.mark.parametrize("ragged", [False, True], ids=["default-blocks", "ragged-blocks"])
@pytest.mark.parametrize("dim, n", [(1, 8), (1, 11), (2, 8)])
def test_blocked_hoelder_sums_match_the_full_broadcast_bit_for_bit(monkeypatch, dim, n, ragged):
    axes = "*cos(2*pi*x2)" if dim == 2 else ""
    spec = make_spec(
        n=n,
        dim=dim,
        d=f"1+0.5*cos(2*pi*x1){axes}",
        pi="1+0.3*sin(2*pi*x1)",
        phi=f"0.4*cos(2*pi*x1){axes}",
    )
    c = build_coefficients(spec)
    if ragged:
        monkeypatch.setattr(kernel, "_C3_BLOCK_BYTES", 3 * 8 * dim * c.grid.n_cells**2)
        assert kernel._c3_block_rows(c.grid) == 3  # the last block has 1 or 2 rows
    times, substeps = [0.0, 0.005, 0.01], 5
    grads = _ladder_gradients(c, 0.01, substeps)
    want = _broadcast_hoelder_sums(grads, c.grid)
    assert np.array_equal(kernel._hoelder_sums(grads, c.grid), want)
    _, _, c3 = kernel._integral_constants(c, c.grid, times, substeps, 0.5)
    assert c3 == _hoelder_constant(want, c.grid, 0.01, substeps, 0.5)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    n=st.sampled_from([8, 11]),
    d1=st.floats(0.0, 0.9),
    p1=st.floats(0.0, 0.5),
    b=st.floats(0.0, 0.3),
    k=st.sampled_from([1, 2]),
    rows=st.integers(1, 11),
)
def test_blocked_hoelder_sums_on_generated_coefficients(n, d1, p1, b, k, rows):
    spec = make_spec(
        n=n,
        d=f"1 + {d1!r}*cos(2*pi*x1)",
        pi=f"1 + {p1!r}*sin(2*pi*{k}*x1)",
        phi=f"{b!r}*cos(2*pi*{k}*x1)",
    )
    c = build_coefficients(spec)
    grads = _ladder_gradients(c, 0.01, 4)
    want = _broadcast_hoelder_sums(grads, c.grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_C3_BLOCK_BYTES", rows * 8 * n**2)
        assert np.array_equal(kernel._hoelder_sums(grads, c.grid), want)


def _max_integral(g, grid):
    return np.max(grid.h**grid.dim * _magnitude(g).sum(axis=1))


def _reference_constants(c, times, substeps, beta):
    """C1, C2 and C3 from the whole stored ladder."""
    grid, t_max = c.grid, max(times)
    dt = t_max / substeps
    grads = _ladder_gradients(c, t_max, substeps)
    a_of_tau = np.array([_max_integral(g, grid) for g in grads])
    b_of_tau = np.full(substeps, np.nan)
    b_of_tau[1:-1] = [
        _max_integral((grads[k + 1] - grads[k - 1]) / (2.0 * dt), grid) for k in range(1, substeps - 1)
    ]
    b_of_tau[0] = b_of_tau[1] if substeps > 2 else 0.0
    b_of_tau[-1] = b_of_tau[-2] if substeps > 2 else 0.0
    c1 = c2 = 0.0
    for tp in times:
        for tt in times:
            if tt <= tp + 1e-15:
                continue
            ks = np.flatnonzero((np.arange(1, substeps + 1) * dt) <= tt - tp + 1e-15)
            c1 = max(c1, float(np.sum(a_of_tau[ks]) * dt) / np.sqrt(tt - tp))
            si = np.arange(0.5 * dt, tp, dt)
            tj = np.arange(tp + 0.5 * dt, tt, dt)
            if si.size and tj.size:
                idx = np.clip(np.round((tj[None, :] - si[:, None]) / dt).astype(int) - 1, 0, substeps - 1)
                c2 = max(c2, float(np.sum(b_of_tau[idx]) * dt * dt) / np.sqrt(tt - tp))
    c3 = _hoelder_constant(_broadcast_hoelder_sums(grads, grid), grid, t_max, substeps, beta)
    return c1, c2, c3


def _reference_duhamel_constant(c):
    """C_gauss from the whole stored ladder over the fit's horizon."""
    dt = kernel._DUHAMEL_HORIZON / kernel._DUHAMEL_SUBSTEPS
    best = acc = 0.0
    for k, g in enumerate(_ladder_gradients(c, kernel._DUHAMEL_HORIZON, kernel._DUHAMEL_SUBSTEPS)):
        acc += _max_integral(g, c.grid) * dt
        best = max(best, acc / np.sqrt((k + 1) * dt))
    return best


def test_streamed_constants_equal_the_stored_ladder_on_heat(heat64):
    _, c = heat64
    times = [0.0, 0.005, 0.01, 0.02]
    assert kernel._integral_constants(c, c.grid, times, 64, 0.5) == _reference_constants(c, times, 64, 0.5)
    assert fit_duhamel_constant(c, c.grid) == _reference_duhamel_constant(c)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    shape=st.sampled_from([(1, 8), (1, 11), (2, 8)]),
    d1=st.floats(0.0, 0.9),
    p1=st.floats(0.0, 0.5),
    b=st.floats(0.0, 0.3),
    k=st.sampled_from([1, 2]),
    substeps=st.integers(1, 8),
)
def test_streamed_constants_equal_the_stored_ladder_on_generated_coefficients(shape, d1, p1, b, k, substeps):
    dim, n = shape
    axes = "*cos(2*pi*x2)" if dim == 2 else ""
    spec = make_spec(
        n=n,
        dim=dim,
        d=f"1 + {d1!r}*cos(2*pi*x1){axes}",
        pi=f"1 + {p1!r}*sin(2*pi*{k}*x1)",
        phi=f"{b!r}*cos(2*pi*{k}*x1){axes}",
    )
    c = build_coefficients(spec)
    times = [0.0, 0.005, 0.01]
    got = kernel._integral_constants(c, c.grid, times, substeps, 0.5)
    assert got == _reference_constants(c, times, substeps, 0.5)
    assert fit_duhamel_constant(c, c.grid) == _reference_duhamel_constant(c)


def test_streamed_consumers_hold_no_ladder(monkeypatch):
    # the traced peaks of the integral bounds and the Duhamel fit do not grow
    # with the substep count; with a stored ladder they grew 2.4x and 3.2x here
    c = build_coefficients(make_spec(n=128))
    peaks = []
    for substeps in (16, 64):
        monkeypatch.setattr(kernel, "_DUHAMEL_SUBSTEPS", substeps)
        peaks.append((
            traced_peak(lambda: kernel._integral_constants(c, c.grid, [0.0, 0.005, 0.01], substeps, 0.5)),
            traced_peak(lambda: fit_duhamel_constant(c, c.grid)),
        ))
    for few, many in zip(*peaks):
        assert many <= 1.1 * few
