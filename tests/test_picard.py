import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_spec, sample_f0, traced_peak
from oracles import (
    frame_source,
    kernel_y_gradient,
    pde_residual,
    random_y_trajectory,
    rhs_divergence_form,
    rhs_expanded_form,
)

from torusfp import picard
from torusfp.coeff import build_coefficients, sample_initial_data
from torusfp.config import load_config
from torusfp.errors import AssumptionError, NumericsError, UsageError
from torusfp.grid import Field, TorusGrid, Trajectory
from torusfp.picard import (
    contraction_ratio,
    continuity_check,
    fixed_point_solve,
    global_solve,
    picard_space,
    psi_map,
    time_bound,
    time_bound_primed,
)


def _unprimed_horizon(mu, f0_norm, c_gauss, v_norm, w_inf, w_sup):
    # the stand-alone formula for T, kept as the reference for T = T'(m = inf, M = 0)
    r = 1.0 + mu + 2.0 * f0_norm
    branch1 = min(mu, 1.0) / (
        2.0 * (c_gauss * r * (2.0 * r / mu + abs(math.log(mu)) + 1.0) * v_norm + 1.0)
    )
    branch2 = math.sqrt(math.log(2.0) / (abs(w_inf) + abs(w_sup) + 1.0))
    return min(branch1, branch2) ** 2


def test_time_bound_examples():
    assert time_bound(1.0, 1.0, 123.0, 0.0, 0.0, 0.0) == 0.25
    assert time_bound(1.0, 1.0, 1.0, 0.0, -10.0, 10.0) == pytest.approx(
        math.log(2) / 21, rel=1e-14
    )
    # bit for bit the stand-alone formula, on a sweep spanning both
    # branches and mu on either side of 1
    rng = np.random.default_rng(17)
    for _ in range(200):
        mu = 10.0 ** rng.uniform(-4, 1)
        f0_norm = rng.uniform(0.0, 10.0)
        c_gauss = 10.0 ** rng.uniform(-1, 2)
        v_norm = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-3, 2)
        w_inf, w_sup = -rng.uniform(0, 50), rng.uniform(0, 50)
        args = (mu, f0_norm, c_gauss, v_norm, w_inf, w_sup)
        assert time_bound(*args) == _unprimed_horizon(*args)


def test_time_bound_monotone_in_v_norm():
    vals = [time_bound(1.0, 1.0, 1.0, v, 0.0, 0.0) for v in (0.0, 0.5, 1.0, 5.0, 50.0)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < vals[0]


def test_time_bound_monotone_in_w_band():
    vals = [time_bound(1.0, 1.0, 1.0, 0.0, -w, w) for w in (0.0, 1.0, 5.0, 20.0, 100.0)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_time_bound_primed_constants():
    t_prime, r_prime, gamma = time_bound_primed(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    assert gamma == 0.25  # min(mu, m/4)
    assert r_prime == 6.0  # 1 + mu + 2||f0|| + 2M
    assert t_prime == (0.25 / 2.0) ** 2


def test_psi_is_linear_propagation_when_v_vanishes(heat64):
    spec, c = heat64
    f0 = Field.from_function(c.grid, lambda x: 1 + 0.5 * np.cos(2 * np.pi * x))
    space = picard_space(f0, c)
    nt = 16
    times = (space.T / nt) * np.arange(nt + 1)
    const = Trajectory(c.grid, times, [f0] * (nt + 1))
    out = psi_map(const, f0, c, space)
    # independent of the input trajectory
    other = Trajectory(
        c.grid, times, [Field(c.grid, np.clip(f0.values + 0.1, space.mu, space.R))] * (nt + 1)
    )
    out2 = psi_map(other, f0, c, space)
    for a, b in zip(out.frames, out2.frames):
        assert np.array_equal(a.values, b.values)


def test_heat_fixed_point_matches_fourier_decay():
    spec = make_spec(n=128, f0="1+0.5*cos(2*pi*x1)")
    c = build_coefficients(spec)
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    traj, report = fixed_point_solve(f0, c, space, tol=1e-10, max_iter=60)
    assert report.iterations <= 2  # first iterate already exact
    x = c.grid.coords1d()
    worst = max(
        np.max(np.abs(fr.values - (1 + 0.5 * np.exp(-4 * np.pi**2 * t) * np.cos(2 * np.pi * x))))
        for fr, t in zip(traj.frames, traj.times)
    )
    assert worst <= 1e-3


def test_constants_are_steady_states():
    # c = 1 with variable D (log 1 = 0 kills the nonlinearity)
    spec = make_spec(n=64, d="2+cos(2*pi*x1)", f0="1")
    c = build_coefficients(spec)
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    traj, _ = fixed_point_solve(f0, c, space, tol=1e-10)
    assert max(np.max(np.abs(fr.values - 1.0)) for fr in traj.frames) <= 1e-8
    # any constant with constant D (V = 0), arbitrary mobility
    spec2 = make_spec(n=64, d="2", pi="1+0.5*cos(2*pi*x1)", f0="2.5")
    c2 = build_coefficients(spec2)
    f02 = sample_f0(spec2)
    space2 = picard_space(f02, c2)
    traj2, _ = fixed_point_solve(f02, c2, space2, tol=1e-10)
    assert max(np.max(np.abs(fr.values - 2.5)) for fr in traj2.frames) <= 1e-8


def test_fixed_point_variable_d(cosine_d64):
    spec, c = cosine_d64
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    assert space.V_norm > 0
    traj, report = fixed_point_solve(f0, c, space, tol=1e-10, max_iter=60)
    assert report.empirical_contraction <= 0.5
    assert report.in_Y_every_iterate
    assert report.final_residual <= 1e-10
    # fixed-point defining property: ||f - psi f|| <= 2 tol
    psi_f = psi_map(traj, f0, c, space)
    gap = max(
        np.max(np.abs(a.values - b.values)) for a, b in zip(traj.frames, psi_f.frames)
    )
    assert gap <= 2e-10


def test_fixed_point_requires_initial_bound(cosine_d64):
    spec, c = cosine_d64
    f0 = sample_f0(spec)
    space = picard_space(f0, c, mu=0.3)  # 4 mu = 1.2 > min f0 = 0.75
    with pytest.raises(AssumptionError):
        fixed_point_solve(f0, c, space)


def test_psi_rejects_trajectories_outside_y(heat64):
    spec, c = heat64
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    nt = 8
    times = (space.T / nt) * np.arange(nt + 1)
    low = Field.constant(c.grid, space.mu / 2)
    bad = Trajectory(c.grid, times, [low] * (nt + 1))
    with pytest.raises(NumericsError, match="leaves Y"):
        psi_map(bad, f0, c, space)


def test_contraction_ratio_trivial_cases(cosine_d64, rng):
    spec, c = cosine_d64
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    f = random_y_trajectory(space, c.grid, rng, nt=16)
    assert contraction_ratio(f, f, f0, c, space) == 0.0


def test_contraction_ratio_zero_when_v_vanishes(heat64, rng):
    spec, c = heat64
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    f = random_y_trajectory(space, c.grid, rng, nt=16)
    g = random_y_trajectory(space, c.grid, rng, nt=16)
    assert contraction_ratio(f, g, f0, c, space) == 0.0


def test_contraction_over_random_pairs(cosine_d64, rng):
    spec, c = cosine_d64
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    worst = 0.0
    for _ in range(20):
        f = random_y_trajectory(space, c.grid, rng, nt=32)
        g = random_y_trajectory(space, c.grid, rng, nt=32)
        worst = max(worst, contraction_ratio(f, g, f0, c, space))
    assert worst <= 0.55  # 1/2 plus discretization slack


def test_contraction_and_continuity_reject_foreign_grids(heat64, rng):
    # V = 0 here, so a missing grid check would silently give ratio 0
    spec, c = heat64
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    coarse = TorusGrid(1, 32)
    f = random_y_trajectory(space, coarse, rng, nt=16)
    g = random_y_trajectory(space, coarse, rng, nt=16)
    with pytest.raises(UsageError, match="grid"):
        contraction_ratio(f, g, f0, c, space)
    g0 = Field.constant(coarse, 1.0)
    with pytest.raises(UsageError, match="grid"):
        continuity_check(f0, g0, c, space)
    with pytest.raises(UsageError, match="grid"):
        continuity_check(g0, f0, c, space)


def test_log_lipschitz_norm_estimates(rng):
    # |log f - log g| <= |f-g|/mu and |log f| <= R/mu + |log mu| + 1 on Y
    mu, big_r = 0.2, 3.0
    for _ in range(100):
        f = rng.uniform(mu, big_r, size=64)
        g = rng.uniform(mu, big_r, size=64)
        assert np.max(np.abs(np.log(f) - np.log(g))) <= np.max(np.abs(f - g)) / mu + 1e-12
        assert np.max(np.abs(np.log(f))) <= big_r / mu + abs(np.log(mu)) + 1.0


def test_iterates_stay_in_y(cosine_d64):
    spec, c = cosine_d64
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    _, rep = fixed_point_solve(f0, c, space, tol=1e-12, max_iter=60)
    for _, _, _, vmin, vmax in rep.history:
        assert vmin >= space.mu - 1e-10
        assert vmax <= space.R + 1e-10


def test_continuity_trivial_and_heat(heat64):
    spec, c = heat64
    f0 = Field.from_function(c.grid, lambda x: 1 + 0.5 * np.cos(2 * np.pi * x))
    # mu slightly below min(f0, g0)/4 so both data are admissible in one space
    space = picard_space(f0, c, mu=0.12)
    assert continuity_check(f0, f0, c, space) == 0.0
    g0 = Field(c.grid, f0.values + 0.01 * np.cos(2 * np.pi * c.grid.coords1d()))
    ratio = continuity_check(f0, g0, c, space)
    assert ratio <= 1.0 + 1e-6  # linear contraction semigroup


def test_continuity_random_perturbations(cosine_d64, rng):
    spec, c = cosine_d64
    f0 = sample_f0(spec)
    space = picard_space(f0, c, mu=0.18)  # 4 mu below min f0 - perturbation
    x = c.grid.coords1d()
    for _ in range(10):
        k = rng.integers(1, 4)
        eta = np.cos(2 * np.pi * k * x + rng.uniform(0, 2 * np.pi))
        g0 = Field(c.grid, f0.values + 1e-3 * eta)
        assert continuity_check(f0, g0, c, space) <= 4.0


def test_global_solve_heat_matches_fourier():
    spec = make_spec(n=128, f0="1+0.5*cos(2*pi*x1)", t_final=1.0)
    c = build_coefficients(spec)
    f0 = sample_f0(spec)
    traj, plan = global_solve(f0, c, 1.0, nt_per_window=32)
    assert plan.num_windows == math.ceil(1.0 / plan.T_prime)
    x = c.grid.coords1d()
    worst = max(
        np.max(np.abs(fr.values - (1 + 0.5 * np.exp(-4 * np.pi**2 * t) * np.cos(2 * np.pi * x))))
        for fr, t in zip(traj.frames, traj.times)
    )
    assert worst <= 1e-3


def test_global_solve_constant_steady_state():
    spec = make_spec(n=64, d="1.5", pi="1+0.5*cos(2*pi*x1)", f0="2", t_final=0.5)
    c = build_coefficients(spec)
    f0 = sample_f0(spec)
    traj, plan = global_solve(f0, c, 0.5)
    assert max(np.max(np.abs(fr.values - 2.0)) for fr in traj.frames) <= 1e-10


def test_global_solve_long_run_approaches_equilibrium(cosine128):
    # the central-difference steady state sits O(h^2) from the sampled
    # equilibrium; at n=128 the measured gap is 2.8e-4 (4x smaller at n=256)
    from torusfp.equilibrium import equilibrium_state

    spec, c = cosine128
    f0 = sample_f0(spec)
    traj, plan = global_solve(f0, c, 10.0, nt_per_window=8)
    eq = equilibrium_state(c, 1.0)
    gap = np.max(np.abs(traj.frames[-1].values - eq.f_eq.values))
    assert gap <= 5e-4
    assert plan.num_windows == math.ceil(10.0 / plan.T_prime)


def test_global_solve_refuses_runaway_window_counts(cosine_d64):
    spec, c = cosine_d64
    f0 = sample_f0(spec)
    with pytest.raises(NumericsError, match="windows"):
        global_solve(f0, c, 1.0)


def test_global_solve_factors_each_step_length_once(kernel_lu_factors):
    # V != 0: the march passes its nominal delta and delta/2, so later
    # windows reuse the first window's factors; besides those, only the
    # fitted Duhamel kernel and a last window of rounded length may factor
    spec = make_spec(n=32, d="2+cos(2*pi*x1)", f0="1+0.25*cos(2*pi*x1)", t_final=1e-3)
    c = build_coefficients(spec)
    f0 = sample_f0(spec)
    _, plan = global_solve(f0, c, 1e-3, nt_per_window=8, num_windows_override=3)
    assert plan.num_windows == 3
    assert len(kernel_lu_factors) <= 5


@settings(max_examples=8, derandomize=True, deadline=None)
@given(
    n=st.sampled_from([16, 32]),
    a=st.floats(0.25, 1.0),
    b=st.sampled_from([None, -0.2, 0.1, 0.2]),
    amp=st.floats(0.0, 0.5),
    k=st.integers(2, 4),
)
def test_global_march_with_drift_on_generated_data(n, a, b, amp, k):
    # global_solve asserts bit-identical seams itself; here every window
    # contracts and every seam frame stays inside the a priori envelope
    pi = "1" if b is None else f"1+{b}*sin(2*pi*t)"
    spec = make_spec(
        n=n, d=f"2+{a}*cos(2*pi*x1)", pi=pi, f0=f"1+{amp}*cos(2*pi*x1)", t_final=1e-3
    )
    c = build_coefficients(spec)
    f0 = sample_f0(spec)
    traj, plan = global_solve(f0, c, 1e-3, nt_per_window=4, num_windows_override=k)
    assert len(plan.window_reports) == k
    assert all(r.empirical_contraction <= 0.5 for r in plan.window_reports)
    tol = 1e-4  # global_solve's envelope_tol
    for frame in traj.frames:
        assert plan.m - tol <= np.min(frame.values) <= np.max(frame.values) <= plan.M + tol


def test_global_window_seams_and_bounds():
    spec = make_spec(n=64, phi="cos(2*pi*x1)", t_final=0.1)
    c = build_coefficients(spec)
    f0 = sample_f0(spec)
    traj, plan = global_solve(f0, c, 0.1, nt_per_window=8)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.1, abs=1e-12)
    assert len(traj.frames) == plan.num_windows + 1
    for fr in traj.frames:
        assert np.min(fr.values) >= plan.m - 1e-4
        assert np.max(fr.values) <= plan.M + 1e-4


def test_seam_bitwise_identity_across_manual_windows():
    spec = make_spec(n=64, phi="cos(2*pi*x1)")
    c = build_coefficients(spec)
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    from torusfp.picard import PicardSpace

    # mu low enough that the evolved terminal frame stays admissible
    s1 = PicardSpace(
        mu=0.2, Lambda=space.Lambda, R=space.R, T=0.001, C_gauss=1.0,
        W_inf=space.W_inf, W_sup=space.W_sup, V_norm=0.0,
    )
    t1, _ = fixed_point_solve(f0, c, s1, nt=8)
    t2, _ = fixed_point_solve(t1.frames[-1], c, s1, nt=8, t0=0.001)
    assert np.array_equal(t2.frames[0].values, t1.frames[-1].values)


def test_fixed_point_solve_labels_frames_from_t0(heat64):
    spec, c = heat64
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    traj, _ = fixed_point_solve(f0, c, space, nt=4, t0=0.5)
    assert traj.times[0] == 0.5
    assert traj.times[-1] == pytest.approx(0.5 + space.T, rel=1e-15, abs=0.0)
    # psi_map reads the window start from the labels and reproduces the fixed point
    again = psi_map(traj, f0, c, space)
    assert np.array_equal(again.times, traj.times)
    assert np.allclose(again.values_matrix(), traj.values_matrix(), rtol=0.0, atol=1e-12)


def test_fixed_point_solves_discrete_pde_first_order():
    # mild nonlinearity so the contraction tolerates a horizon far above
    # roundoff scale (time differencing would otherwise drown in noise)
    from torusfp.picard import PicardSpace

    spec = make_spec(n=64, d="2+0.05*cos(2*pi*x1)", f0="1+0.25*cos(2*pi*x1)")
    c = build_coefficients(spec)
    f0 = sample_f0(spec)
    base = picard_space(f0, c)
    space = PicardSpace(
        mu=base.mu, Lambda=base.Lambda, R=base.R, T=1e-3, C_gauss=base.C_gauss,
        W_inf=base.W_inf, W_sup=base.W_sup, V_norm=base.V_norm,
    )
    residuals = []
    for nt in (8, 16, 32):
        traj, _ = fixed_point_solve(f0, c, space, tol=1e-11, max_iter=60, nt=nt)
        residuals.append(pde_residual(traj, c))
    # halving the lattice step halves the residual (first order)
    r1 = residuals[1] / residuals[0]
    r2 = residuals[2] / residuals[1]
    assert 0.3 <= r1 <= 0.7
    assert 0.3 <= r2 <= 0.7


@pytest.mark.parametrize("n", [32, 64])
def test_equivalence_of_divergence_and_expanded_forms(n):
    spec = make_spec(n=n, d="2+cos(2*pi*x1)", phi="0.5*cos(2*pi*x1)", pi="1.5")
    c = build_coefficients(spec)
    f = Field.from_function(c.grid, lambda x: 1 + 0.3 * np.cos(2 * np.pi * x))
    gap = np.max(
        np.abs(rhs_divergence_form(f, c).values - rhs_expanded_form(f, c).values)
    )
    assert gap <= 700.0 * c.grid.h**2  # measured gap/h^2 is ~590 on this problem


def test_equivalence_gap_shrinks_at_second_order():
    gaps = []
    for n in (32, 64, 128):
        spec = make_spec(n=n, d="2+cos(2*pi*x1)", phi="0.5*cos(2*pi*x1)")
        c = build_coefficients(spec)
        f = Field.from_function(c.grid, lambda x: 1 + 0.3 * np.cos(2 * np.pi * x))
        gaps.append(
            np.max(np.abs(rhs_divergence_form(f, c).values - rhs_expanded_form(f, c).values))
        )
    assert 2.5 <= gaps[0] / gaps[1] <= 6.0
    assert 2.5 <= gaps[1] / gaps[2] <= 6.0


def test_random_y_trajectory_lies_in_y(cosine_d64, rng):
    spec, c = cosine_d64
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    for _ in range(5):
        tr = random_y_trajectory(space, c.grid, rng, nt=16)
        vals = tr.values_matrix()
        assert np.min(vals) >= space.mu
        assert np.max(vals) <= space.R


@settings(max_examples=8, derandomize=True, deadline=None)
@given(
    grid=st.sampled_from([(1, 16), (1, 32), (2, 8)]),
    a=st.floats(0.0, 0.9),
    p1=st.floats(0.0, 0.4),
    p2=st.floats(0.05, 0.4),
    nt=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_source_block_matches_the_per_frame_roll_formula(grid, a, p1, p2, nt, seed):
    # every row of the block source is bit for bit, signs of zero included,
    # the per-frame div(V f log f) by np.roll with V at its own midpoint
    from torusfp.picard import _nonlinear_source

    dim, n = grid
    axes = "*cos(2*pi*x2)" if dim == 2 else ""
    spec = make_spec(
        n=n,
        dim=dim,
        d=f"2 + {a!r}*cos(2*pi*x1){axes}",
        pi=f"1 + {p1!r}*sin(2*pi*x1) + {p2!r}*sin(2*pi*t)",
    )
    c = build_coefficients(spec)
    g = c.grid
    rng = np.random.default_rng(seed)
    favg = 1.0 + 0.5 * rng.uniform(-1.0, 1.0, (nt, g.n_cells))
    favg[rng.random(favg.shape) < 0.25] = 1.0  # w = 0 there, so V * w is a signed zero
    mids = np.sort(rng.uniform(0.0, 1.0, nt))
    got = _nonlinear_source(c, favg, mids)
    assert got.shape == (nt, g.n_cells)
    for m in range(nt):
        v = c.V_at(mids[m]).components
        w = favg[m] * np.log(favg[m])
        expected = np.zeros(g.n_cells)
        for axis, comp in enumerate(v):
            q = (comp * w).reshape(g.shape)
            ax = g.numpy_axis(axis)
            expected += ((np.roll(q, -1, axis=ax) - np.roll(q, 1, axis=ax)) / (2.0 * g.h)).ravel()
        assert got[m].tobytes() == expected.tobytes()
    if nt > 1:
        assert not np.array_equal(c.V_at(mids[0]).components[0], c.V_at(mids[-1]).components[0])


def test_duhamel_term_forms_agree_by_adjointness(cosine_d64):
    # propagator applied to div(V w) equals -sum of grad_y K . (V w): the
    # two forms of the nonlinear Duhamel term coincide exactly on the grid
    from torusfp.kernel import apply_propagator, build_propagator

    spec, c = cosine_d64
    g = c.grid
    p = build_propagator(c, g, 0.0, 0.01, 20)
    f = Field.from_function(g, lambda x: 1 + 0.2 * np.cos(2 * np.pi * x))
    src = frame_source(c, f.values, 0.0)
    via_divergence = apply_propagator(p, Field(g, src)).values
    v = c.V_at(0.0)
    w = f.values * np.log(f.values)
    grads = kernel_y_gradient(p)
    via_gradient = np.array(
        [-g.h * np.sum(grads[i].components[0] * v.components[0] * w) for i in range(g.n_cells)]
    )
    assert np.max(np.abs(via_divergence - via_gradient)) <= 1e-12


def test_fixed_point_2d_heat_decay():
    spec = make_spec(n=12, dim=2, f0="1+0.2*cos(2*pi*x1)")
    c = build_coefficients(spec)
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    traj, report = fixed_point_solve(f0, c, space, tol=1e-10, nt=16)
    assert report.iterations <= 2
    x1 = c.grid.meshgrid()[0]
    t_end = traj.times[-1]
    exact = 1 + 0.2 * np.exp(-4 * np.pi**2 * t_end) * np.cos(2 * np.pi * x1)
    # coarse 2D grid: mode-1 decay still lands within the spatial truncation
    assert np.max(np.abs(traj.frames[-1].values - exact)) <= 5e-3


def test_nonuniform_lattice_rejected(heat64):
    spec, c = heat64
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    times = np.array([0.0, 0.3, 1.0]) * space.T
    tr = Trajectory(c.grid, times, [f0] * 3)
    with pytest.raises(UsageError, match="uniform"):
        psi_map(tr, f0, c, space)


def test_psi_accepts_the_lattice_of_a_late_window():
    # T = 4.55e-9 after t0 = 0.5: the steps carry the rounding of 0.5 + k*T/8,
    # relative to one step far above 1e-12, yet the lattice is uniform
    run = load_config(Path(__file__).parents[1] / "configs" / "variable-temperature.ini")
    c = build_coefficients(run.problem)
    f0 = sample_initial_data(run.problem)
    space = picard_space(f0, c)
    traj, _ = fixed_point_solve(f0, c, space, nt=8, t0=0.5)
    again = psi_map(traj, f0, c, space)
    assert np.array_equal(again.times, traj.times)
    assert np.max(np.abs(again.values_matrix() - traj.values_matrix())) <= 1e-7


def test_psi_matches_the_two_part_duhamel_form(rng):
    # reference: the free evolution of f0 plus the separately accumulated
    # source term, both advanced by the same backward-Euler steps; the
    # time-dependent mobility refactors the implicit operator at every step
    from torusfp.kernel import ImplicitStepper

    spec = make_spec(n=32, d="2+cos(2*pi*x1)", pi="1+0.1*t", f0="1+0.25*cos(2*pi*x1)")
    c = build_coefficients(spec)
    assert not c.time_independent_pi
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    assert space.V_norm > 0
    nt = 16
    f = random_y_trajectory(space, c.grid, rng, nt=nt)

    stepper = ImplicitStepper(c, c.grid)
    vals = f.values_matrix()
    delta = space.T / nt
    linear = f0.values
    source_acc = np.zeros(c.grid.n_cells)
    reference = [f0.values]
    for m in range(nt):
        t_mid = m * delta + 0.5 * delta
        linear = stepper.advance(linear, t_mid, delta)
        src = frame_source(c, 0.5 * (vals[m] + vals[m + 1]), t_mid)
        source_acc = stepper.advance(source_acc, t_mid, delta) + delta * stepper.advance(
            src, t_mid + 0.25 * delta, 0.5 * delta
        )
        reference.append(linear + source_acc)

    got = psi_map(f, f0, c, space).values_matrix()
    assert np.max(np.abs(got - np.array(reference))) <= 1e-13


@pytest.mark.parametrize(
    "dim, n, d",
    [(1, 32, "2+cos(2*pi*x1)"), (2, 16, "2+cos(2*pi*x1)*cos(2*pi*x2)")],
)
def test_psi_block_solve_matches_the_per_frame_loop(rng, monkeypatch, dim, n, d):
    # the time-independent twin of the test above: psi_map advances its
    # half steps as one (N, nt) block, the reference one frame at a time
    import torusfp.picard as picard
    from torusfp.kernel import ImplicitStepper

    spec = make_spec(n=n, dim=dim, d=d, f0="1+0.25*cos(2*pi*x1)")
    c = build_coefficients(spec)
    assert c.time_independent_pi
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    assert space.V_norm > 0
    nt = 16
    f = random_y_trajectory(space, c.grid, rng, nt=nt)

    stepper = ImplicitStepper(c, c.grid)
    vals = f.values_matrix()
    delta = space.T / nt
    reference = [f0.values]
    for m in range(nt):
        t_mid = m * delta + 0.5 * delta
        src = frame_source(c, 0.5 * (vals[m] + vals[m + 1]), t_mid)
        kick = delta * stepper.advance(src, t_mid + 0.25 * delta, 0.5 * delta)
        reference.append(stepper.advance(reference[-1], t_mid, delta) + kick)

    shapes = []

    class Recording(ImplicitStepper):
        def advance(self, values, t_mid, dt):
            shapes.append(values.shape)
            return super().advance(values, t_mid, dt)

    monkeypatch.setattr(picard, "ImplicitStepper", Recording)
    got = psi_map(f, f0, c, space).values_matrix()
    assert shapes.count((c.grid.n_cells, nt)) == 1
    assert np.max(np.abs(got - np.array(reference))) <= 1e-13


@pytest.mark.parametrize(
    "pi, per_iteration", [("1", lambda nt: nt + 1), ("1+0.1*t", lambda nt: nt + 1)]
)
def test_advance_calls_per_picard_iteration(monkeypatch, pi, per_iteration):
    # all nt half steps of an iteration are one call, whatever the mobility:
    # a time-dependent one refactors per midpoint inside the stepper
    import torusfp.picard as picard
    from torusfp.kernel import ImplicitStepper

    calls = []

    class Counting(ImplicitStepper):
        def advance(self, values, t_mid, dt):
            calls.append(values.shape)
            return super().advance(values, t_mid, dt)

    spec = make_spec(n=32, d="2+cos(2*pi*x1)", pi=pi, f0="1+0.25*cos(2*pi*x1)")
    c = build_coefficients(spec)
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    monkeypatch.setattr(picard, "ImplicitStepper", Counting)
    nt = 8
    _, report = fixed_point_solve(f0, c, space, nt=nt)
    assert report.iterations >= 2
    assert len(calls) == report.iterations * per_iteration(nt)


def _cosine_f0(grid):
    return Field.from_function(grid, lambda x: 1 + 0.5 * np.cos(2 * np.pi * x))


def test_picard_iterate_leaving_y_is_a_numerical_failure():
    spec = make_spec(n=64, d="1.2+cos(6*pi*x1)", f0="1+0.9*cos(2*pi*x1)")
    c = build_coefficients(spec)
    f0 = sample_f0(spec)
    space = replace(picard_space(f0, c), mu=1e-9, R=1e9, T=0.01)
    with pytest.raises(NumericsError, match="exits Y at iteration 1:"):
        fixed_point_solve(f0, c, space, nt=8)


def test_picard_iteration_that_does_not_converge_is_a_numerical_failure():
    run = load_config(Path(__file__).parents[1] / "configs" / "variable-temperature.ini")
    c = build_coefficients(run.problem)
    f0 = sample_initial_data(run.problem)
    space = replace(picard_space(f0, c), T=1e-3)
    with pytest.raises(NumericsError, match="did not converge in 2 iterations"):
        fixed_point_solve(f0, c, space, max_iter=2)


def test_three_rising_differences_stop_the_picard_iteration(cosine_d64, monkeypatch):
    spec, c = cosine_d64
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    calls = []

    def doubling(fvals, *args):
        # the k-th image moves every value by 1e-6 * 2^k, so each difference doubles
        calls.append(len(calls) + 1)
        return fvals + 1e-6 * 2.0 ** calls[-1]

    monkeypatch.setattr(picard, "_psi_values", doubling)
    with pytest.raises(NumericsError, match="not contracting for 3 consecutive steps"):
        fixed_point_solve(f0, c, space, max_iter=40)
    assert calls == [1, 2, 3, 4]  # ratios nan, 2, 2, 2


def test_linear_picard_iteration_counts_the_implied_zero_difference(heat64):
    # V = 0: the map ignores the iterate, so the second difference is exactly 0
    _, c = heat64
    f0 = _cosine_f0(c.grid)
    _, rep = fixed_point_solve(f0, c, picard_space(f0, c))
    assert rep.iterations == 2
    assert rep.final_residual == 0.0 and rep.empirical_contraction == 0.0
    ((iteration, residual, ratio, vmin, vmax),) = rep.history
    assert iteration == 1 and residual > 1e-8 and math.isnan(ratio) and 0 < vmin < vmax


def test_nonlinear_picard_report_comes_from_its_history(cosine_d64):
    spec, c = cosine_d64
    f0 = sample_f0(spec)
    space = replace(picard_space(f0, c), T=1e-4)  # five iterations
    traj, rep = fixed_point_solve(f0, c, space, tol=1e-12, max_iter=60)
    assert rep.iterations == len(rep.history) >= 3
    assert [row[0] for row in rep.history] == list(range(1, rep.iterations + 1))
    assert rep.final_residual == rep.history[-1][1] <= 1e-12
    ratios = [b[1] / a[1] for a, b in zip(rep.history, rep.history[1:])]
    assert [row[2] for row in rep.history[1:]] == ratios
    assert rep.empirical_contraction == max(ratios)
    vals = traj.values_matrix()
    assert rep.history[-1][3:] == (float(np.min(vals)), float(np.max(vals)))


def test_oversized_picard_lattices_are_refused_before_any_step(heat64, monkeypatch):
    import re

    import torusfp.kernel as kernel

    _, c = heat64
    f0 = _cosine_f0(c.grid)
    space = picard_space(f0, c)
    monkeypatch.setattr(kernel, "_physical_memory", lambda: 2**16)
    monkeypatch.setattr(kernel.ImplicitStepper, "advance", lambda *a: pytest.fail("advanced first"))
    estimate = picard._lattice_bytes(c.grid, 64)
    with pytest.raises(UsageError, match=re.escape(f"Picard iteration needs about {estimate / 2**30:.3g} GiB")):
        fixed_point_solve(f0, c, space, nt=64)
    # V = 0 here, so global_solve fits no Duhamel constant before its own check
    estimate = picard._lattice_bytes(c.grid, 16) + kernel._frames_bytes(c.grid, 4 + 1)
    with pytest.raises(UsageError, match=re.escape(f"global march needs about {estimate / 2**30:.3g} GiB")):
        global_solve(f0, c, 0.01, nt_per_window=16, num_windows_override=4)


def test_picard_memory_estimates_bound_thetraced_peak(heat64):
    import torusfp.kernel as kernel

    for dim, n, d in [(1, 64, "2+cos(2*pi*x1)"), (2, 8, "2+cos(2*pi*x1)*cos(2*pi*x2)")]:
        spec = make_spec(n=n, dim=dim, d=d, f0="1+0.25*cos(2*pi*x1)")
        c = build_coefficients(spec)
        f0 = sample_f0(spec)
        space = picard_space(f0, c)
        peak = traced_peak(lambda: fixed_point_solve(f0, c, space, tol=1e-10, nt=64))
        assert peak <= picard._lattice_bytes(c.grid, 64) <= 3 * peak
    # the march on the heat problem: one window's lattice and the seams
    _, c = heat64
    f0 = _cosine_f0(c.grid)
    peak = traced_peak(lambda: global_solve(f0, c, 0.01, nt_per_window=16, num_windows_override=200))
    estimate = picard._lattice_bytes(c.grid, 16) + kernel._frames_bytes(c.grid, 200 + 1)
    assert peak <= estimate <= 3 * peak
