import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_spec, sample_f0, traced_peak

from torusfp.coeff import build_coefficients
from torusfp.equilibrium import equilibrium_state, free_energy, integrate
from torusfp.errors import AssumptionError, NumericsError
from torusfp.fvsolver import FVConfig, chemical_potential, fv_step, simulate, stable_dt
from torusfp.grid import Field, TorusGrid


def test_chemical_potential_examples(heat64, cosine128):
    _, c = cosine128
    eq = equilibrium_state(c, 1.0)
    mu = chemical_potential(eq.f_eq, c)
    assert np.max(np.abs(mu.values - eq.C_eq)) <= 1e-12
    _, ch = heat64
    assert np.max(np.abs(chemical_potential(Field.constant(ch.grid, 1.0), ch).values)) == 0.0


def test_chemical_potential_direct():
    spec = make_spec(n=64, d="2", phi="cos(2*pi*x1)")
    c = build_coefficients(spec)
    f = Field.constant(c.grid, np.e)
    expected = 2.0 + np.cos(2 * np.pi * c.grid.coords1d())
    assert np.max(np.abs(chemical_potential(f, c).values - expected)) <= 1e-14


def test_chemical_potential_rejects_nonpositive(heat64):
    _, c = heat64
    with pytest.raises(NumericsError):
        chemical_potential(Field.constant(c.grid, -1.0), c)


def test_equilibrium_is_exact_steady_state(cosine128):
    _, c = cosine128
    eq = equilibrium_state(c, 1.0)
    cfg = FVConfig()
    f = eq.f_eq
    for k in range(50):
        f2 = fv_step(f, c, 0.007 * k, 0.007, cfg)
        assert np.array_equal(f2.values, f.values)
        f = f2


def test_step_conserves_mass(cosine128, rng):
    _, c = cosine128
    cfg = FVConfig()
    x = c.grid.coords1d()
    f = Field(c.grid, 1 + 0.4 * np.cos(2 * np.pi * x) + 0.1 * np.cos(6 * np.pi * x))
    m0 = integrate(f)
    out = fv_step(f, c, 0.0, 0.01, cfg)
    assert abs(integrate(out) - m0) <= 1e-13


def test_heat_single_step_decay():
    spec = make_spec(n=128, f0="1+0.5*cos(2*pi*x1)")
    c = build_coefficients(spec)
    f = sample_f0(spec)
    dt = 1e-5
    out = fv_step(f, c, 0.0, dt, FVConfig())
    x = c.grid.coords1d()
    exact = 1 + 0.5 * np.exp(-4 * np.pi**2 * dt) * np.cos(2 * np.pi * x)
    # measured one-step error 3.2e-6 (dt * first-order upwind truncation)
    assert np.max(np.abs(out.values - exact)) <= 1e-5


def test_stable_dt_explicit_formula(heat64):
    spec, c = heat64
    f = sample_f0(spec)
    cfg = FVConfig(stepper="explicit", dt_safety=0.9)
    assert stable_dt(f, c, 0.0, cfg) == pytest.approx(0.9 / (2 * 64**2), rel=1e-12)
    # doubling max(D/pi) halves the explicit step
    c2 = build_coefficients(make_spec(n=64, d="2"))
    assert stable_dt(f, c2, 0.0, cfg) == pytest.approx(0.45 / (2 * 64**2), rel=1e-12)


def test_stable_dt_implicit(heat64):
    spec, c = heat64
    f = sample_f0(spec)
    cfg = FVConfig(stepper="implicit", dt_safety=1.0)
    assert stable_dt(f, c, 0.0, cfg) == 1.0 / 64


def test_constant_is_steady_with_flat_potential():
    spec = make_spec(n=64, d="1.5", pi="2+cos(2*pi*x1)", f0="2", t_final=0.2)
    res = simulate(spec, FVConfig(diag_every=5))
    for row in res.rows:
        assert row.min_f == 2.0 and row.max_f == 2.0
        assert row.dissipation_rate == 0.0
    f_energies = [r.free_energy for r in res.rows]
    assert max(f_energies) - min(f_energies) == 0.0


def test_simulate_heat_matches_fourier():
    spec = make_spec(n=128, f0="1+0.1*cos(2*pi*x1)", t_final=0.01)
    cfg = FVConfig(dt_safety=128 * 1e-5, diag_every=100)  # dt = 1e-5
    res = simulate(spec, cfg)
    x = res.trajectory.grid.coords1d()
    worst = max(
        np.max(np.abs(fr.values - (1 + 0.1 * np.exp(-4 * np.pi**2 * t) * np.cos(2 * np.pi * x))))
        for fr, t in zip(res.trajectory.frames, res.trajectory.times)
    )
    assert worst <= 1e-3


def test_simulate_long_run_reaches_equilibrium(cosine128):
    spec = make_spec(n=128, phi="cos(2*pi*x1)", t_final=10.0)
    res = simulate(spec, FVConfig(diag_every=200))
    assert res.rows[-1].linf_to_feq <= 1e-5
    fes = [r.free_energy for r in res.rows]
    assert all(b <= a + 1e-12 for a, b in zip(fes, fes[1:]))
    assert not res.warnings


def test_simulate_validates_assumptions():
    spec = make_spec(n=64, mu=0.5)  # f0 = 1 < 4 mu
    with pytest.raises(AssumptionError, match="A3"):
        simulate(spec, FVConfig())


def test_mass_conservation_over_thousand_steps():
    spec = make_spec(n=64, phi="cos(2*pi*x1)", t_final=1000 * 0.9 / 64)
    res = simulate(spec, FVConfig(diag_every=100))
    assert res.n_steps == 1000
    drift = max(abs(r.mass - res.rows[0].mass) for r in res.rows)
    assert drift <= 1e-11


def test_energy_dissipates_every_implicit_step():
    spec = make_spec(n=64, phi="cos(2*pi*x1)", t_final=0.5)
    res = simulate(spec, FVConfig(diag_every=1))
    fes = [r.free_energy for r in res.rows]
    assert all(b <= a + 1e-12 for a, b in zip(fes, fes[1:]))


def test_dissipation_identity_on_refined_run():
    spec = make_spec(n=256, phi="cos(2*pi*x1)", t_final=0.05)
    cfg = FVConfig(dt_safety=256 * 1e-4, diag_every=10)  # dt = 1e-4
    res = simulate(spec, cfg)
    for r in res.rows[1:-1]:
        rel = abs(r.dF_dt_numeric + r.dissipation_rate) / max(r.dissipation_rate, 1e-8)
        assert rel <= 0.05


def test_positivity_and_envelope(cosine128):
    spec = make_spec(n=128, phi="cos(2*pi*x1)", t_final=2.0)
    res = simulate(spec, FVConfig(diag_every=20))
    slack = 1e-6 + res.trajectory.grid.h**2
    for r in res.rows:
        assert r.min_f > 0
        assert r.min_f >= res.bounds.m - slack
        assert r.max_f <= res.bounds.M + slack


def test_explicit_step_matches_implicit_for_small_dt():
    spec = make_spec(n=64, phi="cos(2*pi*x1)")
    c = build_coefficients(spec)
    f = sample_f0(spec)
    dt = 1e-6
    a = fv_step(f, c, 0.0, dt, FVConfig(stepper="explicit"))
    b = fv_step(f, c, 0.0, dt, FVConfig(stepper="implicit"))
    assert np.max(np.abs(a.values - b.values)) <= 1e-8  # O(dt^2) splitting gap


def test_explicit_positivity_rescue():
    # a large explicit step would go negative; halving restores positivity
    spec = make_spec(n=64, phi="cos(2*pi*x1)", f0="0.05+0.9*(0.5+0.5*cos(2*pi*x1))^8")
    c = build_coefficients(spec)
    f = sample_f0(spec)
    out = fv_step(f, c, 0.0, 5e-4, FVConfig(stepper="explicit"))
    assert np.min(out.values) > 0


def test_explicit_nested_halving_is_unchanged(monkeypatch):
    # the full step, its first half and first quarter go negative, so the
    # step runs as eighth, eighth, quarter, half; the expected state is the
    # output of the recursive halving this loop replaced
    import torusfp.fvsolver as fv

    spec = make_spec(n=8, phi="cos(2*pi*x1)", f0="0.05+0.9*(0.5+0.5*cos(2*pi*x1))^8")
    c = build_coefficients(spec)
    f = sample_f0(spec)
    times = []
    face_fluxes = fv._face_fluxes

    def recording(grid, u, cc, t):
        times.append(t)
        return face_fluxes(grid, u, cc, t)

    monkeypatch.setattr(fv, "_face_fluxes", recording)
    out = fv._explicit_step(c.grid, f.values, c, 0.0, 0.03)
    assert times == [0.0, 0.0, 0.0, 0.0, 0.00375, 0.0075, 0.015]
    expected = [
        "0x1.64d68a590b5e2p-3", "0x1.f051d366a3f08p-5", "0x1.0f314c02b3501p-2",
        "0x1.5826a18501f24p-2", "0x1.44839e1d9a034p-2", "0x1.5826a18501f24p-2",
        "0x1.0f314c02b3503p-2", "0x1.f051d366a3f00p-5",
    ]
    assert [float(v).hex() for v in out] == expected
    # with the floor above an eighth step the third halving is refused
    monkeypatch.setattr(fv, "_DT_MIN", 0.005)
    with pytest.raises(NumericsError, match="positivity"):
        fv._explicit_step(c.grid, f.values, c, 0.0, 0.03)


def test_explicit_dt_floor_raises():
    import torusfp.fvsolver as fv

    spec = make_spec(n=64, phi="cos(2*pi*x1)")
    c = build_coefficients(spec)
    f = sample_f0(spec)
    with pytest.raises(NumericsError, match="positivity"):
        fv._explicit_step(c.grid, f.values, c, 0.0, 5e-13)


def test_newton_failure_reports():
    spec = make_spec(n=64, phi="cos(2*pi*x1)")
    c = build_coefficients(spec)
    f = sample_f0(spec)
    with pytest.raises(NumericsError, match="Newton"):
        fv_step(f, c, 0.0, 50.0, FVConfig(max_newton_iter=1))


def test_newton_work_per_implicit_step(monkeypatch):
    # once the residual reaches its roundoff floor, Newton stops instead of
    # spending 30 line-search halvings on a step that cannot lower it; each
    # iterate's face terms are computed once and feed its residual, its
    # Jacobian and the conservative update
    import torusfp.fvsolver as fv

    calls = {"face_terms": 0, "factor": 0}
    face_terms, splu = fv._face_terms, fv.spla.splu

    def counted_terms(*args):
        calls["face_terms"] += 1
        return face_terms(*args)

    def counted_splu(*args, **kwargs):
        calls["factor"] += 1
        return splu(*args, **kwargs)

    monkeypatch.setattr(fv, "_face_terms", counted_terms)
    monkeypatch.setattr(fv.spla, "splu", counted_splu)
    spec = make_spec(n=64, phi="cos(2*pi*x1)", f0="1+0.4*cos(2*pi*x1)", t_final=100 * 0.9 / 64)
    res = simulate(spec, FVConfig(diag_every=1000))
    assert res.n_steps == 100
    # measured 2.84 face-term passes and 1.84 factorizations per step (5.68
    # passes when the Jacobians and the final update recomputed them)
    assert calls["face_terms"] / res.n_steps <= 3.5
    assert calls["factor"] / res.n_steps <= 2.5


@settings(max_examples=15, derandomize=True, deadline=None)
@given(
    grid=st.sampled_from([(1, 16), (1, 32)]),
    a=st.floats(0.0, 0.6),
    k=st.sampled_from([1, 2, 3]),
    psi=st.floats(0.0, 2 * np.pi),
    b=st.floats(0.0, 1.0),
)
@example(grid=(2, 8), a=0.6, k=2, psi=1.0, b=1.0)
def test_implicit_structure_on_generated_data(grid, a, k, psi, b):
    dim, n = grid
    axes = "*cos(2*pi*x2)" if dim == 2 else ""
    spec = make_spec(
        n=n,
        dim=dim,
        phi=f"{b!r}*cos(2*pi*x1){axes}",
        f0=f"1 + {a!r}*cos(2*pi*{k}*x1 + {psi!r}){axes}",
        t_final=0.5,
    )
    res = simulate(spec, FVConfig(diag_every=1))
    mass0 = res.rows[0].mass
    assert max(abs(r.mass - mass0) for r in res.rows) <= 1e-13 * mass0
    fes = [r.free_energy for r in res.rows]
    assert all(later <= earlier + 1e-12 for earlier, later in zip(fes, fes[1:]))
    assert min(r.min_f for r in res.rows) > 0


@settings(max_examples=8, derandomize=True, deadline=None)
@given(
    grid=st.sampled_from([(1, 16), (1, 32), (2, 8)]),
    a=st.floats(0.0, 0.9),
    p1=st.floats(0.0, 0.4),
    p2=st.one_of(st.just(0.0), st.floats(0.05, 0.4)),
    b=st.floats(0.0, 1.0),
    amp=st.floats(0.0, 0.6),
    psi=st.floats(0.0, 2 * np.pi),
)
@example(grid=(2, 8), a=0.9, p1=0.4, p2=0.3, b=1.0, amp=0.6, psi=1.0)
def test_implicit_structure_on_generated_coefficients(grid, a, p1, p2, b, amp, psi):
    # the structure test above with generated D and pi (pi possibly
    # time-dependent), over a full short run
    dim, n = grid
    axes = "*cos(2*pi*x2)" if dim == 2 else ""
    spec = make_spec(
        n=n,
        dim=dim,
        d=f"2 + {a!r}*cos(2*pi*x1 + {psi!r})",
        pi=f"1 + {p1!r}*cos(2*pi*x1){axes} + {p2!r}*sin(2*pi*t)",
        phi=f"{b!r}*cos(2*pi*x1){axes}",
        f0=f"1 + {amp!r}*sin(2*pi*x1 + {psi!r}){axes}",
        t_final=0.2,
    )
    res = simulate(spec, FVConfig(dt_safety=0.1, diag_every=1))
    assert res.n_steps >= 10
    mass0 = res.rows[0].mass
    assert max(abs(r.mass - mass0) for r in res.rows) <= 1e-13 * mass0
    fes = [r.free_energy for r in res.rows]
    assert all(later <= earlier + 1e-12 for earlier, later in zip(fes, fes[1:]))
    assert min(r.min_f for r in res.rows) > 0


def test_simulate_2d_constant_and_conservation():
    spec = make_spec(
        n=12, dim=2, phi="0.2*cos(2*pi*x1)*cos(2*pi*x2)", f0="1", t_final=0.05
    )
    res = simulate(spec, FVConfig(diag_every=2))
    drift = max(abs(r.mass - res.rows[0].mass) for r in res.rows)
    assert drift <= 1e-13
    fes = [r.free_energy for r in res.rows]
    assert all(b <= a + 1e-12 for a, b in zip(fes, fes[1:]))


def test_2d_equilibrium_steady():
    spec = make_spec(n=12, dim=2, phi="0.3*cos(2*pi*x1)+0.2*cos(2*pi*x2)", f0="1")
    c = build_coefficients(spec)
    eq = equilibrium_state(c, 1.0)
    out = fv_step(eq.f_eq, c, 0.0, 0.01, FVConfig())
    assert np.array_equal(out.values, eq.f_eq.values)


def test_cross_solver_agreement_on_heat_window():
    # finite-volume vs fixed-point solver over the picard horizon
    from torusfp.picard import fixed_point_solve, picard_space

    spec = make_spec(n=128, f0="1+0.1*cos(2*pi*x1)")
    c = build_coefficients(spec)
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    traj, _ = fixed_point_solve(f0, c, space, tol=1e-10)
    vals = f0.values.copy()
    nsteps = 50
    dt = space.T / nsteps
    import torusfp.fvsolver as fv

    for k in range(nsteps):
        vals = fv._implicit_step(c.grid, vals, c, (k + 1) * dt, dt, FVConfig())
    assert np.max(np.abs(vals - traj.frames[-1].values)) <= 1e-3


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    n=st.sampled_from([16, 32]),
    d0=st.floats(0.2, 3.0),
    d1=st.floats(0.0, 0.9),
    p1=st.floats(0.0, 0.5),
    p2=st.floats(0.0, 0.5),
    log_b=st.floats(-3.0, 0.7),
)
@example(n=32, d0=1.0, d1=0.0, p1=0.0, p2=0.0, log_b=-3.0)
def test_equilibrium_is_steady_on_generated_coefficients(n, d0, d1, p1, p2, log_b):
    # at mass 1 the constant C_eq is near 0, so the rounding of mu is set by
    # D log f and phi, not by |mu|
    b = 10.0**log_b
    spec = make_spec(
        n=n,
        d=f"{d0!r}*(1 + {d1!r}*cos(2*pi*x1))",
        pi=f"1 + {p1!r}*cos(2*pi*x1) + {p2!r}*sin(2*pi*t)",
        phi=f"{b!r}*cos(2*pi*x1) + {b / 2!r}*sin(6*pi*x1)",
    )
    c = build_coefficients(spec)
    f_eq = equilibrium_state(c, 1.0).f_eq
    assert np.array_equal(fv_step(f_eq, c, 0.0, 0.9 / n, FVConfig()).values, f_eq.values)


@pytest.mark.parametrize("dim, n", [(1, 16), (2, 8)])
def test_newton_matrix_is_the_residual_jacobian(dim, n):
    # central differences of u - f - dt * div J(u) at a non-equilibrium u,
    # where no potential jump sits near an upwind switch or a snap
    import torusfp.fvsolver as fv

    x2 = "*(1 + 0.3*sin(2*pi*x2))" if dim == 2 else ""
    spec = make_spec(
        n=n,
        dim=dim,
        d=f"2 + cos(2*pi*x1){x2}",
        pi="1 + 0.2*sin(2*pi*x1) + 0.1*t",
        phi=f"cos(2*pi*x1){x2}",
    )
    c = build_coefficients(spec)
    g = c.grid
    u = 1.0 + 0.5 * np.random.default_rng(dim).random(g.n_cells)
    t, dt = 0.3, 0.2 * g.h**2

    def residual(v):
        return v - dt * fv._flux_divergence(g, fv._face_fluxes(g, v, c, t))

    eps = 1e-6
    fd = np.empty((g.n_cells, g.n_cells))
    for j in range(g.n_cells):
        step = np.zeros(g.n_cells)
        step[j] = eps
        fd[:, j] = (residual(u + step) - residual(u - step)) / (2 * eps)
    jac = fv._newton_matrix(g, u, c, fv._face_terms(g, u, c, t), dt).toarray()
    assert np.count_nonzero(jac) == (2 * dim + 1) * g.n_cells
    assert np.max(np.abs(jac - fd)) <= 1e-8 * np.max(np.abs(jac))


def _unfused_implicit_step(grid, f_vals, c, t_new, dt, cfg):
    """The implicit step with the face terms recomputed by every residual,
    every Jacobian and the final update, as before they were shared per
    Newton iterate (the failure branches are left out)."""
    import math

    import scipy.sparse.linalg as spla

    import torusfp.fvsolver as fv

    def residual(u):
        return u - f_vals - dt * fv._flux_divergence(grid, fv._face_fluxes(grid, u, c, t_new))

    u = f_vals.copy()
    g = residual(u)
    norm = float(np.max(np.abs(g)))
    floor = max(cfg.newton_tol, 1e-10 * (1.0 + float(np.max(np.abs(f_vals)))))
    for _ in range(cfg.max_newton_iter):
        if norm <= cfg.newton_tol:
            break
        jac = fv._newton_matrix(grid, u, c, fv._face_terms(grid, u, c, t_new), dt)
        delta = spla.splu(jac, permc_spec=grid.lu_column_order).solve(-g)
        lam = 1.0
        for _ in range(30):
            trial = u + lam * delta
            norm_trial = math.inf
            if np.min(trial) > 0:
                g_trial = residual(trial)
                norm_trial = float(np.max(np.abs(g_trial)))
            if norm_trial < norm or norm <= floor:
                break
            lam *= 0.5
        if norm_trial >= norm:
            break
        u, g, norm = trial, g_trial, norm_trial
    return f_vals + dt * fv._flux_divergence(grid, fv._face_fluxes(grid, u, c, t_new))


@settings(max_examples=9, derandomize=True, deadline=None)
@given(
    grid=st.sampled_from([(1, 16), (1, 32), (2, 8)]),
    a=st.floats(0.0, 0.9),
    p1=st.floats(0.0, 0.4),
    p2=st.one_of(st.just(0.0), st.floats(0.05, 0.4)),
    b=st.floats(0.0, 1.0),
    k=st.sampled_from([1, 2]),
    psi=st.floats(0.0, 2 * np.pi),
    amp=st.floats(0.0, 0.6),
)
@example(grid=(2, 8), a=0.9, p1=0.4, p2=0.3, b=1.0, k=2, psi=1.0, amp=0.6)
def test_implicit_step_matches_the_unfused_step_bit_for_bit(grid, a, p1, p2, b, k, psi, amp):
    dim, n = grid
    axes = "*cos(2*pi*x2)" if dim == 2 else ""
    spec = make_spec(
        n=n,
        dim=dim,
        d=f"2 + {a!r}*cos(2*pi*x1)",
        pi=f"1 + {p1!r}*cos(2*pi*x1){axes} + {p2!r}*sin(2*pi*t)",
        phi=f"{b!r}*cos(2*pi*{k}*x1 + {psi!r}){axes}",
        f0=f"1 + {amp!r}*sin(2*pi*x1 + {psi!r}){axes}",
    )
    c = build_coefficients(spec)
    cfg = FVConfig()
    f = sample_f0(spec)
    dt = stable_dt(f, c, 0.0, cfg)
    mass0, energies = integrate(f), [free_energy(f, c)]
    for step in range(5):
        out = fv_step(f, c, step * dt, dt, cfg)
        expected = _unfused_implicit_step(c.grid, f.values, c, (step + 1) * dt, dt, cfg)
        assert np.array_equal(out.values, expected)
        assert np.min(out.values) > 0
        assert abs(integrate(out) - mass0) <= 1e-13 * mass0
        energies.append(free_energy(out, c))
        f = out
    assert all(later <= earlier + 1e-12 for earlier, later in zip(energies, energies[1:]))


def test_fv_converges_to_picard_in_h():
    # the gap between the two solvers is the upwinded mobility of the FV
    # flux, so it is first order in h; the Picard recurrence, built on
    # central differences, is second order. Measured gaps 1.48e-3, 7.12e-4,
    # 3.67e-4 (orders 1.05, 0.96) and Picard differences 8.83e-4, 2.25e-4
    # (order 1.97).
    from torusfp.fvsolver import _implicit_step
    from torusfp.picard import PicardSpace, fixed_point_solve

    T, nt = 1e-3, 128
    gaps, picard = [], []
    for n in (32, 64, 128):
        spec = make_spec(
            n=n,
            d="2+cos(2*pi*x1)",
            pi="1+0.5*sin(2*pi*x1)",
            phi="0.5*cos(2*pi*x1)",
            f0="1+0.25*cos(2*pi*x1)",
            t_final=T,
        )
        c = build_coefficients(spec)
        f0 = sample_f0(spec)
        # one window of length T; mu and R only bound the iterates' range
        space = PicardSpace(
            mu=0.75 / 4, Lambda=0.0, R=5.0, T=T, C_gauss=1.0,
            W_inf=c.W_inf, W_sup=c.W_sup, V_norm=c.V_sup,
        )
        traj, report = fixed_point_solve(f0, c, space, tol=1e-12, nt=nt)
        assert report.in_Y_every_iterate
        vals = f0.values.copy()
        for m in range(nt):
            vals = _implicit_step(c.grid, vals, c, (m + 1) * T / nt, T / nt, FVConfig())
        gaps.append(float(np.max(np.abs(vals - traj.frames[-1].values))))
        picard.append(traj.frames[-1].values)
    gap_orders = [np.log2(coarse / fine) for coarse, fine in zip(gaps, gaps[1:])]
    assert min(gap_orders) >= 0.8
    # n and 2n share the nodes x_i = i/n
    self_diffs = [float(np.max(np.abs(coarse - fine[::2]))) for coarse, fine in zip(picard, picard[1:])]
    assert np.log2(self_diffs[0] / self_diffs[1]) >= 1.8


@pytest.mark.parametrize(
    "dim, n, t_final, diag_every",
    [(1, 32, 0.2, 3), (2, 8, 0.5, 2)],  # the last row is off the stride in both
)
def test_diagnostics_rows_recompute_from_the_trajectory(dim, n, t_final, diag_every):
    from torusfp.equilibrium import dissipation_rate
    from torusfp.fvsolver import DiagnosticsRow

    spec = make_spec(
        n=n, dim=dim, d="2+cos(2*pi*x1)", pi=f"1+0.2*sin(2*pi*(x{dim}+t))",
        phi="0.3*cos(2*pi*x1)", f0="1+0.3*cos(2*pi*x1)", t_final=t_final,
    )
    res = simulate(spec, FVConfig(diag_every=diag_every))
    c = build_coefficients(spec)
    times, frames = res.trajectory.times, res.trajectory.frames
    energies = [free_energy(fr, c) for fr in frames]
    expected = [
        DiagnosticsRow(
            t, integrate(fr), fe, dissipation_rate(fr, c, t), float(slope),
            float(np.min(fr.values)), float(np.max(fr.values)),
            float(np.max(np.abs(fr.values - res.equilibrium.f_eq.values))),
        )
        for t, fr, fe, slope in zip(times, frames, energies, np.gradient(energies, times))
    ]
    assert len(res.rows) == 4 and times[0] == 0.0 and times[-1] == pytest.approx(t_final)
    assert res.rows == expected


def test_oversized_simulate_record_is_refused_before_any_step(monkeypatch):
    import re

    import torusfp.fvsolver as fv
    import torusfp.kernel as kernel
    from torusfp.errors import UsageError

    spec = make_spec(n=64, phi="0.5*cos(2*pi*x1)", f0="1+0.3*cos(2*pi*x1)", t_final=2.0)
    cfg = FVConfig(diag_every=1)
    # f0 plus one row per step of dt = 0.9/64, and the workspace allowance
    estimate = kernel._frames_bytes(TorusGrid(1, 64), 1 + 143 + 64)
    assert len(simulate(spec, cfg).rows) == 1 + 143
    peak = traced_peak(lambda: simulate(spec, cfg))
    assert peak <= estimate <= 3 * peak

    monkeypatch.setattr(kernel, "_physical_memory", lambda: estimate - 1)
    monkeypatch.setattr(fv, "_step", lambda *args: pytest.fail("stepped first"))
    with pytest.raises(UsageError, match=re.escape(f"needs about {estimate / 2**30:.3g} GiB")):
        simulate(spec, cfg)
