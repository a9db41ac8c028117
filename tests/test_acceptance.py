"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (run pytest with -s to see them live)."""

import math

import numpy as np
import pytest

from conftest import make_spec, sample_f0
from oracles import random_y_trajectory

from torusfp.coeff import build_coefficients
from torusfp.equilibrium import equilibrium_state
from torusfp.errors import UsageError
from torusfp.fvsolver import FVConfig, simulate
from torusfp.grid import Field
from torusfp.kernel import (
    build_propagator,
    apply_propagator,
    validate_gaussian_bounds,
    validate_integral_bounds,
    validate_mass_sandwich,
)
from torusfp.picard import (
    contraction_ratio,
    continuity_check,
    fixed_point_solve,
    global_solve,
    picard_space,
    time_bound,
)


def report(num: int, name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} {name} failed: {detail}"


@pytest.fixture(scope="module")
def cosine_long_run():
    # the cosine problem, implicit, n = 128, 10^4 steps with per-step rows
    dt = 0.9 / 128
    spec = make_spec(n=128, phi="cos(2*pi*x1)", t_final=10_000 * dt)
    return simulate(spec, FVConfig(diag_every=1))


@pytest.fixture(scope="module")
def cosine_t10_run():
    spec = make_spec(n=128, phi="cos(2*pi*x1)", t_final=10.0)
    return simulate(spec, FVConfig(diag_every=20))


def test_criterion_01_conservation(cosine_long_run):
    res = cosine_long_run
    drift = max(abs(r.mass - res.rows[0].mass) for r in res.rows)
    report(1, "conservation", res.n_steps == 10_000 and drift <= 1e-10, f"drift={drift:.3g}")


def test_criterion_02_energy_dissipation(cosine_long_run):
    res = cosine_long_run
    fes = [r.free_energy for r in res.rows]
    monotone = all(b <= a + 1e-12 for a, b in zip(fes, fes[1:]))

    spec = make_spec(n=256, phi="cos(2*pi*x1)", t_final=0.05)
    refined = simulate(spec, FVConfig(dt_safety=256 * 1e-4, diag_every=10))  # dt = 1e-4
    rels = [
        abs(r.dF_dt_numeric + r.dissipation_rate) / max(r.dissipation_rate, 1e-8)
        for r in refined.rows[1:-1]
    ]
    ok = monotone and max(rels) <= 0.05
    report(2, "energy-dissipation", ok, f"monotone={monotone}, max_rel={max(rels):.3g}")


def test_criterion_03_equilibrium(cosine128, cosine_t10_run):
    _, c = cosine128
    eq = equilibrium_state(c, 1.0)
    c_eq_ok = abs(eq.C_eq - (-0.23597)) <= 1e-4  # oracle: -log I0(1)

    terminal_ok = cosine_t10_run.rows[-1].linf_to_feq <= 1e-5

    dt = 0.9 / 128
    spec_wb = make_spec(n=128, phi="cos(2*pi*x1)", t_final=1000 * dt)
    spec_wb = type(spec_wb)(
        dim=1, n_per_axis=128, d_coeff=spec_wb.d_coeff, pi_coeff=spec_wb.pi_coeff,
        phi_coeff=spec_wb.phi_coeff, f0=eq.f_eq, T_final=1000 * dt,
    )
    wb = simulate(spec_wb, FVConfig(diag_every=100))
    wb_drift = max(r.linf_to_feq for r in wb.rows)
    ok = c_eq_ok and terminal_ok and wb.n_steps == 1000 and wb_drift <= 1e-12
    report(
        3,
        "equilibrium",
        ok,
        f"C_eq={eq.C_eq:.6f}, terminal={cosine_t10_run.rows[-1].linf_to_feq:.2e}, "
        f"well-balanced drift={wb_drift:.2e}",
    )


def test_criterion_04_apriori_bounds(cosine_t10_run):
    res = cosine_t10_run
    m, big_m = res.bounds.m, res.bounds.M
    m_ok = abs(m - np.exp(-2.0)) <= 1e-6
    big_m_ok = abs(big_m - np.exp(2.0)) <= 1e-4
    inside = all(r.min_f >= m - 1e-4 and r.max_f <= big_m + 1e-4 for r in res.rows)
    report(
        4,
        "apriori-bounds",
        m_ok and big_m_ok and inside,
        f"m={m:.8f}, M={big_m:.6f}, trajectory inside={inside}",
    )


def test_criterion_05_time_bound(tmp_path, capsys):
    from torusfp.cli import main

    cfg = tmp_path / "unit.ini"
    cfg.write_text(
        "[grid]\ndim = 1\nn = 64\n\n[coefficients]\nD = 1\npi = 1\nphi = 0\n\n"
        "[initial]\nf0 = 1\n\n[run]\nt_final = 1.0\nmu = 1\n"
    )
    code = main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().out.strip().splitlines()
    row = dict(zip(lines[-2].split(","), lines[-1].split(",")))
    printed_exact = code == 0 and row["T"] == "0.25"

    v_sweep = [time_bound(1.0, 1.0, 1.0, v, 0.0, 0.0) for v in (0.0, 0.1, 1.0, 10.0, 100.0)]
    w_sweep = [time_bound(1.0, 1.0, 1.0, 0.0, -w, w) for w in (0.0, 0.5, 2.0, 10.0, 50.0)]
    v_mono = all(b <= a for a, b in zip(v_sweep, v_sweep[1:]))
    w_mono = all(b <= a for a, b in zip(w_sweep, w_sweep[1:]))
    report(
        5,
        "time-bound",
        printed_exact and v_mono and w_mono,
        f"printed T={row['T']}, monotone in V={v_mono}, in W={w_mono}",
    )


def test_criterion_06_contraction(cosine_d64):
    spec, c = cosine_d64
    f0 = sample_f0(spec)
    space = picard_space(f0, c)  # T by the tool's policy (fitted C, safety)
    rng = np.random.default_rng(2718281828)
    worst = 0.0
    for _ in range(20):
        f = random_y_trajectory(space, c.grid, rng, nt=32)
        g = random_y_trajectory(space, c.grid, rng, nt=32)
        worst = max(worst, contraction_ratio(f, g, f0, c, space))
    _, rep = fixed_point_solve(f0, c, space, tol=1e-12, max_iter=60)
    rates = [row[2] for row in rep.history if np.isfinite(row[2])]
    rate_ok = all(r <= 0.55 for r in rates)
    report(
        6,
        "contraction",
        worst <= 0.55 and rate_ok,
        f"max pair ratio={worst:.3g}, max residual rate="
        f"{max(rates) if rates else 0.0:.3g}",
    )


def test_criterion_07_oracle_equivalence():
    spec = make_spec(n=128, d="2+cos(2*pi*x1)", f0="1+0.25*cos(2*pi*x1)")
    c = build_coefficients(spec)
    f0 = sample_f0(spec)
    space = picard_space(f0, c)
    traj, _ = fixed_point_solve(f0, c, space, tol=1e-12)
    fv_spec = type(spec)(
        dim=1, n_per_axis=128, d_coeff=spec.d_coeff, pi_coeff=spec.pi_coeff,
        phi_coeff=spec.phi_coeff, f0=spec.f0, T_final=space.T,
    )
    fv_res = simulate(fv_spec, FVConfig(diag_every=1))
    gap = np.max(np.abs(fv_res.trajectory.frames[-1].values - traj.frames[-1].values))
    report(7, "oracle-equivalence", gap <= 1e-3, f"T={space.T:.3g}, sup gap={gap:.3g}")


def test_criterion_08_continuity(cosine_d64):
    spec, c = cosine_d64
    f0 = sample_f0(spec)
    space = picard_space(f0, c, mu=0.185)  # both data admissible
    rng = np.random.default_rng(31415926)
    x = c.grid.coords1d()
    worst = 0.0
    for _ in range(10):
        k = int(rng.integers(1, 4))
        eta = np.cos(2 * np.pi * k * x + rng.uniform(0, 2 * np.pi))
        g0 = Field(c.grid, f0.values + 1e-3 * eta)
        worst = max(worst, continuity_check(f0, g0, c, space))
    report(8, "continuity", worst <= 4.0, f"max ratio={worst:.4f}")


def test_criterion_09_global_concatenation(cosine128):
    spec, c = cosine128
    f0 = sample_f0(spec)
    traj, plan = global_solve(f0, c, 10.0, nt_per_window=16, envelope_tol=1e-4)
    windows_ok = plan.num_windows >= math.ceil(10.0 / plan.T_prime)
    inside = all(
        np.min(fr.values) >= plan.m - 1e-4 and np.max(fr.values) <= plan.M + 1e-4
        for fr in traj.frames
    )
    # seam bit-identity: re-solve the first two windows by hand
    from torusfp.picard import PicardSpace, fixed_point_solve as fps

    s = PicardSpace(
        mu=plan.gamma, Lambda=1.0, R=plan.R_prime, T=plan.T_prime, C_gauss=1.0,
        W_inf=c.W_inf, W_sup=c.W_sup, V_norm=0.0,
    )
    w1, _ = fps(f0, c, s, nt=16)
    w2, _ = fps(w1.frames[-1], c, s, nt=16, t0=plan.T_prime)
    seams_ok = np.array_equal(w2.frames[0].values, w1.frames[-1].values)
    report(
        9,
        "global-concatenation",
        windows_ok and inside and seams_ok,
        f"windows={plan.num_windows} (>= {math.ceil(10.0 / plan.T_prime)}), "
        f"inside={inside}, seams bitwise={seams_ok}",
    )


def test_criterion_10_kernel_suite(cosine128):
    heat_spec = make_spec(n=256)
    hc = build_coefficients(heat_spec)
    p = build_propagator(hc, hc.grid, 0.0, 2e-3, 600, ladder_stride=20)
    fit = validate_gaussian_bounds(p, (0, 0))
    gauss_ok = fit.c_fit >= 0.24 and fit.C_fit <= 0.30

    _, c = cosine128
    pw = build_propagator(c, c.grid, 0.0, 0.1, 100)
    rep = validate_mass_sandwich(pw, c, tol=1e-6)
    masses = pw.row_masses()
    sandwich_ok = bool(
        np.all(masses >= rep.lower - 1e-6) and np.all(masses <= rep.upper + 1e-6)
    )

    heat64_spec = make_spec(n=64)
    ib = validate_integral_bounds(
        build_coefficients(heat64_spec), heat64_spec.make_grid(), [0.0, 0.005, 0.01, 0.02]
    )
    stable_ok = ib.stable  # n = 64 vs n = 128 within a factor 2

    try:
        validate_gaussian_bounds(
            build_propagator(hc, hc.grid, 0.0, 1.2, 120, ladder_stride=40)
        )
        reject_ok = False
    except UsageError:
        reject_ok = True
    report(
        10,
        "kernel-suite",
        gauss_ok and sandwich_ok and stable_ok and reject_ok,
        f"C_fit={fit.C_fit:.4f}, c_fit={fit.c_fit:.4f}, sandwich={sandwich_ok}, "
        f"stable={stable_ok}, horizon guard={reject_ok}",
    )


def test_criterion_11_analytic_exactness():
    tau = 1e-3
    spec = make_spec(n=128, f0="1+0.1*cos(2*pi*x1)", t_final=tau)
    c = build_coefficients(spec)
    x = c.grid.coords1d()
    exact = 1 + 0.1 * np.exp(-4 * np.pi**2 * tau) * np.cos(2 * np.pi * x)

    fv = simulate(spec, FVConfig(dt_safety=128 * 1e-5, diag_every=100))  # dt = 1e-5
    fv_err = np.max(np.abs(fv.trajectory.frames[-1].values - exact))

    p = build_propagator(c, c.grid, 0.0, tau, 10)  # dt = 1e-4
    pic_err = np.max(np.abs(apply_propagator(p, sample_f0(spec)).values - exact))

    const_spec = make_spec(n=128, f0="2", t_final=0.05)
    fv_const = simulate(const_spec, FVConfig(diag_every=1))
    fv_const_drift = max(max(abs(r.min_f - 2.0), abs(r.max_f - 2.0)) for r in fv_const.rows)
    cc = build_coefficients(const_spec)
    f0c = sample_f0(const_spec)
    space = picard_space(f0c, cc)
    ctraj, _ = fixed_point_solve(f0c, cc, space, tol=1e-12)
    pic_const_drift = max(np.max(np.abs(fr.values - 2.0)) for fr in ctraj.frames)

    ok = (
        fv_err <= 1e-4
        and pic_err <= 1e-4
        and fv_const_drift <= 1e-8
        and pic_const_drift <= 1e-8
    )
    report(
        11,
        "analytic-exactness",
        ok,
        f"fv decay err={fv_err:.2e}, picard decay err={pic_err:.2e}, "
        f"const drift fv={fv_const_drift:.2e} picard={pic_const_drift:.2e}",
    )


def test_criterion_12_parser():
    from torusfp import expressions as ex
    from torusfp.errors import ExprArityError, ExprNameError, ExprSyntaxError
    from test_expressions import CORPUS

    roundtrip = all(ex.parse_expr(ex.to_source(ex.parse_expr(s))) == ex.parse_expr(s) for s in CORPUS)

    def val(s):
        return ex.eval_expr(ex.parse_expr(s), [0.0], 0.0)

    precedence = (
        val("2+3*4") == 14
        and val("2^3^2") == 512
        and val("-2^2") == -4
        and val("2-3-4") == -5
        and val("12/4/3") == 1
        and val("1 + 0.5*cos(2*pi*0.0)") == 1.5
    )

    offsets_ok = True
    for src, exc, offset in (
        ("foo(x1)", ExprNameError, 0),
        ("1 + bar", ExprNameError, 4),
        ("2+", ExprSyntaxError, 2),
        ("(1+2", ExprSyntaxError, 4),
        ("sin(x1, t)", ExprArityError, 6),
    ):
        try:
            ex.parse_expr(src)
            offsets_ok = False
        except exc as err:
            offsets_ok = offsets_ok and err.offset == offset
        except Exception:
            offsets_ok = False

    ok = len(CORPUS) == 50 and roundtrip and precedence and offsets_ok
    report(
        12,
        "parser",
        ok,
        f"corpus=50 roundtrip={roundtrip}, precedence={precedence}, offsets={offsets_ok}",
    )
