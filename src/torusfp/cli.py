"""Command-line front end.

Subcommands: simulate | equilibrium | bounds | picard | global |
kernel-validate | sweep.  Global flags: --config PATH, --out DIR, --seed N,
--quiet.  Exit codes: 0 ok, 1 usage/IO, 2 assumption failure, 3 numerical
failure.  Every output directory receives a verbatim copy of the config and
a manifest; every CSV starts with a seed-bearing comment line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import __version__
from .coeff import build_coefficients, sample_initial_data, validate_assumptions
from .config import RunConfig, load_config
from .equilibrium import apriori_bounds, equilibrium_state, free_energy
from .errors import AssumptionError, NumericsError, TorusFPError, UsageError
from .fvsolver import DiagnosticsRow, simulate
from .grid import Field, integrate, save_field_csv, sup_norm
from .kernel import (
    _require_unit_horizon,
    build_propagator,
    fit_duhamel_constant,  # unused here, but perfbench/tracing.py patches cli.fit_duhamel_constant
    validate_gaussian_bounds,
    validate_integral_bounds,
    validate_mass_sandwich,
)
from .picard import fixed_point_solve, global_solve, picard_space, time_bound_primed

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_ASSUMPTIONS = 2
_EXIT_NUMERICS = 3


def _fmt(x) -> str:
    return f"{float(x):.17g}"


class _Out:
    """Output directory helper: config echo, manifest, headered CSVs."""

    def __init__(self, run: RunConfig, out_dir: Path, quiet: bool):
        self.run = run
        self.dir = out_dir
        self.quiet = quiet
        self.t_start = time.monotonic()
        self.dir.mkdir(parents=True, exist_ok=True)
        echo = self.dir / "config.echo.ini"
        echo.write_text(run.source_text)

    def header(self) -> str:
        g = self.run.problem
        return f"torusfp v{__version__} seed={self.run.seed} grid=d{g.dim}:n{g.n_per_axis}"

    def csv(self, name: str, columns: str, rows) -> Path:
        path = self.dir / name
        with open(path, "w") as fh:
            fh.write(f"# {self.header()}\n")
            fh.write(columns + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        return path

    def field(self, name: str, f: Field) -> Path:
        path = self.dir / name
        save_field_csv(f, path, header_comment=self.header())
        return path

    def manifest(self, extra: dict | None = None):
        g = self.run.problem
        data = {
            "tool": "torusfp",
            "version": __version__,
            "seed": self.run.seed,
            "grid": {"dim": g.dim, "n_per_axis": g.n_per_axis},
            "wall_time_s": round(time.monotonic() - self.t_start, 3),
        }
        if extra:
            data.update(extra)
        (self.dir / "manifest.json").write_text(json.dumps(data, indent=2) + "\n")

    def say(self, line: str):
        if not self.quiet:
            print(line)


def cmd_simulate(run: RunConfig, out: _Out) -> int:
    res = simulate(run.problem, run.fv)
    out.csv(
        "diagnostics.csv",
        ",".join(f.name for f in fields(DiagnosticsRow)),
        [astuple(r) for r in res.rows],
    )
    if run.snapshot_stride > 0:
        for i, (t, frame) in enumerate(zip(res.trajectory.times, res.trajectory.frames)):
            if i % run.snapshot_stride == 0:
                out.field(f"snapshot_{i:06d}.csv", frame)
    out.field("final_state.csv", res.trajectory.frames[-1])
    out.manifest({"steps": res.n_steps, "dt": res.dt, "warnings": res.warnings})
    out.say(f"simulate: {res.n_steps} steps, dt={res.dt:.6g}, diagnostics rows={len(res.rows)}")
    for w in res.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return _EXIT_OK


def cmd_equilibrium(run: RunConfig, out: _Out) -> int:
    c = build_coefficients(run.problem)
    f0 = sample_initial_data(run.problem)
    eq = equilibrium_state(c, integrate(f0))
    row = (
        eq.C_eq,
        eq.mass,
        float(np.min(eq.f_eq.values)),
        float(np.max(eq.f_eq.values)),
        free_energy(eq.f_eq, c),
    )
    out.csv("equilibrium.csv", "C_eq,mass,min_feq,max_feq,free_energy", [row])
    out.field("f_eq.csv", eq.f_eq)
    out.manifest()
    out.say("C_eq,mass,min_feq,max_feq,free_energy")
    out.say(",".join(_fmt(v) for v in row))
    return _EXIT_OK


def cmd_bounds(run: RunConfig, out: _Out) -> int:
    # diagnostic command: prints the constants of the existence construction;
    # mu and lambda may be exploratory, so of the initial-data assumption A3
    # it requires only f0 > 0, which the a priori bounds need
    c = build_coefficients(run.problem)
    f0 = sample_initial_data(run.problem)
    fmin = float(np.min(f0.values))
    if fmin <= 0:
        raise AssumptionError(f"assumption(s) A3 fail: min f0 = {fmin:.12g} (need f0 > 0)")
    space = picard_space(f0, c, safety=1.0)
    bnd = apriori_bounds(f0, equilibrium_state(c, integrate(f0)), c)
    t_prime, r_prime, gamma = time_bound_primed(
        space.mu, bnd.m, bnd.M, sup_norm(f0), space.C_gauss, space.V_norm, c.W_inf, c.W_sup
    )
    cols = "mu,lambda,C_gauss,V_norm,W_inf,W_sup,m,M,R,R_prime,gamma,T,T_prime"
    row = (
        space.mu, space.Lambda, space.C_gauss, space.V_norm, c.W_inf, c.W_sup,
        bnd.m, bnd.M, space.R, r_prime, gamma, space.T, t_prime,
    )
    out.csv("bounds.csv", cols, [row])
    out.manifest()
    out.say(cols)
    out.say(",".join(_fmt(v) for v in row))
    return _EXIT_OK


def cmd_picard(run: RunConfig, out: _Out) -> int:
    c = build_coefficients(run.problem)
    f0 = sample_initial_data(run.problem)
    validate_assumptions(c, f0, run.problem).require()
    space = picard_space(f0, c, safety=run.picard.safety)
    traj, report = fixed_point_solve(
        f0, c, space, tol=run.picard.tol, max_iter=run.picard.max_iter, nt=run.picard.nt
    )
    out.csv("picard_iterations.csv", "iteration,residual,ratio,min_f,max_f", report.history)
    for i, frame in enumerate(traj.frames):
        if i % run.picard.snapshot_stride == 0 or i == len(traj.frames) - 1:
            out.field(f"picard_frame_{i:04d}.csv", frame)
    out.manifest(
        {
            "T": space.T,
            "iterations": report.iterations,
            "final_residual": report.final_residual,
            "empirical_contraction": report.empirical_contraction,
            "in_Y_every_iterate": report.in_Y_every_iterate,
        }
    )
    out.say(
        f"picard: T={space.T:.6g}, iterations={report.iterations}, "
        f"residual={report.final_residual:.3g}, "
        f"contraction={report.empirical_contraction:.3g}"
    )
    return _EXIT_OK


def cmd_global(run: RunConfig, out: _Out) -> int:
    c = build_coefficients(run.problem)
    f0 = sample_initial_data(run.problem)
    traj, plan = global_solve(
        f0,
        c,
        run.problem.T_final,
        tol=run.picard.tol,
        max_iter=run.picard.max_iter,
        nt_per_window=run.picard.nt_per_window,
        envelope_tol=run.picard.envelope_tol,
        num_windows_override=run.picard.windows or None,
        safety=run.picard.safety,
    )
    out.csv(
        "global_plan.csv",
        "m,M,R_prime,gamma,T_prime,num_windows",
        [(plan.m, plan.M, plan.R_prime, plan.gamma, plan.T_prime, plan.num_windows)],
    )
    out.csv(
        "windows.csv",
        "window,iterations,empirical_contraction,lower_margin,upper_margin",
        [astuple(w) for w in plan.window_reports],
    )
    stride = max(1, math.ceil(len(traj.frames) / 200))
    for i, frame in enumerate(traj.frames):
        if i % stride == 0 or i == len(traj.frames) - 1:
            out.field(f"seam_{i:06d}.csv", frame)
    out.manifest({"num_windows": plan.num_windows, "T_prime": plan.T_prime})
    out.say(
        f"global: {plan.num_windows} windows of length {plan.window:.6g} "
        f"(T'={plan.T_prime:.6g}), "
        f"terminal range [{np.min(traj.frames[-1].values):.6g}, "
        f"{np.max(traj.frames[-1].values):.6g}]"
    )
    return _EXIT_OK


def cmd_kernel_validate(run: RunConfig, out: _Out) -> int:
    c = build_coefficients(run.problem)
    grid = c.grid
    ko = run.kernel
    rows = []
    # first, so that an oversized request is refused before any other work
    ib = validate_integral_bounds(c, grid, ko.integral_times, substeps=ko.integral_substeps)

    p = build_propagator(c, grid, 0.0, ko.horizon, ko.substeps, ladder_stride=ko.ladder_stride)
    fit = validate_gaussian_bounds(p, (0, 0), rel_floor=ko.rel_floor)
    ok = np.isfinite(fit.C_fit) and fit.c_fit > 0 and fit.max_residual <= 1e-12
    rows.append(("gaussian_fit_00", f"C={_fmt(fit.C_fit)};c={_fmt(fit.c_fit)}", fit.max_residual, ok))

    sandwich = validate_mass_sandwich(
        build_propagator(c, grid, 0.0, ko.sandwich_horizon, ko.sandwich_substeps), c
    )
    rows.append(
        (
            "mass_sandwich",
            f"rows=[{_fmt(sandwich.row_min)},{_fmt(sandwich.row_max)}];"
            f"bounds=[{_fmt(sandwich.lower)},{_fmt(sandwich.upper)}]",
            sandwich.slack,
            sandwich.passed,
        )
    )

    rows.append(
        (
            "integral_bounds",
            f"C1={_fmt(ib.C1)};C2={_fmt(ib.C2)};C3={_fmt(ib.C3)};"
            f"C1r={_fmt(ib.C1_refined)};C2r={_fmt(ib.C2_refined)};C3r={_fmt(ib.C3_refined)}",
            0.0,
            ib.stable,
        )
    )

    try:
        _require_unit_horizon(1.5)  # validate_gaussian_bounds' first check; builds nothing
        guard_ok = False
    except UsageError:
        guard_ok = True
    rows.append(("unit_horizon_guard", "t-s>1 rejected", 0.0, guard_ok))

    path = out.dir / "kernel_report.csv"
    with open(path, "w") as fh:
        fh.write(f"# {out.header()}\n")
        fh.write("check,constants,residual,result\n")
        for name, consts, resid, ok in rows:
            fh.write(f"{name},\"{consts}\",{_fmt(resid)},{'pass' if ok else 'fail'}\n")
    out.manifest()
    all_ok = all(ok for _, _, _, ok in rows)
    for name, consts, _, ok in rows:
        out.say(f"{name}: {'pass' if ok else 'fail'} ({consts})")
    if not all_ok:
        raise NumericsError("kernel validation reported failures; see kernel_report.csv")
    return _EXIT_OK


def _run_one(args_tuple) -> tuple[str, int]:
    config_path, out_dir, seed, quiet = args_tuple
    code = _dispatch("simulate", Path(config_path), Path(out_dir), seed, quiet)
    return str(config_path), code


def cmd_sweep(config_paths: list[Path], out_root: Path, seed: int | None, quiet: bool, jobs: int) -> int:
    from concurrent.futures import ProcessPoolExecutor

    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")
    # each config writes to out_root / its stem; refuse a shared stem before
    # any run starts, since one run would overwrite (or race) the other
    sources: dict[Path, Path] = {}
    for cp in config_paths:
        out_dir = out_root / cp.stem
        if out_dir in sources:
            raise UsageError(f"sweep configs {sources[out_dir]} and {cp} would both write {out_dir}")
        sources[out_dir] = cp
    jobs = min(jobs, len(config_paths), os.cpu_count() or 1)
    tasks = [(str(cp), str(out_dir), seed, True) for out_dir, cp in sources.items()]
    worst = _EXIT_OK
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_one, tasks))
    else:
        results = [_run_one(t) for t in tasks]
    for name, code in results:
        if not quiet:
            print(f"sweep: {name} -> exit {code}")
        worst = max(worst, code)
    return worst


def _dispatch(
    command: str,
    config_path: Path,
    out_dir: Path | None,
    seed: int | None,
    quiet: bool,
    picard_overrides: dict | None = None,
) -> int:
    from dataclasses import replace

    run = load_config(config_path)
    if seed is not None:
        run = replace(run, seed=seed)
    if picard_overrides:
        run = replace(run, picard=replace(run.picard, **picard_overrides))
    if out_dir is None:
        out_dir = Path(f"{config_path.stem}-out")
    out = _Out(run, out_dir, quiet)
    handlers = {
        "simulate": cmd_simulate,
        "equilibrium": cmd_equilibrium,
        "bounds": cmd_bounds,
        "picard": cmd_picard,
        "global": cmd_global,
        "kernel-validate": cmd_kernel_validate,
    }
    return handlers[command](run, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="torusfp",
        description="Simulation and verification toolkit for a nonlinear "
        "Fokker-Planck grain-growth model on the periodic torus",
    )
    parser.add_argument("--version", action="version", version=f"torusfp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, type=Path, help="problem config file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true")

    for name in ("simulate", "equilibrium", "bounds", "picard", "global", "kernel-validate"):
        p = sub.add_parser(name)
        add_common(p)
        if name in ("picard", "global"):
            p.add_argument("--tol", type=float, default=None, help="fixed-point tolerance")
            p.add_argument("--max-iter", type=int, default=None)
        if name == "global":
            p.add_argument("--windows", type=int, default=None, help="window count override")

    sw = sub.add_parser("sweep", help="run several simulate configs in parallel workers")
    sw.add_argument("--configs", required=True, nargs="+", type=Path)
    sw.add_argument("--out", type=Path, default=Path("sweep-out"))
    sw.add_argument("--seed", type=int, default=None)
    sw.add_argument("--quiet", action="store_true")
    sw.add_argument("--jobs", type=int, default=2)

    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage problems; keep exit-code contract
        return _EXIT_USAGE if err.code not in (0,) else 0

    try:
        if args.command == "sweep":
            return cmd_sweep(list(args.configs), args.out, args.seed, args.quiet, args.jobs)
        overrides = {
            key: value
            for key in ("tol", "max_iter", "windows")
            if (value := getattr(args, key, None)) is not None
        }
        return _dispatch(args.command, args.config, args.out, args.seed, args.quiet, overrides)
    except AssumptionError as err:
        print(f"torusfp: code=2 kind=assumptions message={err}", file=sys.stderr)
        return _EXIT_ASSUMPTIONS
    except NumericsError as err:
        print(f"torusfp: code=3 kind=numerics message={err}", file=sys.stderr)
        return _EXIT_NUMERICS
    except (UsageError, OSError) as err:
        print(f"torusfp: code=1 kind=usage message={err}", file=sys.stderr)
        return _EXIT_USAGE
    except TorusFPError as err:
        print(f"torusfp: code=3 kind=internal message={err}", file=sys.stderr)
        return _EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
