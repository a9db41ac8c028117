import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from torusfp.cli import main
from torusfp.coeff import Tolerances
from torusfp.config import KernelOptions, PicardOptions, load_config
from torusfp.fvsolver import FVConfig
from torusfp.grid import load_field_csv

HEAT = """\
[grid]
dim = 1
n = 64

[coefficients]
D = 1
pi = 1
phi = 0

[initial]
f0 = 1

[run]
t_final = 0.05
seed = 42
"""

COSINE = """\
[grid]
dim = 1
n = 64

[coefficients]
D = 1
pi = 1
phi = cos(2*pi*x1)

[initial]
f0 = 1

[run]
t_final = 0.1
diag_every = 3
seed = 9
"""

BAD_PI = COSINE.replace("pi = 1", "pi = cos(2*pi*x1)")

VARIABLE_D = """\
[grid]
dim = 1
n = 64

[coefficients]
D = 2+cos(2*pi*x1)
pi = 1
phi = 0

[initial]
f0 = 1+0.25*cos(2*pi*x1)

[run]
t_final = 0.001
seed = 5
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def read_csv_rows(path):
    rows = []
    header = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(dict(zip(header, line.split(","))))
    return header, rows


def test_picard_iterations_csv_is_the_report_history(tmp_path, monkeypatch):
    import torusfp.cli as cli

    reports = []
    solve = cli.fixed_point_solve

    def recording(*args, **kwargs):
        traj, report = solve(*args, **kwargs)
        reports.append(report)
        return traj, report

    monkeypatch.setattr(cli, "fixed_point_solve", recording)
    cfg = Path(__file__).parents[1] / "configs" / "variable-temperature.ini"
    out = tmp_path / "out"
    assert main(["picard", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    (report,) = reports
    assert report.iterations == len(report.history) >= 2  # V != 0: no implied row
    lines = (out / "picard_iterations.csv").read_text().splitlines()
    assert lines[1] == "iteration,residual,ratio,min_f,max_f"
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[2:]]
    assert np.array_equal(rows, report.history, equal_nan=True)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["iterations"] == report.iterations
    assert manifest["final_residual"] == report.history[-1][1]


def test_simulate_success(tmp_path, capsys):
    cfg = write(tmp_path, "heat.ini", HEAT)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv_rows(out / "diagnostics.csv")
    assert header == [
        "t",
        "mass",
        "free_energy",
        "dissipation_rate",
        "dF_dt_numeric",
        "min_f",
        "max_f",
        "linf_to_feq",
    ]
    assert len(rows) >= 2
    # config echo and manifest exist; seed appears in every CSV header
    assert (out / "config.echo.ini").read_text() == HEAT
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 42
    first = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert "seed=42" in first


def test_simulate_assumption_failure_names_a4(tmp_path, capsys):
    cfg = write(tmp_path, "bad.ini", BAD_PI)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "A4" in err
    assert "code=2" in err


@pytest.mark.parametrize("command", ["simulate", "bounds", "picard", "global"])
def test_nonpositive_f0_fails_a3_with_default_mu(tmp_path, capsys, command):
    # the default mu = min(f0)/4 is negative here, so A3 must fail on 0 < 4*mu
    cfg = write(tmp_path, "neg.ini", COSINE.replace("f0 = 1", "f0 = 0.5 + cos(2*pi*x1)"))
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "code=2" in err and "A3" in err


def test_root_tolerance_reaches_simulate(tmp_path):
    # simulate's t = 0 distance to f_eq uses the same equilibrium as the
    # equilibrium command, solved to the configured [tolerances] root
    from torusfp.coeff import sample_initial_data

    text = VARIABLE_D.replace("phi = 0", "phi = sin(2*pi*x1)") + "\n[tolerances]\nroot = 1e-3\n"
    cfg = write(tmp_path, "vard.ini", text)
    assert main(["equilibrium", "--config", str(cfg), "--out", str(tmp_path / "eq"), "--quiet"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"), "--quiet"]) == 0
    f0 = sample_initial_data(load_config(cfg).problem)
    feq = load_field_csv(tmp_path / "eq" / "f_eq.csv")
    _, rows = read_csv_rows(tmp_path / "sim" / "diagnostics.csv")
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[0]["linf_to_feq"]) == float(np.max(np.abs(f0.values - feq.values)))


def test_missing_config_exits_one(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.ini")])
    assert code == 1
    assert "code=1" in capsys.readouterr().err


def test_equilibrium_summary_row(tmp_path, capsys):
    cfg = write(tmp_path, "heat.ini", HEAT)
    out = tmp_path / "out"
    assert main(["equilibrium", "--config", str(cfg), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2] == "C_eq,mass,min_feq,max_feq,free_energy"
    assert lines[-1] == "0,1,1,1,-1"
    feq = load_field_csv(out / "f_eq.csv")
    assert np.all(feq.values == 1.0)


def test_bounds_prints_time_bound_exactly(tmp_path, capsys):
    cfg = write(tmp_path, "heat.ini", HEAT.replace("seed = 42", "seed = 1\nmu = 1"))
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[-2].split(",")
    values = lines[-1].split(",")
    row = dict(zip(header, values))
    assert row["T"] == "0.25"  # printed exactly
    # T is recomputable from the printed constants
    from torusfp.picard import time_bound

    recomputed = time_bound(
        float(row["mu"]),
        (float(row["R"]) - 1 - float(row["mu"])) / 2,
        float(row["C_gauss"]),
        float(row["V_norm"]),
        float(row["W_inf"]),
        float(row["W_sup"]),
    )
    assert recomputed == float(row["T"])


def test_picard_command_outputs(tmp_path):
    cfg = write(tmp_path, "vard.ini", VARIABLE_D)
    out = tmp_path / "out"
    assert main(["picard", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    header, rows = read_csv_rows(out / "picard_iterations.csv")
    assert header == ["iteration", "residual", "ratio", "min_f", "max_f"]
    assert len(rows) >= 1
    assert (out / "picard_frame_0000.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["in_Y_every_iterate"] is True


def test_global_command_outputs(tmp_path):
    cfg = write(tmp_path, "cos.ini", COSINE)
    out = tmp_path / "out"
    assert main(["global", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    header, rows = read_csv_rows(out / "global_plan.csv")
    assert header == ["m", "M", "R_prime", "gamma", "T_prime", "num_windows"]
    assert int(float(rows[0]["num_windows"])) >= 1
    assert (out / "seam_000000.csv").exists()


def test_global_writes_one_report_row_per_window(tmp_path, monkeypatch):
    # one source block, all nt lattice intervals at once, per Picard
    # iteration (the calls cover both runs)
    import torusfp.picard as picard

    calls = []
    source = picard._nonlinear_source
    monkeypatch.setattr(
        picard, "_nonlinear_source", lambda *args: calls.append(1) or source(*args)
    )
    cfg = write(tmp_path, "vard.ini", SMALL_VARIABLE_D)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["global", "--config", str(cfg), "--out", str(out), "--quiet", "--windows", "4"]) == 0
    header, rows = read_csv_rows(outs[0] / "windows.csv")
    assert header == ["window", "iterations", "empirical_contraction", "lower_margin", "upper_margin"]
    assert [int(r["window"]) for r in rows] == [0, 1, 2, 3]
    iterations = [int(r["iterations"]) for r in rows]
    assert 2 * sum(iterations) == len(calls)
    assert all(float(r["lower_margin"]) >= 0 and float(r["upper_margin"]) >= 0 for r in rows)
    assert (outs[0] / "windows.csv").read_bytes() == (outs[1] / "windows.csv").read_bytes()


def test_picard_flag_overrides(tmp_path):
    cfg = write(tmp_path, "vard.ini", VARIABLE_D)
    out = tmp_path / "out"
    code = main(
        ["picard", "--config", str(cfg), "--out", str(out), "--quiet",
         "--tol", "1e-6", "--max-iter", "7"]
    )
    assert code == 0
    _, rows = read_csv_rows(out / "picard_iterations.csv")
    assert len(rows) <= 7
    assert float(rows[-1]["residual"]) <= 1e-6


def test_global_windows_flag_override(tmp_path):
    cfg = write(tmp_path, "cos.ini", COSINE)
    out = tmp_path / "out"
    assert main(
        ["global", "--config", str(cfg), "--out", str(out), "--quiet", "--windows", "5"]
    ) == 0
    _, rows = read_csv_rows(out / "global_plan.csv")
    assert int(float(rows[0]["num_windows"])) == 5


def test_global_prints_the_marched_window_length(tmp_path, capsys):
    # with --windows each window is t_final / N long, not T' long
    cfg = write(tmp_path, "cos.ini", COSINE)
    out = tmp_path / "out"
    assert main(["global", "--config", str(cfg), "--out", str(out), "--windows", "4"]) == 0
    printed = capsys.readouterr().out
    assert "global: 4 windows of length 0.025 (T'=" in printed


def test_picard_takes_no_windows_flag(tmp_path):
    cfg = write(tmp_path, "vard.ini", VARIABLE_D)
    out = tmp_path / "out"
    assert main(["picard", "--config", str(cfg), "--out", str(out), "--windows", "5"]) == 1
    assert not out.exists()


SMALL_VARIABLE_D = VARIABLE_D.replace("n = 64", "n = 32")


@pytest.mark.parametrize(
    "command, extra, flags, key",
    [
        ("global", "[picard]\nwindows = -3\n", [], "[picard] windows"),
        ("global", "", ["--windows", "-3"], "[picard] windows"),
        ("picard", "[picard]\nnt = 0\n", [], "[picard] nt"),
        ("global", "[picard]\nnt_per_window = 0\n", [], "[picard] nt_per_window"),
        ("global", "[picard]\nsafety = 0\n", [], "[picard] safety"),
        ("simulate", "diag_every = 0\n", [], "[run] diag_every"),
        ("kernel-validate", "[kernel]\nladder_stride = 0\n", [], "[kernel] ladder_stride"),
        ("picard", "[picard]\nmax_iter = 0\n", [], "[picard] max_iter"),
        ("kernel-validate", "[kernel]\nsubsteps = 10\n", [], "[kernel] ladder_stride"),
        ("simulate", "t_final = -1\n", [], "[run] t_final"),
        ("simulate", "mu = -0.1\n", [], "[run] mu"),
        ("simulate", "mu = 0.3\nlambda = 1.0\n", [], "[run] lambda"),
        ("simulate", "beta = 1.5\n", [], "[run] beta"),
        ("simulate", "snapshot_stride = -1\n", [], "[run] snapshot_stride"),
        ("equilibrium", "[grid]\ndim = 1\nn = 4\n", [], "[grid] n"),
        ("equilibrium", "[grid]\ndim = 3\nn = 32\n", [], "[grid] dim"),
    ],
    ids=["windows", "windows-flag", "nt", "nt_per_window", "safety", "diag_every",
         "ladder_stride", "max_iter", "ladder_stride-above-substeps", "t_final", "mu",
         "lambda", "beta", "snapshot_stride", "grid-n", "grid-dim"],
)
def test_out_of_range_option_exits_one(tmp_path, capsys, command, extra, flags, key):
    # SMALL_VARIABLE_D ends in its [run] section, so a bare key extends it;
    # its own t_final is dropped where the case sets one, and its [grid]
    # section is replaced by the case's
    base = SMALL_VARIABLE_D
    if extra.startswith("t_final"):
        base = base.replace("t_final = 0.001\n", "")
    if extra.startswith("[grid]"):
        base, extra = extra + base[base.index("\n[coefficients]"):], ""
    cfg = write(tmp_path, "bad.ini", base + extra)
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out), "--quiet", *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert "code=1" in err and key in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, expr", [("D", "1/x1"), ("f0", "log(x1)")])
def test_undefined_coefficient_exits_one(tmp_path, capsys, key, expr):
    text = re.sub(rf"^{key} = .*$", f"{key} = {expr}", SMALL_VARIABLE_D, flags=re.M)
    cfg = write(tmp_path, "undefined.ini", text)
    code = main(["equilibrium", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 1
    assert "code=1" in err and f"{key} is undefined" in err
    assert "Traceback" not in err


def test_oversized_kernel_validate_exits_one(tmp_path, capsys, monkeypatch):
    import torusfp.kernel as kernel

    monkeypatch.setattr(kernel, "_physical_memory", lambda: 2**16)
    cfg = write(tmp_path, "heat.ini", HEAT)
    code = main(["kernel-validate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 1
    assert "code=1" in err and "GiB" in err and "physical memory" in err


def test_oversized_kernel_validate_is_refused_before_any_propagator(tmp_path, capsys, monkeypatch):
    import torusfp.cli as cli
    import torusfp.kernel as kernel

    monkeypatch.setattr(kernel, "_physical_memory", lambda: 2**16)
    monkeypatch.setattr(
        cli, "build_propagator", lambda *a, **k: pytest.fail("a propagator was built")
    )
    cfg = write(tmp_path, "heat.ini", HEAT)
    code = main(["kernel-validate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 1
    assert "the integral-bound validation needs about" in err and "GiB" in err


def test_global_refusal_names_the_window_flag(tmp_path, capsys):
    cfg = Path(__file__).parents[1] / "configs" / "variable-temperature.ini"
    code = main(["global", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 3
    assert "--windows" in err and "[picard] windows" in err


def test_simulate_records_the_step_it_takes(tmp_path, capsys):
    # the stable step (0.0140625) is longer than t_final, so the one step
    # taken is t_final long; that step is what stdout and the manifest say
    cfg = Path(__file__).parents[1] / "configs" / "variable-temperature.ini"
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert "1 steps, dt=0.001," in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["steps"], manifest["dt"]) == (1, 0.001)


def test_kernel_validate_heat_all_pass(tmp_path):
    cfg = write(tmp_path, "heat.ini", HEAT + "\n[kernel]\nsubsteps = 300\nladder_stride = 20\n")
    out = tmp_path / "out"
    assert main(["kernel-validate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    text = (out / "kernel_report.csv").read_text()
    assert "fail" not in text
    assert text.count("pass") == 4


def test_determinism_bitwise(tmp_path):
    cfg = write(tmp_path, "cos.ini", COSINE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()
    assert (out1 / "final_state.csv").read_bytes() == (out2 / "final_state.csv").read_bytes()


def test_seed_override_recorded(tmp_path):
    cfg = write(tmp_path, "heat.ini", HEAT)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "777", "--quiet"]) == 0
    assert "seed=777" in (out / "diagnostics.csv").read_text().splitlines()[0]


def test_sweep_runs_all_configs(tmp_path):
    a = write(tmp_path, "a.ini", HEAT)
    b = write(tmp_path, "b.ini", COSINE)
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "--configs", str(a), str(b), "--out", str(out), "--jobs", "2", "--quiet"]
    )
    assert code == 0
    assert (out / "a" / "diagnostics.csv").exists()
    assert (out / "b" / "diagnostics.csv").exists()


def test_sweep_propagates_worst_exit_code(tmp_path):
    a = write(tmp_path, "a.ini", HEAT)
    b = write(tmp_path, "bad.ini", BAD_PI)
    code = main(
        ["sweep", "--configs", str(a), str(b), "--out", str(tmp_path / "s"), "--jobs", "1", "--quiet"]
    )
    assert code == 2


def test_sweep_clamps_jobs(tmp_path, monkeypatch):
    seen = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [(task[0], 0) for task in tasks]

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    configs = [str(tmp_path / f"c{i}.ini") for i in range(3)]
    sweep = ["sweep", "--out", str(tmp_path / "s"), "--quiet", "--configs"]
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert main([*sweep, *configs, "--jobs", "8"]) == 0
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    assert main([*sweep, *configs, "--jobs", "8"]) == 0
    assert main([*sweep, *configs[:2], "--jobs", "8"]) == 0
    assert seen == [2, 3, 2]


def test_sweep_refuses_configs_sharing_a_stem(tmp_path, capsys, monkeypatch):
    def no_start(*args, **kwargs):
        raise AssertionError("a run or worker started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_start)
    monkeypatch.setattr("torusfp.cli._run_one", no_start)
    a = write(tmp_path, "heat.ini", HEAT)
    (tmp_path / "other").mkdir()
    b = write(tmp_path / "other", "heat.ini", HEAT)
    code = main(["sweep", "--configs", str(a), str(b), "--out", str(tmp_path / "s"), "--jobs", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert str(a) in err and str(b) in err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("offset", ["800", "-800"])
def test_equilibrium_with_a_large_potential_offset(tmp_path, offset):
    cfg = write(tmp_path, "offset.ini", COSINE.replace("phi = cos", f"phi = {offset} + cos"))
    assert main(["equilibrium", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0


def test_sweep_rejects_nonpositive_jobs(tmp_path, capsys):
    a = write(tmp_path, "a.ini", HEAT)
    code = main(["sweep", "--configs", str(a), "--out", str(tmp_path / "s"), "--jobs", "0", "--quiet"])
    assert code == 1
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "text, bad, hint",
    [
        (HEAT.replace("t_final", "t_fianl"), "'t_fianl'", "'t_final'"),
        (HEAT.replace("[run]", "[rn]"), "[rn]", "'run'"),
        (HEAT + "\n[rn]\nstepper = explicit\n", "[rn]", "'run'"),
        ("[DEFAULT]\nseed = 3\n" + HEAT, "[DEFAULT]", None),
        (HEAT + "\n[tolerances]\nquadrature = 1e-12\n", "'quadrature' in [tolerances]", None),
    ],
    ids=["key", "section-instead", "section-extra", "default-section", "removed-key"],
)
def test_config_typo_is_rejected(tmp_path, capsys, text, bad, hint):
    cfg = write(tmp_path, "typo.ini", text)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert "code=1" in err and bad in err
    assert (f"did you mean {hint}" in err) if hint else ("did you mean" not in err)


def test_config_bad_interpolation_exits_one(tmp_path, capsys):
    cfg = write(tmp_path, "pct.ini", HEAT.replace("t_final = 0.05", "t_final = 5%"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "malformed config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parents[1] / "configs").glob("*.ini")), ids=lambda p: p.name
)
def test_shipped_configs_load(path):
    assert load_config(path).source_path == path


def test_readme_config_block_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    run = load_config(write(tmp_path, "readme.ini", block))
    assert run.problem.n_per_axis == 128
    assert run.kernel.integral_substeps == 64
    # the block lists every option at its default
    assert run.picard == PicardOptions()
    assert run.kernel == KernelOptions()
    assert run.fv == FVConfig()
    assert run.problem.tolerances == Tolerances()


def test_every_option_field_is_read_from_its_key(tmp_path):
    def ini(value):
        return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)

    # HEAT ends in its [run] section, so the FVConfig keys extend it
    text = HEAT
    for section, cls in (("run", FVConfig), ("picard", PicardOptions),
                         ("kernel", KernelOptions), ("tolerances", Tolerances)):
        if section != "run":
            text += f"\n[{section}]\n"
        text += "".join(f"{f.name} = {ini(f.default)}\n" for f in fields(cls))
    run = load_config(write(tmp_path, "all.ini", text))
    assert run.fv == FVConfig()
    assert run.picard == PicardOptions()
    assert run.kernel == KernelOptions()
    assert run.problem.tolerances == Tolerances()


def test_usage_error_without_subcommand():
    assert main([]) == 1


TWO_D = """\
[grid]
dim = 2
n = 10

[coefficients]
D = 1
pi = 1
phi = 0.2*cos(2*pi*x1)*cos(2*pi*x2)

[initial]
f0 = 1

[run]
t_final = 0.02
diag_every = 2
seed = 4
"""


def test_simulate_2d(tmp_path):
    cfg = write(tmp_path, "twod.ini", TWO_D)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    _, rows = read_csv_rows(out / "diagnostics.csv")
    assert len(rows) >= 2
    final = load_field_csv(out / "final_state.csv")
    assert final.grid.dim == 2 and final.grid.n_per_axis == 10


def test_snapshot_stride(tmp_path):
    cfg = write(tmp_path, "cos.ini", COSINE + "snapshot_stride = 2\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    snaps = sorted(out.glob("snapshot_*.csv"))
    assert snaps
    loaded = load_field_csv(snaps[0])
    assert loaded.grid.n_per_axis == 64
