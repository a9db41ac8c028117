"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest perfbench/tests -q
(about half a minute: one traced repetition of every workload).
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 2025])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generated_config_passes_assumptions(tmp_path, name, seed):
    from torusfp.coeff import build_coefficients, sample_initial_data, validate_assumptions
    from torusfp.config import load_config

    path = tmp_path / "input.ini"
    path.write_text(WORKLOADS[name].config(seed))
    spec = load_config(path).problem
    report = validate_assumptions(build_coefficients(spec), sample_initial_data(spec), spec)
    assert report.all_pass, report.rows()


def test_metric_names_and_units_match_the_benchmark_file():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert all(pattern.fullmatch(name) for name in declared)
    assert {**run.END_TO_END, **tracing.PER_LAYER} == declared
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_traced_repetition_passes_checks_and_self_times_add_up(tmp_path, name):
    wl = WORKLOADS[name]
    config = tmp_path / "input.ini"
    config.write_text(wl.config(seed=3))
    rep, csvs = run.run_rep(wl, config, tmp_path / "rep", 3, traced=True, baseline=None)
    assert rep.errors == []
    assert csvs
    layers = rep.result["trace"]["layers"]
    self_times = [layer["self_s"] for layer in layers.values()]
    assert min(self_times) >= -1e-9
    wall = layers[tracing.ROOT]["busy_s"]
    assert math.isclose(sum(self_times), wall, rel_tol=1e-9, abs_tol=1e-9)
    assert wall <= rep.result["wall_s"]
    metrics = tracing.layer_metrics(rep.result["trace"], wl.nt_per_window)
    assert set(metrics) == set(tracing.PER_LAYER) - {"trace.overhead_s"}
    largest = max(layers, key=lambda k: layers[k]["self_s"])
    assert largest == run.CHOSEN_LAYER[name]


def test_speed_sampler_probes_while_running_and_restores_the_handler():
    import signal
    from time import perf_counter

    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler("interpreter") as sampler:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.durations) >= 5
    mean = sum(sampler.durations) / len(sampler.durations)
    assert math.isclose(speed.rescale(2.0, sampler.durations, 2 * mean), 4.0)
