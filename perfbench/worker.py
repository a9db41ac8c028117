"""One benchmark repetition in a fresh process.

Usage: python3 perfbench/worker.py JOB_JSON

JOB_JSON holds ``argv`` (the torusfp command line), ``config`` (the
generated config path), ``probe`` (the speed probe of the workload, see
speed.py), ``trace`` (bool) and ``result`` (where to write this process's
measurements as JSON).  torusfp must be importable (the parent puts ``src``
on PYTHONPATH); import time is not measured.

An untraced repetition runs the workload's speed probe while the command
runs and reports ``solve_s`` and ``setup_s`` rescaled to the probe's
reference speed, next to the raw wall times.  A traced one runs no probes, so that the layer times
hold no probe time, and reports the raw wall time only.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

MIN_SOLVE_PROBES = 20


def time_setup(command: str, config_path: str) -> float:
    """Wall seconds of the public set-up calls ``command`` makes before its
    march, with the arguments it passes.

    ``simulate`` and ``global`` load the config, build the coefficients,
    sample f0, validate the assumptions and compute the equilibrium and the
    a priori bounds; ``global`` also fits the Duhamel constant when V is
    nonzero.  ``kernel-validate`` only loads the config and builds the
    coefficients.
    """
    from torusfp import coeff, config, equilibrium, grid, kernel

    t0 = perf_counter()
    run = config.load_config(config_path)
    c = coeff.build_coefficients(run.problem)
    if command == "kernel-validate":
        return perf_counter() - t0
    f0 = coeff.sample_initial_data(run.problem)
    report = coeff.validate_assumptions(c, f0, run.problem)
    eq = equilibrium.equilibrium_state(c, grid.integrate(f0))
    equilibrium.apriori_bounds(f0, eq, c)
    if command == "global" and c.v_sup_norm() > 0:
        kernel.fit_duhamel_constant(c, c.grid)
    elapsed = perf_counter() - t0
    if not report.all_pass:
        raise RuntimeError(f"generated config fails {[ch.name for ch in report.failing()]}")
    return elapsed


def main(job: dict) -> dict:
    import numpy  # noqa: F401  (import cost stays outside the timed calls)
    import scipy.sparse.linalg  # noqa: F401
    from torusfp import cli

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import speed
    import tracing

    speed.warm_up()
    # one cold pass, before the command can warm anything; it warms the
    # command's own set-up in turn, by about a millisecond of its solve_s
    setup = time_setup(job["argv"][0], job["config"])
    result = {"setup_wall_s": setup}

    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        t0 = perf_counter()
        code = tracer.wrap(tracing.ROOT, cli.main)(job["argv"])
        result["wall_s"] = perf_counter() - t0
        tracer.uninstall()
        result["trace"] = tracer.summary()
    else:
        with speed.Sampler(job["probe"]) as sampler:
            t0 = perf_counter()
            code = cli.main(job["argv"])
            wall = perf_counter() - t0
        probes = sampler.durations
        if len(probes) < MIN_SOLVE_PROBES:
            raise RuntimeError(f"only {len(probes)} speed probes ran; the command is too short to rescale")
        # the set-up pass is too short to probe on its own; it ran just
        # before the command, so the command's probes give the host's speed
        reference = speed.PROBES[job["probe"]][2]
        result["wall_s"] = wall
        result["probe_s"] = sum(probes)
        result["probe_mean_s"] = sum(probes) / len(probes)
        result["solve_s"] = speed.rescale(wall - sum(probes), probes, reference)
        result["setup_s"] = speed.rescale(setup, probes, reference)
    result["exit_code"] = code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    Path(job["result"]).write_text(json.dumps(main(job)))
