"""Outside-in tracing of torusfp for the traced benchmark run.

The tracer wraps the public functions that one torusfp module calls in
another by replacing the names the calling module looks up at run time
(module attributes), so no file under ``src/`` changes.  Spans are
aggregated in memory per layer and per (parent, layer) edge: call count,
busy time (inclusive) and self time (busy time minus the time covered by
child spans).  Raw spans are not kept, because the Picard workload makes
several hundred thousand of them.

Layer names follow the torusfp modules: ``coeff.pi_at`` is the mobility
sample of a ``CoefficientSet``, ``fvsolver.lu_factor`` is ``splu`` issued
from ``fvsolver``, ``kernel.advance`` is ``ImplicitStepper.advance``, and
so on.  ``cli`` is the root span around ``torusfp.cli.main``.
"""

from __future__ import annotations

import dataclasses
import functools
import tracemalloc
from collections import defaultdict
from time import perf_counter

ROOT = "cli"


class Tracer:
    """Span aggregator with a stack of open spans."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(int)
        self.extra = defaultdict(float)
        # each open span is [layer name, time covered by its children]
        self._stack = [["<outside>", 0.0]]
        self._patches = []

    def wrap(self, name, fn, post=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``post`` may inspect or replace the return value; it runs inside the
        span, so its cost is charged to ``name``.  The bookkeeping of each
        span falls into its parent's self time."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    result = post(result)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                parent[1] += dur
                self.calls[name] += 1
                self.busy[name] += dur
                self.self_time[name] += dur - frame[1]
                self.edges[(parent[0], name)] += 1
            return result

        return traced

    def patch(self, owner, attr, name, post=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, post))

    def replace(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict:
        return {
            "layers": {
                name: {
                    "calls": self.calls[name],
                    "busy_s": self.busy[name],
                    "self_s": self.self_time[name],
                }
                for name in sorted(self.calls)
            },
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
            "extra": dict(self.extra),
        }


class _TracedLinalg:
    """Stand-in for ``scipy.sparse.linalg`` inside one torusfp module:
    ``splu`` and the returned factor's ``solve`` are traced, every other
    attribute is the real one."""

    def __init__(self, tracer: Tracer, real, prefix: str):
        self._real = real
        self._solve_name = f"{prefix}.lu_solve"
        self._tracer = tracer
        self.splu = tracer.wrap(f"{prefix}.lu_factor", real.splu, post=self._wrap_factor)

    def _wrap_factor(self, lu):
        return _TracedFactor(lu, self._tracer.wrap(self._solve_name, lu.solve))

    def __getattr__(self, name):
        return getattr(self._real, name)


class _TracedFactor:
    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer: Tracer) -> None:
    """Patch the cross-module call sites of torusfp with traced wrappers."""
    import scipy.sparse.linalg as spla

    from torusfp import cli, coeff, fvsolver, kernel, picard

    def traced_coefficients(c):
        # every CoefficientSet handed to a command samples through spans
        return dataclasses.replace(
            c,
            pi_at=tracer.wrap("coeff.pi_at", c.pi_at),
            V_at=tracer.wrap("coeff.V_at", c.V_at),
        )

    def count_steps(res):
        tracer.extra["fvsolver.steps"] += res.n_steps
        return res

    def count_windows(out):
        tracer.extra["picard.windows"] += out[1].num_windows
        return out

    def ladder_bytes(p):
        held = float(sum(m.nbytes for _, m in p.ladder))
        tracer.extra["kernel.ladder_bytes"] = max(tracer.extra["kernel.ladder_bytes"], held)
        return p

    def with_tracemalloc(fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                key = "kernel.integral_bounds_peak_bytes"
                tracer.extra[key] = max(tracer.extra[key], float(peak))

        return measured

    tracer.patch(cli, "load_config", "config.load_config")
    # coeff's own attributes serve the function-local imports in
    # kernel.validate_integral_bounds and picard.global_solve
    for mod in (cli, fvsolver, coeff):
        tracer.patch(mod, "build_coefficients", "coeff.build_coefficients", post=traced_coefficients)
        tracer.patch(mod, "validate_assumptions", "coeff.validate_assumptions")
    for mod in (cli, fvsolver):
        tracer.patch(mod, "sample_initial_data", "coeff.sample_initial_data")
    for mod in (cli, fvsolver, picard):
        tracer.patch(mod, "equilibrium_state", "equilibrium.equilibrium_state")
        tracer.patch(mod, "apriori_bounds", "equilibrium.apriori_bounds")
    tracer.patch(fvsolver, "free_energy", "equilibrium.diagnostics")
    tracer.patch(fvsolver, "dissipation_rate", "equilibrium.diagnostics")
    tracer.patch(cli, "simulate", "fvsolver.simulate", post=count_steps)
    tracer.replace(fvsolver, "spla", _TracedLinalg(tracer, spla, "fvsolver"))
    tracer.replace(kernel, "spla", _TracedLinalg(tracer, spla, "kernel"))
    tracer.patch(cli, "save_field_csv", "grid.save_field_csv")
    for mod in (cli, kernel):
        tracer.patch(mod, "build_propagator", "kernel.build_propagator", post=ladder_bytes)
    for mod in (cli, picard):
        tracer.patch(mod, "fit_duhamel_constant", "kernel.fit_duhamel_constant")
    tracer.patch(cli, "validate_gaussian_bounds", "kernel.gaussian_bounds")
    tracer.patch(cli, "validate_mass_sandwich", "kernel.mass_sandwich")
    tracer.replace(cli, "validate_integral_bounds",
                   tracer.wrap("kernel.integral_bounds", with_tracemalloc(cli.validate_integral_bounds)))
    tracer.patch(cli, "global_solve", "picard.global_solve", post=count_windows)
    tracer.patch(picard, "divergence", "grid.divergence")

    stepper = type(
        "TracedImplicitStepper",
        (kernel.ImplicitStepper,),
        {"advance": tracer.wrap("kernel.advance", kernel.ImplicitStepper.advance)},
    )
    tracer.replace(kernel, "ImplicitStepper", stepper)
    tracer.replace(picard, "ImplicitStepper", stepper)


# per-layer metric -> unit; "_s" is busy time unless the name says self_s
# (kernel.integral_bounds_s is also a self time: validate_integral_bounds
# minus its nested build_propagator and build_coefficients spans)
PER_LAYER = {
    "config.load_config_s": "s",
    "coeff.build_coefficients_s": "s",
    "coeff.validate_assumptions_s": "s",
    "equilibrium.equilibrium_state_s": "s",
    "coeff.pi_at_calls": "count",
    "coeff.pi_at_s": "s",
    "coeff.V_at_calls": "count",
    "equilibrium.diagnostics_calls": "count",
    "equilibrium.diagnostics_s": "s",
    "fvsolver.steps": "count",
    "fvsolver.self_s": "s",
    "fvsolver.lu_factor_calls": "count",
    "fvsolver.lu_factor_s": "s",
    "fvsolver.lu_solve_s": "s",
    "fvsolver.newton_per_step": "count/step",
    "fvsolver.residual_evals_per_step": "count/step",
    "kernel.advance_calls": "count",
    "kernel.advance_s": "s",
    "kernel.lu_factor_calls": "count",
    "kernel.lu_factor_s": "s",
    "kernel.lu_solve_calls": "count",
    "kernel.lu_solve_s": "s",
    "kernel.build_propagator_calls": "count",
    "kernel.build_propagator_s": "s",
    "kernel.gaussian_bounds_s": "s",
    "kernel.mass_sandwich_s": "s",
    "kernel.integral_bounds_s": "s",
    "kernel.integral_bounds_peak_mb": "MB",
    "kernel.ladder_mb": "MB",
    "kernel.fit_duhamel_constant_s": "s",
    "picard.windows": "count",
    "picard.iterations_per_window": "count/window",
    "picard.self_s": "s",
    "grid.divergence_calls": "count",
    "grid.divergence_s": "s",
    "grid.save_field_csv_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

_MB = 1024.0 * 1024.0


def layer_metrics(summary: dict, nt_per_window: int) -> dict:
    """Per-layer metrics of one traced run (all but trace.overhead_s)."""
    layers = summary["layers"]
    edges = {(p, c): n for p, c, n in summary["edges"]}
    extra = summary["extra"]

    def calls(name):
        return float(layers.get(name, {}).get("calls", 0))

    def busy(name):
        return layers.get(name, {}).get("busy_s", 0.0)

    def own(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = extra.get("fvsolver.steps", 0.0)
    windows = extra.get("picard.windows", 0.0)
    # every Jacobian build samples the mobility once and is followed by one
    # splu; every residual (and the conservative update) samples it once
    residual_evals = edges.get(("fvsolver.simulate", "coeff.pi_at"), 0) - edges.get(
        ("fvsolver.simulate", "fvsolver.lu_factor"), 0
    )
    # one source evaluation (one V_at and one divergence) per lattice
    # interval per Picard iteration; V_at is also called by v_sup_norm
    source_evals = edges.get(("picard.global_solve", "grid.divergence"), 0)
    return {
        "config.load_config_s": busy("config.load_config"),
        "coeff.build_coefficients_s": busy("coeff.build_coefficients"),
        "coeff.validate_assumptions_s": busy("coeff.validate_assumptions"),
        "equilibrium.equilibrium_state_s": busy("equilibrium.equilibrium_state"),
        "coeff.pi_at_calls": calls("coeff.pi_at"),
        "coeff.pi_at_s": busy("coeff.pi_at"),
        "coeff.V_at_calls": calls("coeff.V_at"),
        "equilibrium.diagnostics_calls": calls("equilibrium.diagnostics"),
        "equilibrium.diagnostics_s": busy("equilibrium.diagnostics"),
        "fvsolver.steps": steps,
        "fvsolver.self_s": own("fvsolver.simulate"),
        "fvsolver.lu_factor_calls": calls("fvsolver.lu_factor"),
        "fvsolver.lu_factor_s": busy("fvsolver.lu_factor"),
        "fvsolver.lu_solve_s": busy("fvsolver.lu_solve"),
        "fvsolver.newton_per_step": ratio(calls("fvsolver.lu_factor"), steps),
        "fvsolver.residual_evals_per_step": ratio(residual_evals, steps),
        "kernel.advance_calls": calls("kernel.advance"),
        "kernel.advance_s": busy("kernel.advance"),
        "kernel.lu_factor_calls": calls("kernel.lu_factor"),
        "kernel.lu_factor_s": busy("kernel.lu_factor"),
        "kernel.lu_solve_calls": calls("kernel.lu_solve"),
        "kernel.lu_solve_s": busy("kernel.lu_solve"),
        "kernel.build_propagator_calls": calls("kernel.build_propagator"),
        "kernel.build_propagator_s": busy("kernel.build_propagator"),
        "kernel.gaussian_bounds_s": busy("kernel.gaussian_bounds"),
        "kernel.mass_sandwich_s": busy("kernel.mass_sandwich"),
        "kernel.integral_bounds_s": own("kernel.integral_bounds"),
        "kernel.integral_bounds_peak_mb": extra.get("kernel.integral_bounds_peak_bytes", 0.0) / _MB,
        "kernel.ladder_mb": extra.get("kernel.ladder_bytes", 0.0) / _MB,
        "kernel.fit_duhamel_constant_s": busy("kernel.fit_duhamel_constant"),
        "picard.windows": windows,
        "picard.iterations_per_window": ratio(source_evals, nt_per_window * windows),
        "picard.self_s": own("picard.global_solve"),
        "grid.divergence_calls": calls("grid.divergence"),
        "grid.divergence_s": busy("grid.divergence"),
        "grid.save_field_csv_s": busy("grid.save_field_csv"),
        "cli.self_s": own(ROOT),
    }
