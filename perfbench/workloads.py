"""The four benchmark workloads: generated configs, CLI arguments, output
checks and the work counts read back from the outputs.

Each workload writes one config from the seed; torusfp sees only that
config through its documented command line.  Why each workload exists is in
``perfbench/README.md``.

Tolerances follow the acceptance suite and the ROADMAP gates: 1e-9 on final
states, 1e-9 relative on kernel constants, 1e-10 relative mass drift, 1e-12
on free-energy increase and seam masses, 1e-4 envelope slack.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

FINAL_STATE_TOL = 1e-9
KERNEL_REL_TOL = 1e-9
MASS_REL_TOL = 1e-10
ENERGY_TOL = 1e-12
SEAM_MASS_TOL = 1e-12
ENVELOPE_TOL = 1e-4

PICARD_WINDOWS = 1000
PICARD_NT_PER_WINDOW = 16

# Finite-volume initial data is fixed.  Its Newton work is a chaotic
# function of the data: nine profiles 1 + a*cos(2*pi*x1 + phase) with
# a in [0.4, 0.5] took 3001 to 8208 LU factorizations over the same 1423
# steps, because the iteration stalls at the roundoff floor.  A seeded
# profile would turn the benchmark's spread across seeds into that scatter.
FV_AMPLITUDE = 0.5


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Columns and numeric rows of a torusfp CSV (comment line skipped)."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    cols = lines[0].split(",")
    rows = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]], ndmin=2)
    return cols, rows


def _csv_column(path: Path, name: str) -> np.ndarray:
    cols, rows = read_csv(path)
    return rows[:, cols.index(name)]


def _seeded_profile(seed: int) -> tuple[float, int, float]:
    """(a, k, phase) of f0 = 1 + a*cos(2*pi*k*x1 + phase), drawn from the seed."""
    rng = np.random.default_rng(seed)
    return float(rng.uniform(0.2, 0.5)), int(rng.integers(1, 4)), float(rng.uniform(0.0, 2 * math.pi))


def _ini(grid: str, coefficients: str, f0: str, run: str, extra: str = "") -> str:
    return (
        f"[grid]\n{grid}\n\n[coefficients]\n{coefficients}\n\n"
        f"[initial]\nf0 = {f0}\n\n[run]\n{run}\n{extra}"
    )


def kernel_constants(out: Path) -> dict:
    """C1-C3 and their refined values from the integral_bounds row of
    kernel_report.csv (empty if the row is missing)."""
    for line in (out / "kernel_report.csv").read_text().splitlines():
        if line.startswith("integral_bounds,"):
            return {k: float(v) for k, v in (item.split("=") for item in line.split('"')[1].split(";"))}
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    extra_args: tuple = ()
    nt_per_window: int = 0
    # the speed probe (perfbench/speed.py) whose slowdown matches this workload's
    probe: str = "interpreter"

    def config(self, seed: int) -> str:
        raise NotImplementedError

    def argv(self, config: Path, out: Path) -> list[str]:
        return [self.command, "--config", str(config), "--out", str(out), "--quiet", *self.extra_args]

    def check(self, out: Path, seed: int) -> list[str]:
        """Failure messages for one run's output directory (empty if it passes)."""
        raise NotImplementedError

    def work(self, out: Path) -> dict:
        """Work counts read from the outputs; derived values say 'computed'."""
        raise NotImplementedError


@dataclass(frozen=True)
class FVWorkload(Workload):
    dim: int = 1
    n: int = 128
    t_final: float = 10.0

    def _potential(self, xs: list[np.ndarray]) -> np.ndarray:
        phi = np.cos(2 * np.pi * xs[0])
        return phi * np.cos(2 * np.pi * xs[1]) if self.dim == 2 else phi

    def _initial(self, xs: list[np.ndarray]) -> np.ndarray:
        return 1.0 + FV_AMPLITUDE * self._potential(xs)

    def config(self, seed: int) -> str:
        axes = "*cos(2*pi*x2)" if self.dim == 2 else ""
        return _ini(
            f"dim = {self.dim}\nn = {self.n}",
            f"D = 1\npi = 1\nphi = cos(2*pi*x1){axes}",
            f"1 + {FV_AMPLITUDE}*cos(2*pi*x1){axes}",
            f"t_final = {self.t_final}\nstepper = implicit\nseed = {seed}",
        )

    def expected_steps(self) -> int:
        # the implicit step policy is dt = 0.9 h
        return max(1, math.ceil(self.t_final / (0.9 / self.n) - 1e-9))

    def check(self, out: Path, seed: int) -> list[str]:
        errors = []
        steps = json.loads((out / "manifest.json").read_text())["steps"]
        if steps != self.expected_steps():
            errors.append(f"steps {steps} != expected {self.expected_steps()}")
        diag = out / "diagnostics.csv"
        mass = _csv_column(diag, "mass")
        drift = float(np.max(np.abs(mass - mass[0]))) / mass[0]
        if drift > MASS_REL_TOL:
            errors.append(f"mass drift {drift:.3g} > {MASS_REL_TOL:g}")
        rise = float(np.max(np.diff(_csv_column(diag, "free_energy")), initial=0.0))
        if rise > ENERGY_TOL:
            errors.append(f"free energy rises by {rise:.3g} > {ENERGY_TOL:g}")
        if float(np.min(_csv_column(diag, "min_f"))) <= 0:
            errors.append("min_f <= 0")
        # t_final is long enough that the state has relaxed to the Gibbs
        # state exp(-phi)/Z of the initial mass (D = 1), computed here
        _, rows = read_csv(out / "final_state.csv")
        xs = [rows[:, a] for a in range(self.dim)]
        gibbs = np.exp(-self._potential(xs))
        ref = gibbs * float(np.sum(self._initial(xs))) / float(np.sum(gibbs))
        err = float(np.max(np.abs(rows[:, self.dim] - ref)))
        if err > FINAL_STATE_TOL:
            errors.append(f"final state differs from the Gibbs state by {err:.3g}")
        return errors

    def work(self, out: Path) -> dict:
        steps = json.loads((out / "manifest.json").read_text())["steps"]
        cells = self.n**self.dim
        return {"steps": steps, "cells": cells, "cell_steps (computed: steps x cells)": steps * cells}


@dataclass(frozen=True)
class PicardWorkload(Workload):
    n: int = 64

    def variants(self) -> list[dict]:
        return json.loads((REFERENCE_DIR / f"{self.name}.json").read_text())["variants"]

    def variant(self, seed: int) -> dict:
        table = self.variants()
        return table[int(np.random.default_rng(seed).integers(len(table)))]

    def config(self, seed: int) -> str:
        return self.config_for(self.variant(seed), seed)

    def config_for(self, v: dict, seed: int) -> str:
        return _ini(
            f"dim = 1\nn = {self.n}",
            "D = 2 + cos(2*pi*x1)\npi = 1\nphi = 0",
            f"1 + {v['a']}*cos(2*pi*x1 + {v['phase']})",
            f"t_final = 0.05\nseed = {seed}",
            f"\n[picard]\ntol = 1e-10\nmax_iter = 60\nnt_per_window = {self.nt_per_window}\n",
        )

    def check(self, out: Path, seed: int) -> list[str]:
        errors = []
        cols, plan = read_csv(out / "global_plan.csv")
        plan = dict(zip(cols, plan[0]))
        if int(plan["num_windows"]) != PICARD_WINDOWS:
            errors.append(f"num_windows {plan['num_windows']} != {PICARD_WINDOWS}")
        seams = sorted(out.glob("seam_*.csv"))
        if not seams or seams[-1].name != f"seam_{PICARD_WINDOWS:06d}.csv":
            return errors + ["terminal seam file missing"]
        lo, hi = plan["m"] - ENVELOPE_TOL, plan["M"] + ENVELOPE_TOL
        mass0 = None
        for path in seams:
            vals = read_csv(path)[1][:, 1]
            mass = float(np.sum(vals)) / self.n
            mass0 = mass if mass0 is None else mass0
            if abs(mass - mass0) > SEAM_MASS_TOL:
                errors.append(f"{path.name}: mass {mass!r} != initial {mass0!r}")
            if np.min(vals) < lo or np.max(vals) > hi:
                errors.append(f"{path.name}: leaves the envelope [{lo:.6g}, {hi:.6g}]")
        ref = np.asarray(self.variant(seed)["terminal_seam"])
        err = float(np.max(np.abs(vals - ref)))
        if err > FINAL_STATE_TOL:
            errors.append(f"terminal seam differs from the reference by {err:.3g}")
        return errors

    def work(self, out: Path) -> dict:
        windows = json.loads((out / "manifest.json").read_text())["num_windows"]
        return {
            "windows": windows,
            "nt_per_window": self.nt_per_window,
            "cells": self.n,
            "frames (computed: windows x nt_per_window)": windows * self.nt_per_window,
        }


@dataclass(frozen=True)
class KernelWorkload(Workload):
    n: int = 96

    def reference(self) -> dict:
        return json.loads((REFERENCE_DIR / f"{self.name}.json").read_text())

    def config(self, seed: int) -> str:
        # the configs/heat.ini problem; the validators never read f0, so
        # the seeded profile does not change the work
        a, k, phase = _seeded_profile(seed)
        return _ini(
            f"dim = 1\nn = {self.n}",
            "D = 1\npi = 1\nphi = 0",
            f"1 + {a!r}*cos(2*pi*{k}*x1 + {phase!r})",
            f"t_final = 0.05\ndiag_every = 1\nseed = {seed}",
        )

    def check(self, out: Path, seed: int) -> list[str]:
        errors = []
        for line in (out / "kernel_report.csv").read_text().splitlines()[2:]:
            if not line.endswith(",pass"):
                errors.append(f"kernel check {line.split(',', 1)[0]} did not pass")
        constants = kernel_constants(out)
        for key, ref in self.reference()["integral_bounds"].items():
            got = constants.get(key, math.nan)
            if not abs(got - ref) <= KERNEL_REL_TOL * abs(ref):
                errors.append(f"{key} = {got!r}, reference {ref!r}")
        return errors

    def work(self, out: Path) -> dict:
        n, refined = self.n, 2 * self.n
        # default [kernel] options: a 600-substep propagator keeping every
        # 20th matrix, and 64-step ladders at n and 2n for the integral bounds
        return {
            "cells": n,
            "ladder_bytes (computed: 30 x n^2 x 8)": 30 * n * n * 8,
            "integral_ladder_bytes (computed: 64 x (n^2 + (2n)^2) x 8)": 64 * (n * n + refined * refined) * 8,
        }


WORKLOADS = {
    w.name: w
    for w in (
        FVWorkload("fv-cosine-1d", "simulate", dim=1, n=128, t_final=10.0),
        FVWorkload("fv-cosine-2d", "simulate", dim=2, n=48, t_final=2.0, probe="memory"),
        PicardWorkload(
            "picard-vartemp",
            "global",
            extra_args=("--windows", str(PICARD_WINDOWS)),
            nt_per_window=PICARD_NT_PER_WINDOW,
        ),
        KernelWorkload("kernel-heat", "kernel-validate", probe="memory"),
    )
}
