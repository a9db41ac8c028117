"""Regenerate the stored references in perfbench/reference/.

Usage (from the repository root): python3 perfbench/make_references.py

The Picard workload's initial data is one of eight (a, phase) pairs drawn
once from numpy's default_rng(2502); the terminal seam of each is stored.
The kernel workload stores the integral-bound constants C1-C3 and their
refined values.  Run this only when a change is meant to move these
results, and say so in the change.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from torusfp import cli  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS, kernel_constants, read_csv  # noqa: E402


def run(wl, config_text: str, tmp: Path) -> Path:
    config, out = tmp / "input.ini", tmp / "out"
    config.write_text(config_text)
    code = cli.main(wl.argv(config, out))
    if code != 0:
        raise SystemExit(f"{wl.name}: torusfp exited {code}")
    return out


def main():
    REFERENCE_DIR.mkdir(exist_ok=True)
    picard = WORKLOADS["picard-vartemp"]
    rng = np.random.default_rng(2502)
    variants = []
    for _ in range(8):
        v = {"a": round(float(rng.uniform(0.15, 0.25)), 4), "phase": round(float(rng.uniform(0, 2 * math.pi)), 4)}
        with tempfile.TemporaryDirectory() as tmp:
            out = run(picard, picard.config_for(v, seed=0), Path(tmp))
            v["terminal_seam"] = read_csv(out / "seam_001000.csv")[1][:, 1].tolist()
        variants.append(v)
    (REFERENCE_DIR / f"{picard.name}.json").write_text(json.dumps({"variants": variants}, indent=1) + "\n")

    kernel = WORKLOADS["kernel-heat"]
    with tempfile.TemporaryDirectory() as tmp:
        out = run(kernel, kernel.config(seed=0), Path(tmp))
        constants = kernel_constants(out)
    (REFERENCE_DIR / f"{kernel.name}.json").write_text(json.dumps({"integral_bounds": constants}, indent=1) + "\n")


if __name__ == "__main__":
    main()
