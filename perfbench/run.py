"""torusfp benchmark: run one workload through the documented CLI and
print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload fv-cosine-1d --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

Each repetition is a fresh worker process (perfbench/worker.py) that runs
``torusfp.cli.main`` in-process; repetitions run one at a time, at least two
per invocation and more while they fit in ``--seconds``.  Every repetition's
outputs are checked, and all repetitions of one invocation must write
byte-identical CSVs.  ``solve_s`` and ``setup_s`` are rescaled to a
reference host speed by a speed probe that runs alongside the command
(perfbench/speed.py).  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with ``--trace 1`` untraced and traced repetitions
alternate and it carries the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench-work"

sys.path.insert(0, str(BENCH_DIR))
import tracing  # noqa: E402
from speed import PROBES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_REPS = 2
# an invocation must end within 180 s even if torusfp hangs
HARD_LIMIT_S = 170.0

# the layer each workload was chosen for: its largest self time should be here
CHOSEN_LAYER = {
    "fv-cosine-1d": "fvsolver.simulate",
    "fv-cosine-2d": "fvsolver.lu_factor",
    "picard-vartemp": "grid.divergence",
    "kernel-heat": "kernel.integral_bounds",
}


@dataclass
class Rep:
    """Outcome of one worker process."""

    traced: bool
    wall: float
    result: dict | None
    errors: list[str]


def _csv_bytes(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def run_rep(
    wl, config: Path, rep_dir: Path, seed: int, traced: bool, baseline: dict | None, timeout: float = HARD_LIMIT_S
) -> tuple[Rep, dict | None]:
    """Run one repetition; returns it and its CSVs (for the determinism check)."""
    out = rep_dir / "out"
    result_path = rep_dir / "result.json"
    rep_dir.mkdir(parents=True)
    job = {
        "argv": wl.argv(config, out),
        "config": str(config),
        "probe": wl.probe,
        "trace": traced,
        "result": str(result_path),
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return Rep(traced, perf_counter() - t0, None, [f"worker timed out after {timeout:.0f} s"]), None
    wall = perf_counter() - t0
    if proc.returncode != 0 or not result_path.exists():
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return Rep(traced, wall, None, [f"worker exited {proc.returncode}: {tail}"]), None
    result = json.loads(result_path.read_text())
    if result["exit_code"] != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return Rep(traced, wall, result, [f"torusfp exited {result['exit_code']}: {tail}"]), None
    try:
        errors = wl.check(out, seed)
    except Exception as err:  # a malformed output fails the run, not the benchmark
        errors = [f"output check raised {type(err).__name__}: {err}"]
    csvs = _csv_bytes(out)
    if baseline is not None and csvs != baseline:
        differing = sorted(set(csvs) ^ set(baseline) | {k for k in csvs if baseline.get(k) != csvs[k]})
        errors.append(f"CSVs differ from the first run: {', '.join(differing[:5])}")
    return Rep(traced, wall, result, errors), csvs


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[list[Rep], dict]:
    """Repetitions of one workload while they fit in ``seconds`` (at least
    MIN_REPS); with ``trace`` untraced and traced repetitions alternate."""
    wl = WORKLOADS[name]
    work = WORK_DIR / f"{name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "input.ini"
        config.write_text(wl.config(seed))
        reps, baseline, work_counts = [], None, {}
        t_start = perf_counter()
        deadline = t_start + HARD_LIMIT_S
        while True:
            traced = trace and len(reps) % 2 == 1
            rep_dir = work / f"rep{len(reps)}"
            rep, csvs = run_rep(wl, config, rep_dir, seed, traced, baseline, deadline - perf_counter())
            reps.append(rep)
            if baseline is None and csvs is not None:
                baseline = csvs
            if not work_counts and not rep.errors:
                work_counts = wl.work(rep_dir / "out")
            shutil.rmtree(rep_dir)
            elapsed = perf_counter() - t_start
            if perf_counter() >= deadline or (len(reps) >= MIN_REPS and elapsed + max(r.wall for r in reps) > seconds):
                break
        return reps, work_counts
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _summary(values: list[float]) -> str:
    if not values:
        return "no samples"
    text = f"median {_median(values):.6g} (n={len(values)}, min {min(values):.6g}, max {max(values):.6g}"
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        text += f", quartiles {q[0]:.6g}/{q[2]:.6g}"
    return text + ")"


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    """Read-only description of the machine and software."""
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = git.stdout.strip() if git.returncode == 0 else "unknown"
        except OSError:
            commit = "unknown (git not found)"
    blas = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": blas or "unset (library default)",
        "seed": seed,
        "commit": commit,
    }


def report(name: str, seed: int, trace: bool, reps: list[Rep], work_counts: dict) -> dict:
    """Print the human-readable report; return the result object."""
    wl = WORKLOADS[name]
    failed = [r for r in reps if r.errors]
    plain = [r.result for r in reps if not r.traced and r.result is not None]
    traced = [r.result for r in reps if r.traced and r.result is not None]
    print(f"== {name} seed={seed} trace={int(trace)}: {len(reps)} runs attempted, {len(failed)} failed")
    for i, r in enumerate(reps):
        for err in r.errors:
            print(f"  run {i} FAILED: {err}")
    samples = {
        "solve_s": [r["solve_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    for metric, unit in END_TO_END.items():
        print(f"  {metric:<12} {unit:<3} {_summary(samples[metric])}")
    # the raw times behind the rescaled ones, and the host's speed
    print(f"  {'wall_s':<12} s   {_summary([r['wall_s'] for r in plain])} (raw wall time, probes included)")
    print(f"  {'setup_wall_s':<12} s   {_summary([r['setup_wall_s'] for r in plain])} (raw)")
    _, _, reference = PROBES[wl.probe]
    slowdowns = [r["probe_mean_s"] / reference for r in plain]
    print(f"  {'slowdown':<12} 1   {_summary(slowdowns)} ({wl.probe} probe mean / its reference duration)")
    print(f"  {'fail_ratio':<12} 1   {len(failed)}/{len(reps)} = {len(failed) / len(reps):.6g} (failed runs / attempted runs)")
    print("  work: " + ", ".join(f"{k}={v}" for k, v in work_counts.items()))
    print("  env: " + ", ".join(f"{k}={v}" for k, v in environment(seed).items()))

    if not trace:
        metrics = {m: {"value": _median(samples[m]), "unit": u} for m, u in END_TO_END.items()}
    else:
        per_rep = [tracing.layer_metrics(r["trace"], wl.nt_per_window) for r in traced]
        metrics = {
            m: {"value": _median([pr[m] for pr in per_rep]), "unit": tracing.PER_LAYER[m]}
            for m in tracing.PER_LAYER
            if m != "trace.overhead_s"
        }
        # raw wall times: traced repetitions run no speed probes
        overhead = _median([r["wall_s"] for r in traced]) - _median([r["wall_s"] - r["probe_s"] for r in plain])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"  per-layer (median of {len(per_rep)} traced runs):")
        for m, v in metrics.items():
            print(f"    {m:<36} {v['value']:.6g} {v['unit']}")
        if traced:
            layers = traced[0]["trace"]["layers"]
            ranked = sorted(layers, key=lambda k: layers[k]["self_s"], reverse=True)
            top = ", ".join(f"{k} {layers[k]['self_s']:.3f}s" for k in ranked[:4])
            verdict = "as chosen" if ranked[0] == CHOSEN_LAYER[name] else f"expected {CHOSEN_LAYER[name]}"
            print(f"  largest self times: {top} ({verdict})")
            m = {k: v["value"] for k, v in metrics.items()}
            counts = []
            if m["fvsolver.steps"]:
                counts.append(
                    f"LU factorizations per step = {m['fvsolver.lu_factor_calls']:.0f}/{m['fvsolver.steps']:.0f}"
                    f" = {m['fvsolver.newton_per_step']:.4g}"
                )
            if m["picard.windows"]:
                counts.append(
                    f"Picard iterations per window = {m['grid.divergence_calls']:.0f} source evaluations"
                    f"/({wl.nt_per_window} x {m['picard.windows']:.0f}) = {m['picard.iterations_per_window']:.4g}"
                )
            if m["kernel.advance_calls"]:
                counts.append(f"advance calls = {m['kernel.advance_calls']:.0f}")
            if m["kernel.ladder_mb"]:
                counts.append(f"ladder bytes held (computed from array sizes) = {m['kernel.ladder_mb'] * 2**20:.0f}")
            print("  work (traced): " + "; ".join(counts))
    return {"correct": not failed, "attempted": len(reps), "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "torusfp" / "cli.py").is_file():
        print(f"perfbench: torusfp sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        reps, work_counts = measure(name, args.seed, args.seconds, bool(args.trace))
        results[name] = report(name, args.seed, bool(args.trace), reps, work_counts)
        missing = [m for m, v in results[name]["metrics"].items() if not math.isfinite(v["value"])]
        if missing:
            errors = [e for r in reps for e in r.errors][:3]
            print(f"perfbench: no measurement of {', '.join(missing)} for {name}: {errors}", file=sys.stderr)
            return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
