"""Repeat the benchmark over seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 > set-a.md

For every workload in ``BENCHMARK.json`` it runs ``perfbench/run.py``
once per seed, for ``run_seconds`` (one run after the other, never in
parallel).  It then reports per metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the
interquartile distance as a share of the median, next to the bound
``BENCHMARK.json`` sets for that metric.  Rows marked *raw* give the
timed metrics before normalisation, and the calibration kernel's time,
from each run's detailed record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


RAW = (
    ("raw realtime_factor", "realtime_factor", "ecg_s/s"),
    ("raw cpu_ms_per_ecg_s", "cpu_ms_per_ecg_s", "ms/ecg_s"),
    ("raw setup_s", "setup_s", "s"),
    ("raw kernel time", "kernel_ms", "ms"),
    ("raw steal share", "steal_share", "ratio"),
)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result["wall_s"] = time.monotonic() - start
    record = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    result["raw"] = json.loads(record.read_text())["raw"]
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, share


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    lines = [
        f"Seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
        f"--seconds {seconds:g}, --trace 0.",
        "",
        "| workload | metric | unit | median | Q1 | Q3 | IQR/median | bound |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: {runs[-1]['wall_s']:.1f} s", file=sys.stderr)
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            lines.append(
                f"| {workload} | {name} | {metric['unit']} | {median:.4g} | {q1:.4g} | "
                f"{q3:.4g} | {share:.3f} | {metric['bound']} |"
            )
        for label, key, unit in RAW:
            median, q1, q3, share = spread([r["raw"][key] for r in runs])
            lines.append(
                f"| {workload} | {label} | {unit} | {median:.4g} | {q1:.4g} | "
                f"{q3:.4g} | {share:.3f} | |"
            )
        walls = [r["wall_s"] for r in runs]
        lines.append(f"| {workload} | run wall time (median, min, max) | s | {statistics.median(walls):.1f} "
                     f"| {min(walls):.1f} | {max(walls):.1f} | | |")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
