#!/usr/bin/env python3
"""Self-test of the benchmark; exits 0 when every part passes.

Usage, from the repository root: python3 perfbench/selftest.py

1. Runs every workload of BENCHMARK.json at a tiny size, untraced and
   traced, and checks that the result line names each metric with its unit,
   that the outputs were checked and hashed, and that nothing failed.
2. Feeds the output checks damaged reports and series, which they must
   reject.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and the
   benchmark's files, where it must exit nonzero without a result line.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run_bench(ROOT, workload, trace)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-600:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"{where}: correct/attempted/failed = {result}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        problems.append(f"{where}: metrics {sorted(metrics)} != {sorted(wanted)}")
    for name, unit in wanted.items():
        m = metrics.get(name, {})
        value = m.get("value")
        if m.get("unit") != unit or isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{where}: {name} = {m}, want a finite number in {unit}")
    details = json.loads((BENCH / ".results" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    runs = details["samples"]
    if not runs or any(not s["sha256"] or s["failures"] for s in runs):
        problems.append(f"{where}: outputs not checked and hashed: {runs}")
    if trace and not any(s["name"] == "cli.main" for s in details.get("spans", [])):
        problems.append(f"{where}: no cli.main span recorded")
    return problems


def write_report(path: Path, x_name: str, cells: list[tuple]) -> None:
    path.write_text(json.dumps({"cells": [{x_name: x, "m_eps": m} for x, m in cells]}))


def check_rejections(scratch: Path) -> list[str]:
    problems = []
    report, plot = scratch / "report.json", scratch / "report.csv"
    plot.write_text("x,m_eps,lo,hi\n0.5,0,0,0\n6.0,0,0,0\n")
    write_report(report, "sigma", [(0.5, 0.01), (6.0, 0.05)])
    if checks.check_robustness(report, plot, [0.5, 6.0]):
        problems.append("check_robustness rejects a passing report")
    write_report(report, "sigma", [(0.5, 0.01), (6.0, 0.09)])
    if not checks.check_robustness(report, plot, [0.5, 6.0]):
        problems.append("check_robustness accepts m_eps 0.09")
    write_report(report, "c", [(10, 0.2), (100, 0.11)])
    if not checks.check_consistency(report, plot, [10, 100]):
        problems.append("check_consistency accepts a decay of less than half")

    shape = inputs.MONITOR_TINY
    frame_dir = scratch / "frames"
    inputs.write_monitor_frames(frame_dir, shape, SEED)
    series = scratch / "series.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "hoyerstream.cli", "monitor", "--frames", str(frame_dir),
         "--w0", str(shape.w0), "--tau-from", str(shape.tau_from), "--tau-to", str(shape.tau_to),
         "--out", str(series)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        return problems + [f"monitor CLI failed: {proc.stderr[-600:]}"]
    mean = inputs.baseline_mean(frame_dir, shape.w0)
    if checks.check_series(series, frame_dir, shape, mean):
        problems.append(f"check_series rejects the CLI's own series: "
                        f"{checks.check_series(series, frame_dir, shape, mean)}")
    good = series.read_text().splitlines()
    fields = good[1].split(",")
    fields[1] = repr(float(fields[1]) + 1e-6)
    damaged = {
        "h_raw off by 1e-6": [good[0], ",".join(fields), *good[2:]],
        "a row missing": good[:-1],
        "a t label shifted": [good[0], *[f"{int(l.split(',')[0]) + 1}," + l.split(",", 1)[1] for l in good[1:]]],
    }
    for what, lines in damaged.items():
        series.write_text("\n".join(lines) + "\n")
        if not checks.check_series(series, frame_dir, shape, mean):
            problems.append(f"check_series accepts a series with {what}")
    return problems


def check_bare_directory(scratch: Path) -> list[str]:
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".work", ".results", "__pycache__"))
    proc = run_bench(bare, "monitor", 0)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"bare directory: exit {proc.returncode}, last line {last[0]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = BENCH / ".work" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    problems = []
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                found = check_workload(spec, workload, trace)
                print(f"{workload} trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
                problems += found
        found = check_rejections(scratch)
        print(f"checks reject damaged outputs: {'ok' if not found else 'FAILED'}")
        problems += found
        found = check_bare_directory(scratch)
        print(f"bare directory exits nonzero: {'ok' if not found else 'FAILED'}")
        problems += found
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
