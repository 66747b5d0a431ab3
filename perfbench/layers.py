"""Per-layer measurements: each layer's public calls timed on their own.

Usage: python perfbench/layers.py --frames DIR --w0 N --tau-from A --tau-to B
                                  --seed S --out JSON [--tiny]

DIR is the monitor stream the benchmark generated. Every timed call is a
span; the metrics written to JSON are medians or percentiles over those
spans, and the spans go with them. Which end-to-end metric each one should
move is listed in ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import warnings
from pathlib import Path

import numpy as np

from hoyerstream import frameio, kernels, simulate, stream
from tracing import Tracer

KERNEL_SIZES = ((100, 200), (240, 320), (1000, 1000))
SWEEP_SIGMAS = (0.5, 2.0, 4.0, 6.0)
READING_CS = tuple(range(10, 101, 10))
# Repeating blocks whose exact sum is 5 each: pairwise or naive float64
# accumulation drops the small terms.
CANCEL_BLOCK = (1e16, 3.0, -1e16, 2.0)


def _median_us(tracer, name):
    return statistics.median(tracer.durations(name)) * 1e6


def kernel_metrics(tracer, rng, tiny):
    metrics = {}
    for p1, p2 in KERNEL_SIZES:
        mixed = rng.standard_normal((p1, p2))
        inputs = {"mixed": mixed}
        if (p1, p2) != KERNEL_SIZES[-1]:
            inputs["onesided"] = np.abs(mixed) + 0.5
        reps = 3 if tiny else max(10, int(2e7 / mixed.size))
        for sign, x in inputs.items():
            name = f"kernels.stats_{sign}_us_{p1}x{p2}"
            kernels.matrix_stats(x)
            for _ in range(reps):
                with tracer.span(name):
                    kernels.matrix_stats(x)
            metrics[name] = _median_us(tracer, name)
    x = np.tile(np.array(CANCEL_BLOCK), 2500).reshape(50, -1)
    exact = math.fsum(CANCEL_BLOCK) * 2500
    total, _, _ = kernels.matrix_stats(x)
    metrics["kernels.cancel_rel_err"] = abs(total - exact) / float(np.abs(x).sum())
    return metrics


def simulate_metrics(tracer, seed, tiny):
    calls = 5 if tiny else 200
    spec = simulate.NoiseSpec(3.0, seed)
    for k in range(calls):
        with tracer.span("simulate.stream_frame_noise"):
            simulate.stream_frame_noise(100, 200, spec, k)
    size = {"w0": 10, "n_ooc": 10} if tiny else {}
    serial = 0.0
    for sigma in SWEEP_SIGMAS:
        _, seconds = tracer.timed(
            "simulate.cell", simulate.run_robustness, [sigma], "dense", seed, workers=1, **size
        )
        serial += seconds
    workers = min(2, len(os.sched_getaffinity(0)))
    _, fanned = tracer.timed(
        "simulate.sweep", simulate.run_robustness, list(SWEEP_SIGMAS), "dense", seed,
        workers=workers, **size,
    )
    return {
        "simulate.noise_frame_us": _median_us(tracer, "simulate.stream_frame_noise"),
        "simulate.cell_s": statistics.median(tracer.durations("simulate.cell")),
        "simulate.sweep_scaling": serial / fanned,
    }


def reading_metrics(tracer, rng, tiny):
    """corrected_reading at every consistency frame size, c x 2c for c = 10..100."""
    cs = READING_CS[:2] if tiny else READING_CS
    for c in cs:
        p1, p2 = c, 2 * c
        band = np.zeros((p1, p2))
        band[:, p2 // 4 : p2 // 4 + c // 10] = 5.0
        baseline = stream.fit_baseline([3.0 * rng.standard_normal((p1, p2)) for _ in range(20)])
        for _ in range(40):
            frame = band + 3.0 * rng.standard_normal((p1, p2))
            with tracer.span("stream.corrected_reading"):
                stream.corrected_reading(frame, baseline)
    calls = tracer.durations("stream.corrected_reading")
    deciles = statistics.quantiles(calls, n=10)
    return {"stream.reading_us_p50": statistics.median(calls) * 1e6,
            "stream.reading_us_p90": deciles[8] * 1e6}


def frame_metrics(tracer, frame_dir, w0, tau_from, tau_to, out_dir, tiny):
    files = sorted(frame_dir.glob("*.pgm"))
    for path in files[: 10 if tiny else 100]:
        with tracer.span("frameio.read_pgm"):
            frameio.read_pgm(path)
    frames, read_s = tracer.timed("frameio.read_frame_dir", frameio.read_frame_dir, frame_dir, "*.pgm")
    for _ in range(3):
        baseline, _ = tracer.timed("stream.fit_baseline", stream.fit_baseline, frames, w0)
    readings, _ = tracer.timed(
        "stream.monitor_series", stream.monitor_series,
        frames, baseline, range(tau_from - 1, tau_to), t_offset=1,
    )
    for _ in range(5):
        tracer.timed("frameio.write_series_csv", frameio.write_series_csv, readings, out_dir / "series.csv")
    report = {
        "config": {"experiment": "robustness", "sigmas": [0.5 * k for k in range(1, 13)]},
        "cells": [{"sigma": 0.5 * k, "m_eps": 0.01 * k, "sigma_eps": 0.002 * k,
                   "lo": 0.006 * k, "hi": 0.014 * k} for k in range(1, 13)],
    }
    for _ in range(20):
        tracer.timed("frameio.write_report_json", frameio.write_report_json, report, out_dir / "report.json")
    return {
        "frameio.read_frame_dir_s": read_s,
        "frameio.read_pgm_us": _median_us(tracer, "frameio.read_pgm"),
        "frameio.resident_frames_mb": sum(f.nbytes for f in frames) / 1e6,
        "stream.fit_baseline_s": statistics.median(tracer.durations("stream.fit_baseline")),
        "frameio.write_series_ms": statistics.median(tracer.durations("frameio.write_series_csv")) * 1e3,
        "frameio.write_report_ms": statistics.median(tracer.durations("frameio.write_report_json")) * 1e3,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--frames", type=Path, required=True)
    parser.add_argument("--w0", type=int, required=True)
    parser.add_argument("--tau-from", type=int, required=True)
    parser.add_argument("--tau-to", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    warnings.simplefilter("ignore")
    tracer = Tracer(run_id="layers")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed, spawn_key=(2,))))
    metrics = {}
    with tracer.span("layers"):
        metrics.update(kernel_metrics(tracer, rng, args.tiny))
        metrics.update(simulate_metrics(tracer, args.seed, args.tiny))
        metrics.update(reading_metrics(tracer, rng, args.tiny))
        metrics.update(frame_metrics(
            tracer, args.frames, args.w0, args.tau_from, args.tau_to, args.out.parent, args.tiny
        ))
    args.out.write_text(json.dumps({"metrics": metrics, "spans": tracer.records()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
