"""Command-line front end.

Subcommands: ``index`` (one matrix, raw or corrected), ``simulate`` (the
robustness and consistency sweeps, emitting a JSON report plus a plot-ready
CSV), ``monitor`` (sliding corrected readings over a frame directory), and
``verify`` (Monte Carlo checks of the asymptotic claims).

Exit codes: 0 success or verification pass, 1 verification fail, 2 usage
error, 3 I/O or file-format error. Reports embed the full configuration,
defaults included, so any output is reproducible from its own metadata.
``simulate`` and ``verify`` import the simulation themselves, so ``index``
and ``monitor`` do not load it.
"""

from __future__ import annotations

import argparse
import collections
import os
import sys

from . import __version__
from .errors import DimensionError, FrameFormatError
from .frameio import (
    iter_frames,
    list_frame_dir,
    load_matrix,
    series_row,
    write_report_json,
    write_series_csv,
)
from .indices import MOMENT_MODES, hoyer_index
from .stream import corrected_reading, fit_baseline, monitor_series

DEFAULT_SIGMAS = [0.5 * k for k in range(1, 13)]  # 0.5 .. 6.0
DEFAULT_CS = list(range(10, 101, 10))  # 10 .. 100
SIM_DIMS = (100, 200)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoyerstream",
        description="Sparsity estimation for noisy streaming image frames.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="index of a single matrix file")
    p_index.add_argument("matrix", help="matrix file (.csv or .pgm)")
    p_index.add_argument("--baseline", help="frame directory to fit the baseline on")
    p_index.add_argument("--pattern", default="*", help="glob for baseline frames")
    p_index.add_argument("--w0", type=int, default=100, help="baseline window length")
    p_index.add_argument("--mode", choices=MOMENT_MODES, default="debias")

    p_sim = sub.add_parser("simulate", help="run a simulation sweep")
    p_sim.add_argument("experiment", choices=("robustness", "consistency"))
    p_sim.add_argument("--kind", choices=("dense", "sparse"), required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--sigmas", type=float, nargs="+", default=None,
                       help="noise grid for robustness (default 0.5..6.0 step 0.5)")
    p_sim.add_argument("--cs", type=int, nargs="+", default=None,
                       help="multiplier grid for consistency (default 10..100 step 10)")
    p_sim.add_argument("--sigma", type=float, default=3.0,
                       help="fixed noise level for consistency")
    p_sim.add_argument("--w0", type=int, default=200)
    p_sim.add_argument("--n-ooc", type=int, default=200)
    p_sim.add_argument("--mode", choices=MOMENT_MODES, default="debias")
    p_sim.add_argument("--replicates", type=int, default=1)
    p_sim.add_argument("--workers", type=int, default=1,
                       help="threads for the sweep's cells (default 1, the fastest)")
    p_sim.add_argument("--out", required=True, help="JSON report path")
    p_sim.add_argument("--csv-out", default=None,
                       help="plot-ready CSV path (default: report path with .csv)")

    p_mon = sub.add_parser("monitor", help="sliding corrected readings over frames")
    p_mon.add_argument("--frames", required=True, help="frame directory")
    p_mon.add_argument("--pattern", default="*", help="glob for frame files")
    p_mon.add_argument("--w0", type=int, default=100)
    p_mon.add_argument("--tau-from", type=int, required=True,
                       help="first monitored frame (counting from 1 in file order)")
    p_mon.add_argument("--tau-to", type=int, required=True,
                       help="last monitored frame, inclusive")
    p_mon.add_argument("--mode", choices=MOMENT_MODES, default="debias")
    p_mon.add_argument("--out", required=True, help="series CSV path")

    p_ver = sub.add_parser("verify", help="Monte Carlo checks of the asymptotic claims")
    p_ver.add_argument("check", choices=("lemma2", "theorem1", "corollary1"))
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--reps", type=int, default=None)
    p_ver.add_argument("--out", default=None, help="optional JSON report path")
    return parser


def cmd_index(args) -> int:
    if args.baseline is not None and args.w0 < 2:
        raise ValueError(f"w0 must be >= 2, got {args.w0}")
    matrix = load_matrix(args.matrix)
    if args.baseline is None:
        h = hoyer_index(matrix)
        if not matrix.any():
            print("note: all-zero matrix reads 1 by the blank-frame convention", file=sys.stderr)
        print(repr(h))
        return 0
    baseline = _scan_frames(
        list_frame_dir(args.baseline, args.pattern),
        lambda frames: fit_baseline(frames, args.w0),
    )
    reading = corrected_reading(matrix, baseline, mode=args.mode)
    print(series_row(reading))
    return 0


def _band_cells(table, x_name: str) -> list[dict]:
    return [
        {x_name: x, "m_eps": band.m_eps, "sigma_eps": band.sigma_eps,
         "lo": band.lo, "hi": band.hi}
        for x, band in table.items()
    ]


def cmd_simulate(args) -> int:
    from .simulate import run_consistency, run_robustness

    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    config = {
        "command": "simulate",
        "experiment": args.experiment,
        "kind": args.kind,
        "seed": args.seed,
        "w0": args.w0,
        "n_ooc": args.n_ooc,
        "mode": args.mode,
        "replicates": args.replicates,
        "out": args.out,
        "csv_out": args.csv_out,
        "version": __version__,
    }
    if args.experiment == "robustness":
        sigmas = args.sigmas if args.sigmas is not None else DEFAULT_SIGMAS
        config["sigmas"] = sigmas
        config["dims"] = list(SIM_DIMS)
        table = run_robustness(
            sigmas, args.kind, args.seed, w0=args.w0, n_ooc=args.n_ooc,
            dims=SIM_DIMS, mode=args.mode, replicates=args.replicates,
            workers=args.workers,
        )
        x_name = "sigma"
    else:
        cs = args.cs if args.cs is not None else DEFAULT_CS
        config["cs"] = cs
        config["sigma"] = args.sigma
        table = run_consistency(
            cs, args.kind, args.seed, sigma=args.sigma, w0=args.w0,
            n_ooc=args.n_ooc, mode=args.mode, replicates=args.replicates,
            workers=args.workers,
        )
        x_name = "c"
    cells = _band_cells(table, x_name)
    write_report_json({"config": config, "cells": cells}, args.out)
    csv_out = args.csv_out
    if csv_out is None:
        root, _ = os.path.splitext(args.out)
        csv_out = root + ".csv"
    with open(csv_out, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,m_eps,lo,hi\n")
        for cell in cells:
            fh.write(
                f"{cell[x_name]!r},{cell['m_eps']!r},{cell['lo']!r},{cell['hi']!r}\n"
            )
    worst = max(cell["m_eps"] for cell in cells)
    print(f"{args.experiment} {args.kind}: {len(cells)} cells, max m_eps {worst:.5f}")
    print(f"report: {args.out}")
    print(f"plot csv: {csv_out}")
    return 0


def _scan_frames(paths, consume):
    """Run ``consume`` on the frames of ``paths``, decoded one at a time in
    order, then decode and check every frame it left unread.

    Every file is thus checked even when only some are used, and a bad file
    anywhere outranks an error of ``consume``, as if every frame had been
    read before the first was used.
    """
    frames = iter_frames(paths)
    try:
        result = consume(frames)
    except (DimensionError, ValueError):
        collections.deque(frames, maxlen=0)
        raise
    collections.deque(frames, maxlen=0)
    return result


def cmd_monitor(args) -> int:
    if args.w0 < 2:
        raise ValueError(f"--w0 must be >= 2, got {args.w0}")
    if args.tau_from <= args.w0:
        raise ValueError(
            f"--tau-from must exceed --w0 (need {args.w0} baseline frames "
            f"before the first monitored one), got {args.tau_from}"
        )
    if args.tau_to < args.tau_from:
        raise ValueError("--tau-to must be >= --tau-from")
    paths = list_frame_dir(args.frames, args.pattern)
    if args.tau_to > len(paths):
        raise ValueError(
            f"--tau-to {args.tau_to} exceeds the {len(paths)} frames found"
        )

    def scan(frames):
        # fit_baseline draws exactly the first w0 frames, so position 0 of
        # what is left is frame w0 + 1, counting from 1.
        baseline = fit_baseline(frames, args.w0)
        readings = monitor_series(
            frames, baseline, range(args.tau_from - args.w0 - 1, args.tau_to - args.w0),
            mode=args.mode, t_offset=args.w0 + 1,
        )
        return baseline, readings

    baseline, readings = _scan_frames(paths, scan)
    write_series_csv(readings, args.out)
    print(f"monitored {len(readings)} frames ({args.tau_from}..{args.tau_to}), "
          f"sigma2_hat {baseline.sigma2_hat!r}")
    print(f"series: {args.out}")
    return 0


def cmd_verify(args) -> int:
    from .simulate import verify_bias_theorem, verify_noise_domination, verify_noise_sparsity_decay

    seed = args.seed
    if args.check == "theorem1":
        reps = args.reps if args.reps is not None else 50
        report = verify_bias_theorem(1.0, 1.0, dims=(400, 400), reps=reps, seed=seed)
        report["tolerance"] = 0.01
        passed = report["abs_diff"] < report["tolerance"]
        print(f"empirical mean gap: {report['empirical_mean_gap']:.6f}")
        print(f"predicted bias:     {report['predicted_bias']:.6f}")
        print(f"abs diff:           {report['abs_diff']:.6f} (tolerance {report['tolerance']})")
    elif args.check == "corollary1":
        reps = args.reps if args.reps is not None else 20
        report = verify_noise_domination(sigma=100.0, reps=reps, seed=seed)
        report["threshold"] = 0.95
        passed = report["min_index"] > report["threshold"]
        print(f"predicted index under dominant noise: {report['predicted']:.6f}")
        print(f"min index across {reps} replicates:    {report['min_index']:.6f} "
              f"(threshold {report['threshold']})")
    else:
        reps = args.reps if args.reps is not None else 50
        rows = verify_noise_sparsity_decay(
            [100, 1000, 10_000, 100_000], sigma=1.0, reps=reps, seed=seed
        )
        scaled = [abs(r["median_scaled"]) for r in rows]
        ratio = max(scaled) / min(scaled)
        report = {"rows": rows, "spread": ratio, "bound": 3.0}
        passed = ratio < report["bound"]
        for r in rows:
            print(f"n={r['n']:>7d} ({r['p1']}x{r['p2']}): median gap {r['median_gap']:+.6f}, "
                  f"scaled {r['median_scaled']:+.6f}")
        print(f"scaled-statistic spread: x{ratio:.3f} (bound x{report['bound']:g})")
    report["config"] = {
        "command": "verify", "check": args.check, "seed": seed, "reps": reps,
        "version": __version__,
    }
    report["passed"] = bool(passed)
    if args.out:
        write_report_json(report, args.out)
        print(f"report: {args.out}")
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "index": cmd_index,
        "simulate": cmd_simulate,
        "monitor": cmd_monitor,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (FrameFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DimensionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
