#!/usr/bin/env python3
"""Benchmark of the hoyerstream command line, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Every measured run is a fresh child process of the real CLI,
``python -m hoyerstream.cli ...`` with ``PYTHONPATH=src`` and no install.
Inputs come from ``--seed`` and are made before timing starts. One untimed
warm-up run comes first (for the sweeps, one short cell down the same code
paths), so the page cache is warm and cold reads are not measured.

Workloads:
  robustness   ``simulate robustness --kind dense --workers 2`` over the
               default sigma grid 0.5..6.0: 12 cells x 400 frames of 100x200.
               Residual signs go from one-sided (sigma 0.5) to fully mixed
               (sigma >= 3). The only workload that fans cells out over
               threads; frame I/O is idle.
  consistency  ``simulate consistency --kind sparse --workers 1
               --replicates 3`` over the default c grid 10..100: frames of
               200 to 20,000 entries, so fixed per-call costs in the stream
               and index layers show. The single-threaded baseline of the
               sweep driver: a fan-out change should not move it.
  monitor      ``monitor --w0 100`` over a generated directory of 578 P5
               frames, 240x320, 16-bit (maxval 4095), with a patch change
               near the end. Exercises PGM decoding, directory loading, the
               baseline fit and mixed-sign readings, with simulation idle;
               resident frames dominate memory.

End-to-end metrics (``--trace 0``), medians over the runs made in S seconds
(at least three):
  frames_per_s  stream frames per wall second, child launch to exit.
  peak_rss_mb   peak resident memory of the run's own child (from wait4).
  setup_s       launch to exit of ``python -m hoyerstream.cli --version``.
  pass_rate     runs that exited 0 and passed every output check, over
                runs attempted (the result line carries the failures).

Per-layer metrics (``--trace 1``), and the end-to-end metric each should move:
  simulate.noise_frame_us, simulate.cell_s  frames_per_s of robustness and
      consistency, not monitor.
  simulate.sweep_scaling  frames/s at 2 workers over 1 worker on a
      robustness grid: robustness frames_per_s, not consistency.
  kernels.stats_{mixed,onesided}_us_*  monitor frames_per_s (the baseline
      fit reads every frame) and robustness. cancel_rel_err is the kernel's
      error on a cancelling sum; a guard.
  stream.fit_baseline_s  monitor frames_per_s and peak_rss_mb.
  stream.reading_us_p50, _p90  consistency frames_per_s.
  stream.mixed_sign_share  readings that warn of mixed sign, over readings:
      the workload property that sets kernel cost.
  frameio.read_frame_dir_s, read_pgm_us, resident_frames_mb  monitor
      frames_per_s and peak_rss_mb.
  frameio.write_series_ms, write_report_ms  guards: nothing should move them.
  cli.self_s  CLI wall time minus the time of its calls into the layers.
  trace.*  traced and untraced frames/s of the same CLI run: the overhead.

The traced run alternates untraced and traced CLI runs for S seconds; the
traced ones run under ``traced_cli.py``, which records spans at every
cross-module call. ``layers.py`` then times each layer's public calls.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Machine facts,
per-run samples, output hashes, check results and spans are written to
``perfbench/.results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import inputs
from tracing import self_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_RUNS = 3
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150.0
DEFAULT_SIGMAS = [0.5 * k for k in range(1, 13)]
DEFAULT_CS = list(range(10, 101, 10))
CONSISTENCY_REPLICATES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FACTS_CODE = (
    "import json, sys, numpy, hoyerstream;"
    "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
    " 'hoyerstream': getattr(hoyerstream, '__version__', None),"
    " 'backend': getattr(hoyerstream, 'BACKEND', None)}))"
)


@dataclass(frozen=True)
class Plan:
    """One workload: CLI arguments, work per run, and how to check its outputs."""

    cli_args: list[str]
    warmup_args: list[str]  # a short run down the same code paths
    frames: int  # stream frames one run processes
    readings: int  # corrected readings one run makes
    outputs: tuple[str, ...]  # files one run writes in its working directory
    check: Callable[[Path], list[str]]


@dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: Path


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    samples: list[dict] = field(default_factory=list)
    hashes: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def launch(argv: list[str], cwd: Path, log: Path) -> ChildRun:
    """Run one child to completion: its wall and CPU time and its own peak RSS."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    # ru_maxrss is in KiB on Linux.
    return ChildRun(proc.returncode, wall, cpu, usage.ru_maxrss * 1024 / 1e6, log)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "hoyerstream.cli", *args]


def monitor_inputs(work: Path, seed: int, tiny: bool) -> tuple[Path, inputs.StreamShape]:
    """The seeded monitor stream, written once per benchmark run."""
    shape = inputs.MONITOR_TINY if tiny else inputs.MONITOR_FULL
    frame_dir = work / "frames"
    if not frame_dir.is_dir():
        inputs.write_monitor_frames(frame_dir, shape, seed)
    return frame_dir, shape


def make_plan(workload: str, seed: int, tiny: bool, work: Path) -> Plan:
    workers = str(min(2, len(os.sched_getaffinity(0))))
    if workload == "robustness":
        sigmas = [0.5, 2.0] if tiny else DEFAULT_SIGMAS
        w0 = n_ooc = 20 if tiny else 200
        size = ["--sigmas", "0.5", "2.0", "--w0", "20", "--n-ooc", "20"] if tiny else []
        args = ["simulate", "robustness", "--kind", "dense", "--seed", str(seed),
                "--workers", workers, "--out", "report.json", *size]
        return Plan(
            args,
            args + ["--sigmas", "0.5", "--w0", "20", "--n-ooc", "20"],
            frames=len(sigmas) * (w0 + n_ooc),
            readings=len(sigmas) * n_ooc,
            outputs=("report.json", "report.csv"),
            check=lambda d: checks.check_robustness(d / "report.json", d / "report.csv", sigmas),
        )
    if workload == "consistency":
        cs = [10, 100] if tiny else DEFAULT_CS
        reps = 1 if tiny else CONSISTENCY_REPLICATES
        w0 = n_ooc = 20 if tiny else 200
        size = ["--cs", "10", "100", "--w0", "20", "--n-ooc", "20"] if tiny else []
        args = ["simulate", "consistency", "--kind", "sparse", "--seed", str(seed),
                "--workers", "1", "--replicates", str(reps), "--out", "report.json", *size]
        return Plan(
            args,
            args + ["--cs", "10", "--w0", "20", "--n-ooc", "20", "--replicates", "1"],
            frames=len(cs) * reps * (w0 + n_ooc),
            readings=len(cs) * reps * n_ooc,
            outputs=("report.json", "report.csv"),
            check=lambda d: checks.check_consistency(d / "report.json", d / "report.csv", cs),
        )
    if workload == "monitor":
        frame_dir, shape = monitor_inputs(work, seed, tiny)
        mean = inputs.baseline_mean(frame_dir, shape.w0)
        args = ["monitor", "--frames", str(frame_dir), "--pattern", "*.pgm", "--w0", str(shape.w0),
                "--tau-from", str(shape.tau_from), "--tau-to", str(shape.tau_to), "--out", "series.csv"]
        return Plan(
            args,
            args,
            frames=shape.total,
            readings=shape.tau_to - shape.tau_from + 1,
            outputs=("series.csv",),
            check=lambda d: checks.check_series(d / "series.csv", frame_dir, shape, mean),
        )
    raise ValueError(f"unknown workload {workload!r}")


def run_checked(plan: Plan, argv: list[str], out_dir: Path, tally: Tally, kind: str) -> None:
    """Run the workload once, check its outputs, and count the attempt."""
    for name in plan.outputs:
        (out_dir / name).unlink(missing_ok=True)
    run = launch(argv, out_dir, out_dir / f"{kind}.log")
    failures = [] if run.code == 0 else [f"exit code {run.code}: {run.log.read_text()[-400:]}"]
    if not failures:
        failures = plan.check(out_dir)
    hashes = {}
    for name in plan.outputs:
        path = out_dir / name
        if path.is_file():
            hashes[name] = checks.sha256(path)
            first = tally.hashes.setdefault(name, hashes[name])
            if hashes[name] != first:
                failures.append(f"{name}: bytes differ from the first run of this seed")
    tally.attempted += 1
    tally.failed += bool(failures)
    tally.samples.append({
        "kind": kind, "code": run.code, "wall_s": run.wall_s, "cpu_s": run.cpu_s,
        "peak_rss_mb": run.peak_rss_mb,
        "frames_per_s": plan.frames / run.wall_s, "sha256": hashes, "failures": failures,
    })


def warm_up(plan: Plan, out_dir: Path) -> None:
    """One untimed run, so the page cache holds the interpreter, the package and the inputs."""
    run = launch(cli_argv(plan.warmup_args), out_dir, out_dir / "warmup.log")
    if run.code != 0:
        raise RuntimeError(f"warm-up run failed ({run.code}): {run.log.read_text()[-400:]}")


def setup_seconds(work: Path, probes: int) -> list[float]:
    times = []
    for _ in range(probes):
        run = launch(cli_argv(["--version"]), work, work / "setup.log")
        text = run.log.read_text()
        if run.code != 0 or not text.startswith("hoyerstream "):
            raise RuntimeError(f"`hoyerstream.cli --version` failed ({run.code}): {text[-400:]}")
        times.append(run.wall_s)
    return times


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def machine_facts(work: Path) -> dict:
    run = launch([sys.executable, "-c", FACTS_CODE], work, work / "facts.log")
    if run.code != 0:
        raise RuntimeError(f"package import failed: {run.log.read_text()[-400:]}")
    facts = json.loads(run.log.read_text().splitlines()[-1])
    facts.update({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        # Left as the user has them: NumPy's BLAS threads run beside the
        # sweep's worker threads, and that contention is part of what is measured.
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "page_cache": "warm: an untimed warm-up run precedes timing; cold reads are not measured",
    })
    if (work / "frames").is_dir():
        facts["frame_dir"] = inputs.dir_size(work / "frames")
    return facts


def measure_untraced(plan: Plan, seconds: float, out_dir: Path, work: Path, tally: Tally, details: dict) -> dict:
    argv = cli_argv(plan.cli_args)
    warm_up(plan, out_dir)
    # Set-up time drifts with machine load over seconds, so the probes are
    # spread over the whole measurement instead of taken in one burst.
    setup = []
    start = time.perf_counter()
    while tally.attempted < MIN_RUNS or time.perf_counter() - start < seconds:
        setup += setup_seconds(work, 1)
        run_checked(plan, argv, out_dir, tally, "run")
    setup += setup_seconds(work, SETUP_PROBES - len(setup))
    details["setup_s"] = setup
    ok = [s for s in tally.samples if not s["failures"]]
    if not ok:
        raise RuntimeError("every measured run failed")
    return {
        "frames_per_s": statistics.median(s["frames_per_s"] for s in ok),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ok),
        "setup_s": statistics.median(setup),
        "pass_rate": (tally.attempted - tally.failed) / tally.attempted,
    }


def measure_traced(plan: Plan, seed: int, seconds: float, out_dir: Path, work: Path,
                   tally: Tally, tiny: bool, details: dict) -> dict:
    untraced_argv = cli_argv(plan.cli_args)
    warm_up(plan, out_dir)
    traced = []
    start = time.perf_counter()
    pair = 0
    while pair == 0 or time.perf_counter() - start < seconds:
        spans_path = work / f"cli-{pair}.json"
        traced_argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *plan.cli_args]
        order = [("untraced", untraced_argv), ("traced", traced_argv)]
        for kind, argv in order if pair % 2 == 0 else reversed(order):
            run_checked(plan, argv, out_dir, tally, kind)
        if not spans_path.is_file():
            raise RuntimeError("the traced CLI run wrote no spans")
        trace = json.loads(spans_path.read_text())
        root = next(s["id"] for s in trace["spans"] if s["name"] == "cli.main")
        traced.append({
            "self_s": self_time(trace["spans"], root),
            "mixed": trace["counts"]["mixed_sign_warnings"],
        })
        if pair == 0:
            details["spans"] = trace["spans"]
        pair += 1
    rates = {}
    for kind in ("untraced", "traced"):
        ok = [s["frames_per_s"] for s in tally.samples if s["kind"] == kind and not s["failures"]]
        if not ok:
            raise RuntimeError(f"every {kind} run failed")
        rates[kind] = statistics.median(ok)

    frame_dir, shape = monitor_inputs(work, seed, tiny)
    layers_out = work / "layers.json"
    run = launch(
        [sys.executable, str(BENCH / "layers.py"), "--frames", str(frame_dir), "--w0", str(shape.w0),
         "--tau-from", str(shape.tau_from), "--tau-to", str(shape.tau_to), "--seed", str(seed),
         "--out", str(layers_out), *(["--tiny"] if tiny else [])],
        work, work / "layers.log",
    )
    if run.code != 0:
        raise RuntimeError(f"layer suite failed: {run.log.read_text()[-800:]}")
    layers = json.loads(layers_out.read_text())
    details["spans"] += layers["spans"]
    details["traced_runs"] = traced
    return {
        **layers["metrics"],
        "stream.mixed_sign_share": statistics.median(t["mixed"] for t in traced) / plan.readings,
        "cli.self_s": statistics.median(t["self_s"] for t in traced),
        "trace.untraced_frames_per_s": rates["untraced"],
        "trace.traced_frames_per_s": rates["traced"],
        "trace.overhead_ratio": rates["untraced"] / rates["traced"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("robustness", "consistency", "monitor"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args()
    # Turn a termination request into an exception, so the running child is
    # stopped and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "hoyerstream" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'hoyerstream'} not found; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    seed = args.seed % 2**63

    work = BENCH / ".work" / f"{args.workload}-{seed}-{os.getpid()}"
    out_dir = work / "out"
    out_dir.mkdir(parents=True)
    tally = Tally()
    details: dict = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
                     "trace": args.trace, "tiny": args.tiny}
    try:
        plan = make_plan(args.workload, seed, args.tiny, work)
        details["cli_args"] = plan.cli_args
        if args.trace:
            metrics = measure_traced(plan, seed, args.seconds, out_dir, work, tally, args.tiny, details)
        else:
            metrics = measure_untraced(plan, args.seconds, out_dir, work, tally, details)
        details["facts"] = machine_facts(work)
    except RuntimeError as exc:
        for sample in tally.samples:
            for failure in sample["failures"]:
                print(f"check failed ({sample['kind']}): {failure}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    details.update(result=result, samples=tally.samples, checks_run=tally.attempted)
    results = BENCH / ".results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(details, indent=1))

    print(f"{args.workload}: {tally.attempted} runs, {tally.failed} failed; facts {json.dumps(details['facts'])}")
    for sample in tally.samples:
        for failure in sample["failures"]:
            print(f"  check failed ({sample['kind']}): {failure}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
