"""Acceptance gate: one test per release criterion, each printing a PASS line
with its measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

Monte Carlo criteria use the pinned master seed below; property-style
criteria aggregate medians over 20 derived replicate seeds. Wall-clock
budgets are asserted where a criterion carries one (they are sized for a
commodity multi-core laptop; the sweep drivers fan out over threads).
"""

import json
import os
import time

import numpy as np
import pytest

from hoyerstream import (
    NoiseSpec,
    hoyer_index,
    run_consistency,
    run_robustness,
    verify_bias_theorem,
    verify_noise_domination,
    verify_noise_sparsity_decay,
    windowed_reading,
)
from hoyerstream.cli import main
from hoyerstream.simulate import stream_frame_noise
from hoyerstream.stream import BaselineModel

from conftest import fixed_anomaly, hoyer_oracle, residual_stream, write_pgm

SEED = 20260810
SIGMA_GRID = [0.5 * k for k in range(1, 13)]
C_GRID = list(range(10, 101, 10))
WORKERS = min(8, os.cpu_count() or 1)


def report(criterion: str, detail: str):
    print(f"\n[acceptance] {criterion}: PASS ({detail})")


def test_c01_exact_index_values():
    assert abs(hoyer_index(np.full((9, 9), 3.3))) < 1e-12
    single = np.zeros((12, 12))
    single[4, 5] = -2.5
    assert abs(hoyer_index(single) - 1.0) < 1e-12
    dense, sparse = fixed_anomaly("dense", 100, 200), fixed_anomaly("sparse", 100, 200)
    hd, hs = hoyer_oracle(dense), hoyer_oracle(sparse)
    assert hoyer_index(dense) == pytest.approx(hd, abs=1e-9)
    assert hoyer_index(sparse) == pytest.approx(hs, abs=1e-9)
    report("C1 exact index values", f"dense {hd:.5f}, sparse {hs:.5f}")


def test_c02_robustness_pinned_seed():
    t0 = time.perf_counter()
    worst = {}
    for kind in ("dense", "sparse"):
        table = run_robustness(SIGMA_GRID, kind, SEED, workers=WORKERS)
        worst[kind] = max(band.m_eps for band in table.values())
        assert all(band.m_eps < 0.08 for band in table.values()), (kind, table)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"robustness reproduction took {elapsed:.1f}s"
    report(
        "C2 robustness (pinned seed)",
        f"max m_eps dense {worst['dense']:.4f}, sparse {worst['sparse']:.4f}, {elapsed:.1f}s",
    )


def test_c02_robustness_seed_median():
    t0 = time.perf_counter()
    worst = {}
    for kind in ("dense", "sparse"):
        table = run_robustness(SIGMA_GRID, kind, SEED, replicates=20, workers=WORKERS)
        worst[kind] = max(band.m_eps for band in table.values())
        assert all(band.m_eps < 0.08 for band in table.values()), (kind, table)
    elapsed = time.perf_counter() - t0
    report(
        "C2 robustness (median of 20 seeds)",
        f"max median m_eps dense {worst['dense']:.4f}, sparse {worst['sparse']:.4f}, {elapsed:.1f}s",
    )


def test_c03_consistency_decay():
    t0 = time.perf_counter()
    summary = []
    for kind in ("dense", "sparse"):
        table = run_consistency(C_GRID, kind, SEED, replicates=20, workers=WORKERS)
        small, large = table[10], table[100]
        assert large.m_eps < 0.5 * small.m_eps, (kind, small, large)
        assert large.width < small.width, (kind, small, large)
        summary.append(f"{kind} m: {small.m_eps:.4f}->{large.m_eps:.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"consistency reproduction took {elapsed:.1f}s"
    report("C3 consistency decay", f"{'; '.join(summary)}, {elapsed:.1f}s")


def test_c04_bias_formula_monte_carlo():
    result = verify_bias_theorem(1.0, 1.0, reps=50, seed=SEED)
    assert result["predicted_bias"] == pytest.approx(0.29289321881345254, abs=1e-12)
    assert result["abs_diff"] < 0.01
    report(
        "C4 bias formula Monte Carlo",
        f"gap {result['empirical_mean_gap']:.5f} vs 0.29289, diff {result['abs_diff']:.5f}",
    )


def test_c05_noise_sparsity_decay_bounded():
    rows = verify_noise_sparsity_decay([100, 1_000, 10_000, 100_000], reps=50, seed=SEED)
    scaled = [abs(r["median_scaled"]) for r in rows]
    spread = max(scaled) / min(scaled)
    assert spread < 3.0, rows
    report(
        "C5 noise sparsity decay",
        "scaled medians "
        + ", ".join(f"{r['median_scaled']:+.3f}" for r in rows)
        + f", spread x{spread:.2f}",
    )


def test_c06_noise_domination():
    result = verify_noise_domination(reps=20, seed=SEED)
    assert result["min_index"] > 0.95, result
    report(
        "C6 noise domination",
        f"min index {result['min_index']:.4f} over 20 reps (predicted {result['predicted']:.4f})",
    )


def test_c07_window_averaging_converges():
    sigma = 2.0
    widths = [1, 10, 100]
    lines = []
    for kind in ("dense", "sparse"):
        anomaly = fixed_anomaly(kind, 100, 200)
        h_true = hoyer_index(anomaly)
        baseline = BaselineModel(np.zeros((100, 200)), sigma * sigma, 2)
        medians = []
        for w in widths:
            errs = []
            for rep in range(20):
                frames = residual_stream(
                    anomaly, NoiseSpec(sigma, SEED + rep), n_ic=1, n_ooc=w
                )[1:]
                errs.append(abs(windowed_reading(frames, baseline).h_raw - h_true))
            medians.append(float(np.median(errs)))
        assert medians[0] > medians[1] > medians[2], (kind, medians)
        lines.append(f"{kind} " + "->".join(f"{m:.4f}" for m in medians))
    report("C7 window averaging", "; ".join(lines))


def test_c08_mode_contrast_at_high_noise():
    literal = run_robustness([6.0], "dense", SEED, mode="literal")[6.0]
    debias = run_robustness([6.0], "dense", SEED, mode="debias")[6.0]
    assert literal.m_eps > 0.3, literal
    assert debias.m_eps < 0.08, debias
    report(
        "C8 mode contrast",
        f"literal m_eps {literal.m_eps:.4f} vs debias {debias.m_eps:.4f} at sigma 6",
    )


def test_c09_simulate_determinism(tmp_path, monkeypatch, capsys):
    def run(subdir):
        d = tmp_path / subdir
        d.mkdir()
        monkeypatch.chdir(d)
        code = main(
            ["simulate", "robustness", "--kind", "sparse", "--seed", str(SEED),
             "--sigmas", "0.5", "3.0", "6.0", "--w0", "50", "--n-ooc", "50",
             "--out", "report.json", "--csv-out", "plot.csv"]
        )
        assert code == 0
        return (d / "report.json").read_bytes(), (d / "plot.csv").read_bytes()

    json1, csv1 = run("first")
    json2, csv2 = run("second")
    assert json1 == json2
    assert csv1 == csv2
    cells = json.loads(json1)["cells"]
    report("C9 determinism", f"byte-identical report ({len(cells)} cells) and plot CSV")


def test_c10_monitor_stream_shape(tmp_path, monkeypatch, capsys):
    # Synthetic stream with the real-data run's shape: 578 frames of 130 x 320,
    # 100-frame baseline, monitored positions 201..578.
    p1, p2, total, change = 130, 320, 578, 480
    mu = 600.0 + 400.0 * np.linspace(0.0, 1.0, p1)[:, None] * np.ones((1, p2))
    anomaly = np.zeros((p1, p2))
    anomaly[40:90, 100:220] = 300.0
    spec = NoiseSpec(30.0, SEED)
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    for k in range(total):
        shift = anomaly if k >= change else 0.0
        quantized = np.clip(np.rint(stream_frame_noise(p1, p2, spec, k) + shift + mu), 0, 4095)
        write_pgm(quantized, frame_dir / f"frame_{k + 1:04d}.pgm", maxval=4095)
    monkeypatch.chdir(tmp_path)
    t0 = time.perf_counter()
    code = main(
        ["monitor", "--frames", "frames", "--w0", "100", "--tau-from", "201",
         "--tau-to", "578", "--out", "series.csv"]
    )
    elapsed = time.perf_counter() - t0
    assert code == 0
    lines = (tmp_path / "series.csv").read_text().splitlines()
    assert len(lines) == 1 + 378
    assert lines[0] == "t,h_raw,bias,g,g_unclamped,a_bar,a2_bar,sigma2"
    assert [int(l.split(",")[0]) for l in lines[1:]] == list(range(201, 579))
    assert elapsed <= 30.0, f"monitor run took {elapsed:.1f}s"
    report("C10 monitor stream shape", f"378 records in {elapsed:.1f}s")
