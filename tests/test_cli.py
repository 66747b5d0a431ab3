"""Command-line behaviour: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hoyerstream
from hoyerstream import (
    MOMENT_MODES,
    NoiseSpec,
    fit_baseline,
    hoyer_index,
    make_sparse_anomaly,
    monitor_series,
    simulate_residual_stream,
)
from hoyerstream.cli import main
from hoyerstream.frameio import read_frame_dir, write_matrix_csv, write_pgm, write_series_csv

SPARSE_H = 0.7819222273431695


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestIndex:
    def test_sparse_pattern_csv(self, in_tmp, capsys):
        write_matrix_csv(make_sparse_anomaly(100, 200), "a.csv")
        assert main(["index", "a.csv"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(SPARSE_H, abs=1e-9)

    def test_zero_matrix_notes_convention(self, in_tmp, capsys):
        write_matrix_csv(np.zeros((4, 4)), "z.csv")
        assert main(["index", "z.csv"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "1.0"
        assert "blank-frame convention" in captured.err

    def test_missing_file_exit_3(self, in_tmp, capsys):
        assert main(["index", "nope.csv"]) == 3
        assert "nope.csv" in capsys.readouterr().err

    def test_with_baseline_prints_record_line(self, in_tmp, capsys):
        mu = np.full((100, 200), 7.0)
        os.mkdir("ic")
        for k in range(3):
            write_matrix_csv(mu, f"ic/frame_{k}.csv")
        write_matrix_csv(mu + make_sparse_anomaly(100, 200), "x.csv")
        assert main(["index", "x.csv", "--baseline", "ic", "--w0", "3"]) == 0
        fields = capsys.readouterr().out.strip().split(",")
        assert len(fields) == 8
        assert float(fields[3]) == pytest.approx(SPARSE_H, abs=1e-9)  # g
        assert float(fields[2]) == 0.0  # bias: identical frames give sigma2 = 0

    def test_baseline_w0_below_2_exit_2_names_w0(self, in_tmp, capsys):
        os.mkdir("ic")
        for k in range(3):
            write_matrix_csv(np.full((4, 5), 7.0), f"ic/frame_{k}.csv")
        write_matrix_csv(np.full((4, 5), 8.0), "x.csv")
        assert main(["index", "x.csv", "--baseline", "ic", "--w0", "0"]) == 2
        assert capsys.readouterr().err == "error: w0 must be >= 2, got 0\n"
        # The w0 is refused before any frame is decoded, so an undecodable
        # file in the directory does not turn it into an I/O error.
        with open("ic/frame_3.csv", "wb") as fh:
            fh.write(b"\xff,1\n")
        assert main(["index", "x.csv", "--baseline", "ic", "--w0", "1"]) == 2
        assert capsys.readouterr().err == "error: w0 must be >= 2, got 1\n"

    def test_bad_dims_exit_2(self, in_tmp, capsys):
        write_matrix_csv(np.ones((1, 1)), "tiny.csv")
        assert main(["index", "tiny.csv"]) == 2


class TestSimulate:
    def run(self, *extra, experiment="robustness"):
        return main(
            ["simulate", experiment, "--kind", "dense", "--seed", "3",
             "--sigmas", "0.5", "1.0", "--w0", "30", "--n-ooc", "20",
             "--out", "report.json", *extra]
        )

    def test_report_and_csv(self, in_tmp, capsys):
        assert self.run() == 0
        report = json.loads(open("report.json").read())
        assert report["config"]["seed"] == 3
        assert report["config"]["mode"] == "debias"
        assert report["config"]["sigmas"] == [0.5, 1.0]
        assert len(report["cells"]) == 2
        for cell in report["cells"]:
            assert set(cell) == {"sigma", "m_eps", "sigma_eps", "lo", "hi"}
        lines = open("report.csv").read().splitlines()
        assert lines[0] == "x,m_eps,lo,hi"
        assert len(lines) == 3

    def test_byte_identical_reruns(self, in_tmp):
        self.run()
        first_json = open("report.json", "rb").read()
        first_csv = open("report.csv", "rb").read()
        self.run()
        assert open("report.json", "rb").read() == first_json
        assert open("report.csv", "rb").read() == first_csv
        # The default runs on one thread; a pool changes no byte.
        assert self.run("--workers", "2") == 0
        assert open("report.json", "rb").read() == first_json
        assert open("report.csv", "rb").read() == first_csv

    def test_consistency_grid_validation(self, in_tmp, capsys):
        code = main(
            ["simulate", "consistency", "--kind", "dense", "--cs", "15",
             "--out", "r.json"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "bad",
        [
            ["--replicates", "0"], ["--replicates", "-2"], ["--workers", "-1"],
            ["--workers", "0"],
            ["--n-ooc", "1"], ["--n-ooc", "0"], ["--w0", "1"],
            ["--sigmas", "0.5", "0.0"], ["--sigmas", "0.5", "nan"], ["--seed", "-1"],
            ["--sigmas", "1", "1.0"], ["--cs", "10", "10"],
        ],
    )
    def test_bad_count_exit_2_and_no_report(self, in_tmp, capsys, bad):
        # Refused before any cell runs, with a message that names the
        # parameter (and a repeated grid value, the value).
        experiment = "consistency" if bad[0] == "--cs" else "robustness"
        assert self.run(*bad, experiment=experiment) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert bad[0].lstrip("-").replace("-", "_") in captured.err
        if bad in (["--sigmas", "1", "1.0"], ["--cs", "10", "10"]):
            assert f"repeats the value {bad[2]}" in captured.err
        assert captured.out == ""
        assert not (in_tmp / "report.json").exists()
        assert not (in_tmp / "report.csv").exists()

    def test_default_grid_robustness_report(self, in_tmp):
        # Bare invocation reproduces the standard sweep: 12 noise levels,
        # every cell's mean error under 0.08.
        code = main(
            ["simulate", "robustness", "--kind", "dense", "--seed", "1",
             "--out", "full.json"]
        )
        assert code == 0
        report = json.loads(open("full.json").read())
        assert [c["sigma"] for c in report["cells"]] == [0.5 * k for k in range(1, 13)]
        assert all(c["m_eps"] < 0.08 for c in report["cells"])

    def test_consistency_small_run(self, in_tmp):
        code = main(
            ["simulate", "consistency", "--kind", "sparse", "--cs", "10", "20",
             "--w0", "30", "--n-ooc", "20", "--out", "c.json",
             "--csv-out", "cplot.csv"]
        )
        assert code == 0
        report = json.loads(open("c.json").read())
        assert [cell["c"] for cell in report["cells"]] == [10, 20]
        assert open("cplot.csv").read().splitlines()[0] == "x,m_eps,lo,hi"


_SWEEP_MODULES = (
    "import sys\n"
    "from hoyerstream import cli\n"
    "code = cli.main(['simulate', 'consistency', '--kind', 'sparse', '--cs', '10', '20',\n"
    "                 '--w0', '20', '--n-ooc', '10', '--replicates', '3', '--out', 'r.json'])\n"
    "code |= cli.main(['verify', 'corollary1', '--reps', '2'])\n"
    "print(code, 'numpy.ma' in sys.modules, 'concurrent.futures' in sys.modules)\n"
)


def test_replicate_sweep_does_not_import_numpy_ma(tmp_path):
    # The replicate medians are taken without np.median, which imports
    # numpy.ma on first use (about 20 ms of a fresh process), and a serial
    # sweep or a verify check never loads the thread pool. A fresh
    # interpreter, so no other test has imported them first.
    src = str(Path(hoyerstream.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _SWEEP_MODULES],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.splitlines()[-1] == "0 False False", done.stdout + done.stderr


_READ_ONLY_MODULES = (
    "import sys\n"
    "import hoyerstream.cli\n"
    "loaded = {'hoyerstream.simulate', 'concurrent.futures'} & set(sys.modules)\n"
    "code = hoyerstream.cli.main(['monitor', '--frames', 'frames', '--w0', '4',\n"
    "                             '--tau-from', '5', '--tau-to', '8', '--out', 's.csv'])\n"
    "code |= hoyerstream.cli.main(['index', 'frames/f_8.pgm', '--baseline', 'frames',\n"
    "                              '--w0', '4'])\n"
    "loaded |= {'hoyerstream.simulate', 'concurrent.futures'} & set(sys.modules)\n"
    "print(code, sorted(loaded))\n"
)


def test_monitor_and_index_do_not_import_the_simulation(tmp_path):
    # The simulation and its thread pool are loaded only by the commands
    # that run it. A fresh interpreter, so no other test has imported them.
    (tmp_path / "frames").mkdir()
    rng = np.random.Generator(np.random.Philox(8))
    for k in range(1, 9):
        write_pgm(np.rint(500.0 + 20.0 * rng.standard_normal((6, 8))),
                  tmp_path / "frames" / f"f_{k}.pgm", maxval=1023)
    src = str(Path(hoyerstream.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _READ_ONLY_MODULES],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.splitlines()[-1] == "0 []", done.stdout + done.stderr


_RUN_OUTPUTS = (
    "import sys\n"
    "from hoyerstream import cli\n"
    "out = sys.argv[1]\n"
    "sys.exit(cli.main(['simulate', 'robustness', '--kind', 'dense', '--seed', '7',\n"
    "                   '--out', out + '/r.json'])\n"
    "         or cli.main(['monitor', '--frames', 'frames', '--w0', '10', '--tau-from', '11',\n"
    "                      '--tau-to', '30', '--out', out + '/s.csv']))\n"
)


def _enabled_dispatch_targets() -> list[str]:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def test_outputs_do_not_depend_on_cpu_dispatch(tmp_path):
    # NumPy picks SIMD kernels at import, from the CPU features beyond its
    # build baseline; NPY_DISABLE_CPU_FEATURES switches them off. A seed-7
    # robustness report and a 16-bit PGM monitor series must have the same
    # bytes with every such target this CPU enables and with none of them.
    targets = _enabled_dispatch_targets()
    if not targets:
        pytest.skip("this CPU enables no NumPy dispatch target")
    frames = simulate_residual_stream(
        make_sparse_anomaly(12, 60) * 40.0, NoiseSpec(20.0, 3), 20, 10
    )
    (tmp_path / "frames").mkdir()
    for k, frame in enumerate(frames, start=1):
        write_pgm(np.rint(frame + 1000.0), tmp_path / "frames" / f"f_{k:02d}.pgm", maxval=4095)
    src = str(Path(hoyerstream.__file__).resolve().parent.parent)
    outputs = []
    for disabled in (None, " ".join(targets)):
        env = dict(os.environ)
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / ("baseline" if disabled else "dispatched")
        out.mkdir()
        subprocess.run(
            [sys.executable, "-c", _RUN_OUTPUTS, str(out)],
            cwd=tmp_path, env=env, capture_output=True, timeout=120, check=True,
        )
        outputs.append([(out / name).read_bytes() for name in ("r.csv", "s.csv")])
    assert outputs[0] == outputs[1], targets


class TestMonitor:
    def write_stream(self, n_ic=25, n_ooc=15, shape=(20, 30), sigma=0.5, seed=5):
        mu = np.full(shape, 100.0)
        anomaly = 10.0 * make_sparse_anomaly(*shape) / 5.0
        frames = simulate_residual_stream(anomaly, NoiseSpec(sigma, seed), n_ic, n_ooc)
        os.mkdir("frames")
        for k in range(len(frames)):
            write_matrix_csv(frames[k] + mu, f"frames/f_{k + 1:03d}.csv")
        return n_ic + n_ooc

    def test_series_row_count_and_profile(self, in_tmp, capsys):
        total = self.write_stream()
        code = main(
            ["monitor", "--frames", "frames", "--w0", "20", "--tau-from", "21",
             "--tau-to", "40", "--mode", "literal", "--out", "series.csv"]
        )
        assert code == 0
        lines = open("series.csv").read().splitlines()
        assert lines[0] == "t,h_raw,bias,g,g_unclamped,a_bar,a2_bar,sigma2"
        assert len(lines) == 1 + 20
        ts = [int(line.split(",")[0]) for line in lines[1:]]
        assert ts == list(range(21, 41))
        gs = {t: float(line.split(",")[3]) for t, line in zip(ts, lines[1:])}
        # change sits at position 25 (1-based 26): before it noise, after it the band
        assert all(gs[t] > 0.9 for t in range(21, 26))
        band_h = hoyer_index(10.0 * make_sparse_anomaly(20, 30) / 5.0)
        assert all(abs(gs[t] - band_h) < 0.1 for t in range(27, 41))

    @pytest.mark.parametrize("mode", MOMENT_MODES)
    def test_series_is_the_library_series(self, in_tmp, mode):
        # The command and the library share one reading path: the same
        # frames, window and range give the same bytes either way.
        self.write_stream()
        code = main(
            ["monitor", "--frames", "frames", "--w0", "20", "--tau-from", "23",
             "--tau-to", "37", "--mode", mode, "--out", "cli.csv"]
        )
        assert code == 0
        frames = read_frame_dir("frames")
        baseline = fit_baseline(frames[:20])
        readings = monitor_series(frames, baseline, range(22, 37), mode=mode, t_offset=1)
        write_series_csv(readings, "lib.csv")
        assert open("cli.csv", "rb").read() == open("lib.csv", "rb").read()

    def test_tau_from_must_exceed_w0(self, in_tmp, capsys):
        self.write_stream(n_ic=6, n_ooc=2)
        code = main(
            ["monitor", "--frames", "frames", "--w0", "6", "--tau-from", "6",
             "--tau-to", "8", "--out", "s.csv"]
        )
        assert code == 2
        assert "tau-from" in capsys.readouterr().err

    def test_tau_to_beyond_stream(self, in_tmp, capsys):
        self.write_stream(n_ic=6, n_ooc=2)
        code = main(
            ["monitor", "--frames", "frames", "--w0", "4", "--tau-from", "5",
             "--tau-to", "99", "--out", "s.csv"]
        )
        assert code == 2

    def test_bad_file_after_monitored_range_exit_3(self, in_tmp, capsys):
        total = self.write_stream(n_ic=6, n_ooc=4)
        with open(f"frames/f_{total:03d}.csv", "a") as fh:
            fh.write("1,oops\n")
        code = main(
            ["monitor", "--frames", "frames", "--w0", "4", "--tau-from", "5",
             "--tau-to", "6", "--out", "s.csv"]
        )
        assert code == 3
        assert f"f_{total:03d}.csv" in capsys.readouterr().err
        assert not os.path.exists("s.csv")

    def test_mismatched_frame_after_monitored_range_exit_2(self, in_tmp, capsys):
        total = self.write_stream(n_ic=6, n_ooc=4)
        write_matrix_csv(np.zeros((3, 3)), f"frames/f_{total + 1:03d}.csv")
        code = main(
            ["monitor", "--frames", "frames", "--w0", "4", "--tau-from", "5",
             "--tau-to", "6", "--out", "s.csv"]
        )
        assert code == 2
        assert f"f_{total + 1:03d}.csv" in capsys.readouterr().err
        assert not os.path.exists("s.csv")

    PEAK_SHAPE = (96, 128)

    def write_noise_frames(self, name, count, rng):
        os.mkdir(name)
        for k in range(count):
            frame = np.rint(1000.0 + 30.0 * rng.standard_normal(self.PEAK_SHAPE))
            write_pgm(frame, f"{name}/f_{k + 1:04d}.pgm", maxval=4095)

    def monitor_peak(self, name, w0, tau_from, tau_to):
        """Traced peak of one in-process ``monitor`` run, in bytes."""
        tracemalloc.start()
        try:
            code = main(
                ["monitor", "--frames", name, "--w0", str(w0), "--tau-from", str(tau_from),
                 "--tau-to", str(tau_to), "--out", f"{name}-{w0}.csv"]
            )
            assert code == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_independent_of_stream_length(self, in_tmp):
        # Same baseline window and monitored range over 60 and 240 frames:
        # the traced peak may differ by bookkeeping, not by frames held.
        rng = np.random.Generator(np.random.Philox(3))
        self.write_noise_frames("short", 60, rng)
        self.write_noise_frames("long", 240, rng)
        self.monitor_peak("short", 20, 21, 30)  # warm-up: first-call caches stay out
        short = self.monitor_peak("short", 20, 21, 30)
        long = self.monitor_peak("long", 20, 21, 30)
        frame_bytes = self.PEAK_SHAPE[0] * self.PEAK_SHAPE[1] * 8
        assert long - short <= 3 * frame_bytes, (short, long)

    def test_peak_memory_independent_of_w0(self, in_tmp):
        # Baseline windows of 20 and 200 frames, same monitored range: the
        # traced peak may differ by bookkeeping, not by frames held.
        self.write_noise_frames("frames", 210, np.random.Generator(np.random.Philox(4)))
        self.monitor_peak("frames", 20, 201, 210)  # warm-up
        short = self.monitor_peak("frames", 20, 201, 210)
        long = self.monitor_peak("frames", 200, 201, 210)
        frame_bytes = self.PEAK_SHAPE[0] * self.PEAK_SHAPE[1] * 8
        assert abs(long - short) < 3 * frame_bytes, (short, long)

    def test_missing_frame_dir_exit_3(self, in_tmp):
        code = main(
            ["monitor", "--frames", "absent", "--w0", "4", "--tau-from", "5",
             "--tau-to", "6", "--out", "s.csv"]
        )
        assert code == 3


class TestVerify:
    def test_theorem1_passes(self, in_tmp, capsys):
        assert main(["verify", "theorem1", "--reps", "20", "--out", "v.json"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        report = json.loads(open("v.json").read())
        assert report["passed"] is True
        assert report["config"]["check"] == "theorem1"
        assert report["abs_diff"] < 0.01

    def test_corollary1_passes(self, in_tmp, capsys):
        assert main(["verify", "corollary1", "--reps", "5"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_lemma2_passes(self, in_tmp, capsys):
        assert main(["verify", "lemma2", "--reps", "30"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "n=" in out

    @pytest.mark.parametrize("check, reps", [("lemma2", "0"), ("corollary1", "0"), ("theorem1", "1")])
    def test_too_few_reps_exit_2_and_no_report(self, in_tmp, capsys, check, reps):
        assert main(["verify", check, "--reps", reps, "--out", "v.json"]) == 2
        captured = capsys.readouterr()
        assert "error: reps must be >=" in captured.err
        assert captured.out == ""
        assert not (in_tmp / "v.json").exists()

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus-check"])
        assert exc.value.code == 2
