"""Output checks for the benchmark's runs.

None of these import the package under test. Reports are read with the
``json`` module, series with plain string handling, and the raw index of
sampled series rows is recomputed from the frame files with ``math.fsum``.
Each check returns a list of failure messages; an empty list means it
passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from inputs import StreamShape, frame_name, read_p5

SERIES_HEADER = "t,h_raw,bias,g,g_unclamped,a_bar,a2_bar,sigma2"
PLOT_HEADER = "x,m_eps,lo,hi"
C2_BOUND = 0.08  # every robustness cell: mean absolute error below this
C3_RATIO = 0.5  # consistency: error at c=100 below half the error at c=10
H_RAW_TOL = 1e-9
ORACLE_ROWS = 8


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cells(report_path: Path, x_name: str, expected: list) -> tuple[list[dict], list[str]]:
    try:
        cells = json.loads(report_path.read_text())["cells"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [], [f"{report_path.name}: unreadable report ({exc})"]
    got = [cell.get(x_name) for cell in cells]
    if got != expected:
        return cells, [f"{report_path.name}: cells {got}, expected {expected}"]
    bad = [cell for cell in cells if not math.isfinite(cell.get("m_eps", math.nan))]
    if bad:
        return cells, [f"{report_path.name}: non-finite m_eps in {bad}"]
    return cells, []


def _plot_csv(csv_path: Path, rows: int) -> list[str]:
    try:
        lines = csv_path.read_text().splitlines()
    except OSError as exc:
        return [f"{csv_path.name}: unreadable ({exc})"]
    if not lines or lines[0] != PLOT_HEADER or len(lines) != rows + 1:
        return [f"{csv_path.name}: expected header {PLOT_HEADER!r} and {rows} rows"]
    return []


def check_robustness(report_path: Path, csv_path: Path, sigmas: list[float]) -> list[str]:
    """C2: every cell of the noise sweep has m_eps below 0.08."""
    cells, failures = _cells(report_path, "sigma", sigmas)
    failures += _plot_csv(csv_path, len(sigmas))
    if not failures:
        failures += [
            f"C2: sigma {c['sigma']} has m_eps {c['m_eps']!r} >= {C2_BOUND}"
            for c in cells if not c["m_eps"] < C2_BOUND
        ]
    return failures


def check_consistency(report_path: Path, csv_path: Path, cs: list[int]) -> list[str]:
    """C3: the error at c=100 is below half of the error at c=10."""
    cells, failures = _cells(report_path, "c", cs)
    failures += _plot_csv(csv_path, len(cs))
    if not failures:
        m = {c["c"]: c["m_eps"] for c in cells}
        if not m[cs[-1]] < C3_RATIO * m[cs[0]]:
            failures.append(
                f"C3: m_eps at c={cs[-1]} is {m[cs[-1]]!r}, not below "
                f"{C3_RATIO} x {m[cs[0]]!r} at c={cs[0]}"
            )
    return failures


def hoyer_oracle(values: list[float]) -> float:
    """Raw index with exactly rounded sums: (sqrt(n) - |sum| / norm) / (sqrt(n) - 1)."""
    n = len(values)
    total = math.fsum(values)
    square = math.fsum(v * v for v in values)
    if square == 0.0:
        return 1.0
    root_n = math.sqrt(n)
    h = (root_n - abs(total) / math.sqrt(square)) / (root_n - 1.0)
    return min(max(h, 0.0), 1.0)


def check_series(series_path: Path, frame_dir: Path, shape: StreamShape, mean: np.ndarray) -> list[str]:
    """Row count, ``t`` labels, and h_raw of sampled rows against the oracle."""
    try:
        lines = series_path.read_text().splitlines()
    except OSError as exc:
        return [f"{series_path.name}: unreadable ({exc})"]
    if not lines or lines[0] != SERIES_HEADER:
        return [f"{series_path.name}: header is not {SERIES_HEADER!r}"]
    rows = [line.split(",") for line in lines[1:]]
    expected_t = list(range(shape.tau_from, shape.tau_to + 1))
    if len(rows) != len(expected_t):
        return [f"{series_path.name}: {len(rows)} rows, expected {len(expected_t)}"]
    try:
        labels = [int(row[0]) for row in rows]
    except ValueError:
        return [f"{series_path.name}: non-integer t label"]
    if labels != expected_t:
        return [f"{series_path.name}: t labels are not {shape.tau_from}..{shape.tau_to}"]
    failures = []
    last = len(rows) - 1
    for i in sorted({round(k * last / (ORACLE_ROWS - 1)) for k in range(ORACLE_ROWS)}):
        t = labels[i]
        residual = read_p5(frame_dir / frame_name(t)).astype(np.float64) - mean
        expected = hoyer_oracle(residual.ravel().tolist())
        try:
            got = float(rows[i][1])
        except (IndexError, ValueError):
            failures.append(f"{series_path.name}: row t={t} has no numeric h_raw")
            continue
        if not abs(got - expected) <= H_RAW_TOL:
            failures.append(f"{series_path.name}: t={t} h_raw {got!r}, oracle {expected!r}")
    return failures
