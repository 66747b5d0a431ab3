"""Seeded workload inputs, made with NumPy alone.

The inputs do not come from the package under test, so a change to the
package cannot change what it is measured on. The monitor stream is shaped
like the package's c10 acceptance stream, scaled to 240x320: a vertical
intensity gradient, 16-bit samples (maxval 4095), white noise, and a
rectangular patch that switches on near the end of the stream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAXVAL = 4095
NOISE_SIGMA = 30.0
PATCH_LEVEL = 300.0
_P5_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


@dataclass(frozen=True)
class StreamShape:
    p1: int
    p2: int
    total: int
    change: int  # frames after this 1-based position carry the patch
    w0: int
    tau_from: int
    tau_to: int


MONITOR_FULL = StreamShape(p1=240, p2=320, total=578, change=480, w0=100, tau_from=201, tau_to=578)
MONITOR_TINY = StreamShape(p1=24, p2=32, total=40, change=30, w0=10, tau_from=21, tau_to=40)


def frame_name(position: int) -> str:
    return f"frame_{position:04d}.pgm"


def write_monitor_frames(frame_dir: Path, shape: StreamShape, seed: int) -> None:
    """Write the seeded P5 stream into ``frame_dir``, frames numbered from 1."""
    frame_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(1,))))
    mu = 600.0 + 400.0 * np.linspace(0.0, 1.0, shape.p1)[:, None] * np.ones((1, shape.p2))
    patch = np.zeros((shape.p1, shape.p2))
    patch[shape.p1 * 4 // 13 : shape.p1 * 9 // 13, shape.p2 * 5 // 16 : shape.p2 * 11 // 16] = PATCH_LEVEL
    header = f"P5\n{shape.p2} {shape.p1}\n{MAXVAL}\n".encode("ascii")
    for position in range(1, shape.total + 1):
        frame = mu + NOISE_SIGMA * rng.standard_normal((shape.p1, shape.p2))
        if position > shape.change:
            frame += patch
        pixels = np.clip(np.rint(frame), 0, MAXVAL).astype(">u2")
        (frame_dir / frame_name(position)).write_bytes(header + pixels.tobytes())


def read_p5(path: Path) -> np.ndarray:
    """Integer samples of a P5 file in the layout ``write_monitor_frames`` uses."""
    data = path.read_bytes()
    match = _P5_HEADER.match(data)
    if match is None:
        raise ValueError(f"{path}: not a P5 file")
    width, height, maxval = (int(g) for g in match.groups())
    dtype = ">u2" if maxval > 255 else np.uint8
    return np.frombuffer(data[match.end():], dtype=dtype).reshape(height, width)


def baseline_mean(frame_dir: Path, w0: int) -> np.ndarray:
    """Mean of the first ``w0`` frames; the integer sum is exact."""
    total = sum(read_p5(frame_dir / frame_name(k)).astype(np.int64) for k in range(1, w0 + 1))
    return total / float(w0)


def dir_size(frame_dir: Path) -> dict:
    files = [p for p in frame_dir.iterdir() if p.is_file()]
    stats = [p.stat() for p in files]
    return {
        "files": len(files),
        "bytes": sum(s.st_size for s in stats),
        "bytes_on_disk": sum(s.st_blocks * 512 for s in stats),
    }
