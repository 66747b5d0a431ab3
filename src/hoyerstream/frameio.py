"""Disk formats: the CSV matrix and PGM grayscale frame readers, frame
directories, and the series/report writers.

Readers never guess: ragged rows, non-numeric fields (digit grouping such
as ``1_0`` and non-ASCII digits included), PGM header fields and P2 samples
that are not plain ASCII digits, bad magic bytes, truncated payloads, and
mismatched frame sizes are all hard errors naming the file (and
line/column where that makes sense). PGM samples are decoded as native
integers, each file's into a new array: ``iter_frames`` holds one frame at
a time, and a caller may keep any frame it draws.
The package reads matrices and frames and writes no matrix or frame. Its
writers are byte-stable: the same values always produce the same bytes.
Readings go to disk only through ``series_row``, the one rendering of a
``SparsityReading`` as a series CSV row, which both the series file and
``index --baseline`` use.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DimensionError, FrameFormatError
from .stream import SparsityReading

SERIES_COLUMNS = ("t", "h_raw", "bias", "g", "g_unclamped", "a_bar", "a2_bar", "sigma2")

_PGM_MAX_MAXVAL = 65535


def series_row(reading: SparsityReading) -> str:
    """One series CSV row of ``reading``, in ``SERIES_COLUMNS`` order.

    Floats are rendered with shortest round-trip precision
    (``repr(float(v))``, so a NumPy scalar renders as the float it holds),
    and the same reading always gives the same bytes. A non-finite value is a
    ValueError naming its column.
    """
    m = reading.moments
    values = (reading.h_raw, reading.bias, reading.g, reading.g_unclamped,
              m.a_bar, m.a2_bar, m.sigma2)
    for name, v in zip(SERIES_COLUMNS[1:], values):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite")
    return ",".join([str(reading.t)] + [repr(float(v)) for v in values])


def read_matrix_csv(path) -> np.ndarray:
    """Read a rectangular numeric grid: comma-separated fields, newline rows,
    lines starting with '#' skipped."""
    path = Path(path)
    rows: list[list[float]] = []
    width = None
    # Bytes that are not UTF-8 decode to lone surrogates, which no number
    # parses, so they fail as a non-numeric field naming line and column.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = [f.strip() for f in line.split(",")]
            values = []
            for col, field in enumerate(fields, start=1):
                try:
                    # Python's float() also takes digit grouping ("1_0")
                    # and non-ASCII digits, which no CSV writer means.
                    if "_" in field or not field.isascii():
                        raise ValueError(field)
                    v = float(field)
                except ValueError:
                    raise FrameFormatError(
                        f"{path}: line {lineno}, column {col}: non-numeric field {field!r}"
                    ) from None
                if not math.isfinite(v):
                    raise FrameFormatError(
                        f"{path}: line {lineno}, column {col}: non-finite value {field!r}"
                    )
                values.append(v)
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise FrameFormatError(
                    f"{path}: line {lineno}: ragged row has {len(values)} fields, expected {width}"
                )
            rows.append(values)
    if not rows:
        raise FrameFormatError(f"{path}: no numeric rows")
    return np.array(rows, dtype=np.float64)


# One PGM header token: whitespace and '#' comments skipped, then a run of
# bytes that are neither. A comment runs to the end of its line or of the
# data: the lookahead keeps a backtrack from cutting it short and reading
# its tail as a token. ``\s`` over bytes is the set ``bytes.isspace`` takes.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]+)")


def _pgm_tokens(data, path: Path):
    """Yield (token, end_offset) over a PGM header, honoring '#' comments."""
    end = 0
    while match := _PGM_TOKEN.match(data, end):
        end = match.end()
        yield match[1], end
    raise FrameFormatError(f"{path}: truncated header")


def _pgm_ints(tokens) -> list[int]:
    """PGM decimal fields as ints. ValueError unless each is ASCII digits
    only: ``int`` alone would also take a sign and digit grouping ("1_0")."""
    if not all(t.isdigit() for t in tokens):
        raise ValueError("PGM fields are ASCII digits")
    return [int(t) for t in tokens]


def _decode_pgm(path: Path) -> np.ndarray:
    """Decode a P2 (ASCII) or P5 (binary) grayscale PGM as raw intensities,
    in a new array: ``uint8`` samples for a maxval up to 255, native
    ``uint16`` above (P5 stores those as two-byte big-endian samples, per
    the format).
    """
    data = path.read_bytes()
    tokens = _pgm_tokens(data, path)
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise FrameFormatError(f"{path}: empty file") from None
    if magic not in (b"P2", b"P5"):
        raise FrameFormatError(f"{path}: bad magic {magic!r}, expected P2 or P5")
    header = []
    end = 0
    for tok, end in tokens:
        header.append(tok)
        if len(header) == 3:
            break
    if len(header) < 3:
        raise FrameFormatError(f"{path}: truncated header")
    try:
        width, height, maxval = _pgm_ints(header)
    except ValueError:
        raise FrameFormatError(f"{path}: non-integer header fields {header!r}") from None
    if width < 1 or height < 1:
        raise FrameFormatError(f"{path}: bad dimensions {width}x{height}")
    if not 1 <= maxval <= _PGM_MAX_MAXVAL:
        raise FrameFormatError(f"{path}: maxval {maxval} out of range [1, {_PGM_MAX_MAXVAL}]")
    dtype = np.dtype(np.uint16 if maxval > 255 else np.uint8)

    # Samples are checked against maxval as unsigned integers, before a P2
    # sample is cast to a dtype that may not hold it.
    if magic == b"P2":
        try:
            samples = _pgm_ints(data[end:].split())
        except ValueError:
            raise FrameFormatError(f"{path}: non-integer pixel data") from None
        if len(samples) != width * height:
            raise FrameFormatError(
                f"{path}: expected {width * height} pixels, found {len(samples)}"
            )
        top = max(samples)
    else:
        # Binary payload starts after exactly one whitespace byte past maxval.
        if not data[end : end + 1].isspace():
            raise FrameFormatError(f"{path}: missing whitespace before pixel payload")
        start = end + 1
        need = width * height * dtype.itemsize
        if len(data) - start < need:
            raise FrameFormatError(
                f"{path}: truncated pixel payload, expected {need} bytes, "
                f"found {len(data) - start}"
            )
        if data[start + need :].strip():
            raise FrameFormatError(f"{path}: trailing bytes after pixel payload")
        samples = np.frombuffer(
            data, dtype=dtype.newbyteorder(">"), count=width * height, offset=start
        ).astype(dtype)
        top = int(samples.max())
    if top > maxval:
        raise FrameFormatError(f"{path}: pixel value outside [0, {maxval}]")
    return np.asarray(samples, dtype).reshape(height, width)


def read_pgm(path) -> np.ndarray:
    """Read a P2 (ASCII) or P5 (binary) grayscale PGM as raw intensities.

    No rescaling is applied; a maxval up to 65535 is accepted (two-byte
    big-endian samples above 255, per the format). Returns a new float64
    array: the samples are decoded as native integers, as ``iter_frames``
    yields them, and then converted.
    """
    return _decode_pgm(Path(path)).astype(np.float64)


def _is_pgm(path: Path) -> bool:
    """True for a .pgm/.pnm file, False for .csv; any other extension is a
    FrameFormatError."""
    suffix = path.suffix.lower()
    if suffix in (".pgm", ".pnm"):
        return True
    if suffix == ".csv":
        return False
    raise FrameFormatError(f"{path}: unsupported extension {suffix!r} (use .csv or .pgm)")


def _frame_sort_index(path: Path) -> int:
    digits = re.findall(r"\d+", path.stem)
    if not digits:
        raise FrameFormatError(f"{path}: filename carries no integer index")
    return int(digits[-1])


def list_frame_dir(path, pattern: str = "*") -> list[Path]:
    """Frame files matching ``pattern``, in ascending index order.

    The index is the last run of digits in each filename stem; order is
    preserved even across gaps. Nothing is decoded here, so the count of a
    long stream is known before any of it is read.
    """
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"{root}: not a directory")
    matched = [p for p in root.glob(pattern) if p.is_file()]
    if not matched:
        raise FrameFormatError(f"{root}: no files match {pattern!r}")
    indexed = sorted((_frame_sort_index(p), p) for p in matched)
    for (i1, p1), (i2, p2) in zip(indexed, indexed[1:]):
        if i1 == i2:
            raise FrameFormatError(f"{root}: duplicate frame index {i1} ({p1.name}, {p2.name})")
    return [p for _, p in indexed]


def iter_frames(paths: Iterable) -> Iterator[np.ndarray]:
    """Decode frame files one at a time, in the given order.

    Every frame must have the first frame's shape; a mismatch is a
    DimensionError naming the file. Each frame is a new array the caller
    owns: PGM frames as native integers (``uint8`` for a maxval up to 255,
    ``uint16`` above), CSV frames as float64. Only the frame being yielded
    is held.
    """
    shape = None
    for p in paths:
        p = Path(p)
        m = _decode_pgm(p) if _is_pgm(p) else read_matrix_csv(p)
        if shape is None:
            shape = m.shape
        elif m.shape != shape:
            raise DimensionError(
                f"{p}: frame shape {m.shape} does not match first frame's {shape}"
            )
        yield m


def read_frame_dir(path, pattern: str = "*") -> list[np.ndarray]:
    """Read every frame file matching ``pattern`` in ascending index order:
    the frames of ``iter_frames(list_frame_dir(...))``, all held at once."""
    return list(iter_frames(list_frame_dir(path, pattern)))


def write_series_csv(readings: Iterable[SparsityReading], path):
    """Write readings as CSV with columns exactly ``SERIES_COLUMNS``, one
    ``series_row`` each. Every row is rendered and checked before the file
    is opened, so a bad reading leaves no partial file.
    """
    rows = [series_row(r) for r in readings]
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(SERIES_COLUMNS) + "\n")
        for row in rows:
            fh.write(row + "\n")


def write_report_json(report: dict, path):
    """Write an experiment report as stable JSON (sorted keys, 2-space
    indent). The text is rendered before the file is opened, so a value JSON
    cannot hold (``nan``, ``inf``) raises ``ValueError`` and leaves no file.
    """
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
