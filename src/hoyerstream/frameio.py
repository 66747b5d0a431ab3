"""Disk formats: CSV matrices, PGM grayscale frames, frame directories, and
the series/report writers.

Readers never guess: ragged rows, non-numeric fields (digit grouping such
as ``1_0`` and non-ASCII digits included), PGM header fields and P2 samples
that are not plain ASCII digits, bad magic bytes, truncated payloads, and
mismatched frame sizes are all hard errors naming the file (and
line/column where that makes sense). PGM samples are decoded as native
integers; ``iter_frames`` decodes a stream of them into one reused buffer,
so reading a directory of equal PGM frames allocates no frame per file.
Writers are byte-stable: the same values always produce the same bytes.
Readings go to disk only through ``series_row``, the one rendering of a
``SparsityReading`` as a series CSV row, which both the series file and
``index --baseline`` use.
"""

from __future__ import annotations

import json
import math
import os
import re
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DimensionError, FrameFormatError
from .indices import as_image_matrix
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


def write_matrix_csv(matrix, path):
    """Write a matrix in the format ``read_matrix_csv`` accepts; values keep
    full float64 precision, so a write/read round-trip is exact."""
    m = as_image_matrix(matrix)
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in m:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


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


def _read_into(path: Path, buf: bytearray) -> None:
    """Make ``buf`` hold the bytes of the file at ``path``; its memory is
    reused when the file has the size of the last one read into it."""
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        del buf[size:]
        buf.extend(bytes(size - len(buf)))
        del buf[fh.readinto(buf) :]  # for a file that shrank since fstat
        buf += fh.read()  # for a file that grew since fstat


def _decode_pgm(path: Path, buf: bytearray, out: np.ndarray | None = None) -> np.ndarray:
    """Decode a P2 (ASCII) or P5 (binary) grayscale PGM as raw intensities:
    ``uint8`` samples for a maxval up to 255, native ``uint16`` above (P5
    stores those as two-byte big-endian samples, per the format).

    The file is read into ``buf``, and the samples into ``out`` when it has
    their dtype and shape (else into a new array); the array written is
    returned, for the caller to pass back with the next file. ``out`` may be
    overwritten by a file that turns out to be bad.
    """
    _read_into(path, buf)
    tokens = _pgm_tokens(buf, path)
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
    shape = (height, width)
    dtype = np.dtype(np.uint16 if maxval > 255 else np.uint8)
    if out is not None and (out.dtype != dtype or out.shape != shape):
        out = None  # a new one is made once the payload is known to hold the frame

    # Samples are checked against maxval as unsigned integers.
    if magic == b"P2":
        try:
            samples = _pgm_ints(buf[end:].split())
        except ValueError:
            raise FrameFormatError(f"{path}: non-integer pixel data") from None
        if len(samples) != width * height:
            raise FrameFormatError(
                f"{path}: expected {width * height} pixels, found {len(samples)}"
            )
        top = max(samples)
        if top <= maxval:
            out = np.empty(shape, dtype) if out is None else out
            out.reshape(-1)[:] = samples
    else:
        # Binary payload starts after exactly one whitespace byte past maxval.
        if not buf[end : end + 1].isspace():
            raise FrameFormatError(f"{path}: missing whitespace before pixel payload")
        start = end + 1
        need = width * height * dtype.itemsize
        if len(buf) - start < need:
            raise FrameFormatError(
                f"{path}: truncated pixel payload, expected {need} bytes, "
                f"found {len(buf) - start}"
            )
        if buf[start + need :].strip():
            raise FrameFormatError(f"{path}: trailing bytes after pixel payload")
        # Swapped from big-endian to native order in the one copy out of
        # ``buf``; no view of ``buf`` outlives it, so ``buf`` stays resizable.
        out = np.empty(shape, dtype) if out is None else out
        np.copyto(out, np.frombuffer(
            buf, dtype=dtype.newbyteorder(">"), count=width * height, offset=start,
        ).reshape(shape))
        top = int(out.max())
    if top > maxval:
        raise FrameFormatError(f"{path}: pixel value outside [0, {maxval}]")
    return out


def read_pgm(path) -> np.ndarray:
    """Read a P2 (ASCII) or P5 (binary) grayscale PGM as raw intensities.

    No rescaling is applied; a maxval up to 65535 is accepted (two-byte
    big-endian samples above 255, per the format). Returns a new float64
    array the caller owns: the samples are decoded as native integers, as
    ``iter_frames`` decodes them, and then converted.
    """
    return _decode_pgm(Path(path), bytearray()).astype(np.float64)


def write_pgm(matrix, path, maxval: int = 65535):
    """Write non-negative integer-valued intensities as binary (P5) PGM."""
    m = as_image_matrix(matrix)
    if not 1 <= maxval <= _PGM_MAX_MAXVAL:
        raise ValueError(f"maxval {maxval} out of range [1, {_PGM_MAX_MAXVAL}]")
    if m.min() < 0 or m.max() > maxval:
        raise ValueError(f"pixel values must lie in [0, {maxval}]")
    rounded = np.rint(m)
    if not np.array_equal(rounded, m):
        raise ValueError("pixel values must be integral; quantize before writing")
    dtype = ">u2" if maxval > 255 else np.uint8
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{m.shape[1]} {m.shape[0]}\n{maxval}\n".encode("ascii"))
        fh.write(rounded.astype(dtype).tobytes())


def _is_pgm(path: Path) -> bool:
    """True for a .pgm/.pnm file, False for .csv; any other extension is a
    FrameFormatError."""
    suffix = path.suffix.lower()
    if suffix in (".pgm", ".pnm"):
        return True
    if suffix == ".csv":
        return False
    raise FrameFormatError(f"{path}: unsupported extension {suffix!r} (use .csv or .pgm)")


def load_matrix(path) -> np.ndarray:
    """Read a single matrix as float64, dispatching on file extension
    (.csv/.pgm/.pnm)."""
    path = Path(path)
    return read_pgm(path) if _is_pgm(path) else read_matrix_csv(path)


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
    DimensionError naming the file. CSV frames come as float64 arrays of
    their own. PGM frames come as read-only native integers (``uint8``
    for a maxval up to 255, ``uint16`` above) that share one reused
    buffer: a PGM frame is valid only until the next frame is drawn, so a
    caller that keeps one copies it. Only the frame being yielded is held.
    """
    shape = None
    buf = bytearray()
    samples = None
    for p in paths:
        p = Path(p)
        if _is_pgm(p):
            samples = _decode_pgm(p, buf, samples)
            m = samples.view()
            m.flags.writeable = False
        else:
            m = read_matrix_csv(p)
        if shape is None:
            shape = m.shape
        elif m.shape != shape:
            raise DimensionError(
                f"{p}: frame shape {m.shape} does not match first frame's {shape}"
            )
        yield m


def read_frame_dir(path, pattern: str = "*") -> list[np.ndarray]:
    """Read every frame file matching ``pattern`` in ascending index order.

    The same files, order, checks and dtypes as
    ``iter_frames(list_frame_dir(...))``, with every frame held at once:
    each is a copy of its own, writable and sharing no memory with another.
    """
    return [m.copy() for m in iter_frames(list_frame_dir(path, pattern))]


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
