"""On-disk formats: CSV matrices, PGM frames, frame directories, series/report writers."""

import csv
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hoyerstream import (
    BaselineModel,
    DimensionError,
    FrameFormatError,
    SignalMoments,
    SparsityReading,
    corrected_reading,
    sample_noise,
    NoiseSpec,
)
from hoyerstream.frameio import (
    SERIES_COLUMNS,
    _pgm_tokens,
    iter_frames,
    series_row,
    read_frame_dir,
    read_matrix_csv,
    read_pgm,
    write_report_json,
    write_series_csv,
)

from conftest import write_matrix_csv, write_pgm


def _read(path):
    """The float64 matrix in ``path``, read by its format's reader."""
    return read_pgm(path) if path.suffix == ".pgm" else read_matrix_csv(path)


class TestMatrixCsv:
    def test_basic_grid(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4\n")
        assert np.array_equal(read_matrix_csv(p), [[1.0, 2.0], [3.0, 4.0]])

    def test_header_comment_skipped(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("# rows=1 cols=2\n1.5,-2.5\n")
        assert np.array_equal(read_matrix_csv(p), [[1.5, -2.5]])

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(FrameFormatError, match="line 2"):
            read_matrix_csv(p)

    def test_non_numeric_names_line_and_column(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(FrameFormatError, match="line 2, column 2"):
            read_matrix_csv(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,nan\n")
        with pytest.raises(FrameFormatError, match="non-finite"):
            read_matrix_csv(p)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("# only a comment\n")
        with pytest.raises(FrameFormatError, match="no numeric rows"):
            read_matrix_csv(p)

    def test_round_trip_exact(self, tmp_path, rng):
        m = rng.standard_normal((7, 5)) * 1e3
        p = tmp_path / "m.csv"
        write_matrix_csv(m, p)
        assert np.array_equal(read_matrix_csv(p), m)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix_csv(tmp_path / "absent.csv")


class TestPgm:
    def test_ascii_p2(self, tmp_path):
        p = tmp_path / "f.pgm"
        p.write_text("P2\n2 2\n255\n0 255\n255 0\n")
        assert np.array_equal(read_pgm(p), [[0.0, 255.0], [255.0, 0.0]])

    def test_binary_p5(self, tmp_path):
        p = tmp_path / "f.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0]))
        assert np.array_equal(read_pgm(p), [[0.0, 255.0], [255.0, 0.0]])

    def test_binary_16_bit_big_endian(self, tmp_path):
        p = tmp_path / "f.pgm"
        p.write_bytes(b"P5\n2 1\n65535\n" + (1000).to_bytes(2, "big") + (65535).to_bytes(2, "big"))
        assert np.array_equal(read_pgm(p), [[1000.0, 65535.0]])

    def test_header_comments(self, tmp_path):
        p = tmp_path / "f.pgm"
        p.write_bytes(b"P5\n# made by hand\n2 1\n# another note\n255\n\x07\x09")
        assert np.array_equal(read_pgm(p), [[7.0, 9.0]])

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "f.pgm"
        p.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(FrameFormatError, match="truncated pixel payload"):
            read_pgm(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "f.pgm"
        p.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(FrameFormatError, match="bad magic"):
            read_pgm(p)

    def test_maxval_out_of_range(self, tmp_path):
        p = tmp_path / "f.pgm"
        p.write_bytes(b"P5\n1 1\n70000\n\x00\x00")
        with pytest.raises(FrameFormatError, match="maxval"):
            read_pgm(p)

    def test_p2_wrong_pixel_count(self, tmp_path):
        p = tmp_path / "f.pgm"
        p.write_text("P2\n2 2\n255\n1 2 3\n")
        with pytest.raises(FrameFormatError, match="expected 4 pixels"):
            read_pgm(p)

    def test_write_read_round_trip(self, tmp_path):
        m = np.array([[0.0, 12.0], [65535.0, 4096.0]])
        p = tmp_path / "f.pgm"
        write_pgm(m, p)
        assert np.array_equal(read_pgm(p), m)


class TestFrameDir:
    def write_frames(self, root, names, shape=(2, 3)):
        for k, name in enumerate(names):
            write_matrix_csv(np.full(shape, float(k)), root / name)

    def test_ordered_by_index(self, tmp_path):
        self.write_frames(tmp_path, ["frame_002.csv", "frame_001.csv", "frame_003.csv"])
        frames = read_frame_dir(tmp_path, "*.csv")
        assert len(frames) == 3
        assert frames[0][0, 0] == 1.0  # frame_001 written with value 1
        assert frames[2][0, 0] == 2.0

    def test_non_contiguous_indices_preserved(self, tmp_path):
        self.write_frames(tmp_path, ["f1.csv", "f2.csv", "f5.csv"])
        assert len(read_frame_dir(tmp_path, "*.csv")) == 3

    def test_mixed_dims_names_file(self, tmp_path):
        write_matrix_csv(np.zeros((2, 2)), tmp_path / "f1.csv")
        write_matrix_csv(np.zeros((2, 3)), tmp_path / "f2.csv")
        with pytest.raises(DimensionError, match="f2.csv"):
            read_frame_dir(tmp_path, "*.csv")

    def test_empty_match(self, tmp_path):
        with pytest.raises(FrameFormatError, match="no files match"):
            read_frame_dir(tmp_path, "*.csv")

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_frame_dir(tmp_path / "absent", "*")

    def test_unindexed_name_rejected(self, tmp_path):
        write_matrix_csv(np.zeros((2, 2)), tmp_path / "frame.csv")
        with pytest.raises(FrameFormatError, match="no integer index"):
            read_frame_dir(tmp_path, "*.csv")

    def test_duplicate_index_rejected(self, tmp_path):
        self.write_frames(tmp_path, ["a_01.csv", "b_1.csv"])
        with pytest.raises(FrameFormatError, match="duplicate frame index"):
            read_frame_dir(tmp_path, "*.csv")

    def test_mixed_formats(self, tmp_path):
        write_matrix_csv(np.array([[1.0, 2.0]]), tmp_path / "f_1.csv")
        write_pgm(np.array([[3.0, 4.0]]), tmp_path / "f_2.pgm")
        frames = read_frame_dir(tmp_path, "f_*")
        assert np.array_equal(frames[1], [[3.0, 4.0]])

    def test_unsupported_extension_refused(self, tmp_path):
        with pytest.raises(FrameFormatError, match="unsupported extension"):
            next(iter_frames([tmp_path / "m.txt"]))


class TestFrameContract:
    """``iter_frames`` decodes PGM samples as native integers, each frame
    into a new array the caller owns; ``read_frame_dir`` holds them all."""

    SHAPE = (3, 4)
    MIXED = [("P5", 255), ("P5", 4095), ("P2", 200), ("P5", 60000), ("P5", 255), ("P2", 65535)]

    def write_mixed(self, root, kinds=MIXED):
        """A directory of 8-bit P5, 16-bit P5, P2 and CSV frames; the files
        and the dtype each decodes to, in index order."""
        rng = np.random.Generator(np.random.Philox(9))
        files = []
        for k, (kind, maxval) in enumerate(kinds, start=1):
            pixels = rng.integers(0, maxval + 1, self.SHAPE)
            path = root / f"f_{k}.pgm"
            path.write_bytes(_pgm_bytes(kind, maxval, pixels))
            files.append((path, np.uint16 if maxval > 255 else np.uint8))
        write_matrix_csv(np.full(self.SHAPE, 0.5), root / "f_7.csv")
        files.append((root / "f_7.csv", np.float64))
        return files

    def test_iter_frames_yields_native_integers(self, tmp_path):
        files = self.write_mixed(tmp_path)
        frames = iter_frames([path for path, _ in files])
        for (path, dtype), frame in zip(files, frames, strict=True):
            assert frame.dtype == dtype, path.name
            assert np.array_equal(frame, _read(path)), path.name

    def test_held_frame_survives_the_next_draw(self, tmp_path):
        # Runs of frames of one dtype and shape, P2 and P5 alike: drawing
        # the next frame must leave the one the caller holds unchanged.
        kinds = [("P5", 255), ("P5", 255), ("P2", 200), ("P5", 4095), ("P2", 65535), ("P5", 60000)]
        paths = [path for path, _ in self.write_mixed(tmp_path, kinds)]
        frames = iter_frames(paths)
        held = next(frames)
        for prev, frame in zip(paths, frames):
            assert np.array_equal(held, _read(prev)), prev.name
            held = frame

    def test_read_frame_dir_copies_share_no_memory(self, tmp_path):
        files = self.write_mixed(tmp_path)
        frames = read_frame_dir(tmp_path, "f_*")
        assert len(frames) == len(files)
        for (path, dtype), frame in zip(files, frames):
            assert frame.dtype == dtype and frame.flags.writeable, path.name
            assert np.array_equal(frame, _read(path)), path.name
        for a, b in itertools.combinations(frames, 2):
            assert not np.shares_memory(a, b)


def make_reading(t=0, seed=1):
    b = BaselineModel(np.zeros((20, 30)), 1.0, 10)
    return corrected_reading(sample_noise(20, 30, NoiseSpec(1.0, seed)), b, t=t)


class TestSeriesCsv:
    def test_header_only_for_empty(self, tmp_path):
        p = tmp_path / "s.csv"
        write_series_csv([], p)
        assert p.read_text() == "t,h_raw,bias,g,g_unclamped,a_bar,a2_bar,sigma2\n"

    def test_round_trips_through_stdlib_csv(self, tmp_path):
        reading = make_reading(t=7)
        p = tmp_path / "s.csv"
        write_series_csv([reading], p)
        with open(p, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert list(row) == list(SERIES_COLUMNS)
        assert int(row["t"]) == 7
        assert float(row["h_raw"]) == reading.h_raw
        assert float(row["g"]) == reading.g
        assert float(row["g_unclamped"]) == reading.g_unclamped
        assert float(row["a_bar"]) == reading.moments.a_bar
        assert float(row["a2_bar"]) == reading.moments.a2_bar
        assert float(row["sigma2"]) == reading.moments.sigma2

    def test_byte_identical_rewrites(self, tmp_path):
        readings = [make_reading(t, seed=t) for t in range(5)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_series_csv(readings, p1)
        write_series_csv(readings, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_record_rejects_non_finite(self, tmp_path):
        bad = SparsityReading(
            t=0, h_raw=float("nan"), bias=0.0, moments=SignalMoments(0.0, 1.0, 0.0)
        )
        p = tmp_path / "s.csv"
        with pytest.raises(ValueError, match="h_raw must be finite"):
            write_series_csv([make_reading(), bad], p)
        assert not p.exists()


    def test_numpy_scalars_render_as_floats(self):
        # sigma2_hat from np.var is a NumPy scalar, whose repr under
        # NumPy 2 is "np.float64(...)"; a row holds only plain floats.
        frame = sample_noise(20, 30, NoiseSpec(1.0, 3))
        plain = BaselineModel(np.zeros((20, 30)), 0.25, 10)
        numpy_scalar = BaselineModel(np.zeros((20, 30)), np.float64(0.25), 10)
        assert type(numpy_scalar.sigma2_hat) is float
        row = series_row(corrected_reading(frame, numpy_scalar, t=4))
        assert "np." not in row
        assert row == series_row(corrected_reading(frame, plain, t=4))
        reading = SparsityReading(
            t=0, h_raw=np.float64(0.5), bias=np.float64(0.125),
            moments=SignalMoments(np.float64(0.5), np.float64(1.0), np.float64(2.0)),
        )
        assert series_row(reading) == "0,0.5,0.125,0.375,0.375,0.5,1.0,2.0"


class TestReportJson:
    def test_byte_identical_and_sorted(self, tmp_path):
        report = {"b": [1, 2], "a": {"z": 0.1, "y": [0.2]}}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report_json(report, p1)
        write_report_json(report, p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = json.loads(p1.read_text())
        assert loaded == report
        assert p1.read_text().index('"a"') < p1.read_text().index('"b"')

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "r.json"
        with pytest.raises(ValueError):
            write_report_json({"cells": [{"m_eps": 0.1}, {"m_eps": float("nan")}]}, path)
        assert not path.exists()


_READER_ERRORS = (FrameFormatError, DimensionError)

_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
)


@st.composite
def _pgm_images(draw):
    """(magic, maxval, integer pixels) of a valid P2 or P5 image."""
    magic = draw(st.sampled_from(["P2", "P5"]))
    maxval = draw(st.one_of(st.integers(1, 255), st.integers(256, 65535)))
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    pixels = draw(arrays(np.int64, shape, elements=st.integers(0, maxval)))
    return magic, maxval, pixels


def _pgm_bytes(magic, maxval, pixels):
    header = f"{magic}\n{pixels.shape[1]} {pixels.shape[0]}\n{maxval}\n".encode("ascii")
    if magic == "P2":
        return header + b"\n".join(b" ".join(b"%d" % v for v in row) for row in pixels) + b"\n"
    return header + pixels.astype(">u2" if maxval > 255 else np.uint8).tobytes()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _read_or_reader_error(path, first):
    """Read ``path`` through its format's reader and through ``iter_frames``
    after ``first``; a bad file may only raise the reader errors."""
    try:
        m = _read(path)
    except _READER_ERRORS:
        m = None
    else:
        assert m.dtype == np.float64 and m.ndim == 2 and np.isfinite(m).all()
    try:
        frames = list(iter_frames([first, path]))
    except _READER_ERRORS:
        return
    assert np.array_equal(frames[1], m)


@settings(deadline=None)
@given(_matrices)
def test_csv_round_trip_is_exact(fuzz_dir, m):
    p = fuzz_dir / "round.csv"
    write_matrix_csv(m, p)
    assert np.array_equal(read_matrix_csv(p), m)


@settings(deadline=None)
@given(_pgm_images())
def test_pgm_round_trip_is_exact(fuzz_dir, image):
    magic, maxval, pixels = image
    p = fuzz_dir / "round.pgm"
    p.write_bytes(_pgm_bytes(magic, maxval, pixels))
    assert np.array_equal(read_pgm(p), pixels)
    if magic == "P5":
        write_pgm(pixels.astype(np.float64), p, maxval=maxval)
        assert np.array_equal(read_pgm(p), pixels)


_header_fields = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["", "0", "-1", "1e3", "0x10", "9" * 400, "P5", "#", "\xff", "4\x00"]),
    st.text(max_size=6),
)


@settings(deadline=None)
@given(_pgm_images(), _header_fields, st.integers(0, 2), st.booleans())
def test_mutated_pgm_header_raises_only_reader_errors(fuzz_dir, image, field, which, spaced):
    magic, maxval, pixels = image
    good = fuzz_dir / "good.pgm"
    good.write_bytes(_pgm_bytes(magic, maxval, pixels))
    tokens = [str(pixels.shape[1]), str(pixels.shape[0]), str(maxval)]
    tokens[which] = field
    header = f"{magic}\n{tokens[0]} {tokens[1]}\n{tokens[2]}".encode("utf-8")
    payload = _pgm_bytes(magic, maxval, pixels).split(b"\n", 3)[3]
    bad = fuzz_dir / "bad.pgm"
    bad.write_bytes(header + (b"\n" if spaced else b"") + payload)
    _read_or_reader_error(bad, good)


@settings(deadline=None)
@given(st.one_of(_pgm_images(), _matrices), st.data())
def test_truncated_or_mutated_payload_raises_only_reader_errors(fuzz_dir, source, data):
    good = fuzz_dir / ("good.pgm" if isinstance(source, tuple) else "good.csv")
    if isinstance(source, tuple):
        good.write_bytes(_pgm_bytes(*source))
    else:
        write_matrix_csv(source, good)
    raw = good.read_bytes()
    cut = data.draw(st.integers(0, len(raw)), label="cut")
    edit = data.draw(st.sampled_from(["truncate", "replace", "insert"]), label="edit")
    junk = data.draw(st.binary(min_size=1, max_size=400), label="junk")
    if edit == "truncate":
        mutated = raw[:cut]
    elif edit == "replace":
        mutated = raw[:cut] + junk + raw[cut + len(junk):]
    else:
        mutated = raw[:cut] + junk + raw[cut:]
    bad = good.with_name("bad" + good.suffix)
    bad.write_bytes(mutated)
    _read_or_reader_error(bad, good)


def _reference_pgm_tokens(data):
    """(token, end_offset) pairs of a PGM header by a plain byte loop:
    whitespace is what ``bytes.isspace`` takes, a '#' comment runs to the
    next CR or LF, and a token is a run of bytes that are neither."""
    found = []
    i = 0
    while i < len(data):
        c = data[i : i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < len(data) and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            found.append((data[i:j], j))
            i = j
    return found


@settings(deadline=None, max_examples=400)
@given(st.lists(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"P",
                                 b"5", b"12", b"\x07", b"\xff", b"#5\n", b"\x85"]), max_size=24))
def test_pgm_tokens_match_a_plain_loop(parts):
    data = b"".join(parts)
    got = []
    with pytest.raises(FrameFormatError, match="truncated header"):
        for token in _pgm_tokens(bytearray(data), "f.pgm"):
            assert type(token[0]) is bytes
            got.append(token)
    assert got == _reference_pgm_tokens(data)


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("latin1.csv", b"1.0,2.0\n\xff\xfe,3.0\n", "line 2, column 1: non-numeric"),
        ("huge.pgm", b"P2\n2 1\n255\n1" + b"0" * 400 + b" 0\n", r"outside \[0, 255\]"),
        ("above8.pgm", b"P5\n2 1\n200\n" + bytes([200, 201]), r"outside \[0, 200\]"),
        ("above16.pgm", b"P5\n2 1\n1000\n\x03\xe8\x03\xe9", r"outside \[0, 1000\]"),
    ],
    ids=["non_utf8_csv", "p2_past_float64", "p5_8bit_above_maxval", "p5_16bit_above_maxval"],
)
def test_reader_defects_found_by_fuzzing(tmp_path, name, content, message):
    # A non-UTF-8 CSV raised UnicodeDecodeError, and a P2 sample past the
    # float64 range raised OverflowError. The P5 cases hold a last sample
    # one above maxval (201 > 200 in one byte, 1001 > 1000 in two).
    p = tmp_path / name
    p.write_bytes(content)
    with pytest.raises(FrameFormatError, match=message):
        _read(p)


_NOT_PLAIN_DIGITS = [
    ("grouped_header.pgm", b"P2\n2 1_0\n255\n" + b"0 " * 20, "non-integer header fields"),
    ("signed_header.pgm", b"P2\n+2 1\n255\n0 0\n", "non-integer header fields"),
    ("grouped_p5_header.pgm", b"P5\n1_0 1\n255\n" + bytes(10), "non-integer header fields"),
    ("grouped_sample.pgm", b"P2\n2 1\n255\n1_2 3\n", "non-integer pixel data"),
    ("signed_sample.pgm", b"P2\n2 1\n255\n+1 3\n", "non-integer pixel data"),
    ("grouped_field.csv", b"1.0,2.0\n3.0,1_0\n", "line 2, column 2: non-numeric field '1_0'"),
    ("wide_digit.csv", "1.0,\uff11\n".encode("utf-8"), "line 1, column 2: non-numeric"),
]


@pytest.mark.parametrize(
    "name, content, message", _NOT_PLAIN_DIGITS, ids=[case[0] for case in _NOT_PLAIN_DIGITS]
)
def test_readers_take_plain_digits_only(tmp_path, name, content, message):
    # Python's int() and float() also read digit grouping ("1_0" as 10),
    # a leading "+" and non-ASCII digits; the readers refuse them.
    p = tmp_path / name
    p.write_bytes(content)
    with pytest.raises(FrameFormatError, match=message) as info:
        _read(p)
    assert name in str(info.value)


def test_csv_keeps_plain_signed_and_exponent_fields(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("+1.5,-2e3,.5,5.\n")
    assert read_matrix_csv(p).tolist() == [[1.5, -2000.0, 0.5, 5.0]]
