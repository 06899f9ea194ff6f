"""File-format tests: PGM/PPM round trips, endianness, malformed input."""

from __future__ import annotations

import numpy as np
import pytest

from rangefit.imageio import (
    read_pgm8,
    read_pgm16,
    read_ppm,
    read_raw_float,
    write_pgm8,
    write_pgm16,
    write_ppm,
    write_raw_float,
)


class TestPgm16:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 65536, size=(13, 17)).astype(np.uint16)
        write_pgm16(tmp_path / "img.pgm", values)
        np.testing.assert_array_equal(read_pgm16(tmp_path / "img.pgm"), values)

    def test_big_endian_on_disk(self, tmp_path):
        values = np.array([[0x0102]], dtype=np.uint16)
        write_pgm16(tmp_path / "img.pgm", values)
        blob = (tmp_path / "img.pgm").read_bytes()
        assert blob.endswith(b"\x01\x02")

    def test_header_comments_skipped(self, tmp_path):
        (tmp_path / "img.pgm").write_bytes(b"P5\n# a comment\n2 1\n65535\n\x00\x01\x00\x02")
        np.testing.assert_array_equal(read_pgm16(tmp_path / "img.pgm"), [[1, 2]])

    def test_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(ValueError, match="uint16"):
            write_pgm16(tmp_path / "img.pgm", np.zeros((2, 2), dtype=np.uint8))

    def test_rejects_wrong_maxval(self, tmp_path):
        (tmp_path / "img.pgm").write_bytes(b"P5\n2 1\n255\n\x00\x01")
        with pytest.raises(ValueError, match="maxval"):
            read_pgm16(tmp_path / "img.pgm")

    def test_rejects_truncated(self, tmp_path):
        (tmp_path / "img.pgm").write_bytes(b"P5\n2 2\n65535\n\x00\x01")
        with pytest.raises(ValueError, match="truncated"):
            read_pgm16(tmp_path / "img.pgm")

    @pytest.mark.parametrize(
        "data, fault",
        [(b"P5\n64", "malformed netpbm header"), (b"RF64 2 2\n", "expected P5 file")],
        ids=["short-header", "wrong-magic"],
    )
    def test_header_errors_name_the_file(self, tmp_path, data, fault):
        path = tmp_path / "img.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=fault) as info:
            read_pgm16(path)
        assert str(info.value).startswith(f"{path}: ")


class TestPgm8:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 256, size=(7, 9)).astype(np.uint8)
        write_pgm8(tmp_path / "l.pgm", values)
        np.testing.assert_array_equal(read_pgm8(tmp_path / "l.pgm"), values)


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        rgb = rng.integers(0, 256, size=(5, 6, 3)).astype(np.uint8)
        write_ppm(tmp_path / "c.ppm", rgb)
        np.testing.assert_array_equal(read_ppm(tmp_path / "c.ppm"), rgb)

    def test_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "c.ppm", np.zeros((5, 6), dtype=np.uint8))

    def test_rejects_wrong_magic(self, tmp_path):
        (tmp_path / "c.ppm").write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValueError, match="P6"):
            read_ppm(tmp_path / "c.ppm")


class TestRawFloat:
    def test_round_trip_with_nan(self, tmp_path):
        values = np.array([[1.5, np.nan], [2.25, -0.125]])
        write_raw_float(tmp_path / "d.rf64", values)
        loaded = read_raw_float(tmp_path / "d.rf64")
        np.testing.assert_array_equal(np.isnan(loaded), np.isnan(values))
        np.testing.assert_array_equal(loaded[~np.isnan(values)], values[~np.isnan(values)])

    def test_rejects_missing_magic(self, tmp_path):
        (tmp_path / "d.rf64").write_bytes(b"nope")
        with pytest.raises(ValueError, match="RF64"):
            read_raw_float(tmp_path / "d.rf64")

    def test_rejects_truncated(self, tmp_path):
        (tmp_path / "d.rf64").write_bytes(b"RF64 2 2\n" + b"\x00" * 8)
        with pytest.raises(ValueError, match="truncated"):
            read_raw_float(tmp_path / "d.rf64")

    @pytest.mark.parametrize(
        "header",
        [b"RF64 2 2", b"RF64 -1 -1\n", b"RF64 x 48\n"],
        ids=["no-newline", "negative-sizes", "non-numeric-width"],
    )
    def test_rejects_malformed_header(self, tmp_path, header):
        # these raised "subsection not found", a reshape error and an int()
        # error, naming neither the file nor the fault
        path = tmp_path / "d.rf64"
        path.write_bytes(header + b"\x00" * 8)
        with pytest.raises(ValueError, match="malformed RF64 header") as info:
            read_raw_float(path)
        assert str(path) in str(info.value)
