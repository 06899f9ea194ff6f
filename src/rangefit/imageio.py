"""Minimal netpbm and raw-lattice file IO for depth and label images.

Depth interchange formats:

* 16-bit binary PGM (``P5``, maxval 65535): depth in millimeters, 0 marks an
  invalid pixel.  Widely inspectable but quantized to 1 mm.
* raw float64 (``RF64`` header): loss-free depth in meters, NaN marks an
  invalid pixel.  Use this for exactness tests.

Label lattices travel as 8-bit PGM; color segmentations as binary PPM.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

RAW_MAGIC = b"RF64"


def _read_pnm_header(data: bytes, magic: bytes, path: str | Path) -> tuple[int, int, int, int]:
    """Parse the binary netpbm header of file ``path``; returns (width, height, maxval, offset)."""
    if not data.startswith(magic):
        raise ValueError(f"{path}: expected {magic.decode()} file, got {data[:2]!r}")
    pos = len(magic)
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise ValueError(f"{path}: malformed netpbm header token {token!r}")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    return width, height, maxval, pos


def _write_pnm(path: str | Path, values: np.ndarray, magic: str, sample: str) -> None:
    """Write a checked lattice as binary netpbm: ``magic`` ``"P5"`` for (H, W)
    grey, ``"P6"`` for (H, W, 3) colour, each sample stored as ``sample``,
    ``">u2"`` (maxval 65535) or ``"u1"`` (maxval 255)."""
    h, w = values.shape if magic == "P5" else values.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n{np.iinfo(sample).max}\n".encode())
        fh.write(values.astype(sample).tobytes())


def _read_pnm(path: str | Path, magic: str, sample: str) -> np.ndarray:
    """Read a binary netpbm file written as by :func:`_write_pnm`."""
    data = Path(path).read_bytes()
    width, height, maxval, offset = _read_pnm_header(data, magic.encode(), path)
    sample = np.dtype(sample)
    expected_max = np.iinfo(sample).max
    if maxval != expected_max:
        kind = "PGM" if magic == "P5" else "PPM"
        raise ValueError(
            f"{path}: expected {8 * sample.itemsize}-bit {kind} (maxval {expected_max}), got {maxval}"
        )
    shape = (height, width) if magic == "P5" else (height, width, 3)
    expected = int(np.prod(shape)) * sample.itemsize
    raw = data[offset : offset + expected]
    if len(raw) != expected:
        raise ValueError(f"{path}: truncated pixel data")
    return np.frombuffer(raw, dtype=sample).reshape(shape).astype(sample.type)


def write_pgm16(path: str | Path, values: np.ndarray) -> None:
    """Write a uint16 lattice as big-endian binary PGM (maxval 65535)."""
    values = np.asarray(values)
    if values.dtype != np.uint16:
        raise ValueError(f"expected uint16 data, got {values.dtype}")
    _write_pnm(path, values, "P5", ">u2")


def read_pgm16(path: str | Path) -> np.ndarray:
    return _read_pnm(path, "P5", ">u2")


def write_pgm8(path: str | Path, values: np.ndarray) -> None:
    values = np.asarray(values)
    if values.dtype != np.uint8:
        raise ValueError(f"expected uint8 data, got {values.dtype}")
    _write_pnm(path, values, "P5", "u1")


def read_pgm8(path: str | Path) -> np.ndarray:
    return _read_pnm(path, "P5", "u1")


def write_ppm(path: str | Path, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM."""
    rgb = np.asarray(rgb)
    if rgb.dtype != np.uint8 or rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) uint8 data, got {rgb.dtype} {rgb.shape}")
    _write_pnm(path, rgb, "P6", "u1")


def read_ppm(path: str | Path) -> np.ndarray:
    return _read_pnm(path, "P6", "u1")


def write_raw_float(path: str | Path, values: np.ndarray) -> None:
    """Write a float lattice as ``RF64 <width> <height>`` + little-endian float64."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected a 2D lattice, got shape {values.shape}")
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(RAW_MAGIC + f" {w} {h}\n".encode())
        fh.write(values.astype("<f8").tobytes())


def read_raw_float(path: str | Path) -> np.ndarray:
    data = Path(path).read_bytes()
    if not data.startswith(RAW_MAGIC):
        raise ValueError(f"{path}: not a raw float64 lattice (missing RF64 header)")
    newline = data.find(b"\n")
    parts = data[len(RAW_MAGIC) : newline].split() if newline >= 0 else []
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise ValueError(f"{path}: malformed RF64 header")
    width, height = int(parts[0]), int(parts[1])
    expected = width * height * 8
    raw = data[newline + 1 : newline + 1 + expected]
    if len(raw) != expected:
        raise ValueError(f"{path}: truncated pixel data")
    return np.frombuffer(raw, dtype="<f8").reshape(height, width).copy()
