"""Multi-channel summed-area tables over scatter-matrix monomials.

A summed-area table turns any rectangular sum into four lookups, so a plane
fit over an arbitrary window costs O(1) once the tables exist.  Each fitting
formulation needs one table per unique scatter-matrix element:

* standard implicit, monomials ``[X, Y, Z, 1]``: 9 depth-dependent channels
  (x2, xy, xz, x, y2, yz, y, z2, z);
* inverse-depth (rgbd) implicit, monomials ``[tan_x, tan_y, 1, 1/Z]``: only
  4 depth-dependent channels (tan_x/Z, tan_y/Z, 1/Z, 1/Z^2) -- the remaining
  5 (tan_x^2, tan_x*tan_y, tan_y^2, tan_x, tan_y) are camera constants built
  once and shared across frames;
* standard explicit: 8 depth-dependent channels;
* rgbd explicit: 3 depth-dependent channels, with the whole normal-equation
  matrix camera-constant.

That channel-count drop (9 -> 4 and 8 -> 3) is where the per-frame savings
come from.  Invalid pixels contribute zero to every channel and to the
validity count, so downstream fits always normalize by the true sample count
of a window.  Because the camera-constant channels cannot know a frame's
holes, the rgbd builders add masked tan channels whenever a frame has
invalid pixels; only windows actually containing holes pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .camera import TanAngleMaps
from .synth import DepthImage

CONSTANT_CHANNELS = ("tx2", "txty", "ty2", "tx", "ty")
STANDARD_IMPLICIT_CHANNELS = ("x2", "xy", "xz", "x", "y2", "yz", "y", "z2", "z")
RGBD_IMPLICIT_CHANNELS = ("tx_over_z", "ty_over_z", "inv_z", "inv_z2")
STANDARD_EXPLICIT_CHANNELS = ("x2", "xy", "x", "y2", "y", "xz", "yz", "z")
RGBD_EXPLICIT_CHANNELS = ("tx_over_z", "ty_over_z", "inv_z")

# Masked tan monomials added to rgbd stacks only when the frame has holes;
# windows containing invalid pixels read their camera-constant block from
# these instead of the shared constant stack, restoring exact masked sums.
HOLE_CORRECTION_CHANNELS = ("m_tx2", "m_txty", "m_ty2", "m_tx", "m_ty")

COUNT_CHANNEL = "count"


class Rect(NamedTuple):
    """Half-open pixel rectangle: x in [x0, x1), y in [y0, y1)."""

    x0: int
    y0: int
    x1: int
    y1: int

    @property
    def area(self) -> int:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def contains(self, other: "Rect") -> bool:
        return (
            self.x0 <= other.x0 <= other.x1 <= self.x1
            and self.y0 <= other.y0 <= other.y1 <= self.y1
        )


@dataclass(frozen=True)
class IntegralImage:
    """Cumulative-sum table with a zero-padded first row and column.

    ``table[y, x]`` holds the sum of the source over ``[0, x) x [0, y)``, so
    the table is (H+1, W+1) for an (H, W) source.
    """

    name: str
    table: np.ndarray

    @property
    def height(self) -> int:
        return self.table.shape[0] - 1

    @property
    def width(self) -> int:
        return self.table.shape[1] - 1


@dataclass(frozen=True)
class ChannelStack:
    """A named set of integral images sharing one validity-count channel.

    ``scatter_names`` lists the channels that fill scatter-matrix entries in
    the hole-free setting (the audited per-frame cost of a formulation);
    ``residual_name``, when present, is an extra diagnostic channel (the
    squared regression target) used only to report fit residuals and
    deliberately kept outside the scatter set.  ``hole_corrected`` marks rgbd
    stacks that carry masked tan channels because their frame has invalid
    pixels.  ``constant`` stacks depend only on the camera intrinsics and are
    built once, then shared by reference across frames.
    """

    channels: dict[str, IntegralImage]
    count: IntegralImage
    scatter_names: tuple[str, ...]
    constant: bool = False
    residual_name: str | None = None
    hole_corrected: bool = False

    def __post_init__(self) -> None:
        shape = self.count.table.shape
        for ch in self.channels.values():
            if ch.table.shape != shape:
                raise ValueError(
                    f"channel {ch.name!r} shape {ch.table.shape} != count shape {shape}"
                )

    @property
    def height(self) -> int:
        return self.count.height

    @property
    def width(self) -> int:
        return self.count.width

    def per_frame_channel_names(self) -> tuple[str, ...]:
        """Every depth-dependent channel in the stack (excludes the count)."""
        return tuple(self.channels.keys())


def _check_rect(rect: Rect, width: int, height: int) -> None:
    if not (0 <= rect.x0 <= rect.x1 <= width and 0 <= rect.y0 <= rect.y1 <= height):
        raise ValueError(f"rect {rect} out of bounds for {width}x{height} image")


def _check_rects(rects: np.ndarray, width: int, height: int) -> np.ndarray:
    """Validate an (N, 4) integer array of (x0, y0, x1, y1) rows like ``_check_rect``."""
    rects = np.asarray(rects)
    if rects.size == 0:
        return np.zeros((0, 4), dtype=np.int64)
    if rects.ndim != 2 or rects.shape[1] != 4 or not np.issubdtype(rects.dtype, np.integer):
        raise ValueError(f"rects must be an (N, 4) integer array, got {rects.dtype} {rects.shape}")
    x0, y0, x1, y1 = rects.T
    inside = (0 <= x0) & (x0 <= x1) & (x1 <= width) & (0 <= y0) & (y0 <= y1) & (y1 <= height)
    if not inside.all():
        _check_rect(Rect(*(int(v) for v in rects[np.argmin(inside)])), width, height)
    return rects.astype(np.int64, copy=False)


def _box_corners(rects: np.ndarray, width: int) -> np.ndarray:
    """(4, N) flat table indices of each rect's corners, in ``_box_sums`` order."""
    x0, y0, x1, y1 = rects.T
    stride = width + 1
    return np.stack((y1 * stride + x1, y0 * stride + x1, y1 * stride + x0, y0 * stride + x0))


def _box_sums(table: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Box sums of many rects at once, in the same order of operations as ``box_sum``."""
    t = table.reshape(-1).take(corners)
    return t[0] - t[1] - t[2] + t[3]


def build_integral(channel: np.ndarray, mask: np.ndarray | None = None, name: str = "") -> IntegralImage:
    """Single-pass summed-area table; masked-out pixels contribute zero."""
    channel = np.asarray(channel, dtype=np.float64)
    if channel.ndim != 2:
        raise ValueError(f"channel must be 2D, got shape {channel.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != channel.shape:
            raise ValueError(f"mask shape {mask.shape} != channel shape {channel.shape}")
        channel = np.where(mask, channel, 0.0)
    h, w = channel.shape
    table = np.zeros((h + 1, w + 1))
    table[1:, 1:] = np.cumsum(np.cumsum(channel, axis=0), axis=1)
    return IntegralImage(name=name, table=table)


def box_sum(integral: IntegralImage, rect: Rect) -> float:
    """Sum of the source channel over ``rect`` via the 4-lookup identity."""
    _check_rect(rect, integral.width, integral.height)
    t = integral.table
    return float(
        t[rect.y1, rect.x1] - t[rect.y0, rect.x1] - t[rect.y1, rect.x0] + t[rect.y0, rect.x0]
    )


def _stack_from_lattices(
    lattices: dict[str, np.ndarray],
    mask: np.ndarray | None,
    scatter_names: Iterable[str],
    constant: bool,
    residual_name: str | None = None,
    hole_corrected: bool = False,
) -> ChannelStack:
    channels = {
        name: build_integral(lat, mask, name=name) for name, lat in lattices.items()
    }
    if mask is None:
        first = next(iter(lattices.values()))
        count_src = np.ones(first.shape)
    else:
        count_src = mask.astype(np.float64)
    count = build_integral(count_src, None, name=COUNT_CHANNEL)
    return ChannelStack(
        channels=channels,
        count=count,
        scatter_names=tuple(scatter_names),
        constant=constant,
        residual_name=residual_name,
        hole_corrected=hole_corrected,
    )


def _tan_monomials(maps: TanAngleMaps) -> dict[str, np.ndarray]:
    tx, ty = maps.tan_x, maps.tan_y
    return {"tx2": tx * tx, "txty": tx * ty, "ty2": ty * ty, "tx": tx, "ty": ty}


def build_constant_channels(maps: TanAngleMaps) -> ChannelStack:
    """Camera-constant monomial tables: tan_x^2, tan_x*tan_y, tan_y^2, tan_x, tan_y.

    Built once per intrinsics and reused for every frame; the count channel
    here counts pixels (all of them), matching the precomputed-sum semantics.
    """
    return _stack_from_lattices(_tan_monomials(maps), None, CONSTANT_CHANNELS, constant=True)


def _masked_depth(depth: DepthImage, maps: TanAngleMaps) -> np.ndarray:
    if (depth.height, depth.width) != (maps.height, maps.width):
        raise ValueError(
            f"depth {depth.width}x{depth.height} does not match "
            f"maps {maps.width}x{maps.height}"
        )
    return np.where(depth.valid, depth.values, 0.0)


def _masked_inverse_depth(depth: DepthImage, maps: TanAngleMaps) -> np.ndarray:
    _masked_depth(depth, maps)  # dimension check
    safe = np.where(depth.valid, depth.values, 1.0)
    return np.where(depth.valid, 1.0 / safe, 0.0)


def build_standard_implicit_channels(depth: DepthImage, maps: TanAngleMaps) -> ChannelStack:
    """Per-frame tables for the standard implicit scatter of [X, Y, Z, 1].

    All 9 unique depth-dependent elements: X^2, XY, XZ, X, Y^2, YZ, Y, Z^2, Z,
    with X = Z*tan_x and Y = Z*tan_y costing one multiply per pixel each.
    """
    z = _masked_depth(depth, maps)
    x = z * maps.tan_x
    y = z * maps.tan_y
    lattices = {
        "x2": x * x,
        "xy": x * y,
        "xz": x * z,
        "x": x,
        "y2": y * y,
        "yz": y * z,
        "y": y,
        "z2": z * z,
        "z": z,
    }
    return _stack_from_lattices(lattices, depth.valid, STANDARD_IMPLICIT_CHANNELS, constant=False)


def build_rgbd_implicit_channels(depth: DepthImage, maps: TanAngleMaps) -> ChannelStack:
    """Per-frame tables for the inverse-depth implicit scatter of [tan_x, tan_y, 1, 1/Z].

    Only the bottom row of the scatter matrix depends on the measured depth:
    tan_x/Z, tan_y/Z, 1/Z, 1/Z^2.  Combine with :func:`build_constant_channels`
    to populate the full matrix.  When the frame has invalid pixels, masked
    tan channels are added so windows containing holes still assemble exact
    masked sums; hole-free frames skip them and keep the full precomputation
    advantage.
    """
    inv_z = _masked_inverse_depth(depth, maps)
    lattices = {
        "tx_over_z": maps.tan_x * inv_z,
        "ty_over_z": maps.tan_y * inv_z,
        "inv_z": inv_z,
        "inv_z2": inv_z * inv_z,
    }
    hole_corrected = not bool(depth.valid.all())
    if hole_corrected:
        lattices.update({f"m_{k}": v for k, v in _tan_monomials(maps).items()})
    return _stack_from_lattices(
        lattices, depth.valid, RGBD_IMPLICIT_CHANNELS,
        constant=False, hole_corrected=hole_corrected,
    )


def build_standard_explicit_channels(
    depth: DepthImage, maps: TanAngleMaps, include_residual: bool = True
) -> ChannelStack:
    """Per-frame tables for the standard explicit normal equations.

    8 depth-dependent scatter/right-hand-side elements: X^2, XY, X, Y^2, Y,
    XZ, YZ, Z.  ``include_residual`` adds a Z^2 diagnostic channel so fits
    can report an rms residual; it is not part of the scatter set.
    """
    z = _masked_depth(depth, maps)
    x = z * maps.tan_x
    y = z * maps.tan_y
    lattices = {
        "x2": x * x,
        "xy": x * y,
        "x": x,
        "y2": y * y,
        "y": y,
        "xz": x * z,
        "yz": y * z,
        "z": z,
    }
    residual_name = None
    if include_residual:
        lattices["z2"] = z * z
        residual_name = "z2"
    return _stack_from_lattices(
        lattices, depth.valid, STANDARD_EXPLICIT_CHANNELS,
        constant=False, residual_name=residual_name,
    )


def build_rgbd_explicit_channels(
    depth: DepthImage, maps: TanAngleMaps, include_residual: bool = True
) -> ChannelStack:
    """Per-frame tables for the inverse-depth explicit fit.

    The normal-equation matrix is entirely camera-constant; only the
    right-hand side needs per-frame sums: tan_x/Z, tan_y/Z, 1/Z.
    ``include_residual`` adds a 1/Z^2 diagnostic channel for rms reporting.
    Frames with invalid pixels also carry masked tan channels so holey
    windows get exact masked normal equations.
    """
    inv_z = _masked_inverse_depth(depth, maps)
    lattices = {
        "tx_over_z": maps.tan_x * inv_z,
        "ty_over_z": maps.tan_y * inv_z,
        "inv_z": inv_z,
    }
    residual_name = None
    if include_residual:
        lattices["inv_z2"] = inv_z * inv_z
        residual_name = "inv_z2"
    hole_corrected = not bool(depth.valid.all())
    if hole_corrected:
        lattices.update({f"m_{k}": v for k, v in _tan_monomials(maps).items()})
    return _stack_from_lattices(
        lattices, depth.valid, RGBD_EXPLICIT_CHANNELS,
        constant=False, residual_name=residual_name, hole_corrected=hole_corrected,
    )
