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
come from.  ``FORMULATION_CHANNELS`` states each formulation's system once,
for the builder and the fits alike, and ``_MONOMIALS`` says how each channel
is computed per pixel; one builder serves every formulation and the
camera-constant stack.

A stack is one float64 tensor of shape (C, H+1, W+1): one zero-padded table
per channel, the validity count being the last of the C.  The builder writes
every monomial straight into its table with the depth mask applied once, so
invalid pixels contribute zero to every channel and to the count and fits
always normalize by the true sample count of a window.  It then forms all C
prefix sums in one pass, rows first and then columns, the same order of
additions as a per-channel ``cumsum`` pair, so the tables are bit-identical
to :func:`build_integral` on each masked monomial.  Because the
camera-constant channels cannot know a frame's holes, the rgbd stack of a
frame with invalid pixels carries masked copies of those tan tables under the
same names, and fits read them in place of the constant stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .camera import TanAngleMaps
from .synth import DepthImage

CONSTANT_CHANNELS = ("tx2", "txty", "ty2", "tx", "ty")

COUNT_CHANNEL = "count"

IMPLICIT_STANDARD = "implicit-standard"
IMPLICIT_RGBD = "implicit-rgbd"
EXPLICIT_STANDARD = "explicit-standard"
EXPLICIT_RGBD = "explicit-rgbd"
FORMULATIONS = (IMPLICIT_STANDARD, IMPLICIT_RGBD, EXPLICIT_STANDARD, EXPLICIT_RGBD)


@dataclass(frozen=True)
class ChannelSet:
    """A formulation's least-squares system as channel names.

    ``layout`` holds the scatter matrix's upper triangle in row-major order,
    ``"n"`` being the valid-sample count; ``rhs`` the explicit right-hand
    side; ``residual`` the optional rms diagnostic channel.  Derived:
    ``scatter``, the per-frame channels (the entries that are not camera
    constants); ``needs_constant``, whether the rest come from the constant
    stack (a frame with holes carries masked copies of them instead); and
    ``size``, the system's order and so its fewest samples.
    """

    layout: tuple[str, ...]
    rhs: tuple[str, ...] = ()
    residual: str | None = None
    scatter: tuple[str, ...] = field(init=False)
    needs_constant: bool = field(init=False)
    size: int = field(init=False)

    def __post_init__(self) -> None:
        entries = [k for k in self.layout + self.rhs if k != "n"]
        object.__setattr__(self, "scatter", tuple(k for k in entries if k not in CONSTANT_CHANNELS))
        object.__setattr__(self, "needs_constant", any(k in CONSTANT_CHANNELS for k in entries))
        object.__setattr__(self, "size", math.isqrt(2 * len(self.layout)))


FORMULATION_CHANNELS = {
    IMPLICIT_STANDARD: ChannelSet(("x2", "xy", "xz", "x", "y2", "yz", "y", "z2", "z", "n")),
    IMPLICIT_RGBD: ChannelSet(
        ("tx2", "txty", "tx", "tx_over_z", "ty2", "ty", "ty_over_z", "n", "inv_z", "inv_z2")
    ),
    EXPLICIT_STANDARD: ChannelSet(("x2", "xy", "x", "y2", "y", "n"), ("xz", "yz", "z"), "z2"),
    EXPLICIT_RGBD: ChannelSet(
        ("tx2", "txty", "tx", "ty2", "ty", "n"), ("tx_over_z", "ty_over_z", "inv_z"), "inv_z2"
    ),
}

# Per-pixel recipe of every channel, in an order that writes each operand
# before it is read: a ufunc over operands naming a source lattice ("depth",
# "tan_x", "tan_y"), a channel of the same stack, or a number.  X = Z*tan_x
# and Y = Z*tan_y; np.positive copies.
_MONOMIALS = {
    "z": (np.positive, "depth"),
    "x": (np.multiply, "z", "tan_x"),
    "y": (np.multiply, "z", "tan_y"),
    "x2": (np.multiply, "x", "x"),
    "xy": (np.multiply, "x", "y"),
    "xz": (np.multiply, "x", "z"),
    "y2": (np.multiply, "y", "y"),
    "yz": (np.multiply, "y", "z"),
    "z2": (np.multiply, "z", "z"),
    "inv_z": (np.divide, 1.0, "depth"),
    "tx_over_z": (np.multiply, "tan_x", "inv_z"),
    "ty_over_z": (np.multiply, "tan_y", "inv_z"),
    "inv_z2": (np.multiply, "inv_z", "inv_z"),
    "tx2": (np.multiply, "tan_x", "tan_x"),
    "txty": (np.multiply, "tan_x", "tan_y"),
    "ty2": (np.multiply, "tan_y", "tan_y"),
    "tx": (np.positive, "tan_x"),
    "ty": (np.positive, "tan_y"),
}


class Rect(NamedTuple):
    """Half-open pixel rectangle: x in [x0, x1), y in [y0, y1)."""

    x0: int
    y0: int
    x1: int
    y1: int

    @property
    def area(self) -> int:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


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
    """A named set of summed-area tables held in one (C, H+1, W+1) tensor.

    ``index`` maps every channel name, the validity count included, to its
    slice of ``tensor``; ``channels`` (every channel but the count) and
    ``count`` are :class:`IntegralImage` views into it.  What a stack holds
    is read from its names: a frame stack has its formulation's per-frame
    channels (``FORMULATION_CHANNELS``), the residual channel when built with
    it and, for an rgbd frame with holes, masked copies of the tan tables; the
    camera-constant stack has the unmasked tan tables, built once per camera
    and shared by reference across frames.
    """

    tensor: np.ndarray
    index: dict[str, int]
    channels: dict[str, IntegralImage] = field(init=False, repr=False, compare=False)
    count: IntegralImage = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tensor.ndim != 3 or sorted(self.index.values()) != list(range(len(self.tensor))):
            raise ValueError(
                f"index {self.index} does not name the {self.tensor.shape} tensor's channels"
            )
        views = {name: IntegralImage(name, self.tensor[i]) for name, i in self.index.items()}
        object.__setattr__(self, "count", views.pop(COUNT_CHANNEL))
        object.__setattr__(self, "channels", views)

    @property
    def height(self) -> int:
        return self.count.height

    @property
    def width(self) -> int:
        return self.count.width

    def per_frame_channel_names(self) -> tuple[str, ...]:
        """Every channel in the stack but the count, in tensor order."""
        return tuple(self.channels.keys())


def _check_rect(rect: Rect, width: int, height: int) -> None:
    if not (0 <= rect.x0 <= rect.x1 <= width and 0 <= rect.y0 <= rect.y1 <= height):
        raise ValueError(f"rect {rect} out of bounds for {width}x{height} image")


def _check_rects(rects: np.ndarray, width: int, height: int) -> np.ndarray:
    """Validate an (N, 4) integer array of (x0, y0, x1, y1) rows like ``_check_rect``."""
    rects = np.asarray(rects)
    if rects.shape in ((0,), (0, 4)):  # (0,): an empty list of rects
        return np.zeros((0, 4), dtype=np.int64)
    if rects.ndim != 2 or rects.shape[1] != 4 or not np.issubdtype(rects.dtype, np.integer):
        raise ValueError(f"rects must be an (N, 4) integer array, got {rects.dtype} {rects.shape}")
    x0, y0, x1, y1 = rects.T
    inside = (0 <= x0) & (x0 <= x1) & (x1 <= width) & (0 <= y0) & (y0 <= y1) & (y1 <= height)
    if not inside.all():
        _check_rect(Rect(*(int(v) for v in rects[np.argmin(inside)])), width, height)
    return rects.astype(np.int64, copy=False)


def _box_corners(rects: np.ndarray, width: int) -> np.ndarray:
    """(4, N) flat table indices of each rect's corners, in ``_box_sums`` order.

    One (x0, y0, x1, y1) rect gives the (4,) indices of its corners.
    """
    x0, y0, x1, y1 = np.asarray(rects).T
    stride = width + 1
    return np.array((y1 * stride + x1, y0 * stride + x1, y1 * stride + x0, y0 * stride + x0))


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


def _box(table: np.ndarray, rect: Rect) -> float:
    """Unchecked sum over ``rect`` of the source of ``table`` (4-lookup identity)."""
    return float(
        table[rect.y1, rect.x1] - table[rect.y0, rect.x1]
        - table[rect.y1, rect.x0] + table[rect.y0, rect.x0]
    )


def box_sum(integral: IntegralImage, rect: Rect) -> float:
    """Sum of the source channel over ``rect`` via the 4-lookup identity."""
    _check_rect(rect, integral.width, integral.height)
    return _box(integral.table, rect)


def _build_stack(
    names: tuple[str, ...],
    maps: TanAngleMaps,
    depth: np.ndarray | None,
    valid: np.ndarray | bool,
) -> ChannelStack:
    """Write each channel's monomial into one tensor, then prefix-sum it in place.

    ``valid`` masks every write, count included (True: no pixel is masked);
    ``depth`` None builds the camera-constant stack.
    """
    h, w = maps.height, maps.width
    out = np.zeros((len(names) + 1, h + 1, w + 1))
    body = out[:, 1:, 1:]
    sources = {"depth": depth, "tan_x": maps.tan_x, "tan_y": maps.tan_y, **dict(zip(names, body))}
    np.copyto(body[-1], valid)
    for name, (op, *operands) in _MONOMIALS.items():
        if name in names:
            op(*(sources.get(a, a) for a in operands), out=sources[name], where=valid)
    # rows first, then columns: the additions of cumsum(cumsum(c, 0), 1)
    for y in range(1, h):
        np.add(body[:, y], body[:, y - 1], out=body[:, y])
    np.cumsum(body, axis=2, out=body)
    return ChannelStack(out, {name: i for i, name in enumerate((*names, COUNT_CHANNEL))})


def build_constant_channels(maps: TanAngleMaps) -> ChannelStack:
    """Camera-constant monomial tables: tan_x^2, tan_x*tan_y, tan_y^2, tan_x, tan_y.

    Built once per intrinsics and reused for every frame; the count channel
    here counts pixels (all of them), matching the precomputed-sum semantics.
    """
    return _build_stack(CONSTANT_CHANNELS, maps, None, True)


def build_channels(
    depth: DepthImage, maps: TanAngleMaps, formulation: str, include_residual: bool = True
) -> ChannelStack:
    """Per-frame tables of ``formulation``'s channels (``FORMULATION_CHANNELS``).

    ``include_residual`` adds the explicit formulations' rms diagnostic
    channel.  rgbd stacks combine with :func:`build_constant_channels`; when
    the frame has invalid pixels they also carry masked tan tables under the
    constant stack's names, so every window assembles exact masked sums while
    hole-free frames keep the full precomputation advantage.
    """
    spec = FORMULATION_CHANNELS.get(formulation)
    if spec is None:
        raise ValueError(f"unknown formulation {formulation!r}")
    if depth.values.shape != maps.tan_x.shape:
        raise ValueError(
            f"depth {depth.width}x{depth.height} does not match "
            f"maps {maps.width}x{maps.height}"
        )
    names = spec.scatter
    if include_residual and spec.residual is not None:
        names += (spec.residual,)
    holes = not bool(depth.valid.all())
    if holes and spec.needs_constant:
        names += CONSTANT_CHANNELS
    # a hole-free frame needs no mask, and unmasked ufunc loops run faster
    return _build_stack(names, maps, depth.values, depth.valid if holes else True)


def build_standard_implicit_channels(depth: DepthImage, maps: TanAngleMaps) -> ChannelStack:
    """Per-frame tables for the standard implicit scatter of [X, Y, Z, 1]: 9 channels."""
    return build_channels(depth, maps, IMPLICIT_STANDARD)


def build_rgbd_implicit_channels(depth: DepthImage, maps: TanAngleMaps) -> ChannelStack:
    """Per-frame tables for the inverse-depth implicit scatter: 4 channels."""
    return build_channels(depth, maps, IMPLICIT_RGBD)


def build_standard_explicit_channels(
    depth: DepthImage, maps: TanAngleMaps, include_residual: bool = True
) -> ChannelStack:
    """Per-frame tables for the standard explicit normal equations: 8 channels (+ Z^2)."""
    return build_channels(depth, maps, EXPLICIT_STANDARD, include_residual)


def build_rgbd_explicit_channels(
    depth: DepthImage, maps: TanAngleMaps, include_residual: bool = True
) -> ChannelStack:
    """Per-frame tables for the inverse-depth explicit fit: 3 channels (+ 1/Z^2)."""
    return build_channels(depth, maps, EXPLICIT_RGBD, include_residual)
