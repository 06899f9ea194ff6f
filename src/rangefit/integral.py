"""Multi-channel summed-area tables over scatter-matrix monomials.

A summed-area table turns any rectangular sum into four lookups, so a plane
fit over an arbitrary window costs O(1) once the tables exist.  Each space's
scatter is stated once (``SCATTERS``), one table per depth-dependent entry:

* standard, monomials ``[X, Y, Z, 1]``: 9 channels (x2, xy, xz, x, y2, yz,
  y, z2, z);
* inverse-depth (rgbd), monomials ``[tan_x, tan_y, 1, 1/Z]``: only 4
  (tan_x/Z, tan_y/Z, 1/Z, 1/Z^2) -- the other 5 (tan_x^2, tan_x*tan_y,
  tan_y^2, tan_x, tan_y) are the camera's constant, built on first use and
  kept with the maps a frame stack knows (:func:`build_constant_channels`).

An explicit system is a partition of its space's scatter: the scatter less
the row and column of the target, Z or 1/Z (``TARGET``), whose column is
the right-hand side and whose diagonal the residual channel.  It reads 8 or
3 per-frame channels, the rgbd matrix being camera-constant; that drop (9 ->
4 and 8 -> 3) is where the per-frame savings come from.  So a frame stack
with its residual channel serves both formulations of its space, and
``FORMULATION_CHANNELS`` holds each system for the builder and the fits
alike.  ``_MONOMIALS`` says how each channel is computed per pixel; one
builder serves every formulation and a lattice camera's constant stack.

A pinhole camera's constant is no table: each tan monomial is a column
weight times a row weight, so its window sums are products of the two axes'
prefix sums (:class:`AxisSums`, 3(W + H + 2) floats).  Under a distortion
lattice the five tan monomials get summed-area tables like the per-frame
ones.

A stack is one float64 tensor of shape (C, H+1, W+1): one zero-padded table
per channel, the last of a frame with holes being the validity count (a
window of a hole-free frame or of a constant holds its area in samples).
One writer, :func:`_bands`, streams a frame's monomials a band of rows at a
time into one reused buffer: holes hold the neutral depth (0, or +inf for
the inverse monomials), so they add zero with no mask, and the count is the
monomial of the validity mask.  :func:`_build_stack`
prefix-sums the bands into the tables with the additions of a per-channel
``cumsum`` pair, so each is bit-identical to :func:`build_integral`.  The
segmenter fits only the nodes of a quadtree fixed by the image size, so
:func:`build_node_pyramid` instead sums the bands into the cells of its
lattice and each coarser level from the finer one, and reads no summed-area
table.  Tan sums are always the camera constants less the holes' sums,
which the rgbd stack of a frame with holes lists.  One function,
:func:`window_sums`, reads a frame stack's windows: their box sums, count
or area, and tan sums less their holes'.  When the tan maps factor into a
column axis and a row axis (``TanAngleMaps.axes``), an rgbd pyramid's
level 0 reads no tan map and writes no monomial band: a channel's
exponents (``_POWERS``, added up from its ``_MONOMIALS`` recipe) split its
cell sum into row weights, applied by one matmul a band to 1/Z divided
straight into bands of whole cell rows (holes zeroed from the frame's hole
list), and column weights, applied on 1/cell of the data, and its unmasked
tan sums are products of the axes' cell sums.  Under a distortion lattice
the tan monomials are summed from the maps with the frame's bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Iterator, NamedTuple

import numpy as np

from .camera import TanAngleMaps
from .synth import DepthImage

CONSTANT_CHANNELS = ("tx2", "txty", "ty2", "tx", "ty")

COUNT_CHANNEL = "n"  # the name ``SCATTERS`` layouts give the count

SPACE_STANDARD = "standard"
SPACE_RGBD = "rgbd"

# Each space's scatter, stated once: the upper triangle, in row-major order,
# of the outer product of its regression variables, [X, Y, Z, 1] or
# [tan_x, tan_y, 1, 1/Z].  ``TARGET`` is the position of Z or 1/Z, the
# variable an explicit fit regresses on the other three.
SCATTERS = {
    SPACE_STANDARD: ("x2", "xy", "xz", "x", "y2", "yz", "y", "z2", "z", "n"),
    SPACE_RGBD: ("tx2", "txty", "tx", "tx_over_z", "ty2", "ty", "ty_over_z", "n", "inv_z", "inv_z2"),
}
TARGET = {SPACE_STANDARD: 2, SPACE_RGBD: 3}

IMPLICIT_STANDARD = "implicit-standard"
IMPLICIT_RGBD = "implicit-rgbd"
EXPLICIT_STANDARD = "explicit-standard"
EXPLICIT_RGBD = "explicit-rgbd"
FORMULATIONS = (IMPLICIT_STANDARD, IMPLICIT_RGBD, EXPLICIT_STANDARD, EXPLICIT_RGBD)


@dataclass(frozen=True)
class ChannelSet:
    """A formulation's least-squares system in ``space`` as channel names.

    ``layout`` holds the scatter matrix's upper triangle in row-major order,
    ``"n"`` being the valid-sample count; ``rhs`` the explicit right-hand
    side; ``residual`` the optional rms diagnostic channel.  Derived:
    ``entries``, those of the layout and ``rhs`` but the count, which a fit
    reads (:func:`window_sums`); ``scatter``, the per-frame channels (the
    entries that are not camera constants); ``needs_constant``, whether the
    rest come from the camera's constant (less the sums of a frame's holes);
    and ``size``, the system's order and so its fewest samples.
    """

    space: str
    layout: tuple[str, ...]
    rhs: tuple[str, ...] = ()
    residual: str | None = None
    entries: tuple[str, ...] = field(init=False)
    scatter: tuple[str, ...] = field(init=False)
    needs_constant: bool = field(init=False)
    size: int = field(init=False)

    def __post_init__(self) -> None:
        entries = tuple(k for k in self.layout + self.rhs if k != COUNT_CHANNEL)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "scatter", tuple(k for k in entries if k not in CONSTANT_CHANNELS))
        object.__setattr__(self, "needs_constant", any(k in CONSTANT_CHANNELS for k in entries))
        object.__setattr__(self, "size", math.isqrt(2 * len(self.layout)))


def _explicit(space: str) -> ChannelSet:
    """``space``'s explicit system: its scatter less the target's row and
    column, that column as the right-hand side and its diagonal the residual."""
    t = TARGET[space]
    entry = dict(zip(combinations_with_replacement(range(4), 2), SCATTERS[space]))
    layout = tuple(k for (i, j), k in entry.items() if t not in (i, j))
    rhs = tuple(entry[min(i, t), max(i, t)] for i in range(4) if i != t)
    return ChannelSet(space, layout, rhs, entry[t, t])


FORMULATION_CHANNELS = {
    IMPLICIT_STANDARD: ChannelSet(SPACE_STANDARD, SCATTERS[SPACE_STANDARD]),
    IMPLICIT_RGBD: ChannelSet(SPACE_RGBD, SCATTERS[SPACE_RGBD]),
    EXPLICIT_STANDARD: _explicit(SPACE_STANDARD),
    EXPLICIT_RGBD: _explicit(SPACE_RGBD),
}

# Per-pixel recipe of every channel, in an order that writes each operand
# before it is read: a ufunc over operands naming a source lattice ("depth",
# "tan_x", "tan_y", "valid"), a channel of the same stack, or a number.  X =
# Z*tan_x, Y = Z*tan_y; np.positive copies.  The count copies the mask (a
# float ufunc would cast it through a buffer).
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
    COUNT_CHANNEL: (lambda valid, out: np.copyto(out, valid), "valid"),
}

_SOURCE_POWERS = {"depth": (0, 0, 1), "tan_x": (1, 0, 0), "tan_y": (0, 1, 0)}


def _powers(operand: str | float) -> tuple[int, int, int]:
    """A ``_MONOMIALS`` operand's (tan_x, tan_y, depth) exponents, from its
    recipe: a product adds its operands' exponents, a quotient takes off the
    divisor's, a number has none."""
    if not isinstance(operand, str):
        return (0, 0, 0)
    if operand in _SOURCE_POWERS:
        return _SOURCE_POWERS[operand]
    op, *operands = _MONOMIALS[operand]
    powers = np.array([_powers(a) for a in operands])
    return tuple((powers[0] - powers[1] if op is np.divide else powers.sum(axis=0)).tolist())


# Every channel's monomial tan_x**i * tan_y**j * depth**p as (i, j, p).
_POWERS = {name: _powers(name) for name in _MONOMIALS if name != COUNT_CHANNEL}


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
class ChannelStack:
    """A named set of summed-area tables held in one (C, H+1, W+1) tensor.

    ``index`` maps every channel name, the validity count included, to its
    slice of ``tensor``; ``channels`` (every channel but the count) and
    ``count`` are array views into it.  What a stack holds is read from its
    names: a frame stack has its formulation's per-frame channels
    (``FORMULATION_CHANNELS``), the residual channel when built with it and,
    when the frame has holes, the count; a lattice camera's constant stack
    has the five tan tables, built once per camera and shared by reference
    across frames.  A stack without a count (``count`` None) counts every
    pixel of a window, its area.  A frame stack keeps the ``maps`` it was
    built on.  An rgbd frame stack with holes lists them: ``holes`` by flat
    pixel index, ascending, and ``hole_tan``, the (5, K+1) running sums of
    their tan monomials from 0.
    """

    tensor: np.ndarray
    index: dict[str, int]
    holes: np.ndarray | None = None
    hole_tan: np.ndarray | None = None
    maps: TanAngleMaps | None = field(default=None, repr=False, compare=False)
    channels: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)
    count: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tensor.ndim != 3 or sorted(self.index.values()) != list(range(len(self.tensor))):
            raise ValueError(
                f"index {self.index} does not name the {self.tensor.shape} tensor's channels"
            )
        views = {name: self.tensor[i] for name, i in self.index.items()}
        object.__setattr__(self, "count", views.pop(COUNT_CHANNEL, None))
        object.__setattr__(self, "channels", views)

    @cached_property  # read per window: an attribute once read
    def height(self) -> int:
        return self.tensor.shape[1] - 1

    @cached_property
    def width(self) -> int:
        return self.tensor.shape[2] - 1

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


def _box_sums(stack: ChannelStack, rects: Rect | np.ndarray) -> dict[str, float | np.ndarray]:
    """Every table's box sums from one indexed read of the stack's tensor.

    One rect gives a float per table, its corners' flat indices formed from
    Python ints; an (N, 4) array of checked rects gives (N,) sums.  The sums
    are formed in the same order of operations as ``_box``.
    """
    x0, y0, x1, y1 = rects if isinstance(rects, Rect) else rects.T
    stride = stack.width + 1
    corners = np.array((y1 * stride + x1, y0 * stride + x1, y1 * stride + x0, y0 * stride + x0))
    t = stack.tensor.reshape(len(stack.index), -1).take(corners, axis=1)
    if t.ndim == 2:
        sums = [a - b - c + d for a, b, c, d in t.tolist()]
    else:
        sums = t[:, 0] - t[:, 1] - t[:, 2] + t[:, 3]
    return {name: sums[i] for name, i in stack.index.items()}


def build_integral(channel: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Summed-area table of an (H, W) channel; masked-out pixels contribute zero.

    ``table[y, x]`` holds the sum of the source over ``[0, x) x [0, y)``, so
    the table is (H+1, W+1), its first row and column zero.
    """
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
    return table


def _box(table: np.ndarray, rect: Rect) -> float:
    """Unchecked sum over ``rect`` of the source of ``table`` (4-lookup identity)."""
    return float(
        table[rect.y1, rect.x1] - table[rect.y0, rect.x1]
        - table[rect.y1, rect.x0] + table[rect.y0, rect.x0]
    )


def box_sum(table: np.ndarray, rect: Rect) -> float:
    """Sum over ``rect`` of the source of a summed-area table (4-lookup identity)."""
    _check_rect(rect, table.shape[1] - 1, table.shape[0] - 1)
    return _box(table, rect)


def _write_monomials(
    names: tuple[str, ...],
    out: np.ndarray,
    depth: np.ndarray | None,
    tan_x: np.ndarray,
    tan_y: np.ndarray,
    valid: np.ndarray | None = None,
) -> None:
    """Write each named channel's monomial into ``out[i]``.

    The sources are same-shape lattices (or pixel lists); ``depth`` None suits
    the camera-constant channels, ``valid`` None every channel but the count.
    """
    sources = dict(zip(names, out), depth=depth, tan_x=tan_x, tan_y=tan_y, valid=valid)
    for name, (op, *operands) in _MONOMIALS.items():
        if name in names:
            op(*(sources.get(a, a) for a in operands), out=sources[name])


# Bytes of monomials written per band of rows (at least one row): a band, the
# running column sums and the table rows they fill stay in a core's L2 cache.
_BAND_BYTES = 1 << 19


def _band_rows(channels: int, width: int) -> int:
    """Rows per build band of a stack of ``channels`` tables ``width`` pixels wide."""
    return max(1, _BAND_BYTES // (8 * channels * width))


def _bands(
    names: tuple[str, ...],
    maps: TanAngleMaps,
    depth: np.ndarray | None,
    valid: np.ndarray | None,
    rows: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(y0, band)``, the named monomials of at most ``rows`` pixel rows
    from ``y0``, every band written into one reused buffer.  Holes (``valid``
    False) hold the neutral depth, +inf for the inverse monomials (1/inf = 0),
    else 0 (a stack never mixes the two), so they add zero with no mask;
    ``valid`` None means no holes, ``depth`` None the camera-constant ones."""
    buffer = np.empty((len(names), min(rows, maps.height), maps.width))
    hole = np.inf if "inv_z" in names else 0.0
    for y0 in range(0, maps.height, rows):
        at, band = slice(y0, y0 + rows), buffer[:, : maps.height - y0]
        v = None if valid is None else valid[at]
        z = None if depth is None else depth[at] if v is None else np.where(v, depth[at], hole)
        _write_monomials(names, band, z, maps.tan_x[at], maps.tan_y[at], v)
        del z  # free the neutral depths before the band is summed
        yield y0, band


def _build_stack(
    names: tuple[str, ...],
    maps: TanAngleMaps,
    depth: np.ndarray | None = None,
    valid: np.ndarray | None = None,
) -> ChannelStack:
    """Prefix-sum each channel's monomial (:func:`_bands`) into one tensor.

    With ``valid`` the count is the last table; without it the stack has no
    count, like the constant stack (``depth`` None).  Each row is added into
    a running row of column sums, prefix-summed into its table row: the
    additions of ``cumsum(cumsum(c, 0), 1)``.
    """
    w = maps.width
    if valid is not None:
        names += (COUNT_CHANNEL,)
    out = np.empty((len(names), maps.height + 1, w + 1))
    out[:, 0] = out[:, 1:, 0] = 0.0
    table_rows = out[:, 1:, 1:].swapaxes(0, 1)
    column = np.full((len(names), w), -0.0)  # -0.0 + c == c, bit for bit
    for y0, band in _bands(names, maps, depth, valid, _band_rows(len(names), w)):
        for row, table_row in zip(band.swapaxes(0, 1), table_rows[y0:]):
            np.add(column, row, out=column)
            np.add.accumulate(column, axis=1, out=table_row)  # np.cumsum's additions
    return ChannelStack(out, {name: i for i, name in enumerate(names)})


@dataclass(frozen=True)
class AxisSums:
    """A pinhole camera's constant: the prefix sums of its two tan axes' powers.

    ``rows[j, y]`` sums tan_y**j over pixel rows [0, y) and ``cols[i, x]``
    tan_x**i over columns [0, x), for i, j in 0..2: a (3, H+1) and a
    (3, W+1) array, their first column zero.  Each of the five tan
    monomials tan_x**i * tan_y**j (``_POWERS``) is a column weight times a
    row weight, so its sum over a window is ``(rows[j, y1] - rows[j, y0]) *
    (cols[i, x1] - cols[i, x0])`` (:func:`tan_sums`).  It names the five
    channels it serves, as the tables of a :class:`ChannelStack` constant do.
    """

    rows: np.ndarray
    cols: np.ndarray

    @cached_property
    def height(self) -> int:
        return self.rows.shape[1] - 1

    @cached_property
    def width(self) -> int:
        return self.cols.shape[1] - 1

    def per_frame_channel_names(self) -> tuple[str, ...]:
        return CONSTANT_CHANNELS

    @cached_property
    def floats(self) -> tuple[list[list[float]], list[list[float]]]:
        """``rows`` and ``cols`` as lists of Python floats, which one window
        reads faster than it indexes an array."""
        return self.rows.tolist(), self.cols.tolist()


def _axis_prefix_sums(axis: np.ndarray) -> np.ndarray:
    """(3, n+1) prefix sums of ``axis ** [0, 1, 2]``, from a zero column."""
    out = np.zeros((3, len(axis) + 1))
    np.cumsum(_raised(axis, np.arange(3)), axis=1, out=out[:, 1:])
    return out


def _camera_constant(maps: TanAngleMaps) -> AxisSums | ChannelStack:
    if maps.axes is None:
        return _build_stack(CONSTANT_CHANNELS, maps)
    tan_x, tan_y = maps.axes
    return AxisSums(_axis_prefix_sums(tan_y), _axis_prefix_sums(tan_x))


def build_constant_channels(maps: TanAngleMaps) -> AxisSums | ChannelStack:
    """The camera's sums of tan_x^2, tan_x*tan_y, tan_y^2, tan_x, tan_y.

    Built on first use, by this call or a frame stack's first rgbd window
    read, and kept with ``maps`` (``TanAngleMaps.derive``); read only
    through :func:`tan_sums`.  On maps with ``axes`` (no distortion lattice)
    the axes' :class:`AxisSums`, 3(W + H + 2) floats built in O(W + H);
    under a distortion lattice the five (H+1, W+1) summed-area tables, a
    stack with no count: a window's pixel count is its area.
    """
    return maps.derive("constant", _camera_constant)


# Each constant channel with its (tan_x, tan_y) exponents.
_CONSTANT_POWERS = tuple((name, *_POWERS[name][:2]) for name in CONSTANT_CHANNELS)


def tan_sums(
    constant: AxisSums | ChannelStack, rects: Rect | np.ndarray
) -> dict[str, float | np.ndarray]:
    """The five camera-constant tan sums (``CONSTANT_CHANNELS``) over windows.

    ``rects`` is one rect, giving a float per sum, or an (N, 4) array of
    checked rects, giving (N,) arrays.  The one reader of a constant in
    either form (:func:`build_constant_channels`): an :class:`AxisSums`
    gives the product of its two axes' differences, a stack its tables' box
    sums.  A difference of prefix sums carries the rounding of the prefixes
    it reads: a sequential sum of k terms is off by up to k*eps/2 times the
    sum of their magnitudes.  An axis prefix sums one row or column of
    terms, a table entry its whole upper-left block, so far from the origin
    an axes' window sum is roughly a side's length more exact.
    """
    if isinstance(constant, ChannelStack):
        sums = _box_sums(constant, rects)
        return {name: sums[name] for name in CONSTANT_CHANNELS}
    if isinstance(rects, Rect):
        x0, y0, x1, y1 = rects
        rows, cols = constant.floats
        r = [row[y1] - row[y0] for row in rows]
        c = [col[x1] - col[x0] for col in cols]
    else:
        x0, y0, x1, y1 = rects.T
        r = constant.rows[:, y1] - constant.rows[:, y0]
        c = constant.cols[:, x1] - constant.cols[:, x0]
    return {name: r[j] * c[i] for name, i, j in _CONSTANT_POWERS}


def _check_frame(depth: DepthImage, maps: TanAngleMaps) -> None:
    if depth.values.shape != maps.tan_x.shape:
        raise ValueError(
            f"depth {depth.width}x{depth.height} does not match "
            f"maps {maps.width}x{maps.height}"
        )


def build_channels(
    depth: DepthImage, maps: TanAngleMaps, formulation: str, include_residual: bool = True
) -> ChannelStack:
    """Per-frame tables of ``formulation``'s channels (``FORMULATION_CHANNELS``).

    ``include_residual`` adds the explicit formulations' rms diagnostic
    channel.  The stack keeps ``maps``, whose constant its rgbd windows
    read (:func:`build_constant_channels`; not built here).  Only a frame
    with holes gets a count table, and its rgbd stacks also list the holes,
    so a window containing holes subtracts their tan sums from the constant
    ones (:func:`window_sums`), while hole-free frames and windows keep the
    full precomputation advantage.
    """
    spec = FORMULATION_CHANNELS.get(formulation)
    if spec is None:
        raise ValueError(f"unknown formulation {formulation!r}")
    _check_frame(depth, maps)
    names = spec.scatter + ((spec.residual,) if include_residual and spec.residual else ())
    valid = None if depth.valid.all() else depth.valid
    stack = _build_stack(names, maps, depth.values, valid)
    holes = hole_tan = None
    if valid is not None and spec.needs_constant:
        holes = np.flatnonzero(~depth.valid)
        hole_tan = np.zeros((len(CONSTANT_CHANNELS), holes.size + 1))
        tan_at = maps.tan_x.flat[holes], maps.tan_y.flat[holes]
        _write_monomials(CONSTANT_CHANNELS, hole_tan[:, 1:], None, *tan_at)
        np.cumsum(hole_tan, axis=1, out=hole_tan)
    return replace(stack, holes=holes, hole_tan=hole_tan, maps=maps)


def window_sums(
    stack: ChannelStack, rects: Rect | np.ndarray, names: tuple[str, ...]
) -> dict[str, float | np.ndarray]:
    """A frame stack's sums over windows: the one reader of a window.

    ``rects`` is one rect, giving a Python float per sum, or an (N, 4) array
    of checked rects, giving (N,) arrays.  The result holds every table's box
    sums and ``"n"``: the count table's or, in a frame without holes, the
    window's area.  ``names`` are the entries the caller reads (a
    ``ChannelSet``'s ``entries`` or ``scatter``); a per-frame one the stack
    lacks raises ``ValueError``.  When they name tan entries, the result also
    holds the camera constant's (:func:`tan_sums` of the stack's maps) less
    the sums of the holes the stack lists in the window: per row of the
    window, the difference of the running hole sums at the ends of the row's
    span of the hole list.  Only a window whose count falls short of its area
    holds holes, so a whole one returns with the constant's sums.
    """
    absent = [k for k in names if k not in stack.channels]  # tan entries, or missing
    missing = [k for k in absent if k not in CONSTANT_CHANNELS]
    if missing:
        raise ValueError(f"per-frame stack is missing channels: {', '.join(missing)}")
    sums = _box_sums(stack, rects)
    one = isinstance(rects, Rect)
    if one:
        area = float(rects.area)
    else:
        x0, y0, x1, y1 = rects.T
        area = ((x1 - x0) * (y1 - y0)).astype(np.float64)
    n = sums.setdefault(COUNT_CHANNEL, area)
    if not absent:
        return sums
    # the constant kept with the maps, looked up as build_constant_channels
    # does: framebench traces that call as the once-per-camera build
    sums.update(tan_sums(stack.maps.derive("constant", _camera_constant), rects))
    if stack.holes is None:
        return sums
    if one:
        if n == area:
            return sums
        spans = np.array([rects])
    else:
        holey = np.flatnonzero(n != area)
        if not holey.size:
            return sums
        spans = rects[holey]
    x0, y0, x1, y1 = spans.T
    first = np.cumsum(y1 - y0) - (y1 - y0)  # each rect's first row among all rows
    rect = np.repeat(np.arange(len(first)), y1 - y0)
    start = (np.arange(len(rect)) - first[rect] + y0[rect]) * stack.width
    lo, hi = np.searchsorted(stack.holes, (start + x0[rect], start + x1[rect]))
    at_holes = np.add.reduceat(stack.hole_tan[:, hi] - stack.hole_tan[:, lo], first, axis=1)
    if one:
        at_holes = at_holes[:, 0].tolist()
        sums.update((name, sums[name] - h) for name, h in zip(CONSTANT_CHANNELS, at_holes))
    else:
        for name, h in zip(CONSTANT_CHANNELS, at_holes):
            sums[name][holey] -= h
    return sums


# Compatibility names read only by framebench, which traces and calls them;
# they are deleted once it calls build_channels.
def build_standard_implicit_channels(depth: DepthImage, maps: TanAngleMaps) -> ChannelStack:
    """``build_channels(depth, maps, IMPLICIT_STANDARD)``: 9 tables; framebench only."""
    return build_channels(depth, maps, IMPLICIT_STANDARD)


def build_rgbd_implicit_channels(depth: DepthImage, maps: TanAngleMaps) -> ChannelStack:
    """``build_channels(depth, maps, IMPLICIT_RGBD)``: 4 tables; framebench only."""
    return build_channels(depth, maps, IMPLICIT_RGBD)


def build_standard_explicit_channels(depth: DepthImage, maps: TanAngleMaps) -> ChannelStack:
    """``build_channels(depth, maps, EXPLICIT_STANDARD)``: 8 (+ Z^2) tables; framebench only."""
    return build_channels(depth, maps, EXPLICIT_STANDARD)


def build_rgbd_explicit_channels(depth: DepthImage, maps: TanAngleMaps) -> ChannelStack:
    """``build_channels(depth, maps, EXPLICIT_RGBD)``: 3 (+ 1/Z^2) tables; framebench only."""
    return build_channels(depth, maps, EXPLICIT_RGBD)


@dataclass(frozen=True)
class NodePyramid:
    """Channel sums over the nodes of a quadtree fixed by the image size.

    ``levels[l]`` is a (C, rows, cols) array: entry ``[:, r, q]`` holds the
    sums over node (r, q) of level l, the square of ``tile >> l`` pixels at
    row r and column q of the grid anchored at the image origin, clipped to
    the image.  Each level holds exactly the nodes that overlap the image,
    ``ceil(h / (tile >> l))`` rows by ``ceil(w / (tile >> l))`` columns.
    ``index`` maps each channel name, the validity count included, to its
    position in C.
    """

    levels: tuple[np.ndarray, ...]
    index: dict[str, int]

    def sums(self, level: int, rows: np.ndarray, cols: np.ndarray) -> dict[str, np.ndarray]:
        """Every channel's (N,) sums over the level's nodes at (rows, cols)."""
        t = self.levels[level][:, rows, cols]
        return {name: t[i] for name, i in self.index.items()}


def _sum_cells(values: np.ndarray, cell: int, out: np.ndarray) -> None:
    """Write into ``out`` the last axis of ``values`` summed over ``cell``-wide
    cells: the whole cells, then the ragged last one."""
    whole = values.shape[-1] // cell
    cells = values[..., : whole * cell].reshape(*values.shape[:-1], whole, cell)
    out[..., :whole] = cells.sum(axis=-1)
    if whole < out.shape[-1]:
        out[..., whole] = values[..., whole * cell :].sum(axis=-1)


def _cell_sums(
    names: tuple[str, ...],
    maps: TanAngleMaps,
    depth: np.ndarray,
    valid: np.ndarray | None,
    cell: int,
    out: np.ndarray,
) -> None:
    """Write into ``out`` each channel's monomial (:func:`_bands`) summed over
    ``cell``-pixel cells: each band of ``cell`` rows summed down its rows, then
    over its cells' columns."""
    for y0, band in _bands(names, maps, depth, valid, cell):
        _sum_cells(band.sum(axis=1), cell, out[:, y0 // cell])


def _raised(axis: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """One row ``axis ** e`` per exponent, formed by products (``np.vander``),
    which cost a fraction of ``np.power``'s."""
    return np.vander(axis, exponents.max() + 1, increasing=True).T[exponents]


def _factored_cell_sums(
    names: tuple[str, ...],
    maps: TanAngleMaps,
    depth: np.ndarray,
    holes: np.ndarray | None,
    cell: int,
    out: np.ndarray,
) -> None:
    """:func:`_cell_sums` of rgbd channels for maps with ``axes``: the sum
    of tan_x**i * tan_y**j * (1/Z)**q (``_POWERS``, q being -p) over a cell
    is the row weights tan_y**j applied to (1/Z)**q down the cell's rows,
    then the column weights tan_x**i across its columns.

    1/Z is divided straight into one reused band of whole cell rows, as many
    as fit in ``_BAND_BYTES`` with their row sums and level cells.  The
    entries of ``holes`` (sorted flat indices, or None) are then set to 0,
    the 1/Z of a hole; the divide runs under ``np.errstate``, for a hole's
    depth may be 0 or NaN.  Per band, one batched matmul of each cell row's
    ``[1, tan_y, ...]`` weights with 1/Z sums it down the cells' rows, and
    another after squaring the band in place.  Each channel's cells are its
    row sum, times tan_x**i when i > 0, summed across the cells' columns on
    1/cell of the data.  Every cell row is its own matmul of a fixed shape,
    so the sums do not depend on the band's size.  The 1/Z**2 sums weighted
    by tan_y, which no channel reads, are formed too: a one-row matmul runs
    another BLAS kernel, whose sums differ in the last bits.
    """
    tan_x, tan_y = maps.axes
    height, width = maps.height, maps.width
    i, j, p = np.array([_POWERS[name] for name in names]).T
    powers = -p.min()  # of 1/Z
    x_powers = _raised(tan_x, np.arange(i.max() + 1))
    y_powers = _raised(tan_y, np.arange(j.max() + 1))
    whole_rows = height // cell
    row_weights = y_powers[:, : whole_rows * cell].reshape(len(y_powers), whole_rows, cell)
    row_weights = row_weights.swapaxes(0, 1).copy()
    ragged_weights = y_powers[:, whole_rows * cell :]  # those of a ragged last cell row
    # floats per cell row: its rows of 1/Z, row sums and weighted line, and its level cells
    row_floats = width * (cell + powers * len(y_powers) + 1) + len(names) * out.shape[2]
    band_cells = min(out.shape[1], max(1, _BAND_BYTES // (8 * row_floats)))
    buffer = np.empty((min(band_cells * cell, height), width))
    sums = np.empty((powers, band_cells, len(y_powers), width))
    weighted = np.empty((band_cells, width))
    whole_columns, ones = width // cell, np.ones(cell)
    # per channel: its row sums, and its column weights (None when all ones)
    lines = [
        (sums[-p_ - 1, :, j_], x_powers[i_] if i_ else None)
        for i_, j_, p_ in zip(i.tolist(), j.tolist(), p.tolist())
    ]
    for r0 in range(0, out.shape[1], band_cells):
        y0 = r0 * cell
        y1 = min(y0 + band_cells * cell, height)
        band = buffer[: y1 - y0]
        if holes is None:
            np.divide(1.0, depth[y0:y1], out=band)
        else:
            with np.errstate(all="ignore"):
                np.divide(1.0, depth[y0:y1], out=band)
            lo, hi = np.searchsorted(holes, (y0 * width, y1 * width))
            band.reshape(-1)[holes[lo:hi] - y0 * width] = 0.0
        whole, ragged = divmod(y1 - y0, cell)
        cells = whole + bool(ragged)
        for power, at in enumerate(sums[:, :cells]):
            if power:
                np.square(band, out=band)
            full = band[: whole * cell].reshape(whole, cell, width)
            np.matmul(row_weights[r0 : r0 + whole], full, out=at[:whole])
            if ragged:
                np.matmul(ragged_weights, band[whole * cell :], out=at[whole])
        for channel, (line, column_weights) in zip(out[:, r0 : r0 + cells], lines):
            line = line[:cells]
            if column_weights is not None:
                line = np.multiply(line, column_weights, out=weighted[:cells])
            across = line[:, : whole_columns * cell].reshape(cells, whole_columns, cell)
            np.matmul(across, ones, out=channel[:, :whole_columns])  # far faster than .sum(axis=-1)
            if whole_columns < channel.shape[1]:
                channel[:, whole_columns] = line[:, whole_columns * cell :].sum(axis=-1)


def build_node_pyramid(
    depth: DepthImage,
    maps: TanAngleMaps,
    formulation: str,
    tile: int,
    max_depth: int,
) -> NodePyramid:
    """Sums of a frame's channels over every node of a ``max_depth``-level quadtree.

    The quadtree's roots are ``tile``-pixel squares (``tile`` a positive
    multiple of ``2**max_depth``, else ValueError); its leaves are the cells
    of the ``tile >> max_depth`` lattice.  The per-frame monomials are
    summed into cells a band of cell rows at a time, and each
    coarser level is the 2x2 sum of the finer one (a finer level of odd size
    has no partner for its last row or column), so no large sums are
    differenced and each level holds only the nodes that overlap the image.
    Level 0 is one array: its count row is each cell's area less its holes,
    taken off in one loop with an rgbd formulation's tan rows, which are
    their unmasked sums less their holes' monomials.  A hole-free frame
    (``depth.valid.all()``) lists no holes.

    No summed-area table is read.  On maps with ``axes`` (no distortion
    lattice) an rgbd formulation takes the factored path
    (:func:`_factored_cell_sums`), its unmasked tan sums outer products of
    the axes' per-cell sums.  Otherwise each monomial, the tan ones
    included, is summed from the maps (:func:`_cell_sums`).  The standard
    formulations, the per-pixel baseline the rgbd ones are measured
    against, always sum their monomials.
    """
    _check_frame(depth, maps)
    if max_depth < 0 or tile <= 0 or tile % (1 << max_depth):  # as SegConfig
        raise ValueError(f"tile {tile} is not a positive multiple of 2**max_depth ({max_depth})")
    h, w = maps.height, maps.width
    cell = tile >> max_depth
    shape = (-(-h // cell), -(-w // cell))
    ys = np.minimum(np.arange(shape[0] + 1) * cell, h)
    xs = np.minimum(np.arange(shape[1] + 1) * cell, w)
    holes = None if depth.valid.all() else np.flatnonzero(~depth.valid)
    spec = FORMULATION_CHANNELS[formulation]
    names = spec.scatter + ((spec.residual,) if spec.residual else ())
    tan = CONSTANT_CHANNELS if spec.needs_constant else ()
    index = {name: i for i, name in enumerate((*names, *tan, COUNT_CHANNEL))}
    level = np.empty((len(index), *shape))
    if tan and maps.axes is not None:
        _factored_cell_sums(names, maps, depth.values, holes, cell, level[: len(names)])
        i, j, _ = np.array([_POWERS[name] for name in tan]).T
        x_sums, y_sums = np.empty((len(tan), shape[1])), np.empty((len(tan), shape[0]))
        _sum_cells(_raised(maps.axes[0], i), cell, x_sums)
        _sum_cells(_raised(maps.axes[1], j), cell, y_sums)
        np.multiply(y_sums[:, :, None], x_sums[:, None], out=level[len(names) : -1])
    else:
        valid = None if holes is None else depth.valid
        _cell_sums(names + tan, maps, depth.values, valid, cell, level[:-1])
    level[-1] = np.diff(ys)[:, None] * np.diff(xs)
    if holes is not None:
        hole_cells = holes // w // cell * shape[1] + holes % w // cell
        at_holes = np.empty((len(tan), holes.size))
        _write_monomials(tan, at_holes, None, maps.tan_x.flat[holes], maps.tan_y.flat[holes])
        for channel, values in zip(level[len(names) :], (*at_holes, None)):
            channel -= np.bincount(hole_cells, values, channel.size).reshape(shape)
    levels = [level]
    for _ in range(max_depth):
        # the 2x2 sums ((f00 + f01) + f10) + f11, a missing odd row or column
        # adding nothing
        f = levels[-1]
        pair_rows, pair_cols = f.shape[1] // 2, f.shape[2] // 2
        coarse = f[:, 0::2, 0::2].copy()
        coarse[:, :, :pair_cols] += f[:, 0::2, 1::2]
        coarse[:, :pair_rows] += f[:, 1::2, 0::2]
        coarse[:, :pair_rows, :pair_cols] += f[:, 1::2, 1::2]
        levels.append(coarse)
    return NodePyramid(tuple(reversed(levels)), index)
