"""Quadtree planar segmentation of a depth image.

The image is cut into an equal square grid; each tile gets a plane fit, and
tiles whose residual exceeds the threshold split into four half-size children
(up to a depth limit).  Tiles with too few valid pixels are rejected outright.
Every tile is a node of a quadtree fixed by the image size: a ragged edge
tile is cut where a full tile would be, and its children are clipped to the
image, so every tile edge lies on the ``initial_tile >> max_depth`` lattice
or on the image border.  Each frame's channels are summed over those nodes
once, and a whole level is fitted with one batched solve.
The walk visits each level once, its nodes held as arrays, its fits as one
:class:`~rangefit.fitting.FitBatch` and its decisions as masks; leaves come
out in level order.  A 1-px sliver's fit is the viewing plane through the
camera centre, so it comes back degenerate.  Segments then grow over the
adjacency of the fitted leaves on the cell lattice, joining neighbours that
meet without a depth step and whose plane coefficients agree, in array passes
(:func:`group_leaves`), and labels and colours are painted on that lattice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fitting
from .camera import TanAngleMaps
from .fitting import FORMULATIONS, MIN_SAMPLES, FitBatch, FitResult
from .integral import COUNT_CHANNEL, ChannelStack, Rect, build_node_pyramid
from .synth import DepthImage

UNLABELED = -1

# Fixed palette so segmentation images are reproducible run to run.
CLUSTER_PALETTE = (
    (31, 119, 180),
    (255, 127, 14),
    (44, 160, 44),
    (214, 39, 40),
    (148, 103, 189),
    (140, 86, 75),
    (227, 119, 194),
    (127, 127, 127),
    (188, 189, 34),
    (23, 190, 207),
    (174, 199, 232),
    (255, 187, 120),
    (152, 223, 138),
    (255, 152, 150),
    (197, 176, 213),
    (196, 156, 148),
)
TOO_INVALID_COLOR = (128, 0, 0)
HIGH_ERROR_COLOR = (0, 0, 128)
# to_color's rows: the palette, then the rejection colours in status-code
# order, then black for a cell no leaf covers (index -1)
_COLORS = np.array(
    (*CLUSTER_PALETTE, TOO_INVALID_COLOR, HIGH_ERROR_COLOR, (0, 0, 0)), dtype=np.uint8
)

D_SCALE = 5.0  # offset divisor of the leaf features (see tile_features)
JOIN = 0.25  # feature distance under which touching leaves join (see group_leaves)
STEP = 0.05  # relative depth gap on a shared edge from which leaves do not touch
EDGE_ON = 0.1  # |cosine| of plane normal and viewing ray under which a plane is edge-on

# Smallest tile edge worth fitting; a 2x2 tile still carries the 4 samples an
# implicit fit needs.
MIN_TILE_EDGE = 2

_DEFAULT_THRESHOLDS = {
    fitting.IMPLICIT_STANDARD: 8e-3,
    fitting.IMPLICIT_RGBD: 8e-3,
    fitting.EXPLICIT_STANDARD: 0.02,
    fitting.EXPLICIT_RGBD: 8e-3,
}


class TileStatus(enum.Enum):
    FITTED = "fitted"
    TOO_INVALID = "too_invalid"
    HIGH_ERROR = "high_error_leaf"


# A leaf's status code is its status's index here.
STATUSES = (TileStatus.FITTED, TileStatus.TOO_INVALID, TileStatus.HIGH_ERROR)
_FITTED, _TOO_INVALID, _HIGH_ERROR = range(len(STATUSES))


@dataclass(frozen=True)
class SegConfig:
    """Knobs for the quadtree segmentation.

    ``rms_threshold=None`` picks a default suited to the formulation's own
    residual metric (the inverse-depth metrics run near 1e-3 for desk-scale
    noise, the standard explicit metric is in meters).  ``error_metric`` may
    be ``"rms"`` (from the fit itself) or ``"max"`` (max absolute residual,
    evaluated over the tile's pixels).
    """

    formulation: str = fitting.IMPLICIT_RGBD
    initial_tile: int = 64
    max_depth: int = 3
    rms_threshold: float | None = None
    min_valid_fraction: float = 0.5
    error_metric: str = "rms"

    def __post_init__(self) -> None:
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"unknown formulation {self.formulation!r}")
        if self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if self.initial_tile % (1 << self.max_depth):
            raise ValueError(
                f"initial_tile {self.initial_tile} is not a multiple of 2**max_depth "
                f"= {1 << self.max_depth} (max_depth {self.max_depth})"
            )
        if self.initial_tile < (1 << self.max_depth) * MIN_TILE_EDGE:
            raise ValueError(
                f"initial_tile {self.initial_tile} cannot survive {self.max_depth} "
                f"subdivisions (needs at least {(1 << self.max_depth) * MIN_TILE_EDGE})"
            )
        if not self.threshold > 0:  # NaN too
            raise ValueError("rms_threshold must be positive")
        if not (0.0 <= self.min_valid_fraction <= 1.0):
            raise ValueError("min_valid_fraction must be in [0, 1]")
        if self.error_metric not in ("rms", "max"):
            raise ValueError(f"unknown error metric {self.error_metric!r}")

    @property
    def threshold(self) -> float:
        if self.rms_threshold is not None:
            return self.rms_threshold
        return _DEFAULT_THRESHOLDS[self.formulation]

    @property
    def cell(self) -> int:
        """Edge in pixels of the cells of the quadtree's finest level."""
        return self.initial_tile >> self.max_depth


@dataclass
class Tile:
    """One quadtree leaf: its rect, outcome, and (when fitted) the fit."""

    rect: Rect
    status: TileStatus
    level: int
    result: FitResult | None = None
    cluster: int = UNLABELED


@dataclass
class Segmentation:
    """Leaves as arrays, their segment ids, and the per-pixel label lattice.

    Leaf i covers ``rects[i]`` (x0, y0, x1, y1) at quadtree ``level[i]``;
    ``status[i]`` indexes ``STATUSES``; row i of ``fits`` is its fit,
    unfitted for a too-invalid leaf; ``cluster[i]`` is its segment id,
    ``UNLABELED`` unless it is fitted.  Leaves come in level order: level 0
    row-major, then each level's children in their parents' order.
    ``cells`` holds the leaf covering each cell of the quadtree's finest
    lattice (``initial_tile >> max_depth`` pixels), from which ``labels``
    and :meth:`to_color` are painted over the (h, w) image ``shape``.
    """

    config: SegConfig
    rects: np.ndarray
    level: np.ndarray
    status: np.ndarray
    fits: FitBatch
    cluster: np.ndarray
    cells: np.ndarray
    shape: tuple[int, int]
    warnings: list[str] = field(default_factory=list)

    @property
    def n_fitted(self) -> int:
        return int(np.count_nonzero(self.status == _FITTED))

    @property
    def n_too_invalid(self) -> int:
        return int(np.count_nonzero(self.status == _TOO_INVALID))

    @property
    def n_high_error(self) -> int:
        return int(np.count_nonzero(self.status == _HIGH_ERROR))

    @cached_property
    def tiles(self) -> list[Tile]:
        """The leaves as :class:`Tile` objects, built on first use.

        A second view of the arrays, read only by framebench; it and
        :class:`Tile` are deleted once framebench reads the arrays.
        """
        return [
            Tile(Rect(*rect), STATUSES[status], level, self.fits[i], cluster)
            for i, (rect, status, level, cluster) in enumerate(zip(
                self.rects.tolist(), self.status.tolist(), self.level.tolist(),
                self.cluster.tolist(),
            ))
        ]

    @cached_property
    def labels(self) -> np.ndarray:
        """Each pixel's segment id, -1 where no fitted leaf covers it; painted
        on first read, int16 unless there are 2**15 leaves or more."""
        dtype = np.int16 if len(self.status) < 2**15 else np.int32
        lattice = np.append(self.cluster, UNLABELED).astype(dtype)[self.cells]  # -1: no leaf
        return _upsample(lattice, self.config.cell, self.shape)

    def to_color(self) -> np.ndarray:
        """Render the per-pixel labels with the fixed palette.

        Rejected tiles show their rejection reason (dark red for too many
        invalid pixels, dark blue for irreducible high fit error).
        """
        palette = len(CLUSTER_PALETTE)
        rows = np.where(self.status == _FITTED, self.cluster % palette, palette - 1 + self.status)
        colors = _COLORS[np.append(rows, -1)]  # a cell no leaf covers takes the last row
        return _upsample(colors[self.cells], self.config.cell, self.shape)

    def to_csv(self) -> str:
        lines = ["x0,y0,x1,y1,status,a,b,c,d,rms,cluster"]
        fits = self.fits
        for i, ((x0, y0, x1, y1), status, cluster) in enumerate(
            zip(self.rects.tolist(), self.status.tolist(), self.cluster.tolist())
        ):
            abcd, rms = ",,,", ""
            if fits.fitted[i]:
                abcd = ",".join(repr(v) for v in fits.canonical[i].tolist())
                rms = "" if np.isnan(fits.rms[i]) else repr(float(fits.rms[i]))
            lines.append(f"{x0},{y0},{x1},{y1},{STATUSES[status].value},{abcd},{rms},{cluster}")
        return "\n".join(lines) + "\n"

    def stats(self) -> dict:
        """Per-level counts of the quadtree walk, as JSON-ready data.

        For each level that has nodes: its node edge ``tile``; the leaves it
        left ``fitted``, ``too_invalid`` and ``high_error``; the nodes it
        ``split``; and ``degenerate``, its leaves whose fit was flagged
        degenerate.  Computed from the leaf arrays on each call.
        """
        width = self.shape[1]
        x0, y0 = self.rects[:, 0], self.rects[:, 1]
        levels = []
        for level in range(int(self.level.max()) + 1):
            size = self.config.initial_tile >> level
            at, deeper = self.level == level, self.level > level
            # a split node is an ancestor of a deeper leaf
            ancestors = (y0[deeper] // size) * width + x0[deeper] // size
            status = self.status[at]
            levels.append({
                "level": level,
                "tile": size,
                "fitted": int(np.count_nonzero(status == _FITTED)),
                "split": int(np.unique(ancestors).size),
                "too_invalid": int(np.count_nonzero(status == _TOO_INVALID)),
                "high_error": int(np.count_nonzero(status == _HIGH_ERROR)),
                "degenerate": int(np.count_nonzero(self.fits.degenerate[at])),
            })
        return {"leaves": len(self.status), "levels": levels}


def tile_features(coefficients: np.ndarray) -> np.ndarray:
    """Feature rows for fitted tiles' canonical implicit coefficients.

    ``coefficients`` is (N, 4), as :attr:`FitBatch.canonical` gives them.
    Each plane is rescaled so its normal has unit length with offset d >= 0
    (parallel planes then share their first three features exactly; at d ==
    0 the first normal component over 1e-12, in the order (c, b, a), is made
    positive), and the offset is divided by ``D_SCALE`` to balance
    normal-direction distances against offset distances in the grouping
    metric.
    """
    coef = np.asarray(coefficients, dtype=np.float64)
    if coef.ndim != 2 or coef.shape[1] != 4:
        raise ValueError(f"expected (N, 4) coefficients, got shape {coef.shape}")
    norm = np.sqrt(fitting._row_dot(coef[:, :3], coef[:, :3]))
    if np.any(norm == 0):
        raise ValueError("fit has a degenerate normal")
    coef = coef / norm[:, None]
    tie = (coef[:, 3] == 0) & (fitting._first_sign(coef, (2, 1, 0), 1e-12) < 0)
    flip = (coef[:, 3] < 0) | tie
    coef[flip] = -coef[flip]
    coef[:, 3] /= D_SCALE
    return coef


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each node's connected component under edges (a[i], b[i]), named by its lowest node."""
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        hook = ra != rb
        if not hook.any():
            return root
        np.minimum.at(root, np.maximum(ra, rb)[hook], np.minimum(ra, rb)[hook])
        while not np.array_equal(jumped := root[root], root):
            root = jumped


def group_leaves(
    cells: np.ndarray, fitted: np.ndarray, features: np.ndarray, weights: np.ndarray,
    rays: np.ndarray,
) -> np.ndarray:
    """Segment ids of the fitted leaves, grown over the quadtree's leaf adjacency.

    ``cells`` holds the leaf covering each lattice cell (-1 for none) and
    ``rays`` the (tan_x, tan_y) of each cell's centre pixel; ``fitted`` the
    fitted leaves' indices, ascending, and ``features`` and ``weights`` their
    :func:`tile_features` rows and sample counts.  Leaves owning neighbouring
    cells touch unless their planes' depths differ by ``STEP`` or more on a
    shared cell edge (an occlusion edge).  Touching leaves join when their
    features lie closer than ``JOIN``; each segment's heaviest leaf cuts loose
    every member ``JOIN`` or more away.  A leaf is interior unless its plane
    is edge-on on all its edges (a fit across a depth step) or it touches a
    leaf of another segment that is not; the leaves of a seam (a segment with
    no interior leaf) join their nearest adjacent segments.
    """
    n = len(fitted)
    position = np.full(int(cells.max(initial=-1)) + 2, -1)  # index -1 stays -1
    position[fitted] = np.arange(n)
    node, (rows, cols), ray = position[cells], cells.shape, rays.reshape(-1, 2)
    a = np.concatenate((node[:, :-1], node[:-1]), axis=None)
    b = np.concatenate((node[:, 1:], node[1:]), axis=None)
    edge = np.flatnonzero((a >= 0) & (b >= 0) & (a != b))
    # each kept edge's cells by flat index (edges within rows come first), its mean ray
    within = edge < rows * (cols - 1)
    cell = np.where(within, edge + edge // max(cols - 1, 1), edge - rows * (cols - 1))
    a, b, ray = a[edge], b[edge], (ray[cell] + ray[cell + np.where(within, 1, cols)]) / 2
    # each side's normal . (tan_x, tan_y, 1): minus its offset over the depth
    na, nb = (np.einsum("ij,ij->i", features[i, :2], ray) + features[i, 2] for i in (a, b))
    incidence = np.zeros(n)  # each leaf's largest |cosine| of normal and ray on its edges
    cosine = np.abs(np.concatenate((na, nb))) / np.tile(np.sqrt(1 + np.einsum("ij,ij->i", ray, ray)), 2)
    np.maximum.at(incidence, np.concatenate((a, b)), cosine)
    wa, wb = -na * features[b, 3], -nb * features[a, 3]  # inverse depths times both offsets
    pairs, edge = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
    stepped = np.bincount(edge, ~(np.abs(wa - wb) < STEP * np.maximum(wa, wb))) > 0
    a, b = np.divmod(pairs, n)
    distance = np.linalg.norm(features[a] - features[b], axis=1)

    joined = (distance < JOIN) & ~stepped
    while True:
        segment = _components(n, a[joined], b[joined])
        order = np.lexsort((-weights, segment))  # stable, so ties go to the lowest index
        roots, heaviest = np.unique(segment[order], return_index=True)
        centre = features[order[heaviest]][np.searchsorted(roots, segment)]
        cut = np.linalg.norm(features - centre, axis=1) >= JOIN
        if not cut.any():
            break
        joined &= cut[a] == cut[b]

    leaf, other, gap = np.concatenate((a, b)), np.concatenate((b, a)), np.tile(distance, 2)
    facing = incidence >= EDGE_ON
    border = ~np.tile(stepped, 2) & facing[other] & (segment[leaf] != segment[other])
    interior = facing & (np.bincount(leaf[border], minlength=n) == 0)
    anchored = np.zeros(n, dtype=bool)  # by segment: holds an interior leaf
    anchored[segment[interior]] = True
    move = ~anchored[segment[leaf]] & anchored[segment[other]]
    seam, other, gap = leaf[move], other[move], gap[move]
    order = np.lexsort((other, gap, seam))
    nearest = order[np.unique(seam[order], return_index=True)[1]]
    segment[seam[nearest]] = segment[other[nearest]]

    _, lowest, ids = np.unique(segment, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(lowest))[ids]


def _upsample(grid: np.ndarray, cell: int, shape: tuple[int, int]) -> np.ndarray:
    """Each entry of an (R, C, ...) lattice of ``cell``-pixel cells over the
    pixels it covers in an (h, w) image; the last row and column may be ragged.

    Writes one lattice row at a time, each repeated along its columns and
    broadcast over its pixel rows, so nothing larger than one row is made
    beside the image.
    """
    h, w = shape
    xs = np.diff(np.minimum(np.arange(grid.shape[1] + 1) * cell, w))
    out = np.empty((h, w, *grid.shape[2:]), dtype=grid.dtype)
    for row, y0 in zip(grid, range(0, h, cell)):
        out[y0 : y0 + cell] = np.repeat(row, xs, axis=0)
    return out


def _errors(
    depth: DepthImage, maps: TanAngleMaps, rects: np.ndarray, fits: FitBatch, config: SegConfig
) -> np.ndarray:
    """Each node's fit error under ``config.error_metric``; NaN where not fitted.

    ``"max"`` is the max absolute residual of the fitted objective over the
    tile's pixels, taken only where the fit is not degenerate.
    """
    if config.error_metric == "rms":
        return fits.rms
    error = np.full(len(fits), np.nan)
    for i in np.flatnonzero(fits.fitted & ~fits.degenerate):
        rect = Rect(*rects[i].tolist())
        samples = fitting.gather_window_samples(depth, maps, rect, config.formulation)
        rows, target = fitting._monomial_rows(samples, config.formulation)
        res = rows @ fits[i].plane.coefficients
        if target is not None:
            res -= target
        error[i] = np.abs(res).max() if res.size else 0.0
    return error


def segment(
    depth: DepthImage,
    maps: TanAngleMaps,
    config: SegConfig,
    constant: ChannelStack | None = None,
) -> Segmentation:
    """Segment a depth image into labeled planar tiles.

    Sums the formulation's channels over every node of the quadtree once
    (:func:`~rangefit.integral.build_node_pyramid`), fits each level of
    the tree with one batched solve over those sums, then groups the
    fitted tiles (:func:`group_leaves`).  The rgbd formulations form their
    camera-constant tan sums from the maps alone: from the maps' axes on
    pinhole maps, from the maps themselves under a distortion lattice.

    ``constant`` is accepted and not read: the output is the same with or
    without it.  framebench is its only caller, and it is deleted once
    framebench stops passing it.
    """
    if depth.width < 1 or depth.height < 1:
        raise ValueError("empty depth image")
    if depth.width < MIN_TILE_EDGE or depth.height < MIN_TILE_EDGE:
        raise ValueError(
            f"image {depth.width}x{depth.height} is smaller than one fittable tile"
        )

    formulation = config.formulation
    pyramid = build_node_pyramid(depth, maps, formulation, config.initial_tile, config.max_depth)
    w, h, threshold = depth.width, depth.height, config.threshold
    # A level's nodes as (row, col) on the level's grid, level 0 row-major.
    rows, cols = (a.ravel() for a in np.indices(pyramid.levels[0].shape[1:]))
    quarter = np.arange(4)
    leaves = []  # per level: its leaves' levels, rows, cols, rects and statuses
    leaf_fits = []  # per level: its leaves' fits
    level = 0
    while rows.size:
        size = config.initial_tile >> level
        half = size >> 1
        x0, y0 = cols * size, rows * size
        rects = np.stack((x0, y0, np.minimum(x0 + size, w), np.minimum(y0 + size, h)), axis=1)
        area = (rects[:, 2] - x0) * (rects[:, 3] - y0)
        n_valid = pyramid.levels[level][pyramid.index[COUNT_CHANNEL], rows, cols]
        dense = np.flatnonzero(
            (n_valid >= config.min_valid_fraction * area) & (n_valid >= MIN_SAMPLES[formulation])
        )
        batch = fitting.fit_sums(pyramid.sums(level, rows[dense], cols[dense]), formulation)
        fits = batch.expand(dense, rows.size)
        good = ~fits.degenerate & (_errors(depth, maps, rects, fits, config) <= threshold)
        # a node splits only into more than one child inside the image
        splittable = (level < config.max_depth) & ((x0 + half < w) | (y0 + half < h))
        split = fits.fitted & ~good & splittable
        leaf = np.flatnonzero(~split)
        status = np.where(good, _FITTED, np.where(fits.fitted, _HIGH_ERROR, _TOO_INVALID))
        leaves.append((np.full(leaf.size, level), rows[leaf], cols[leaf], rects[leaf], status[leaf]))
        leaf_fits.append(fits.take(leaf))
        rows = (2 * rows[split, None] + quarter // 2).ravel()
        cols = (2 * cols[split, None] + quarter % 2).ravel()
        inside = (rows * half < h) & (cols * half < w)
        rows, cols, level = rows[inside], cols[inside], level + 1
    leaf_level, rows, cols, rects, status = (np.concatenate(a) for a in zip(*leaves))
    fits = FitBatch.concatenate(leaf_fits)

    # the leaf covering each lattice cell, painted one level at a time
    cells = np.full(pyramid.levels[0].shape[1:], -1, dtype=np.int32)
    for i, sums in enumerate(pyramid.levels):
        if i:
            cells = np.repeat(np.repeat(cells, 2, axis=0)[: sums.shape[1]], 2, axis=1)
            cells = cells[:, : sums.shape[2]]
        at = np.flatnonzero(leaf_level == i)
        cells[rows[at], cols[at]] = at
    del pyramid, sums  # grouping and painting read no node sum

    warnings: list[str] = []
    cluster = np.full(len(status), UNLABELED)
    fitted = np.flatnonzero(status == _FITTED)
    if fitted.size:
        features = tile_features(fits.canonical[fitted])
        # the centre pixel of each lattice cell, clipped to the image
        centre = np.ix_(*(np.minimum(np.arange(k) * config.cell + config.cell // 2, m - 1)
                          for k, m in zip(cells.shape, (h, w))))
        rays = np.stack((maps.tan_x[centre], maps.tan_y[centre]), axis=-1)
        cluster[fitted] = group_leaves(cells, fitted, features, fits.n_points[fitted], rays)
    else:
        warnings.append("no tiles were fitted")
    return Segmentation(
        config=config,
        rects=rects,
        level=leaf_level,
        status=status,
        fits=fits,
        cluster=cluster,
        cells=cells,
        shape=(h, w),
        warnings=warnings,
    )
