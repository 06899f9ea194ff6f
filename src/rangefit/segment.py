"""Quadtree planar segmentation of a depth image.

The image is cut into an equal square grid; each tile gets a plane fit, and
tiles whose residual exceeds the threshold split into four half-size children
(up to a depth limit).  Tiles with too few valid pixels are rejected outright.
Every tile is a node of a quadtree fixed by the image size: a ragged edge
tile is cut where a full tile would be, and its children are clipped to the
image, so every tile edge lies on the ``initial_tile >> max_depth`` lattice
or on the image border.  The integral backend sums each frame's channels
over those nodes once and fits a whole level with one batched solve.
The walk visits each level once, its nodes held as arrays and its decisions
as masks; leaves are sorted by key into the depth-first order that k-means
seeding sees.  A 1-px sliver's fit is the viewing plane through the camera
centre, so it comes back degenerate.  K-means over the fitted tiles' plane
coefficients then groups coplanar tiles into labeled segments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import fitting
from .camera import TanAngleMaps
from .fitting import FORMULATIONS, MIN_SAMPLES, ExplicitPlane, FitResult, explicit_to_implicit
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

D_SCALE = 5.0  # offset divisor of the cluster features (see tile_features)

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
    backend: str = "integral"
    initial_tile: int = 64
    max_depth: int = 3
    rms_threshold: float | None = None
    min_valid_fraction: float = 0.5
    k: int = 8
    seed: int = 0
    error_metric: str = "rms"

    def __post_init__(self) -> None:
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"unknown formulation {self.formulation!r}")
        if self.backend not in ("naive", "integral"):
            raise ValueError(f"unknown backend {self.backend!r}")
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
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.error_metric not in ("rms", "max"):
            raise ValueError(f"unknown error metric {self.error_metric!r}")

    @property
    def threshold(self) -> float:
        if self.rms_threshold is not None:
            return self.rms_threshold
        return _DEFAULT_THRESHOLDS[self.formulation]


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
    """Leaf tiles, their cluster labels, and the per-pixel label lattice."""

    tiles: list[Tile]
    labels: np.ndarray
    centroids: np.ndarray
    n_fitted: int
    n_too_invalid: int
    n_high_error: int
    warnings: list[str] = field(default_factory=list)

    def to_color(self) -> np.ndarray:
        """Render the per-pixel labels with the fixed palette.

        Rejected tiles show their rejection reason (dark red for too many
        invalid pixels, dark blue for irreducible high fit error).
        """
        colors = [
            CLUSTER_PALETTE[tile.cluster % len(CLUSTER_PALETTE)]
            if tile.status is TileStatus.FITTED
            else TOO_INVALID_COLOR if tile.status is TileStatus.TOO_INVALID
            else HIGH_ERROR_COLOR
            for tile in self.tiles
        ]
        return _paint(self.tiles, colors, self.labels.shape, np.zeros(3, dtype=np.uint8))

    def to_csv(self) -> str:
        lines = ["x0,y0,x1,y1,status,a,b,c,d,rms,cluster"]
        for tile in self.tiles:
            r = tile.rect
            if tile.result is not None:
                coef = _implicit_coefficients(tile.result)
                abcd = ",".join(repr(float(v)) for v in coef)
                rms = "" if tile.result.rms_residual is None else repr(tile.result.rms_residual)
            else:
                abcd = ",,,"
                rms = ""
            lines.append(
                f"{r.x0},{r.y0},{r.x1},{r.y1},{tile.status.value},{abcd},{rms},{tile.cluster}"
            )
        return "\n".join(lines) + "\n"


def _implicit_coefficients(result: FitResult) -> np.ndarray:
    plane = result.plane
    if isinstance(plane, ExplicitPlane):
        return explicit_to_implicit(plane).coefficients
    return plane.coefficients


def tile_features(result: FitResult) -> np.ndarray:
    """Cluster-ready feature vector for a fitted tile.

    The plane is rescaled so its normal has unit length with offset d >= 0
    (parallel planes then share their first three features exactly), and the
    offset is divided by ``D_SCALE`` to balance normal-direction distances
    against offset distances in the clustering metric.
    """
    coef = _implicit_coefficients(result).copy()
    norm = float(np.linalg.norm(coef[:3]))
    if norm == 0:
        raise ValueError("fit has a degenerate normal")
    coef /= norm
    if coef[3] < 0 or (coef[3] == 0 and _first_nonzero_sign(coef[:3]) < 0):
        coef = -coef
    return np.array([coef[0], coef[1], coef[2], coef[3] / D_SCALE])


def _first_nonzero_sign(values: np.ndarray) -> float:
    for v in (values[2], values[1], values[0]):
        if abs(v) > 1e-12:
            return 1.0 if v > 0 else -1.0
    return 1.0


def kmeans(
    features: np.ndarray, k: int, seed: int = 0, max_iter: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means with distance-weighted (k-means++ style) seeding.

    Deterministic for a fixed seed; converges when no label changes or after
    ``max_iter`` rounds.  ``k`` larger than the sample count is clamped.
    Returns (labels, centroids).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError(f"features must be a non-empty (n, d) array, got {features.shape}")
    n = features.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    k = min(k, n)

    rng = np.random.default_rng(seed)
    centroids = np.empty((k, features.shape[1]))
    centroids[0] = features[rng.integers(n)]
    for i in range(1, k):
        dist_sq = np.min(
            np.sum((features[:, None, :] - centroids[None, :i, :]) ** 2, axis=2), axis=1
        )
        total = float(dist_sq.sum())
        if total == 0.0:
            centroids[i:] = features[rng.integers(n, size=k - i)]
            break
        centroids[i] = features[rng.choice(n, p=dist_sq / total)]

    labels = np.full(n, -1)
    for _ in range(max_iter):
        distances = np.sum((features[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(distances, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = features[labels == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
            else:
                # deterministic restart: grab the point farthest from its centroid
                worst = int(np.argmax(np.min(distances, axis=1)))
                centroids[j] = features[worst]
    return labels, centroids


def _paint(
    tiles: list[Tile], values: list, shape: tuple[int, int], fill: np.ndarray
) -> np.ndarray:
    """Each tile's value over its rect, ``fill`` elsewhere, as an (H, W, ...) image.

    Paints on the grid that the tiles' distinct edges form, then repeats
    each grid row and column over the pixels it spans.
    """
    h, w = shape
    rects = np.array([tile.rect for tile in tiles], dtype=np.int64).reshape(-1, 4)
    xs = np.unique(np.concatenate(([0, w], rects[:, 0], rects[:, 2])))
    ys = np.unique(np.concatenate(([0, h], rects[:, 1], rects[:, 3])))
    grid = np.empty((len(ys) - 1, len(xs) - 1, *fill.shape), dtype=fill.dtype)
    grid[...] = fill
    x0, x1 = np.searchsorted(xs, rects[:, 0]), np.searchsorted(xs, rects[:, 2])
    y0, y1 = np.searchsorted(ys, rects[:, 1]), np.searchsorted(ys, rects[:, 3])
    for i, value in enumerate(values):
        grid[y0[i] : y1[i], x0[i] : x1[i]] = value
    return np.repeat(np.repeat(grid, np.diff(ys), axis=0), np.diff(xs), axis=1)


def _error(
    depth: DepthImage, maps: TanAngleMaps, rect: Rect, result: FitResult, config: SegConfig
) -> float:
    """A fitted tile's error under ``config.error_metric``.

    ``"max"`` is the max absolute residual of the fitted objective over the
    tile's pixels.
    """
    if config.error_metric == "rms":
        return np.inf if result.rms_residual is None else result.rms_residual
    samples = fitting.gather_window_samples(depth, maps, rect, config.formulation)
    rows, target = fitting._monomial_rows(samples, config.formulation)
    res = rows @ result.plane.coefficients
    if target is not None:
        res -= target
    return float(np.abs(res).max()) if res.size else 0.0


def segment(
    depth: DepthImage,
    maps: TanAngleMaps,
    config: SegConfig,
    constant: ChannelStack | None = None,
) -> Segmentation:
    """Segment a depth image into labeled planar tiles.

    Sums the formulation's channels over every node of the quadtree once
    (:func:`~rangefit.integral.build_node_pyramid`), fits each level of
    the tree with one batched solve over those sums (the naive backend
    refits each tile from its pixels instead), then clusters the fitted
    tiles' coefficients.  The rgbd formulations read their camera-constant
    tan sums from ``constant`` when it is given, at the corners of the
    quadtree's cell lattice, and write them from the tan maps otherwise.
    """
    if depth.width < 1 or depth.height < 1:
        raise ValueError("empty depth image")
    if depth.width < MIN_TILE_EDGE or depth.height < MIN_TILE_EDGE:
        raise ValueError(
            f"image {depth.width}x{depth.height} is smaller than one fittable tile"
        )

    integral = config.backend == "integral"
    pyramid = build_node_pyramid(
        depth, maps, config.formulation if integral else None,
        config.initial_tile, config.max_depth, constant,
    )
    w, h, threshold = depth.width, depth.height, config.threshold
    # A level's nodes: (row, col) on the level's grid, and a key, the root's
    # row-major index followed by two bits per level for the quarter taken.
    rows, cols = (a.ravel() for a in np.indices(pyramid.levels[0].shape[1:]))
    keys, quarter = np.arange(rows.size), np.arange(4)
    leaves: dict[int, Tile] = {}  # by key, shifted to the finest level
    level = 0
    while rows.size:
        size = config.initial_tile >> level
        half = size >> 1
        x0, y0 = cols * size, rows * size
        x1, y1 = np.minimum(x0 + size, w), np.minimum(y0 + size, h)
        n_valid = pyramid.levels[level][pyramid.index[COUNT_CHANNEL], rows, cols]
        dense = (n_valid >= config.min_valid_fraction * (x1 - x0) * (y1 - y0)) & (
            n_valid >= MIN_SAMPLES[config.formulation]
        )
        # a node splits only into more than one child inside the image
        splittable = (level < config.max_depth) & ((x0 + half < w) | (y0 + half < h))
        rects = [Rect(*r) for r in np.stack((x0, y0, x1, y1), axis=1).tolist()]
        if integral:
            sums = pyramid.sums(level, rows[dense], cols[dense])
            fits = iter(fitting.fit_sums(sums, config.formulation))
        else:
            fits = (
                fitting.fit_rect(depth, maps, rects[i], config.formulation, "naive")
                for i in np.flatnonzero(dense)
            )
        split = np.zeros(rows.size, dtype=bool)
        for i, (rect, key) in enumerate(zip(rects, keys.tolist())):
            result = next(fits) if dense[i] else None
            if result is None:
                status = TileStatus.TOO_INVALID
            elif not result.degenerate and _error(depth, maps, rect, result, config) <= threshold:
                status = TileStatus.FITTED
            elif splittable[i]:
                split[i] = True
                continue
            else:
                status = TileStatus.HIGH_ERROR
            leaves[key << 2 * (config.max_depth - level)] = Tile(rect, status, level, result)
        rows = (2 * rows[split, None] + quarter // 2).ravel()
        cols = (2 * cols[split, None] + quarter % 2).ravel()
        keys = (4 * keys[split, None] + quarter).ravel()
        inside = (rows * half < h) & (cols * half < w)
        rows, cols, keys, level = rows[inside], cols[inside], keys[inside], level + 1
    # Descending keys give the depth-first order of a walk that pops the last
    # root first and pushes a split node's quarters in order: the order in
    # which k-means seeding sees the fitted tiles.
    tiles = [leaves[key] for key in sorted(leaves, reverse=True)]

    warnings: list[str] = []
    fitted = [t for t in tiles if t.status is TileStatus.FITTED]
    if fitted:
        features = np.stack([tile_features(t.result) for t in fitted])
        k = config.k
        if k > len(fitted):
            warnings.append(f"k={k} exceeds {len(fitted)} fitted tiles; clamped")
            k = len(fitted)
        cluster_labels, centroids = kmeans(features, k, seed=config.seed)
        for tile, label in zip(fitted, cluster_labels):
            tile.cluster = int(label)
    else:
        centroids = np.zeros((0, 4))
        warnings.append("no tiles were fitted")

    labels = _paint(
        tiles, [t.cluster for t in tiles], (h, w), np.array(UNLABELED, dtype=np.int16)
    )
    return Segmentation(
        tiles=tiles,
        labels=labels,
        centroids=centroids,
        n_fitted=len(fitted),
        n_too_invalid=sum(1 for t in tiles if t.status is TileStatus.TOO_INVALID),
        n_high_error=sum(1 for t in tiles if t.status is TileStatus.HIGH_ERROR),
        warnings=warnings,
    )
