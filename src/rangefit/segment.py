"""Quadtree planar segmentation of a depth image.

The image is cut into an equal square grid; each tile gets a plane fit, and
tiles whose residual exceeds the threshold split into four half-size children
(up to a depth limit).  Tiles with too few valid pixels are rejected outright.
The quadtree is fitted one level at a time, so the integral backend fits a
whole level with one batched call.  K-means over the fitted tiles' plane
coefficients then groups coplanar tiles into labeled segments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import fitting
from .camera import TanAngleMaps
from .errors import InsufficientSamplesError
from .fitting import FORMULATIONS, ExplicitPlane, FitResult, explicit_to_implicit
from .integral import (
    COUNT_CHANNEL,
    FORMULATION_CHANNELS,
    ChannelStack,
    Rect,
    _box_corners,
    _box_sums,
    build_channels,
    build_constant_channels,
    build_integral,
)
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
        h, w = self.labels.shape
        rgb = np.zeros((h, w, 3), dtype=np.uint8)
        for tile in self.tiles:
            r = tile.rect
            if tile.status is TileStatus.FITTED:
                color = CLUSTER_PALETTE[tile.cluster % len(CLUSTER_PALETTE)]
            elif tile.status is TileStatus.TOO_INVALID:
                color = TOO_INVALID_COLOR
            else:
                color = HIGH_ERROR_COLOR
            rgb[r.y0 : r.y1, r.x0 : r.x1] = color
        return rgb

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


def build_frame_stack(
    depth: DepthImage, maps: TanAngleMaps, formulation: str
) -> ChannelStack:
    """Build the per-frame channel stack a formulation needs (with residuals)."""
    return build_channels(depth, maps, formulation)


def _initial_grid(width: int, height: int, tile: int) -> list[Rect]:
    rects = []
    for y0 in range(0, height, tile):
        for x0 in range(0, width, tile):
            rects.append(Rect(x0, y0, min(x0 + tile, width), min(y0 + tile, height)))
    return rects


def _split(rect: Rect) -> list[Rect]:
    xm = rect.x0 + (rect.x1 - rect.x0) // 2
    ym = rect.y0 + (rect.y1 - rect.y0) // 2
    return [
        Rect(rect.x0, rect.y0, xm, ym),
        Rect(xm, rect.y0, rect.x1, ym),
        Rect(rect.x0, ym, xm, rect.y1),
        Rect(xm, ym, rect.x1, rect.y1),
    ]


def _max_residual(
    depth: DepthImage, maps: TanAngleMaps, rect: Rect, result: FitResult, formulation: str
) -> float:
    """Max absolute residual of the fitted objective over the tile's pixels."""
    sl = (slice(rect.y0, rect.y1), slice(rect.x0, rect.x1))
    valid = depth.valid[sl]
    z = depth.values[sl][valid]
    tx = maps.tan_x[sl][valid]
    ty = maps.tan_y[sl][valid]
    coef = result.plane.coefficients
    if formulation == fitting.IMPLICIT_STANDARD:
        res = coef[0] * z * tx + coef[1] * z * ty + coef[2] * z + coef[3]
    elif formulation == fitting.IMPLICIT_RGBD:
        res = coef[0] * tx + coef[1] * ty + coef[2] + coef[3] / z
    elif formulation == fitting.EXPLICIT_STANDARD:
        res = coef[0] * z * tx + coef[1] * z * ty + coef[2] - z
    else:
        res = coef[0] * tx + coef[1] * ty + coef[2] - 1.0 / z
    return float(np.abs(res).max()) if res.size else 0.0


def segment(
    depth: DepthImage,
    maps: TanAngleMaps,
    config: SegConfig,
    constant: ChannelStack | None = None,
) -> Segmentation:
    """Segment a depth image into labeled planar tiles.

    Builds the formulation's per-frame channel stack (integral backend),
    runs the quadtree subdivision, then clusters fitted tiles' coefficients.
    Pass the prebuilt camera-constant stack to amortize it across frames
    (required by the rgbd formulations on the integral backend; built on the
    fly if omitted).
    """
    if depth.width < 1 or depth.height < 1:
        raise ValueError("empty depth image")
    if depth.width < MIN_TILE_EDGE or depth.height < MIN_TILE_EDGE:
        raise ValueError(
            f"image {depth.width}x{depth.height} is smaller than one fittable tile"
        )

    stack: ChannelStack | None = None
    if config.backend == "integral":
        if FORMULATION_CHANNELS[config.formulation].needs_constant and constant is None:
            constant = build_constant_channels(maps)
        stack = build_frame_stack(depth, maps, config.formulation)
        count_table = stack.count.table
    else:
        count_table = build_integral(depth.valid, name=COUNT_CHANNEL).table

    def fit_level(rects: list[Rect]) -> list[FitResult | None]:
        """Fits of one level's tiles; None where a tile has too few samples."""
        if stack is not None:
            boxes = np.array(rects, dtype=np.int64)
            return fitting.fit_rects(stack, constant, boxes, config.formulation)
        results: list[FitResult | None] = []
        for rect in rects:
            try:
                results.append(
                    fitting.fit_rect(depth, maps, rect, config.formulation, config.backend)
                )
            except InsufficientSamplesError:
                results.append(None)
        return results

    grid = _initial_grid(depth.width, depth.height, config.initial_tile)
    # Each tile's outcome: a leaf Tile, or None when the tile splits.  Tiles
    # of one level are disjoint and strictly smaller than their parents, so a
    # rect names exactly one tile of the quadtree.
    outcomes: dict[Rect, Tile | None] = {}
    rects, level = grid, 0
    while rects:
        boxes = np.array(rects, dtype=np.int64)
        n_valid = np.rint(_box_sums(count_table, _box_corners(boxes, depth.width)))
        area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
        dense = (n_valid >= config.min_valid_fraction * area) & (n_valid > 0)
        to_fit = [rect for rect, ok in zip(rects, dense) if ok]
        fits = dict(zip(to_fit, fit_level(to_fit)))
        children: list[Rect] = []
        for rect in rects:
            result = fits.get(rect)
            if result is None:
                outcomes[rect] = Tile(rect=rect, status=TileStatus.TOO_INVALID, level=level)
                continue
            if config.error_metric == "max":
                error = _max_residual(depth, maps, rect, result, config.formulation)
            else:
                error = np.inf if result.rms_residual is None else result.rms_residual
            if not result.degenerate and error <= config.threshold:
                outcomes[rect] = Tile(
                    rect=rect, status=TileStatus.FITTED, level=level, result=result
                )
            elif (
                level < config.max_depth
                and rect.x1 - rect.x0 >= 2 * MIN_TILE_EDGE
                and rect.y1 - rect.y0 >= 2 * MIN_TILE_EDGE
            ):
                outcomes[rect] = None
                children.extend(_split(rect))
            else:
                outcomes[rect] = Tile(
                    rect=rect, status=TileStatus.HIGH_ERROR, level=level, result=result
                )
        rects, level = children, level + 1

    # Replay the tree in the depth-first order of a stack-driven walk, which
    # fixes the tile order k-means seeding sees.
    tiles: list[Tile] = []
    pending = list(grid)
    while pending:
        rect = pending.pop()
        tile = outcomes[rect]
        if tile is None:
            pending.extend(_split(rect))
        else:
            tiles.append(tile)

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

    labels = np.full((depth.height, depth.width), UNLABELED, dtype=np.int16)
    for tile in tiles:
        if tile.status is TileStatus.FITTED:
            labels[tile.rect.y0 : tile.rect.y1, tile.rect.x0 : tile.rect.x1] = tile.cluster

    return Segmentation(
        tiles=tiles,
        labels=labels,
        centroids=centroids,
        n_fitted=len(fitted),
        n_too_invalid=sum(1 for t in tiles if t.status is TileStatus.TOO_INVALID),
        n_high_error=sum(1 for t in tiles if t.status is TileStatus.HIGH_ERROR),
        warnings=warnings,
    )
