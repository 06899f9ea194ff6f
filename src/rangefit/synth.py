"""Virtual depth sensor: per-pixel rays intersected with ground-truth planes.

Each pixel's viewing ray is ``t * (tan_x, tan_y, 1)`` from the camera origin,
so intersecting it with the implicit plane ``a*X + b*Y + c*Z + d = 0`` gives
the depth directly::

    Z = -d / (a * tan_x + b * tan_y + c)

Rendering composites the nearest positive intersection per pixel, optionally
perturbs the point along its ray with the quadratic Gaussian depth-noise law
(displacement parameterized so its Z component has standard deviation
sigma_Z), and records a ground-truth label lattice for segmentation scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .camera import MM_PER_METER, NoiseModel, TanAngleMaps

INVALID_LABEL = 255


@dataclass(frozen=True)
class GroundTruthPlane:
    """An implicit plane a*X + b*Y + c*Z + d = 0 with a unit normal.

    ``mask_rect`` (x0, y0, x1, y1; half-open pixel bounds, 0 <= x0 <= x1 and
    0 <= y0 <= y1, clipped to the image) optionally limits which pixels the
    plane can cover, handy for building piecewise scenes with known labels.
    """

    coefficients: np.ndarray
    mask_rect: tuple[int, int, int, int] | None = None

    def __post_init__(self) -> None:
        coef = np.asarray(self.coefficients, dtype=np.float64)
        if coef.shape != (4,):
            raise ValueError(f"plane needs 4 coefficients, got shape {coef.shape}")
        if not np.isfinite(coef).all():
            raise ValueError(f"plane coefficients must be finite, got {coef}")
        norm = float(np.linalg.norm(coef[:3]))
        if norm == 0:
            raise ValueError("plane normal must be nonzero")
        object.__setattr__(self, "coefficients", coef / norm)
        x0, y0, x1, y1 = self.mask_rect or (0, 0, 0, 0)
        if not (0 <= x0 <= x1 and 0 <= y0 <= y1):
            raise ValueError(f"mask_rect {self.mask_rect} needs 0 <= x0 <= x1 and 0 <= y0 <= y1")

    @property
    def normal(self) -> np.ndarray:
        return self.coefficients[:3]

    @property
    def offset(self) -> float:
        return float(self.coefficients[3])


@dataclass(frozen=True)
class SyntheticScene:
    """An ordered set of ground-truth planes; nearest intersection wins."""

    planes: tuple[GroundTruthPlane, ...]

    def __post_init__(self) -> None:
        if not self.planes:
            raise ValueError("scene must contain at least one plane")
        object.__setattr__(self, "planes", tuple(self.planes))


@dataclass
class DepthImage:
    """Organized depth lattice in meters with a validity mask.

    Invalid pixels (holes: no intersection, dropout, a depth that is not
    positive and finite or whose inverse 1/Z or 1/Z^2 overflows) are
    excluded from every sum and fit downstream.
    """

    values: np.ndarray
    valid: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"depth lattice must be 2D, got shape {self.values.shape}")
        with np.errstate(divide="ignore", over="ignore"):
            inverse = 1.0 / self.values
            positive = np.isfinite(self.values) & (self.values > 0) & np.isfinite(inverse * inverse)
        if self.valid is None:
            self.valid = positive
        else:
            self.valid = np.asarray(self.valid, dtype=bool)
            if self.valid.shape != self.values.shape:
                raise ValueError(
                    f"mask shape {self.valid.shape} != depth shape {self.values.shape}"
                )
            # valid pixels must hold a finite positive depth with finite inverses
            self.valid = self.valid & positive

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def to_millimeters(self) -> np.ndarray:
        """Quantize to uint16 millimeters, 0 marking invalid pixels."""
        mm = np.where(self.valid, np.round(self.values * MM_PER_METER), 0.0)
        if np.any(mm > np.iinfo(np.uint16).max):
            raise ValueError("depth exceeds uint16 millimeter range")
        return mm.astype(np.uint16)

    @classmethod
    def from_millimeters(cls, mm: np.ndarray) -> "DepthImage":
        mm = np.asarray(mm)
        return cls(values=mm.astype(np.float64) / MM_PER_METER, valid=mm > 0)


def ray_for_pixel(maps: TanAngleMaps, pixel: tuple[int, int]) -> np.ndarray:
    """Unnormalized viewing-ray direction (tan_x, tan_y, 1) for one pixel."""
    x, y = pixel
    if not (0 <= x < maps.width and 0 <= y < maps.height):
        raise ValueError(f"pixel ({x}, {y}) outside {maps.width}x{maps.height} image")
    return np.array([maps.tan_x[y, x], maps.tan_y[y, x], 1.0])


def intersect_plane(ray: np.ndarray, plane: GroundTruthPlane) -> float | None:
    """Depth of the ray-plane intersection, or None if behind or parallel."""
    a, b, c, d = plane.coefficients
    denom = a * ray[0] + b * ray[1] + c * ray[2]
    if denom == 0.0:
        return None
    z = -d / denom
    if z <= 0 or not np.isfinite(z):
        return None
    return float(z)


def _plane_depths(plane: GroundTruthPlane, maps: TanAngleMaps) -> np.ndarray:
    """Per-pixel intersection depths for one plane; +inf where it misses."""
    a, b, c, d = plane.coefficients
    denom = a * maps.tan_x + b * maps.tan_y + c
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(denom != 0.0, -d / denom, np.inf)
    z = np.where(np.isfinite(z) & (z > 0), z, np.inf)
    if plane.mask_rect is not None:
        x0, y0, x1, y1 = plane.mask_rect
        masked = np.full_like(z, np.inf)
        masked[y0:y1, x0:x1] = z[y0:y1, x0:x1]
        z = masked
    return z


def render_scene(
    scene: SyntheticScene,
    maps: TanAngleMaps,
    noise: NoiseModel | None = None,
    seed: int = 0,
    dropout: float = 0.0,
) -> tuple[DepthImage, np.ndarray]:
    """Render the scene into a depth image plus a ground-truth label lattice.

    Per pixel the nearest positive intersection wins; pixels hitting nothing
    are invalid and labeled ``INVALID_LABEL``.  With ``noise`` enabled, each
    point is displaced along its viewing ray by a zero-mean Gaussian whose
    depth component has standard deviation sigma_Z(true depth); since the ray
    direction is (tan_x, tan_y, 1), that amounts to perturbing the stored
    depth, and the point stays on the same pixel's ray.  ``dropout``
    invalidates that fraction of pixels at random.  Bit-identical for a fixed
    seed: the random stream is split per image row.
    """
    if not (0.0 <= dropout < 1.0):
        raise ValueError(f"dropout must be in [0, 1), got {dropout}")

    stack = np.stack([_plane_depths(p, maps) for p in scene.planes], axis=0)
    labels = np.argmin(stack, axis=0).astype(np.uint8)
    depth = np.min(stack, axis=0)
    valid = np.isfinite(depth)
    labels[~valid] = INVALID_LABEL
    depth = np.where(valid, depth, 0.0)

    if noise is not None or dropout > 0.0:
        row_seeds = np.random.SeedSequence(seed).spawn(maps.height)
        for y in range(maps.height):
            rng = np.random.default_rng(row_seeds[y])
            if noise is not None:
                eps = rng.standard_normal(maps.width)
                depth[y] = depth[y] + noise.sigma_z(depth[y]) * eps
            if dropout > 0.0:
                drop = rng.random(maps.width) < dropout
                valid[y] &= ~drop
        valid &= depth > 0
        labels[~valid] = INVALID_LABEL
        depth = np.where(valid, depth, 0.0)

    return DepthImage(values=depth, valid=valid), labels


def parse_scene(text: str) -> SyntheticScene:
    """Parse a plain-text scene: one plane per line, ``a b c d [x0 y0 x1 y1]``.

    ``#`` starts a comment; blank lines are skipped.
    """
    planes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if len(parts) not in (4, 8):
                raise ValueError(f"expected 'a b c d' or 'a b c d x0 y0 x1 y1', got {raw!r}")
            coef = np.array([float(v) for v in parts[:4]])
            mask = tuple(int(v) for v in parts[4:]) if len(parts) == 8 else None
            planes.append(GroundTruthPlane(coefficients=coef, mask_rect=mask))
        except ValueError as exc:
            raise ValueError(f"scene line {lineno}: {exc}") from None
    if not planes:
        raise ValueError("scene file holds no planes")
    return SyntheticScene(planes=tuple(planes))


def load_scene(path: str | Path) -> SyntheticScene:
    return parse_scene(Path(path).read_text())


def write_depth(path: str | Path, depth: DepthImage) -> None:
    """Write a depth image; ``.pgm`` gets millimeter PGM, else raw float64.

    The PGM route quantizes to 1 mm and marks invalid pixels as 0; the raw
    route is loss-free with NaN holes.
    """
    from . import imageio

    path = Path(path)
    if path.suffix.lower() == ".pgm":
        imageio.write_pgm16(path, depth.to_millimeters())
    else:
        imageio.write_raw_float(path, np.where(depth.valid, depth.values, np.nan))


def read_depth(path: str | Path) -> DepthImage:
    from . import imageio

    path = Path(path)
    if path.suffix.lower() == ".pgm":
        return DepthImage.from_millimeters(imageio.read_pgm16(path))
    values = imageio.read_raw_float(path)
    return DepthImage(values=values)
