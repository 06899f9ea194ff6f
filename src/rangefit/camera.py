"""Pinhole depth-camera model: back-projection, tan-angle maps, sensor noise.

A depth sensor reports, for each pixel ``(x, y)``, the distance ``Z`` along
the optical axis.  The pinhole model recovers the lateral coordinates as::

    X = (x + delta_x - c_x) * Z / f_x
    Y = (y + delta_y - c_y) * Z / f_y

The per-pixel ratios ``(x + delta_x - c_x) / f_x`` depend only on the camera
calibration, never on the measured depth.  This module precomputes them as
dense lattices (``tan_x``, ``tan_y``: the tangents of the viewing angles
between each pixel's ray and the optical axis), so back-projection reduces to
``(Z * tan_x, Z * tan_y, Z)``.  Everything downstream that separates
camera-constant terms from depth-dependent terms starts here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

# Empirical quadratic depth-noise law for Kinect-class sensors: the standard
# deviation of a depth measurement grows as sigma_Z = 1.425e-3 * Z^2 (meters).
# The coefficient is half the magnitude of the linearized normalized-disparity
# slope, -2.85e-3 m/(f*b).
DEPTH_NOISE_COEFFICIENT = 1.425e-3

MM_PER_METER = 1000.0


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters plus optional dense distortion-offset lattices.

    ``delta_x`` and ``delta_y`` are per-pixel corrections (in pixels) added to
    the raw pixel coordinate before back-projection; they accept any upstream
    lens calibration without committing to a parametric model.  Both default
    to all-zero lattices.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    delta_x: np.ndarray | None = None
    delta_y: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("fx", "fy"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"focal length {name} must be positive and finite, got {value}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image size must be positive, got {self.width}x{self.height}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside "
                f"{self.width}x{self.height} image"
            )
        for name in ("delta_x", "delta_y"):
            lattice = getattr(self, name)
            if lattice is None:
                lattice = np.zeros((self.height, self.width))
            else:
                lattice = np.asarray(lattice, dtype=np.float64)
                if lattice.shape != (self.height, self.width):
                    raise ValueError(
                        f"{name} shape {lattice.shape} does not match image "
                        f"({self.height}, {self.width})"
                    )
                if not np.isfinite(lattice).all():
                    raise ValueError(f"{name} holds non-finite offsets")
            object.__setattr__(self, name, lattice)


@dataclass(frozen=True)
class TanAngleMaps:
    """Per-pixel tangents of the viewing angles, one lattice per image axis.

    ``tan_x[y, x]`` is the (signed) tangent of the angle between the optical
    axis and the ray through pixel ``(x, y)``, seen from above; ``tan_y`` is
    the side-view analogue.  Pure functions of the intrinsics.
    """

    tan_x: np.ndarray
    tan_y: np.ndarray

    @property
    def height(self) -> int:
        return self.tan_x.shape[0]

    @property
    def width(self) -> int:
        return self.tan_x.shape[1]


@dataclass(frozen=True)
class NoiseModel:
    """Quadratic Gaussian depth-noise law: sigma_Z = slope_coefficient * Z^2.

    Units of ``slope_coefficient`` are 1/meters so that sigma_Z is in meters.
    """

    slope_coefficient: float = DEPTH_NOISE_COEFFICIENT

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slope_coefficient) and self.slope_coefficient > 0):
            raise ValueError(
                f"slope_coefficient must be positive and finite, got {self.slope_coefficient}"
            )

    def sigma_z(self, depth: float | np.ndarray) -> float | np.ndarray:
        return self.slope_coefficient * depth * depth


class Point3(NamedTuple):
    """A 3D point in the camera frame (meters, Z along the optical axis)."""

    x: float
    y: float
    z: float


def compute_tan_maps(intrinsics: CameraIntrinsics) -> TanAngleMaps:
    """Precompute the per-pixel tan-angle lattices from the intrinsics.

    ``tan_x[y, x] = (x + delta_x[y, x] - cx) / fx`` and the analogous
    expression for ``tan_y``; computed once per camera and reused for every
    frame.
    """
    cols = np.arange(intrinsics.width, dtype=np.float64)
    rows = np.arange(intrinsics.height, dtype=np.float64)
    tan_x = (cols[None, :] + intrinsics.delta_x - intrinsics.cx) / intrinsics.fx
    tan_y = (rows[:, None] + intrinsics.delta_y - intrinsics.cy) / intrinsics.fy
    return TanAngleMaps(tan_x=tan_x, tan_y=tan_y)


def _check_pixel(maps: TanAngleMaps, x: int, y: int) -> None:
    if not (0 <= x < maps.width and 0 <= y < maps.height):
        raise ValueError(f"pixel ({x}, {y}) outside {maps.width}x{maps.height} image")


def back_project(pixel: tuple[int, int], depth: float, maps: TanAngleMaps) -> Point3:
    """Recover the 3D camera-frame point seen at ``pixel`` with depth ``depth``.

    Returns ``(Z * tan_x, Z * tan_y, Z)``.
    """
    x, y = pixel
    _check_pixel(maps, x, y)
    if depth <= 0:
        raise ValueError(f"depth must be positive, got {depth}")
    return Point3(
        depth * float(maps.tan_x[y, x]),
        depth * float(maps.tan_y[y, x]),
        float(depth),
    )


def back_project_image(depth: np.ndarray, maps: TanAngleMaps) -> np.ndarray:
    """Vectorized back-projection of a full depth lattice.

    Returns an (H, W, 3) array of camera-frame coordinates; rows with
    non-positive or non-finite depth come out non-finite/zero and should be
    filtered by the caller's validity mask.
    """
    return np.stack((depth * maps.tan_x, depth * maps.tan_y, depth), axis=-1)


def project_point(
    point: Point3,
    intrinsics: CameraIntrinsics,
    distortion_pixel: tuple[int, int] | None = None,
) -> tuple[float, float]:
    """Forward pinhole projection, the inverse of :func:`back_project`.

    ``x = fx * X / Z + cx - delta_x``.  The distortion offsets are per-pixel
    lattices, so the forward model needs to know which pixel's offsets apply;
    pass ``distortion_pixel`` when the camera has a nonzero distortion map
    (zero-distortion cameras can omit it).
    """
    if point.z <= 0:
        raise ValueError(f"cannot project point with Z={point.z}")
    if distortion_pixel is None:
        dx = dy = 0.0
        if np.any(intrinsics.delta_x) or np.any(intrinsics.delta_y):
            raise ValueError("distorted camera: pass distortion_pixel to project_point")
    else:
        px, py = distortion_pixel
        dx = float(intrinsics.delta_x[py, px])
        dy = float(intrinsics.delta_y[py, px])
    x = intrinsics.fx * point.x / point.z + intrinsics.cx - dx
    y = intrinsics.fy * point.y / point.z + intrinsics.cy - dy
    return (x, y)


def noise_sigma(
    depth: float,
    pixel: tuple[int, int],
    maps: TanAngleMaps,
    model: NoiseModel,
) -> tuple[float, float, float]:
    """Per-axis measurement standard deviations at one pixel.

    sigma_Z follows the quadratic law; the lateral sigmas scale it by the
    pixel's tan values (signed, mirroring the lateral ray direction), so they
    vanish on the optical axis and stay below ~half of sigma_Z across a
    typical field of view.
    """
    x, y = pixel
    _check_pixel(maps, x, y)
    if depth <= 0:
        raise ValueError(f"depth must be positive, got {depth}")
    sz = float(model.sigma_z(depth))
    return (float(maps.tan_x[y, x]) * sz, float(maps.tan_y[y, x]) * sz, sz)


def load_intrinsics(path: str | Path) -> CameraIntrinsics:
    """Load intrinsics from a plain-text key-value file.

    Expected keys: ``fx``, ``fy``, ``cx``, ``cy``, ``width``, ``height``;
    optional ``distortion=<path>`` pointing at a raw little-endian float64
    file holding the delta_x lattice followed by the delta_y lattice, each
    height*width values in row-major order.  ``#`` starts a comment; blank
    lines are ignored.  Relative distortion paths resolve against the
    intrinsics file's directory.
    """
    path = Path(path)
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()

    missing = [k for k in ("fx", "fy", "cx", "cy", "width", "height") if k not in values]
    if missing:
        raise ValueError(f"{path}: missing intrinsics keys: {', '.join(missing)}")

    width = int(values["width"])
    height = int(values["height"])
    delta_x = delta_y = None
    if "distortion" in values:
        dist_path = Path(values["distortion"])
        if not dist_path.is_absolute():
            dist_path = path.parent / dist_path
        flat = np.fromfile(dist_path, dtype="<f8")
        if flat.size != 2 * width * height:
            raise ValueError(
                f"{dist_path}: expected {2 * width * height} float64 values, got {flat.size}"
            )
        delta_x = flat[: width * height].reshape(height, width)
        delta_y = flat[width * height :].reshape(height, width)

    return CameraIntrinsics(
        fx=float(values["fx"]),
        fy=float(values["fy"]),
        cx=float(values["cx"]),
        cy=float(values["cy"]),
        width=width,
        height=height,
        delta_x=delta_x,
        delta_y=delta_y,
    )
