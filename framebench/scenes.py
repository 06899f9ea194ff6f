"""Seeded synthetic depth frames for the frame-stream benchmark.

Every generator takes a ``numpy.random.Generator`` (or a seed) and nothing
else that varies, so one workload seed always yields bit-identical frames.
All frames of a run are generated before any timing starts.
"""

from __future__ import annotations

import numpy as np

import rangefit as rf

# VGA reference focal length; larger frames scale it so the field of view
# stays the VGA one.
VGA_WIDTH = 640
VGA_FOCAL = 525.0


def camera(width: int, height: int) -> rf.CameraIntrinsics:
    focal = VGA_FOCAL * width / VGA_WIDTH
    return rf.CameraIntrinsics(
        fx=focal, fy=focal, cx=(width - 1) / 2.0, cy=(height - 1) / 2.0,
        width=width, height=height,
    )


def frame_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for frame ``index`` of the run seeded ``seed``."""
    return np.random.default_rng([seed, index])


def corner_scene(rng: np.random.Generator) -> rf.SyntheticScene:
    """The A9 room corner (two 45-degree walls and a 50-degree floor), jittered.

    Angles move by up to 4 degrees and depths by up to 5 cm, so frames differ
    while every plane stays a large, well-posed surface.
    """
    wall = np.deg2rad(45.0 + rng.uniform(-4.0, 4.0))
    floor_tilt = np.deg2rad(50.0 + rng.uniform(-4.0, 4.0))
    z_crease = 1.5 + rng.uniform(-0.05, 0.05)
    z_floor = 1.7 + rng.uniform(-0.05, 0.05)
    s, c = np.sin(wall), np.cos(wall)
    xc = (-0.05 + rng.uniform(-0.02, 0.02)) * z_crease
    return rf.SyntheticScene((
        rf.GroundTruthPlane(np.array([-s, 0.0, c, s * xc - c * z_crease])),
        rf.GroundTruthPlane(np.array([s, 0.0, c, -s * xc - c * z_crease])),
        rf.GroundTruthPlane(
            np.array([0.0, np.sin(floor_tilt), np.cos(floor_tilt), -np.cos(floor_tilt) * z_floor])
        ),
    ))


def _tilted_plane(
    rng: np.random.Generator, centre_tan: tuple[float, float], depth: float, max_tilt_deg: float
) -> np.ndarray:
    """Plane through the point at ``depth`` on the ray ``centre_tan``, normal tilted."""
    tilt = np.deg2rad(rng.uniform(0.0, max_tilt_deg))
    azimuth = rng.uniform(0.0, 2.0 * np.pi)
    normal = np.array(
        [np.sin(tilt) * np.cos(azimuth), np.sin(tilt) * np.sin(azimuth), -np.cos(tilt)]
    )
    point = depth * np.array([centre_tan[0], centre_tan[1], 1.0])
    return np.array([*normal, -float(normal @ point)])


CLUTTER_BOXES = 10
_CLUTTER_CELLS = (4, 3)


def clutter_scene(rng: np.random.Generator, cam: rf.CameraIntrinsics) -> rf.SyntheticScene:
    """A back wall plus ``CLUTTER_BOXES`` box faces at random depth and tilt.

    The image is cut into a 4x3 grid of cells and each box face sits inside
    its own cell (10 of the 12, chosen at random), 45-90% of the cell on each
    side.  Keeping one face per cell holds the total depth-edge length, and
    with it the quadtree's work, nearly constant from frame to frame, while
    position, size, depth (1.0-2.6 m) and tilt (up to 30 degrees) vary.
    """
    cols, rows = _CLUTTER_CELLS
    cell_w, cell_h = cam.width // cols, cam.height // rows
    wall = _tilted_plane(rng, (0.0, 0.0), rng.uniform(3.2, 3.6), 10.0)
    planes = [rf.GroundTruthPlane(wall)]
    cells = rng.choice(cols * rows, size=CLUTTER_BOXES, replace=False)
    for cell in sorted(int(c) for c in cells):
        cx0, cy0 = (cell % cols) * cell_w, (cell // cols) * cell_h
        w = int(cell_w * rng.uniform(0.45, 0.9))
        h = int(cell_h * rng.uniform(0.45, 0.9))
        x0 = cx0 + int(rng.integers(0, cell_w - w + 1))
        y0 = cy0 + int(rng.integers(0, cell_h - h + 1))
        centre = (
            (x0 + w / 2.0 - cam.cx) / cam.fx,
            (y0 + h / 2.0 - cam.cy) / cam.fy,
        )
        coef = _tilted_plane(rng, centre, rng.uniform(1.0, 2.6), 30.0)
        planes.append(rf.GroundTruthPlane(coef, mask_rect=(x0, y0, x0 + w, y0 + h)))
    return rf.SyntheticScene(tuple(planes))


SHADOW_BLOBS = 4
SHADOW_RADIUS_PX = (8, 24)


def shadow_blobs(rng: np.random.Generator, width: int, height: int) -> np.ndarray:
    """Boolean mask of ``SHADOW_BLOBS`` filled discs, the shape of sensor shadows."""
    yy, xx = np.mgrid[0:height, 0:width]
    holes = np.zeros((height, width), dtype=bool)
    for _ in range(SHADOW_BLOBS):
        r = rng.uniform(*SHADOW_RADIUS_PX)
        cx, cy = rng.uniform(0, width), rng.uniform(0, height)
        holes |= (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
    return holes


def render(
    scene: rf.SyntheticScene, maps: rf.TanAngleMaps, rng: np.random.Generator,
    dropout: float = 0.0, holes: np.ndarray | None = None,
) -> tuple[rf.DepthImage, np.ndarray]:
    """Noisy render of ``scene``; ``holes`` invalidates extra pixels."""
    seed = int(rng.integers(2**63))
    depth, truth = rf.render_scene(scene, maps, noise=rf.NoiseModel(), seed=seed, dropout=dropout)
    if holes is not None:
        depth = rf.DepthImage(values=depth.values, valid=depth.valid & ~holes)
        truth = np.where(holes, rf.synth.INVALID_LABEL, truth).astype(truth.dtype)
    return depth, truth
