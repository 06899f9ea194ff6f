"""Shared fixtures: small cameras and ground-truth plane generators."""

from __future__ import annotations

import numpy as np
import pytest

from rangefit import CameraIntrinsics, GroundTruthPlane, SyntheticScene, compute_tan_maps


@pytest.fixture
def small_camera():
    """64x48 camera with a moderate field of view (|tan| up to ~0.53)."""
    return CameraIntrinsics(fx=60.0, fy=60.0, cx=31.5, cy=23.5, width=64, height=48)


@pytest.fixture
def small_maps(small_camera):
    return compute_tan_maps(small_camera)


@pytest.fixture
def vga_camera():
    return CameraIntrinsics(fx=525.0, fy=525.0, cx=319.5, cy=239.5, width=640, height=480)


def random_visible_plane(rng: np.random.Generator, max_tan: float = 0.55) -> GroundTruthPlane:
    """A random plane guaranteed visible (Z > 0) across the whole frame.

    Keeps the normal's optical-axis component large enough that the plane
    cannot run near-parallel to any viewing ray of a camera whose tan values
    stay below ``max_tan``, and places the plane 1.5 m to 4 m out.  The
    offset is then bounded away from zero, so these planes are valid for
    every fitting formulation.
    """
    while True:
        normal = rng.standard_normal(3)
        norm = np.linalg.norm(normal)
        if norm < 1e-6:
            continue
        normal /= norm
        if abs(normal[2]) >= 0.8:
            break
    if normal[2] > 0:
        normal = -normal  # facing the camera
    z0 = rng.uniform(1.5, 4.0)
    d = -float(normal @ np.array([0.0, 0.0, z0]))
    return GroundTruthPlane(np.array([*normal, d]))


def corner_scene() -> SyntheticScene:
    """Convex room corner: two 45-degree walls meeting at a vertical crease
    (off the tile grid) plus a tilted floor; depth is continuous across the
    creases and nearest-intersection labels are exact."""
    wall = np.deg2rad(45.0)
    floor_tilt = np.deg2rad(50.0)
    z_crease, z_floor = 1.5, 1.7
    s, c = np.sin(wall), np.cos(wall)
    xc = -0.05 * z_crease
    left = GroundTruthPlane(np.array([-s, 0.0, c, s * xc - c * z_crease]))
    right = GroundTruthPlane(np.array([s, 0.0, c, -s * xc - c * z_crease]))
    floor = GroundTruthPlane(
        np.array([0.0, np.sin(floor_tilt), np.cos(floor_tilt), -np.cos(floor_tilt) * z_floor])
    )
    return SyntheticScene((left, right, floor))
