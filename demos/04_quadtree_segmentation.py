"""Quadtree planar segmentation of a noisy synthetic room corner.

Tiles that fit a plane below the residual threshold become leaves; tiles
straddling the creases subdivide up to three times; adjacent fitted tiles
whose plane coefficients agree then grow into segments, with no plane count
given.  The output PPM uses a fixed palette, with rejected tiles shown dark
red (too many holes) or dark blue (irreducible fit error).
"""

import numpy as np

from rangefit import (
    CameraIntrinsics,
    GroundTruthPlane,
    NoiseModel,
    SegConfig,
    SyntheticScene,
    compute_tan_maps,
    render_scene,
    segment,
)
from rangefit.imageio import write_ppm

width, height = 512, 424
intrinsics = CameraIntrinsics(
    fx=525.0, fy=525.0, cx=(width - 1) / 2, cy=(height - 1) / 2, width=width, height=height
)
maps = compute_tan_maps(intrinsics)

# two 45-degree walls meeting at a vertical crease, plus a tilted floor
wall, floor_tilt = np.deg2rad(45.0), np.deg2rad(50.0)
s, c = np.sin(wall), np.cos(wall)
xc = -0.05 * 1.5
scene = SyntheticScene((
    GroundTruthPlane(np.array([-s, 0.0, c, s * xc - c * 1.5])),
    GroundTruthPlane(np.array([s, 0.0, c, -s * xc - c * 1.5])),
    GroundTruthPlane(np.array([0.0, np.sin(floor_tilt), np.cos(floor_tilt), -np.cos(floor_tilt) * 1.7])),
))

depth, truth = render_scene(scene, maps, noise=NoiseModel(), seed=3, dropout=0.02)
config = SegConfig(
    formulation="implicit-rgbd", initial_tile=64, max_depth=3, rms_threshold=2.4e-3,
)
result = segment(depth, maps, config)

print(f"tiles: {len(result.tiles)} total, {result.n_fitted} fitted, "
      f"{result.n_too_invalid} too-invalid, {result.n_high_error} high-error")
levels = {}
for tile in result.tiles:
    levels[tile.level] = levels.get(tile.level, 0) + 1
print("tiles per subdivision level:", dict(sorted(levels.items())))

valid = (result.labels >= 0) & (truth != 255)
print("segments:", int(result.cluster.max()) + 1)
for cluster in range(int(result.cluster.max()) + 1):
    member_truth = truth[valid & (result.labels == cluster)]
    if member_truth.size:
        majority = np.bincount(member_truth).argmax()
        purity = (member_truth == majority).mean()
        print(f"cluster {cluster}: {member_truth.size:6d} px, majority plane {majority}, purity {purity:.3f}")

write_ppm("demo_segmentation.ppm", result.to_color())
print("wrote demo_segmentation.ppm")
