"""The four plane-fit formulations on one window, both backends.

The inverse-depth (rgbd) forms rewrite the plane equation in precomputed
tan-angle coordinates: a*tan_x + b*tan_y + c + d/Z = 0.  Their scatter sums
split into camera constants plus a handful of per-frame terms, which is what
the integral backend exploits.  The camera builds its constant on the first
rgbd window fit and keeps it with its tan maps for every later frame.  On
noiseless data all four recover the same plane; this script shows that, and
the channel counts behind the speedup.
"""

import numpy as np

from rangefit import (
    FORMULATIONS,
    CameraIntrinsics,
    GroundTruthPlane,
    Rect,
    SyntheticScene,
    build_channels,
    compute_tan_maps,
    explicit_to_implicit,
    fit_rect,
    op_count_audit,
    render_scene,
)

intrinsics = CameraIntrinsics(fx=525.0, fy=525.0, cx=319.5, cy=239.5, width=640, height=480)
maps = compute_tan_maps(intrinsics)

plane = GroundTruthPlane(np.array([0.3, -0.1, -0.95, 1.9]))
print("ground truth (canonical):", np.round(plane.coefficients, 6))

depth, _ = render_scene(SyntheticScene((plane,)), maps, noise=None)
window = Rect(200, 150, 400, 330)

for formulation in FORMULATIONS:
    stack = build_channels(depth, maps, formulation)
    for backend in ("naive", "integral"):
        result = fit_rect(depth, maps, window, formulation, backend, stack=stack)
        coef = result.plane.coefficients
        if coef.shape == (3,):
            coef = explicit_to_implicit(result.plane).coefficients
        print(f"{formulation:>18} / {backend:<8} -> {np.round(coef, 6)}")

print("\nper-frame channel cost (channels, ops per pixel):")
for formulation in FORMULATIONS:
    audit = op_count_audit(formulation)
    print(f"  {formulation:>18}: {audit.per_frame_channels} channels, {audit.ops_per_pixel}N ops")
print("ops ratio implicit standard/rgbd:", 44 / 20)
print("ops ratio explicit standard/rgbd:", 39 / 15)
