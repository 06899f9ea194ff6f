"""Synthetic sensor tests: rays, intersections, rendering, noise, file IO."""

from __future__ import annotations

import numpy as np
import pytest

from rangefit import (
    DepthImage,
    GroundTruthPlane,
    NoiseModel,
    SyntheticScene,
    back_project,
    intersect_plane,
    parse_scene,
    project_point,
    ray_for_pixel,
    read_depth,
    render_scene,
    write_depth,
)

from conftest import random_visible_plane


def frontal_plane(z: float) -> GroundTruthPlane:
    return GroundTruthPlane(np.array([0.0, 0.0, 1.0, -z]))


class TestRays:
    def test_principal_point_ray(self, small_maps):
        # cx=31.5, cy=23.5: pixel (31, 23) sits half a pixel up-left of center
        np.testing.assert_array_equal(
            ray_for_pixel(small_maps, (31, 23)), [-0.5 / 60, -0.5 / 60, 1.0]
        )

    def test_exact_principal_point_ray_is_optical_axis(self):
        from rangefit import CameraIntrinsics, compute_tan_maps

        intr = CameraIntrinsics(fx=60.0, fy=60.0, cx=32.0, cy=24.0, width=64, height=48)
        maps = compute_tan_maps(intr)
        np.testing.assert_array_equal(ray_for_pixel(maps, (32, 24)), [0.0, 0.0, 1.0])

    def test_ray_matches_maps(self, small_maps):
        ray = ray_for_pixel(small_maps, (10, 40))
        assert ray[0] == small_maps.tan_x[40, 10]
        assert ray[1] == small_maps.tan_y[40, 10]
        assert ray[2] == 1.0

    def test_out_of_bounds(self, small_maps):
        with pytest.raises(ValueError):
            ray_for_pixel(small_maps, (-1, 0))


class TestIntersect:
    def test_frontal_plane(self):
        assert intersect_plane(np.array([0.0, 0.0, 1.0]), frontal_plane(2.0)) == 2.0

    def test_parallel_ray(self):
        # plane x = 1 contains any ray with zero x-component
        plane = GroundTruthPlane(np.array([1.0, 0.0, 0.0, -1.0]))
        assert intersect_plane(np.array([0.0, 0.3, 1.0]), plane) is None

    def test_behind_camera(self):
        assert intersect_plane(np.array([0.0, 0.0, 1.0]), frontal_plane(-2.0)) is None

    def test_oblique_ray_point_on_plane(self):
        ray = np.array([0.5, -0.1, 1.0])
        z = intersect_plane(ray, frontal_plane(2.0))
        assert z == 2.0
        point = ray * z
        assert point[0] == 1.0 and point[2] == 2.0


class TestRender:
    def test_noise_off_constant_plane(self, small_maps):
        depth, labels = render_scene(SyntheticScene((frontal_plane(2.0),)), small_maps)
        assert depth.valid.all()
        np.testing.assert_array_equal(depth.values, 2.0)
        assert (labels == 0).all()

    def test_noiseless_points_satisfy_plane_equation(self, small_maps):
        rng = np.random.default_rng(11)
        for _ in range(10):
            plane = random_visible_plane(rng)
            depth, _ = render_scene(SyntheticScene((plane,)), small_maps)
            assert depth.valid.all()
            pts = np.stack(
                (depth.values * small_maps.tan_x, depth.values * small_maps.tan_y, depth.values),
                axis=-1,
            )
            residual = pts @ plane.normal + plane.offset
            assert np.abs(residual).max() < 1e-10

    def test_seeded_renders_bit_identical(self, small_maps):
        scene = SyntheticScene((frontal_plane(2.0),))
        a, la = render_scene(scene, small_maps, noise=NoiseModel(), seed=42, dropout=0.1)
        b, lb = render_scene(scene, small_maps, noise=NoiseModel(), seed=42, dropout=0.1)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.valid, b.valid)
        np.testing.assert_array_equal(la, lb)
        c, _ = render_scene(scene, small_maps, noise=NoiseModel(), seed=43, dropout=0.1)
        assert not np.array_equal(a.values, c.values)

    def test_two_plane_masks_split_labels(self, small_maps):
        left = GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0]), mask_rect=(0, 0, 32, 48))
        right = GroundTruthPlane(np.array([0.0, 0.0, 1.0, -3.0]), mask_rect=(32, 0, 64, 48))
        _, labels = render_scene(SyntheticScene((left, right)), small_maps)
        assert (labels[:, :32] == 0).all()
        assert (labels[:, 32:] == 1).all()

    def test_nearest_intersection_wins(self, small_maps):
        near = frontal_plane(1.5)
        far = frontal_plane(3.0)
        depth, labels = render_scene(SyntheticScene((far, near)), small_maps)
        np.testing.assert_array_equal(depth.values, 1.5)
        assert (labels == 1).all()

    def test_no_intersection_is_invalid(self, small_maps):
        masked = GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0]), mask_rect=(0, 0, 32, 48))
        depth, labels = render_scene(SyntheticScene((masked,)), small_maps)
        assert depth.valid[:, :32].all()
        assert not depth.valid[:, 32:].any()
        assert (labels[:, 32:] == 255).all()
        assert (depth.values[:, 32:] == 0).all()

    def test_noise_sample_sigma(self, vga_camera):
        from rangefit import compute_tan_maps

        maps = compute_tan_maps(vga_camera)
        depth, _ = render_scene(
            SyntheticScene((frontal_plane(2.0),)), maps, noise=NoiseModel(), seed=5
        )
        deviations = depth.values[depth.valid] - 2.0
        assert deviations.size > 100_000
        sigma = float(deviations.std())
        assert sigma == pytest.approx(5.7e-3, rel=0.05)
        assert abs(float(deviations.mean())) < 5 * 5.7e-3 / np.sqrt(deviations.size)

    def test_perturbation_keeps_pixel(self, small_camera, small_maps):
        # Displacing a point along its viewing ray cannot move it off the
        # pixel: forward projection returns the same coordinates.
        depth, _ = render_scene(
            SyntheticScene((frontal_plane(2.0),)), small_maps, noise=NoiseModel(), seed=9
        )
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = int(rng.integers(0, 64))
            y = int(rng.integers(0, 48))
            if not depth.valid[y, x]:
                continue
            point = back_project((x, y), float(depth.values[y, x]), small_maps)
            px, py = project_point(point, small_camera)
            assert px == pytest.approx(x, abs=1e-9)
            assert py == pytest.approx(y, abs=1e-9)

    def test_dropout_fraction(self, small_maps):
        depth, _ = render_scene(
            SyntheticScene((frontal_plane(2.0),)), small_maps, seed=3, dropout=0.25
        )
        fraction = 1.0 - depth.valid.mean()
        assert fraction == pytest.approx(0.25, abs=0.03)

    def test_dropout_validation(self, small_maps):
        with pytest.raises(ValueError):
            render_scene(SyntheticScene((frontal_plane(2.0),)), small_maps, dropout=1.0)


class TestPlaneValidation:
    @pytest.mark.parametrize(
        "coefficients", [(np.nan, 0, 1, -2), (0, 0, 1, np.inf), (np.inf, 0, 1, -2)]
    )
    def test_non_finite_coefficients(self, coefficients):
        with pytest.raises(ValueError, match="finite"):
            GroundTruthPlane(np.array(coefficients, dtype=float))


class TestSceneFiles:
    def test_parse_with_masks_and_comments(self):
        scene = parse_scene(
            "# corner scene\n"
            "0 0 1 -2\n"
            "0 0 2 -6 0 0 32 48  # rescaled normal\n"
            "\n"
        )
        assert len(scene.planes) == 2
        np.testing.assert_allclose(scene.planes[1].coefficients, [0, 0, 1, -3])
        assert scene.planes[1].mask_rect == (0, 0, 32, 48)
        assert scene.planes[0].mask_rect is None

    def test_parse_bad_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_scene("0 0 1 -2\n0 0 1\n")

    def test_parse_empty(self):
        with pytest.raises(ValueError, match="no planes"):
            parse_scene("# nothing\n")


class TestDepthFiles:
    def test_raw_round_trip_lossless(self, small_maps, tmp_path):
        rng = np.random.default_rng(2)
        plane = random_visible_plane(rng)
        depth, _ = render_scene(SyntheticScene((plane,)), small_maps, noise=NoiseModel(), seed=8)
        depth.valid[5, 7] = False  # poke a hole
        path = tmp_path / "depth.rf64"
        write_depth(path, depth)
        loaded = read_depth(path)
        np.testing.assert_array_equal(loaded.valid, depth.valid)
        np.testing.assert_array_equal(loaded.values[loaded.valid], depth.values[depth.valid])

    def test_pgm_round_trip_millimeter_quantized(self, small_maps, tmp_path):
        depth, _ = render_scene(SyntheticScene((frontal_plane(2.0),)), small_maps)
        depth.valid[0, 0] = False
        path = tmp_path / "depth.pgm"
        write_depth(path, depth)
        loaded = read_depth(path)
        np.testing.assert_array_equal(loaded.valid, depth.valid)
        err = np.abs(loaded.values[loaded.valid] - depth.values[depth.valid])
        assert err.max() <= 0.5e-3  # half a millimeter

    def test_from_millimeters_marks_zero_invalid(self):
        img = DepthImage.from_millimeters(np.array([[0, 2000], [1500, 0]], dtype=np.uint16))
        np.testing.assert_array_equal(img.valid, [[False, True], [True, False]])
        assert img.values[0, 1] == 2.0


class TestDepthImage:
    def test_mask_intersects_positivity(self):
        values = np.array([[1.0, -1.0], [0.0, np.nan]])
        img = DepthImage(values=values, valid=np.ones((2, 2), dtype=bool))
        np.testing.assert_array_equal(img.valid, [[True, False], [False, False]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            DepthImage(values=np.ones((2, 2)), valid=np.ones((2, 3), dtype=bool))
