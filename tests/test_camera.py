"""Camera model tests: tan maps, back-projection, the noise law, file IO."""

from __future__ import annotations

import numpy as np
import pytest

from rangefit import (
    CameraIntrinsics,
    NoiseModel,
    Point3,
    back_project,
    compute_tan_maps,
    load_intrinsics,
    noise_sigma,
    project_point,
)


class TestTanMaps:
    def test_principal_point_is_zero(self):
        intr = CameraIntrinsics(fx=500.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)
        maps = compute_tan_maps(intr)
        assert maps.tan_x[100, 320] == 0.0
        assert maps.tan_y[240, 100] == 0.0

    def test_offset_equal_to_focal_length(self):
        # pixel 820 sits exactly one focal length right of cx=320
        intr = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=1024, height=480)
        maps = compute_tan_maps(intr)
        assert maps.tan_x[0, 820] == pytest.approx(1.0, abs=0)

    def test_distortion_offset(self):
        delta_x = np.full((480, 640), 0.25)
        intr = CameraIntrinsics(
            fx=525.0, fy=525.0, cx=319.5, cy=239.5, width=640, height=480, delta_x=delta_x
        )
        maps = compute_tan_maps(intr)
        # (100 + 0.25 - 319.5) / 525
        assert maps.tan_x[7, 100] == pytest.approx(-0.4176190476190476, rel=1e-15)

    def test_monotone_along_axes(self, small_maps):
        assert np.all(np.diff(small_maps.tan_x, axis=1) > 0)
        assert np.all(np.diff(small_maps.tan_y, axis=0) > 0)
        # constant across the other axis for zero distortion
        assert np.all(small_maps.tan_x == small_maps.tan_x[:1, :])
        assert np.all(small_maps.tan_y == small_maps.tan_y[:, :1])


class TestBackProject:
    def test_principal_point(self):
        intr = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
        maps = compute_tan_maps(intr)
        assert back_project((320, 240), 2.0, maps) == Point3(0.0, 0.0, 2.0)

    def test_hand_computed_offset(self):
        # (420 - 320) * 2 / 500 = 0.4
        intr = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
        maps = compute_tan_maps(intr)
        point = back_project((420, 240), 2.0, maps)
        assert point.x == pytest.approx(0.4, rel=1e-15)
        assert point.y == 0.0
        assert point.z == 2.0

    def test_unit_tan_pixel(self):
        intr = CameraIntrinsics(fx=100.0, fy=100.0, cx=0.0, cy=50.0, width=256, height=100)
        maps = compute_tan_maps(intr)
        point = back_project((100, 50), 3.0, maps)  # tan_x = 1, tan_y = 0
        assert point == Point3(3.0, 0.0, 3.0)

    def test_errors(self, small_maps):
        with pytest.raises(ValueError, match="outside"):
            back_project((64, 0), 1.0, small_maps)
        with pytest.raises(ValueError, match="depth"):
            back_project((10, 10), 0.0, small_maps)
        with pytest.raises(ValueError, match="depth"):
            back_project((10, 10), -1.0, small_maps)

    def test_forward_projection_round_trip(self):
        rng = np.random.default_rng(7)
        delta_x = rng.uniform(-0.5, 0.5, size=(48, 64))
        delta_y = rng.uniform(-0.5, 0.5, size=(48, 64))
        intr = CameraIntrinsics(
            fx=57.0, fy=63.0, cx=30.2, cy=25.7, width=64, height=48,
            delta_x=delta_x, delta_y=delta_y,
        )
        maps = compute_tan_maps(intr)
        for _ in range(50):
            x = int(rng.integers(0, 64))
            y = int(rng.integers(0, 48))
            z = float(rng.uniform(0.5, 5.0))
            point = back_project((x, y), z, maps)
            px, py = project_point(point, intr, distortion_pixel=(x, y))
            assert px == pytest.approx(x, abs=1e-9)
            assert py == pytest.approx(y, abs=1e-9)


class TestNoiseModel:
    def test_sigma_at_one_meter(self, small_maps):
        _, _, sz = noise_sigma(1.0, (31, 23), small_maps, NoiseModel())
        assert sz == pytest.approx(1.425e-3, rel=1e-15)

    def test_sigma_at_two_meters(self, small_maps):
        _, _, sz = noise_sigma(2.0, (0, 0), small_maps, NoiseModel())
        assert sz == pytest.approx(5.7e-3, rel=1e-15)

    def test_quadratic_law_exact(self, small_maps):
        model = NoiseModel()
        for z in (0.7, 1.0, 2.0, 3.3):
            assert model.sigma_z(2 * z) == 4 * model.sigma_z(z)

    def test_zero_lateral_sigma_on_axis(self):
        intr = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
        maps = compute_tan_maps(intr)
        sx, sy, _ = noise_sigma(3.0, (320, 240), maps, NoiseModel())
        assert sx == 0.0 and sy == 0.0

    def test_lateral_sigma_scales_with_tan(self, small_maps):
        model = NoiseModel()
        for pixel in [(0, 0), (63, 47), (10, 30)]:
            sx, sy, sz = noise_sigma(2.5, pixel, small_maps, model)
            x, y = pixel
            assert abs(sx) == abs(small_maps.tan_x[y, x]) * sz
            assert abs(sy) == abs(small_maps.tan_y[y, x]) * sz

    def test_invalid_inputs(self, small_maps):
        with pytest.raises(ValueError):
            noise_sigma(0.0, (1, 1), small_maps, NoiseModel())
        with pytest.raises(ValueError):
            NoiseModel(slope_coefficient=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_slope(self, value):
        with pytest.raises(ValueError, match="slope_coefficient"):
            NoiseModel(slope_coefficient=value)


class TestIntrinsicsValidation:
    def test_bad_focal_length(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0, width=4, height=4)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["fx", "fy"])
    def test_non_finite_focal_length(self, name, value):
        params = dict(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=4, height=4)
        params[name] = value
        with pytest.raises(ValueError, match=name):
            CameraIntrinsics(**params)

    @pytest.mark.parametrize("name", ["delta_x", "delta_y"])
    def test_non_finite_distortion(self, name):
        lattice = np.zeros((4, 4))
        lattice[2, 1] = np.nan
        with pytest.raises(ValueError, match=name):
            CameraIntrinsics(fx=1.0, fy=1.0, cx=1.0, cy=1.0, width=4, height=4, **{name: lattice})

    def test_principal_point_out_of_bounds(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=1.0, fy=1.0, cx=4.0, cy=0.0, width=4, height=4)

    def test_distortion_shape_mismatch(self):
        with pytest.raises(ValueError, match="delta_x"):
            CameraIntrinsics(
                fx=1.0, fy=1.0, cx=1.0, cy=1.0, width=4, height=4,
                delta_x=np.zeros((2, 2)),
            )


class TestIntrinsicsFile:
    def test_load_plain(self, tmp_path):
        path = tmp_path / "cam.txt"
        path.write_text(
            "# test camera\nfx=525.5\nfy = 524.0\ncx=319.5\ncy=239.5\n"
            "width=640\nheight=480\n"
        )
        intr = load_intrinsics(path)
        assert intr.fx == 525.5 and intr.fy == 524.0
        assert intr.width == 640 and intr.height == 480
        assert not np.any(intr.delta_x)

    def test_load_with_distortion(self, tmp_path):
        rng = np.random.default_rng(3)
        dx = rng.uniform(-1, 1, size=(6, 8))
        dy = rng.uniform(-1, 1, size=(6, 8))
        blob = np.concatenate([dx.ravel(), dy.ravel()]).astype("<f8")
        (tmp_path / "dist.bin").write_bytes(blob.tobytes())
        (tmp_path / "cam.txt").write_text(
            "fx=10\nfy=10\ncx=3.5\ncy=2.5\nwidth=8\nheight=6\ndistortion=dist.bin\n"
        )
        intr = load_intrinsics(tmp_path / "cam.txt")
        np.testing.assert_array_equal(intr.delta_x, dx)
        np.testing.assert_array_equal(intr.delta_y, dy)

    def test_missing_key(self, tmp_path):
        (tmp_path / "cam.txt").write_text("fx=10\nfy=10\ncx=1\ncy=1\nwidth=4\n")
        with pytest.raises(ValueError, match="height"):
            load_intrinsics(tmp_path / "cam.txt")

    def test_malformed_line(self, tmp_path):
        (tmp_path / "cam.txt").write_text("fx 10\n")
        with pytest.raises(ValueError, match="key=value"):
            load_intrinsics(tmp_path / "cam.txt")

    def test_wrong_distortion_size(self, tmp_path):
        (tmp_path / "dist.bin").write_bytes(b"\x00" * 16)
        (tmp_path / "cam.txt").write_text(
            "fx=10\nfy=10\ncx=1\ncy=1\nwidth=4\nheight=4\ndistortion=dist.bin\n"
        )
        with pytest.raises(ValueError, match="expected 32"):
            load_intrinsics(tmp_path / "cam.txt")
