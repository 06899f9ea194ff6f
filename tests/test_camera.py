"""Camera model tests: tan maps, back-projection, the noise law, file IO."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from rangefit import (
    CameraIntrinsics,
    NoiseModel,
    Point3,
    TanAngleMaps,
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


class TestTanAxes:
    """``TanAngleMaps.axes``: the column and row axes of maps that factor."""

    def test_pinhole_maps_give_their_axes(self, small_maps):
        tan_x, tan_y = small_maps.axes
        assert np.array_equal(np.broadcast_to(tan_x, small_maps.tan_x.shape), small_maps.tan_x)
        assert np.array_equal(np.broadcast_to(tan_y[:, None], small_maps.tan_y.shape), small_maps.tan_y)

    @pytest.mark.parametrize("name", ["delta_x", "delta_y"])
    def test_one_distorted_pixel_gives_none(self, name):
        lattice = np.zeros((24, 32))
        lattice[5, 7] = 0.25
        intr = CameraIntrinsics(fx=50.0, fy=50.0, cx=15.5, cy=11.5, width=32, height=24, **{name: lattice})
        assert compute_tan_maps(intr).axes is None

    def test_a_lattice_along_its_own_axis_keeps_the_axes(self):
        # delta_x varying by column alone and delta_y by row alone still factor
        rng = np.random.default_rng(4)
        intr = CameraIntrinsics(
            fx=50.0, fy=50.0, cx=15.5, cy=11.5, width=32, height=24,
            delta_x=np.tile(rng.uniform(-0.5, 0.5, 32), (24, 1)),
            delta_y=np.tile(rng.uniform(-0.5, 0.5, (24, 1)), (1, 32)),
        )
        maps = compute_tan_maps(intr)
        assert np.array_equal(maps.axes[0], maps.tan_x[0])
        assert np.array_equal(maps.axes[1], maps.tan_y[:, 0])

    def test_directly_built_maps_are_read_from_their_values(self):
        column, row = np.linspace(-0.5, 0.5, 8), np.linspace(-0.4, 0.4, 6)
        tan_x, tan_y = np.tile(column, (6, 1)), np.tile(row[:, None], (1, 8))
        maps = TanAngleMaps(tan_x=tan_x, tan_y=tan_y)
        assert np.array_equal(maps.axes[0], column) and np.array_equal(maps.axes[1], row)
        for varied in (tan_x, tan_y):
            varied[3, 2] += 1e-12
            assert TanAngleMaps(tan_x=tan_x, tan_y=tan_y).axes is None
            varied[3, 2] -= 1e-12


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


def _bits(values: np.ndarray) -> np.ndarray:
    """The float64 maps' bit patterns, so equality is bit for bit (-0.0 != 0.0)."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestPinholeStorage:
    """A camera holds only what it has: no zero lattices, pinhole tan maps
    that are read-only views of the two axes, ``axes`` derived on first read."""

    def test_intrinsics_without_lattices_store_none(self, small_camera):
        assert small_camera.delta_x is None and small_camera.delta_y is None

    def test_hd_pinhole_maps_are_views_of_the_axes(self):
        intr = CameraIntrinsics(fx=1050.0, fy=1040.0, cx=959.5, cy=539.5, width=1920, height=1080)
        tracemalloc.start()
        try:
            maps = compute_tan_maps(intr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, peak  # one (1080, 1920) float64 map is 16.6 MB
        assert "axes" not in vars(maps)  # no full-map compare at set-up
        shape = (1080, 1920)
        tan_x = np.broadcast_to((np.arange(1920, dtype=np.float64) - 959.5) / 1050.0, shape)
        tan_y = np.broadcast_to((np.arange(1080, dtype=np.float64)[:, None] - 539.5) / 1040.0, shape)
        assert np.array_equal(_bits(maps.tan_x), _bits(tan_x))
        assert np.array_equal(_bits(maps.tan_y), _bits(tan_y))
        assert np.array_equal(_bits(maps.axes[0]), _bits(tan_x[0]))
        assert np.array_equal(_bits(maps.axes[1]), _bits(tan_y[:, 0]))
        assert "axes" in vars(maps)

    def test_axes_of_view_maps_make_no_full_map_compare(self):
        # a pinhole camera's maps are zero-stride views of the axes, read as
        # such: comparing a 4000x4000 map with its first row would take a
        # 16 MB bool mask
        maps = compute_tan_maps(
            CameraIntrinsics(fx=2000.0, fy=2000.0, cx=1999.5, cy=1999.5, width=4000, height=4000)
        )
        tracemalloc.start()
        try:
            tan_x, tan_y = maps.axes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4000 * 4000 // 100, peak
        assert np.array_equal(_bits(tan_x), _bits(maps.tan_x[0]))
        assert np.array_equal(_bits(tan_y), _bits(maps.tan_y[:, 0]))

    @pytest.mark.parametrize(
        "given", [("delta_x", "delta_y"), ("delta_x",), ("delta_y",)], ids=["both", "x-only", "y-only"]
    )
    def test_lattice_maps_keep_their_values(self, given):
        # the formula the maps had when every camera stored two full lattices
        rng = np.random.default_rng(9)
        lattices = dict(zip(("delta_x", "delta_y"), rng.uniform(-0.5, 0.5, (2, 48, 64))))
        intr = CameraIntrinsics(
            fx=57.0, fy=63.0, cx=30.2, cy=25.7, width=64, height=48,
            **{name: lattices[name] for name in given},
        )
        maps = compute_tan_maps(intr)
        delta_x, delta_y = (lattices[n] if n in given else np.zeros((48, 64)) for n in lattices)
        cols, rows = np.arange(64, dtype=np.float64), np.arange(48, dtype=np.float64)
        assert np.array_equal(_bits(maps.tan_x), _bits((cols[None, :] + delta_x - 30.2) / 57.0))
        assert np.array_equal(_bits(maps.tan_y), _bits((rows[:, None] + delta_y - 25.7) / 63.0))

    def test_project_point_reads_a_missing_lattice_as_zero(self, small_camera, small_maps):
        delta_x = np.random.default_rng(5).uniform(-0.5, 0.5, (48, 64))
        half = CameraIntrinsics(
            fx=60.0, fy=60.0, cx=31.5, cy=23.5, width=64, height=48, delta_x=delta_x
        )
        point = back_project((10, 30), 2.0, small_maps)
        assert project_point(point, small_camera, distortion_pixel=(10, 30)) == project_point(
            point, small_camera
        )
        x, y = project_point(point, small_camera)
        assert project_point(point, half, distortion_pixel=(10, 30)) == (x - delta_x[30, 10], y)

    def test_pinhole_maps_are_read_only(self, small_maps):
        for tan in (small_maps.tan_x, small_maps.tan_y):
            with pytest.raises(ValueError, match="read-only"):
                tan[3, 2] = 1.0


class TestTanMapShapes:
    @pytest.mark.parametrize(
        "shapes",
        [((64,), (64,)), ((4, 5), (5, 4)), ((48, 64), (40, 64)), ((2, 4, 5), (2, 4, 5))],
        ids=["1-d", "transposed", "fewer-rows", "3-d"],
    )
    def test_malformed_maps_are_rejected(self, shapes):
        tan_x, tan_y = (np.zeros(shape) for shape in shapes)
        with pytest.raises(ValueError, match=re.escape(f"got {shapes[0]} and {shapes[1]}")):
            TanAngleMaps(tan_x=tan_x, tan_y=tan_y)
