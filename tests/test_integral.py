"""Integral-image tests, all backed by naive double-loop / masked-sum oracles."""

from __future__ import annotations

import numpy as np
import pytest

from rangefit import (
    EXPLICIT_RGBD,
    EXPLICIT_STANDARD,
    FORMULATIONS,
    IMPLICIT_RGBD,
    IMPLICIT_STANDARD,
    DepthImage,
    NoiseModel,
    Rect,
    SyntheticScene,
    box_sum,
    build_channels,
    build_constant_channels,
    build_integral,
    build_rgbd_explicit_channels,
    build_rgbd_implicit_channels,
    build_standard_explicit_channels,
    build_standard_implicit_channels,
    render_scene,
)
from rangefit.integral import CONSTANT_CHANNELS, FORMULATION_CHANNELS

from conftest import random_visible_plane


def naive_prefix_sum(channel: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """O(W*H*W*H) reference: literal double-loop prefix sums."""
    h, w = channel.shape
    out = np.zeros((h + 1, w + 1))
    for y in range(1, h + 1):
        for x in range(1, w + 1):
            total = 0.0
            for yy in range(y):
                for xx in range(x):
                    if mask[yy, xx]:
                        total += channel[yy, xx]
            out[y, x] = total
    return out


def naive_box(channel: np.ndarray, mask: np.ndarray, rect: Rect) -> float:
    sl = (slice(rect.y0, rect.y1), slice(rect.x0, rect.x1))
    return float(np.where(mask[sl], channel[sl], 0.0).sum())


def random_rect(rng: np.random.Generator, width: int, height: int, min_size: int = 0) -> Rect:
    x0 = int(rng.integers(0, width - min_size + 1))
    y0 = int(rng.integers(0, height - min_size + 1))
    x1 = int(rng.integers(x0 + min_size, width + 1))
    y1 = int(rng.integers(y0 + min_size, height + 1))
    return Rect(x0, y0, x1, y1)


class TestBuildIntegral:
    def test_all_ones(self):
        table = build_integral(np.ones((10, 10))).table
        assert table[10, 10] == 100.0

    def test_all_invalid(self):
        image = build_integral(np.ones((5, 5)), mask=np.zeros((5, 5), dtype=bool))
        assert not np.any(image.table)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        channel = rng.standard_normal((12, 9))
        mask = rng.random((12, 9)) > 0.3
        expected = naive_prefix_sum(channel, mask)
        table = build_integral(channel, mask).table
        np.testing.assert_allclose(table, expected, atol=1e-12)

    def test_zero_padding_and_monotonicity(self):
        rng = np.random.default_rng(1)
        image = build_integral(rng.random((8, 8)))
        assert not np.any(image.table[0, :])
        assert not np.any(image.table[:, 0])
        assert np.all(np.diff(image.table, axis=0) >= 0)
        assert np.all(np.diff(image.table, axis=1) >= 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_integral(np.ones((4, 4)), mask=np.ones((3, 4), dtype=bool))


class TestBoxSum:
    def test_empty_rect(self):
        image = build_integral(np.ones((6, 6)))
        assert box_sum(image, Rect(3, 1, 3, 5)) == 0.0
        assert box_sum(image, Rect(2, 4, 5, 4)) == 0.0

    def test_full_image(self):
        image = build_integral(np.ones((7, 5)))
        assert box_sum(image, Rect(0, 0, 5, 7)) == 35.0

    def test_random_rects_match_naive(self):
        rng = np.random.default_rng(2)
        channel = rng.standard_normal((40, 30)) * 3
        mask = rng.random((40, 30)) > 0.2
        image = build_integral(channel, mask)
        for _ in range(200):
            rect = random_rect(rng, 30, 40)
            expected = naive_box(channel, mask, rect)
            got = box_sum(image, rect)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_additivity_of_adjacent_rects(self):
        rng = np.random.default_rng(3)
        channel = rng.random((20, 20))
        image = build_integral(channel)
        for _ in range(100):
            x0, y0 = int(rng.integers(0, 15)), int(rng.integers(0, 15))
            x1 = int(rng.integers(x0 + 1, 20))
            xm = int(rng.integers(x0, x1 + 1))
            y1 = int(rng.integers(y0 + 1, 20))
            whole = box_sum(image, Rect(x0, y0, x1, y1))
            left = box_sum(image, Rect(x0, y0, xm, y1))
            right = box_sum(image, Rect(xm, y0, x1, y1))
            assert left + right == pytest.approx(whole, rel=1e-12, abs=1e-12)

    def test_out_of_bounds(self):
        image = build_integral(np.ones((4, 4)))
        with pytest.raises(ValueError):
            box_sum(image, Rect(0, 0, 5, 4))
        with pytest.raises(ValueError):
            box_sum(image, Rect(-1, 0, 2, 2))


@pytest.fixture
def noisy_frame(small_maps):
    rng = np.random.default_rng(8)
    plane = random_visible_plane(rng)
    depth, _ = render_scene(SyntheticScene((plane,)), small_maps, noise=NoiseModel(), seed=4)
    # punch random holes so masking is exercised at the channel level
    holes = np.random.default_rng(5).random(depth.values.shape) < 0.1
    return DepthImage(values=depth.values, valid=depth.valid & ~holes)


class TestConstantChannels:
    def test_channel_registry(self, small_maps):
        stack = build_constant_channels(small_maps)
        assert stack.per_frame_channel_names() == ("tx2", "txty", "ty2", "tx", "ty")

    def test_odd_symmetry_of_tan_sum(self):
        # cx centered on an even width makes tan_x values pair up antisymmetrically
        from rangefit import CameraIntrinsics, compute_tan_maps

        intr = CameraIntrinsics(fx=50.0, fy=50.0, cx=15.5, cy=11.5, width=32, height=24)
        stack = build_constant_channels(compute_tan_maps(intr))
        total = box_sum(stack.channels["tx"], Rect(0, 0, 32, 24))
        assert abs(total) < 1e-10

    def test_count_channel_counts_pixels(self, small_maps):
        stack = build_constant_channels(small_maps)
        assert box_sum(stack.count, Rect(3, 5, 13, 25)) == 200.0

    def test_sums_match_naive(self):
        from rangefit import CameraIntrinsics, compute_tan_maps

        intr = CameraIntrinsics(fx=4.0, fy=3.0, cx=3.5, cy=3.5, width=8, height=8)
        maps = compute_tan_maps(intr)
        stack = build_constant_channels(maps)
        full = Rect(0, 0, 8, 8)
        lattices = {
            "tx2": maps.tan_x**2,
            "txty": maps.tan_x * maps.tan_y,
            "ty2": maps.tan_y**2,
            "tx": maps.tan_x,
            "ty": maps.tan_y,
        }
        for name, lattice in lattices.items():
            assert box_sum(stack.channels[name], full) == pytest.approx(
                float(lattice.sum()), rel=1e-12
            )


class TestPerFrameBuilders:
    @pytest.mark.parametrize(
        "builder,expected_channels",
        [
            (build_standard_implicit_channels, 9),
            (build_rgbd_implicit_channels, 4),
            (build_standard_explicit_channels, 8),
            (build_rgbd_explicit_channels, 3),
        ],
    )
    def test_scatter_channel_counts(self, noisy_frame, small_maps, builder, expected_channels):
        # the scatter channels come first, then the residual and masked tan tables
        names = builder(noisy_frame, small_maps).per_frame_channel_names()
        scatter = [spec.scatter for spec in FORMULATION_CHANNELS.values()]
        assert names[:expected_channels] in scatter
        assert set(names[expected_channels:]) <= {"z2", "inv_z2", *CONSTANT_CHANNELS}

    def test_explicit_residual_channel_is_separate(self, noisy_frame, small_maps):
        with_res = build_standard_explicit_channels(noisy_frame, small_maps)
        assert with_res.per_frame_channel_names()[8:] == ("z2",)
        bare = build_standard_explicit_channels(noisy_frame, small_maps, include_residual=False)
        assert "z2" not in bare.channels
        assert len(bare.per_frame_channel_names()) == 8

        # the frame has holes: masked tan tables follow the residual
        rgbd = build_rgbd_explicit_channels(noisy_frame, small_maps)
        assert rgbd.per_frame_channel_names()[3:] == ("inv_z2", *CONSTANT_CHANNELS)

    def test_standard_implicit_sums_match_naive(self, noisy_frame, small_maps):
        stack = build_standard_implicit_channels(noisy_frame, small_maps)
        z = np.where(noisy_frame.valid, noisy_frame.values, 0.0)
        x = z * small_maps.tan_x
        y = z * small_maps.tan_y
        oracles = {
            "x2": x * x, "xy": x * y, "xz": x * z, "x": x,
            "y2": y * y, "yz": y * z, "y": y, "z2": z * z, "z": z,
        }
        rng = np.random.default_rng(6)
        for _ in range(30):
            rect = random_rect(rng, 64, 48)
            for name, lattice in oracles.items():
                expected = naive_box(lattice, noisy_frame.valid, rect)
                assert box_sum(stack.channels[name], rect) == pytest.approx(
                    expected, rel=1e-9, abs=1e-9
                )

    def test_rgbd_implicit_sums_match_naive(self, noisy_frame, small_maps):
        stack = build_rgbd_implicit_channels(noisy_frame, small_maps)
        inv = np.where(noisy_frame.valid, 1.0 / np.where(noisy_frame.valid, noisy_frame.values, 1.0), 0.0)
        oracles = {
            "tx_over_z": small_maps.tan_x * inv,
            "ty_over_z": small_maps.tan_y * inv,
            "inv_z": inv,
            "inv_z2": inv * inv,
        }
        rng = np.random.default_rng(7)
        for _ in range(30):
            rect = random_rect(rng, 64, 48)
            for name, lattice in oracles.items():
                expected = naive_box(lattice, noisy_frame.valid, rect)
                assert box_sum(stack.channels[name], rect) == pytest.approx(
                    expected, rel=1e-9, abs=1e-9
                )

    def test_count_ignores_invalid(self, noisy_frame, small_maps):
        stack = build_rgbd_implicit_channels(noisy_frame, small_maps)
        full = Rect(0, 0, 64, 48)
        assert box_sum(stack.count, full) == float(noisy_frame.valid.sum())

    def test_constant_depth_trivials(self, small_maps):
        # Z = 2 everywhere: the inverse-depth channel sums to k/2 over k pixels
        from rangefit import GroundTruthPlane

        depth, _ = render_scene(
            SyntheticScene((GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0])),)), small_maps
        )
        stack = build_rgbd_implicit_channels(depth, small_maps)
        rect = Rect(4, 4, 24, 14)
        assert box_sum(stack.count, rect) == 200.0
        assert box_sum(stack.channels["inv_z"], rect) == pytest.approx(100.0, rel=1e-12)

        std = build_standard_implicit_channels(depth, small_maps)
        assert box_sum(std.channels["z"], rect) == pytest.approx(400.0, rel=1e-12)
        # symmetric rect around the principal column: odd symmetry kills the
        # X and XZ sums on constant depth
        sym = Rect(12, 10, 52, 20)  # centered on cx = 31.5
        assert abs(box_sum(std.channels["x"], sym)) < 1e-9
        explicit = build_standard_explicit_channels(depth, small_maps)
        assert abs(box_sum(explicit.channels["xz"], sym)) < 1e-9

    def test_unit_tan_maps_and_unit_depth(self):
        # tan_x = tan_y = 1 and Z = 1 everywhere: every explicit channel sum
        # equals the valid-pixel count
        from rangefit import DepthImage, TanAngleMaps

        maps = TanAngleMaps(tan_x=np.ones((6, 8)), tan_y=np.ones((6, 8)))
        depth = DepthImage(values=np.ones((6, 8)))
        stack = build_standard_explicit_channels(depth, maps)
        full = Rect(0, 0, 8, 6)
        for name in stack.channels:
            assert box_sum(stack.channels[name], full) == 48.0
        assert box_sum(stack.count, full) == 48.0

    def test_dimension_mismatch(self, noisy_frame):
        from rangefit import CameraIntrinsics, compute_tan_maps

        other = compute_tan_maps(
            CameraIntrinsics(fx=10.0, fy=10.0, cx=4.0, cy=4.0, width=9, height=9)
        )
        for formulation in FORMULATIONS:
            with pytest.raises(ValueError, match="does not match"):
                _WRAPPERS[formulation](noisy_frame, other)
            with pytest.raises(ValueError, match="does not match"):
                build_channels(noisy_frame, other, formulation)


# Channel names of every stack, count excluded, in tensor order.
_SCATTER = {
    IMPLICIT_STANDARD: ("x2", "xy", "xz", "x", "y2", "yz", "y", "z2", "z"),
    IMPLICIT_RGBD: ("tx_over_z", "ty_over_z", "inv_z", "inv_z2"),
    EXPLICIT_STANDARD: ("x2", "xy", "x", "y2", "y", "xz", "yz", "z"),
    EXPLICIT_RGBD: ("tx_over_z", "ty_over_z", "inv_z"),
}
_RESIDUAL = {EXPLICIT_STANDARD: "z2", EXPLICIT_RGBD: "inv_z2"}
_WRAPPERS = {
    IMPLICIT_STANDARD: build_standard_implicit_channels,
    IMPLICIT_RGBD: build_rgbd_implicit_channels,
    EXPLICIT_STANDARD: build_standard_explicit_channels,
    EXPLICIT_RGBD: build_rgbd_explicit_channels,
}


def _reference_lattices(depth: DepthImage, maps) -> dict[str, np.ndarray]:
    """Every channel's per-pixel monomial, computed lattice by lattice."""
    z = np.where(depth.valid, depth.values, 0.0)
    x, y = z * maps.tan_x, z * maps.tan_y
    inv = np.where(depth.valid, 1.0 / np.where(depth.valid, depth.values, 1.0), 0.0)
    tx, ty = maps.tan_x, maps.tan_y
    return {
        "x2": x * x, "xy": x * y, "xz": x * z, "x": x, "y2": y * y, "yz": y * z,
        "y": y, "z2": z * z, "z": z,
        "tx_over_z": tx * inv, "ty_over_z": ty * inv, "inv_z": inv, "inv_z2": inv * inv,
        "tx2": tx * tx, "txty": tx * ty, "ty2": ty * ty, "tx": tx, "ty": ty,
    }


def _assert_tables_match_reference(stack, lattices, mask, count_source):
    for name, image in stack.channels.items():
        assert np.array_equal(image.table, build_integral(lattices[name], mask).table), name
        assert image.table.base is stack.tensor, name
    assert np.array_equal(stack.count.table, build_integral(count_source).table)
    assert stack.count.table.base is stack.tensor
    assert stack.tensor.shape == (len(stack.channels) + 1, *stack.count.table.shape)


def _camera_maps(width: int, height: int):
    from rangefit import CameraIntrinsics, compute_tan_maps

    return compute_tan_maps(CameraIntrinsics(
        fx=60.0, fy=55.0, cx=(width - 1) / 2, cy=(height - 1) / 2, width=width, height=height
    ))


def _frame(maps, holes: bool) -> DepthImage:
    rng = np.random.default_rng(9)
    depth, _ = render_scene(
        SyntheticScene((random_visible_plane(rng),)), maps, noise=NoiseModel(), seed=10
    )
    assert depth.valid.all()
    if not holes:
        return depth
    valid = rng.random(depth.values.shape) < 0.8
    valid.flat[0] = False  # at least one hole, even in a one-pixel-wide frame
    return DepthImage(values=depth.values, valid=valid)


class TestChannelTensor:
    """One (C, H+1, W+1) tensor per stack, each table bit-equal to build_integral."""

    @pytest.mark.parametrize("size", [(64, 48), (37, 1), (1, 29)], ids=["64x48", "1xW", "Hx1"])
    @pytest.mark.parametrize("holes", [False, True], ids=["hole-free", "holes"])
    @pytest.mark.parametrize("include_residual", [True, False], ids=["residual", "bare"])
    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_tables_match_per_channel_reference(self, formulation, include_residual, holes, size):
        maps = _camera_maps(*size)
        depth = _frame(maps, holes)
        rgbd = formulation in (IMPLICIT_RGBD, EXPLICIT_RGBD)
        names = _SCATTER[formulation]
        if include_residual and formulation in _RESIDUAL:
            names += (_RESIDUAL[formulation],)
        if holes and rgbd:
            names += CONSTANT_CHANNELS  # masked, under the camera-constant names
        if formulation in (IMPLICIT_STANDARD, IMPLICIT_RGBD):
            stack = _WRAPPERS[formulation](depth, maps)
        else:
            stack = _WRAPPERS[formulation](depth, maps, include_residual=include_residual)
        assert tuple(stack.channels) == names
        lattices = _reference_lattices(depth, maps)
        _assert_tables_match_reference(stack, lattices, depth.valid, depth.valid.astype(float))
        again = build_channels(depth, maps, formulation, include_residual)
        assert again.index == stack.index
        assert np.array_equal(again.tensor, stack.tensor)

    @pytest.mark.parametrize("size", [(64, 48), (37, 1), (1, 29)], ids=["64x48", "1xW", "Hx1"])
    def test_constant_stack_matches_per_channel_reference(self, size):
        maps = _camera_maps(*size)
        stack = build_constant_channels(maps)
        assert tuple(stack.channels) == ("tx2", "txty", "ty2", "tx", "ty")
        depth = DepthImage(values=np.ones(maps.tan_x.shape))
        _assert_tables_match_reference(
            stack, _reference_lattices(depth, maps), None, np.ones(maps.tan_x.shape)
        )

    def test_unknown_formulation(self, small_maps):
        with pytest.raises(ValueError, match="unknown formulation"):
            build_channels(_frame(small_maps, holes=False), small_maps, "implicit-wat")


class TestFormulationTable:
    """The per-frame channels, constant-stack need and size derived from each system."""

    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_derived_per_frame_channels(self, formulation):
        spec = FORMULATION_CHANNELS[formulation]
        assert spec.scatter == _SCATTER[formulation]
        assert spec.residual == _RESIDUAL.get(formulation)
        assert spec.needs_constant == (formulation in (IMPLICIT_RGBD, EXPLICIT_RGBD))
        assert spec.size == (4 if formulation in (IMPLICIT_STANDARD, IMPLICIT_RGBD) else 3)
        assert len(spec.layout) == spec.size * (spec.size + 1) // 2
        assert len(spec.rhs) == (0 if spec.size == 4 else 3)
