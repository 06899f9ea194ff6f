"""Integral-image tests, all backed by naive double-loop / masked-sum oracles."""

from __future__ import annotations

import copy
import math
import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    render_scene,
)
from rangefit.integral import (
    CONSTANT_CHANNELS,
    COUNT_CHANNEL,
    FORMULATION_CHANNELS,
    _BAND_BYTES,
    _POWERS,
    AxisSums,
    _band_rows,
    build_node_pyramid,
    tan_sums,
    window_sums,
)

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
        table = build_integral(np.ones((10, 10)))
        assert table[10, 10] == 100.0

    def test_all_invalid(self):
        image = build_integral(np.ones((5, 5)), mask=np.zeros((5, 5), dtype=bool))
        assert not np.any(image)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        channel = rng.standard_normal((12, 9))
        mask = rng.random((12, 9)) > 0.3
        expected = naive_prefix_sum(channel, mask)
        table = build_integral(channel, mask)
        np.testing.assert_allclose(table, expected, atol=1e-12)

    def test_zero_padding_and_monotonicity(self):
        rng = np.random.default_rng(1)
        image = build_integral(rng.random((8, 8)))
        assert not np.any(image[0, :])
        assert not np.any(image[:, 0])
        assert np.all(np.diff(image, axis=0) >= 0)
        assert np.all(np.diff(image, axis=1) >= 0)

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
        constant = build_constant_channels(compute_tan_maps(intr))
        total = tan_sums(constant, Rect(0, 0, 32, 24))["tx"]
        assert abs(total) < 1e-10

    def test_pinhole_constant_is_its_axes_prefix_sums(self, small_maps):
        # O(W + H): [1, t, t^2] summed down the rows and along the columns
        constant = build_constant_channels(small_maps)
        assert isinstance(constant, AxisSums)
        assert constant.rows.shape == (3, small_maps.height + 1)
        assert constant.cols.shape == (3, small_maps.width + 1)
        assert (constant.height, constant.width) == (small_maps.height, small_maps.width)
        for prefix, axis in ((constant.rows, small_maps.axes[1]), (constant.cols, small_maps.axes[0])):
            assert not prefix[:, 0].any()
            powers = np.stack([np.ones_like(axis), axis, axis * axis])
            assert np.array_equal(prefix[:, 1:], np.cumsum(powers, axis=1))

    def test_lattice_constant_holds_exactly_the_five_tan_tables(self):
        # a window's pixel count is its area, so the stack needs no count table
        maps = _camera_maps(64, 48, lattice=True)
        stack = build_constant_channels(maps)
        assert stack.count is None
        assert tuple(stack.index) == CONSTANT_CHANNELS
        assert stack.tensor.shape == (5, maps.height + 1, maps.width + 1)

    @pytest.mark.parametrize("lattice", [False, True], ids=["pinhole", "lattice"])
    def test_sums_match_naive(self, lattice):
        maps = _camera_maps(8, 8, 4.0, lattice=lattice)
        constant = build_constant_channels(maps)
        full = Rect(0, 0, 8, 8)
        lattices = {
            "tx2": maps.tan_x**2,
            "txty": maps.tan_x * maps.tan_y,
            "ty2": maps.tan_y**2,
            "tx": maps.tan_x,
            "ty": maps.tan_y,
        }
        sums = tan_sums(constant, full)
        for name, lattice in lattices.items():
            assert sums[name] == pytest.approx(float(lattice.sum()), rel=1e-12)


class TestPerFrameBuilders:
    @pytest.mark.parametrize(
        "formulation,expected_channels",
        [(IMPLICIT_STANDARD, 9), (IMPLICIT_RGBD, 4), (EXPLICIT_STANDARD, 8), (EXPLICIT_RGBD, 3)],
    )
    def test_scatter_channel_counts(self, noisy_frame, small_maps, formulation, expected_channels):
        # the scatter channels come first, then the residual; holes add none
        names = build_channels(noisy_frame, small_maps, formulation).per_frame_channel_names()
        scatter = [spec.scatter for spec in FORMULATION_CHANNELS.values()]
        assert names[:expected_channels] in scatter
        assert set(names[expected_channels:]) <= {"z2", "inv_z2"}

    def test_explicit_residual_channel_is_separate(self, noisy_frame, small_maps):
        with_res = build_channels(noisy_frame, small_maps, EXPLICIT_STANDARD)
        assert with_res.per_frame_channel_names()[8:] == ("z2",)
        bare = build_channels(noisy_frame, small_maps, EXPLICIT_STANDARD, include_residual=False)
        assert "z2" not in bare.channels
        assert len(bare.per_frame_channel_names()) == 8

        # the frame has holes: the residual is still the last table
        rgbd = build_channels(noisy_frame, small_maps, EXPLICIT_RGBD)
        assert rgbd.per_frame_channel_names()[3:] == ("inv_z2",)

    def test_standard_implicit_sums_match_naive(self, noisy_frame, small_maps):
        stack = build_channels(noisy_frame, small_maps, IMPLICIT_STANDARD)
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
        stack = build_channels(noisy_frame, small_maps, IMPLICIT_RGBD)
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
        stack = build_channels(noisy_frame, small_maps, IMPLICIT_RGBD)
        full = Rect(0, 0, 64, 48)
        assert box_sum(stack.count, full) == float(noisy_frame.valid.sum())

    def test_constant_depth_trivials(self, small_maps):
        # Z = 2 everywhere: the inverse-depth channel sums to k/2 over k pixels
        from rangefit import GroundTruthPlane

        depth, _ = render_scene(
            SyntheticScene((GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0])),)), small_maps
        )
        stack = build_channels(depth, small_maps, IMPLICIT_RGBD)
        rect = Rect(4, 4, 24, 14)
        assert stack.count is None  # hole-free: the window's count is its area, 200
        assert box_sum(stack.channels["inv_z"], rect) == pytest.approx(100.0, rel=1e-12)

        std = build_channels(depth, small_maps, IMPLICIT_STANDARD)
        assert box_sum(std.channels["z"], rect) == pytest.approx(400.0, rel=1e-12)
        # symmetric rect around the principal column: odd symmetry kills the
        # X and XZ sums on constant depth
        sym = Rect(12, 10, 52, 20)  # centered on cx = 31.5
        assert abs(box_sum(std.channels["x"], sym)) < 1e-9
        explicit = build_channels(depth, small_maps, EXPLICIT_STANDARD)
        assert abs(box_sum(explicit.channels["xz"], sym)) < 1e-9

    def test_unit_tan_maps_and_unit_depth(self):
        # tan_x = tan_y = 1 and Z = 1 everywhere: every explicit channel sum
        # equals the valid-pixel count
        from rangefit import DepthImage, TanAngleMaps

        maps = TanAngleMaps(tan_x=np.ones((6, 8)), tan_y=np.ones((6, 8)))
        depth = DepthImage(values=np.ones((6, 8)))
        stack = build_channels(depth, maps, EXPLICIT_STANDARD)
        full = Rect(0, 0, 8, 6)
        for name in stack.channels:
            assert box_sum(stack.channels[name], full) == 48.0
        assert stack.count is None  # hole-free: the count is the area, 48

    def test_dimension_mismatch(self, noisy_frame):
        from rangefit import CameraIntrinsics, compute_tan_maps

        other = compute_tan_maps(
            CameraIntrinsics(fx=10.0, fy=10.0, cx=4.0, cy=4.0, width=9, height=9)
        )
        for formulation in FORMULATIONS:
            with pytest.raises(ValueError, match="does not match"):
                build_channels(noisy_frame, other, formulation, include_residual=False)
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
        assert np.array_equal(image, build_integral(lattices[name], mask)), name
        assert image.base is stack.tensor, name
    counted = count_source is not None
    if counted:
        assert np.array_equal(stack.count, build_integral(count_source))
        assert stack.count.base is stack.tensor
    h, w = lattices["tx"].shape
    assert stack.tensor.shape == (len(stack.channels) + counted, h + 1, w + 1)


def _window_edges(n: int) -> list[int]:
    """Window edges along an axis of ``n`` pixels: both ends, their inner
    neighbours and the middle."""
    return sorted({0, 1, n // 2, n - 1, n})


def _assert_constant_sums_match_fsum(constant: AxisSums, maps) -> None:
    """Every window's five tan sums through ``tan_sums``, on one rect and in
    a batch bit for bit, against ``math.fsum`` of the per-pixel monomials.

    Windows take every pair of ``_window_edges`` per axis, so they include
    1-px rows and columns at the far edges.  Bound, with u the unit roundoff
    and Q the prefix sums of |t**k| along an axis: a sequential prefix sum
    over x terms is off by at most x*u*Q[x], so one axis' difference over
    [a, b) by e = (b + 1)*u*(Q[b] + Q[a]), its rounding included.  A product
    c*r of the column and row differences is then off by |c|*e_r + |r|*e_c +
    e_c*e_r; its own rounding, the per-pixel product tan_x*tan_y and fsum's
    rounding add at most 3*u*(|c| + e_c)*(|r| + e_r), where |c| and |r|
    are the sums of the magnitudes over the window.
    """
    u = np.finfo(np.float64).eps / 2
    q_col, q_row = (
        np.concatenate([np.zeros((3, 1)), np.cumsum(np.abs([t**0, t, t * t]), axis=1)], axis=1)
        for t in maps.axes
    )
    rects = [
        Rect(x0, y0, x1, y1)
        for x0, x1 in combinations_with_replacement(_window_edges(maps.width), 2)
        for y0, y1 in combinations_with_replacement(_window_edges(maps.height), 2)
    ]
    batch = tan_sums(constant, np.array(rects))
    lattices = _reference_lattices(DepthImage(values=np.ones(maps.tan_x.shape)), maps)
    for k, rect in enumerate(rects):
        sums = tan_sums(constant, rect)
        x0, y0, x1, y1 = rect
        window = (slice(y0, y1), slice(x0, x1))
        for name in CONSTANT_CHANNELS:
            assert sums[name] == batch[name][k], (name, rect)
            i, j, _ = _POWERS[name]
            c, r = q_col[i, x1] - q_col[i, x0], q_row[j, y1] - q_row[j, y0]
            e_c = (x1 + 1) * u * (q_col[i, x1] + q_col[i, x0])
            e_r = (y1 + 1) * u * (q_row[j, y1] + q_row[j, y0])
            bound = c * e_r + r * e_c + e_c * e_r + 3 * u * (c + e_c) * (r + e_r)
            exact = math.fsum(lattices[name][window].ravel().tolist())
            assert abs(sums[name] - exact) <= bound, (name, rect, sums[name] - exact, bound)


def _camera_maps(width: int, height: int, fx: float = 60.0, lattice: bool = False):
    """Tan maps of a pinhole camera or, with ``lattice``, of one with random
    distortion offsets, whose maps do not factor into axes."""
    from rangefit import CameraIntrinsics, compute_tan_maps

    rng = np.random.default_rng(width * height)
    offsets = {
        name: rng.uniform(-0.5, 0.5, (height, width)) for name in ("delta_x", "delta_y")
    } if lattice else {}
    maps = compute_tan_maps(CameraIntrinsics(
        fx=fx, fy=fx * 11 / 12, cx=(width - 1) / 2, cy=(height - 1) / 2, width=width, height=height,
        **offsets,
    ))
    assert (maps.axes is None) == lattice
    return maps


# Both level-0 paths of an rgbd pyramid: pinhole maps factor into axes, and a
# distortion lattice takes the per-pixel monomials.
_CAMERAS = pytest.mark.parametrize("lattice", [False, True], ids=["pinhole", "lattice"])


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


# Cameras (width, height, fx) of the tensor tests.  1000 px wide, a build
# band holds 6-21 rows (3-10 tables): 67 rows span at least three bands and
# end in a ragged one, and 5 rows are fewer than one band.
_SIZES = [(64, 48, 60.0), (37, 1, 60.0), (1, 29, 60.0), (1000, 67, 800.0), (1000, 5, 800.0)]
_SIZE_IDS = ["64x48", "1xW", "Hx1", "3+bands", "1-band"]


def _assert_band_layout(stack, size: tuple[int, int, float]) -> None:
    """The multi-band and one-band sizes really are so for this stack's tables."""
    w, h, _ = size
    rows = _band_rows(len(stack.index), w)
    if (w, h) == (1000, 67):
        assert h >= 3 * rows and h % rows, (h, rows)
    if (w, h) == (1000, 5):
        assert h < rows, (h, rows)


class TestChannelTensor:
    """One (C, H+1, W+1) tensor per stack, each table bit-equal to build_integral."""

    @pytest.mark.parametrize("size", _SIZES, ids=_SIZE_IDS)
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
        stack = build_channels(depth, maps, formulation, include_residual)
        assert tuple(stack.channels) == names
        assert (stack.holes is not None) == (stack.hole_tan is not None) == (holes and rgbd)
        _assert_band_layout(stack, size)
        lattices = _reference_lattices(depth, maps)
        # only a frame with holes has a count table
        count = depth.valid.astype(float) if holes else None
        _assert_tables_match_reference(stack, lattices, depth.valid, count)
        again = build_channels(depth, maps, formulation, include_residual)  # a rebuild is bit-equal
        assert again.index == stack.index
        assert np.array_equal(again.tensor, stack.tensor)

    @_CAMERAS
    @pytest.mark.parametrize("size", _SIZES, ids=_SIZE_IDS)
    def test_constant_stack_matches_per_channel_reference(self, size, lattice):
        maps = _camera_maps(*size, lattice=lattice)
        constant = build_constant_channels(maps)
        if not lattice:
            _assert_constant_sums_match_fsum(constant, maps)
            return
        assert tuple(constant.channels) == ("tx2", "txty", "ty2", "tx", "ty")
        _assert_band_layout(constant, size)
        depth = DepthImage(values=np.ones(maps.tan_x.shape))
        _assert_tables_match_reference(constant, _reference_lattices(depth, maps), None, None)

    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_build_makes_no_frame_sized_temporary(self, formulation):
        # the build writes one band of rows at a time, so beyond its tensor it
        # holds less than one (H, W) float64 lattice, even on a frame with holes
        height, width = 480, 640
        maps = _camera_maps(width, height, 525.0)
        rng = np.random.default_rng(12)
        depth = DepthImage(
            values=rng.uniform(0.5, 5.0, (height, width)),
            valid=rng.random((height, width)) >= 0.02,
        )
        tracemalloc.start()
        try:
            stack = build_channels(depth, maps, formulation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stack.count is not None
        assert peak - stack.tensor.nbytes < height * width * 8

    def test_unknown_formulation(self, small_maps):
        with pytest.raises(ValueError, match="unknown formulation"):
            build_channels(_frame(small_maps, holes=False), small_maps, "implicit-wat")


class TestHoleList:
    """A holey rgbd stack lists its holes; window tan sums less them against brute force."""

    def test_window_hole_sums_match_brute_force(self):
        width, height = 37, 23
        maps = _camera_maps(width, height)
        depth = _frame(maps, holes=False)
        rng = np.random.default_rng(31)
        valid = np.ones((height, width), dtype=bool)
        valid[:12] = rng.random((12, width)) >= 0.15  # rows 12-14 and 19-22 stay hole-free
        valid[15:19, 20:28] = False  # an all-hole block
        valid[[3, 16, 20], 0] = valid[[5, 17, 21], width - 1] = False  # holes on both borders
        depth = DepthImage(values=depth.values, valid=valid)
        stack = build_channels(depth, maps, EXPLICIT_RGBD)
        assert np.array_equal(stack.holes, np.flatnonzero(~valid))
        rects = [
            Rect(3, 7, 30, 8),  # 1 px tall
            Rect(0, 16, 1, 17),  # 1 px wide, a hole at x = 0
            Rect(12, 0, 13, height),  # 1 px wide
            Rect(0, 0, 5, height),  # touches x = 0
            Rect(30, 0, width, height),  # touches x = W
            Rect(0, 10, width, 22),  # holey, with hole-free rows
            Rect(20, 15, 28, 19),  # all holes
            Rect(2, 12, 30, 15),  # no holes
            Rect(0, 0, width, height),
        ]
        for _ in range(20):
            rects.append(random_rect(rng, width, height, min_size=1))
        # the window reader's tan entries are the constant's less the holes'
        names = FORMULATION_CHANNELS[EXPLICIT_RGBD].entries
        batch = window_sums(stack, np.array(rects), names)
        lattices = _reference_lattices(depth, maps)
        for i, rect in enumerate(rects):
            one = window_sums(stack, rect, names)
            x0, y0, x1, y1 = rect
            kept = valid[y0:y1, x0:x1]
            for name in CONSTANT_CHANNELS:
                expected = lattices[name][y0:y1, x0:x1][kept].sum()
                for got in (one[name], batch[name][i]):
                    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12), (name, i)


    @_CAMERAS
    def test_batch_without_holey_windows_reads_the_constant(self, lattice):
        # the stack lists holes, but none lies in any of the windows
        width, height = 37, 23
        maps = _camera_maps(width, height, lattice=lattice)
        depth = _frame(maps, holes=False)
        valid = np.ones((height, width), dtype=bool)
        valid[:, 30:] = np.random.default_rng(33).random((height, width - 30)) >= 0.3
        depth = DepthImage(values=depth.values, valid=valid)
        stack = build_channels(depth, maps, EXPLICIT_RGBD)
        assert stack.holes.size
        rects = [Rect(0, 0, 30, height), Rect(3, 7, 4, 8), Rect(10, 2, 25, 20), Rect(29, 0, 30, 1)]
        names = FORMULATION_CHANNELS[EXPLICIT_RGBD].entries
        batch = window_sums(stack, np.array(rects), names)
        constant = tan_sums(build_constant_channels(maps), np.array(rects))
        for name in CONSTANT_CHANNELS:
            assert batch[name].tobytes() == constant[name].tobytes(), name
        for i, rect in enumerate(rects):
            one = window_sums(stack, rect, names)
            for name, value in one.items():
                assert np.float64(value).tobytes() == batch[name][i].tobytes(), (name, rect)


class TestWindowSums:
    """The window reader: one rect's floats are its row of a batched read."""

    @_CAMERAS
    @pytest.mark.parametrize("holes", [False, True], ids=["hole-free", "holes"])
    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_one_rect_equals_its_row_of_the_batch(self, formulation, holes, lattice):
        width, height = 37, 23
        maps = _camera_maps(width, height, lattice=lattice)
        depth = _frame(maps, holes=False)
        rng = np.random.default_rng(32)
        rects = [
            Rect(3, 7, 30, 8),  # 1 px tall
            Rect(12, 0, 13, height),  # 1 px wide
            Rect(36, 22, 37, 23),  # 1 px, the far corner
            Rect(5, 5, 5, 9),  # empty
            Rect(0, 0, width, height),
        ]
        if holes:
            valid = rng.random((height, width)) >= 0.15
            valid[15:19, 20:28] = False
            depth = DepthImage(values=depth.values, valid=valid)
            rects += [Rect(20, 15, 28, 19), Rect(21, 16, 22, 17)]  # all holes
        rects += [random_rect(rng, width, height, min_size=1) for _ in range(20)]
        stack = build_channels(depth, maps, formulation)
        names = FORMULATION_CHANNELS[formulation].entries
        batch = window_sums(stack, np.array(rects), names)
        assert set(names) | {COUNT_CHANNEL} <= batch.keys()
        for i, rect in enumerate(rects):
            one = window_sums(stack, rect, names)
            assert one.keys() == batch.keys()
            for name, value in one.items():
                assert type(value) is float, (name, rect)
                assert np.float64(value).tobytes() == batch[name][i].tobytes(), (name, rect)


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


def _masked_lattices(depth: DepthImage, maps) -> dict[str, np.ndarray]:
    """Every channel's masked per-pixel monomial, the count included."""
    lattices = {
        name: np.where(depth.valid, lattice, 0.0)
        for name, lattice in _reference_lattices(depth, maps).items()
    }
    lattices[COUNT_CHANNEL] = depth.valid.astype(float)
    return lattices


class TestNodePyramid:
    """Per-frame sums over the nodes of a fixed quadtree, against per-pixel sums."""

    @_CAMERAS
    @pytest.mark.parametrize("size", [(64, 48), (97, 53)], ids=["64x48", "97x53"])
    @pytest.mark.parametrize("holes", [False, True], ids=["hole-free", "holes"])
    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_node_sums_match_masked_sums(self, formulation, holes, size, lattice):
        width, height = size
        tile, max_depth = 16, 2
        maps = _camera_maps(width, height, lattice=lattice)
        depth = _frame(maps, holes)
        pyramid = build_node_pyramid(depth, maps, formulation, tile, max_depth)
        names = {COUNT_CHANNEL, *_SCATTER[formulation]}
        names.add(_RESIDUAL.get(formulation, COUNT_CHANNEL))
        if formulation in (IMPLICIT_RGBD, EXPLICIT_RGBD):
            names |= set(CONSTANT_CHANNELS)
        assert set(pyramid.index) == names
        assert len(pyramid.levels) == max_depth + 1
        lattices = _masked_lattices(depth, maps)
        for level, sums in enumerate(pyramid.levels):
            edge = tile >> level
            # exactly the nodes that overlap the image
            rows, cols = -(-height // edge), -(-width // edge)
            assert sums.shape == (len(names), rows, cols)
            for name, i in pyramid.index.items():
                padded = np.zeros((rows * edge, cols * edge))
                padded[:height, :width] = lattices[name]
                expected = padded.reshape(rows, edge, cols, edge).sum(axis=(1, 3))
                np.testing.assert_allclose(sums[i], expected, rtol=1e-12, atol=1e-12, err_msg=name)
        count = pyramid.levels[-1][pyramid.index[COUNT_CHANNEL]]
        assert count.sum() == depth.valid.sum()

    @pytest.mark.parametrize("formulation", [IMPLICIT_STANDARD, EXPLICIT_RGBD])
    def test_node_sums_at_1080p_are_exact_to_rounding(self, formulation):
        # far corner and centre nodes of every level, against math.fsum; the
        # pinhole maps factor, so an rgbd pyramid's sums are those of its axes
        from rangefit import CameraIntrinsics, compute_tan_maps

        width, height, tile, max_depth = 1920, 1080, 64, 3
        maps = compute_tan_maps(CameraIntrinsics(
            fx=1920.0, fy=1920.0, cx=959.5, cy=539.5, width=width, height=height
        ))
        depth = _frame(maps, holes=True)
        pyramid = build_node_pyramid(depth, maps, formulation, tile, max_depth)
        lattices = _masked_lattices(depth, maps)
        for level, sums in enumerate(pyramid.levels):
            edge = tile >> level
            for row, col in (((height - 1) // edge, (width - 1) // edge),
                             (height // 2 // edge, width // 2 // edge)):
                window = (slice(row * edge, (row + 1) * edge), slice(col * edge, (col + 1) * edge))
                for name, i in pyramid.index.items():
                    values = lattices[name][window].ravel()
                    exact = math.fsum(values)
                    bound = 1e-13 * math.fsum(np.abs(values))
                    assert abs(sums[i, row, col] - exact) <= bound, (name, level, row, col)

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        width=st.integers(1, 130),
        height=st.integers(1, 100),
        cell=st.sampled_from([1, 2, 4, 8]),
        max_depth=st.integers(0, 3),
        hole_fraction=st.floats(0.0, 0.4),
        seed=st.integers(0, 2**32 - 1),
        formulation=st.sampled_from(FORMULATIONS),
    )
    def test_count_rows_are_exact(
        self, width, height, cell, max_depth, hole_fraction, seed, formulation
    ):
        # the count row at every level equals the padded block sums of the
        # validity mask exactly, whatever the frame size, lattice and holes
        maps = _camera_maps(width, height)
        rng = np.random.default_rng(seed)
        valid = rng.random((height, width)) >= hole_fraction
        depth = DepthImage(values=rng.uniform(0.5, 5.0, (height, width)), valid=valid)
        tile = cell << max_depth
        pyramid = build_node_pyramid(depth, maps, formulation, tile, max_depth)
        assert len(pyramid.levels) == max_depth + 1
        for level, sums in enumerate(pyramid.levels):
            edge = tile >> level
            rows, cols = -(-height // edge), -(-width // edge)
            padded = np.zeros((rows * edge, cols * edge))
            padded[:height, :width] = valid
            expected = padded.reshape(rows, edge, cols, edge).sum(axis=(1, 3))
            assert np.array_equal(sums[pyramid.index[COUNT_CHANNEL]], expected), level

    @pytest.mark.parametrize("size", [(64, 48), (97, 53), (37, 23)], ids=["64x48", "97x53", "37x23"])
    @pytest.mark.parametrize("holes", [False, True], ids=["hole-free", "holes"])
    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_factored_pyramid_matches_the_maps_path(self, formulation, holes, size):
        # level 0's two sources agree on a pinhole camera: the axes' cell sums
        # and, with the axes hidden, the per-pixel monomials a lattice takes
        maps = _camera_maps(*size)
        bare = copy.copy(maps)
        object.__setattr__(bare, "axes", None)
        depth = _frame(maps, holes)
        lattices = _masked_lattices(depth, maps)
        for tile, max_depth in ((16, 2), (8, 0), (1 << 20, 3)):
            factored = build_node_pyramid(depth, maps, formulation, tile, max_depth)
            summed = build_node_pyramid(depth, bare, formulation, tile, max_depth)
            assert factored.index == summed.index
            for level, (a, b) in enumerate(zip(factored.levels, summed.levels)):
                if formulation in (IMPLICIT_STANDARD, EXPLICIT_STANDARD):
                    # no tan rows: both sources are the same per-pixel sums
                    assert np.array_equal(a, b), (tile, level)
                    continue
                starts = [np.arange(n) * (tile >> level) for n in a.shape[1:]]
                for name, i in factored.index.items():
                    magnitude = np.add.reduceat(np.abs(lattices[name]), starts[0], axis=0)
                    magnitude = np.add.reduceat(magnitude, starts[1], axis=1)
                    gap = np.abs(a[i] - b[i])
                    assert (gap <= 1e-14 * magnitude).all(), (name, tile, level, gap.max())
                count = factored.index[COUNT_CHANNEL]
                assert np.array_equal(a[count], b[count]), (tile, level)

    @_CAMERAS
    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_pyramid_makes_no_frame_sized_temporary(self, formulation, lattice):
        # level 0 is summed a band of cell rows at a time, so beyond its levels
        # the build holds less than one (H, W) float64 lattice
        height, width = 480, 640
        maps = _camera_maps(width, height, 525.0, lattice)
        rng = np.random.default_rng(12)
        depth = DepthImage(
            values=rng.uniform(0.5, 5.0, (height, width)),
            valid=rng.random((height, width)) >= 0.02,
        )
        tracemalloc.start()
        try:
            pyramid = build_node_pyramid(depth, maps, formulation, 64, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(level.nbytes for level in pyramid.levels) < height * width * 8

    def test_hole_free_pyramid_makes_no_hole_scan(self):
        # a hole-free frame lists no holes, so no (H, W) mask of them is made:
        # with 32-px cells the build holds, its levels included, less than one
        # byte a pixel (a hole mask alone is one byte a pixel)
        from rangefit import CameraIntrinsics, compute_tan_maps

        width, height = 1920, 1080
        maps = compute_tan_maps(CameraIntrinsics(
            fx=1000.0, fy=1000.0, cx=959.5, cy=539.5, width=width, height=height
        ))
        depth = DepthImage(values=np.random.default_rng(3).uniform(0.5, 5.0, (height, width)))
        assert depth.valid.all()
        tracemalloc.start()
        try:
            build_node_pyramid(depth, maps, EXPLICIT_RGBD, 32, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < height * width, peak

    @pytest.mark.parametrize(
        "size", [(97, 53, 60.0), (37, 23, 60.0), (1920, 1080, 1000.0)],
        ids=["97x53", "37x23", "1920x1080"],
    )
    @pytest.mark.parametrize("holes", [False, True], ids=["hole-free", "holes"])
    def test_levels_do_not_depend_on_the_band_budget(self, holes, size, monkeypatch):
        # each cell row is its own matmul, so bands of one cell row, of the
        # default budget and of the whole frame give the same bits; the sizes
        # end in a ragged band (1080 rows of 8-px cells, two a band), cell row
        # and cell column
        width, height, fx = size
        maps = _camera_maps(width, height, fx)
        depth = _frame(maps, holes)
        default = _BAND_BYTES
        for formulation in (IMPLICIT_RGBD, EXPLICIT_RGBD):
            for tile, max_depth in ((16, 2), (64, 3), (8, 0)):
                pyramids = []
                for band_bytes in (1, default, 1 << 40):
                    monkeypatch.setattr("rangefit.integral._BAND_BYTES", band_bytes)
                    pyramids.append(build_node_pyramid(depth, maps, formulation, tile, max_depth))
                for pyramid in pyramids[1:]:
                    for level, (a, b) in enumerate(zip(pyramid.levels, pyramids[0].levels)):
                        assert np.array_equal(a, b), (formulation, tile, level)

    def test_channel_powers_reproduce_the_monomials(self):
        # each channel's (tan_x, tan_y, depth) exponents, read from its
        # recipe, give back its per-pixel monomial
        maps = _camera_maps(64, 48, lattice=True)
        depth = _frame(maps, holes=False)
        for name, image in _reference_lattices(depth, maps).items():
            i, j, p = _POWERS[name]
            expected = maps.tan_x**i * maps.tan_y**j * depth.values**p
            np.testing.assert_allclose(image, expected, rtol=1e-14, atol=0, err_msg=name)

    def test_maps_must_match_the_frame(self, small_maps):
        depth = _frame(small_maps, holes=False)
        with pytest.raises(ValueError, match="does not match"):
            build_node_pyramid(depth, _camera_maps(32, 24), IMPLICIT_RGBD, 16, 2)

    @pytest.mark.parametrize(
        ("tile", "max_depth"),
        [(10, 3), (0, 3), (8, 5), (16, -1)],
        ids=["not-a-multiple", "zero", "under-2**max_depth", "negative-depth"],
    )
    def test_tile_must_be_a_positive_multiple_of_2_to_max_depth(self, small_maps, tile, max_depth):
        # these built 8-px roots for 10-px tiles, divided by zero or shifted
        # by a negative count
        depth = _frame(small_maps, holes=True)
        with pytest.raises(ValueError, match="positive multiple of 2\\*\\*max_depth"):
            build_node_pyramid(depth, small_maps, IMPLICIT_RGBD, tile, max_depth)


_numpy_empty = np.empty


def _nan_empty(shape, dtype=float, *args, **kwargs):
    """``np.empty`` whose float arrays start as NaN, so an unwritten slot shows."""
    out = _numpy_empty(shape, dtype, *args, **kwargs)
    if out.dtype.kind == "f":
        out.fill(np.nan)
    return out


class TestBandWriter:
    """No slot the band writer or a build leaves unwritten reaches a table or level."""

    @_CAMERAS
    @pytest.mark.parametrize("band_bytes", [1, 1 << 40], ids=["one-row-bands", "one-band"])
    @pytest.mark.parametrize("holes", [True, False], ids=["holes", "hole-free"])
    def test_uninitialised_buffers_reach_no_output(self, band_bytes, holes, lattice, monkeypatch):
        # ragged last band of cells and last cell column
        maps = _camera_maps(37, 23, lattice=lattice)
        depth = _frame(maps, holes)
        lattices = _reference_lattices(depth, maps)
        count = depth.valid.astype(float) if holes else None
        tile, max_depth = 16, 2
        pyramids = {
            formulation: build_node_pyramid(depth, maps, formulation, tile, max_depth)
            for formulation in FORMULATIONS
        }
        monkeypatch.setattr(np, "empty", _nan_empty)
        monkeypatch.setattr("rangefit.integral._BAND_BYTES", band_bytes)
        rows = _band_rows(len(CONSTANT_CHANNELS), maps.width)
        assert rows == 1 if band_bytes == 1 else rows >= maps.height
        constant = build_constant_channels(maps)
        stacks = []
        if lattice:
            stacks.append(constant)
            _assert_tables_match_reference(constant, lattices, None, None)
        else:
            assert not np.isnan(constant.rows).any() and not np.isnan(constant.cols).any()
            _assert_constant_sums_match_fsum(constant, maps)
        for formulation in FORMULATIONS:
            for include_residual in (True, False):
                stacks.append(build_channels(depth, maps, formulation, include_residual))
                _assert_tables_match_reference(stacks[-1], lattices, depth.valid, count)
        for stack in stacks:
            assert not np.isnan(stack.tensor).any()
        for formulation, want in pyramids.items():
            got = build_node_pyramid(depth, maps, formulation, tile, max_depth)
            for level, (sums, expected) in enumerate(zip(got.levels, want.levels)):
                assert not np.isnan(sums).any(), (formulation, level)
                assert np.array_equal(sums, expected), (formulation, level)
