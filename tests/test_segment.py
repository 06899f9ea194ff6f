"""Segmentation tests: leaf grouping, quadtree behavior, labeling accuracy."""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import rangefit.fitting
import rangefit.integral
from rangefit import (
    EXPLICIT_RGBD,
    EXPLICIT_STANDARD,
    FORMULATIONS,
    IMPLICIT_RGBD,
    IMPLICIT_STANDARD,
    CameraIntrinsics,
    DepthImage,
    ExplicitPlane,
    InsufficientSamplesError,
    GroundTruthPlane,
    NoiseModel,
    Rect,
    SegConfig,
    SyntheticScene,
    TileStatus,
    accumulate_scatter_naive,
    build_channels,
    build_constant_channels,
    compute_tan_maps,
    explicit_to_implicit,
    fit_explicit_rgbd,
    fit_implicit_standard,
    fit_rect,
    gather_window_samples,
    normal_angle,
    render_scene,
    segment,
    tile_features,
)
from rangefit.fitting import MIN_SAMPLES
from rangefit.integral import COUNT_CHANNEL
from rangefit.segment import (
    CLUSTER_PALETTE,
    D_SCALE,
    HIGH_ERROR_COLOR,
    JOIN,
    STATUSES,
    STEP,
    TOO_INVALID_COLOR,
    UNLABELED,
    group_leaves,
)

from conftest import corner_scene, random_visible_plane


def best_label_accuracy(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Pixel accuracy under the best one-to-one segment-to-truth matching."""
    mask = (predicted >= 0) & (truth != 255)
    p, t = predicted[mask].astype(np.int64), truth[mask].astype(np.int64)
    table = np.zeros((int(p.max(initial=0)) + 1, int(t.max(initial=0)) + 1))
    np.add.at(table, (p, t), 1.0)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return float(table[rows, cols].sum()) / max(int(mask.sum()), 1)


def _implicit(plane):
    """An explicit plane's implicit form; an implicit plane as it is."""
    return explicit_to_implicit(plane) if isinstance(plane, ExplicitPlane) else plane


def features_of(result) -> np.ndarray:
    """``tile_features`` of one fit's canonical implicit coefficients."""
    return tile_features(_implicit(result.plane).coefficients[None])[0]


class TestTileFeatures:
    def test_frontal_plane_feature(self, small_maps):
        depth, _ = render_scene(
            SyntheticScene((GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0])),)), small_maps
        )
        samples = gather_window_samples(depth, small_maps, Rect(0, 0, 64, 48), IMPLICIT_STANDARD)
        result = fit_implicit_standard(accumulate_scatter_naive(samples, IMPLICIT_STANDARD))
        np.testing.assert_allclose(features_of(result), [0.0, 0.0, -1.0, 0.4], atol=1e-9)

    def test_parallel_planes_share_normal_features(self, small_maps):
        features = []
        for z in (1.0, 3.0):
            depth, _ = render_scene(
                SyntheticScene((GroundTruthPlane(np.array([0.0, 0.0, 1.0, -z])),)), small_maps
            )
            samples = gather_window_samples(
                depth, small_maps, Rect(0, 0, 64, 48), IMPLICIT_STANDARD
            )
            result = fit_implicit_standard(accumulate_scatter_naive(samples, IMPLICIT_STANDARD))
            features.append(features_of(result))
        np.testing.assert_allclose(features[0][:3], features[1][:3], atol=1e-12)
        assert features[0][3] != pytest.approx(features[1][3])

    def test_cross_formulation_feature_identity(self, small_maps):
        rng = np.random.default_rng(5)
        plane = random_visible_plane(rng)
        depth, _ = render_scene(SyntheticScene((plane,)), small_maps)
        rect = Rect(0, 0, 64, 48)
        implicit = fit_implicit_standard(
            accumulate_scatter_naive(
                gather_window_samples(depth, small_maps, rect, IMPLICIT_STANDARD),
                IMPLICIT_STANDARD,
            )
        )
        explicit = fit_explicit_rgbd(
            accumulate_scatter_naive(
                gather_window_samples(depth, small_maps, rect, EXPLICIT_RGBD), EXPLICIT_RGBD
            )
        )
        np.testing.assert_allclose(features_of(implicit), features_of(explicit), atol=1e-8)


class TestGroupLeaves:
    @pytest.mark.parametrize("formulation", FORMULATIONS)
    @pytest.mark.parametrize("box_z", [1.5, 2.25, 2.5])
    def test_coplanar_patches_apart_get_different_ids(self, small_maps, formulation, box_z):
        # a nearer frontal box, two 8-px leaves across and spanning the image
        # height, cuts the wall in two; at 2.25 and 2.5 m its features lie
        # under JOIN from the wall's, and only the depth step parts them
        wall = GroundTruthPlane(np.array([0.0, 0.0, 1.0, -3.0]))
        box = GroundTruthPlane(np.array([0.0, 0.0, 1.0, -box_z]), mask_rect=(24, 0, 40, 48))
        depth, _ = render_scene(SyntheticScene((wall, box)), small_maps, noise=NoiseModel(), seed=3)
        result = segment(depth, small_maps, SegConfig(
            formulation=formulation, initial_tile=16, max_depth=2
        ))
        ids = [np.unique(result.labels[:, cols]) for cols in (slice(0, 24), slice(24, 40), slice(40, 64))]
        assert [len(i) for i in ids] == [1, 1, 1] and len(np.unique(ids)) == 3

    def test_radius_stops_a_chain_of_blended_leaves(self):
        # leaf j owns column j: wall 0-3, one blended leaf 4, box 5-7, all
        # 3 m away along the optical axis (every cell's ray), so all touch;
        # each step is under JOIN, but the box lies 1.6 JOIN from the wall
        cells = np.tile(np.arange(8), (3, 1))
        tilt = np.array([0, 0, 0, 0, 0.2, 0.4, 0.4, 0.4])
        features = np.column_stack(
            (np.sin(tilt), np.zeros(8), -np.cos(tilt), 3 * np.cos(tilt) / D_SCALE)
        )
        weights = np.array([256, 256, 256, 256, 64, 200, 200, 200])
        ids = group_leaves(cells, np.arange(8), features, weights, _axis_rays(cells))
        np.testing.assert_array_equal(ids, [0, 0, 0, 0, 0, 1, 1, 1])

    def test_depth_step_parts_parallel_planes(self):
        # the same wall at 3 m and a frontal box 0.75 m before it: features
        # 0.15 apart, under JOIN, but the depth steps by 25% at their edge
        cells = np.tile(np.arange(8), (3, 1))
        depth = np.array([3, 3, 3, 3, 2.25, 2.25, 2.25, 3])
        features = np.column_stack((np.zeros((8, 2)), -np.ones(8), depth / D_SCALE))
        assert np.linalg.norm(features[0] - features[4]) < JOIN and 0.75 / 3 > STEP
        ids = group_leaves(cells, np.arange(8), features, np.full(8, 64), _axis_rays(cells))
        np.testing.assert_array_equal(ids, [0, 0, 0, 0, 1, 1, 1, 2])

    def test_edge_on_leaf_joins_a_neighbour(self):
        # wall 0-2 and 6-7 at 3 m, box 4-5 at 2 m; leaf 3 fits the plane
        # x = 0.1 m across the step, edge-on to the axis, and touches neither
        cells = np.tile(np.arange(8), (3, 1))
        features = np.tile([0.0, 0.0, -1.0, 3 / D_SCALE], (8, 1))
        features[4:6, 3] = 2 / D_SCALE
        features[3] = [1.0, 0.0, 0.0, 0.1 / D_SCALE]
        ids = group_leaves(cells, np.arange(8), features, np.full(8, 64), _axis_rays(cells))
        np.testing.assert_array_equal(ids, [0, 0, 0, 1, 1, 1, 2, 2])

    def test_single_plane_gives_one_id(self):
        cells = np.array([[0, 0, 1, 2], [3, 3, 1, -1], [4, 5, 6, 6]])
        fitted = np.array([0, 1, 3, 4, 5, 6])  # leaf 2 is not fitted
        features = np.tile([0.0, 0.6, -0.8, 0.4], (6, 1))
        rays = np.stack(np.meshgrid(np.linspace(-0.5, 0.5, 4), np.linspace(-0.4, 0.4, 3)), -1)
        ids = group_leaves(cells, fitted, features, np.full(6, 16), rays)
        np.testing.assert_array_equal(ids, np.zeros(6))

    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_corner_seams_join_their_planes(self, small_maps, formulation):
        depth, _ = render_scene(corner_scene(), small_maps, noise=NoiseModel(), seed=7)
        result = segment(depth, small_maps, SegConfig(
            formulation=formulation, initial_tile=16, max_depth=3
        ))
        fitted = result.cluster[result.cluster != UNLABELED]
        assert set(fitted.tolist()) == {0, 1, 2}

    def test_equal_frames_give_equal_ids(self):
        maps = _maps(160, 120, 150.0)
        depth, _ = render_scene(
            box_scene(maps, 5, 2), maps, noise=NoiseModel(), seed=2, dropout=0.02
        )
        config = SegConfig(initial_tile=16, max_depth=2)
        first, again = segment(depth, maps, config), segment(depth, maps, config)
        np.testing.assert_array_equal(first.cluster, again.cluster)
        np.testing.assert_array_equal(first.labels, again.labels)
        # ids are numbered in the order of each segment's lowest leaf
        fitted = first.cluster[first.cluster != UNLABELED]
        _, lowest = np.unique(fitted, return_index=True)
        assert (np.diff(lowest) > 0).all() and fitted.max() >= 5


# Worst accuracy allowed over the 15 box scenes.  Under implicit-rgbd at
# fx 150, 4- and 8-px leaves straddling a box edge fit with rms under the
# default threshold: those seen edge-on join a neighbouring segment, the side
# they join is not always their majority, and a few noisy 4-px wall leaves
# between two boxes keep segments of their own.  Its worst scene gives 0.890,
# against 0.924 for a labelling of each fitted leaf by its majority plane.
_BOX_SCENE_FLOOR = {
    IMPLICIT_STANDARD: 0.9, IMPLICIT_RGBD: 0.88, EXPLICIT_STANDARD: 0.9, EXPLICIT_RGBD: 0.9,
}


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_two_to_six_planes_without_a_count(formulation):
    maps = _maps(160, 120, 150.0)
    config = SegConfig(formulation=formulation, initial_tile=16, max_depth=2)
    accuracies = []
    for boxes in range(1, 6):
        for seed in range(3):
            depth, truth = render_scene(
                box_scene(maps, boxes, seed), maps, noise=NoiseModel(), seed=seed, dropout=0.02
            )
            accuracies.append(best_label_accuracy(segment(depth, maps, config).labels, truth))
    assert min(accuracies) >= _BOX_SCENE_FLOOR[formulation]


def box_scene(maps, boxes: int, seed: int) -> SyntheticScene:
    """A wall at 3 m and ``boxes`` tilted box faces at 1.4-2.2 m.

    Each face is a 36x40 px rect at a random offset inside its own cell of a
    3x2 grid, as framebench's clutter scene places its faces, tilted 0-40
    degrees; a face near the frontal lies under ``JOIN`` from the wall in
    features, and only the depth step parts them.
    """
    rng = np.random.default_rng([boxes, seed])
    cell_w, cell_h = maps.width // 3, maps.height // 2
    planes = [GroundTruthPlane(np.array([0.0, 0.0, 1.0, -3.0]))]
    for i in range(boxes):
        x0 = (i % 3) * cell_w + int(rng.integers(0, cell_w - 36 + 1))
        y0 = (i // 3) * cell_h + int(rng.integers(0, cell_h - 40 + 1))
        tilt, turn = np.deg2rad(rng.uniform(0.0, 40.0)), rng.uniform(0.0, 2 * np.pi)
        normal = np.array([np.sin(tilt) * np.cos(turn), np.sin(tilt) * np.sin(turn), np.cos(tilt)])
        centre = rng.uniform(1.4, 2.2) * np.array([
            maps.tan_x[y0 + 20, x0 + 18], maps.tan_y[y0 + 20, x0 + 18], 1.0
        ])
        planes.append(GroundTruthPlane(
            np.array([*normal, -normal @ centre]), mask_rect=(x0, y0, x0 + 36, y0 + 40)
        ))
    return SyntheticScene(tuple(planes))


def reference_leaves(depth, maps, config: SegConfig, constant) -> list[tuple]:
    """Leaves of the quadtree walked one tile at a time, as segment once did.

    A stack of pending tiles, each counted by ``np.count_nonzero`` and fitted
    by a one-window ``fit_rect``; returns (rect, level, status, result) in
    the walk's order.  A tile's quarters are cut where a full tile's would
    be and clipped to the image; empty quarters are dropped, and a tile
    with fewer than two quarters left does not split.
    """
    stack = build_channels(depth, maps, config.formulation)
    tile = config.initial_tile

    def clip(x0, y0, size):
        return Rect(x0, y0, min(x0 + size, depth.width), min(y0 + size, depth.height))

    pending = [
        (clip(x0, y0, tile), 0)
        for y0 in range(0, depth.height, tile)
        for x0 in range(0, depth.width, tile)
    ]
    leaves = []
    while pending:
        rect, level = pending.pop()
        n_valid = int(np.count_nonzero(depth.valid[rect.y0 : rect.y1, rect.x0 : rect.x1]))
        if n_valid < config.min_valid_fraction * rect.area or n_valid == 0:
            leaves.append((rect, level, TileStatus.TOO_INVALID, None))
            continue
        try:
            result = fit_rect(
                depth, maps, rect, config.formulation, "integral", stack=stack
            )
        except InsufficientSamplesError:
            leaves.append((rect, level, TileStatus.TOO_INVALID, None))
            continue
        half = tile >> (level + 1)
        quarters = [
            clip(x0, y0, half)
            for y0 in (rect.y0, rect.y0 + half)
            for x0 in (rect.x0, rect.x0 + half)
            if x0 < depth.width and y0 < depth.height
        ]
        rms = np.inf if result.rms_residual is None else result.rms_residual
        if not result.degenerate and rms <= config.threshold:
            leaves.append((rect, level, TileStatus.FITTED, result))
        elif level < config.max_depth and len(quarters) > 1:
            pending.extend((quarter, level + 1) for quarter in quarters)
        else:
            leaves.append((rect, level, TileStatus.HIGH_ERROR, result))
    return leaves


class TestSegment:
    @pytest.mark.parametrize("size", [(64, 48), (97, 53)], ids=["64x48", "97x53"])
    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_leaves_match_one_window_refits(self, small_maps, formulation, size, monkeypatch):
        maps = small_maps if size == (64, 48) else _maps(*size)
        depth, _ = render_scene(corner_scene(), maps, noise=NoiseModel(), seed=12, dropout=0.1)
        constant = build_constant_channels(maps)
        config = SegConfig(
            formulation=formulation, initial_tile=16, max_depth=3,
            rms_threshold=SegConfig(formulation=formulation).threshold / 8,
            min_valid_fraction=0.9,
        )
        batch_calls = []
        original = rangefit.fitting.fit_sums

        def counting(*args, **kwargs):
            batch_calls.append(len(args[0]["n"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(rangefit.fitting, "fit_sums", counting)
        leaves = segment(depth, maps, config)
        order = np.lexsort((leaves.rects[:, 0], leaves.rects[:, 1], leaves.level))
        expected = sorted(
            reference_leaves(depth, maps, config, constant),
            key=lambda leaf: (leaf[1], leaf[0].y0, leaf[0].x0),
        )

        assert len(order) == len(expected)
        for i, (rect, level, status, result) in zip(order.tolist(), expected):
            fit = leaves.fits[i]
            got = Rect(*leaves.rects[i].tolist()), leaves.level[i], STATUSES[leaves.status[i]]
            assert got == (rect, level, status)
            if result is None:
                assert fit is None
                continue
            # Node sums carry no summed-area cancellation, so the naive oracle
            # is the exact side: on the 64x48 frame the largest coefficient
            # gap to it is 1.8e-10 (explicit-rgbd), against 5.1e-10 for the
            # summed-area refits of the same rects.
            naive = fit_rect(depth, maps, rect, formulation, "naive")
            np.testing.assert_allclose(
                fit.plane.coefficients, naive.plane.coefficients, rtol=0, atol=1e-9
            )
            assert fit.degenerate == result.degenerate
            assert fit.n_points == result.n_points
        statuses = {STATUSES[status] for status in leaves.status.tolist()}
        assert statuses == set(TileStatus)
        # one batched fit per quadtree level
        assert len(batch_calls) == leaves.level.max() + 1 == 4

    def test_single_plane_all_tiles_fit_at_level_zero(self, small_maps):
        depth, _ = render_scene(
            SyntheticScene((GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0])),)), small_maps
        )
        config = SegConfig(
            formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=2
        )
        result = segment(depth, small_maps, config)
        assert result.n_fitted == len(result.rects) == (64 // 16) * (48 // 16)
        assert (result.level == 0).all()
        assert (result.cluster == 0).all()

    def test_leaf_tiles_cover_image_exactly(self, small_maps):
        rng = np.random.default_rng(6)
        scene = corner_scene()
        depth, _ = render_scene(scene, small_maps, noise=NoiseModel(), seed=3)
        config = SegConfig(
            formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=3
        )
        result = segment(depth, small_maps, config)
        coverage = np.zeros((48, 64), dtype=np.int32)
        for x0, y0, x1, y1 in result.rects.tolist():
            coverage[y0:y1, x0:x1] += 1
        assert (coverage == 1).all()

    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_stats_count_every_node_once(self, small_maps, formulation):
        depth, _ = render_scene(corner_scene(), small_maps, noise=NoiseModel(), seed=3, dropout=0.3)
        config = SegConfig(
            formulation=formulation, initial_tile=16, max_depth=2,
            rms_threshold=SegConfig(formulation=formulation).threshold / 8,
        )
        result = segment(depth, small_maps, config)
        stats = result.stats()
        assert stats["leaves"] == len(result.rects)
        levels = stats["levels"]
        assert [level["level"] for level in levels] == list(range(len(levels)))
        assert [level["tile"] for level in levels] == [16 >> i for i in range(len(levels))]
        nodes = [
            level["fitted"] + level["split"] + level["too_invalid"] + level["high_error"]
            for level in levels
        ]
        # 4x3 roots; no tile is ragged, so every split node has four children
        assert nodes == [12] + [4 * level["split"] for level in levels[:-1]]
        assert levels[-1]["split"] == 0
        for name, status in (("fitted", TileStatus.FITTED), ("too_invalid", TileStatus.TOO_INVALID),
                             ("high_error", TileStatus.HIGH_ERROR)):
            per_level = [level[name] for level in levels]
            assert per_level == [
                np.count_nonzero((result.status == STATUSES.index(status)) & (result.level == i))
                for i in range(len(levels))
            ]
        assert sum(level["degenerate"] for level in levels) == np.count_nonzero(
            result.fits.fitted & result.fits.degenerate
        )
        assert (result.n_fitted, result.n_too_invalid, result.n_high_error) == tuple(
            sum(level[name] for level in levels) for name in ("fitted", "too_invalid", "high_error")
        )
        assert sum(nodes[1:]) > 0 and sum(level["too_invalid"] for level in levels) > 0

    def test_fully_invalid_quadrant_rejected(self, small_maps):
        planes = (
            GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0]), mask_rect=(0, 0, 64, 24)),
            GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.5]), mask_rect=(0, 24, 32, 48)),
        )
        depth, _ = render_scene(SyntheticScene(planes), small_maps)
        config = SegConfig(formulation=IMPLICIT_STANDARD, initial_tile=16)
        result = segment(depth, small_maps, config)
        rejected = result.status == STATUSES.index(TileStatus.TOO_INVALID)
        # tiles fully inside the empty region (y boundary 24 halves the y0=16
        # row, leaving those tiles exactly at the 50% validity gate)
        assert np.count_nonzero(rejected) == 2
        assert (result.rects[rejected, :2] >= 32).all()
        assert (result.cluster[rejected] == -1).all()
        assert (result.labels[32:, 32:] == -1).all()

    def test_corner_scene_accuracy(self, small_maps):
        scene = corner_scene()
        depth, truth = render_scene(scene, small_maps, noise=NoiseModel(), seed=7)
        config = SegConfig(formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=3)
        result = segment(depth, small_maps, config)
        accuracy = best_label_accuracy(result.labels, truth)
        assert accuracy >= 0.95

    def test_draws_no_random_numbers(self, small_maps, monkeypatch):
        depth, truth = render_scene(
            corner_scene(), small_maps, noise=NoiseModel(), seed=13, dropout=0.1
        )

        def no_rng(*args, **kwargs):
            raise AssertionError("segment drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        config = SegConfig(formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=3)
        result = segment(depth, small_maps, config)
        assert best_label_accuracy(result.labels, truth) >= 0.95

    def test_threshold_monotonicity(self, small_maps):
        scene = corner_scene()
        depth, _ = render_scene(scene, small_maps, noise=NoiseModel(), seed=8)
        leaf_counts = []
        for threshold in (3e-2, 8e-3, 2e-3, 5e-4):
            config = SegConfig(
                formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=3,
                rms_threshold=threshold,
            )
            leaf_counts.append(len(segment(depth, small_maps, config).rects))
        assert leaf_counts == sorted(leaf_counts)

    def test_max_metric_available(self, small_maps):
        scene = corner_scene()
        depth, _ = render_scene(scene, small_maps, noise=NoiseModel(), seed=10)
        config = SegConfig(
            formulation=EXPLICIT_STANDARD, initial_tile=16, max_depth=2,
            rms_threshold=0.08, error_metric="max",
        )
        result = segment(depth, small_maps, config)
        assert result.n_fitted > 0

    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_max_metric_gates_on_the_max_residual(self, small_maps, formulation):
        # the quadtree's max |residual| of each formulation's own objective,
        # recomputed here pixel by pixel (rel: rounding-order slack only)
        residual = {
            IMPLICIT_STANDARD: lambda c, tx, ty, z: c[0] * z * tx + c[1] * z * ty + c[2] * z + c[3],
            IMPLICIT_RGBD: lambda c, tx, ty, z: c[0] * tx + c[1] * ty + c[2] + c[3] / z,
            EXPLICIT_STANDARD: lambda c, tx, ty, z: c[0] * z * tx + c[1] * z * ty + c[2] - z,
            EXPLICIT_RGBD: lambda c, tx, ty, z: c[0] * tx + c[1] * ty + c[2] - 1.0 / z,
        }[formulation]
        rel = 1e-9
        depth, _ = render_scene(
            corner_scene(), small_maps, noise=NoiseModel(), seed=10, dropout=0.05
        )
        config = SegConfig(
            formulation=formulation, initial_tile=16, max_depth=2, error_metric="max"
        )
        result = segment(depth, small_maps, config)
        assert result.n_fitted > 0 and result.n_high_error > 0
        for rect, status, fit in zip(result.rects.tolist(), result.status.tolist(), result.fits):
            if fit is None:
                continue
            x0, y0, x1, y1 = rect
            sl = (slice(y0, y1), slice(x0, x1))
            valid = depth.valid[sl]
            worst = np.abs(residual(
                fit.plane.coefficients, small_maps.tan_x[sl][valid],
                small_maps.tan_y[sl][valid], depth.values[sl][valid],
            )).max()
            if STATUSES[status] is TileStatus.FITTED:
                assert worst <= config.threshold * (1 + rel), rect
            else:
                assert fit.degenerate or worst > config.threshold * (1 - rel), rect

    def test_color_output_and_csv(self, small_maps):
        scene = corner_scene()
        depth, _ = render_scene(scene, small_maps, noise=NoiseModel(), seed=11)
        config = SegConfig(formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=3)
        result = segment(depth, small_maps, config)
        rgb = result.to_color()
        assert rgb.shape == (48, 64, 3) and rgb.dtype == np.uint8
        used = {tuple(c) for c in rgb.reshape(-1, 3)}
        palette_hits = used & {CLUSTER_PALETTE[i] for i in range(3)}
        assert len(palette_hits) >= 3
        csv = result.to_csv()
        header, *rows = csv.strip().split("\n")
        assert header == "x0,y0,x1,y1,status,a,b,c,d,rms,cluster"
        assert len(rows) == len(result.rects)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="subdivisions"):
            SegConfig(initial_tile=8, max_depth=3)
        # off the lattice: 50 px would split into 12- and 13-px tiles
        with pytest.raises(ValueError, match=r"initial_tile 50 .*max_depth 2"):
            SegConfig(initial_tile=50, max_depth=2)
        with pytest.raises(ValueError, match="formulation"):
            SegConfig(formulation="nope")
        with pytest.raises(ValueError, match="threshold"):
            SegConfig(rms_threshold=-1.0)
        with pytest.raises(ValueError, match="threshold"):
            SegConfig(rms_threshold=float("nan"))
        with pytest.raises(TypeError):
            SegConfig(k=3)
        with pytest.raises(TypeError):
            SegConfig(backend="naive")

    def test_image_smaller_than_min_tile_rejected(self, small_maps):
        with pytest.raises(ValueError, match="smaller"):
            segment(
                DepthImage(values=np.ones((1, 10))),
                small_maps,
                SegConfig(),
            )


def _axis_rays(cells: np.ndarray) -> np.ndarray:
    """(tan_x, tan_y) of every cell: all look along the optical axis."""
    return np.zeros((*cells.shape, 2))


def _maps(width: int, height: int, focal: float = 60.0, lattice: bool = False):
    """Tan maps of a pinhole camera or, with ``lattice``, of one with random
    distortion offsets in [-0.25, 0.25) px, whose maps do not factor into axes."""
    offsets = dict(zip(
        ("delta_x", "delta_y"), np.random.default_rng(3).uniform(-0.25, 0.25, (2, height, width))
    )) if lattice else {}
    maps = compute_tan_maps(CameraIntrinsics(
        fx=focal, fy=focal, cx=(width - 1) / 2, cy=(height - 1) / 2, width=width, height=height,
        **offsets,
    ))
    assert (maps.axes is None) == lattice
    return maps


def reference_paint(result) -> tuple[np.ndarray, np.ndarray]:
    """Labels and colour image painted tile by tile at full resolution."""
    labels = np.full(result.labels.shape, UNLABELED, dtype=np.int16)
    rgb = np.zeros((*result.labels.shape, 3), dtype=np.uint8)
    for (x0, y0, x1, y1), status, cluster in zip(
        result.rects.tolist(), result.status.tolist(), result.cluster.tolist()
    ):
        if STATUSES[status] is TileStatus.FITTED:
            labels[y0:y1, x0:x1] = cluster
            color = CLUSTER_PALETTE[cluster % len(CLUSTER_PALETTE)]
        elif STATUSES[status] is TileStatus.TOO_INVALID:
            color = TOO_INVALID_COLOR
        else:
            color = HIGH_ERROR_COLOR
        rgb[y0:y1, x0:x1] = color
    return labels, rgb


class TestNodePyramidSegment:
    """The quadtree on the node lattice: ragged frames, the constant stack, painting."""

    @pytest.mark.parametrize("dropout", [0.0, 0.1], ids=["hole-free", "holes"])
    @pytest.mark.parametrize("size", [(100, 70), (97, 53)], ids=["100x70", "97x53"])
    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_ragged_frames_tile_on_the_lattice(self, formulation, size, dropout):
        width, height = size
        maps = _maps(width, height)
        depth, _ = render_scene(corner_scene(), maps, noise=NoiseModel(), seed=4, dropout=dropout)
        threshold = SegConfig(formulation=formulation).threshold / 8
        result = segment(depth, maps, SegConfig(
            formulation=formulation, initial_tile=16, max_depth=2, rms_threshold=threshold,
        ))
        rects = [Rect(*r) for r in result.rects.tolist()]
        coverage = np.zeros((height, width), dtype=np.int32)
        for r, level in zip(rects, result.level.tolist()):
            coverage[r.y0 : r.y1, r.x0 : r.x1] += 1
            # every edge on the 4-px lattice or on the image border
            assert r.x0 % 4 == 0 and r.y0 % 4 == 0, r
            assert r.x1 % 4 == 0 or r.x1 == width, r
            assert r.y1 % 4 == 0 or r.y1 == height, r
            assert max(r.x1 - r.x0, r.y1 - r.y0) <= 16 >> level, (r, level)
        assert (coverage == 1).all()
        # ragged edge tiles were split, so the rule above was exercised
        x1, y1 = result.rects[:, 2], result.rects[:, 3]
        assert ((result.level > 0) & ((x1 == width) | (y1 == height))).any()
        if dropout == 0.0:
            # min_valid_fraction is taken over the clipped area
            assert result.n_too_invalid == 0
        # A 1-px sliver's samples lie on one image column or row; their
        # viewing plane, through the camera centre, fits them exactly.
        slivers = [
            (r, fit, STATUSES[status])
            for r, fit, status in zip(rects, result.fits, result.status.tolist())
            if fit is not None and 1 in (r.x1 - r.x0, r.y1 - r.y0)
        ]
        assert bool(slivers) == (width == 97)
        for r, fit, status in slivers:
            assert fit.degenerate and status is TileStatus.HIGH_ERROR, r
        # every fitted leaf, ragged ones included, is its window's naive refit
        for r, fit in zip(rects, result.fits):
            if fit is not None:
                naive = fit_rect(depth, maps, r, formulation, "naive")
                assert naive.degenerate == fit.degenerate, r
                # 1e-6: a ragged 4x1 sliver holding 3 collinear samples is
                # ill-conditioned; its two fits differ by 7e-7 (97x53, holes)
                np.testing.assert_allclose(
                    naive.plane.coefficients, fit.plane.coefficients, rtol=0, atol=1e-6
                )

    @pytest.mark.parametrize("dropout", [0.0, 0.1], ids=["hole-free", "holes"])
    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_every_node_fit_is_its_window_refit(self, formulation, dropout):
        # Split decisions rest on interior nodes' fits, which no leaf shows:
        # fit every node of every level from its sums, as the segmenter
        # does, and refit its window from the pixels.
        width, height, tile, max_depth = 97, 53, 16, 2
        maps = _maps(width, height)
        depth, _ = render_scene(corner_scene(), maps, noise=NoiseModel(), seed=4, dropout=dropout)
        pyramid = rangefit.integral.build_node_pyramid(depth, maps, formulation, tile, max_depth)
        checked = []  # per level: the windows refitted
        for level, sums in enumerate(pyramid.levels):
            size = tile >> level
            rows, cols = (a.ravel() for a in np.indices(sums.shape[1:]))
            n = sums[pyramid.index[COUNT_CHANNEL], rows, cols]
            # the segmenter's own density gate: half the clipped area
            rects = [
                Rect(q * size, r * size, min((q + 1) * size, width), min((r + 1) * size, height))
                for r, q in zip(rows, cols)
            ]
            dense = np.flatnonzero(
                (n >= 0.5 * np.array([r.area for r in rects])) & (n >= MIN_SAMPLES[formulation])
            )
            batch = rangefit.fitting.fit_sums(pyramid.sums(level, rows[dense], cols[dense]), formulation)
            checked.append([rects[i] for i in dense])
            for i, fit in zip(dense, batch):
                naive = fit_rect(depth, maps, rects[i], formulation, "naive")
                assert fit.n_points == naive.n_points, rects[i]
                assert fit.degenerate == naive.degenerate, rects[i]
                # 1e-6 as above: 1-px slivers hold a few collinear samples
                np.testing.assert_allclose(
                    fit.plane.coefficients, naive.plane.coefficients, rtol=0, atol=1e-6,
                    err_msg=str(rects[i]),
                )
        # every level was refitted, its ragged edge nodes included
        assert len(checked) == max_depth + 1
        assert all(any(r.x1 == width for r in rects) for rects in checked)

    @pytest.mark.parametrize("dropout", [0.0, 0.1], ids=["hole-free", "holes"])
    @pytest.mark.parametrize("formulation", [IMPLICIT_RGBD, EXPLICIT_RGBD])
    def test_segment_builds_no_constant_stack(self, small_maps, formulation, dropout, monkeypatch):
        depth, _ = render_scene(
            corner_scene(), small_maps, noise=NoiseModel(), seed=5, dropout=dropout
        )
        config = SegConfig(formulation=formulation, initial_tile=16, max_depth=3)
        given = segment(depth, small_maps, config, constant=build_constant_channels(small_maps))
        calls = []
        original = rangefit.integral.build_constant_channels

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(rangefit.integral, "build_constant_channels", counting)
        # rangefit.segment names the function; the module is fetched by name
        segment_module = importlib.import_module("rangefit.segment")
        monkeypatch.setattr(segment_module, "build_constant_channels", counting, raising=False)
        alone = segment(depth, small_maps, config)
        assert calls == []
        for name in ("rects", "level", "status"):
            assert np.array_equal(getattr(alone, name), getattr(given, name)), name
        np.testing.assert_array_equal(alone.labels, given.labels)

    @pytest.mark.parametrize("formulation", [IMPLICIT_RGBD, EXPLICIT_RGBD])
    def test_lattice_leaves_are_exact(self, formulation):
        # under a distortion lattice the tan rows are summed from the maps;
        # differencing the constant stack's tables lost digits, 4.8e-10 rad
        # on this frame
        maps = _maps(1920, 1080, 1728.0, lattice=True)
        depth, _ = render_scene(corner_scene(), maps, noise=NoiseModel(), seed=4, dropout=0.02)
        config = SegConfig(formulation=formulation, initial_tile=64, max_depth=3)
        result = segment(depth, maps, config)
        checked = 0
        for rect, fit in zip((Rect(*r) for r in result.rects.tolist()), result.fits):
            if fit is None or fit.degenerate:
                continue
            naive = fit_rect(depth, maps, rect, formulation, "naive")
            gap = normal_angle(_implicit(fit.plane), _implicit(naive.plane))
            assert gap <= 1e-10, (rect, gap)
            checked += 1
        assert checked > 400

    @pytest.mark.parametrize("lattice", [False, True], ids=["pinhole", "lattice"])
    @pytest.mark.parametrize("size", [(64, 48), (97, 53)], ids=["64x48", "97x53"])
    @pytest.mark.parametrize("dropout", [0.0, 0.1], ids=["hole-free", "holes"])
    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_constant_is_unread(self, formulation, dropout, size, lattice):
        # whole tiles and a ragged last row and column of tiles
        maps = _maps(*size, lattice=lattice)
        depth, _ = render_scene(corner_scene(), maps, noise=NoiseModel(), seed=4, dropout=dropout)
        config = SegConfig(formulation=formulation, initial_tile=16, max_depth=2)
        alone = segment(depth, maps, config)
        given = segment(depth, maps, config, constant=build_constant_channels(maps))
        assert alone.to_csv() == given.to_csv()
        assert alone.labels.tobytes() == given.labels.tobytes()
        for name in ("coefficients", "rms", "eigenvalue", "n_points", "degenerate"):
            a, b = getattr(alone.fits, name), getattr(given.fits, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_labels_widen_past_int16(self):
        # 2x2 leaves of uniform noise, all fitted, nearly all their own segment
        maps = _maps(400, 400, 300.0)
        depth = DepthImage(values=np.random.default_rng(0).uniform(1.0, 3.0, (400, 400)))
        result = segment(depth, maps, SegConfig(initial_tile=2, max_depth=0, rms_threshold=1e9))
        assert result.cluster.max() >= 2**15
        x0, y0 = result.rects[:, 0], result.rects[:, 1]
        np.testing.assert_array_equal(result.labels[y0, x0], result.cluster)

    def test_labels_are_painted_on_first_read(self):
        maps = _maps(97, 53)
        depth, _ = render_scene(corner_scene(), maps, noise=NoiseModel(), seed=4, dropout=0.1)
        result = segment(depth, maps, SegConfig(initial_tile=16, max_depth=2))
        result.to_color()
        result.stats()
        assert "labels" not in result.__dict__
        assert result.shape == (53, 97)
        cell = result.config.cell
        lattice = np.append(result.cluster, -1)[result.cells]
        expected = np.repeat(np.repeat(lattice, cell, axis=0), cell, axis=1)[:53, :97]
        assert result.labels.dtype == np.int16
        np.testing.assert_array_equal(result.labels, expected)
        assert result.__dict__["labels"] is result.labels

    @pytest.mark.parametrize("size", [(64, 48), (97, 53)], ids=["64x48", "97x53"])
    def test_painting_matches_per_tile_reference(self, size):
        width, height = size
        maps = _maps(width, height)
        planes = corner_scene().planes + (
            GroundTruthPlane(np.array([0.0, 0.0, 1.0, -1.0]), mask_rect=(0, 0, 24, 20)),
        )
        depth, _ = render_scene(
            SyntheticScene(planes), maps, noise=NoiseModel(), seed=6, dropout=0.1
        )
        valid = depth.valid.copy()
        valid[height // 2 :, : width // 3] = False  # a rejected region
        depth = DepthImage(values=depth.values, valid=valid)
        result = segment(depth, maps, SegConfig(
            formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=2,
            rms_threshold=SegConfig().threshold / 8,
        ))
        assert {STATUSES[status] for status in result.status.tolist()} == set(TileStatus)
        labels, rgb = reference_paint(result)
        assert result.labels.dtype == labels.dtype and result.labels.tobytes() == labels.tobytes()
        color = result.to_color()
        assert color.dtype == rgb.dtype and color.shape == rgb.shape
        assert color.tobytes() == rgb.tobytes()
