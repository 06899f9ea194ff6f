"""Segmentation tests: k-means, quadtree behavior, labeling accuracy."""

from __future__ import annotations

import importlib
import itertools

import numpy as np
import pytest

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
    kmeans,
    render_scene,
    segment,
    tile_features,
)
from rangefit.segment import (
    CLUSTER_PALETTE,
    HIGH_ERROR_COLOR,
    TOO_INVALID_COLOR,
    UNLABELED,
)

from conftest import random_visible_plane


def kmeans_objective(features: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    return float(np.sum((features - centroids[labels]) ** 2))


def best_label_accuracy(predicted: np.ndarray, truth: np.ndarray, k: int) -> float:
    """Pixel accuracy under the best one-to-one cluster-to-truth matching."""
    mask = (predicted >= 0) & (truth != 255)
    total = int(mask.sum())
    truth_ids = sorted(int(t) for t in np.unique(truth[truth != 255]))
    best = 0
    for perm in itertools.permutations(range(k), len(truth_ids)):
        hits = 0
        for cluster, t in zip(perm, truth_ids):
            hits += int(np.count_nonzero(mask & (predicted == cluster) & (truth == t)))
        best = max(best, hits)
    return best / max(total, 1)


def features_of(result) -> np.ndarray:
    """``tile_features`` of one fit's canonical implicit coefficients."""
    plane = result.plane
    if isinstance(plane, ExplicitPlane):
        plane = explicit_to_implicit(plane)
    return tile_features(plane.coefficients[None])[0]


class TestKmeans:
    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((30, 4))
        labels, centroids = kmeans(features, np.ones(30), 1)
        assert (labels == 0).all()
        np.testing.assert_allclose(centroids[0], features.mean(axis=0), rtol=1e-12)

    def test_k_equals_n(self):
        rng = np.random.default_rng(1)
        features = rng.standard_normal((6, 3)) * 10
        labels, centroids = kmeans(features, np.ones(6), 6)
        assert sorted(labels) == list(range(6))
        assert kmeans_objective(features, labels, centroids) == pytest.approx(0.0, abs=1e-20)

    def test_separated_blobs_recovered_exactly(self):
        rng = np.random.default_rng(2)
        blob_a = rng.standard_normal((20, 2)) * 0.05 + np.array([0.0, 0.0])
        blob_b = rng.standard_normal((25, 2)) * 0.05 + np.array([10.0, 0.0])
        features = np.vstack((blob_a, blob_b))
        labels, centroids = kmeans(features, np.ones(45), 2)
        # brute-force oracle: best of the two possible blob assignments
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[-1]
        got = kmeans_objective(features, labels, centroids)
        for assignment in ([0] * 20 + [1] * 25, [1] * 20 + [0] * 25):
            assignment = np.asarray(assignment)
            cents = np.stack([features[assignment == j].mean(axis=0) for j in (0, 1)])
            assert got <= kmeans_objective(features, assignment, cents) + 1e-12

    def test_objective_non_increasing_with_iterations(self):
        rng = np.random.default_rng(3)
        features = rng.standard_normal((60, 4))
        previous = np.inf
        for iters in range(1, 8):
            labels, centroids = kmeans(features, np.ones(60), 5, max_iter=iters)
            objective = kmeans_objective(features, labels, centroids)
            assert objective <= previous + 1e-12
            previous = objective

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(4)
        features = rng.standard_normal((40, 4))
        la, ca = kmeans(features, np.ones(40), 4)
        lb, cb = kmeans(features, np.ones(40), 4)
        np.testing.assert_array_equal(la, lb)
        np.testing.assert_array_equal(ca, cb)

    def test_k_clamped_to_n(self):
        features = np.array([[0.0, 0.0], [1.0, 1.0]])
        labels, centroids = kmeans(features, np.ones(2), 5)
        assert centroids.shape[0] == 2
        assert set(labels) == {0, 1}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 3)), np.ones(0), 2)

    def test_seeds_are_heaviest_then_weighted_farthest(self):
        rng = np.random.default_rng(6)
        features = rng.standard_normal((25, 3))
        weights = rng.uniform(1.0, 2.0, 25)
        weights[17] = 5.0
        _, centroids = kmeans(features, weights, 3, max_iter=0)
        np.testing.assert_array_equal(centroids[0], features[17])
        farthest = np.argmax(weights * np.sum((features - features[17]) ** 2, axis=1))
        np.testing.assert_array_equal(centroids[1], features[farthest])

    def test_permuting_rows_permutes_labels(self):
        rng = np.random.default_rng(7)
        # dyadic features sum exactly in any order, so centroids match bit for bit
        features = rng.integers(-512, 512, size=(50, 4)) / 64.0
        weights = rng.uniform(1.0, 100.0, 50)
        perm = rng.permutation(50)
        labels, centroids = kmeans(features, weights, 5)
        p_labels, p_centroids = kmeans(features[perm], weights[perm], 5)
        np.testing.assert_array_equal(p_centroids, centroids)
        np.testing.assert_array_equal(p_labels, labels[perm])

    @pytest.mark.parametrize("shape", [(39,), (40, 1), ()])
    def test_rejects_weights_of_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="weights"):
            kmeans(np.zeros((40, 4)), np.ones(shape), 3)


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
                depth, maps, rect, config.formulation, "integral", stack=stack, constant=constant
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
            min_valid_fraction=0.9, k=3,
        )
        batch_calls = []
        original = rangefit.fitting.fit_sums

        def counting(*args, **kwargs):
            batch_calls.append(len(args[0]["n"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(rangefit.fitting, "fit_sums", counting)
        tiles = sorted(
            segment(depth, maps, config, constant=constant).tiles,
            key=lambda t: (t.level, t.rect.y0, t.rect.x0),
        )
        expected = sorted(
            reference_leaves(depth, maps, config, constant),
            key=lambda leaf: (leaf[1], leaf[0].y0, leaf[0].x0),
        )

        assert len(tiles) == len(expected)
        for tile, (rect, level, status, result) in zip(tiles, expected):
            assert (tile.rect, tile.level, tile.status) == (rect, level, status)
            if result is None:
                assert tile.result is None
                continue
            # Node sums carry no summed-area cancellation, so the naive oracle
            # is the exact side: on the 64x48 frame the largest coefficient
            # gap to it is 1.8e-10 (explicit-rgbd), against 5.1e-10 for the
            # summed-area refits of the same rects.
            naive = fit_rect(depth, maps, tile.rect, formulation, "naive")
            np.testing.assert_allclose(
                tile.result.plane.coefficients, naive.plane.coefficients, rtol=0, atol=1e-9
            )
            assert tile.result.degenerate == result.degenerate
            assert tile.result.n_points == result.n_points
        statuses = {tile.status for tile in tiles}
        assert statuses == set(TileStatus)
        # one batched fit per quadtree level
        assert len(batch_calls) == max(tile.level for tile in tiles) + 1 == 4

    def test_single_plane_all_tiles_fit_at_level_zero(self, small_maps):
        depth, _ = render_scene(
            SyntheticScene((GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0])),)), small_maps
        )
        config = SegConfig(
            formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=2, k=3
        )
        result = segment(depth, small_maps, config)
        assert result.n_fitted == len(result.tiles) == (64 // 16) * (48 // 16)
        assert all(t.level == 0 for t in result.tiles)
        # identical features force all centroids onto one point
        spread = np.abs(result.centroids - result.centroids[0]).max()
        assert spread < 1e-9

    def test_leaf_tiles_cover_image_exactly(self, small_maps):
        rng = np.random.default_rng(6)
        scene = corner_scene()
        depth, _ = render_scene(scene, small_maps, noise=NoiseModel(), seed=3)
        config = SegConfig(
            formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=3, k=3
        )
        result = segment(depth, small_maps, config)
        coverage = np.zeros((48, 64), dtype=np.int32)
        for tile in result.tiles:
            r = tile.rect
            coverage[r.y0 : r.y1, r.x0 : r.x1] += 1
        assert (coverage == 1).all()

    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_stats_count_every_node_once(self, small_maps, formulation):
        depth, _ = render_scene(corner_scene(), small_maps, noise=NoiseModel(), seed=3, dropout=0.3)
        config = SegConfig(
            formulation=formulation, initial_tile=16, max_depth=2,
            rms_threshold=SegConfig(formulation=formulation).threshold / 8, k=3,
        )
        result = segment(depth, small_maps, config)
        stats = result.stats()
        assert stats["leaves"] == len(result.tiles)
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
                sum(1 for t in result.tiles if t.status is status and t.level == i)
                for i in range(len(levels))
            ]
        assert sum(level["degenerate"] for level in levels) == sum(
            1 for t in result.tiles if t.result is not None and t.result.degenerate
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
        config = SegConfig(formulation=IMPLICIT_STANDARD, initial_tile=16, k=2)
        result = segment(depth, small_maps, config)
        rejected = [t for t in result.tiles if t.status is TileStatus.TOO_INVALID]
        # tiles fully inside the empty region (y boundary 24 halves the y0=16
        # row, leaving those tiles exactly at the 50% validity gate)
        assert len(rejected) == 2
        assert all(t.rect.x0 >= 32 and t.rect.y0 >= 32 for t in rejected)
        assert all(t.cluster == -1 for t in rejected)
        assert (result.labels[32:, 32:] == -1).all()

    def test_corner_scene_accuracy(self, small_maps):
        scene = corner_scene()
        depth, truth = render_scene(scene, small_maps, noise=NoiseModel(), seed=7)
        config = SegConfig(formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=3, k=3)
        result = segment(depth, small_maps, config)
        accuracy = best_label_accuracy(result.labels, truth, k=3)
        assert accuracy >= 0.95

    def test_draws_no_random_numbers(self, small_maps, monkeypatch):
        depth, truth = render_scene(
            corner_scene(), small_maps, noise=NoiseModel(), seed=13, dropout=0.1
        )

        def no_rng(*args, **kwargs):
            raise AssertionError("segment drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        config = SegConfig(formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=3, k=3)
        result = segment(depth, small_maps, config)
        assert best_label_accuracy(result.labels, truth, k=3) >= 0.95

    def test_threshold_monotonicity(self, small_maps):
        scene = corner_scene()
        depth, _ = render_scene(scene, small_maps, noise=NoiseModel(), seed=8)
        leaf_counts = []
        for threshold in (3e-2, 8e-3, 2e-3, 5e-4):
            config = SegConfig(
                formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=3,
                rms_threshold=threshold, k=3,
            )
            leaf_counts.append(len(segment(depth, small_maps, config).tiles))
        assert leaf_counts == sorted(leaf_counts)

    def test_backend_equivalence_tile_for_tile(self, small_maps):
        scene = corner_scene()
        depth, _ = render_scene(scene, small_maps, noise=NoiseModel(), seed=9)
        results = {}
        for backend in ("naive", "integral"):
            config = SegConfig(
                formulation=IMPLICIT_RGBD, backend=backend, initial_tile=16,
                max_depth=3, k=3,
            )
            results[backend] = segment(depth, small_maps, config)
        a, b = results["naive"], results["integral"]
        assert len(a.tiles) == len(b.tiles)
        key = lambda t: (t.rect.x0, t.rect.y0, t.rect.x1, t.rect.y1)
        for ta, tb in zip(sorted(a.tiles, key=key), sorted(b.tiles, key=key)):
            assert ta.rect == tb.rect
            assert ta.status == tb.status
            assert ta.cluster == tb.cluster
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_k_clamp_warns(self, small_maps):
        depth, _ = render_scene(
            SyntheticScene((GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0])),)), small_maps
        )
        config = SegConfig(formulation=IMPLICIT_RGBD, initial_tile=32, k=30)
        result = segment(depth, small_maps, config)
        assert any("clamped" in w for w in result.warnings)

    def test_max_metric_available(self, small_maps):
        scene = corner_scene()
        depth, _ = render_scene(scene, small_maps, noise=NoiseModel(), seed=10)
        config = SegConfig(
            formulation=EXPLICIT_STANDARD, initial_tile=16, max_depth=2,
            rms_threshold=0.08, error_metric="max", k=3,
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
        for tile in result.tiles:
            if tile.result is None:
                continue
            sl = (slice(tile.rect.y0, tile.rect.y1), slice(tile.rect.x0, tile.rect.x1))
            valid = depth.valid[sl]
            worst = np.abs(residual(
                tile.result.plane.coefficients, small_maps.tan_x[sl][valid],
                small_maps.tan_y[sl][valid], depth.values[sl][valid],
            )).max()
            if tile.status is TileStatus.FITTED:
                assert worst <= config.threshold * (1 + rel), tile.rect
            else:
                assert tile.result.degenerate or worst > config.threshold * (1 - rel), tile.rect

    def test_color_output_and_csv(self, small_maps):
        scene = corner_scene()
        depth, _ = render_scene(scene, small_maps, noise=NoiseModel(), seed=11)
        config = SegConfig(formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=3, k=3)
        result = segment(depth, small_maps, config)
        rgb = result.to_color()
        assert rgb.shape == (48, 64, 3) and rgb.dtype == np.uint8
        used = {tuple(c) for c in rgb.reshape(-1, 3)}
        palette_hits = used & {CLUSTER_PALETTE[i] for i in range(3)}
        assert len(palette_hits) >= 3
        csv = result.to_csv()
        header, *rows = csv.strip().split("\n")
        assert header == "x0,y0,x1,y1,status,a,b,c,d,rms,cluster"
        assert len(rows) == len(result.tiles)

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
        with pytest.raises(ValueError, match="k"):
            SegConfig(k=0)

    def test_image_smaller_than_min_tile_rejected(self, small_maps):
        with pytest.raises(ValueError, match="smaller"):
            segment(
                DepthImage(values=np.ones((1, 10))),
                small_maps,
                SegConfig(),
            )


def _maps(width: int, height: int):
    return compute_tan_maps(CameraIntrinsics(
        fx=60.0, fy=60.0, cx=(width - 1) / 2, cy=(height - 1) / 2, width=width, height=height
    ))


def reference_paint(result) -> tuple[np.ndarray, np.ndarray]:
    """Labels and colour image painted tile by tile at full resolution."""
    labels = np.full(result.labels.shape, UNLABELED, dtype=np.int16)
    rgb = np.zeros((*result.labels.shape, 3), dtype=np.uint8)
    for tile in result.tiles:
        r = tile.rect
        if tile.status is TileStatus.FITTED:
            labels[r.y0 : r.y1, r.x0 : r.x1] = tile.cluster
            color = CLUSTER_PALETTE[tile.cluster % len(CLUSTER_PALETTE)]
        elif tile.status is TileStatus.TOO_INVALID:
            color = TOO_INVALID_COLOR
        else:
            color = HIGH_ERROR_COLOR
        rgb[r.y0 : r.y1, r.x0 : r.x1] = color
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
        results = {
            backend: segment(depth, maps, SegConfig(
                formulation=formulation, backend=backend, initial_tile=16, max_depth=2,
                rms_threshold=threshold, k=3,
            ))
            for backend in ("naive", "integral")
        }
        for result in results.values():
            coverage = np.zeros((height, width), dtype=np.int32)
            for tile in result.tiles:
                r = tile.rect
                coverage[r.y0 : r.y1, r.x0 : r.x1] += 1
                # every edge on the 4-px lattice or on the image border
                assert r.x0 % 4 == 0 and r.y0 % 4 == 0, r
                assert r.x1 % 4 == 0 or r.x1 == width, r
                assert r.y1 % 4 == 0 or r.y1 == height, r
                assert max(r.x1 - r.x0, r.y1 - r.y0) <= 16 >> tile.level, (r, tile.level)
            assert (coverage == 1).all()
            # ragged edge tiles were split, so the rule above was exercised
            assert any(
                t.level > 0 and (t.rect.x1 == width or t.rect.y1 == height) for t in result.tiles
            )
            if dropout == 0.0:
                # min_valid_fraction is taken over the clipped area
                assert result.n_too_invalid == 0
            # A 1-px sliver's samples lie on one image column or row; their
            # viewing plane, through the camera centre, fits them exactly.
            slivers = [
                t for t in result.tiles
                if t.result is not None and 1 in (t.rect.x1 - t.rect.x0, t.rect.y1 - t.rect.y0)
            ]
            assert bool(slivers) == (width == 97)
            for t in slivers:
                assert t.result.degenerate and t.status is TileStatus.HIGH_ERROR, t.rect
        naive, integral = results["naive"], results["integral"]
        assert [(t.rect, t.level, t.status) for t in naive.tiles] == [
            (t.rect, t.level, t.status) for t in integral.tiles
        ]
        for a, b in zip(naive.tiles, integral.tiles):
            if a.result is not None:
                # 1e-6: a ragged 4x1 sliver holding 3 collinear samples is
                # ill-conditioned; its two fits differ by 7e-7 (97x53, holes)
                np.testing.assert_allclose(
                    a.result.plane.coefficients, b.result.plane.coefficients, rtol=0, atol=1e-6
                )

    @pytest.mark.parametrize("dropout", [0.0, 0.1], ids=["hole-free", "holes"])
    @pytest.mark.parametrize("formulation", [IMPLICIT_RGBD, EXPLICIT_RGBD])
    def test_segment_builds_no_constant_stack(self, small_maps, formulation, dropout, monkeypatch):
        depth, _ = render_scene(
            corner_scene(), small_maps, noise=NoiseModel(), seed=5, dropout=dropout
        )
        config = SegConfig(formulation=formulation, initial_tile=16, max_depth=3, k=3)
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
        assert [(t.rect, t.level, t.status) for t in alone.tiles] == [
            (t.rect, t.level, t.status) for t in given.tiles
        ]
        np.testing.assert_array_equal(alone.labels, given.labels)

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
            rms_threshold=SegConfig().threshold / 8, k=3,
        ))
        assert {t.status for t in result.tiles} == set(TileStatus)
        labels, rgb = reference_paint(result)
        assert result.labels.dtype == labels.dtype and result.labels.tobytes() == labels.tobytes()
        color = result.to_color()
        assert color.dtype == rgb.dtype and color.shape == rgb.shape
        assert color.tobytes() == rgb.tobytes()
