"""Segmentation tests: k-means, quadtree behavior, labeling accuracy."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import rangefit.fitting
from rangefit import (
    EXPLICIT_RGBD,
    EXPLICIT_STANDARD,
    FORMULATIONS,
    IMPLICIT_RGBD,
    IMPLICIT_STANDARD,
    InsufficientSamplesError,
    GroundTruthPlane,
    NoiseModel,
    Rect,
    SegConfig,
    SyntheticScene,
    TileStatus,
    accumulate_scatter_naive,
    build_constant_channels,
    fit_explicit_rgbd,
    fit_implicit_standard,
    fit_rect,
    gather_window_samples,
    kmeans,
    render_scene,
    segment,
    tile_features,
)
from rangefit.segment import CLUSTER_PALETTE, build_frame_stack

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


class TestKmeans:
    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((30, 4))
        labels, centroids = kmeans(features, 1, seed=1)
        assert (labels == 0).all()
        np.testing.assert_allclose(centroids[0], features.mean(axis=0), rtol=1e-12)

    def test_k_equals_n(self):
        rng = np.random.default_rng(1)
        features = rng.standard_normal((6, 3)) * 10
        labels, centroids = kmeans(features, 6, seed=2)
        assert sorted(labels) == list(range(6))
        assert kmeans_objective(features, labels, centroids) == pytest.approx(0.0, abs=1e-20)

    def test_separated_blobs_recovered_exactly(self):
        rng = np.random.default_rng(2)
        blob_a = rng.standard_normal((20, 2)) * 0.05 + np.array([0.0, 0.0])
        blob_b = rng.standard_normal((25, 2)) * 0.05 + np.array([10.0, 0.0])
        features = np.vstack((blob_a, blob_b))
        labels, centroids = kmeans(features, 2, seed=3)
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
            labels, centroids = kmeans(features, 5, seed=4, max_iter=iters)
            objective = kmeans_objective(features, labels, centroids)
            assert objective <= previous + 1e-12
            previous = objective

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(4)
        features = rng.standard_normal((40, 4))
        la, ca = kmeans(features, 4, seed=9)
        lb, cb = kmeans(features, 4, seed=9)
        np.testing.assert_array_equal(la, lb)
        np.testing.assert_array_equal(ca, cb)

    def test_k_clamped_to_n(self):
        features = np.array([[0.0, 0.0], [1.0, 1.0]])
        labels, centroids = kmeans(features, 5, seed=0)
        assert centroids.shape[0] == 2
        assert set(labels) == {0, 1}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 3)), 2)


class TestTileFeatures:
    def test_frontal_plane_feature(self, small_maps):
        depth, _ = render_scene(
            SyntheticScene((GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0])),)), small_maps
        )
        samples = gather_window_samples(depth, small_maps, Rect(0, 0, 64, 48), IMPLICIT_STANDARD)
        result = fit_implicit_standard(accumulate_scatter_naive(samples, IMPLICIT_STANDARD))
        np.testing.assert_allclose(tile_features(result), [0.0, 0.0, -1.0, 0.4], atol=1e-9)

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
            features.append(tile_features(result))
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
        np.testing.assert_allclose(
            tile_features(implicit), tile_features(explicit), atol=1e-8
        )


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
    the walk's order.
    """
    stack = build_frame_stack(depth, maps, config.formulation)
    tile = config.initial_tile
    pending = [
        (Rect(x0, y0, min(x0 + tile, depth.width), min(y0 + tile, depth.height)), 0)
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
        rms = np.inf if result.rms_residual is None else result.rms_residual
        if not result.degenerate and rms <= config.threshold:
            leaves.append((rect, level, TileStatus.FITTED, result))
        elif level < config.max_depth and min(rect.x1 - rect.x0, rect.y1 - rect.y0) >= 4:
            xm = rect.x0 + (rect.x1 - rect.x0) // 2
            ym = rect.y0 + (rect.y1 - rect.y0) // 2
            pending.extend(
                (child, level + 1)
                for child in (
                    Rect(rect.x0, rect.y0, xm, ym), Rect(xm, rect.y0, rect.x1, ym),
                    Rect(rect.x0, ym, xm, rect.y1), Rect(xm, ym, rect.x1, rect.y1),
                )
            )
        else:
            leaves.append((rect, level, TileStatus.HIGH_ERROR, result))
    return leaves


class TestSegment:
    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_leaves_match_one_window_refits(self, small_maps, formulation, monkeypatch):
        depth, _ = render_scene(corner_scene(), small_maps, noise=NoiseModel(), seed=12, dropout=0.1)
        constant = build_constant_channels(small_maps)
        config = SegConfig(
            formulation=formulation, initial_tile=16, max_depth=3,
            rms_threshold=SegConfig(formulation=formulation).threshold / 8,
            min_valid_fraction=0.9, k=3, seed=0,
        )
        batch_calls = []
        original = rangefit.fitting.fit_rects

        def counting(*args, **kwargs):
            batch_calls.append(len(args[2]))
            return original(*args, **kwargs)

        monkeypatch.setattr(rangefit.fitting, "fit_rects", counting)
        tiles = segment(depth, small_maps, config, constant=constant).tiles
        expected = reference_leaves(depth, small_maps, config, constant)

        assert len(tiles) == len(expected)
        for tile, (rect, level, status, result) in zip(tiles, expected):
            assert (tile.rect, tile.level, tile.status) == (rect, level, status)
            if result is None:
                assert tile.result is None
                continue
            np.testing.assert_allclose(
                tile.result.plane.coefficients, result.plane.coefficients, rtol=1e-12, atol=1e-12
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
            formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=2, k=3, seed=0
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
            formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=3, k=3, seed=1
        )
        result = segment(depth, small_maps, config)
        coverage = np.zeros((48, 64), dtype=np.int32)
        for tile in result.tiles:
            r = tile.rect
            coverage[r.y0 : r.y1, r.x0 : r.x1] += 1
        assert (coverage == 1).all()

    def test_fully_invalid_quadrant_rejected(self, small_maps):
        planes = (
            GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0]), mask_rect=(0, 0, 64, 24)),
            GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.5]), mask_rect=(0, 24, 32, 48)),
        )
        depth, _ = render_scene(SyntheticScene(planes), small_maps)
        config = SegConfig(formulation=IMPLICIT_STANDARD, initial_tile=16, k=2, seed=0)
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
        config = SegConfig(formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=3, k=3, seed=2)
        result = segment(depth, small_maps, config)
        accuracy = best_label_accuracy(result.labels, truth, k=3)
        assert accuracy >= 0.95

    def test_threshold_monotonicity(self, small_maps):
        scene = corner_scene()
        depth, _ = render_scene(scene, small_maps, noise=NoiseModel(), seed=8)
        leaf_counts = []
        for threshold in (3e-2, 8e-3, 2e-3, 5e-4):
            config = SegConfig(
                formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=3,
                rms_threshold=threshold, k=3, seed=0,
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
                max_depth=3, k=3, seed=4,
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
        config = SegConfig(formulation=IMPLICIT_RGBD, initial_tile=32, k=30, seed=0)
        result = segment(depth, small_maps, config)
        assert any("clamped" in w for w in result.warnings)

    def test_max_metric_available(self, small_maps):
        scene = corner_scene()
        depth, _ = render_scene(scene, small_maps, noise=NoiseModel(), seed=10)
        config = SegConfig(
            formulation=EXPLICIT_STANDARD, initial_tile=16, max_depth=2,
            rms_threshold=0.08, error_metric="max", k=3, seed=0,
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
        config = SegConfig(formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=3, k=3, seed=5)
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
        with pytest.raises(ValueError, match="formulation"):
            SegConfig(formulation="nope")
        with pytest.raises(ValueError, match="threshold"):
            SegConfig(rms_threshold=-1.0)
        with pytest.raises(ValueError, match="threshold"):
            SegConfig(rms_threshold=float("nan"))
        with pytest.raises(ValueError, match="k"):
            SegConfig(k=0)

    def test_image_smaller_than_min_tile_rejected(self, small_maps):
        from rangefit import DepthImage

        with pytest.raises(ValueError, match="smaller"):
            segment(
                DepthImage(values=np.ones((1, 10))),
                small_maps,
                SegConfig(),
            )
