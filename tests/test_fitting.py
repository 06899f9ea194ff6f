"""Plane-fit tests: hand examples, backend equivalence, ground-truth recovery."""

from __future__ import annotations

import numpy as np
import pytest

from rangefit import (
    EXPLICIT_RGBD,
    EXPLICIT_STANDARD,
    FORMULATIONS,
    IMPLICIT_RGBD,
    IMPLICIT_STANDARD,
    ChannelStack,
    DepthImage,
    ExplicitPlane,
    ExplicitRgbdFitter,
    GroundTruthPlane,
    ImplicitPlane,
    InsufficientSamplesError,
    NoiseModel,
    Rect,
    SyntheticScene,
    accumulate_scatter_naive,
    build_constant_channels,
    build_rgbd_explicit_channels,
    build_rgbd_implicit_channels,
    build_standard_explicit_channels,
    build_standard_implicit_channels,
    canonicalize_implicit,
    explicit_to_implicit,
    fit_explicit_rgbd,
    fit_explicit_standard,
    fit_implicit_rgbd,
    fit_implicit_standard,
    fit_rect,
    fit_rects,
    gather_window_samples,
    normal_angle,
    render_scene,
    scatter_from_integrals,
)
from rangefit.fitting import CSV_HEADER, MIN_SAMPLES, fit_result_csv_row
from rangefit.integral import CONSTANT_CHANNELS

from conftest import random_visible_plane

STACK_BUILDERS = {
    IMPLICIT_STANDARD: build_standard_implicit_channels,
    IMPLICIT_RGBD: build_rgbd_implicit_channels,
    EXPLICIT_STANDARD: build_standard_explicit_channels,
    EXPLICIT_RGBD: build_rgbd_explicit_channels,
}

FITTERS = {
    IMPLICIT_STANDARD: fit_implicit_standard,
    IMPLICIT_RGBD: fit_implicit_rgbd,
    EXPLICIT_STANDARD: fit_explicit_standard,
    EXPLICIT_RGBD: fit_explicit_rgbd,
}


def implicit_from_result(result) -> np.ndarray:
    plane = result.plane
    if isinstance(plane, ExplicitPlane):
        return explicit_to_implicit(plane).coefficients
    return plane.coefficients


def plane_offset(coef: np.ndarray) -> float:
    """Signed distance of the plane from the camera origin."""
    return -float(coef[3]) / float(np.linalg.norm(coef[:3]))


def rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def transform_implicit(coef: np.ndarray, rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """Coefficients of the plane after moving its points by x -> R x + t."""
    normal = rotation @ coef[:3]
    offset = float(coef[3]) - float(normal @ translation)
    return canonicalize_implicit(np.array([*normal, offset]))


def planar_cloud(
    plane: GroundTruthPlane, n: int, rng: np.random.Generator, sigma: float = 0.0
) -> np.ndarray:
    """Points on (or near) the plane, spread across a desk-scale patch."""
    normal, d = plane.normal, plane.offset
    basis = np.linalg.svd(normal.reshape(1, 3))[2][1:]
    pts = rng.uniform(-1.0, 1.0, size=(n, 2)) @ basis + (-d) * normal
    if sigma > 0:
        pts = pts + rng.standard_normal(pts.shape) * sigma
    return pts


class TestCanonicalization:
    def test_axis_aligned_plane(self):
        coef = canonicalize_implicit(np.array([0.0, 0.0, 2.0, -6.0]))
        np.testing.assert_allclose(coef, np.array([0, 0, 1.0, -3.0]) / np.sqrt(10), rtol=1e-15)

    def test_sign_flip(self):
        coef = canonicalize_implicit(np.array([0.0, 0.0, -1.0, 3.0]))
        np.testing.assert_allclose(coef, np.array([0, 0, 1.0, -3.0]) / np.sqrt(10), rtol=1e-15)

    def test_first_nonzero_order_checks_c_then_b_then_a_then_d(self):
        coef = canonicalize_implicit(np.array([-1.0, 0.0, 0.0, 1.0]))
        np.testing.assert_allclose(coef, np.array([1.0, 0, 0, -1.0]) / np.sqrt(2))
        coef = canonicalize_implicit(np.array([0.0, -2.0, 0.0, 1.0]))
        assert coef[1] > 0
        coef = canonicalize_implicit(np.array([0.0, 0.0, 0.0, -4.0]))
        np.testing.assert_allclose(coef, [0, 0, 0, 1.0])

    def test_rounding_noise_does_not_flip_sign(self):
        a = canonicalize_implicit(np.array([1.0, 0.0, 1e-17, -1.0]))
        b = canonicalize_implicit(np.array([1.0, 0.0, -1e-17, -1.0]))
        np.testing.assert_allclose(a, b, atol=1e-16)

    def test_idempotent_on_plane_type(self):
        plane = ImplicitPlane(np.array([0.0, 0.0, -3.0, 6.0]))
        np.testing.assert_allclose(
            plane.coefficients, np.array([0, 0, 1.0, -2.0]) / np.sqrt(5), rtol=1e-15
        )


class TestNaiveAccumulation:
    def test_min_samples_is_the_system_size(self):
        assert MIN_SAMPLES == {
            IMPLICIT_STANDARD: 4, IMPLICIT_RGBD: 4, EXPLICIT_STANDARD: 3, EXPLICIT_RGBD: 3,
        }

    def test_hand_accumulated_scatter(self):
        # four points on Z = 1 at lateral corners (+-1, +-1)
        samples = np.array(
            [[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, 1.0]]
        )
        scatter = accumulate_scatter_naive(samples, IMPLICIT_STANDARD)
        assert scatter.matrix[0, 0] == 4.0  # sum X^2
        assert scatter.matrix[0, 1] == 0.0  # sum XY
        assert scatter.matrix[2, 2] == 4.0  # sum Z^2
        assert scatter.matrix[3, 3] == 4.0  # count
        assert scatter.n == 4

    def test_empty_and_undersized(self):
        with pytest.raises(InsufficientSamplesError):
            accumulate_scatter_naive(np.empty((0, 3)), IMPLICIT_STANDARD)
        with pytest.raises(InsufficientSamplesError):
            accumulate_scatter_naive(np.ones((3, 3)), IMPLICIT_RGBD)
        with pytest.raises(InsufficientSamplesError):
            accumulate_scatter_naive(np.ones((2, 3)), EXPLICIT_STANDARD)

    def test_rgbd_requires_positive_depth(self):
        samples = np.array([[0.1, 0.1, 1.0], [0.2, 0.1, -1.0], [0.1, 0.2, 1.0], [0.0, 0.0, 2.0]])
        with pytest.raises(ValueError, match="positive"):
            accumulate_scatter_naive(samples, IMPLICIT_RGBD)

    def test_explicit_carries_target_square_sum(self):
        samples = np.array([[0.0, 0.0, 2.0], [0.1, 0.0, 2.0], [0.0, 0.1, 2.0], [0.1, 0.1, 2.0]])
        scatter = accumulate_scatter_naive(samples, EXPLICIT_RGBD)
        assert scatter.target_sq == pytest.approx(4 * 0.25)


@pytest.fixture
def noisy_scene(small_maps):
    rng = np.random.default_rng(12)
    plane = random_visible_plane(rng)
    depth, _ = render_scene(SyntheticScene((plane,)), small_maps, noise=NoiseModel(), seed=21)
    return plane, depth


class TestBackendEquivalence:
    def test_scatter_and_fit_agree_across_backends(self, small_maps, noisy_scene):
        _, depth = noisy_scene
        constant = build_constant_channels(small_maps)
        rng = np.random.default_rng(13)
        for formulation in FORMULATIONS:
            stack = STACK_BUILDERS[formulation](depth, small_maps)
            for _ in range(25):
                x0 = int(rng.integers(0, 56))
                y0 = int(rng.integers(0, 40))
                rect = Rect(x0, y0, int(rng.integers(x0 + 6, 65)), int(rng.integers(y0 + 6, 49)))
                naive = accumulate_scatter_naive(
                    gather_window_samples(depth, small_maps, rect, formulation), formulation
                )
                from_tables = scatter_from_integrals(stack, constant, rect, formulation)
                fro = np.linalg.norm(naive.matrix)
                assert np.abs(from_tables.matrix - naive.matrix).max() <= 1e-8 * fro
                assert from_tables.n == naive.n
                if hasattr(naive, "rhs"):
                    scale = max(np.linalg.norm(naive.rhs), fro)
                    assert np.abs(from_tables.rhs - naive.rhs).max() <= 1e-8 * scale
                fit_naive = FITTERS[formulation](naive)
                fit_tables = FITTERS[formulation](from_tables)
                a = implicit_from_result(fit_naive)
                b = implicit_from_result(fit_tables)
                assert np.abs(a - b).max() <= 1e-6

    def test_two_disjoint_rects_add_entrywise(self, small_maps, noisy_scene):
        _, depth = noisy_scene
        stack = build_standard_implicit_channels(depth, small_maps)
        left = scatter_from_integrals(stack, None, Rect(2, 3, 20, 30), IMPLICIT_STANDARD)
        right = scatter_from_integrals(stack, None, Rect(20, 3, 44, 30), IMPLICIT_STANDARD)
        union = scatter_from_integrals(stack, None, Rect(2, 3, 44, 30), IMPLICIT_STANDARD)
        np.testing.assert_allclose(
            left.matrix + right.matrix, union.matrix, rtol=1e-12, atol=1e-9
        )

    def test_full_image_rect_equals_naive_over_all_pixels(self, small_maps, noisy_scene):
        _, depth = noisy_scene
        stack = build_standard_explicit_channels(depth, small_maps)
        full = Rect(0, 0, 64, 48)
        naive = accumulate_scatter_naive(
            gather_window_samples(depth, small_maps, full, EXPLICIT_STANDARD), EXPLICIT_STANDARD
        )
        tables = scatter_from_integrals(stack, None, full, EXPLICIT_STANDARD)
        np.testing.assert_allclose(tables.matrix, naive.matrix, rtol=1e-10)
        np.testing.assert_allclose(tables.rhs, naive.rhs, rtol=1e-10)
        assert tables.target_sq == pytest.approx(naive.target_sq, rel=1e-10)

    def test_fully_invalid_rect_raises(self, small_maps):
        masked = GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0]), mask_rect=(0, 0, 32, 48))
        depth, _ = render_scene(SyntheticScene((masked,)), small_maps)
        stack = build_standard_implicit_channels(depth, small_maps)
        with pytest.raises(InsufficientSamplesError):
            scatter_from_integrals(stack, None, Rect(40, 8, 60, 28), IMPLICIT_STANDARD)

    def test_rgbd_requires_constant_stack(self, small_maps, noisy_scene):
        # a hole-free frame stack carries no tan tables of its own
        _, depth = noisy_scene
        assert depth.valid.all()
        for formulation in (IMPLICIT_RGBD, EXPLICIT_RGBD):
            stack = STACK_BUILDERS[formulation](depth, small_maps)
            with pytest.raises(ValueError, match="constant"):
                scatter_from_integrals(stack, None, Rect(0, 0, 20, 20), formulation)
            with pytest.raises(ValueError, match="constant"):
                fit_rects(stack, None, np.array([[0, 0, 20, 20]]), formulation)

    def test_holey_windows_match_naive_in_rgbd_formulations(self, small_maps):
        # scattered dropout: windows containing holes must still assemble the
        # exact masked scatter via the frame's masked tan channels
        rng = np.random.default_rng(77)
        plane = random_visible_plane(rng)
        depth, _ = render_scene(
            SyntheticScene((plane,)), small_maps, noise=NoiseModel(), seed=6, dropout=0.15
        )
        assert not depth.valid.all()
        constant = build_constant_channels(small_maps)
        for formulation in (IMPLICIT_RGBD, EXPLICIT_RGBD):
            stack = STACK_BUILDERS[formulation](depth, small_maps)
            assert set(CONSTANT_CHANNELS) <= set(stack.channels)  # masked tan tables
            for _ in range(20):
                x0 = int(rng.integers(0, 48))
                y0 = int(rng.integers(0, 32))
                rect = Rect(x0, y0, int(rng.integers(x0 + 8, 65)), int(rng.integers(y0 + 8, 49)))
                naive = accumulate_scatter_naive(
                    gather_window_samples(depth, small_maps, rect, formulation), formulation
                )
                tables = scatter_from_integrals(stack, constant, rect, formulation)
                fro = np.linalg.norm(naive.matrix)
                assert np.abs(tables.matrix - naive.matrix).max() <= 1e-9 * fro
                a = implicit_from_result(FITTERS[formulation](naive))
                b = implicit_from_result(FITTERS[formulation](tables))
                assert np.abs(a - b).max() <= 1e-6

    def test_holey_window_needs_masked_tan_channels(self, small_maps):
        depth, _ = render_scene(
            SyntheticScene((random_visible_plane(np.random.default_rng(19)),)),
            small_maps, noise=NoiseModel(), seed=6, dropout=0.1,
        )
        constant = build_constant_channels(small_maps)
        for formulation in (IMPLICIT_RGBD, EXPLICIT_RGBD):
            stack = STACK_BUILDERS[formulation](depth, small_maps)
            kept = [name for name in stack.index if name not in CONSTANT_CHANNELS]
            unmarked = ChannelStack(
                stack.tensor[[stack.index[name] for name in kept]],
                {name: i for i, name in enumerate(kept)},
            )
            with pytest.raises(ValueError, match="no masked tan channels"):
                scatter_from_integrals(unmarked, constant, Rect(0, 0, 64, 48), formulation)
            with pytest.raises(ValueError, match="no masked tan channels"):
                fit_rects(unmarked, constant, np.array([[0, 0, 64, 48]]), formulation)

    def test_hole_free_frame_stacks_stay_lean(self, small_maps, noisy_scene):
        _, depth = noisy_scene
        assert depth.valid.all()
        stack = build_rgbd_implicit_channels(depth, small_maps)
        assert stack.per_frame_channel_names() == ("tx_over_z", "ty_over_z", "inv_z", "inv_z2")


class TestNoiselessRecovery:
    def test_axis_aligned_plane_all_formulations(self, small_maps):
        depth, _ = render_scene(
            SyntheticScene((GroundTruthPlane(np.array([0.0, 0.0, 1.0, -3.0])),)), small_maps
        )
        expected = np.array([0.0, 0.0, 1.0, -3.0]) / np.sqrt(10)
        constant = build_constant_channels(small_maps)
        rect = Rect(0, 0, 64, 48)
        for formulation in FORMULATIONS:
            stack = STACK_BUILDERS[formulation](depth, small_maps)
            result = FITTERS[formulation](
                scatter_from_integrals(stack, constant, rect, formulation)
            )
            np.testing.assert_allclose(
                implicit_from_result(result), expected, atol=1e-9,
                err_msg=formulation,
            )

    def test_explicit_standard_hand_example(self):
        # Z = 0.5 X + 2 sampled on a lateral grid
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 50)
        y = rng.uniform(-1, 1, 50)
        z = 0.5 * x + 2.0
        result = fit_explicit_standard(
            accumulate_scatter_naive(np.column_stack((x, y, z)), EXPLICIT_STANDARD)
        )
        np.testing.assert_allclose(result.plane.coefficients, [0.5, 0.0, 2.0], atol=1e-12)
        # the aggregated-sum residual identity has a ~sqrt(eps * mean(b^2))
        # cancellation floor, well below any subdivision threshold
        assert result.rms_residual == pytest.approx(0.0, abs=1e-6)

    def test_explicit_rgbd_hand_examples(self, small_maps):
        # frontal plane Z = 2: inverse depth is 0.5 everywhere
        depth, _ = render_scene(
            SyntheticScene((GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0])),)), small_maps
        )
        samples = gather_window_samples(depth, small_maps, Rect(0, 0, 64, 48), EXPLICIT_RGBD)
        result = fit_explicit_rgbd(accumulate_scatter_naive(samples, EXPLICIT_RGBD))
        np.testing.assert_allclose(result.plane.coefficients, [0.0, 0.0, 0.5], atol=1e-12)

        # X + Z = 4 has inverse-depth form 0.25 tan_x + 0.25
        plane = GroundTruthPlane(np.array([1.0, 0.0, 1.0, -4.0]))
        depth, _ = render_scene(SyntheticScene((plane,)), small_maps)
        samples = gather_window_samples(depth, small_maps, Rect(0, 0, 64, 48), EXPLICIT_RGBD)
        result = fit_explicit_rgbd(accumulate_scatter_naive(samples, EXPLICIT_RGBD))
        np.testing.assert_allclose(result.plane.coefficients, [0.25, 0.0, 0.25], atol=1e-12)

    def test_random_planes_recovered_by_all_formulations(self, small_maps):
        rng = np.random.default_rng(4)
        constant = build_constant_channels(small_maps)
        rect = Rect(0, 0, 64, 48)
        for _ in range(25):
            plane = random_visible_plane(rng)
            depth, _ = render_scene(SyntheticScene((plane,)), small_maps)
            truth = canonicalize_implicit(plane.coefficients)
            for formulation in FORMULATIONS:
                stack = STACK_BUILDERS[formulation](depth, small_maps)
                result = FITTERS[formulation](
                    scatter_from_integrals(stack, constant, rect, formulation)
                )
                got = implicit_from_result(result)
                angle = normal_angle(ImplicitPlane(got), ImplicitPlane(truth))
                assert angle <= 1e-6, formulation
                rel_offset = abs(plane_offset(got) - plane_offset(truth)) / abs(
                    plane_offset(truth)
                )
                assert rel_offset <= 1e-6, formulation

    def test_plane_parallel_to_axis_implicit(self):
        # X = 1 sampled at varied Y, Z: only the implicit forms can express it
        rng = np.random.default_rng(30)
        samples = np.column_stack(
            (np.ones(60), rng.uniform(-1, 1, 60), rng.uniform(1, 3, 60))
        )
        scatter = accumulate_scatter_naive(samples, IMPLICIT_STANDARD)
        result = fit_implicit_standard(scatter)
        np.testing.assert_allclose(
            result.plane.coefficients, np.array([1.0, 0, 0, -1.0]) / np.sqrt(2), atol=1e-12
        )
        # the exact eigenvalue is 0; accumulating the Gram matrix in float64
        # perturbs it by O(eps * ||S||), which is the assertable floor
        assert result.eigenvalue <= 1e-13 * np.linalg.norm(scatter.matrix)

    def test_noisy_fits_stay_near_truth_but_differ(self, small_maps):
        # under noise the two implicit weightings disagree slightly, while
        # both stay within a noise-scaled cone of the true plane
        rng = np.random.default_rng(31)
        plane = random_visible_plane(rng)
        depth, _ = render_scene(
            SyntheticScene((plane,)), small_maps, noise=NoiseModel(), seed=13
        )
        rect = Rect(0, 0, 64, 48)
        truth = ImplicitPlane(plane.coefficients)
        std = fit_implicit_standard(
            accumulate_scatter_naive(
                gather_window_samples(depth, small_maps, rect, IMPLICIT_STANDARD),
                IMPLICIT_STANDARD,
            )
        )
        rgbd = fit_implicit_rgbd(
            accumulate_scatter_naive(
                gather_window_samples(depth, small_maps, rect, IMPLICIT_RGBD), IMPLICIT_RGBD
            )
        )
        assert normal_angle(std.plane, truth) < 1e-3
        assert normal_angle(rgbd.plane, truth) < 1e-3
        assert not np.array_equal(std.plane.coefficients, rgbd.plane.coefficients)

    def test_implicit_rgbd_matches_standard_noiseless(self, small_maps):
        rng = np.random.default_rng(5)
        rect = Rect(8, 4, 56, 44)
        constant = build_constant_channels(small_maps)
        for _ in range(25):
            plane = random_visible_plane(rng)
            depth, _ = render_scene(SyntheticScene((plane,)), small_maps)
            std = fit_implicit_standard(
                scatter_from_integrals(
                    build_standard_implicit_channels(depth, small_maps), None, rect,
                    IMPLICIT_STANDARD,
                )
            )
            rgbd = fit_implicit_rgbd(
                scatter_from_integrals(
                    build_rgbd_implicit_channels(depth, small_maps), constant, rect,
                    IMPLICIT_RGBD,
                )
            )
            angle = normal_angle(std.plane, rgbd.plane)
            assert angle <= 1e-6

    def test_implicit_eigenvalue_equals_rms_identity(self, small_maps, ):
        rng = np.random.default_rng(6)
        plane = random_visible_plane(rng)
        depth, _ = render_scene(SyntheticScene((plane,)), small_maps, noise=NoiseModel(), seed=2)
        scatter = accumulate_scatter_naive(
            gather_window_samples(depth, small_maps, Rect(0, 0, 64, 48), IMPLICIT_STANDARD),
            IMPLICIT_STANDARD,
        )
        result = fit_implicit_standard(scatter)
        assert result.rms_residual**2 * result.n_points == pytest.approx(
            result.eigenvalue, rel=1e-9
        )
        # lambda lower-bounds the Rayleigh quotient of any unit probe
        probes = rng.standard_normal((1000, 4))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        quotients = np.einsum("ij,jk,ik->i", probes, scatter.matrix, probes)
        assert result.eigenvalue <= quotients.min() + 1e-9 * np.linalg.norm(scatter.matrix)


class TestDegenerateInputs:
    def test_collinear_samples_flag_implicit(self):
        t = np.linspace(0.0, 1.0, 30)
        line = np.column_stack((t, np.zeros_like(t), np.ones_like(t) * 2.0))
        result = fit_implicit_standard(accumulate_scatter_naive(line, IMPLICIT_STANDARD))
        assert result.degenerate

    def test_vertical_plane_degenerates_explicit_standard(self):
        # all samples share X = 1: no function Z = f(X, Y) separates them
        rng = np.random.default_rng(7)
        samples = np.column_stack(
            (np.ones(40), rng.uniform(-1, 1, 40), rng.uniform(1, 3, 40))
        )
        result = fit_explicit_standard(accumulate_scatter_naive(samples, EXPLICIT_STANDARD))
        assert result.degenerate

    def test_plane_through_origin_degenerates_explicit_rgbd(self):
        # plane X = 0.2 Z passes through the camera origin: tan_x is the
        # constant 0.2 for every sample, so inverse depth is unconstrained
        rng = np.random.default_rng(8)
        z = rng.uniform(1.0, 3.0, 60)
        ty = rng.uniform(-0.4, 0.4, 60)
        samples = np.column_stack((np.full(60, 0.2), ty, z))
        result = fit_explicit_rgbd(accumulate_scatter_naive(samples, EXPLICIT_RGBD))
        assert result.degenerate
        assert result.rms_residual is not None and result.rms_residual > 0.01

    def test_insufficient_n_raises_in_fits(self):
        from rangefit import Scatter4

        scatter = Scatter4(matrix=np.eye(4), n=3)
        with pytest.raises(InsufficientSamplesError):
            fit_implicit_standard(scatter)


class TestExplicitToImplicit:
    def test_standard_space(self):
        plane = ExplicitPlane(np.array([0.0, 0.0, 3.0]), space="standard")
        np.testing.assert_allclose(
            explicit_to_implicit(plane).coefficients,
            np.array([0, 0, 1.0, -3.0]) / np.sqrt(10),
            rtol=1e-15,
        )

    def test_rgbd_space(self):
        plane = ExplicitPlane(np.array([0.0, 0.0, 0.5]), space="rgbd")
        np.testing.assert_allclose(
            explicit_to_implicit(plane).coefficients,
            np.array([0, 0, 1.0, -2.0]) / np.sqrt(5),
            rtol=1e-15,
        )

    def test_round_trip_against_ground_truth(self, small_maps):
        rng = np.random.default_rng(9)
        rect = Rect(0, 0, 64, 48)
        for _ in range(20):
            plane = random_visible_plane(rng)
            depth, _ = render_scene(SyntheticScene((plane,)), small_maps)
            truth = ImplicitPlane(plane.coefficients)
            for formulation in (EXPLICIT_STANDARD, EXPLICIT_RGBD):
                samples = gather_window_samples(depth, small_maps, rect, formulation)
                result = FITTERS[formulation](accumulate_scatter_naive(samples, formulation))
                converted = explicit_to_implicit(result.plane)
                assert normal_angle(converted, truth) <= 1e-8


class TestEuclideanInvariance:
    def test_implicit_commutes_with_rigid_motions(self):
        rng = np.random.default_rng(10)
        plane = GroundTruthPlane(np.array([0.3, -0.2, -0.9, 1.7]))
        pts = planar_cloud(plane, 400, rng)
        truth = canonicalize_implicit(plane.coefficients)
        for _ in range(20):
            rotation = rotation_matrix(rng.standard_normal(3), rng.uniform(0.1, 2.8))
            translation = rng.uniform(-2, 2, 3)
            moved = pts @ rotation.T + translation
            fitted = fit_implicit_standard(
                accumulate_scatter_naive(moved, IMPLICIT_STANDARD)
            ).plane.coefficients
            predicted = transform_implicit(truth, rotation, translation)
            assert np.abs(fitted - predicted).max() <= 1e-8

    def test_implicit_commutes_under_rotation_with_noise(self):
        rng = np.random.default_rng(11)
        plane = GroundTruthPlane(np.array([0.3, -0.2, -0.9, 1.7]))
        noisy = planar_cloud(plane, 400, rng, sigma=0.03)
        base = fit_implicit_standard(
            accumulate_scatter_naive(noisy, IMPLICIT_STANDARD)
        ).plane.coefficients
        for _ in range(10):
            rotation = rotation_matrix(rng.standard_normal(3), rng.uniform(0.1, 2.8))
            moved = noisy @ rotation.T
            fitted = fit_implicit_standard(
                accumulate_scatter_naive(moved, IMPLICIT_STANDARD)
            ).plane.coefficients
            predicted = transform_implicit(base, rotation, np.zeros(3))
            assert np.abs(fitted - predicted).max() <= 1e-8

    def test_explicit_standard_witness_rotation(self):
        rng = np.random.default_rng(12)
        plane = GroundTruthPlane(np.array([0.3, -0.2, -0.9, 1.7]))
        noisy = planar_cloud(plane, 400, rng, sigma=0.08)
        base = fit_explicit_standard(accumulate_scatter_naive(noisy, EXPLICIT_STANDARD))
        base_implicit = explicit_to_implicit(base.plane).coefficients
        rotation = rotation_matrix(np.array([0.0, 1.0, 0.0]), 0.9)
        moved = noisy @ rotation.T
        fitted = fit_explicit_standard(accumulate_scatter_naive(moved, EXPLICIT_STANDARD))
        fitted_implicit = explicit_to_implicit(fitted.plane).coefficients
        predicted = transform_implicit(base_implicit, rotation, np.zeros(3))
        assert np.abs(fitted_implicit - predicted).max() > 1e-3


class TestExplicitRgbdFitter:
    def test_cached_factor_matches_refactorization_bitwise(self, small_maps):
        rng = np.random.default_rng(14)
        constant = build_constant_channels(small_maps)
        fitter = ExplicitRgbdFitter(constant)
        rect = Rect(5, 3, 45, 43)
        for seed in (1, 2):
            plane = random_visible_plane(rng)
            depth, _ = render_scene(
                SyntheticScene((plane,)), small_maps, noise=NoiseModel(), seed=seed
            )
            stack = build_rgbd_explicit_channels(depth, small_maps)
            cached = fitter.fit(stack, rect)
            fresh = fit_explicit_rgbd(
                scatter_from_integrals(stack, constant, rect, EXPLICIT_RGBD)
            )
            np.testing.assert_array_equal(
                cached.plane.coefficients, fresh.plane.coefficients
            )
            assert cached.rms_residual == fresh.rms_residual
        assert len(fitter._factors) == 1  # one window, one factorization

    def test_fitter_handles_holey_windows(self, small_maps):
        rng = np.random.default_rng(15)
        plane = random_visible_plane(rng)
        depth, _ = render_scene(
            SyntheticScene((plane,)), small_maps, noise=NoiseModel(), seed=3, dropout=0.2
        )
        constant = build_constant_channels(small_maps)
        fitter = ExplicitRgbdFitter(constant)
        stack = build_rgbd_explicit_channels(depth, small_maps)
        rect = Rect(4, 4, 44, 44)
        via_fitter = fitter.fit(stack, rect)
        naive = fit_explicit_rgbd(
            accumulate_scatter_naive(
                gather_window_samples(depth, small_maps, rect, EXPLICIT_RGBD), EXPLICIT_RGBD
            )
        )
        np.testing.assert_allclose(
            via_fitter.plane.coefficients, naive.plane.coefficients, atol=1e-9
        )

    def test_fit_rect_dispatch(self, small_maps):
        depth, _ = render_scene(
            SyntheticScene((GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0])),)), small_maps
        )
        constant = build_constant_channels(small_maps)
        stack = build_rgbd_explicit_channels(depth, small_maps)
        rect = Rect(0, 0, 32, 32)
        a = fit_rect(depth, small_maps, rect, EXPLICIT_RGBD, "naive")
        b = fit_rect(
            depth, small_maps, rect, EXPLICIT_RGBD, "integral", stack=stack, constant=constant
        )
        fitter = ExplicitRgbdFitter(constant)
        c = fit_rect(
            depth, small_maps, rect, EXPLICIT_RGBD, "integral",
            stack=stack, constant=constant, rgbd_fitter=fitter,
        )
        for result in (b, c):
            np.testing.assert_allclose(
                result.plane.coefficients, a.plane.coefficients, atol=1e-10
            )
        with pytest.raises(ValueError, match="backend"):
            fit_rect(depth, small_maps, rect, EXPLICIT_RGBD, "wat")
        with pytest.raises(ValueError, match="stack"):
            fit_rect(depth, small_maps, rect, EXPLICIT_RGBD, "integral")

    @pytest.mark.parametrize(
        "rect",
        [Rect(-60, 0, 10, 10), Rect(60, 0, 70, 10), Rect(30, 10, 10, 30), Rect(0, 30, 10, 10)],
        ids=["negative-x0", "past-right-edge", "inverted-x", "inverted-y"],
    )
    def test_rejects_out_of_bounds_and_inverted_rects(self, small_maps, rect):
        depth, _ = render_scene(
            SyntheticScene((random_visible_plane(np.random.default_rng(16)),)),
            small_maps, noise=NoiseModel(), seed=4, dropout=0.05,
        )
        fitter = ExplicitRgbdFitter(build_constant_channels(small_maps))
        stack = build_rgbd_explicit_channels(depth, small_maps)
        with pytest.raises(ValueError, match="out of bounds"):
            fitter.fit(stack, rect)

    @pytest.mark.parametrize(
        "rect",
        [Rect(-60, 0, 10, 10), Rect(10, 10, 5, 5), Rect(60, 0, 70, 10)],
        ids=["negative-x0", "inverted", "past-right-edge"],
    )
    def test_matrix_for_rejects_out_of_bounds_and_inverted_rects(self, small_maps, rect):
        # before the check these gave a pixel count of 50 for a 70-px-wide
        # window, 25 for an inverted one and an IndexError
        fitter = ExplicitRgbdFitter(build_constant_channels(small_maps))
        with pytest.raises(ValueError, match="out of bounds"):
            fitter.matrix_for(rect)
        with pytest.raises(ValueError, match="out of bounds"):
            fitter.factor_for(rect)
        assert not fitter._matrices and not fitter._factors

    def test_matrix_for_equals_assembled_matrix(self, small_maps, noisy_scene):
        _, depth = noisy_scene
        assert depth.valid.all()
        constant = build_constant_channels(small_maps)
        fitter = ExplicitRgbdFitter(constant)
        stack = build_rgbd_explicit_channels(depth, small_maps)
        for rect in (Rect(5, 3, 45, 43), Rect(0, 0, 64, 48), Rect(61, 40, 64, 47)):
            assembled = scatter_from_integrals(stack, constant, rect, EXPLICIT_RGBD)
            assert np.array_equal(fitter.matrix_for(rect), assembled.matrix)

    def test_rejects_stack_without_its_channels(self, small_maps, noisy_scene):
        # these raised a bare KeyError: 'tx_over_z' from the cached-factor reads
        _, depth = noisy_scene
        constant = build_constant_channels(small_maps)
        fitter = ExplicitRgbdFitter(constant)
        stack = build_standard_explicit_channels(depth, small_maps)
        rect = Rect(0, 0, 16, 16)
        with pytest.raises(ValueError, match="missing channels: tx_over_z, ty_over_z, inv_z"):
            fitter.fit(stack, rect)
        with pytest.raises(ValueError, match="missing channels"):
            fit_rect(
                depth, small_maps, rect, EXPLICIT_RGBD, "integral",
                stack=stack, constant=constant, rgbd_fitter=fitter,
            )

    def test_rejects_stack_from_another_camera(self, small_maps):
        from rangefit import CameraIntrinsics, compute_tan_maps

        other = compute_tan_maps(
            CameraIntrinsics(fx=75.0, fy=75.0, cx=39.5, cy=29.5, width=80, height=60)
        )
        depth, _ = render_scene(
            SyntheticScene((GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0])),)), other
        )
        fitter = ExplicitRgbdFitter(build_constant_channels(small_maps))
        with pytest.raises(ValueError, match="dimensions"):
            fitter.fit(build_rgbd_explicit_channels(depth, other), Rect(0, 0, 20, 20))


def _disc_holes(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Four filled discs of invalid pixels, the shape of sensor shadows."""
    yy, xx = np.mgrid[: shape[0], : shape[1]]
    holes = np.zeros(shape, dtype=bool)
    for _ in range(4):
        cx, cy, r = rng.uniform(0, shape[1]), rng.uniform(0, shape[0]), rng.uniform(3, 6)
        holes |= (xx - cx) ** 2 + (yy - cy) ** 2 < r * r
    return holes


def _batch_windows(rng: np.random.Generator) -> list[Rect]:
    """Random windows plus edge cases: full image, slivers, tiny and empty windows."""
    rects = [Rect(0, 0, 64, 48), Rect(10, 5, 11, 40), Rect(3, 20, 60, 21), Rect(7, 7, 9, 8),
             Rect(5, 5, 5, 30), Rect(63, 47, 64, 48)]
    for _ in range(40):
        x0, y0 = int(rng.integers(0, 60)), int(rng.integers(0, 44))
        rects.append(Rect(x0, y0, int(rng.integers(x0 + 1, 65)), int(rng.integers(y0 + 1, 49))))
    return rects


class TestFitRects:
    @pytest.mark.parametrize("dropout", [0.0, 0.1], ids=["hole-free", "holey"])
    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_matches_fit_rect_per_window(self, small_maps, formulation, dropout):
        rng = np.random.default_rng(18)
        depth, _ = render_scene(
            SyntheticScene((random_visible_plane(rng),)),
            small_maps, noise=NoiseModel(), seed=5, dropout=dropout,
        )
        constant = build_constant_channels(small_maps)
        stack = STACK_BUILDERS[formulation](depth, small_maps)
        rects = _batch_windows(rng)
        batch = fit_rects(stack, constant, np.array(rects), formulation)
        assert len(batch) == len(rects)
        for rect, got in zip(rects, batch):
            try:
                want = fit_rect(
                    depth, small_maps, rect, formulation, "integral", stack=stack, constant=constant
                )
            except InsufficientSamplesError:
                assert got is None
                continue
            np.testing.assert_allclose(
                got.plane.coefficients, want.plane.coefficients, rtol=1e-12, atol=1e-12
            )
            assert got.degenerate == want.degenerate
            assert got.n_points == want.n_points
            assert got.rms_residual == pytest.approx(want.rms_residual, rel=1e-9, abs=1e-15)
            assert got.eigenvalue == pytest.approx(want.eigenvalue, rel=1e-9, abs=1e-12)
        if formulation == EXPLICIT_RGBD:
            # a one-pixel-wide sliver has constant tan_x: rank deficient, so
            # the minimum-norm fallback runs inside the batch
            assert any(r is not None and r.degenerate for r in batch)

    @pytest.mark.parametrize("formulation", [IMPLICIT_RGBD, EXPLICIT_RGBD])
    def test_mixed_batch_matches_naive_with_and_without_constant_stack(
        self, small_maps, formulation
    ):
        # localized holes: one batch mixes hole-free and holey windows, and
        # every window of the frame reads its masked tan tables
        rng = np.random.default_rng(23)
        depth, _ = render_scene(
            SyntheticScene((random_visible_plane(rng),)), small_maps, noise=NoiseModel(), seed=7
        )
        depth = DepthImage(values=depth.values, valid=depth.valid & ~_disc_holes((48, 64), rng))
        rects = [Rect(x, y, x + 16, y + 16) for y in range(0, 48, 16) for x in range(0, 64, 16)]
        rects += [Rect(0, 0, 64, 48), Rect(5, 3, 45, 43), Rect(50, 30, 64, 48)]
        full = [bool(depth.valid[r.y0 : r.y1, r.x0 : r.x1].all()) for r in rects]
        assert any(full) and not all(full)
        stack = STACK_BUILDERS[formulation](depth, small_maps)
        constant = build_constant_channels(small_maps)
        with_constant = fit_rects(stack, constant, np.array(rects), formulation)
        without = fit_rects(stack, None, np.array(rects), formulation)
        for rect, got, bare in zip(rects, with_constant, without):
            naive = fit_rect(depth, small_maps, rect, formulation, "naive")
            assert got.n_points == bare.n_points == naive.n_points
            assert np.array_equal(got.plane.coefficients, bare.plane.coefficients)
            a, b = implicit_from_result(naive), implicit_from_result(got)
            assert np.abs(a - b).max() <= 1e-6, rect

    def test_too_small_windows_give_none(self, small_maps):
        masked = GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0]), mask_rect=(0, 0, 32, 48))
        depth, _ = render_scene(SyntheticScene((masked,)), small_maps)
        constant = build_constant_channels(small_maps)
        rects = np.array([[40, 8, 60, 28], [0, 0, 2, 1], [4, 4, 4, 9], [0, 0, 8, 8]])
        for formulation in FORMULATIONS:
            stack = STACK_BUILDERS[formulation](depth, small_maps)
            results = fit_rects(stack, constant, rects, formulation)
            assert results[:3] == [None, None, None]
            assert results[3] is not None and results[3].n_points == 64

    def test_empty_rect_array(self, small_maps, noisy_scene):
        _, depth = noisy_scene
        constant = build_constant_channels(small_maps)
        for formulation in FORMULATIONS:
            stack = STACK_BUILDERS[formulation](depth, small_maps)
            assert fit_rects(stack, constant, np.zeros((0, 4), dtype=np.int64), formulation) == []
            assert fit_rects(stack, constant, [], formulation) == []
            assert fit_rects(stack, constant, np.array([], dtype=np.int64), formulation) == []

    @pytest.mark.parametrize(
        "rect",
        [(-60, 0, 10, 10), (60, 0, 70, 10), (30, 10, 10, 30), (0, 30, 10, 10), (0, 0, 65, 48)],
        ids=["negative-x0", "past-right-edge", "inverted-x", "inverted-y", "past-full-width"],
    )
    def test_rejects_out_of_bounds_and_inverted_rects(self, small_maps, noisy_scene, rect):
        _, depth = noisy_scene
        constant = build_constant_channels(small_maps)
        for formulation in FORMULATIONS:
            stack = STACK_BUILDERS[formulation](depth, small_maps)
            with pytest.raises(ValueError, match="out of bounds"):
                fit_rects(stack, constant, np.array([[0, 0, 8, 8], rect]), formulation)

    def test_rejects_malformed_arrays_and_mismatched_stacks(self, small_maps, noisy_scene):
        _, depth = noisy_scene
        constant = build_constant_channels(small_maps)
        stack = build_rgbd_implicit_channels(depth, small_maps)
        with pytest.raises(ValueError, match="integer"):
            fit_rects(stack, constant, np.array([[0.0, 0.0, 8.0, 8.0]]), IMPLICIT_RGBD)
        with pytest.raises(ValueError, match=r"\(N, 4\)"):
            fit_rects(stack, constant, np.array([0, 0, 8, 8]), IMPLICIT_RGBD)
        for shape in ((2, 0), (0, 3), (0, 0), (0, 4, 1)):
            # empty but malformed: these returned [] when only non-empty input was checked
            with pytest.raises(ValueError, match=r"\(N, 4\)"):
                fit_rects(stack, constant, np.zeros(shape, dtype=np.int64), IMPLICIT_RGBD)
        with pytest.raises(ValueError, match="constant"):
            fit_rects(stack, None, np.array([[0, 0, 8, 8]]), IMPLICIT_RGBD)
        from rangefit import CameraIntrinsics, compute_tan_maps

        other = build_constant_channels(compute_tan_maps(
            CameraIntrinsics(fx=75.0, fy=75.0, cx=39.5, cy=29.5, width=80, height=60)
        ))
        with pytest.raises(ValueError, match="dimensions"):
            fit_rects(stack, other, np.array([[0, 0, 8, 8]]), IMPLICIT_RGBD)


class TestCsvRow:
    def test_header_and_row_shape(self, small_maps):
        depth, _ = render_scene(
            SyntheticScene((GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0])),)), small_maps
        )
        rect = Rect(0, 0, 16, 16)
        result = fit_rect(depth, small_maps, rect, IMPLICIT_STANDARD, "naive")
        row = fit_result_csv_row(result, IMPLICIT_STANDARD, "naive", rect)
        fields = row.split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[0] == IMPLICIT_STANDARD
        assert fields[1] == "naive"
        assert float(fields[8]) == pytest.approx(1 / np.sqrt(5))
        assert int(fields[12]) == 256

    def test_explicit_row_reports_implicit_form(self, small_maps):
        depth, _ = render_scene(
            SyntheticScene((GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0])),)), small_maps
        )
        rect = Rect(0, 0, 16, 16)
        result = fit_rect(depth, small_maps, rect, EXPLICIT_RGBD, "naive")
        fields = fit_result_csv_row(result, EXPLICIT_RGBD, "naive", rect).split(",")
        assert float(fields[8]) == pytest.approx(1 / np.sqrt(5))
        assert float(fields[9]) == pytest.approx(-2 / np.sqrt(5))
        assert fields[10] == ""  # no eigenvalue for explicit fits
