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
    DepthImage,
    ExplicitPlane,
    ExplicitRgbdFitter,
    GroundTruthPlane,
    ImplicitPlane,
    InsufficientSamplesError,
    NoiseModel,
    Rect,
    SegConfig,
    SyntheticScene,
    accumulate_scatter_naive,
    build_channels,
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
    segment,
)
from rangefit.fitting import CSV_HEADER, MIN_SAMPLES, fit_result_csv_row

from conftest import corner_scene, random_visible_plane

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
                from_tables = scatter_from_integrals(stack, rect, formulation)
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
        left = scatter_from_integrals(stack, Rect(2, 3, 20, 30), IMPLICIT_STANDARD)
        right = scatter_from_integrals(stack, Rect(20, 3, 44, 30), IMPLICIT_STANDARD)
        union = scatter_from_integrals(stack, Rect(2, 3, 44, 30), IMPLICIT_STANDARD)
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
        tables = scatter_from_integrals(stack, full, EXPLICIT_STANDARD)
        np.testing.assert_allclose(tables.matrix, naive.matrix, rtol=1e-10)
        np.testing.assert_allclose(tables.rhs, naive.rhs, rtol=1e-10)
        assert tables.target_sq == pytest.approx(naive.target_sq, rel=1e-10)

    def test_fully_invalid_rect_raises(self, small_maps):
        masked = GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0]), mask_rect=(0, 0, 32, 48))
        depth, _ = render_scene(SyntheticScene((masked,)), small_maps)
        stack = build_standard_implicit_channels(depth, small_maps)
        with pytest.raises(InsufficientSamplesError):
            scatter_from_integrals(stack, Rect(40, 8, 60, 28), IMPLICIT_STANDARD)

    @pytest.mark.parametrize("holes", ["dropout", "discs"])
    def test_holey_windows_match_naive_in_rgbd_formulations(self, small_maps, holes):
        # scattered dropout or shadow discs: windows containing holes must still
        # assemble the exact masked scatter, their tan sums the constant ones less the holes'
        rng = np.random.default_rng(77)
        plane = random_visible_plane(rng)
        depth, _ = render_scene(
            SyntheticScene((plane,)), small_maps, noise=NoiseModel(), seed=6,
            dropout=0.15 if holes == "dropout" else 0.0,
        )
        if holes == "discs":
            depth = DepthImage(values=depth.values, valid=depth.valid & ~_disc_holes((48, 64), rng))
        assert not depth.valid.all()
        for formulation in (IMPLICIT_RGBD, EXPLICIT_RGBD):
            stack = STACK_BUILDERS[formulation](depth, small_maps)
            assert stack.holes is not None
            rects = []
            for _ in range(20):
                x0 = int(rng.integers(0, 48))
                y0 = int(rng.integers(0, 32))
                rect = Rect(x0, y0, int(rng.integers(x0 + 8, 65)), int(rng.integers(y0 + 8, 49)))
                rects.append(rect)
                naive = accumulate_scatter_naive(
                    gather_window_samples(depth, small_maps, rect, formulation), formulation
                )
                tables = scatter_from_integrals(stack, rect, formulation)
                fro = np.linalg.norm(naive.matrix)
                assert np.abs(tables.matrix - naive.matrix).max() <= 1e-9 * fro
                a = implicit_from_result(FITTERS[formulation](naive))
                b = implicit_from_result(
                    fit_rect(depth, small_maps, rect, formulation, "integral", stack)
                )
                assert np.abs(a - b).max() <= 1e-6
            assert any(not depth.valid[r.y0 : r.y1, r.x0 : r.x1].all() for r in rects)
            batch = fit_rects(stack, np.array(rects), formulation)
            for rect, got in zip(rects, batch):
                naive = fit_rect(depth, small_maps, rect, formulation, "naive")
                assert np.abs(implicit_from_result(naive) - implicit_from_result(got)).max() <= 1e-6

    def test_hole_free_frame_stacks_stay_lean(self, small_maps, noisy_scene):
        _, depth = noisy_scene
        assert depth.valid.all()
        stack = build_rgbd_implicit_channels(depth, small_maps)
        assert stack.per_frame_channel_names() == ("tx_over_z", "ty_over_z", "inv_z", "inv_z2")
        assert stack.holes is None and stack.hole_tan is None


class TestNoiselessRecovery:
    def test_axis_aligned_plane_all_formulations(self, small_maps):
        depth, _ = render_scene(
            SyntheticScene((GroundTruthPlane(np.array([0.0, 0.0, 1.0, -3.0])),)), small_maps
        )
        expected = np.array([0.0, 0.0, 1.0, -3.0]) / np.sqrt(10)
        rect = Rect(0, 0, 64, 48)
        for formulation in FORMULATIONS:
            stack = STACK_BUILDERS[formulation](depth, small_maps)
            result = FITTERS[formulation](
                scatter_from_integrals(stack, rect, formulation)
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
        rect = Rect(0, 0, 64, 48)
        for _ in range(25):
            plane = random_visible_plane(rng)
            depth, _ = render_scene(SyntheticScene((plane,)), small_maps)
            truth = canonicalize_implicit(plane.coefficients)
            for formulation in FORMULATIONS:
                stack = STACK_BUILDERS[formulation](depth, small_maps)
                result = FITTERS[formulation](
                    scatter_from_integrals(stack, rect, formulation)
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
        for _ in range(25):
            plane = random_visible_plane(rng)
            depth, _ = render_scene(SyntheticScene((plane,)), small_maps)
            standard = build_standard_implicit_channels(depth, small_maps)
            inverse = build_rgbd_implicit_channels(depth, small_maps)
            std = fit_implicit_standard(scatter_from_integrals(standard, rect, IMPLICIT_STANDARD))
            rgbd = fit_implicit_rgbd(scatter_from_integrals(inverse, rect, IMPLICIT_RGBD))
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


class TestOverflowingInverseDepths:
    """A positive depth whose 1/Z or 1/Z^2 overflows is a hole, as a zero
    depth is: at 1e-310 m (subnormal) 1/Z overflows, at 1e-200 m 1/Z^2."""

    @pytest.mark.parametrize("tiny", [1e-310, 1e-200])
    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_pixel_counts_as_a_hole(self, small_maps, formulation, tiny):
        rendered, _ = render_scene(corner_scene(), small_maps, noise=NoiseModel(), seed=2)
        assert rendered.valid.all()
        values = rendered.values.copy()
        values[20, 30] = tiny
        depth = DepthImage(values=values)
        valid = np.ones((48, 64), dtype=bool)
        valid[20, 30] = False
        np.testing.assert_array_equal(depth.valid, valid)
        marked = DepthImage(values=rendered.values, valid=valid)  # the pixel marked a hole
        rects = [
            Rect(24, 16, 40, 28), Rect(0, 0, 64, 48), Rect(30, 20, 31, 21), Rect(16, 16, 32, 32),
        ]
        for backend in ("naive", "integral"):
            stacks = [build_channels(d, small_maps, formulation) for d in (depth, marked)]
            for rect in rects:
                got, want = (
                    _fit_or_none(d, small_maps, rect, formulation, backend, s)
                    for d, s in zip((depth, marked), stacks)
                )
                if rect.area == 1:
                    assert got is want is None
                    continue
                holds_it = rect.x0 <= 30 < rect.x1 and rect.y0 <= 20 < rect.y1
                assert got.n_points == rect.area - holds_it
                assert np.isfinite(got.plane.coefficients).all() and not got.degenerate
                np.testing.assert_array_equal(got.plane.coefficients, want.plane.coefficients)
                assert (got.n_points, got.rms_residual) == (want.n_points, want.rms_residual)
        got, want = (fit_rects(s, np.array(rects), formulation) for s in stacks)
        for name in ("coefficients", "rms", "eigenvalue", "n_points", "degenerate"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        config = SegConfig(formulation=formulation, initial_tile=16, max_depth=2)
        got, want = (segment(d, small_maps, config) for d in (depth, marked))
        assert got.to_csv() == want.to_csv()
        assert got.labels.tobytes() == want.labels.tobytes()
        fitted = got.fits.fitted
        assert fitted.any() and np.isfinite(got.fits.coefficients[fitted]).all()
        assert got.fits.coefficients.tobytes() == want.fits.coefficients.tobytes()


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
                scatter_from_integrals(stack, rect, EXPLICIT_RGBD)
            )
            np.testing.assert_array_equal(
                cached.plane.coefficients, fresh.plane.coefficients
            )
            assert cached.rms_residual == fresh.rms_residual
        assert list(fitter._windows) == [rect]  # one window, one record, one factorization

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

    def test_matches_fit_rects_per_window(self, small_maps):
        # the fitter's own path (one indexed read, cached factors, substitution
        # on floats) against the batch, on a frame with a block of holes
        rng = np.random.default_rng(24)
        depth, _ = render_scene(
            SyntheticScene((random_visible_plane(rng),)), small_maps, noise=NoiseModel(), seed=8
        )
        valid = depth.valid.copy()
        valid[20:26, 30:36] = False
        depth = DepthImage(values=depth.values, valid=valid)
        constant = build_constant_channels(small_maps)
        fitter = ExplicitRgbdFitter(constant)
        stack = build_rgbd_explicit_channels(depth, small_maps)
        hole_free = [Rect(0, 0, 16, 16), Rect(40, 30, 64, 48), Rect(0, 44, 64, 45)]
        column = Rect(5, 0, 6, 48)  # constant tan_x: a singular camera-constant matrix
        holey = [Rect(24, 16, 48, 40), Rect(0, 0, 64, 48), Rect(32, 10, 33, 40)]
        empty = Rect(31, 21, 33, 23)  # all holes
        rects = hole_free + [column] + holey + [empty] + _batch_windows(rng)
        assert all(valid[r.y0 : r.y1, r.x0 : r.x1].all() for r in hole_free + [column])
        assert not any(valid[r.y0 : r.y1, r.x0 : r.x1].all() for r in holey)
        assert fitter.factor_for(column) is None
        batch = fit_rects(stack, np.array(rects), EXPLICIT_RGBD)
        for rect, want in zip(rects, batch):
            if want is None:
                with pytest.raises(InsufficientSamplesError):
                    fitter.fit(stack, rect)
                continue
            # one scalar explicit solve serves both paths: bit-identical
            got = fitter.fit(stack, rect)
            np.testing.assert_array_equal(got.plane.coefficients, want.plane.coefficients)
            assert got.degenerate == want.degenerate, rect
            assert got.n_points == want.n_points, rect
            assert got.rms_residual == want.rms_residual, rect
        assert batch[rects.index(empty)] is None
        # the hole-free sliver takes the minimum-norm path, flagged degenerate
        assert batch[rects.index(column)].degenerate
        # so does the holey 1-px column, as the naive oracle says: its tan
        # sums keep their digits, so its rank-2 system fails a pivot
        holey_column = Rect(32, 10, 33, 40)
        assert fit_rect(depth, small_maps, holey_column, EXPLICIT_RGBD, "naive").degenerate
        assert batch[rects.index(holey_column)].degenerate
        assert fit_rect(
            depth, small_maps, holey_column, EXPLICIT_RGBD, "integral", stack
        ).degenerate

    def test_fit_rect_dispatch(self, small_maps):
        depth, _ = render_scene(
            SyntheticScene((GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0])),)), small_maps
        )
        constant = build_constant_channels(small_maps)
        stack = build_rgbd_explicit_channels(depth, small_maps)
        rect = Rect(0, 0, 32, 32)
        a = fit_rect(depth, small_maps, rect, EXPLICIT_RGBD, "naive")
        b = fit_rect(
            depth, small_maps, rect, EXPLICIT_RGBD, "integral", stack=stack
        )
        fitter = ExplicitRgbdFitter(constant)
        c = fit_rect(
            depth, small_maps, rect, EXPLICIT_RGBD, "integral",
            stack=stack, rgbd_fitter=fitter,
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
        assert not fitter._windows  # nothing cached for a rejected rect

    def test_matrix_for_equals_assembled_matrix(self, small_maps, noisy_scene):
        _, depth = noisy_scene
        assert depth.valid.all()
        constant = build_constant_channels(small_maps)
        fitter = ExplicitRgbdFitter(constant)
        stack = build_rgbd_explicit_channels(depth, small_maps)
        for rect in (Rect(5, 3, 45, 43), Rect(0, 0, 64, 48), Rect(61, 40, 64, 47)):
            assembled = scatter_from_integrals(stack, rect, EXPLICIT_RGBD)
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
                stack=stack, rgbd_fitter=fitter,
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
        with pytest.raises(ValueError, match="another camera"):
            fitter.fit(build_rgbd_explicit_channels(depth, other), Rect(0, 0, 20, 20))

    def test_rejects_stack_from_another_camera_of_the_same_size(self, small_maps):
        # a dimension check passed this stack, and its hole-free window was
        # solved with the other camera's matrix: (10.94, 7.53, 9.40) against
        # the camera's (-0.635, 0, 0.635)
        from rangefit import CameraIntrinsics, compute_tan_maps
        from rangefit.fitting import camera_fitter

        wider = compute_tan_maps(
            CameraIntrinsics(fx=45.0, fy=45.0, cx=31.5, cy=23.5, width=64, height=48)
        )
        depth, _ = render_scene(corner_scene(), small_maps)
        stack = build_rgbd_explicit_channels(depth, small_maps)
        rect = Rect(0, 0, 16, 16)
        assert depth.valid[:16, :16].all()
        fitter = ExplicitRgbdFitter(build_constant_channels(wider))
        with pytest.raises(ValueError, match=r"fitting\.camera_fitter\(stack\.maps\)"):
            fitter.fit(stack, rect)
        assert not fitter._windows  # raised before any record was built
        want = camera_fitter(small_maps).fit(stack, rect)
        got = ExplicitRgbdFitter(build_constant_channels(small_maps)).fit(stack, rect)
        np.testing.assert_array_equal(got.plane.coefficients, want.plane.coefficients)
        naive = fit_rect(depth, small_maps, rect, EXPLICIT_RGBD, "naive")
        np.testing.assert_allclose(
            got.plane.coefficients, naive.plane.coefficients, atol=1e-9
        )

    def test_holey_windows_skip_the_caller_check(self, small_maps, monkeypatch):
        # a holey window's scatter is assembled by the library, symmetric by
        # construction: only a caller's matrix goes through fitting._checked
        from rangefit import fitting

        depth, _ = render_scene(
            SyntheticScene((random_visible_plane(np.random.default_rng(17)),)),
            small_maps, noise=NoiseModel(), seed=5, dropout=0.2,
        )
        constant = build_constant_channels(small_maps)
        stack = build_rgbd_explicit_channels(depth, small_maps)
        rect = Rect(4, 4, 44, 44)
        assert not depth.valid[4:44, 4:44].all()
        want = fit_explicit_rgbd(scatter_from_integrals(stack, rect, EXPLICIT_RGBD))

        def refuse(matrices):
            raise AssertionError("an assembled scatter went through the caller check")

        monkeypatch.setattr(fitting, "_checked", refuse)
        got = ExplicitRgbdFitter(constant).fit(stack, rect)
        np.testing.assert_array_equal(got.plane.coefficients, want.plane.coefficients)
        assert (got.n_points, got.rms_residual, got.degenerate) == (
            want.n_points, want.rms_residual, want.degenerate
        )


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
        stack = STACK_BUILDERS[formulation](depth, small_maps)
        rects = _batch_windows(rng)
        batch = fit_rects(stack, np.array(rects), formulation)
        assert len(batch) == len(rects)
        for rect, got in zip(rects, batch):
            try:
                want = fit_rect(
                    depth, small_maps, rect, formulation, "integral", stack=stack
                )
            except InsufficientSamplesError:
                assert got is None
                continue
            assert got.degenerate == want.degenerate
            assert got.n_points == want.n_points
            if formulation in (EXPLICIT_STANDARD, EXPLICIT_RGBD):
                # the batched Cholesky rounds as the scalar one: bit-identical
                np.testing.assert_array_equal(got.plane.coefficients, want.plane.coefficients)
                assert got.rms_residual == want.rms_residual
                assert got.eigenvalue is want.eigenvalue is None
            else:
                np.testing.assert_allclose(
                    got.plane.coefficients, want.plane.coefficients, rtol=1e-12, atol=1e-12
                )
                assert got.rms_residual == pytest.approx(want.rms_residual, rel=1e-9, abs=1e-15)
                assert got.eigenvalue == pytest.approx(want.eigenvalue, rel=1e-9, abs=1e-12)
        if formulation == EXPLICIT_RGBD:
            # a one-pixel-wide sliver has constant tan_x: rank deficient, so
            # the minimum-norm fallback runs inside the batch
            assert any(r is not None and r.degenerate for r in batch)

    @pytest.mark.parametrize("formulation", [IMPLICIT_RGBD, EXPLICIT_RGBD])
    def test_mixed_batch_matches_naive(self, small_maps, formulation):
        # localized holes: one batch mixes hole-free and holey windows, and
        # every window reads the constant tan sums, less its holes' if any
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
        for rect, got in zip(rects, fit_rects(stack, np.array(rects), formulation)):
            naive = fit_rect(depth, small_maps, rect, formulation, "naive")
            assert got.n_points == naive.n_points
            a, b = implicit_from_result(naive), implicit_from_result(got)
            assert np.abs(a - b).max() <= 1e-6, rect

    def test_too_small_windows_give_none(self, small_maps):
        masked = GroundTruthPlane(np.array([0.0, 0.0, 1.0, -2.0]), mask_rect=(0, 0, 32, 48))
        depth, _ = render_scene(SyntheticScene((masked,)), small_maps)
        rects = np.array([[40, 8, 60, 28], [0, 0, 2, 1], [4, 4, 4, 9], [0, 0, 8, 8]])
        for formulation in FORMULATIONS:
            stack = STACK_BUILDERS[formulation](depth, small_maps)
            results = fit_rects(stack, rects, formulation)
            assert results[:3] == [None, None, None]
            assert results[3] is not None and results[3].n_points == 64

    def test_empty_rect_array(self, small_maps, noisy_scene):
        _, depth = noisy_scene
        for formulation in FORMULATIONS:
            stack = STACK_BUILDERS[formulation](depth, small_maps)
            for empty in (np.zeros((0, 4), dtype=np.int64), [], np.array([], dtype=np.int64)):
                assert len(fit_rects(stack, empty, formulation)) == 0

    @pytest.mark.parametrize(
        "rect",
        [(-60, 0, 10, 10), (60, 0, 70, 10), (30, 10, 10, 30), (0, 30, 10, 10), (0, 0, 65, 48)],
        ids=["negative-x0", "past-right-edge", "inverted-x", "inverted-y", "past-full-width"],
    )
    def test_rejects_out_of_bounds_and_inverted_rects(self, small_maps, noisy_scene, rect):
        _, depth = noisy_scene
        for formulation in FORMULATIONS:
            stack = STACK_BUILDERS[formulation](depth, small_maps)
            with pytest.raises(ValueError, match="out of bounds"):
                fit_rects(stack, np.array([[0, 0, 8, 8], rect]), formulation)

    def test_rejects_malformed_arrays_and_mismatched_stacks(self, small_maps, noisy_scene):
        _, depth = noisy_scene
        stack = build_rgbd_implicit_channels(depth, small_maps)
        with pytest.raises(ValueError, match="integer"):
            fit_rects(stack, np.array([[0.0, 0.0, 8.0, 8.0]]), IMPLICIT_RGBD)
        with pytest.raises(ValueError, match=r"\(N, 4\)"):
            fit_rects(stack, np.array([0, 0, 8, 8]), IMPLICIT_RGBD)
        for shape in ((2, 0), (0, 3), (0, 0), (0, 4, 1)):
            # empty but malformed: these returned [] when only non-empty input was checked
            with pytest.raises(ValueError, match=r"\(N, 4\)"):
                fit_rects(stack, np.zeros(shape, dtype=np.int64), IMPLICIT_RGBD)
        standard = build_standard_implicit_channels(depth, small_maps)
        with pytest.raises(ValueError, match="missing channels: tx_over_z, ty_over_z, inv_z"):
            fit_rects(standard, np.array([[0, 0, 8, 8]]), IMPLICIT_RGBD)


# Each space's two formulations and the position of the explicit target (Z
# in [X, Y, Z, 1], 1/Z in [tan_x, tan_y, 1, 1/Z]), stated apart from the table.
_SPACES = {
    "standard": (IMPLICIT_STANDARD, EXPLICIT_STANDARD, 2),
    "rgbd": (IMPLICIT_RGBD, EXPLICIT_RGBD, 3),
}


class TestRankTwoWindows:
    """1-px rows and columns are rank 2 in the rgbd tan monomials (tan_y or
    tan_x is constant along them), so every fit of one is degenerate, also
    in the far corner of a 1080p frame, where the constant's tan sums must
    keep their digits for a pivot or an eigenvalue gap to show it."""

    @pytest.mark.parametrize("seed", [4, 5])
    def test_far_edge_slivers_of_a_1080p_frame_are_degenerate(self, seed):
        from rangefit import CameraIntrinsics, compute_tan_maps

        width, height = 1920, 1080
        maps = compute_tan_maps(CameraIntrinsics(
            fx=1000.0, fy=1000.0, cx=959.5, cy=539.5, width=width, height=height
        ))
        depth, _ = render_scene(corner_scene(), maps, noise=NoiseModel(), seed=seed, dropout=0.05)
        rects = [Rect(x, height - 1, x + 20, height) for x in range(0, width, 20)]
        rects += [Rect(width - 1, y, width, y + 20) for y in range(0, height, 20)]
        rects += [Rect(0, height - 1, width, height), Rect(width - 1, 0, width, height)]
        constant = build_constant_channels(maps)
        fitter = ExplicitRgbdFitter(constant)
        for formulation in (IMPLICIT_RGBD, EXPLICIT_RGBD):
            stack = build_channels(depth, maps, formulation)
            batch = fit_rects(stack, np.array(rects), formulation)
            for rect, fit in zip(rects, batch):
                assert fit.degenerate, (formulation, rect)
                one = fit_rect(depth, maps, rect, formulation, "integral", stack)
                assert one.degenerate, (formulation, rect)
                if formulation == EXPLICIT_RGBD:
                    assert fitter.fit(stack, rect).degenerate, rect


def _space_frame(small_maps, holes: bool) -> DepthImage:
    """A noisy plane; with ``holes``, 10% dropout and a 6x6 block of holes."""
    rng = np.random.default_rng(31)
    depth, _ = render_scene(
        SyntheticScene((random_visible_plane(rng),)), small_maps, noise=NoiseModel(), seed=9,
        dropout=0.1 if holes else 0.0,
    )
    if holes:
        valid = depth.valid.copy()
        valid[20:26, 30:36] = False
        depth = DepthImage(values=depth.values, valid=valid)
    return depth


_SPACE_WINDOWS = [
    Rect(0, 0, 64, 48), Rect(5, 3, 45, 43), Rect(28, 18, 40, 30), Rect(0, 0, 16, 16),
    Rect(50, 30, 64, 48), Rect(10, 5, 11, 40), Rect(31, 21, 35, 25), Rect(7, 7, 9, 8),
]


def _fit_or_none(*args, **kwargs):
    try:
        return fit_rect(*args, **kwargs)
    except InsufficientSamplesError:
        return None


class TestOneScatterPerSpace:
    """An explicit system is its space's implicit scatter with the target moved
    to the right-hand side, so one frame stack serves both formulations."""

    @pytest.mark.parametrize("space", _SPACES)
    def test_explicit_system_partitions_the_implicit_scatter(self, small_maps, space):
        implicit, explicit, t = _SPACES[space]
        kept = [i for i in range(4) if i != t]
        depth = _space_frame(small_maps, holes=True)
        windows = _SPACE_WINDOWS[:5]
        assert any(not depth.valid[r.y0 : r.y1, r.x0 : r.x1].all() for r in windows)
        for formulation in (implicit, explicit):
            stack = build_channels(depth, small_maps, formulation)
            for rect in windows:
                full = scatter_from_integrals(stack, rect, implicit)
                part = scatter_from_integrals(stack, rect, explicit)
                np.testing.assert_array_equal(part.matrix, full.matrix[np.ix_(kept, kept)])
                np.testing.assert_array_equal(part.rhs, full.matrix[kept, t])
                assert part.target_sq == full.matrix[t, t]
                assert part.n == full.n
        for rect in windows:
            samples = gather_window_samples(depth, small_maps, rect, implicit)
            full = accumulate_scatter_naive(samples, implicit).matrix
            part = accumulate_scatter_naive(samples, explicit)
            scale = np.abs(full).max()
            assert np.abs(part.matrix - full[np.ix_(kept, kept)]).max() <= 1e-12 * scale
            assert np.abs(part.rhs - full[kept, t]).max() <= 1e-12 * scale
            assert abs(part.target_sq - full[t, t]) <= 1e-12 * scale

    @pytest.mark.parametrize("holes", [False, True], ids=["hole-free", "holey"])
    @pytest.mark.parametrize("space", _SPACES)
    def test_one_stack_serves_both_formulations(self, small_maps, space, holes):
        depth = _space_frame(small_maps, holes)
        constant = build_constant_channels(small_maps)
        pair = _SPACES[space][:2]
        stacks = [build_channels(depth, small_maps, f) for f in pair]
        rects = np.array(_SPACE_WINDOWS)
        for formulation in pair:
            a, b = (fit_rects(s, rects, formulation) for s in stacks)
            for name in ("coefficients", "rms", "eigenvalue", "n_points", "degenerate"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
            for rect in _SPACE_WINDOWS:
                one, other = (
                    _fit_or_none(depth, small_maps, rect, formulation, "integral", s)
                    for s in stacks
                )
                assert (one is None) == (other is None), rect
                if one is not None:
                    np.testing.assert_array_equal(one.plane.coefficients, other.plane.coefficients)
                    assert one.rms_residual == other.rms_residual, rect
                    assert one.eigenvalue == other.eigenvalue, rect
                    assert (one.n_points, one.degenerate) == (other.n_points, other.degenerate)
        if space == "rgbd":
            fitter = ExplicitRgbdFitter(constant)
            for rect in _SPACE_WINDOWS[:6]:
                one, other = (fitter.fit(s, rect) for s in stacks)
                np.testing.assert_array_equal(one.plane.coefficients, other.plane.coefficients)
                assert one.rms_residual == other.rms_residual, rect
                assert (one.n_points, one.degenerate) == (other.n_points, other.degenerate)

    @pytest.mark.parametrize("space", _SPACES)
    def test_implicit_fit_needs_the_residual_channel(self, small_maps, space):
        implicit, explicit, _ = _SPACES[space]
        depth = _space_frame(small_maps, holes=True)
        lean = build_channels(depth, small_maps, explicit, include_residual=False)
        rect = Rect(5, 3, 45, 43)
        with pytest.raises(ValueError, match=r"missing channels: (z2|inv_z2)$"):
            fit_rect(depth, small_maps, rect, implicit, "integral", lean)
        with pytest.raises(ValueError, match=r"missing channels: (z2|inv_z2)$"):
            fit_rects(lean, np.array([rect]), implicit)


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
