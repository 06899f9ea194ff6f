"""Dense-kernel tests: the smallest-eigenvector solve and the 3x3 Cholesky solver."""

from __future__ import annotations

import numpy as np
import pytest

from rangefit import (
    EXPLICIT_STANDARD,
    FORMULATIONS,
    DegenerateFitError,
    NoiseModel,
    Rect,
    Scatter3,
    Scatter4,
    SyntheticScene,
    build_channels,
    fit_explicit_rgbd,
    fit_explicit_standard,
    fit_implicit_rgbd,
    fit_implicit_standard,
    fit_rect,
    render_scene,
    scatter_from_integrals,
    smallest_eigenvector,
    solve_spd3,
)
from rangefit.fitting import (
    FIT_BY_FORMULATION,
    _cholesky3_batch,
    cholesky3,
    fit_sums,
    solve_cholesky3,
)
from rangefit.integral import FORMULATION_CHANNELS

from conftest import random_visible_plane


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    m = rng.standard_normal((rank or n + 2, n)) * rng.uniform(0.1, 10)
    return m.T @ m


class TestSmallestEigenvector:
    def test_identity_degenerate_tie(self):
        v, lam = smallest_eigenvector(np.eye(4))
        assert lam == pytest.approx(1.0, rel=1e-14)
        residual = np.linalg.norm(np.eye(4) @ v - lam * v)
        assert residual < 1e-12
        # a tied smallest eigenvalue leaves the plane ambiguous
        assert fit_implicit_standard(Scatter4(matrix=3.0 * np.eye(4), n=8)).degenerate
        assert not fit_implicit_standard(Scatter4(matrix=np.diag([4.0, 3.0, 2.0, 1.0]), n=8)).degenerate

    def test_simple_diagonal(self):
        v, lam = smallest_eigenvector(np.diag([4.0, 3.0, 2.0, 1.0]))
        assert lam == 1.0
        np.testing.assert_allclose(np.abs(v), [0, 0, 0, 1], atol=1e-14)

    def test_residual_and_rayleigh_bound_on_random_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            s = random_psd(rng, 4)
            v, lam = smallest_eigenvector(s)
            fro = np.linalg.norm(s)
            assert np.linalg.norm(s @ v - lam * v) <= 1e-10 * fro
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            # the smallest eigenvalue lower-bounds every Rayleigh quotient
            probes = rng.standard_normal((50, 4))
            probes /= np.linalg.norm(probes, axis=1, keepdims=True)
            quotients = np.einsum("ij,jk,ik->i", probes, s, probes)
            assert lam <= quotients.min() + 1e-9 * fro

    def test_zero_matrix(self):
        v, lam = smallest_eigenvector(np.zeros((4, 4)))
        assert lam == 0.0
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            smallest_eigenvector(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_finite(self):
        s = np.eye(4)
        s[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            smallest_eigenvector(s)
        s[1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            fit_implicit_standard(Scatter4(matrix=s, n=8))


class TestSolveSpd3:
    def test_identity(self):
        np.testing.assert_allclose(solve_spd3(np.eye(3), np.array([1.0, 2.0, 3.0])), [1, 2, 3])

    def test_scaled_diagonal(self):
        np.testing.assert_allclose(
            solve_spd3(np.diag([2.0, 2.0, 2.0]), np.array([2.0, 4.0, 6.0])), [1, 2, 3]
        )

    def test_residual_on_random_spd(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            s = random_psd(rng, 3)
            rhs = rng.standard_normal(3) * rng.uniform(0.1, 100)
            x = solve_spd3(s, rhs)
            assert np.linalg.norm(s @ x - rhs) <= 1e-9 * max(np.linalg.norm(rhs), 1e-30)

    def test_rank_deficient_raises(self):
        # two identical monomial columns
        m = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 1.0], [3.0, 3.0, 1.0], [4.0, 4.0, 1.0]])
        s = m.T @ m
        with pytest.raises(DegenerateFitError):
            solve_spd3(s, np.ones(3))

    def test_first_pivot_under_the_floor(self):
        # p0 = 1e-14 lies under 1e-12 of the trace (6): the fit is degenerate
        bad = np.diag([1e-14, 1.0, 5.0])
        with pytest.raises(DegenerateFitError, match="pivot 1"):
            cholesky3(bad)
        # a well-posed explicit-standard system beside it: [X, Y, 1] of six
        # samples of Z = 0.1 X + 0.2 Y + 2
        xy = np.random.default_rng(4).uniform(-1.0, 1.0, (6, 2))
        m = np.column_stack([xy, np.ones(6)])
        z = m @ np.array([0.1, 0.2, 2.0])
        matrices = np.stack([m.T @ m, bad])
        _, solvable = _cholesky3_batch(matrices)
        assert solvable.tolist() == [True, False]
        spec = FORMULATION_CHANNELS[EXPLICIT_STANDARD]
        sums = {k: matrices[:, i, j] for k, i, j in zip(spec.layout, *np.triu_indices(3))}
        sums.update(zip(spec.rhs, np.stack([m.T @ z, np.ones(3)]).T))
        assert sums["n"].tolist() == [6.0, 5.0]
        batch = fit_sums(sums, EXPLICIT_STANDARD)
        assert batch.degenerate.tolist() == [False, True]
        np.testing.assert_allclose(batch.coefficients[0], [0.1, 0.2, 2.0], rtol=0, atol=1e-12)

    def test_factor_reuse_matches_direct_solve(self):
        rng = np.random.default_rng(3)
        s = random_psd(rng, 3)
        factor = cholesky3(s)
        for _ in range(5):
            rhs = rng.standard_normal(3)
            np.testing.assert_array_equal(solve_cholesky3(factor, rhs), solve_spd3(s, rhs))

    def test_pinv_solve_minimum_norm(self):
        # rank-2 system: the flagged fallback solution must lie in the row space
        m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        result = fit_explicit_standard(
            Scatter3(matrix=m.T @ m, rhs=np.array([2.0, 3.0, 0.0]), n=5)
        )
        assert result.degenerate
        np.testing.assert_allclose(result.plane.coefficients, [2.0, 3.0, 0.0], atol=1e-12)


_CALLER_FITS = {
    "implicit-standard": (fit_implicit_standard, 4),
    "implicit-rgbd": (fit_implicit_rgbd, 4),
    "explicit-standard": (fit_explicit_standard, 3),
    "explicit-rgbd": (fit_explicit_rgbd, 3),
}


def _caller_scatter(matrix: np.ndarray):
    if len(matrix) == 4:
        return Scatter4(matrix=matrix, n=8)
    return Scatter3(matrix=matrix, rhs=np.ones(3), n=8)


class TestCallerScatters:
    """``fit_*`` check a caller's scatter; ``fit_rect``'s are symmetric by construction."""

    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_asymmetric_or_non_finite_matrices_are_rejected(self, formulation):
        fit, size = _CALLER_FITS[formulation]
        asymmetric = np.eye(size) * 4.0
        asymmetric[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            fit(_caller_scatter(asymmetric))
        for bad in (np.nan, np.inf):
            matrix = np.eye(size) * 4.0
            matrix[1, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                fit(_caller_scatter(matrix))

    def test_assembled_scatters_fit_as_a_caller_s_do(self, small_maps):
        rng = np.random.default_rng(5)
        depth, _ = render_scene(
            SyntheticScene((random_visible_plane(rng),)), small_maps, noise=NoiseModel(), seed=6
        )
        for formulation in FORMULATIONS:
            stack = build_channels(depth, small_maps, formulation)
            fit, _ = _CALLER_FITS[formulation]
            for rect in (Rect(0, 0, 64, 48), Rect(5, 7, 21, 30)):
                scatter = scatter_from_integrals(stack, rect, formulation)
                ours = fit_rect(depth, small_maps, rect, formulation, "integral", stack)
                for result in (FIT_BY_FORMULATION[formulation](scatter), fit(scatter)):
                    np.testing.assert_array_equal(result.plane.coefficients, ours.plane.coefficients)
                    assert (result.n_points, result.degenerate) == (ours.n_points, ours.degenerate)
                    assert (result.rms_residual, result.eigenvalue) == (ours.rms_residual, ours.eigenvalue)
