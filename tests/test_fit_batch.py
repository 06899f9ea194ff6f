"""FitBatch: batched fits as arrays, their vectorised canonical form and cluster features."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rangefit import (
    FORMULATIONS,
    ExplicitPlane,
    FitBatch,
    GroundTruthPlane,
    NoiseModel,
    SyntheticScene,
    build_channels,
    canonicalize_implicit,
    explicit_to_implicit,
    fit_rects,
    render_scene,
    tile_features,
)
from rangefit.fitting import (
    SPACE_RGBD,
    SPACE_STANDARD,
    canonicalize_implicit_rows,
    explicit_to_implicit_rows,
)
from rangefit.segment import D_SCALE

from conftest import random_visible_plane

PROPERTY = settings(max_examples=300, deadline=None, database=None)

_EPS = 1e-9  # fitting's canonical sign threshold
_TIE = 1e-12  # tile_features' d == 0 tie threshold
# magnitudes at and around both thresholds, plus zero, tiny and ordinary ones
_SPECIAL = [
    0.0, 1e-300, 1e-170, 1e-13, _TIE, math.nextafter(_TIE, 1.0), 5e-10,
    math.nextafter(_EPS, 0.0), _EPS, math.nextafter(_EPS, 1.0), 2e-9, 1e-6, 0.3, 1.0, 7.5,
]
component = st.one_of(
    st.sampled_from(_SPECIAL + [-v for v in _SPECIAL]),
    st.floats(-10.0, 10.0),
    st.floats(-2e-9, 2e-9),
    st.floats(-1e200, 1e200),
)


def rows_of(width: int):
    return st.lists(st.tuples(*[component] * width), min_size=1, max_size=12).map(
        lambda rows: np.array(rows, dtype=np.float64)
    )


def old_tile_features(coef: np.ndarray) -> np.ndarray:
    """The per-tile feature vector as it was computed before batching (reference)."""
    coef = coef.copy()
    norm = float(np.linalg.norm(coef[:3]))
    if norm == 0:
        raise ValueError("fit has a degenerate normal")
    coef /= norm
    if coef[3] < 0 or (coef[3] == 0 and _first_nonzero_sign(coef[:3]) < 0):
        coef = -coef
    return np.array([coef[0], coef[1], coef[2], coef[3] / D_SCALE])


def _first_nonzero_sign(values: np.ndarray) -> float:
    for v in (values[2], values[1], values[0]):
        if abs(v) > _TIE:
            return 1.0 if v > 0 else -1.0
    return 1.0


def assert_row_matches(got: np.ndarray, want: np.ndarray) -> None:
    """Exactly the same signs, and values within 2 ulp."""
    assert np.array_equal(np.signbit(got), np.signbit(want)), (got, want)
    assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want))), (got, want)


class TestVectorisedRowsMatchScalar:
    @PROPERTY
    @given(rows_of(4))
    @example(np.array([[0.0, 0.0, -_EPS, 1.0], [0.0, 0.0, -2e-9, 1.0], [-1e-13] * 4]))
    @example(np.array([[0.0] * 4, [1e-170, -1e-170, 1e-170, 0.0], [1e200, 1e200, 0.0, 1.0]]))
    def test_canonicalize_rows(self, rows):
        got = canonicalize_implicit_rows(rows)
        for row, out in zip(rows, got):
            try:
                with np.errstate(over="ignore"):
                    want = canonicalize_implicit(row)
            except ValueError:  # zero or non-finite norm
                assert np.isnan(out).all()
                continue
            assert_row_matches(out, want)

    @pytest.mark.parametrize("vector, unit", [
        ([1e-170, -1e-170, 1e-170, 0.0], [1.0, -1.0, 1.0, 0.0]),  # squares underflow
        ([1e200, 1e200, 0.0, 1.0], [1.0, 1.0, 0.0, 1e-200]),  # squares overflow
    ])
    def test_extreme_magnitudes_canonicalize(self, vector, unit):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = canonicalize_implicit(np.array(vector))
            rows = canonicalize_implicit_rows(np.array([vector]))
        np.testing.assert_allclose(got, np.array(unit) / np.linalg.norm(unit), rtol=1e-15)
        assert_row_matches(rows[0], got)

    @PROPERTY
    @given(rows_of(3), st.sampled_from([SPACE_STANDARD, SPACE_RGBD]))
    @example(np.array([[0.0, 0.0, 0.0], [-1e-13, 5e-10, -_EPS]]), SPACE_STANDARD)
    @example(np.array([[0.0, 0.0, 0.0], [-1e-13, 5e-10, -_EPS]]), SPACE_RGBD)
    def test_explicit_to_implicit_rows(self, rows, space):
        got = explicit_to_implicit_rows(rows, space)
        for row, out in zip(rows, got):
            try:
                with np.errstate(over="ignore"):
                    want = explicit_to_implicit(ExplicitPlane(row, space)).coefficients
            except ValueError:  # a component so large its norm overflows
                assert np.isnan(out).all()
                continue
            assert_row_matches(out, want)

    @PROPERTY
    @given(rows_of(4))
    @example(np.array([[-1.0, 0.0, 0.0, 0.0], [0.3, 1.0, -5e-10, 0.0], [0.3, 1.0, -1e-13, 0.0]]))
    @example(np.array([[0.0, 1.0, -_TIE, 0.0], [0.0, -1.0, math.nextafter(_TIE, 1.0), -0.0]]))
    @example(np.array([[0.0, 0.0, 2.146e-112, 3.858e196]]))  # offset / norm overflows
    def test_tile_features(self, rows):
        with np.errstate(over="ignore"):
            normal_norms = np.array([float(np.linalg.norm(r[:3])) for r in rows])
        if not np.isfinite(normal_norms).all():
            return  # an overflowing normal is no fit
        if (normal_norms == 0).any():
            with pytest.raises(ValueError, match="degenerate normal"):
                tile_features(rows)
            return
        with np.errstate(over="ignore"):  # a huge offset over a tiny normal is inf
            got = tile_features(rows)
            want = [old_tile_features(row) for row in rows]
        for out, ref in zip(got, want):
            finite = np.isfinite(ref)
            # the ulp test cannot compare inf, so non-finite entries must be equal
            assert np.array_equal(out[~finite], ref[~finite]), (out, ref)
            assert_row_matches(out[finite], ref[finite])

    def test_canonical_rows_of_real_fits_match_their_results(self, small_maps):
        # on fits, every row is the canonical vector FitResult carries
        rng = np.random.default_rng(3)
        depth, _ = render_scene(
            SyntheticScene((random_visible_plane(rng), random_visible_plane(rng))),
            small_maps, noise=NoiseModel(), seed=2, dropout=0.05,
        )
        rects = np.array([[x, y, x + 8, y + 8] for y in range(0, 41, 4) for x in range(0, 57, 4)])
        for formulation in FORMULATIONS:
            batch = fit_rects(build_channels(depth, small_maps, formulation), rects, formulation)
            for result, canonical in zip(batch, batch.canonical):
                plane = result.plane
                if isinstance(plane, ExplicitPlane):
                    plane = explicit_to_implicit(plane)
                assert_row_matches(canonical, plane.coefficients)

    def test_rejects_malformed_shapes(self):
        with pytest.raises(ValueError, match=r"\(N, 4\)"):
            canonicalize_implicit_rows(np.ones(4))
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            explicit_to_implicit_rows(np.ones((2, 4)), SPACE_RGBD)
        with pytest.raises(ValueError, match="space"):
            explicit_to_implicit_rows(np.ones((2, 3)), "disparity")
        with pytest.raises(ValueError, match=r"\(N, 4\)"):
            tile_features(np.ones(4))


class TestFitBatchRows:
    @pytest.fixture
    def batch(self, small_maps) -> tuple[FitBatch, np.ndarray]:
        masked = GroundTruthPlane(np.array([0.1, 0.0, 1.0, -2.0]), mask_rect=(0, 0, 32, 48))
        depth, _ = render_scene(SyntheticScene((masked,)), small_maps, noise=NoiseModel(), seed=4)
        rects = np.array([[8, 8, 28, 28], [40, 0, 60, 20], [4, 4, 12, 12], [4, 4, 4, 9]])
        stack = build_channels(depth, small_maps, FORMULATIONS[1])
        return fit_rects(stack, rects, FORMULATIONS[1]), rects

    def test_unfitted_rows_read_none(self, batch):
        batch, rects = batch
        assert len(batch) == len(rects)
        assert batch.fitted.tolist() == [True, False, True, False]
        assert [r is None for r in batch] == [False, True, False, True]
        assert batch[-1] is None and batch[1:3][0] is None
        assert np.isnan(batch.coefficients[1]).all() and np.isnan(batch.rms[1])
        assert np.isnan(batch.canonical[1]).all()
        assert batch.n_points[1] == 0 and not batch.degenerate[1]
        with pytest.raises(IndexError):
            batch[4]

    def test_take_expand_and_concatenate_move_rows(self, batch):
        batch, _ = batch
        fitted = np.flatnonzero(batch.fitted)
        picked = batch.take(fitted[::-1])
        assert [r.n_points for r in picked] == [batch[i].n_points for i in fitted[::-1]]
        back = picked.expand(fitted[::-1], len(batch))
        joined = FitBatch.concatenate([batch.take([0, 1]), batch.take([2, 3])])
        for other in (back, joined):
            for name in ("coefficients", "rms", "eigenvalue", "n_points", "degenerate", "fitted"):
                np.testing.assert_array_equal(getattr(other, name), getattr(batch, name))
        assert back.space == joined.space == batch.space
