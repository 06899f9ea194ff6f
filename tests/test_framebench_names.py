"""Names the library keeps only because framebench reads them.

framebench traces and calls the four ``rangefit.integral.build_*_channels``
shorthands and reads ``Segmentation.tiles``; everything else in the repo calls
``build_channels`` and reads the segmentation's arrays.  These tests pin each
name to what it stands for, so deleting the names changes no output.  The
unread ``constant``/``rgbd_fitter`` keywords are pinned where their functions
are tested (``test_constant_is_unread``, ``test_segment_builds_no_constant_stack``
and the camera-cache keyword tests).
"""

from __future__ import annotations

import numpy as np
import pytest

import rangefit
import rangefit.integral
from rangefit import (
    EXPLICIT_RGBD,
    EXPLICIT_STANDARD,
    IMPLICIT_RGBD,
    IMPLICIT_STANDARD,
    NoiseModel,
    Rect,
    SegConfig,
    TileStatus,
    build_channels,
    render_scene,
    segment,
)
from rangefit.segment import STATUSES

from conftest import corner_scene

SHORTHANDS = {
    "build_standard_implicit_channels": IMPLICIT_STANDARD,
    "build_rgbd_implicit_channels": IMPLICIT_RGBD,
    "build_standard_explicit_channels": EXPLICIT_STANDARD,
    "build_rgbd_explicit_channels": EXPLICIT_RGBD,
}


def _same(a, b) -> bool:
    return (a is None and b is None) or (
        a is not None and b is not None and np.array_equal(a, b) and a.dtype == b.dtype
    )


@pytest.mark.parametrize("dropout", [0.0, 0.1], ids=["hole-free", "holes"])
@pytest.mark.parametrize("name", list(SHORTHANDS))
def test_shorthand_is_build_channels(small_maps, name, dropout):
    depth, _ = render_scene(corner_scene(), small_maps, noise=NoiseModel(), seed=2, dropout=dropout)
    assert depth.valid.all() == (dropout == 0.0)
    formulation = SHORTHANDS[name]
    got = getattr(rangefit.integral, name)(depth, small_maps)
    want = build_channels(depth, small_maps, formulation)
    assert got.index == want.index
    for table, k in want.index.items():  # the count table too, when there is one
        assert _same(got.tensor[k], want.tensor[k]), table
    assert got.tensor.shape == want.tensor.shape
    assert _same(got.holes, want.holes) and _same(got.hole_tan, want.hole_tan)
    assert got.maps is want.maps is small_maps
    with pytest.raises(TypeError):  # only build_channels takes include_residual
        getattr(rangefit.integral, name)(depth, small_maps, include_residual=False)
    # the package does not export them
    assert not hasattr(rangefit, name) and name not in rangefit.__all__


def test_tiles_are_the_leaf_arrays(small_maps):
    depth, _ = render_scene(corner_scene(), small_maps, noise=NoiseModel(), seed=3, dropout=0.3)
    config = SegConfig(
        formulation=IMPLICIT_RGBD, initial_tile=16, max_depth=2,
        rms_threshold=SegConfig(formulation=IMPLICIT_RGBD).threshold / 8,
    )
    result = segment(depth, small_maps, config)
    assert {STATUSES[s] for s in result.status.tolist()} == set(TileStatus)
    assert len(result.tiles) == len(result.rects)
    for i, tile in enumerate(result.tiles):
        assert tile.rect == Rect(*result.rects[i].tolist())
        assert tile.status is STATUSES[result.status[i]]
        assert tile.level == result.level[i]
        assert tile.cluster == result.cluster[i]
        fit = result.fits[i]
        if fit is None:
            assert tile.result is None
            continue
        assert type(tile.result.plane) is type(fit.plane)
        assert np.array_equal(tile.result.plane.coefficients, fit.plane.coefficients)
        assert (tile.result.n_points, tile.result.rms_residual, tile.result.eigenvalue,
                tile.result.degenerate) == (fit.n_points, fit.rms_residual, fit.eigenvalue,
                                            fit.degenerate)
