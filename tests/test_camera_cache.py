"""The camera's constant and explicit-rgbd window records live with its tan maps.

A frame stack knows the maps it was built on; the first rgbd window read
builds the camera's constant, the first explicit-rgbd ``fit_rect`` its
factor cache, both kept with the maps and freed with them.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from rangefit import (
    EXPLICIT_RGBD,
    EXPLICIT_STANDARD,
    FORMULATIONS,
    IMPLICIT_STANDARD,
    CameraIntrinsics,
    ExplicitRgbdFitter,
    InsufficientSamplesError,
    NoiseModel,
    Rect,
    SegConfig,
    build_channels,
    build_constant_channels,
    compute_tan_maps,
    fit_rect,
    fit_rects,
    render_scene,
    scatter_from_integrals,
    segment,
)
from rangefit import fitting, integral
from rangefit.fitting import FIT_BY_FORMULATION, camera_fitter

from conftest import corner_scene

WINDOWS = [
    Rect(0, 0, 64, 48), Rect(5, 3, 45, 43), Rect(28, 18, 40, 30), Rect(0, 0, 16, 16),
    Rect(50, 30, 64, 48), Rect(10, 5, 11, 40), Rect(3, 20, 60, 21), Rect(7, 7, 9, 8),
    Rect(63, 47, 64, 48), Rect(31, 21, 35, 25),
]


def _maps(lattice: bool, focal: float = 60.0):
    offsets = dict(zip(
        ("delta_x", "delta_y"), np.random.default_rng(3).uniform(-0.25, 0.25, (2, 48, 64))
    )) if lattice else {}
    maps = compute_tan_maps(CameraIntrinsics(
        fx=focal, fy=focal, cx=31.5, cy=23.5, width=64, height=48, **offsets
    ))
    assert (maps.axes is None) == lattice
    return maps


def _frame(maps, holes: bool):
    depth, _ = render_scene(
        corner_scene(), maps, noise=NoiseModel(), seed=6, dropout=0.1 if holes else 0.0
    )
    assert depth.valid.all() != holes
    return depth


@pytest.fixture
def builds(monkeypatch):
    """Counts of camera-constant builds and of camera fitters made."""
    counts = {"constant": 0, "fitter": 0}
    build = integral._camera_constant

    def counting_build(maps):
        counts["constant"] += 1
        return build(maps)

    class CountingFitter(ExplicitRgbdFitter):
        def __init__(self, constant):
            counts["fitter"] += 1
            super().__init__(constant)

    monkeypatch.setattr(integral, "_camera_constant", counting_build)
    monkeypatch.setattr(fitting, "ExplicitRgbdFitter", CountingFitter)
    return counts


def _fit_or_none(*args, **kwargs):
    try:
        return fit_rect(*args, **kwargs)
    except InsufficientSamplesError:
        return None


def _same_bits(a, b) -> None:
    assert (a is None) == (b is None)
    if a is None:
        return
    np.testing.assert_array_equal(a.plane.coefficients, b.plane.coefficients)
    assert (a.n_points, a.rms_residual, a.eigenvalue, a.degenerate) == (
        b.n_points, b.rms_residual, b.eigenvalue, b.degenerate
    )


class TestBuiltOncePerMaps:
    @pytest.mark.parametrize("lattice", [False, True], ids=["pinhole", "lattice"])
    def test_constant_and_records_are_built_once(self, builds, monkeypatch, lattice):
        factorizations = {formulation: 0 for formulation in FORMULATIONS}
        factor = fitting.cholesky3
        maps = _maps(lattice)
        rects = np.array(WINDOWS)
        for seed in (1, 2):  # two hole-free frames: every window reuses its record
            depth, _ = render_scene(corner_scene(), maps, noise=NoiseModel(), seed=seed)
            for formulation in FORMULATIONS:

                def counting_factor(matrix, formulation=formulation):
                    factorizations[formulation] += 1
                    return factor(matrix)

                monkeypatch.setattr(fitting, "cholesky3", counting_factor)
                stack = build_channels(depth, maps, formulation)
                fit_rects(stack, rects, formulation)
                for rect in WINDOWS * 2:
                    _fit_or_none(depth, maps, rect, formulation, "integral", stack=stack)
                    try:
                        scatter_from_integrals(stack, rect, formulation)
                    except InsufficientSamplesError:
                        pass
        assert builds == {"constant": 1, "fitter": 1}
        assert build_constant_channels(maps) is camera_fitter(maps).constant
        assert list(camera_fitter(maps)._windows) == WINDOWS
        # one explicit-rgbd factorization per distinct window, none per frame
        # or repeat (explicit-standard factors every fit)
        assert factorizations[EXPLICIT_RGBD] == len(WINDOWS)
        assert factorizations[EXPLICIT_STANDARD] > 2 * len(WINDOWS)
        # other maps of the same camera are another camera's cache
        build_constant_channels(_maps(lattice))
        assert builds["constant"] == 2

    def test_frame_builds_read_no_constant(self, builds):
        maps = _maps(False)
        depth = _frame(maps, holes=True)
        for formulation in FORMULATIONS:
            build_channels(depth, maps, formulation)
        assert builds == {"constant": 0, "fitter": 0}

    @pytest.mark.parametrize("holes", [False, True], ids=["hole-free", "holey"])
    @pytest.mark.parametrize("lattice", [False, True], ids=["pinhole", "lattice"])
    def test_standard_fits_and_segment_build_nothing(self, builds, lattice, holes):
        maps = _maps(lattice)
        depth = _frame(maps, holes)
        for formulation in (IMPLICIT_STANDARD, EXPLICIT_STANDARD):
            stack = build_channels(depth, maps, formulation)
            fit_rects(stack, np.array(WINDOWS), formulation)
            for rect in WINDOWS:
                _fit_or_none(depth, maps, rect, formulation, "integral", stack=stack)
        for formulation in FORMULATIONS:
            segment(depth, maps, SegConfig(formulation=formulation, initial_tile=16, max_depth=2))
        assert builds == {"constant": 0, "fitter": 0}


class TestFreedWithTheMaps:
    @pytest.mark.parametrize("lattice", [False, True], ids=["pinhole", "lattice"])
    def test_constant_and_records_die_with_the_maps(self, lattice):
        maps = _maps(lattice)
        depth = _frame(maps, holes=True)
        stack = build_channels(depth, maps, EXPLICIT_RGBD)
        fit_rect(depth, maps, Rect(5, 3, 45, 43), EXPLICIT_RGBD, "integral", stack=stack)
        constant = weakref.ref(build_constant_channels(maps))
        records = weakref.ref(camera_fitter(maps))
        assert constant() is records().constant
        del maps, stack
        gc.collect()
        assert constant() is None and records() is None


def _reference(stack, formulation, constant, monkeypatch):
    """The fits with ``constant`` handed to every tan-sum read, as callers
    passed it before the camera kept it: scatters, single fits through the
    assembled scatter (no cached factor), and the batch."""
    scatters, singles = [], []
    with monkeypatch.context() as m:
        m.setattr(fitting, "build_constant_channels", lambda maps: constant)
        for rect in WINDOWS:
            try:
                scatter = scatter_from_integrals(stack, rect, formulation)
            except InsufficientSamplesError:
                scatters.append(None)
                singles.append(None)
                continue
            scatters.append(scatter)
            singles.append(FIT_BY_FORMULATION[formulation](scatter))
        batch = fit_rects(stack, np.array(WINDOWS), formulation)
    return scatters, singles, batch


class TestSameBitsAsAnExplicitConstant:
    @pytest.mark.parametrize("formulation", FORMULATIONS)
    @pytest.mark.parametrize("holes", [False, True], ids=["hole-free", "holey"])
    @pytest.mark.parametrize("lattice", [False, True], ids=["pinhole", "lattice"])
    def test_fits_match(self, monkeypatch, lattice, holes, formulation):
        maps = _maps(lattice)
        depth = _frame(maps, holes)
        stack = build_channels(depth, maps, formulation)
        explicit = integral._camera_constant(maps)  # built apart from the cache
        scatters, singles, batch = _reference(stack, formulation, explicit, monkeypatch)
        assert any(s is None for s in scatters) and any(s is not None for s in scatters)
        got = fit_rects(stack, np.array(WINDOWS), formulation)
        for name in ("coefficients", "rms", "eigenvalue", "n_points", "degenerate"):
            a, b = getattr(got, name), getattr(batch, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        for rect, want_scatter, want in zip(WINDOWS, scatters, singles):
            _same_bits(_fit_or_none(depth, maps, rect, formulation, "integral", stack=stack), want)
            if want_scatter is None:
                continue
            scatter = scatter_from_integrals(stack, rect, formulation=formulation)
            assert scatter.matrix.tobytes() == want_scatter.matrix.tobytes(), rect
            assert scatter.n == want_scatter.n
            if hasattr(want_scatter, "rhs"):
                assert scatter.rhs.tobytes() == want_scatter.rhs.tobytes(), rect
                assert scatter.target_sq == want_scatter.target_sq


class TestUnreadKeywords:
    @pytest.mark.parametrize("formulation", FORMULATIONS)
    @pytest.mark.parametrize("other", ["larger", "same-size"])
    def test_another_cameras_constant_and_fitter_change_nothing(self, formulation, other):
        maps = _maps(False)
        depth = _frame(maps, holes=True)
        stack = build_channels(depth, maps, formulation)
        if other == "larger":
            foreign = compute_tan_maps(
                CameraIntrinsics(fx=75.0, fy=75.0, cx=39.5, cy=29.5, width=80, height=60)
            )
        else:
            foreign = _maps(True, focal=45.0)
        constant = build_constant_channels(foreign)
        fitter = ExplicitRgbdFitter(constant)
        for rect in WINDOWS:
            fitter.factor_for(rect)
        for rect in WINDOWS:
            alone = _fit_or_none(depth, maps, rect, formulation, "integral", stack=stack)
            given = _fit_or_none(
                depth, maps, rect, formulation, "integral",
                stack=stack, constant=constant, rgbd_fitter=fitter,
            )
            positional = _fit_or_none(
                depth, maps, rect, formulation, "integral", stack, constant, fitter
            )
            _same_bits(given, alone)
            _same_bits(positional, alone)
