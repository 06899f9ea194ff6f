"""Self-tests for the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest framebench -q``
(about two minutes: the metric-name test runs every workload briefly).
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import numpy as np
import pytest

import run  # sets up the import path for rangefit
import rangefit as rf
import scenes
import spans

# Share of the traced wall time the summed span self-times may miss: the
# interpreter work between two wrapped calls that no span covers.
SELF_TIME_SLACK = 0.05


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_frames_are_bit_identical_for_a_seed(name):
    workload = run.WORKLOADS[name]
    cam = scenes.camera(workload.width, workload.height)
    maps = rf.compute_tan_maps(cam)
    for index in range(2):
        a_depth, a_truth = workload.make_frame(scenes.frame_rng(5, index), cam, maps)
        b_depth, b_truth = workload.make_frame(scenes.frame_rng(5, index), cam, maps)
        assert a_depth.values.tobytes() == b_depth.values.tobytes()
        assert np.array_equal(a_depth.valid, b_depth.valid)
        assert np.array_equal(a_truth, b_truth)
    c_depth, _ = workload.make_frame(scenes.frame_rng(6, 0), cam, maps)
    assert c_depth.values.tobytes() != a_depth.values.tobytes()


def _hole_free_share(holes: np.ndarray) -> float:
    rects = run.grid_rects(holes.shape[1], holes.shape[0])
    return sum(1 for r in rects if not holes[r.y0 : r.y1, r.x0 : r.x1].any()) / len(rects)


def test_shadow_blobs_leave_most_grid_windows_hole_free():
    shares = [
        _hole_free_share(scenes.shadow_blobs(np.random.default_rng(seed), 640, 480))
        for seed in range(20)
    ]
    assert min(shares) >= 0.8
    # the contrast that motivates blobs: 2% iid dropout hits nearly every window
    iid = np.random.default_rng(0).random((480, 640)) < 0.02
    assert _hole_free_share(iid) < 0.05


def test_spans_restore_the_library_and_report_missing_targets(monkeypatch):
    fitting = run.fitting_mod
    before = (fitting.fit_rect, dict(fitting.FIT_BY_FORMULATION), rf.Segmentation.to_color)
    installed = spans.install(spans.Recorder())
    assert fitting.fit_rect is not before[0]
    installed.restore()
    assert (fitting.fit_rect, dict(fitting.FIT_BY_FORMULATION), rf.Segmentation.to_color) == before

    gone = spans.Target("rangefit.segment", "no_such_layer", "segment.gone")
    monkeypatch.setattr(spans, "_targets", lambda: [gone])
    installed = spans.install(spans.Recorder())
    installed.restore()
    assert installed.missing == ["rangefit.segment.no_such_layer"]


def test_span_self_times_add_up_to_traced_wall_time():
    workload = run.WORKLOADS["seg-vga-clutter"]
    cam = scenes.camera(320, 240)
    ctx = run.setup(workload, cam)
    depth, _ = workload.make_frame(scenes.frame_rng(1, 0), cam, ctx.maps)
    recorder = spans.Recorder()
    installed = spans.install(recorder)
    try:
        start = time.perf_counter()
        for frame in range(3):
            recorder.frame = frame
            root = recorder.begin("frame")
            run.run_frame(ctx, depth)
            recorder.end(root)
        wall = time.perf_counter() - start
    finally:
        installed.restore()
    names = {s.name for s in recorder.spans}
    assert {"segment.segment", "integral.frame_build", "fitting.fit_rect", "segment.cluster"} <= names
    own = spans.self_seconds(recorder.spans)
    assert min(own) >= -1e-6
    assert abs(sum(own) - wall) <= SELF_TIME_SLACK * wall


def test_tail_keeps_ten_frames_beyond():
    value, percentile = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and percentile == 75


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_benchmark_metric_is_printed(name, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = {m["name"] for m in run.BENCHMARK["end_to_end" if trace == 0 else "per_layer"]}
    assert set(result["metrics"]) == wanted
    for metric in wanted:
        assert any(line.startswith(f"metric {metric} = ") for line in lines)
