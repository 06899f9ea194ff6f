"""Frame-stream benchmark for rangefit: seeded depth frames in, fits or segmentation out.

Usage (from the root of a rangefit checkout)::

    python3 framebench/run.py --workload seg-vga-clutter --seed 1 --seconds 10 --trace 0

Each run generates its frames from ``--seed`` before any timing, pays the
camera set-up (tan maps, constant tables, warm explicit factors) once per
run, checks every frame's output against the naive oracle and the ground
truth in an untimed pass, then streams frames through the library in a
closed loop for ``--seconds`` seconds: one process, one thread, each frame
sent when the previous one has returned.

``--trace 0`` reports the end-to-end metrics; a separate ``tracemalloc``
pass, outside the timed loop, gives the memory peak.  ``--trace 1`` instead
interleaves traced and untraced frames, wrapping the library's public
functions from outside (see ``spans.py``), and reports per-layer metrics
plus the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os
import sys

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # One thread for numpy's pools: the loop is single-threaded by design and
    # idle pool threads only add noise on a 2-core machine.
    for _var in THREAD_ENV:
        os.environ[_var] = "1"

import argparse
import dataclasses
import gc
import hashlib
import importlib
import itertools
import json
import math
import platform
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "rangefit" / "__init__.py").is_file():
    sys.exit(f"framebench: {SRC / 'rangefit'} not found; run from the root of a rangefit checkout")
sys.path.insert(0, str(SRC))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

import numpy as np  # noqa: E402

import rangefit as rf  # noqa: E402
import scenes  # noqa: E402
import spans  # noqa: E402

camera_mod = importlib.import_module("rangefit.camera")
integral_mod = importlib.import_module("rangefit.integral")
fitting_mod = importlib.import_module("rangefit.fitting")
segment_mod = importlib.import_module("rangefit.segment")

# Largest normal-angle gap allowed between an integral-backend fit and the
# naive oracle.  A 1e-5 rad tilt moves a point 1 m from the window centre by
# 10 um, two orders of magnitude under the sensor's 1.4 mm depth noise at 1 m,
# so no user can see it; it sits 6x under the 6e-5 rad summed-area-table
# cancellation error known at 1080p (ROADMAP item 4).
ORACLE_TOL_RAD = 1e-5
ORACLE_SAMPLES = 16  # windows per frame checked against the naive oracle
# Edges of the small windows fitted in the image corner farthest from the
# summed-area tables' origin, where item 4's error is largest.  The workload
# never fits these windows itself, so a gap over ORACLE_TOL_RAD there is
# printed and traced but not counted as a failed operation.
CORNER_PROBE_EDGES = (4, 8)
A9_ACCURACY_FLOOR = 0.95  # acceptance criterion A9, corner scenes only
# Set-ups repeat until both floors are met, so cheap ones are sampled often.
SETUP_MIN_REPEATS = 9
SETUP_MIN_SECONDS = 3.0
TAIL_BEYOND = 10  # the tail percentile keeps at least this many frames above it
MIN_FRAMES = TAIL_BEYOND + 1
GRID_WINDOW = 20
GRID_STRIDE = 40
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def move_to_cpu(i: int) -> None:
    """Pin the process to the ``i``-th allowed CPU, cyclically.

    On a shared host the CPUs are contended unevenly, and the scheduler keeps
    a lone busy process on one of them for long stretches.  Moving each timed
    set-up and frame to the next CPU makes every run see the mean of all of
    them instead of whichever one it landed on.
    """
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


@dataclass(frozen=True)
class Workload:
    name: str
    width: int
    height: int
    pool: int  # distinct frames generated per run, cycled by the timed loop
    make_frame: Callable  # (rng, camera, maps) -> (DepthImage, truth labels)
    formulation: str | None = None  # segmentation workloads
    seg_options: dict = field(default_factory=dict)
    accuracy_floor: float | None = None


def _clutter_frame(rng, cam, maps):
    return scenes.render(scenes.clutter_scene(rng, cam), maps, rng, dropout=0.02)


def _corner_frame(rng, cam, maps):
    return scenes.render(scenes.corner_scene(rng), maps, rng)


def _shadowed_corner_frame(rng, cam, maps):
    holes = scenes.shadow_blobs(rng, cam.width, cam.height)
    return scenes.render(scenes.corner_scene(rng), maps, rng, holes=holes)


# Why each workload exists, and what it should and should not move, is
# recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "seg-vga-clutter", 640, 480, 12, _clutter_frame, rf.IMPLICIT_RGBD,
            dict(k=scenes.CLUTTER_BOXES + 1, seed=7),
        ),
        Workload(
            "seg-1080p-corner", 1920, 1080, 5, _corner_frame, rf.EXPLICIT_RGBD,
            dict(rms_threshold=3e-3, k=3, seed=7), A9_ACCURACY_FLOOR,
        ),
        Workload("fit-grid-vga", 640, 480, 8, _shadowed_corner_frame),
    )
}


def seg_config(formulation: str, options: dict) -> rf.SegConfig:
    """A ``SegConfig`` holding only the options this library version still has."""
    known = {f.name for f in dataclasses.fields(rf.SegConfig)}
    return rf.SegConfig(formulation=formulation, **{k: v for k, v in options.items() if k in known})


def grid_rects(width: int, height: int) -> list[rf.Rect]:
    return [
        rf.Rect(x, y, x + GRID_WINDOW, y + GRID_WINDOW)
        for y in range(0, height - GRID_WINDOW + 1, GRID_STRIDE)
        for x in range(0, width - GRID_WINDOW + 1, GRID_STRIDE)
    ]


def make_inputs(workload: Workload, seed: int):
    cam = scenes.camera(workload.width, workload.height)
    maps = rf.compute_tan_maps(cam)
    frames = [workload.make_frame(scenes.frame_rng(seed, i), cam, maps) for i in range(workload.pool)]
    return cam, frames


# ---------------------------------------------------------------------------
# The pipeline under test; every library call goes through a module attribute
# so the traced run can rebind it.
# ---------------------------------------------------------------------------


@dataclass
class Context:
    maps: object
    constant: object
    config: rf.SegConfig | None = None
    rects: list = field(default_factory=list)
    fitter: object = None


def setup(workload: Workload, cam) -> Context:
    """Camera set-up, paid once per run: tan maps, constant tables, warm factors."""
    maps = camera_mod.compute_tan_maps(cam)
    constant = integral_mod.build_constant_channels(maps)
    if workload.formulation is not None:
        return Context(maps, constant, config=seg_config(workload.formulation, workload.seg_options))
    rects = grid_rects(workload.width, workload.height)
    fitter = fitting_mod.ExplicitRgbdFitter(constant)
    for rect in rects:
        fitter.factor_for(rect)
    return Context(maps, constant, rects=rects, fitter=fitter)


def run_frame(ctx: Context, depth):
    """One frame in, its outputs out.

    Segmentation workloads return the ``Segmentation`` (its colour image is
    rendered and dropped).  The grid workload returns, per formulation, one
    entry per window: the ``FitResult``, ``None`` for too few samples, or the
    exception a failed fit raised.
    """
    if ctx.config is not None:
        seg = segment_mod.segment(depth, ctx.maps, ctx.config, constant=ctx.constant)
        seg.to_color()
        return seg
    out = {}
    for builder_name, formulation in spans.FRAME_BUILDERS.items():
        stack = getattr(integral_mod, builder_name)(depth, ctx.maps)
        fitter = ctx.fitter if formulation == rf.EXPLICIT_RGBD else None
        results = []
        for rect in ctx.rects:
            try:
                results.append(fitting_mod.fit_rect(
                    depth, ctx.maps, rect, formulation, "integral",
                    stack=stack, constant=ctx.constant, rgbd_fitter=fitter,
                ))
            except rf.InsufficientSamplesError:
                results.append(None)
            except Exception as exc:  # counted as a failed operation
                results.append(exc)
        out[formulation] = results
    return out


def implicit_coefficients(result) -> np.ndarray:
    plane = result.plane
    if isinstance(plane, rf.ExplicitPlane):
        plane = rf.explicit_to_implicit(plane)
    return np.asarray(plane.coefficients, dtype="<f8")


def output_digest(output) -> str:
    """sha256 over a frame's outputs: labels, then implicit coefficients as <f8."""
    h = hashlib.sha256()
    if isinstance(output, dict):
        for formulation, results in output.items():
            h.update(formulation.encode())
            for r in results:
                h.update(implicit_coefficients(r).tobytes() if hasattr(r, "plane") else b"-")
    else:
        h.update(np.asarray(output.labels, dtype="<i2").tobytes())
        for tile in output.tiles:
            if tile.result is not None:
                h.update(implicit_coefficients(tile.result).tobytes())
    return h.hexdigest()


def fit_failures(output) -> tuple[int, int]:
    """(window fits attempted, fits that raised) for a grid-workload frame."""
    if not isinstance(output, dict):
        return 0, 0
    results = [r for rs in output.values() for r in rs]
    return len(results), sum(1 for r in results if isinstance(r, Exception))


def label_accuracy(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Share of labelled, valid pixels whose segment maps to their true plane.

    Segments are matched one-to-one to true planes by the assignment that
    maximises the number of agreeing pixels, as acceptance criterion A9 does.
    """
    from scipy.optimize import linear_sum_assignment

    mask = (predicted >= 0) & (truth != rf.synth.INVALID_LABEL)
    total = int(mask.sum())
    if total == 0:
        return 0.0
    p = predicted[mask].astype(np.int64)
    t = truth[mask].astype(np.int64)
    table = np.zeros((int(p.max()) + 1, int(t.max()) + 1))
    np.add.at(table, (p, t), 1.0)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return float(table[rows, cols].sum()) / total


def normal_gap(a, b) -> float:
    """Angle in radians between the planes of two fits."""
    return rf.normal_angle(
        rf.ImplicitPlane(implicit_coefficients(a)), rf.ImplicitPlane(implicit_coefficients(b))
    )


def oracle_gaps(ctx: Context, depth, output, formulation: str | None, rng) -> list[float]:
    """Normal-angle gaps between a seeded sample of integral fits and naive refits."""
    if isinstance(output, dict):
        candidates = [
            (f, ctx.rects[i], r)
            for f, rs in output.items()
            for i, r in enumerate(rs)
            if hasattr(r, "plane") and not r.degenerate
        ]
    else:
        candidates = [
            (formulation, t.rect, t.result)
            for t in output.tiles
            if t.result is not None and not t.result.degenerate
        ]
    if not candidates:
        return []
    picks = rng.choice(len(candidates), size=min(ORACLE_SAMPLES, len(candidates)), replace=False)
    gaps = []
    for i in sorted(int(p) for p in picks):
        f, rect, result = candidates[i]
        try:
            naive = fitting_mod.fit_rect(depth, ctx.maps, rect, f, "naive")
        except Exception:  # the oracle cannot fit what the integral backend did
            gaps.append(math.inf)
            continue
        gaps.append(normal_gap(result, naive))
    return gaps


def corner_gaps(ctx: Context, depth, formulations) -> list[float]:
    """Integral-vs-naive gaps on ``CORNER_PROBE_EDGES`` windows in the far image corner."""
    builder_of = {f: b for b, f in spans.FRAME_BUILDERS.items()}
    w, h = depth.width, depth.height
    gaps = []
    for formulation in formulations:
        stack = getattr(integral_mod, builder_of[formulation])(depth, ctx.maps)
        for e in CORNER_PROBE_EDGES:
            for x0, y0 in ((w - e, h - e), (w - 2 * e, h - e), (w - e, h - 2 * e)):
                rect = rf.Rect(x0, y0, x0 + e, y0 + e)
                try:
                    integral = fitting_mod.fit_rect(
                        depth, ctx.maps, rect, formulation, "integral", stack=stack, constant=ctx.constant
                    )
                    naive = fitting_mod.fit_rect(depth, ctx.maps, rect, formulation, "naive")
                except rf.InsufficientSamplesError:
                    continue
                if not integral.degenerate:
                    gaps.append(normal_gap(integral, naive))
    return gaps


@dataclass
class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


@dataclass
class Checked:
    digests: list[str]
    accuracy: list[float]
    oracle_gaps: list[float]
    corner_gaps: list[float]


def check_pass(workload: Workload, ctx: Context, frames, seed: int, tally: Tally) -> Checked:
    """Untimed first pass over the frames: warms up and checks every output."""
    checked = Checked([], [], [], [])
    formulations = [workload.formulation] if workload.formulation else list(spans.FRAME_BUILDERS.values())
    for index, (depth, truth) in enumerate(frames):
        try:
            output = run_frame(ctx, depth)
        except Exception as exc:
            tally.add(1, 1, f"frame {index}: {type(exc).__name__}: {exc}")
            checked.digests.append("")
            continue
        attempted, raised = fit_failures(output)
        tally.add(attempted or 1, raised, f"frame {index}: {raised} window fits raised")
        checked.digests.append(output_digest(output))
        if not isinstance(output, dict):
            checked.accuracy.append(label_accuracy(output.labels, truth))
        gaps = oracle_gaps(ctx, depth, output, workload.formulation, np.random.default_rng([seed, 7, index]))
        bad = sum(1 for g in gaps if not g <= ORACLE_TOL_RAD)
        tally.add(len(gaps), bad, f"frame {index}: {bad} fits off the naive oracle by > {ORACLE_TOL_RAD} rad")
        checked.oracle_gaps.extend(gaps)
        checked.corner_gaps.extend(corner_gaps(ctx, depth, formulations))
    return checked


def timed_setup(workload: Workload, cam) -> tuple[list[float], Context]:
    times: list[float] = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        move_to_cpu(len(times))
        start = time.perf_counter()
        ctx = setup(workload, cam)
        times.append(time.perf_counter() - start)
    return times, ctx


@dataclass
class Loop:
    latencies: list[float]
    wall: float
    fits: int


def timed_loop(ctx: Context, pool, seconds: float, checked: Checked, tally: Tally) -> Loop:
    """Closed loop over the checked frames; outputs are verified after the clock stops.

    ``pool`` holds ``(index, depth)`` for every frame that passed the check
    pass.  A frame that raises here ran cleanly there, so the run is not
    deterministic: it is counted as failed and the loop stops.
    """
    latencies: list[float] = []
    last_output: dict[int, object] = {}
    fits = 0
    gc.collect()
    start = end = time.perf_counter()
    for i in itertools.count():
        index, depth = pool[i % len(pool)]
        move_to_cpu(i)
        t0 = time.perf_counter()
        try:
            output = run_frame(ctx, depth)
        except Exception as exc:
            tally.add(1, 1, f"timed frame {i}: {type(exc).__name__}: {exc}")
            break
        end = time.perf_counter()
        latencies.append(end - t0)
        attempted, raised = fit_failures(output)
        fits += attempted - raised
        tally.add(attempted or 1, raised, f"timed frame {i}: {raised} window fits raised")
        last_output[index] = output
        if end - start >= seconds and len(latencies) >= MIN_FRAMES:
            break
    for index, output in last_output.items():
        if output_digest(output) != checked.digests[index]:
            tally.add(0, 1, f"frame {index}: timed output differs from the checked output")
    return Loop(latencies, end - start, fits)


def tail(latencies: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], math.floor(100 * (k + 1) / n)


def memory_pass(ctx: Context, depth) -> float:
    """``tracemalloc`` peak in MB (1e6 bytes) over one frame, outside any timing."""
    gc.collect()
    tracemalloc.start()
    try:
        run_frame(ctx, depth)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def traced_run(workload: Workload, cam, pool, seconds: float, tally: Tally):
    """Per-layer metrics: traced set-ups, then traced and untraced frames in pairs.

    Each checked frame runs twice in a row, once traced and once not,
    alternating which goes first, so the overhead estimate compares like with
    like.  As in ``timed_loop``, a frame that raises stops the loop.
    """
    recorder = spans.Recorder()
    setup_ids = []
    installed = spans.install(recorder)
    missing = installed.missing
    try:
        for n in range(SETUP_MIN_REPEATS):
            recorder.frame = -1 - n
            setup_ids.append(recorder.frame)
            root = recorder.begin("setup")
            ctx = setup(workload, cam)
            recorder.end(root)
    finally:
        installed.restore()

    traced_times: list[float] = []
    plain_times: list[float] = []
    frame_ids: list[int] = []
    start = time.perf_counter()
    failed = False
    for cycle in itertools.count():
        for index, depth in pool:
            order = (True, False) if (cycle + index) % 2 == 0 else (False, True)
            move_to_cpu(cycle * len(pool) + index)
            for traced in order:
                recorder.frame = cycle * workload.pool + index
                installed = spans.install(recorder) if traced else None
                try:
                    t0 = time.perf_counter()
                    root = recorder.begin("frame") if traced else None
                    output = run_frame(ctx, depth)
                    if traced:
                        recorder.end(root)
                    t1 = time.perf_counter()
                except Exception as exc:
                    tally.add(1, 1, f"traced frame: {type(exc).__name__}: {exc}")
                    failed = True
                    break
                finally:
                    if installed is not None:
                        installed.restore()
                attempted, raised = fit_failures(output)
                tally.add(attempted or 1, raised, f"traced frame: {raised} window fits raised")
                (traced_times if traced else plain_times).append(t1 - t0)
                if traced:
                    frame_ids.append(recorder.frame)
            if failed:
                break
        if failed or (time.perf_counter() - start >= seconds and len(traced_times) >= MIN_FRAMES):
            break
    metrics = spans.layer_metrics(
        recorder.spans, setup_ids, frame_ids, (workload.height + 1) * (workload.width + 1)
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0
        if traced_times and plain_times else 0.0
    )
    return metrics, recorder, missing, frame_ids


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    print(
        f"workload {workload.name}: {workload.width}x{workload.height}, pool of {workload.pool} frames, "
        + (f"segment with {workload.formulation}" if workload.formulation else "fit_rect on a window grid")
    )
    print(
        f"load: 1 process, closed loop, 1 thread moved across CPUs {CPUS} frame by frame; nproc={os.cpu_count()}; "
        + " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_ENV)
        + f"; python {platform.python_version()}, numpy {np.__version__}"
    )
    cam, frames = make_inputs(workload, args.seed)
    setup_times, ctx = timed_setup(workload, cam)
    tally = Tally()
    checked = check_pass(workload, ctx, frames, args.seed, tally)
    digest = hashlib.sha256("".join(checked.digests).encode()).hexdigest()
    correct = True
    if checked.accuracy:
        accuracy = statistics.median(checked.accuracy)
        floor = workload.accuracy_floor
        print(
            f"label_accuracy {accuracy:.4f} (median of {len(checked.accuracy)} frames; "
            + (f"A9 floor {floor})" if floor is not None else "no floor on this scene)")
        )
        if floor is not None and accuracy < floor:
            correct = False
            print(f"CHECK FAILED: label accuracy {accuracy:.4f} under the A9 floor {floor}")
    oracle_max = max(checked.oracle_gaps, default=0.0)
    print(
        f"oracle: {len(checked.oracle_gaps)} integral fits vs naive, max normal gap "
        f"{oracle_max:.3e} rad (tolerance {ORACLE_TOL_RAD:.0e} rad)"
    )
    corner_max = max(checked.corner_gaps, default=0.0)
    print(
        f"corner probe: {len(checked.corner_gaps)} far-corner windows of "
        + "/".join(f"{e}x{e}" for e in CORNER_PROBE_EDGES)
        + f" px vs naive, max normal gap {corner_max:.3e} rad, "
        + ("within" if corner_max <= ORACLE_TOL_RAD else "OVER")
        + " the tolerance (ROADMAP item 4; reported, not counted as failed)"
    )
    print(f"digest {digest} (sha256 over {len(frames)} frames' labels and <f8 coefficients)")
    pool = [(i, depth) for i, ((depth, _), d) in enumerate(zip(frames, checked.digests)) if d]
    if not pool:
        print("framebench: every frame raised in the check pass; nothing to time", file=sys.stderr)
        return 1

    if args.trace:
        metrics, recorder, missing, frame_ids = traced_run(workload, cam, pool, args.seconds, tally)
        if not frame_ids:
            print("framebench: the traced loop completed no frame", file=sys.stderr)
            return 1
        metrics["fitting.oracle_err_max_rad"] = oracle_max
        metrics["fitting.corner_err_max_rad"] = corner_max
        out_path = ROOT / "framebench" / "out" / f"spans-{workload.name}-seed{args.seed}.csv"
        recorder.write_csv(out_path)
        print(f"traced {len(frame_ids)} frames, {len(recorder.spans)} spans -> {out_path.relative_to(ROOT)}")
        print("missing layers: " + (", ".join(missing) if missing else "none"))
        values = dict(sorted(metrics.items()))
    else:
        loop = timed_loop(ctx, pool, args.seconds, checked, tally)
        if not loop.latencies:
            print("framebench: the timed loop completed no frame", file=sys.stderr)
            return 1
        peak_mb = memory_pass(ctx, pool[0][1])
        lat_ms = [1e3 * t for t in loop.latencies]
        tail_ms, pct = tail(lat_ms)
        values = {
            "setup_s": statistics.median(setup_times),
            "frame_ms_p50": statistics.median(lat_ms),
            "frame_ms_tail": tail_ms,
            "frames_per_s": len(loop.latencies) / loop.wall,
            "frame_peak_mb": peak_mb,
        }
        print(f"frame_ms_tail is p{pct} of {len(lat_ms)} frames; setup_s is the median of {len(setup_times)} set-ups")
        if workload.formulation is None:
            print(f"fits_per_s {loop.fits / loop.wall:.1f} 1/s ({loop.fits} window fits in {loop.wall:.2f} s)")
    failed_frac = tally.failed / max(tally.attempted, 1)
    print(f"failed_frac {failed_frac:.6f} ({tally.failed} of {tally.attempted} operations)")
    result_metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    for note in tally.notes[:10]:
        print(f"  failure: {note}")
    for name, metric in result_metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    correct = correct and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
