"""Command-line entry point: synthesize, fit, segment, benchmark.

``fit`` builds the frame's channel stack; an rgbd window then reads the
camera's constant, which the camera builds on that first read.  Exit codes:
0 success, 1 usage error (unknown or malformed flags), 2 data error
(unreadable or malformed input files, ill-posed windows).  Diagnostics
go to standard error; data goes to standard output or ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from . import fitting, imageio, synth
from .camera import DEPTH_NOISE_COEFFICIENT, NoiseModel, TanAngleMaps, compute_tan_maps, load_intrinsics
from .integral import Rect, build_channels
from .segment import SegConfig
from .segment import segment as run_segment


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _rect_arg(text: str) -> Rect:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected x0,y0,x1,y1 but got {text!r}")
    try:
        x0, y0, x1, y1 = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"rect components must be integers: {text!r}")
    return Rect(x0, y0, x1, y1)


def _counts_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")


def _names_arg(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _build_parser() -> _Parser:
    parser = _Parser(prog="rangefit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="render a synthetic depth image from a scene file")
    p_synth.add_argument("--intrinsics", required=True, help="intrinsics key-value file")
    p_synth.add_argument("--scene", required=True, help="scene file: one 'a b c d [x0 y0 x1 y1]' per line")
    p_synth.add_argument("--noise", choices=("on", "off"), default="on")
    p_synth.add_argument(
        "--noise-coefficient",
        type=float,
        default=DEPTH_NOISE_COEFFICIENT,
        help="quadratic depth-noise coefficient (1/m)",
    )
    p_synth.add_argument("--dropout", type=float, default=0.0, help="fraction of pixels to invalidate")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="depth output (.pgm = mm PGM, else raw float64)")
    p_synth.add_argument("--labels", help="optional ground-truth label PGM output")

    p_fit = sub.add_parser("fit", help="fit one window of a depth image")
    p_fit.add_argument("--intrinsics", required=True)
    p_fit.add_argument("--input", required=True, help="depth image (.pgm or raw float64)")
    p_fit.add_argument("--formulation", choices=fitting.FORMULATIONS, required=True)
    p_fit.add_argument("--backend", choices=("naive", "integral"), default="integral")
    p_fit.add_argument("--rect", type=_rect_arg, required=True, help="window as x0,y0,x1,y1")
    p_fit.add_argument("--out", help="write the CSV here instead of stdout")

    p_seg = sub.add_parser("segment", help="quadtree planar segmentation of a depth image")
    p_seg.add_argument("--intrinsics", required=True)
    p_seg.add_argument("--input", required=True)
    p_seg.add_argument("--formulation", choices=fitting.FORMULATIONS, default=fitting.IMPLICIT_RGBD)
    p_seg.add_argument("--tile", type=int, default=64)
    p_seg.add_argument("--max-depth", type=int, default=3)
    p_seg.add_argument("--threshold", type=float, default=None, help="residual threshold in the formulation's metric")
    p_seg.add_argument("--min-valid-fraction", type=float, default=0.5)
    p_seg.add_argument("--metric", choices=("rms", "max"), default="rms")
    p_seg.add_argument("--out", required=True, help="color PPM label image")
    p_seg.add_argument("--csv", help="optional per-tile CSV")
    p_seg.add_argument("--stats", help="optional JSON of per-level quadtree counts")

    p_bench = sub.add_parser("bench", help="run the timing comparison and emit CSV")
    p_bench.add_argument("--width", type=int, default=640)
    p_bench.add_argument("--height", type=int, default=480)
    p_bench.add_argument("--tile", type=int, default=50)
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--warmup", type=int, default=2)
    p_bench.add_argument("--plane-counts", type=_counts_arg, default=(0, 1, 10, 50, 200))
    p_bench.add_argument("--formulations", type=_names_arg, default=fitting.FORMULATIONS)
    p_bench.add_argument("--backends", type=_names_arg, default=bench_mod.BACKENDS)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", help="write the CSV here instead of stdout")

    return parser


def _cmd_synth(args: argparse.Namespace) -> int:
    intrinsics = load_intrinsics(args.intrinsics)
    maps = compute_tan_maps(intrinsics)
    scene = synth.load_scene(args.scene)
    noise = NoiseModel(slope_coefficient=args.noise_coefficient) if args.noise == "on" else None
    depth, labels = synth.render_scene(scene, maps, noise=noise, seed=args.seed, dropout=args.dropout)
    synth.write_depth(args.out, depth)
    if args.labels:
        imageio.write_pgm8(args.labels, labels)
    return 0


def _load_frame(args: argparse.Namespace) -> tuple[synth.DepthImage, TanAngleMaps]:
    """The depth image ``--input`` and the tan maps of ``--intrinsics``, of equal size."""
    intrinsics = load_intrinsics(args.intrinsics)
    maps = compute_tan_maps(intrinsics)
    depth = synth.read_depth(args.input)
    if (depth.height, depth.width) != (intrinsics.height, intrinsics.width):
        raise ValueError(
            f"{args.input}: depth is {depth.width}x{depth.height} but intrinsics "
            f"describe {intrinsics.width}x{intrinsics.height}"
        )
    return depth, maps


def _cmd_fit(args: argparse.Namespace) -> int:
    depth, maps = _load_frame(args)
    stack = build_channels(depth, maps, args.formulation) if args.backend == "integral" else None
    result = fitting.fit_rect(depth, maps, args.rect, args.formulation, args.backend, stack=stack)
    text = fitting.CSV_HEADER + "\n" + fitting.fit_result_csv_row(
        result, args.formulation, args.backend, args.rect
    ) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_segment(args: argparse.Namespace) -> int:
    depth, maps = _load_frame(args)
    config = SegConfig(
        formulation=args.formulation,
        initial_tile=args.tile,
        max_depth=args.max_depth,
        rms_threshold=args.threshold,
        min_valid_fraction=args.min_valid_fraction,
        error_metric=args.metric,
    )
    result = run_segment(depth, maps, config)
    imageio.write_ppm(args.out, result.to_color())
    if args.csv:
        Path(args.csv).write_text(result.to_csv())
    if args.stats:
        Path(args.stats).write_text(json.dumps(result.stats(), indent=2) + "\n")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = bench_mod.BenchConfig(
        width=args.width,
        height=args.height,
        tile=args.tile,
        plane_counts=args.plane_counts,
        repetitions=args.reps,
        warmup=args.warmup,
        formulations=args.formulations,
        backends=args.backends,
        seed=args.seed,
    )
    report = bench_mod.run_bench(config)
    if args.out:
        Path(args.out).write_text(report.to_csv())
    else:
        sys.stdout.write(report.to_csv())
    print(report.summary(), file=sys.stderr)
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "fit": _cmd_fit,
    "segment": _cmd_segment,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
