"""Benchmark harness comparing the fitting formulations and backends.

Times the two phases that matter on a live sensor stream: per-frame channel
building (the integral tables a frame must pay for before any window can be
fit) and the per-window fit itself, swept over how many windows get fit per
frame.  Camera-constant work (tan maps, the camera's constant -- for this
pinhole camera its axes' prefix sums, O(W + H) -- and its cached explicit
factor, each built on the first warm-up fit that reads it and kept with the
maps) is excluded from per-frame times since it amortizes across a
sequence.  Absolute times are hardware-bound, so the derived ratios are the
meaningful output; the workload itself is deterministic for a fixed seed.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from . import fitting
from .camera import CameraIntrinsics, NoiseModel, compute_tan_maps
from .fitting import (
    EXPLICIT_RGBD,
    EXPLICIT_STANDARD,
    FORMULATIONS,
    IMPLICIT_RGBD,
    IMPLICIT_STANDARD,
    ExplicitPlane,
)
from .integral import FORMULATION_CHANNELS, Rect, build_channels
from .synth import DepthImage, GroundTruthPlane, SyntheticScene, render_scene

BACKENDS = ("naive", "integral")

# Static cost model: per-frame scatter channels and the arithmetic-operation
# coefficient (ops per pixel) for building them, counting 4 ops per pixel per
# running sum plus one op per derived monomial (the directly measured depth
# channel costs nothing extra).
_PREDICTED_COSTS = {
    IMPLICIT_STANDARD: (9, 44),
    IMPLICIT_RGBD: (4, 20),
    EXPLICIT_STANDARD: (8, 39),
    EXPLICIT_RGBD: (3, 15),
}


@dataclass(frozen=True)
class OpCountAudit:
    """Predicted per-frame channel count and op estimate for a formulation."""

    formulation: str
    per_frame_channels: int
    ops_per_pixel: int


def op_count_audit(formulation: str) -> OpCountAudit:
    """Static cost prediction, cross-checked against the actual builders.

    Builds a tiny frame and asserts the formulation's channel stack registers
    exactly the predicted number of per-frame scatter channels.
    """
    if formulation not in _PREDICTED_COSTS:
        raise ValueError(f"unknown formulation {formulation!r}")
    channels, ops = _PREDICTED_COSTS[formulation]

    intrinsics = CameraIntrinsics(fx=10.0, fy=10.0, cx=3.5, cy=3.5, width=8, height=8)
    maps = compute_tan_maps(intrinsics)
    depth = DepthImage(values=np.full((8, 8), 2.0))
    stack = build_channels(depth, maps, formulation, include_residual=False)
    actual = len(stack.per_frame_channel_names())
    if actual != channels or len(FORMULATION_CHANNELS[formulation].scatter) != channels:
        raise RuntimeError(
            f"{formulation}: predicted {channels} per-frame channels but the "
            f"builder registered {actual}"
        )
    return OpCountAudit(formulation=formulation, per_frame_channels=channels, ops_per_pixel=ops)


@dataclass(frozen=True)
class BenchConfig:
    """Workload shape for :func:`run_bench`."""

    width: int = 640
    height: int = 480
    tile: int = 50
    plane_counts: tuple[int, ...] = (0, 1, 10, 50, 200)
    repetitions: int = 5
    warmup: int = 2
    formulations: tuple[str, ...] = FORMULATIONS
    backends: tuple[str, ...] = BACKENDS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.repetitions < 3:
            raise ValueError("repetitions must be at least 3")
        if self.warmup < 1:
            raise ValueError("warmup must be at least 1")
        if self.tile < 2 or self.tile > min(self.width, self.height):
            raise ValueError(f"tile {self.tile} does not fit a {self.width}x{self.height} image")
        if not self.formulations or not self.backends:
            raise ValueError("formulations and backends must each name at least one")
        for f in self.formulations:
            if f not in FORMULATIONS:
                raise ValueError(f"unknown formulation {f!r}")
        for b in self.backends:
            if b not in BACKENDS:
                raise ValueError(f"unknown backend {b!r}")
        if any(n < 0 for n in self.plane_counts):
            raise ValueError("plane counts must be non-negative")


@dataclass(frozen=True)
class BenchRow:
    method: str
    backend: str
    phase: str  # build | fit | total
    plane_count: int
    rep: int
    seconds: float


# Each ratio kind's (inverse-depth, standard) formulations.
_RATIO_PAIRS = {
    "implicit": (IMPLICIT_RGBD, IMPLICIT_STANDARD),
    "explicit": (EXPLICIT_RGBD, EXPLICIT_STANDARD),
}


@dataclass
class BenchReport:
    """Raw timing rows plus a digest of the (deterministic) fit outputs."""

    config: BenchConfig
    rows: list[BenchRow] = field(default_factory=list)
    workload_digest: str = ""

    def to_csv(self) -> str:
        lines = ["method,backend,phase,plane_count,rep,seconds"]
        for r in self.rows:
            lines.append(
                f"{r.method},{r.backend},{r.phase},{r.plane_count},{r.rep},{r.seconds!r}"
            )
        return "\n".join(lines) + "\n"

    def _rows(
        self, method: str, backend: str, phase: str, plane_count: int | None
    ) -> list[BenchRow]:
        """The rows of one method, backend and phase, at ``plane_count`` unless None."""
        return [
            r
            for r in self.rows
            if (r.method, r.backend, r.phase) == (method, backend, phase)
            and (plane_count is None or r.plane_count == plane_count)
        ]

    def _seconds(
        self, method: str, backend: str, phase: str, plane_count: int | None
    ) -> list[float]:
        values = sorted(r.seconds for r in self._rows(method, backend, phase, plane_count))
        if not values:
            raise ValueError(f"no rows for {method}/{backend}/{phase}/{plane_count}")
        return values

    def median_seconds(
        self, method: str, backend: str, phase: str, plane_count: int | None = None
    ) -> float:
        return statistics.median(self._seconds(method, backend, phase, plane_count))

    def spread_seconds(
        self, method: str, backend: str, phase: str, plane_count: int | None = None
    ) -> tuple[float, float, float]:
        values = self._seconds(method, backend, phase, plane_count)
        return values[0], statistics.median(values), values[-1]

    def _ratio(self, kind: str, phase: str, plane_count: int | None = None) -> float:
        """Median over repetitions of the ``phase`` time on the integral
        backend, inverse-depth over standard.

        Both methods run in every repetition, one after the other, so pairing
        their times by repetition cancels host-speed swings that outlast a
        pair; a ratio of the two medians would take them from different swings.
        """
        if kind not in _RATIO_PAIRS:
            raise ValueError(f"kind must be 'implicit' or 'explicit', got {kind!r}")
        rgbd, standard = (
            {r.rep: r.seconds for r in self._rows(method, "integral", phase, plane_count)}
            for method in _RATIO_PAIRS[kind]
        )
        if not rgbd or rgbd.keys() != standard.keys():
            raise ValueError(f"no paired {kind}/integral/{phase}/{plane_count} rows")
        return statistics.median(rgbd[rep] / standard[rep] for rep in rgbd)

    def build_ratio(self, kind: str) -> float:
        """Median per-frame channel-build time, inverse-depth over standard."""
        return self._ratio(kind, "build")

    def per_fit_ratio(self, kind: str) -> float:
        """Median per-fit time ratio (integral backend) at the largest sweep."""
        return self._ratio(kind, "fit", max(n for n in self.config.plane_counts if n > 0))

    def summary(self) -> str:
        lines = []
        for formulation in self.config.formulations:
            for backend in self.config.backends:
                build = self.median_seconds(formulation, backend, "build")
                parts = [f"{formulation:>18s} {backend:>8s}  build {build * 1e3:8.3f} ms"]
                counts = [n for n in self.config.plane_counts if n > 0]
                if counts:
                    n = max(counts)
                    fit = self.median_seconds(formulation, backend, "fit", n)
                    parts.append(f"fit x{n} {fit * 1e3:8.3f} ms")
                lines.append("  ".join(parts))
        for kind in ("implicit", "explicit"):
            try:
                lines.append(f"build ratio ({kind}, inverse-depth/standard): {self.build_ratio(kind):.3f}")
            except ValueError:
                pass
        return "\n".join(lines)


def _bench_frame(config: BenchConfig):
    intrinsics = CameraIntrinsics(
        fx=525.0,
        fy=525.0,
        cx=(config.width - 1) / 2.0,
        cy=(config.height - 1) / 2.0,
        width=config.width,
        height=config.height,
    )
    maps = compute_tan_maps(intrinsics)
    normal = np.array([0.15, 0.1, -0.98])
    normal /= np.linalg.norm(normal)
    d = -float(normal @ np.array([0.0, 0.0, 2.5]))
    scene = SyntheticScene(planes=(GroundTruthPlane(np.array([*normal, d])),))
    depth, _ = render_scene(scene, maps, noise=NoiseModel(), seed=config.seed)
    return maps, depth


def run_bench(config: BenchConfig | None = None) -> BenchReport:
    """Time channel builds and window fits for every requested method.

    Per repetition: (re)build the per-frame channels (integral backend only;
    the naive backend's build time is zero by definition), then fit the
    center window ``plane_count`` times per sweep entry.  Warmup repetitions
    run the same work untimed, so the camera's constant and its
    explicit-rgbd record of the window are built there, never in a timed
    build or fit.  Single-threaded.
    """
    config = config or BenchConfig()
    maps, depth = _bench_frame(config)
    x0 = (config.width - config.tile) // 2
    y0 = (config.height - config.tile) // 2
    rect = Rect(x0, y0, x0 + config.tile, y0 + config.tile)

    report = BenchReport(config=config)
    digest = hashlib.sha256()

    # methods are interleaved inside each repetition so slow drift in machine
    # load cancels out of the derived ratios
    for rep in range(config.warmup + config.repetitions):
        timed = rep >= config.warmup
        rep_index = rep - config.warmup
        for formulation in config.formulations:
            for backend in config.backends:
                if backend == "integral":
                    t0 = time.perf_counter()
                    # exactly the audited scatter channels, no residual
                    stack = build_channels(depth, maps, formulation, include_residual=False)
                    build_seconds = time.perf_counter() - t0
                else:
                    stack = None
                    build_seconds = 0.0

                if timed:
                    report.rows.append(
                        BenchRow(formulation, backend, "build", 0, rep_index, build_seconds)
                    )
                    report.rows.append(
                        BenchRow(formulation, backend, "total", 0, rep_index, build_seconds)
                    )

                for count in config.plane_counts:
                    if count == 0:
                        continue
                    t0 = time.perf_counter()
                    for _ in range(count):
                        result = fitting.fit_rect(
                            depth, maps, rect, formulation, backend, stack=stack
                        )
                    fit_seconds = time.perf_counter() - t0
                    if timed:
                        report.rows.append(
                            BenchRow(formulation, backend, "fit", count, rep_index, fit_seconds)
                        )
                        report.rows.append(
                            BenchRow(
                                formulation,
                                backend,
                                "total",
                                count,
                                rep_index,
                                build_seconds + fit_seconds,
                            )
                        )
                    if rep == 0 and count == max(config.plane_counts):
                        coef = result.plane.coefficients
                        if isinstance(result.plane, ExplicitPlane):
                            coef = fitting.explicit_to_implicit(result.plane).coefficients
                        digest.update(formulation.encode())
                        digest.update(backend.encode())
                        digest.update(np.asarray(coef, dtype="<f8").tobytes())

    report.workload_digest = digest.hexdigest()
    return report
