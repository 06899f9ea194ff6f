"""Span tracing from outside the library, by rebinding its public functions.

``install`` replaces each traced function with a wrapper that records one
span per call (name, start, end, parent span, frame id, formulation tag and
an outcome note) and returns a handle whose ``restore`` puts the originals
back.  Nothing inside ``rangefit`` is edited; a target that no longer exists
is reported as missing instead of raising.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import csv
import importlib
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from rangefit.errors import InsufficientSamplesError

NO_PARENT = -1


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    frame: int
    tag: str = ""
    note: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``frame`` is the id stamped on every new span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.frame = -1
        self._open: list[int] = []

    def begin(self, name: str, tag: str = "") -> int:
        parent = self._open[-1] if self._open else NO_PARENT
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.frame, tag))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int, note: object = None) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        if note is not None:
            span.note = note
        self._open.pop()

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start", "end", "parent", "frame", "tag", "note"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s.name, repr(s.start), repr(s.end), s.parent, s.frame, s.tag, s.note])


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another on a single thread, so their
    summed duration is the part of the parent's interval they cover.
    """
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent != NO_PARENT:
            own[s.parent] -= s.seconds
    return own


# Formulation names as the library spells them; kept here so that tags do not
# depend on the library's constants still existing.
FORMULATIONS = ("implicit-standard", "implicit-rgbd", "explicit-standard", "explicit-rgbd")

FRAME_BUILDERS = {
    "build_standard_implicit_channels": "implicit-standard",
    "build_rgbd_implicit_channels": "implicit-rgbd",
    "build_standard_explicit_channels": "explicit-standard",
    "build_rgbd_explicit_channels": "explicit-rgbd",
}


def _formulation_at(position: int):
    """Tag reader for a function taking ``formulation`` as argument ``position``."""

    def read(args: tuple, kwargs: dict) -> str:
        if "formulation" in kwargs:
            return kwargs["formulation"]
        return args[position] if len(args) > position else ""

    return read


def table_count(stack: object) -> int | None:
    """Summed-area tables in a frame stack, the count table included."""
    channels = getattr(stack, "channels", None)
    if isinstance(channels, dict):
        return len(channels) + (1 if getattr(stack, "count", None) is not None else 0)
    return None


def _fit_outcome(result: object) -> str:
    return "degenerate" if getattr(result, "degenerate", False) else "ok"


@dataclass(frozen=True)
class Target:
    """One function to trace: where it lives, the span name, how to tag it."""

    module: str
    attr: str
    span: str
    tag: object = None  # callable (args, kwargs) -> str, or a fixed str
    note: object = None  # callable (result) -> note
    item: str | None = None  # trace ``module.attr[item]`` instead of ``module.attr``


def _targets() -> list[Target]:
    targets = [
        Target("rangefit.camera", "compute_tan_maps", "camera.tan_maps"),
        Target("rangefit.integral", "build_constant_channels", "integral.constant_build"),
        Target("rangefit.segment", "build_frame_stack", "integral.frame_build",
               tag=_formulation_at(2), note=table_count),
        Target("rangefit.fitting", "fit_rect", "fitting.fit_rect",
               tag=_formulation_at(3), note=_fit_outcome),
        Target("rangefit.fitting", "scatter_from_integrals", "fitting.gather",
               tag=_formulation_at(3)),
        Target("rangefit.fitting", "cholesky3", "fitting.factor"),
        Target("rangefit.fitting", "ExplicitRgbdFitter.fit", "fitting.solve",
               tag="explicit-rgbd", note=lambda r: "fitter"),
        Target("rangefit.segment", "segment", "segment.segment",
               note=lambda r: getattr(r, "n_fitted", None)),
        Target("rangefit.segment", "kmeans", "segment.cluster"),
        Target("rangefit.segment", "Segmentation.to_color", "segment.paint"),
    ]
    for attr, formulation in FRAME_BUILDERS.items():
        targets.append(Target("rangefit.integral", attr, "integral.frame_build",
                              tag=formulation, note=table_count))
    for formulation in FORMULATIONS:
        targets.append(Target("rangefit.fitting", "FIT_BY_FORMULATION", "fitting.solve",
                              tag=formulation, item=formulation))
    return targets


def _wrap(recorder: Recorder, target: Target, fn):
    tag, note = target.tag, target.note

    def traced(*args, **kwargs):
        index = recorder.begin(target.span, tag(args, kwargs) if callable(tag) else (tag or ""))
        try:
            result = fn(*args, **kwargs)
        except InsufficientSamplesError:
            recorder.end(index, "insufficient")
            raise
        except Exception as exc:
            recorder.end(index, f"error:{type(exc).__name__}")
            raise
        recorder.end(index, note(result) if note is not None else None)
        return result

    traced.__wrapped__ = fn
    return traced


class Installed:
    """Originals replaced by ``install``; ``restore`` puts them back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object, bool]] = []
        self.missing: list[str] = []

    def restore(self) -> None:
        while self._undo:
            owner, key, original, is_item = self._undo.pop()
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)


def _resolve(target: Target) -> tuple[object, str] | None:
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, last = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, last):
        return None
    return owner, last


def install(recorder: Recorder) -> Installed:
    installed = Installed()
    for target in _targets():
        label = f"{target.module}.{target.attr}" + (f"[{target.item}]" if target.item else "")
        found = _resolve(target)
        if found is None:
            installed.missing.append(label)
            continue
        owner, key = found
        if target.item is not None:
            table = getattr(owner, key)
            if not isinstance(table, dict) or target.item not in table:
                installed.missing.append(label)
                continue
            installed._undo.append((table, target.item, table[target.item], True))
            table[target.item] = _wrap(recorder, target, table[target.item])
        else:
            original = getattr(owner, key)
            installed._undo.append((owner, key, original, False))
            setattr(owner, key, _wrap(recorder, target, original))
    return installed


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    spans: list[Span], setup_frames: list[int], frames: list[int], table_cells: int,
) -> dict[str, float]:
    """Per-layer metrics from the spans of traced set-ups and traced frames.

    ``table_cells`` is (H+1)(W+1), the size of one summed-area table.
    Times are medians; counts and fractions are over all traced frames.  A
    layer that a workload never calls reads 0.
    """
    own = self_seconds(spans)
    # spans of one name nested in another of the same name are not counted twice
    outer = [
        s.parent == NO_PARENT or spans[s.parent].name != s.name for s in spans
    ]

    def picked(ids: list[int], name: str, tag: str | None = None) -> dict[int, list[int]]:
        """Outermost spans called ``name`` (and tagged ``tag``), grouped by frame."""
        by_frame: dict[int, list[int]] = {f: [] for f in ids}
        for i, s in enumerate(spans):
            if s.name == name and outer[i] and s.frame in by_frame and (tag is None or s.tag == tag):
                by_frame[s.frame].append(i)
        return by_frame

    def per_frame_ms(by_frame: dict[int, list[int]]) -> float:
        totals = [sum(spans[i].seconds for i in ids) for ids in by_frame.values() if ids]
        return 1e3 * _median(totals)

    def per_call_us(by_frame: dict[int, list[int]]) -> float:
        return 1e6 * _median([spans[i].seconds for ids in by_frame.values() for i in ids])

    m: dict[str, float] = {
        "camera.tan_maps_ms": per_frame_ms(picked(setup_frames, "camera.tan_maps")),
        "integral.constant_build_ms": per_frame_ms(picked(setup_frames, "integral.constant_build")),
    }
    for tag in (None, *FORMULATIONS):
        suffix = "" if tag is None else f".{tag}"
        builds = picked(frames, "integral.frame_build", tag)
        tables = _median([sum(int(spans[i].note or 0) for i in ids) for ids in builds.values() if ids])
        m[f"integral.frame_build_ms{suffix}"] = per_frame_ms(builds)
        m[f"integral.channels{suffix}"] = float(tables)
        m[f"integral.table_mb{suffix}"] = tables * table_cells * 8 / 1e6

    fits = picked(frames, "fitting.fit_rect")
    fit_ids = [i for ids in fits.values() for i in ids]
    m["fitting.fit_calls"] = _median([len(ids) for ids in fits.values()])
    m["fitting.fit_us"] = per_call_us(fits)
    for tag in FORMULATIONS:
        m[f"fitting.gather_us.{tag}"] = per_call_us(picked(frames, "fitting.gather", tag))
        m[f"fitting.solve_us.{tag}"] = per_call_us(picked(frames, "fitting.solve", tag))

    factored = {spans[i].parent for ids in picked(frames, "fitting.factor").values() for i in ids}
    fitter_calls = [
        i for ids in picked(frames, "fitting.solve", "explicit-rgbd").values() for i in ids
        if spans[i].note == "fitter"
    ]
    m["fitting.cache_hit_frac"] = (
        sum(1 for i in fitter_calls if i not in factored) / len(fitter_calls) if fitter_calls else 0.0
    )
    for key, outcome in (("fitting.degenerate_frac", "degenerate"),
                         ("fitting.insufficient_frac", "insufficient")):
        m[key] = sum(1 for i in fit_ids if spans[i].note == outcome) / len(fit_ids) if fit_ids else 0.0

    segments = picked(frames, "segment.segment")
    m["segment.quadtree_self_ms"] = 1e3 * _median(
        [sum(own[i] for i in ids) for ids in segments.values() if ids]
    )
    seg_ids = {i for ids in segments.values() for i in ids}
    seg_fits = sum(1 for i in fit_ids if spans[i].parent in seg_ids)
    fitted = sum(spans[i].note for i in seg_ids if isinstance(spans[i].note, int))
    m["segment.fit_yield"] = fitted / seg_fits if seg_fits else 0.0
    m["segment.cluster_ms"] = per_frame_ms(picked(frames, "segment.cluster"))
    m["segment.paint_ms"] = per_frame_ms(picked(frames, "segment.paint"))
    return m
