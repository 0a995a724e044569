"""Shared plumbing: grid resolution, model building and the detect loop.

The CLI and the benchmark harness build a model with ``build_model`` and
run subtract -> median cleanup -> connected components -> classify on each
frame with ``detect_stream``. Results are deterministic for a given input.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator, MutableSequence
from dataclasses import dataclass, field
from itertools import chain, islice

from .background import DEFAULT_MAX_FRAMES, BackgroundModel, RebuildWindow, backfill, build_srbi, coverage, update_srbi
from .blocks import (
    DELTA_H_HIGH,
    DELTA_H_LOW,
    GRID_CHOICES,
    BlockGrid,
    make_grid,
    select_grid,
)
from .comparators import ComparatorConfig
from .errors import SequenceTooShort
from .foreground import (
    DEFAULT_MIN_AREA_FRAC,
    DEFAULT_SUBTRACT_SHIFT,
    DEFAULT_WINDOW,
    DetectedObject,
    ForegroundMask,
    connected_components,
    make_mask,
)
from .imaging import Frame
from .validation import VEHICLE, HeuristicParams, classify_all


@dataclass(frozen=True)
class PipelineParams:
    """Knobs for the detection side of the pipeline (model side lives in
    ComparatorConfig)."""

    grid: int | None = None  # None = auto from entropy delta
    grid_low: float = DELTA_H_LOW
    grid_high: float = DELTA_H_HIGH
    subtract_shift: int = DEFAULT_SUBTRACT_SHIFT
    window: int = DEFAULT_WINDOW
    min_area: float | None = None  # None = DEFAULT_MIN_AREA_FRAC of the cropped area
    validate: bool = True
    heuristic: HeuristicParams = field(default_factory=HeuristicParams)

    def __post_init__(self):
        if self.grid not in (None, *GRID_CHOICES):
            raise ValueError(f"grid must be auto, 8, 16 or 32, got {self.grid}")
        if not 0 < self.grid_low < self.grid_high:
            raise ValueError(
                f"grid thresholds must satisfy 0 < low < high, got {self.grid_low},{self.grid_high}"
            )
        if not 0 <= self.subtract_shift <= 7:
            raise ValueError(f"subtract shift must be in [0, 7], got {self.subtract_shift}")
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 3, got {self.window}")
        if self.min_area is not None and not self.min_area >= 0:  # NaN fails too
            raise ValueError(f"min area must be >= 0, got {self.min_area}")

    def resolved_min_area(self, cropped_area: int) -> float:
        if self.min_area is not None:
            return self.min_area
        return DEFAULT_MIN_AREA_FRAC * cropped_area


def resolve_grid(frames: list[Frame], params: PipelineParams) -> BlockGrid:
    """Fixed g if configured, otherwise auto-select from the first two frames."""
    if not frames:
        raise SequenceTooShort("no frames to resolve a grid from")
    if params.grid is not None:
        g = params.grid
    else:
        if len(frames) < 2:
            raise SequenceTooShort("grid auto-selection needs at least 2 frames")
        g = select_grid(frames[0], frames[1], params.grid_low, params.grid_high)
    return make_grid(frames[0].width, frames[0].height, g)


def label_objects(objects: list[DetectedObject], cropped_area: int, params: PipelineParams) -> list[DetectedObject]:
    """Labeled copies of a frame's objects: by the heuristic, or all vehicles without ``params.validate``."""
    if params.validate:
        return classify_all(objects, cropped_area, params.heuristic)
    return [o.labeled(VEHICLE, 1.0) for o in objects]


def detect_frame(
    model: BackgroundModel, frame: Frame, params: PipelineParams
) -> tuple[ForegroundMask, list[DetectedObject]]:
    """Mask and labeled objects for one frame against a complete model."""
    mask = make_mask(model, frame, params.subtract_shift, params.window)
    cropped_area = mask.width * mask.height
    objects = connected_components(mask, params.resolved_min_area(cropped_area))
    return mask, label_objects(objects, cropped_area, params)


def run_detection(
    model: BackgroundModel, frames: list[Frame], params: PipelineParams
) -> list[tuple[ForegroundMask, list[DetectedObject]]]:
    """detect_frame over a sequence; output order always matches input."""
    return [detect_frame(model, f, params) for f in frames]


def build_model(
    frames: Iterable[Frame], params: PipelineParams, cfg: ComparatorConfig,
    max_frames: int = DEFAULT_MAX_FRAMES, fill: bool = True, pulled: MutableSequence[Frame] | None = None,
) -> BackgroundModel:
    """``build_srbi`` over the head of ``frames``, on the grid their first two
    resolve to; each frame it pulls is appended to ``pulled``. With ``fill``,
    cells that never settled are backfilled from the last one."""
    pulled = deque(maxlen=1) if pulled is None else pulled
    frames = iter(frames)
    head = list(islice(frames, 2))
    grid = resolve_grid(head, params)

    def pulling() -> Iterator[Frame]:
        for frame in chain(head, frames):
            pulled.append(frame)
            yield frame

    model = build_srbi(pulling(), grid, cfg, max_frames=max_frames)
    if fill and coverage(model) < 1.0:
        model = backfill(model, pulled[-1])
    return model


def detect_stream(
    model: BackgroundModel, frames: Iterable[Frame], params: PipelineParams, cfg: ComparatorConfig | None = None,
    max_frames: int = DEFAULT_MAX_FRAMES, rebuild_every: int = 0, build: BackgroundModel | None = None,
    reload: Callable[[int], Frame] | None = None,
) -> Iterator[tuple[ForegroundMask, list[DetectedObject]]]:
    """Each frame's mask and objects, in order. With ``rebuild_every`` N > 0,
    ``update_srbi`` moves one build with ``cfg`` (at first ``build``, one over
    the head of ``frames``, or unread) to the last ``max_frames`` frames
    before every Nth frame. Those frames are held, besides the current one,
    unless ``reload(i)`` returns frame i of ``frames`` again: then none is
    held, and a rebuild reloads only the frames of the pairs it compares. A
    negative ``rebuild_every``, or a positive one without ``cfg`` or with
    ``max_frames`` < 2, raises ValueError before any frame is read."""
    if rebuild_every < 0:
        raise ValueError(f"rebuild_every must be >= 0, got {rebuild_every}")
    if rebuild_every and cfg is None:
        raise ValueError("rebuilding needs a comparator config")
    if rebuild_every and max_frames < 2:
        raise ValueError(f"rebuilding needs max_frames >= 2, got {max_frames}")
    recent = RebuildWindow(model.grid, max_frames if rebuild_every else 0, build, reload)
    for i, frame in enumerate(frames):
        if len(recent) >= 2 and i % rebuild_every == 0:
            model = update_srbi(model, recent, cfg)
        yield from run_detection(model, [frame], params)
        recent.append(frame)
