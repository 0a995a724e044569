"""Shared plumbing: grid resolution and per-frame detection.

Both the CLI and the benchmark harness run the same chain per frame:
subtract -> median cleanup -> connected components -> classify. Results
are deterministic for a given input.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .background import BackgroundModel
from .blocks import (
    DELTA_H_HIGH,
    DELTA_H_LOW,
    GRID_CHOICES,
    BlockGrid,
    make_grid,
    select_grid,
)
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


def detect_frame(
    model: BackgroundModel, frame: Frame, params: PipelineParams
) -> tuple[ForegroundMask, list[DetectedObject]]:
    """Mask and labeled objects for one frame against a complete model."""
    mask = make_mask(model, frame, params.subtract_shift, params.window)
    cropped_area = mask.width * mask.height
    objects = connected_components(mask, params.resolved_min_area(cropped_area))
    if params.validate:
        objects = classify_all(objects, cropped_area, params.heuristic)
    else:
        objects = [replace(o, label=VEHICLE, score=1.0) for o in objects]
    return mask, objects


def run_detection(
    model: BackgroundModel,
    frames: list[Frame],
    params: PipelineParams,
) -> list[tuple[ForegroundMask, list[DetectedObject]]]:
    """detect_frame over a sequence; output order always matches input."""
    return [detect_frame(model, f, params) for f in frames]
