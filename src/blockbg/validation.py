"""Object validation: is a detected blob plausibly a vehicle?

The classifier is a geometric heuristic over the object's bbox:
aspect ratio, fill ratio, and frame-area fraction each have an accepted
band. The label comes from hard (inclusive) band membership; the score is
the product of three sub-scores that are 1.0 comfortably inside a band
and ramp linearly to 0 at its edge over a 10% (relative) margin.
"""

from __future__ import annotations

from dataclasses import dataclass

from .foreground import DetectedObject

VEHICLE = "vehicle"
NON_VEHICLE = "non-vehicle"


@dataclass(frozen=True)
class HeuristicParams:
    aspect_min: float = 0.5
    aspect_max: float = 4.0
    fill_min: float = 0.4
    area_min_frac: float = 0.001
    area_max_frac: float = 0.5

    def __post_init__(self):
        if not 0 < self.aspect_min <= self.aspect_max:
            raise ValueError("need 0 < aspect_min <= aspect_max")
        if not 0 < self.fill_min <= 1:
            raise ValueError("need 0 < fill_min <= 1")
        if not 0 < self.area_min_frac <= self.area_max_frac <= 1:
            raise ValueError("need 0 < area_min_frac <= area_max_frac <= 1")


_RAMP = 0.1  # relative width of the edge ramp


def _edge_ramp(x: float, lo: float, hi: float | None) -> float:
    """1.0 comfortably inside [lo, hi]; linear to 0 at either edge."""
    s = (x - lo) / (_RAMP * lo)
    if hi is not None:
        s = min(s, (hi - x) / (_RAMP * hi))
    return max(0.0, min(1.0, s))


def validate(obj: DetectedObject, params: HeuristicParams, frame_area: int) -> DetectedObject:
    """A copy of ``obj`` labeled by the geometric heuristic, with its score."""
    if obj.w <= 0 or obj.h <= 0 or frame_area <= 0:
        return obj.labeled(NON_VEHICLE, 0.0)
    aspect = obj.w / obj.h
    fill = obj.area / (obj.w * obj.h)
    frac = obj.area / frame_area
    ok = (
        params.aspect_min <= aspect <= params.aspect_max
        and fill >= params.fill_min
        and params.area_min_frac <= frac <= params.area_max_frac
    )
    score = (
        _edge_ramp(aspect, params.aspect_min, params.aspect_max)
        * _edge_ramp(fill, params.fill_min, None)
        * _edge_ramp(frac, params.area_min_frac, params.area_max_frac)
    )
    return obj.labeled(VEHICLE if ok else NON_VEHICLE, score)


def classify_all(
    objects: list[DetectedObject],
    frame_area: int,
    params: HeuristicParams = HeuristicParams(),
) -> list[DetectedObject]:
    """Label every object, preserving order. Objects are returned as
    labeled copies; inputs are never mutated."""
    return [validate(o, params, frame_area) for o in objects]
