"""Geometric object validation."""

from dataclasses import replace

import numpy as np
import pytest

from blockbg.foreground import DetectedObject, ForegroundMask, connected_components
from blockbg.validation import (
    NON_VEHICLE,
    VEHICLE,
    HeuristicParams,
    classify_all,
    validate,
)

PARAMS = HeuristicParams()
FRAME_AREA = 400 * 400


def solid(w, h, area=None):
    """A detected object with the given bbox; area defaults to full fill."""
    area = w * h if area is None else area
    return DetectedObject(
        x=10, y=10, w=w, h=h, area=area, centroid_x=10.0, centroid_y=10.0
    )


def validated(obj, params=PARAMS, frame_area=FRAME_AREA):
    return validate(obj, params, frame_area)


# --- band membership ---


def test_typical_proportions_pass():
    # 40x25 box, 80% filled: aspect 1.6, fill 0.8, frame fraction 0.005
    v = validated(solid(40, 25, area=800), frame_area=160_000)
    assert v.label == VEHICLE
    assert v.score == 1.0


def test_tiny_blob_rejected_by_area_fraction():
    v = validated(solid(4, 4))  # 16 px of 160000 is below the 0.001 floor
    assert v.label == NON_VEHICLE
    assert v.score == 0.0


def test_extreme_aspect_rejected():
    v = validated(solid(40, 4))  # aspect 10
    assert v.label == NON_VEHICLE
    assert v.score == 0.0


def test_sparse_fill_rejected():
    v = validated(solid(20, 20, area=80))  # fill 0.2
    assert v.label == NON_VEHICLE
    assert v.score == 0.0


def test_degenerate_bbox_is_non_vehicle():
    for obj, frame_area in (
        (solid(0, 10, area=0), FRAME_AREA),
        (solid(10, 0, area=0), FRAME_AREA),
        (solid(10, 10), 0),
    ):
        assert validated(obj, frame_area=frame_area) == replace(obj, label=NON_VEHICLE, score=0.0)


def test_validate_returns_a_labeled_copy():
    obj = solid(40, 25, area=800)
    v = validated(obj, frame_area=160_000)
    assert v == replace(obj, label=VEHICLE, score=1.0)
    assert obj.label is None and obj.score == 0.0  # the input is not mutated


# --- edge ramps ---


def test_band_edges_are_inclusive_but_score_zero():
    v = validated(solid(10, 20))  # aspect exactly 0.5
    assert v.label == VEHICLE
    assert v.score == 0.0


def test_score_saturates_ten_percent_inside_the_band():
    v = validated(solid(36, 10))  # aspect 3.6 = 0.9 * aspect_max
    assert v.label == VEHICLE
    assert v.score == pytest.approx(1.0)


def test_score_ramps_linearly_near_the_edge():
    v = validated(solid(38, 10))  # aspect 3.8, halfway down the exit ramp
    assert v.label == VEHICLE
    assert v.score == pytest.approx(0.5)


def test_score_rises_with_fill():
    scores = [
        validated(solid(20, 20, area=a)).score for a in (160, 164, 168, 172, 176, 200)
    ]
    assert all(b >= a for a, b in zip(scores, scores[1:]))
    assert scores[0] == 0.0  # area fraction sits exactly on the floor
    assert scores[-1] == 1.0


# --- parameter validation ---


def test_params_reject_bad_bands():
    with pytest.raises(ValueError):
        HeuristicParams(aspect_min=0.0)
    with pytest.raises(ValueError):
        HeuristicParams(aspect_min=5.0, aspect_max=4.0)
    with pytest.raises(ValueError):
        HeuristicParams(fill_min=0.0)
    with pytest.raises(ValueError):
        HeuristicParams(fill_min=1.5)
    with pytest.raises(ValueError):
        HeuristicParams(area_min_frac=0.6, area_max_frac=0.5)
    with pytest.raises(ValueError):
        HeuristicParams(area_max_frac=1.5)


# --- classify_all ---


def one_object_scene():
    """A 32x32 mask's area and its one 8x6 object (corners clipped)."""
    bits = np.zeros((32, 32), dtype=np.uint8)
    bits[10:16, 12:20] = 1
    for y, x in ((10, 12), (10, 19), (15, 12), (15, 19)):
        bits[y, x] = 0
    return bits.size, connected_components(ForegroundMask(bits))


def test_classify_all_labels_with_the_default_heuristic():
    area, objects = one_object_scene()
    labeled = classify_all(objects, area)
    assert len(labeled) == 1
    assert labeled[0].label == VEHICLE
    assert labeled[0].score == 1.0
    # inputs come back as copies; the originals stay unlabeled
    assert objects[0].label is None


def test_classify_all_honors_params():
    area, objects = one_object_scene()
    strict = HeuristicParams(area_min_frac=0.2, area_max_frac=0.5)
    labeled = classify_all(objects, area, params=strict)
    assert labeled[0].label == NON_VEHICLE


def test_classify_all_empty_list():
    assert classify_all([], 32 * 32) == []

