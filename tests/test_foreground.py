"""Subtraction, mask cleanup, connected components, mask codecs."""

import time
from collections import deque

import numpy as np
import pytest

from blockbg.background import backfill, build_srbi
from blockbg.blocks import make_grid
from blockbg.comparators import Method, default_config
from blockbg.errors import ModelIncomplete, PnmError, ShapeMismatch
from blockbg.foreground import (
    DetectedObject,
    ForegroundMask,
    connected_components,
    frame_to_mask,
    make_mask,
    mask_to_frame,
    median_filter_mask,
    subtract,
)

from helpers import frame_of, texture

ABSDIFF = default_config(Method.ABSDIFF)


def model_of(arr, g=4):
    """Fully settled model whose pixels equal ``arr`` (static 2-frame build)."""
    arr = np.asarray(arr, dtype=np.uint8)
    h, w = arr.shape
    return build_srbi([frame_of(arr)] * 2, make_grid(w, h, g), ABSDIFF)


def naive_median(bits, window):
    """Double-loop strict-majority filter; the reference for the fast one."""
    h, w = bits.shape
    r = window // 2
    out = np.zeros_like(bits)
    for y in range(h):
        for x in range(w):
            region = bits[max(y - r, 0) : y + r + 1, max(x - r, 0) : x + r + 1]
            out[y, x] = 1 if 2 * int(region.sum()) > region.size else 0
    return out


def flood_components(bits):
    """8-connected pixel sets via BFS scan; the reference for the fast one."""
    h, w = bits.shape
    seen = np.zeros((h, w), dtype=bool)
    comps = []
    for y in range(h):
        for x in range(w):
            if not bits[y, x] or seen[y, x]:
                continue
            queue = deque([(y, x)])
            seen[y, x] = True
            px = []
            while queue:
                cy, cx = queue.popleft()
                px.append((cy, cx))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = cy + dy, cx + dx
                        if 0 <= ny < h and 0 <= nx < w:
                            if bits[ny, nx] and not seen[ny, nx]:
                                seen[ny, nx] = True
                                queue.append((ny, nx))
            comps.append(px)
    return comps


def summarize(pixels):
    ys = [p[0] for p in pixels]
    xs = [p[1] for p in pixels]
    return (
        min(xs),
        min(ys),
        max(xs) - min(xs) + 1,
        max(ys) - min(ys) + 1,
        len(pixels),
        sum(xs) / len(pixels),
        sum(ys) / len(pixels),
    )


# --- subtract ---


def test_subtract_identity_is_all_zero():
    base = texture(30, 32, 32)
    change = subtract(model_of(base), frame_of(base))
    assert change.shape == (32, 32)
    assert not change.any()


def test_subtract_flags_exactly_the_changed_patch():
    base = np.full((32, 32), 96, dtype=np.uint8)  # bucket 1 at shift 6
    frame = base.copy()
    frame[10:16, 12:20] = 220  # bucket 3
    change = subtract(model_of(base), frame_of(frame))
    expected = np.zeros((32, 32), dtype=np.uint8)
    expected[10:16, 12:20] = 1
    assert np.array_equal(change, expected)


def test_subtract_ignores_changes_within_a_bucket():
    # 72 and 120 share bucket 1 at shift 6 but split at shift 3
    model = model_of(np.full((16, 16), 72, dtype=np.uint8))
    frame = frame_of(np.full((16, 16), 120, dtype=np.uint8))
    assert not subtract(model, frame, shift=6).any()
    assert subtract(model, frame, shift=3).all()


def test_subtract_matches_per_pixel_oracle():
    for seed in range(10):
        a = texture(100 + seed, 16, 16, lo=0, hi=256)
        b = texture(200 + seed, 16, 16, lo=0, hi=256)
        model = model_of(a)
        for shift in (3, 6):
            got = subtract(model, frame_of(b), shift)
            want = ((a >> shift) != (b >> shift)).astype(np.uint8)
            assert np.array_equal(got, want), (seed, shift)


def test_subtract_requires_full_coverage():
    base = texture(31, 16, 16)
    frames = []
    for t in range(6):
        px = base.copy()
        px[4:8, 8:12] = 0 if t % 2 == 0 else 255  # one cell never settles
        frames.append(frame_of(px))
    partial = build_srbi(frames, make_grid(16, 16, 4), ABSDIFF)
    with pytest.raises(ModelIncomplete):
        subtract(partial, frame_of(base))
    # backfilled counts as covered
    filled = backfill(partial, frame_of(base))
    assert subtract(filled, frame_of(base)).shape == (16, 16)


def test_subtract_windows_larger_frames_and_rejects_smaller():
    base = texture(32, 16, 16)
    model = model_of(base)
    big = np.full((32, 32), 255, dtype=np.uint8)
    big[:16, :16] = base
    assert not subtract(model, frame_of(big)).any()
    with pytest.raises(ShapeMismatch):
        subtract(model_of(texture(33, 32, 32)), frame_of(base))


def test_subtract_validates_shift():
    base = texture(34, 16, 16)
    model = model_of(base)
    for bad in (-1, 8):
        with pytest.raises(ValueError):
            subtract(model, frame_of(base), shift=bad)


# --- binary median filter ---


def test_median_removes_isolated_salt():
    bits = np.zeros((16, 16), dtype=np.uint8)
    bits[5, 7] = 1
    assert not median_filter_mask(bits).any()


def test_median_erodes_square_corners():
    bits = np.zeros((16, 16), dtype=np.uint8)
    bits[4:9, 6:11] = 1  # 5x5 solid square
    out = median_filter_mask(bits)
    assert int(out.sum()) == 21  # the four corners go
    for y, x in ((4, 6), (4, 10), (8, 6), (8, 10)):
        assert out[y, x] == 0
    assert out[5:8, 7:10].all()


def test_median_resolves_ties_to_zero():
    bits = np.zeros((16, 16), dtype=np.uint8)
    bits[0, 0] = bits[0, 1] = 1
    # the corner window holds 4 pixels, 2 of them set: an even split
    assert median_filter_mask(bits)[0, 0] == 0


def test_median_preserves_constant_masks():
    zeros = np.zeros((16, 16), dtype=np.uint8)
    ones = np.ones((16, 16), dtype=np.uint8)
    assert not median_filter_mask(zeros).any()
    assert median_filter_mask(ones).all()


def test_median_rejects_bad_windows():
    bits = np.zeros((16, 16), dtype=np.uint8)
    for bad in (0, 1, 2, 4):
        with pytest.raises(ValueError):
            median_filter_mask(bits, window=bad)


def test_median_rejects_values_other_than_0_and_1():
    # A 0/255 mask counted as values would come back with a 3x3 block set.
    bits = np.zeros((5, 5), dtype=np.uint8)
    bits[2, 2] = 255
    with pytest.raises(ValueError, match="mask bits must be 0 or 1, got 255"):
        median_filter_mask(bits)
    for bad in (-1, 0.5, np.nan):
        with pytest.raises(ValueError, match="mask bits must be 0 or 1"):
            median_filter_mask(np.full((5, 5), bad))
    assert median_filter_mask(np.ones((5, 5), dtype=bool)).all()


def test_median_matches_double_loop_oracle():
    rng = np.random.default_rng(40)
    for trial in range(30):
        p = 0.3 if trial % 2 == 0 else 0.5
        bits = (rng.random((64, 64)) < p).astype(np.uint8)
        window = 3 if trial % 3 else 5
        got = median_filter_mask(bits, window)
        assert np.array_equal(got, naive_median(bits, window)), (trial, window)
    # Windows wider than the mask clip their shifted slices; on 40x40, a
    # 17-wide window holds 289 pixels, more than a uint8 count can.
    for shape in ((1, 40), (40, 1), (2, 2), (5, 33), (40, 40)):
        for window in (7, 17):
            for p in (0.3, 0.5, 0.7):
                bits = (rng.random(shape) < p).astype(np.uint8)
                got = median_filter_mask(bits, window)
                assert np.array_equal(got, naive_median(bits, window)), (shape, window, p)


# --- make_mask ---


def test_make_mask_empty_when_nothing_moved():
    base = texture(41, 32, 32)
    mask = make_mask(model_of(base), frame_of(base))
    assert isinstance(mask, ForegroundMask)
    assert not mask.bits.any()


def test_make_mask_keeps_object_minus_corners():
    base = np.full((32, 32), 96, dtype=np.uint8)
    frame = base.copy()
    frame[10:16, 12:20] = 220  # 8x6 rectangle
    mask = make_mask(model_of(base), frame_of(frame))
    assert int(mask.bits.sum()) == 8 * 6 - 4
    objs = connected_components(mask)
    assert len(objs) == 1
    assert objs[0].bbox == (12, 10, 8, 6)


def test_make_mask_ignores_sensor_noise():
    # +-5 sigma around 96 stays inside one shift-6 bucket, so nothing shows
    rng = np.random.default_rng(42)
    base = np.full((32, 32), 96, dtype=np.uint8)
    model = model_of(base)
    for _ in range(5):
        noisy = np.clip(np.rint(96.0 + 5.0 * rng.standard_normal((32, 32))), 0, 255)
        mask = make_mask(model, frame_of(noisy.astype(np.uint8)))
        assert not mask.bits.any()


# --- mask container ---


def test_mask_validates_and_freezes_bits():
    with pytest.raises(ValueError):
        ForegroundMask(np.full((4, 4), 2, dtype=np.uint8))
    with pytest.raises(ValueError):
        ForegroundMask(np.zeros(16, dtype=np.uint8))
    # Checked before the cast, which would turn each of these into a 0 or a 1.
    for bad in (0.5, np.int32(256), np.nan, 1.7, -1):
        with pytest.raises(ValueError, match="0 or 1"):
            ForegroundMask(np.full((2, 2), bad))
    assert ForegroundMask(np.zeros((0, 3))).bits.shape == (0, 3)  # empty masks stay legal
    assert ForegroundMask(np.eye(2, dtype=bool)) == ForegroundMask(np.eye(2))
    src = np.zeros((4, 4), dtype=np.uint8)
    mask = ForegroundMask(src)
    src[0, 0] = 1  # the mask holds its own copy
    assert mask.bits[0, 0] == 0
    assert mask == ForegroundMask(np.zeros((4, 4), dtype=np.uint8))
    assert mask != ForegroundMask(np.ones((4, 4), dtype=np.uint8))


# --- connected components ---


def test_components_find_separated_rectangles():
    bits = np.zeros((16, 16), dtype=np.uint8)
    bits[2:5, 3:8] = 1  # 5x3 at (3, 2)
    bits[9:13, 1:4] = 1  # 3x4 at (1, 9)
    objs = connected_components(ForegroundMask(bits))
    assert [o.bbox for o in objs] == [(3, 2, 5, 3), (1, 9, 3, 4)]
    assert [o.area for o in objs] == [15, 12]
    assert objs[0].centroid_x == 5.0 and objs[0].centroid_y == 3.0


def test_components_join_across_diagonals():
    bits = np.zeros((16, 16), dtype=np.uint8)
    bits[2:4, 2:4] = 1
    bits[4:6, 4:6] = 1  # touches the first square corner to corner
    objs = connected_components(ForegroundMask(bits))
    assert len(objs) == 1
    assert objs[0].area == 8
    assert objs[0].bbox == (2, 2, 4, 4)


def test_components_apply_min_area():
    bits = np.zeros((16, 16), dtype=np.uint8)
    bits[2:6, 2:6] = 1
    bits[10, 10] = 1
    objs = connected_components(ForegroundMask(bits), min_area=2)
    assert len(objs) == 1 and objs[0].area == 16
    with pytest.raises(ValueError):
        connected_components(ForegroundMask(bits), min_area=-1)


def test_components_sorted_by_row_then_column():
    bits = np.zeros((16, 16), dtype=np.uint8)
    bits[3, 10] = 1
    bits[3, 2] = 1
    bits[1, 14] = 1
    objs = connected_components(ForegroundMask(bits))
    assert [(o.y, o.x) for o in objs] == [(1, 14), (3, 2), (3, 10)]


def art(*rows):
    """A mask drawn with '#' for set pixels."""
    return np.array([[c == "#" for c in row] for row in rows], dtype=np.uint8)


def comb(h, w, spine_row):
    """Every other column set, joined by one full row."""
    bits = np.zeros((h, w), dtype=np.uint8)
    bits[:, ::2] = 1
    bits[spine_row] = 1
    return bits


def spiral(n):
    """A one-pixel square spiral with one-pixel gaps between its turns."""
    bits = np.zeros((n, n), dtype=np.uint8)
    y = x = 0
    bits[0, 0] = 1
    steps = [n - 1] * 3 + [k for k in range(n - 3, 0, -2) for _ in (0, 1)]
    for i, k in enumerate(steps):
        dy, dx = ((0, 1), (1, 0), (0, -1), (-1, 0))[i % 4]
        for _ in range(k):
            y, x = y + dy, x + dx
            bits[y, x] = 1
    return bits


def stairs(n, step, gap, leftward=False):
    """Row r holds a run of ``step`` pixels starting ``gap`` columns past
    the end of row r-1's run; gap 0 touches only diagonally."""
    bits = np.zeros((n, n * (step + gap)), dtype=np.uint8)
    for r in range(n):
        bits[r, r * (step + gap) : r * (step + gap) + step] = 1
    return bits[:, ::-1] if leftward else bits


def edge_runs():
    bits = np.zeros((8, 9), dtype=np.uint8)
    bits[2, -2:] = 1  # ends at the right edge ...
    bits[3, :2] = 1  # ... and the next row starts at the left: not touching
    bits[-1, 4:] = 1  # along the bottom-right corner
    bits[-4:, -1] = 1
    return bits


LABELLER_CASES = (
    np.ones((1, 1), dtype=np.uint8),
    np.ones((1, 7), dtype=np.uint8),
    np.ones((7, 1), dtype=np.uint8),
    np.ones((5, 6), dtype=np.uint8),
    np.tile(np.uint8([[1], [0]]), (4, 9))[:7],  # 1-px rows
    np.tile(np.uint8([1, 0]), (9, 4))[:, :7],  # 1-px columns
    edge_runs(),
    comb(10, 11, -1),
    comb(10, 12, -1),
    comb(10, 11, 0),
    spiral(15),
    spiral(16),
    np.eye(9, dtype=np.uint8),
    np.eye(9, dtype=np.uint8)[:, ::-1],
    stairs(6, 2, 0),
    stairs(6, 2, 0, leftward=True),
    stairs(6, 2, 1),
    stairs(6, 2, 1, leftward=True),
    art(
        "#..#",  # a lone pixel and a staircase share bbox (y, x) = (0, 0)
        "..#.",
        ".#..",
        "#...",
    ),
    art(
        "......#",  # U whose first run is its right arm, not its leftmost
        "..#...#",
        "..#...#",
        "..#####",
    ),
    art(
        "..#....#",  # W: three arms that merge only on the bottom rows
        "#.#..#.#",
        "#.#..#.#",
        "#.####.#",
        "########",
    ),
)


def test_components_match_flood_fill_oracle():
    rng = np.random.default_rng(45)
    random_masks = [(rng.random((64, 64)) < 0.35).astype(np.uint8) for _ in range(20)]
    for case, bits in enumerate(random_masks + list(LABELLER_CASES)):
        objs = connected_components(ForegroundMask(bits))
        # flood_components discovers in raster order; the sort is stable
        want = sorted(
            (summarize(px) for px in flood_components(bits)), key=lambda c: (c[1], c[0])
        )
        got = [(o.x, o.y, o.w, o.h, o.area, o.centroid_x, o.centroid_y) for o in objs]
        assert got == want, case
        assert sum(o.area for o in objs) == int(bits.sum())
        for o in objs:
            assert o.x <= o.centroid_x <= o.x + o.w - 1
            assert o.y <= o.centroid_y <= o.y + o.h - 1


def test_components_label_a_720p_comb_within_budget():
    # The comb joins 640 columns through its last row, so a labeller that
    # spreads labels one step per pass (or floods per pixel) is too slow.
    mask = ForegroundMask(comb(720, 1280, -1))
    start = time.perf_counter()
    objs = connected_components(mask)
    elapsed = time.perf_counter() - start
    assert [(o.bbox, o.area) for o in objs] == [((0, 0, 1280, 720), 640 * 719 + 1280)]
    assert elapsed < 2.0, elapsed


def test_components_empty_mask_yields_nothing():
    assert connected_components(ForegroundMask(np.zeros((8, 8), dtype=np.uint8))) == []


def test_detected_object_bbox_property():
    obj = DetectedObject(x=3, y=4, w=5, h=6, area=30, centroid_x=5.0, centroid_y=6.5)
    assert obj.bbox == (3, 4, 5, 6)
    assert obj.label is None and obj.score == 0.0


# --- mask codecs ---


def test_mask_frame_round_trip():
    rng = np.random.default_rng(46)
    for _ in range(5):
        bits = (rng.random((16, 16)) < 0.4).astype(np.uint8)
        mask = ForegroundMask(bits)
        encoded = mask_to_frame(mask)
        assert set(np.unique(encoded.pixels)) <= {0, 255}
        assert frame_to_mask(encoded) == mask


def test_frame_to_mask_names_the_bad_pixel():
    px = np.zeros((16, 16), dtype=np.uint8)
    px[2, 3] = 7
    with pytest.raises(PnmError) as err:
        frame_to_mask(frame_of(px))
    assert "(3, 2)" in str(err.value)
    assert "7" in str(err.value)
