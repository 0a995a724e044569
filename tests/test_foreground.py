"""Subtraction, mask cleanup, connected components, mask codecs."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockbg import foreground
from blockbg.background import BackgroundModel, backfill, build_srbi, save_model
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
from blockbg.imaging import load_frame, prefilter, save_frame

from helpers import FIXED, frame_of, texture
from oracles import flood_components, naive_median, naive_subtract, summarize

ABSDIFF = default_config(Method.ABSDIFF)


def model_of(arr, g=4):
    """Fully settled model whose pixels equal ``arr`` (static 2-frame build)."""
    arr = np.asarray(arr, dtype=np.uint8)
    h, w = arr.shape
    return build_srbi([frame_of(arr)] * 2, make_grid(w, h, g), ABSDIFF)


# --- subtract ---


def test_subtract_identity_is_all_zero():
    base = texture(30, 32, 32)
    change = subtract(model_of(base), frame_of(base))
    assert isinstance(change, ForegroundMask)
    assert change.bits.shape == (32, 32)
    assert not change.bits.any()


def test_subtract_flags_exactly_the_changed_patch():
    base = np.full((32, 32), 96, dtype=np.uint8)  # bucket 1 at shift 6
    frame = base.copy()
    frame[10:16, 12:20] = 220  # bucket 3
    change = subtract(model_of(base), frame_of(frame))
    expected = np.zeros((32, 32), dtype=np.uint8)
    expected[10:16, 12:20] = 1
    assert change == ForegroundMask(expected)


def test_subtract_ignores_changes_within_a_bucket():
    # 72 and 120 share bucket 1 at shift 6 but split at shift 3
    model = model_of(np.full((16, 16), 72, dtype=np.uint8))
    frame = frame_of(np.full((16, 16), 120, dtype=np.uint8))
    assert not subtract(model, frame, shift=6).bits.any()
    assert subtract(model, frame, shift=3).bits.all()


def test_subtract_matches_per_pixel_oracle():
    for seed in range(10):
        a = texture(100 + seed, 16, 16, lo=0, hi=256)
        b = texture(200 + seed, 16, 16, lo=0, hi=256)
        model = model_of(a)
        for shift in (3, 6):
            got = subtract(model, frame_of(b), shift).bits
            assert np.array_equal(got, naive_subtract(a, b, shift)), (seed, shift)
    # Every (model, frame) intensity pair at every shift.
    a = np.repeat(np.arange(256, dtype=np.uint8), 256).reshape(256, 256)
    b = a.T
    model, frame = model_of(a), frame_of(b)
    for shift in range(8):
        got = subtract(model, frame, shift).bits
        assert got.dtype == np.uint8 and np.array_equal(got, naive_subtract(a, b, shift)), shift
        assert not np.shares_memory(got, model.pixels)
        assert not np.shares_memory(got, frame.pixels)
        assert np.array_equal(model.pixels, a) and np.array_equal(frame.pixels, b)


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
    assert subtract(filled, frame_of(base)).bits.shape == (16, 16)


def test_subtract_windows_larger_frames_and_rejects_smaller():
    base = texture(32, 16, 16)
    model = model_of(base)
    big = np.full((32, 32), 255, dtype=np.uint8)
    big[:16, :16] = base
    assert not subtract(model, frame_of(big)).bits.any()
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
    assert not median_filter_mask(ForegroundMask(bits)).bits.any()


def test_median_erodes_square_corners():
    bits = np.zeros((16, 16), dtype=np.uint8)
    bits[4:9, 6:11] = 1  # 5x5 solid square
    out = median_filter_mask(ForegroundMask(bits)).bits
    assert int(out.sum()) == 21  # the four corners go
    for y, x in ((4, 6), (4, 10), (8, 6), (8, 10)):
        assert out[y, x] == 0
    assert out[5:8, 7:10].all()


def test_median_resolves_ties_to_zero():
    bits = np.zeros((16, 16), dtype=np.uint8)
    bits[0, 0] = bits[0, 1] = 1
    # the corner window holds 4 pixels, 2 of them set: an even split
    assert median_filter_mask(ForegroundMask(bits)).bits[0, 0] == 0


def test_median_preserves_constant_masks():
    zeros = np.zeros((16, 16), dtype=np.uint8)
    ones = np.ones((16, 16), dtype=np.uint8)
    assert not median_filter_mask(ForegroundMask(zeros)).bits.any()
    assert median_filter_mask(ForegroundMask(ones)).bits.all()


def test_median_rejects_bad_windows():
    mask = ForegroundMask(np.zeros((16, 16), dtype=np.uint8))
    for bad in (0, 1, 2, 4):
        with pytest.raises(ValueError):
            median_filter_mask(mask, window=bad)
    for shape in ((0, 4), (4, 0)):  # a 1-D mask fails ForegroundMask's own check
        with pytest.raises(ValueError, match="mask must be non-empty"):
            median_filter_mask(ForegroundMask(np.zeros(shape, dtype=np.uint8)))


def test_median_matches_double_loop_oracle():
    rng = np.random.default_rng(40)
    for trial in range(30):
        p = 0.3 if trial % 2 == 0 else 0.5
        bits = (rng.random((64, 64)) < p).astype(np.uint8)
        window = 3 if trial % 3 else 5
        got = median_filter_mask(ForegroundMask(bits), window).bits
        assert np.array_equal(got, naive_median(bits, window)), (trial, window)
    # Windows wider than the mask clip their shifted slices; on 40x40, a
    # 17-wide window holds 289 pixels, more than a uint8 count can.
    for shape in ((1, 40), (40, 1), (2, 2), (5, 33), (40, 40)):
        for window in (7, 17):
            for p in (0.3, 0.5, 0.7):
                bits = (rng.random(shape) < p).astype(np.uint8)
                got = median_filter_mask(ForegroundMask(bits), window).bits
                assert np.array_equal(got, naive_median(bits, window)), (shape, window, p)


@FIXED
@given(
    shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    p=st.sampled_from((0.2, 0.5, 0.8)),
    seed=st.integers(0, 2**32 - 1),
    window=st.integers(1, 10).map(lambda k: 2 * k + 1),
)
@example(shape=(40, 3), p=0.5, seed=1, window=21)  # the window is wider than each row
@example(shape=(3, 40), p=0.5, seed=2, window=5)
def test_median_matches_the_oracle_on_drawn_masks(shape, p, seed, window):
    # Row sums shift the flat mask and take back what crossed a row end;
    # narrow masks, wide windows and dense rows test that correction.
    bits = (np.random.default_rng(seed).random(shape) < p).astype(np.uint8)
    want = naive_median(bits, window)
    assert np.array_equal(median_filter_mask(ForegroundMask(bits), window).bits, want)
    assert np.array_equal(median_filter_mask(ForegroundMask(bits.astype(bool)), window).bits, want)


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


def test_make_mask_keeps_the_median_output(monkeypatch):
    # make_mask returns the mask median_filter_mask made, and calls both
    # stages through the module's names, where the tracer wraps them.
    returned = {"subtract": [], "median_filter_mask": []}
    for name, seen in returned.items():
        def record(*args, real=getattr(foreground, name), seen=seen):
            seen.append(real(*args))
            return seen[-1]
        monkeypatch.setattr(foreground, name, record)
    base = texture(49, 32, 32)
    mask = make_mask(model_of(base), frame_of(255 - base))
    assert [len(seen) for seen in returned.values()] == [1, 1]
    assert mask is returned["median_filter_mask"][0]
    assert mask.bits.any() and not mask.bits.flags.writeable


# --- mask container ---


def test_a_mask_names_its_first_value_that_is_not_0_or_1():
    with pytest.raises(ValueError, match="^mask bits must be 0 or 1, got 3$"):
        ForegroundMask(np.array([[0, 1, 3], [2, -1, 1]]))
    with pytest.raises(ValueError, match="got 0.5$"):
        ForegroundMask(np.array([[1.0, 1.0], [0.5, np.nan]]))


def test_mask_validates_and_freezes_bits():
    with pytest.raises(ValueError):
        ForegroundMask(np.full((4, 4), 2, dtype=np.uint8))
    with pytest.raises(ValueError):
        ForegroundMask(np.zeros(16, dtype=np.uint8))
    # Checked before the cast, which would turn each of these into a 0 or a 1.
    for bad in (0.5, np.int32(256), np.nan, 1.7, -1):
        with pytest.raises(ValueError, match="0 or 1"):
            ForegroundMask(np.full((2, 2), bad))
    # A 0/255 mask counted as values would come out of the median with a 3x3 block set.
    bits = np.zeros((5, 5), dtype=np.uint8)
    bits[2, 2] = 255
    with pytest.raises(ValueError, match="mask bits must be 0 or 1, got 255"):
        ForegroundMask(bits)
    assert median_filter_mask(ForegroundMask(np.ones((5, 5), dtype=bool))).bits.all()
    assert ForegroundMask(np.zeros((0, 3))).bits.shape == (0, 3)  # empty masks stay legal
    assert ForegroundMask(np.eye(2, dtype=bool)) == ForegroundMask(np.eye(2))
    src = np.zeros((4, 4), dtype=np.uint8)
    mask = ForegroundMask(src)
    src[0, 0] = 1  # the mask holds its own copy
    assert mask.bits[0, 0] == 0
    assert mask == ForegroundMask(np.zeros((4, 4), dtype=np.uint8))
    assert mask != ForegroundMask(np.ones((4, 4), dtype=np.uint8))
    # Another type, even one holding the same values, is never equal.
    assert (mask == mask.bits.tolist()) is False and (mask != mask.bits.tolist()) is True


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
    # The floor is inclusive: the 4x4 blob is kept at exactly its area.
    assert [o.area for o in connected_components(ForegroundMask(bits), min_area=16)] == [16]
    assert connected_components(ForegroundMask(bits), min_area=17) == []
    with pytest.raises(ValueError):
        connected_components(ForegroundMask(bits), min_area=-1)
    with pytest.raises(ValueError, match="min_area must be >= 0, got nan"):  # NaN would drop every component
        connected_components(ForegroundMask(bits), min_area=float("nan"))


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


def row_ends():
    bits = np.zeros((6, 7), dtype=np.uint8)
    bits[:, [0, -1]] = 1  # each row's last pixel is next to the next row's first in raster order
    return bits


def test_components_match_flood_fill_oracle():
    rng = np.random.default_rng(45)
    random_masks = [(rng.random((64, 64)) < 0.35).astype(np.uint8) for _ in range(20)]
    for shape in ((1, 64), (64, 1), (7, 64), (64, 7)):  # only non-square masks tell h from w
        random_masks += [(rng.random(shape) < p).astype(np.uint8) for p in (0.35, 0.7)]
    random_masks += [np.ones((5, 9), dtype=np.uint8), row_ends()]
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


@settings(FIXED, max_examples=200)
@given(
    shape=st.tuples(st.integers(1, 24), st.integers(1, 70)),
    p=st.floats(0, 1),
    p_ends=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(24, 70), p=0.002, p_ends=0.05, seed=1)  # few 8-byte words hold a run edge
@example(shape=(24, 70), p=0.5, p_ends=0.5, seed=2)  # most do
def test_components_match_the_flood_oracle_on_drawn_masks(shape, p, p_ends, seed):
    # The run edges fill h*(w+1) bytes and a zeroed tail up to whole 8-byte
    # words; these shapes take every length mod 8, and p_ends sets runs at
    # both ends of a row, whose edges sit at the first and last byte of it.
    rng = np.random.default_rng(seed)
    bits = (rng.random(shape) < p).astype(np.uint8)
    bits[:, [0, -1]] = rng.random((shape[0], 2)) < p_ends
    got = [(o.x, o.y, o.w, o.h, o.area, o.centroid_x, o.centroid_y) for o in connected_components(ForegroundMask(bits))]
    assert got == sorted((summarize(px) for px in flood_components(bits)), key=lambda c: (c[1], c[0]))


def test_components_hold_little_more_than_a_mask_of_new_memory():
    # The run edges take one byte per key and an eighth of that for the
    # word scan: no zeroed padded copy of the mask and no comparison array.
    bits = np.zeros((720, 1280), dtype=np.uint8)
    for y, x in ((100, 100), (300, 600), (450, 1000)):
        bits[y : y + 160, x : x + 256] = 1
    mask = ForegroundMask(bits)
    connected_components(mask)  # warm
    tracemalloc.start()
    try:
        objs = connected_components(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [o.area for o in objs] == [256 * 160, 256 * 160, 256 * 160]
    assert peak <= 1.3 * bits.nbytes, peak / bits.nbytes


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
    for shape in ((8, 8), (8, 0), (0, 8)):  # no set pixel, no columns, no rows
        assert connected_components(ForegroundMask(np.zeros(shape, dtype=np.uint8))) == [], shape


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


def test_frame_to_mask_holds_at_most_two_frames_of_new_memory():
    # The 0/255 check and the mask share one comparison: the mask the
    # function makes and one check array, not a third temporary.
    px = np.zeros((720, 1280), dtype=np.uint8)
    px[100:400, 200:900] = 255
    frame = frame_of(px)
    frame_to_mask(frame)  # warm
    tracemalloc.start()
    try:
        mask = frame_to_mask(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.bits.sum() == 300 * 700
    assert peak <= 2.05 * px.nbytes, peak / px.nbytes


def test_made_buffers_are_read_only_and_share_no_caller_memory(tmp_path):
    # Frames and masks the package makes: some keep the array their function
    # made, uncopied, so none may be writable or alias an array passed in.
    px = texture(47, 32, 48, lo=0, hi=256)
    save_frame(frame_of(px), tmp_path / "f.pgm")
    rgb = np.stack([px, px[::-1], 255 - px], axis=2)
    (tmp_path / "f.ppm").write_bytes(b"P6\n48 32\n255\n" + rgb.tobytes())
    frame = frame_of(px)
    model = model_of(texture(48, 32, 48, lo=0, hi=256))
    mask = make_mask(model, frame)
    fortran_mask = ForegroundMask(np.asfortranarray(mask.bits))  # a copy, row-major
    callers = [px, rgb, frame.pixels, model.pixels, mask.bits, fortran_mask.bits]
    made = {
        "load_frame P5": load_frame(tmp_path / "f.pgm").pixels,
        "load_frame P6": load_frame(tmp_path / "f.ppm").pixels,
        "prefilter median3": prefilter(frame, "median3").pixels,
        "subtract": subtract(model, frame).bits,
        "make_mask": mask.bits,
        "mask_to_frame": mask_to_frame(fortran_mask).pixels,
        "frame_to_mask": frame_to_mask(mask_to_frame(mask)).bits,
    }
    for name, arr in made.items():
        assert arr.dtype == np.uint8 and arr.flags.c_contiguous, name
        assert not arr.flags.writeable, name
        assert not any(np.shares_memory(arr, theirs) for theirs in callers if theirs is not arr), name
    save_frame(mask_to_frame(fortran_mask), tmp_path / "m.pgm")
    assert frame_to_mask(load_frame(tmp_path / "m.pgm")) == mask
    # save_model copies the caller's model pixels rather than freeze them
    pixels = px.copy()
    save_model(BackgroundModel(model.grid, pixels, model.cell_status, (0, 2)), tmp_path / "model.pgm")
    assert pixels.flags.writeable
    pixels[0, 0] ^= 0xFF
    assert load_frame(tmp_path / "model.pgm") == frame
