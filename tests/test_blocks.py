"""Entropy, grid selection, block geometry."""

import math

import numpy as np
import pytest

from blockbg.blocks import (
    GRID_CHOICES,
    BlockGrid,
    block_view,
    entropy_bits,
    entropy_of,
    grid_for_delta,
    make_grid,
    select_grid,
)
from blockbg.errors import FrameTooSmall, InconsistentSequence

from helpers import frame_of, texture


# --- entropy ---


def test_histogram_single_level():
    for level in (0, 7, 255):
        assert entropy_of(np.full((2, 2), level, dtype=np.uint8)) == 0.0


def test_histogram_two_levels():
    assert entropy_of(np.array([[0, 0], [255, 255]], dtype=np.uint8)) == 1.0


def test_histogram_accepts_frames():
    f = frame_of(texture(21, 16, 16))
    assert entropy_of(f) == entropy_of(f.pixels)


def test_histogram_rejects_empty_region():
    with pytest.raises(ValueError):
        entropy_of(np.empty((0, 4), dtype=np.uint8))


def test_entropy_constant_region_is_exactly_zero():
    h = entropy_of(np.full((8, 8), 42, dtype=np.uint8))
    assert h == 0.0
    # no negative zero either
    assert math.copysign(1.0, h) == 1.0


def test_entropy_fair_two_level_is_one_bit():
    region = np.array([[0, 255]] * 8, dtype=np.uint8)
    assert abs(entropy_of(region) - 1.0) < 1e-12


def test_entropy_uniform_256_levels_is_eight_bits():
    region = np.arange(256, dtype=np.uint8).reshape(16, 16)
    assert abs(entropy_of(region) - 8.0) < 1e-12


def test_entropy_bounds_on_random_regions():
    for seed in range(20):
        h = entropy_of(texture(50 + seed, 16, 16, lo=0, hi=256))
        assert 0.0 <= h <= 8.0


def test_entropy_is_permutation_invariant():
    rng = np.random.default_rng(60)
    region = texture(61, 16, 16, lo=0, hi=256)
    shuffled = region.ravel().copy()
    rng.shuffle(shuffled)
    assert entropy_of(region) == entropy_of(shuffled.reshape(16, 16))


def test_histogram_matches_tally_oracle():
    region = texture(20, 32, 32, lo=0, hi=256)
    tally = [0] * 256
    for v in region.ravel():
        tally[int(v)] += 1
    assert sum(tally) == 32 * 32
    # entropy_of tallies gray levels itself; it must score exactly what
    # the same entropy sum scores on a tally counted pixel by pixel
    assert entropy_of(region) == float(entropy_bits(np.array(tally)))


def test_entropy_matches_direct_sum():
    region = texture(62, 16, 16, lo=0, hi=256)
    tally = [0] * 256
    for v in region.ravel():
        tally[int(v)] += 1
    want = -sum(c / region.size * math.log2(c / region.size) for c in tally if c)
    assert abs(entropy_of(region) - want) < 1e-12


# --- grid selection ---


def test_grid_band_edges():
    assert grid_for_delta(0.0) == 8
    assert grid_for_delta(0.049999) == 8
    assert grid_for_delta(0.05) == 16
    assert grid_for_delta(0.1) == 16
    assert grid_for_delta(0.199999) == 16
    assert grid_for_delta(0.2) == 32
    assert grid_for_delta(1.0) == 32
    # The automatic rule picks every grid a fixed --grid may name, and no other.
    assert {grid_for_delta(d) for d in (0.0, 0.1, 1.0)} == set(GRID_CHOICES)


def test_grid_is_monotone_in_delta():
    deltas = [0.0, 0.01, 0.05, 0.07, 0.19, 0.2, 0.5, 7.9]
    gs = [grid_for_delta(d) for d in deltas]
    assert gs == sorted(gs)


def test_grid_custom_bands():
    assert grid_for_delta(0.3, low=0.25, high=0.5) == 16
    for low, high in ((0.5, 0.2), (0.2, 0.2)):  # equal bands leave no g=16 band
        with pytest.raises(ValueError):
            grid_for_delta(0.1, low=low, high=high)
    with pytest.raises(ValueError):
        grid_for_delta(0.1, low=0.0, high=0.2)


def test_select_grid_identical_frames():
    f = frame_of(texture(70, 16, 16))
    assert select_grid(f, f) == 8


def test_select_grid_forced_large_delta():
    const = frame_of(np.full((16, 16), 9, dtype=np.uint8))  # H = 0
    two = np.zeros((16, 16), dtype=np.uint8)
    two[:, 8:] = 255  # H = 1
    assert select_grid(const, frame_of(two)) == 32


def test_select_grid_middle_band():
    # Second frame: 4 of 256 pixels at a second level gives
    # H = -(252/256)log2(252/256) - (4/256)log2(4/256) = 0.11611..., so
    # the delta against a constant first frame lands in [0.05, 0.2).
    const = frame_of(np.full((16, 16), 9, dtype=np.uint8))
    dotted = np.full((16, 16), 9, dtype=np.uint8)
    dotted[0, :4] = 255
    p = 4 / 256
    delta = -(1 - p) * math.log2(1 - p) - p * math.log2(p)
    assert 0.05 <= delta < 0.2
    assert select_grid(const, frame_of(dotted)) == 16


def test_select_grid_rejects_dimension_mismatch():
    a = frame_of(texture(71, 16, 24))
    b = frame_of(texture(72, 20, 20))
    with pytest.raises(InconsistentSequence, match="frame 1 is 20x20, expected 24x16") as err:
        select_grid(a, b)
    assert err.value.index == 1


# --- grid geometry ---


def test_make_grid_exact_division():
    grid = make_grid(320, 240, 16)
    assert grid == BlockGrid(16, 320, 240, 20, 15)


def test_make_grid_crops_right_and_bottom():
    grid = make_grid(321, 241, 16)
    assert (grid.cropped_width, grid.cropped_height) == (320, 240)
    assert (grid.block_width, grid.block_height) == (20, 15)


def test_make_grid_hundred_by_hundred():
    grid = make_grid(100, 100, 8)
    assert (grid.cropped_width, grid.cropped_height) == (96, 96)
    assert (grid.block_width, grid.block_height) == (12, 12)


def test_make_grid_invariants_hold():
    for w, h, g in ((17, 19, 8), (100, 50, 16), (33, 65, 32), (160, 120, 8)):
        grid = make_grid(w, h, g)
        assert grid.g * grid.block_width == grid.cropped_width
        assert grid.g * grid.block_height == grid.cropped_height
        assert grid.cropped_width <= w < grid.cropped_width + g
        assert grid.cropped_height <= h < grid.cropped_height + g
        assert grid.block_width >= 1 and grid.block_height >= 1


def test_make_grid_frame_too_small():
    assert make_grid(8, 8, 8) == BlockGrid(8, 8, 8, 1, 1)  # the smallest frame g=8 splits
    with pytest.raises(FrameTooSmall):
        make_grid(7, 100, 8)
    with pytest.raises(FrameTooSmall):
        make_grid(100, 7, 8)


def test_make_grid_rejects_nonpositive_g():
    with pytest.raises(ValueError):
        make_grid(16, 16, 0)


def test_single_cell_grid_is_whole_cropped_frame():
    f = frame_of(texture(80, 17, 19))
    grid = make_grid(19, 17, 1)
    block = block_view(f, grid)[0, 0]
    assert np.array_equal(block, f.pixels[:17, :19])


# --- block view ---


def test_extract_block_top_left():
    f = frame_of(texture(81, 32, 32))
    grid = make_grid(32, 32, 8)
    assert np.array_equal(block_view(f, grid)[0, 0], f.pixels[:4, :4])


def test_extract_block_addresses_row_major_cells():
    f = frame_of(texture(82, 32, 48))
    grid = make_grid(48, 32, 8)  # blocks are 6 wide, 4 tall
    block = block_view(f, grid)[2, 5]
    assert np.array_equal(block, f.pixels[8:12, 30:36])


def test_blocks_tile_the_cropped_frame_exactly():
    f = frame_of(texture(83, 35, 53))
    grid = make_grid(53, 35, 8)
    rebuilt = np.zeros((grid.cropped_height, grid.cropped_width), dtype=np.uint8)
    seen = np.zeros_like(rebuilt, dtype=np.int32)
    for row in range(grid.g):
        for col in range(grid.g):
            y0 = row * grid.block_height
            x0 = col * grid.block_width
            block = block_view(f, grid)[row, col]
            rebuilt[y0 : y0 + grid.block_height, x0 : x0 + grid.block_width] = block
            seen[y0 : y0 + grid.block_height, x0 : x0 + grid.block_width] += 1
    assert np.array_equal(rebuilt, f.pixels[: grid.cropped_height, : grid.cropped_width])
    assert (seen == 1).all()  # every cropped pixel covered exactly once


def test_extract_block_rejects_out_of_range_cells():
    f = frame_of(texture(84, 16, 16))
    grid = make_grid(16, 16, 8)
    blocks = block_view(f, grid)
    assert blocks.shape == (8, 8, 2, 2)
    with pytest.raises(IndexError):
        blocks[8, 0]
    with pytest.raises(IndexError):
        blocks[0, 8]


def test_extract_block_is_read_only():
    f = frame_of(texture(85, 16, 16))
    grid = make_grid(16, 16, 8)
    block = block_view(f, grid)[1, 1]
    with pytest.raises(ValueError):
        block[0, 0] = 0
