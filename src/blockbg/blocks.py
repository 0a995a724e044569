"""Image entropy and the block grid.

The grid divides a frame into g x g equal blocks after cropping excess
pixels from the right and bottom edges so the block size divides the
cropped extent exactly. The grid granularity can be picked automatically
from the entropy delta between the first two frames of a sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrameTooSmall, ShapeMismatch
from .imaging import Frame, check_size

GRID_CHOICES = (8, 16, 32)

DELTA_H_LOW = 0.05
DELTA_H_HIGH = 0.2


def _region(frame_or_block) -> np.ndarray:
    if isinstance(frame_or_block, Frame):
        return frame_or_block.pixels
    return np.asarray(frame_or_block)


def entropy_terms(p: np.ndarray) -> np.ndarray:
    """-p * log2(p) of each float64 share in ``p``, 0 where p is 0: the
    terms that ``entropy_bits`` sums."""
    return -(p * np.log2(p, out=np.zeros_like(p), where=p > 0))


def entropy_bits(counts) -> np.ndarray:
    """Shannon entropy in bits, -sum(p * log2(p)) over occupied levels, of
    each gray-level tally along the last axis of ``counts``.

    Bounded by [0, 8] for 8-bit data; a constant region scores exactly 0
    and a uniform occupancy of all 256 levels scores exactly 8.
    """
    counts = np.asarray(counts)
    return entropy_terms(counts / counts.sum(axis=-1, keepdims=True)).sum(axis=-1) + 0.0  # normalize -0.0


def entropy_of(frame_or_block) -> float:
    """Shannon entropy, in bits, of the gray levels of a frame or block."""
    px = _region(frame_or_block)
    if px.size == 0:
        raise ValueError("empty region has no entropy")
    return float(entropy_bits(np.bincount(px.ravel(), minlength=256)))


def grid_for_delta(delta_h: float, low: float = DELTA_H_LOW, high: float = DELTA_H_HIGH) -> int:
    """Map an inter-frame entropy delta to a grid granularity.

    Quiet scenes get coarse blocks (g=8); busy scenes get fine ones (g=32).
    """
    if not 0 < low < high:
        raise ValueError(f"grid thresholds must satisfy 0 < low < high, got {low}, {high}")
    if delta_h < low:
        return 8
    if delta_h < high:
        return 16
    return 32


def select_grid(first: Frame, second: Frame, low: float = DELTA_H_LOW, high: float = DELTA_H_HIGH) -> int:
    """Pick g from |H(first) - H(second)| using the banded thresholds."""
    check_size(second, (first.width, first.height), 1)
    delta = abs(entropy_of(first) - entropy_of(second))
    return grid_for_delta(delta, low, high)


@dataclass(frozen=True)
class BlockGrid:
    """Geometry of a g x g equal-block tiling of a cropped frame."""

    g: int
    cropped_width: int
    cropped_height: int
    block_width: int
    block_height: int


def make_grid(width: int, height: int, g: int) -> BlockGrid:
    """Build the grid for a width x height frame.

    Excess pixels (width % g wide, height % g tall) are cropped from the
    right and bottom. g=1 is permitted for internal/degenerate use; the
    pipeline itself only selects from 8/16/32.
    """
    if g < 1:
        raise ValueError(f"grid granularity must be positive, got {g}")
    if width < g or height < g:
        raise FrameTooSmall(
            f"cannot split a {width}x{height} frame into {g}x{g} blocks"
        )
    bw = width // g
    bh = height // g
    return BlockGrid(
        g=g,
        cropped_width=bw * g,
        cropped_height=bh * g,
        block_width=bw,
        block_height=bh,
    )


def crop(frame_or_pixels, grid: BlockGrid) -> np.ndarray:
    """View of the grid's cropped extent, the top-left cropped_height x
    cropped_width pixels; ShapeMismatch if the region does not cover it."""
    px = _region(frame_or_pixels)
    h, w = px.shape
    if h < grid.cropped_height or w < grid.cropped_width:
        raise ShapeMismatch(
            f"frame is {w}x{h}, smaller than the grid extent {grid.cropped_width}x{grid.cropped_height}"
        )
    return px[: grid.cropped_height, : grid.cropped_width]


def block_view(frame_or_pixels, grid: BlockGrid) -> np.ndarray:
    """(g, g, block_height, block_width) view of the grid's blocks over
    ``crop``; ``[row, col]`` is one block. Writes go to the source."""
    px = crop(frame_or_pixels, grid)
    g = grid.g
    return px.reshape(g, grid.block_height, g, grid.block_width).swapaxes(1, 2)
