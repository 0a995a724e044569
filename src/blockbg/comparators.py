"""Block dissimilarity scores.

Four interchangeable ways of scoring how different two counterpart blocks
are: mean absolute difference, entropy delta, quantized XOR pixel fraction,
and the distance between leading DCT coefficients. Every score is >= 0,
scores 0 for identical blocks, and is symmetric in its arguments. The
model builder judges a block pair static when its score falls strictly
below the configured threshold.

Each method is split in two: ``summarize`` reduces each block of a stack
to what the method compares, and ``compare`` scores two stacks of those
summaries. ``score_blocks`` and its one-pair case ``score`` compare the
summaries of two block stacks, and a model build compares those that each
frame's ``FrameSummary`` keeps, so every score goes through the same
arithmetic. ``SCORE_BUDGET_PX`` sizes the block stacks that a build hands
to the kernels; it changes no score.

The 2-D DCT here is the orthonormal (unitary) DCT-II, computed directly
as two cosine-matrix multiplications; no transform library is involved.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blocks import entropy_terms
from .errors import ShapeMismatch
from .imaging import check_intensities


class Method(str, enum.Enum):
    ABSDIFF = "absdiff"
    ENTROPY = "entropy"
    XOR = "xor"
    DCT = "dct"


# Engineering defaults, frozen after tuning against the synthetic benchmark.
# The XOR threshold is calibrated to the measured quantized-flip rate of
# sigma=5 Gaussian noise at shift 3 (~0.59 of pixels flip buckets), so noisy
# static blocks settle while content changes stay dynamic.
DEFAULT_THRESHOLDS: dict[Method, float] = {
    Method.ABSDIFF: 6.0,
    Method.ENTROPY: 0.5,
    Method.XOR: 0.70,
    Method.DCT: 6.0,
}

DEFAULT_XOR_SHIFT = 3
DEFAULT_DCT_KEEP = 10

# Pixels per block stack that a build summarizes or compares in one kernel
# call: enough blocks to amortize the call, few enough to bound its
# temporaries (about one g = 8 row of a 720p frame).
SCORE_BUDGET_PX = 1 << 16


@dataclass(frozen=True)
class ComparatorConfig:
    """Method choice plus its knobs. Entropy log base is fixed at 2."""

    method: Method
    threshold: float
    xor_shift: int = DEFAULT_XOR_SHIFT
    dct_keep: int = DEFAULT_DCT_KEEP

    def __post_init__(self):
        if not self.threshold >= 0:  # NaN fails too
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if not 0 <= self.xor_shift <= 7:
            raise ValueError(f"xor shift must be in [0, 7], got {self.xor_shift}")
        if self.dct_keep < 1:
            raise ValueError(f"dct keep count must be >= 1, got {self.dct_keep}")


def default_config(method: Method | str) -> ComparatorConfig:
    method = Method(method)
    return ComparatorConfig(method=method, threshold=DEFAULT_THRESHOLDS[method])


def _dct_matrix(n: int) -> np.ndarray:
    # Orthonormal DCT-II basis, C @ C.T == I: a block's 2-D DCT is C_h @ block @ C_w.T.
    k = np.arange(n)[:, None].astype(np.float64)
    x = np.arange(n)[None, :].astype(np.float64)
    c = np.cos(np.pi * (2.0 * x + 1.0) * k / (2.0 * n)) * np.sqrt(2.0 / n)
    c[0, :] *= np.sqrt(0.5)
    c.setflags(write=False)
    return c


def zigzag_indices(height: int, width: int) -> tuple[tuple[int, int], ...]:
    """Zigzag scan order generalized to rectangles.

    Cells are sorted by anti-diagonal (row + col), and within one by row,
    falling on even diagonals and rising on odd ones: exactly the 8x8 JPEG
    order when height == width.
    """
    if height < 1 or width < 1:
        raise ValueError("zigzag needs positive dimensions")
    r, c = np.indices((height, width)).reshape(2, -1)
    d = r + c
    order = np.lexsort((np.where(d % 2, r, -r), d))
    return tuple(zip(r[order].tolist(), c[order].tolist()))


@lru_cache(maxsize=None)
def _kept_basis(height: int, width: int, keep: int) -> tuple[np.ndarray, ...]:
    """Rows and columns of the block's first ``keep`` zigzag cells, then the
    DCT basis rows they occupy for its rows and, transposed, its columns;
    all read-only."""
    # The first keep cells lie on anti-diagonals below keep, so the keep x keep corner holds them.
    cells = np.array(zigzag_indices(min(height, keep), min(width, keep))[:keep], dtype=np.intp).T
    cells.setflags(write=False)
    rows, cols = cells
    return rows, cols, _dct_matrix(height)[: rows.max() + 1], _dct_matrix(width)[: cols.max() + 1].T


@lru_cache(maxsize=None)
def _entropy_table(area: int) -> np.ndarray:
    """The entropy term of each count 0..area of a level in a block of
    ``area`` pixels, read-only; a block's entropy sums its levels' terms."""
    table = entropy_terms(np.arange(area + 1) / area)
    table.setflags(write=False)
    return table


def summarize(blocks, cfg: ComparatorConfig) -> np.ndarray:
    """Summaries of n blocks stacked as (n, height, width) integers in [0,
    255]: the pixels as uint8 for absdiff and XOR, each block's entropy in
    bits, float64 (n,), or its first ``dct_keep`` zigzag DCT coefficients,
    float64 (n, keep)."""
    n, height, width = blocks.shape
    if cfg.method is Method.ENTROPY:
        # One tally for the stack: block i's gray level v lands in bin i*256+v.
        keys = blocks.reshape(n, height * width).astype(np.intp)
        keys += 256 * np.arange(n)[:, None]
        counts = np.bincount(keys.ravel(), minlength=256 * n).reshape(n, 256)
        return _entropy_table(height * width)[counts].sum(axis=-1) + 0.0  # as entropy_bits sums them
    if cfg.method is Method.DCT:
        # Only the basis rows and columns that the kept coefficients occupy are applied.
        rows, cols, basis_h, basis_w = _kept_basis(height, width, cfg.dct_keep)
        return (basis_h @ blocks.astype(np.float64) @ basis_w)[:, rows, cols]
    return blocks.astype(np.uint8, copy=False)


def compare(a, b, cfg: ComparatorConfig) -> np.ndarray:
    """Scores of n counterpart pairs of ``summarize`` summaries, as float64 of shape (n,)."""
    if cfg.method is Method.ENTROPY:
        return np.abs(a - b)
    if cfg.method is Method.DCT:
        # The mean |coefficient difference| over the kept cells. A running sum
        # adds them left to right for any n, so a block scores the same alone
        # or in a chunk (mean sums one block pairwise).
        return np.add.accumulate(np.abs(a - b), axis=-1)[:, -1] / a.shape[1]
    area = a.shape[1] * a.shape[2]
    if cfg.method is Method.ABSDIFF:
        # A block sums to at most 255 * area, which fits uint32 up to 16,843,009 pixels.
        total = np.uint32 if area <= 16_843_009 else np.uint64
        # An integer sum over the pixel count equals the float64 mean exactly.
        return (np.maximum(a, b) - np.minimum(a, b)).sum(axis=(1, 2), dtype=total) / area
    changed = (a >> cfg.xor_shift) ^ (b >> cfg.xor_shift)
    return np.count_nonzero(changed, axis=(1, 2)) / area


def score_blocks(a, b, cfg: ComparatorConfig) -> np.ndarray:
    """Scores of n counterpart block pairs stacked as (n, height, width)
    arrays of integers in [0, 255], as float64 of shape (n,)."""
    return compare(summarize(a, cfg), summarize(b, cfg), cfg)


class FrameSummary:
    """The ``summarize`` summaries of one frame's grid cells, ``blocks`` its
    (g, g, height, width) block view. Entropy and DCT summaries are
    remembered once computed; absdiff and XOR compare the pixels
    themselves, gathered on each ask. Cells go to the kernels in slices of
    ``per_slice``, the blocks that fit SCORE_BUDGET_PX (at least one)."""

    def __init__(self, blocks: np.ndarray, cfg: ComparatorConfig):
        self.blocks, self.cfg = blocks, cfg
        self.per_slice = max(1, SCORE_BUDGET_PX // (blocks.shape[2] * blocks.shape[3]))
        self.known = None if cfg.method in (Method.ABSDIFF, Method.XOR) else np.zeros(blocks.shape[:2], dtype=bool)
        self.values = None  # the remembered summaries, shaped on the first computation

    def slices(self, rows: np.ndarray, cols: np.ndarray):
        """The cells (rows, cols) in order, as (rows, cols) slices of at most ``per_slice``."""
        for i in range(0, len(rows), self.per_slice):
            yield rows[i : i + self.per_slice], cols[i : i + self.per_slice]

    def compute(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Entropy or DCT summaries of the non-empty cells (rows, cols), in
        that order, computed now a slice at a time."""
        for r, c in self.slices(rows, cols):
            summaries = summarize(self.blocks[r, c], self.cfg)
            if self.values is None:
                self.values = np.empty(self.known.shape + summaries.shape[1:])
            self.values[r, c] = summaries
        self.known[rows, cols] = True
        return summaries if len(summaries) == len(rows) else self.values[rows, cols]

    def take(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Entropy or DCT summaries of the non-empty cells (rows, cols), in
        that order, computing only those not yet known."""
        known = self.known[rows, cols]
        if np.count_nonzero(known) < len(known):
            self.compute(rows[~known], cols[~known])
        return self.values[rows, cols]


def score_cells(earlier: FrameSummary, later: FrameSummary, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Scores of the non-empty cells (rows, cols) between two frames, as
    ``score_blocks`` scores their blocks. A build compares a pair's cells
    once, so ``later`` computes their summaries; ``earlier`` computes only
    those it lacks (frame 0's, and those that rejoin a moved build). Pixels
    are compared a slice at a time, summaries all at once."""
    cfg = earlier.cfg
    if earlier.known is not None:
        return compare(earlier.take(rows, cols), later.compute(rows, cols), cfg)
    scores = [compare(earlier.blocks[r, c], later.blocks[r, c], cfg) for r, c in earlier.slices(rows, cols)]
    return scores[0] if len(scores) == 1 else np.concatenate(scores)


def score(a, b, cfg: ComparatorConfig) -> float:
    """Score of one block pair; blocks hold integers in [0, 255], as a Frame does."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"block shapes differ: {a.shape} vs {b.shape}")
    if a.ndim != 2 or a.size == 0:
        raise ValueError("blocks must be non-empty 2-D arrays")
    check_intensities(a, "block")
    check_intensities(b, "block")
    return float(score_blocks(a[None], b[None], cfg)[0])
