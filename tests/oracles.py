"""Brute-force references for the pipeline's stages, one copy of each.

Each is written from its stage's definition: the DCT from its four nested
sums, the zigzag order from its anti-diagonals, subtraction by comparing
each pixel's buckets, the median by counting each pixel's window and
connected components by flood fill, none of them sharing code with the
package; the SRBI by settling one cell at a time with the package's
one-pair ``score``, which the comparator tests check on their own. Unit
tests and the acceptance gate compare against these, so two checks of one
stage cannot drift apart.
"""

import math
from collections import deque
from functools import cache

import numpy as np

from blockbg.background import CELL_UNSETTLED, DEFAULT_MAX_FRAMES
from blockbg.blocks import block_view
from blockbg.comparators import score


@cache
def _cos_tensor(h, w):
    """T[u, v, m, n] of the orthonormal 2-D DCT-II written from the sum
    definition; tensordot(T, block) evaluates the four nested sums."""
    t = np.empty((h, w, h, w), dtype=np.float64)
    for u in range(h):
        au = math.sqrt((1.0 if u == 0 else 2.0) / h)
        for v in range(w):
            av = math.sqrt((1.0 if v == 0 else 2.0) / w)
            for m in range(h):
                cu = math.cos(math.pi * (2 * m + 1) * u / (2 * h))
                for n in range(w):
                    cv = math.cos(math.pi * (2 * n + 1) * v / (2 * w))
                    t[u, v, m, n] = au * av * cu * cv
    t.setflags(write=False)
    return t


def naive_dct2(px) -> np.ndarray:
    """Orthonormal 2-D DCT-II of a block: coefficient (u, v) is the sum over
    pixels (m, n) of T[u, v, m, n] * px[m, n]."""
    px = np.asarray(px, dtype=np.float64)
    return np.tensordot(_cos_tensor(*px.shape), px, axes=([2, 3], [0, 1]))


def naive_idct2(coeffs) -> np.ndarray:
    """Inverse of ``naive_dct2``: the same sums read backwards, as the
    transform is orthonormal."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    return np.tensordot(_cos_tensor(*coeffs.shape).transpose(2, 3, 0, 1), coeffs, axes=([2, 3], [0, 1]))


def zigzag_oracle(height: int, width: int):
    """JPEG zigzag order of a block: anti-diagonals in turn, the even ones
    read from bottom-left to top-right, the odd ones back."""
    order = []
    for d in range(height + width - 1):
        diag = [(r, d - r) for r in range(height) if 0 <= d - r < width]
        order.extend(reversed(diag) if d % 2 == 0 else diag)
    return order


def naive_subtract(model_px, frame_px, shift):
    """Change map of two pixel arrays: 1 where a pixel's model and frame
    intensities lie in different buckets of 2**shift levels, else 0."""
    return ((model_px >> shift) != (frame_px >> shift)).astype(np.uint8)


def naive_median(bits, window):
    """Double-loop strict-majority filter over each pixel's in-bounds window."""
    h, w = bits.shape
    r = window // 2
    out = np.zeros_like(bits)
    for y in range(h):
        for x in range(w):
            region = bits[max(y - r, 0) : y + r + 1, max(x - r, 0) : x + r + 1]
            out[y, x] = 1 if 2 * int(region.sum()) > region.size else 0
    return out


def flood_components(bits):
    """8-connected pixel sets by breadth-first flood fill, in raster order
    of each set's first pixel."""
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
    """(x, y, w, h, area, centroid_x, centroid_y) of a pixel set, as a
    ``DetectedObject`` states it."""
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


def settle_cell_by_cell(frames, grid, cfg, max_frames=DEFAULT_MAX_FRAMES):
    """Reference build: visit every unsettled cell of every frame pair
    among the first ``max_frames`` frames. Returns (pixels, cell status,
    built_from) as a ``BackgroundModel`` holds them."""
    g, bh, bw = grid.g, grid.block_height, grid.block_width
    status = np.full((g, g), CELL_UNSETTLED)
    pixels = np.zeros((grid.cropped_height, grid.cropped_width), dtype=np.uint8)
    frames = frames[:max_frames]
    consumed = 2
    for t in range(len(frames) - 1):
        pending = [(r, c) for r in range(g) for c in range(g) if status[r, c] == CELL_UNSETTLED]
        if not pending:
            consumed = t + 1
            break
        consumed = t + 2
        for r, c in pending:
            a = block_view(frames[t], grid)[r, c]
            b = block_view(frames[t + 1], grid)[r, c]
            if score(a, b, cfg) < cfg.threshold:
                pixels[r * bh : (r + 1) * bh, c * bw : (c + 1) * bw] = b
                status[r, c] = t + 1
    return pixels, status, (0, consumed)
