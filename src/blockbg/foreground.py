"""Foreground extraction: subtraction, mask cleanup, objects.

Subtraction marks every pixel whose quantized intensity bucket differs
between the model and the frame. The raw change map is denoised with a
binary median (strict-majority) filter, then 8-connected components
become detected objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import CELL_UNSETTLED, BackgroundModel
from .blocks import crop
from .errors import ModelIncomplete, PnmError
from .imaging import Frame

DEFAULT_SUBTRACT_SHIFT = 6
DEFAULT_WINDOW = 3
DEFAULT_MIN_AREA_FRAC = 0.001


@dataclass(frozen=True, eq=False)
class ForegroundMask:
    """Binary change map over the model's cropped extent (uint8 0/1)."""

    bits: np.ndarray

    def __post_init__(self, copy: bool = True):
        arr = np.asarray(self.bits)
        if arr.ndim != 2:
            raise ValueError("mask bits must be a 2-D array")
        if copy:
            bad = (arr != 0) & (arr != 1)  # NaN too
            if bad.any():
                raise ValueError(f"mask bits must be 0 or 1, got {arr[bad][0]}")
            arr = arr.astype(np.uint8, order="C")  # always a row-major copy
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @classmethod
    def _adopt(cls, bits: np.ndarray) -> ForegroundMask:
        """A mask that keeps ``bits`` uncopied and read-only: only for a 2-D uint8
        0/1 C-contiguous array its caller has just made and no one else holds."""
        mask = object.__new__(cls)
        object.__setattr__(mask, "bits", bits)
        mask.__post_init__(copy=False)
        return mask

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    def __eq__(self, other):
        if not isinstance(other, ForegroundMask):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)


def subtract(model: BackgroundModel, frame: Frame, shift: int = DEFAULT_SUBTRACT_SHIFT) -> ForegroundMask:
    """Raw per-pixel change map over the cropped extent.

    change[p] = 1 iff (model[p] XOR frame[p]) > 2**shift - 1, that is, iff
    the two differ in a bit at or above ``shift``: their buckets differ.
    The model must be fully covered (settled or backfilled everywhere),
    and the frame is cropped to the model's grid with ``blocks.crop``.
    """
    if not 0 <= shift <= 7:
        raise ValueError(f"subtract shift must be in [0, 7], got {shift}")
    if (model.cell_status == CELL_UNSETTLED).any():
        raise ModelIncomplete(
            "model has unsettled cells; backfill before subtracting"
        )
    change = model.pixels ^ crop(frame, model.grid)
    np.greater(change, (1 << shift) - 1, out=change.view(bool))  # in place, 0/1 bytes
    return ForegroundMask._adopt(change)


def _window_sum(a: np.ndarray, r: int, axis: int) -> np.ndarray:
    """One pass of a separable window count: ``a`` summed over -r..r along
    axis 0, or along the rows of a 2-D ``a`` (axis 1). Rows shift as one flat
    array, faster than column slices, and then give back what crossed a row
    end: unsigned counts wrap and unwrap exactly."""
    reach = min(r, a.shape[axis] - 1)  # only shifts that reach a neighbour
    if not reach:
        return a.copy()
    out = np.empty(a.shape, a.dtype)  # row-major, so that out.ravel() is a view
    src, dst = (a, out) if axis == 0 else (a.ravel(), out.ravel())
    dst[:1] = src[:1]
    np.add(src[1:], src[:-1], out=dst[1:])  # a plus its first shift, written straight into out
    for d in range(1, reach + 1):
        if d > 1:
            dst[d:] += src[:-d]
        dst[:-d] += src[d:]
        if axis:
            out[1:, :d] -= a[:-1, -d:]
            out[:-1, -d:] -= a[1:, :d]
    return out


def median_filter_mask(mask: ForegroundMask, window: int = DEFAULT_WINDOW) -> ForegroundMask:
    """Binary median of a non-empty mask: keep a pixel iff strictly more
    than half its window (clipped to bounds) is set. Even splits resolve to 0.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    bits = mask.bits
    if not bits.size:
        raise ValueError("mask must be non-empty")
    r = window // 2
    dtype = np.min_scalar_type(window * window)  # holds any window's count
    ones = _window_sum(_window_sum(bits.astype(dtype, copy=False), r, 0), r, 1)
    keep = ones > window * window // 2  # right for every window off the r-wide border bands
    ny, nx = (_window_sum(np.ones(k, dtype), r, 0) for k in bits.shape)  # in-bounds extents
    for band in (np.s_[:r], np.s_[-r:]):  # redo the bands against their clipped windows
        keep[band] = ones[band] > (ny[band, None] * nx) // 2
        keep[:, band] = ones[:, band] > (ny[:, None] * nx[band]) // 2
    return ForegroundMask._adopt(keep.view(np.uint8))


def make_mask(
    model: BackgroundModel,
    frame: Frame,
    shift: int = DEFAULT_SUBTRACT_SHIFT,
    window: int = DEFAULT_WINDOW,
) -> ForegroundMask:
    """subtract + median cleanup in one step."""
    return median_filter_mask(subtract(model, frame, shift), window)


@dataclass(frozen=True)
class DetectedObject:
    """One connected foreground component.

    Bbox (x, y, w, h) in cropped-frame coordinates; centroid is the mean
    of member pixel coordinates. ``label``/``score`` are filled in by the
    validation stage.
    """

    x: int
    y: int
    w: int
    h: int
    area: int
    centroid_x: float
    centroid_y: float
    label: str | None = None
    score: float = 0.0

    @property
    def bbox(self) -> tuple[int, int, int, int]:
        return (self.x, self.y, self.w, self.h)

    def labeled(self, label: str, score: float) -> DetectedObject:
        """This object with ``label`` and ``score`` set; as ``dataclasses.replace``, but quicker."""
        return DetectedObject(self.x, self.y, self.w, self.h, self.area, self.centroid_x, self.centroid_y, label, score)


def _run_edges(bits: np.ndarray) -> np.ndarray:
    """Keys y*(w+1) + x, in raster order, where row y of the non-empty 0/1
    ``bits`` flips, read as zero on both sides: x = 0 if the row starts set,
    x = w if it ends set, and 0 < x < w where bits[y, x] != bits[y, x - 1].
    Starts and ends of runs alternate."""
    h, w = bits.shape
    n = h * (w + 1)
    flips = np.empty(-(-n // 8) * 8, dtype=np.uint8)  # whole 8-byte words
    flips[n:] = 0
    rows = flips[:n].reshape(h, w + 1)
    np.bitwise_xor(bits[:, 1:], bits[:, :-1], out=rows[:, 1:w])
    rows[:, 0] = bits[:, 0]
    rows[:, w] = bits[:, -1]
    # Scan a word at a time and look only at the bytes of words that hold
    # a flip: a mask of a few solid blobs has flips in few words.
    words = flips.view(np.uint64)
    hit = np.flatnonzero(words != 0)
    k = np.flatnonzero(words[hit].view(bool))
    return (hit[k >> 3] << 3) | (k & 7)


def connected_components(mask: ForegroundMask, min_area: float = 0.0) -> list[DetectedObject]:
    """8-connected components with at least ``min_area`` pixels.

    Objects come back sorted by (bbox.y, bbox.x); ties keep raster order
    of their first pixel.
    """
    if not min_area >= 0:  # NaN fails too
        raise ValueError(f"min_area must be >= 0, got {min_area}")
    h, w = mask.bits.shape
    if not h * w:
        return []
    # Horizontal runs in raster order as row-major keys y*stride + x over
    # rows with a pad column: run i covers keys [start[i], end[i]).
    stride = w + 1
    edges = _run_edges(mask.bits)
    start, end = edges[0::2], edges[1::2]
    n = len(start)
    if n == 0:
        return []

    # The runs of the row above that touch run i 8-connectedly are the
    # consecutive runs [lo[i], hi[i]): those that end (exclusive) at or
    # right of run i's first column and start at or left of its end.
    lo = np.searchsorted(end, start - stride)
    hi = np.searchsorted(start, end - stride, side="right")
    count = np.maximum(hi - lo, 0)
    a = np.repeat(np.arange(n), count)
    b = np.arange(len(a)) + np.repeat(lo - (np.cumsum(count) - count), count)

    # Hook the larger root of every joined pair to the smaller, then
    # flatten fully, until each run points at its component's first run.
    parent = np.arange(n)
    while len(a):
        ra, rb = parent[a], parent[b]
        split = ra != rb
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while ((up := parent[parent]) != parent).any():
            parent = up

    first = np.flatnonzero(parent == np.arange(n))
    label = np.searchsorted(first, parent)
    # Exact integer sums in float64 (well below 2**53), so each centroid
    # is one correctly rounded division, as with Python ints.
    y, x0 = np.divmod(start, stride)
    x1 = end - y * stride
    length = x1 - x0
    area = np.bincount(label, length)
    sum_x = np.bincount(label, (x0 + x1 - 1) * length // 2)
    sum_y = np.bincount(label, y * length)
    min_x = np.full(len(first), w)
    np.minimum.at(min_x, label, x0)
    end_x = np.zeros(len(first), dtype=np.int64)
    np.maximum.at(end_x, label, x1)
    min_y = y[first]
    max_y = np.zeros(len(first), dtype=np.int64)
    np.maximum.at(max_y, label, y)

    keep = np.flatnonzero(area >= min_area)
    keep = keep[np.lexsort((min_x[keep], min_y[keep]))]  # stable: ties stay in label order
    left, top, n_px = min_x[keep], min_y[keep], area[keep]
    columns = (left, top, end_x[keep] - left, max_y[keep] - top + 1, n_px.astype(np.int64),
               sum_x[keep] / n_px, sum_y[keep] / n_px)  # x, y, w, h, area, centroid
    return [DetectedObject(*row) for row in zip(*(c.tolist() for c in columns))]


def mask_to_frame(mask: ForegroundMask) -> Frame:
    """Encode a mask as a PGM-ready frame: 0 -> 0, 1 -> 255."""
    return Frame._adopt(mask.bits * np.uint8(255))


def frame_to_mask(frame: Frame) -> ForegroundMask:
    """Decode a mask frame; only intensities 0 and 255 are legal."""
    px = frame.pixels
    bits = px == 255
    bad = px != 0
    bad ^= bits  # neither 0 nor 255
    if bad.any():
        y, x = np.argwhere(bad)[0]
        raise PnmError(
            f"mask frame has non-binary intensity {int(px[y, x])} at ({int(x)}, {int(y)})"
        )
    return ForegroundMask._adopt(bits.view(np.uint8))
