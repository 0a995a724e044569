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
from .errors import ModelIncomplete, PnmError, ShapeMismatch
from .imaging import Frame

DEFAULT_SUBTRACT_SHIFT = 6
DEFAULT_WINDOW = 3
DEFAULT_MIN_AREA_FRAC = 0.001


def _check_bits(bits: np.ndarray) -> None:
    """Raise ValueError unless every value of the non-empty ``bits`` is 0 or 1."""
    # For integers the extremes decide; other dtypes may hold a 0.5 between.
    values = (bits.min(), bits.max()) if bits.dtype.kind in "biu" else np.unique(bits)
    for v in values:
        if v != 0 and v != 1:
            raise ValueError(f"mask bits must be 0 or 1, got {v}")


@dataclass(frozen=True, eq=False)
class ForegroundMask:
    """Binary change map over the model's cropped extent (uint8 0/1)."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bits)
        if arr.ndim != 2:
            raise ValueError("mask bits must be a 2-D array")
        if arr.size:
            _check_bits(arr)
        arr = arr.astype(np.uint8)  # always a copy
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

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


def subtract(model: BackgroundModel, frame: Frame, shift: int = DEFAULT_SUBTRACT_SHIFT) -> np.ndarray:
    """Raw per-pixel change map over the cropped extent.

    change[p] = 1 iff (model[p] XOR frame[p]) >> shift != 0: the buckets differ.
    The model must be fully covered (settled or backfilled everywhere).
    """
    if not 0 <= shift <= 7:
        raise ValueError(f"subtract shift must be in [0, 7], got {shift}")
    if (model.cell_status == CELL_UNSETTLED).any():
        raise ModelIncomplete(
            "model has unsettled cells; backfill before subtracting"
        )
    ch, cw = model.pixels.shape
    if frame.height < ch or frame.width < cw:
        raise ShapeMismatch(
            f"frame {frame.width}x{frame.height} smaller than model extent {cw}x{ch}"
        )
    window = frame.pixels[:ch, :cw]
    return (((model.pixels ^ window) >> shift) != 0).astype(np.uint8)


def _window_sum(a: np.ndarray, r: int, axis: int) -> np.ndarray:
    """One pass of a separable window count: ``a`` summed over -r..r along ``axis``."""
    out = a.copy()
    src, dst = np.moveaxis(a, axis, 0), np.moveaxis(out, axis, 0)
    for d in range(1, r + 1):  # slices past the edge are empty
        dst[d:] += src[:-d]
        dst[:-d] += src[d:]
    return out


def median_filter_mask(bits: np.ndarray, window: int = DEFAULT_WINDOW) -> np.ndarray:
    """Binary median of 0/1 ``bits``: keep a pixel iff strictly more than
    half its window (clipped to bounds) is set. Even splits resolve to 0.
    Any other value raises ValueError.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.size == 0:
        raise ValueError("mask bits must be a non-empty 2-D array")
    _check_bits(bits)
    r = window // 2
    dtype = np.min_scalar_type(window * window)  # holds any window's count
    ones = _window_sum(_window_sum(bits.astype(dtype, copy=False), r, 0), r, 1)
    ny, nx = (_window_sum(np.ones(k, dtype), r, 0) for k in bits.shape)  # in-bounds extents
    return (ones > (ny[:, None] * nx) // 2).astype(np.uint8)


def make_mask(
    model: BackgroundModel,
    frame: Frame,
    shift: int = DEFAULT_SUBTRACT_SHIFT,
    window: int = DEFAULT_WINDOW,
) -> ForegroundMask:
    """subtract + median cleanup in one step."""
    return ForegroundMask(median_filter_mask(subtract(model, frame, shift), window))


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


def connected_components(mask: ForegroundMask, min_area: float = 0.0) -> list[DetectedObject]:
    """8-connected components with at least ``min_area`` pixels.

    Objects come back sorted by (bbox.y, bbox.x); ties keep raster order
    of their first pixel.
    """
    if min_area < 0:
        raise ValueError(f"min_area must be >= 0, got {min_area}")
    h, w = mask.bits.shape
    # Horizontal runs in raster order as row-major keys y*stride + x over
    # rows with a zero pad column: run i covers keys [start[i], end[i]).
    stride = w + 1
    padded = np.zeros((h, stride), dtype=np.int8)
    padded[:, :w] = mask.bits
    edges = np.diff(padded.ravel(), prepend=np.int8(0))
    start = np.flatnonzero(edges == 1)
    end = np.flatnonzero(edges == -1)
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
        while not np.array_equal(up := parent[parent], parent):
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
    return [
        DetectedObject(
            x=int(min_x[k]),
            y=int(min_y[k]),
            w=int(end_x[k] - min_x[k]),
            h=int(max_y[k] - min_y[k] + 1),
            area=int(area[k]),
            centroid_x=float(sum_x[k] / area[k]),
            centroid_y=float(sum_y[k] / area[k]),
        )
        for k in keep
    ]


def mask_to_frame(mask: ForegroundMask) -> Frame:
    """Encode a mask as a PGM-ready frame: 0 -> 0, 1 -> 255."""
    return Frame(mask.bits * np.uint8(255))


def frame_to_mask(frame: Frame) -> ForegroundMask:
    """Decode a mask frame; only intensities 0 and 255 are legal."""
    px = frame.pixels
    bad = (px != 0) & (px != 255)
    if bad.any():
        y, x = np.argwhere(bad)[0]
        raise PnmError(
            f"mask frame has non-binary intensity {int(px[y, x])} at ({int(x)}, {int(y)})"
        )
    return ForegroundMask((px == 255).astype(np.uint8))
