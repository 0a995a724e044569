"""Grayscale frame type and lossless netpbm I/O.

Frames are 8-bit single-channel images stored row-major. The only file
formats supported are binary PGM (P5) and binary PPM (P6); PPM input is
reduced to grayscale on load with an integer BT.601 weighting so that
loads are bit-reproducible everywhere. Compressed containers are out of
scope: every save/load round trip must be exact.

Frame pixel buffers are frozen at construction, so frames can be shared
freely between threads.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    FrameTooSmall,
    InconsistentSequence,
    PnmError,
    SequenceTooShort,
)

MIN_DIM = 16

DEFAULT_PATTERN = "%06d.pgm"
PREFILTERS = ("none", "median3")  # the first is the default


@dataclass(frozen=True, eq=False)
class Frame:
    """One grayscale frame: a read-only (height, width) uint8 array."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2:
            raise ValueError("frame pixels must be a 2-D array")
        h, w = arr.shape
        if h < MIN_DIM or w < MIN_DIM:
            raise FrameTooSmall(
                f"frame is {w}x{h}; minimum supported dimension is {MIN_DIM}"
            )
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError("frame pixels must be integers")
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise ValueError("frame intensities must lie in [0, 255]")
        arr = arr.astype(np.uint8)  # always a copy, so the caller's array can change
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Frame):
            return NotImplemented
        return np.array_equal(self.pixels, other.pixels)


_FIELD = re.compile(rb"(?:\s|#[^\n]*\n?)*([^\s#]*)")  # separators, then one header field


def _read_header(data: bytes):
    """Parse a P5/P6 header; returns (magic, width, height, payload offset).

    Whitespace-separated fields with ``#`` comments running to end of line,
    exactly one whitespace byte after the maxval, payload after that.
    """
    if data[:2] not in (b"P5", b"P6"):
        raise PnmError("malformed header: not a binary PGM/PPM (P5/P6) file")
    magic = data[:2].decode("ascii")
    fields, pos = [], 2
    for _ in range(3):
        m = _FIELD.match(data, pos)
        token, pos = m[1], m.end()
        if not token.isdigit():
            raise PnmError("malformed header: expected decimal header field")
        try:
            fields.append(int(token))
        except ValueError:  # past the interpreter's limit on digits
            raise PnmError(f"malformed header: header field of {len(token)} digits is too long") from None
    if not data[pos : pos + 1].isspace():
        raise PnmError("malformed header: missing whitespace before payload")
    width, height, maxval = fields
    if maxval != 255:
        raise PnmError(f"unsupported maxval {maxval}: only 255 is accepted")
    if width < MIN_DIM or height < MIN_DIM:
        raise FrameTooSmall(
            f"image is {width}x{height}; minimum supported dimension is {MIN_DIM}"
        )
    return magic, width, height, pos + 1


def load_frame(path) -> Frame:
    """Load a binary PGM (P5) or PPM (P6) file as a grayscale Frame.

    PPM pixels are reduced with the integer luma weighting
    ``(77*R + 150*G + 29*B + 128) >> 8``.
    """
    data = Path(path).read_bytes()
    magic, width, height, pos = _read_header(data)
    channels = 1 if magic == "P5" else 3
    need = width * height * channels
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise PnmError(
            f"truncated payload: expected {need} bytes, found {len(payload)}"
        )
    raw = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        px = raw.reshape(height, width)
    else:
        rgb = raw.reshape(height, width, 3).astype(np.uint32)
        px = (77 * rgb[:, :, 0] + 150 * rgb[:, :, 1] + 29 * rgb[:, :, 2] + 128) >> 8
        px = px.astype(np.uint8)
    return Frame(px)


def save_frame(frame: Frame, path) -> None:
    """Write a Frame as binary PGM (P5), maxval 255."""
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + frame.pixels.tobytes())


def _pattern_regex(pattern: str) -> re.Pattern:
    """Turn a printf-style file pattern (one %d / %0Nd field) into a regex."""
    m = re.search(r"%(0?)(\d*)d", pattern)
    if m is None:
        raise ValueError(f"pattern {pattern!r} has no %d field")
    prefix = re.escape(pattern[: m.start()])
    suffix = re.escape(pattern[m.end() :])
    return re.compile(f"^{prefix}(\\d+){suffix}$")


def load_sequence(
    directory, pattern: str = DEFAULT_PATTERN, min_frames: int = 2
) -> Iterator[Frame]:
    """Frames in ``directory`` matching ``pattern``, in ascending index.

    The files are listed up front, so a sequence of fewer than
    ``min_frames`` files (default two) raises before anything is decoded.
    The returned iterator decodes each frame only when it is reached; a
    frame that cannot be read, or whose dimensions differ from the first
    frame's, raises there, naming its file.
    """
    rx = _pattern_regex(pattern)
    found = []
    for entry in Path(directory).iterdir():
        m = rx.match(entry.name)
        if m:
            found.append((int(m.group(1)), entry))
    found.sort()
    if len(found) < min_frames:
        raise SequenceTooShort(
            f"found {len(found)} frame(s) matching {pattern!r}; "
            f"need at least {min_frames}"
        )
    return _decode(found)


def _decode(found: list[tuple[int, Path]]) -> Iterator[Frame]:
    first_dims = None
    for index, entry in found:
        try:
            frame = load_frame(entry)
        except (PnmError, FrameTooSmall) as exc:
            raise type(exc)(f"{entry}: {exc}") from exc
        first_dims = first_dims or (frame.width, frame.height)
        if (frame.width, frame.height) != first_dims:
            raise InconsistentSequence(
                index,
                f"{entry}: frame {index} is {frame.width}x{frame.height}, "
                f"expected {first_dims[0]}x{first_dims[1]}",
            )
        yield frame


def _median3(px: np.ndarray) -> np.ndarray:
    """3x3 median with border windows shrunk to the in-bounds subset.

    Even-sized border windows take the lower median so output intensities
    always come from the window's own multiset.
    """
    h, w = px.shape
    padded = np.pad(px.astype(np.uint16), 1, constant_values=256)  # 256 sorts after any pixel
    # the (h, w) views at the 3x3 offsets, copied into one (9, h, w) stack
    stack = np.lib.stride_tricks.sliding_window_view(padded, (h, w)).reshape(9, h, w)
    stack.sort(axis=0)
    ny, nx = np.full(h, 3), np.full(w, 3)  # in-bounds rows and columns per window
    ny[[0, -1]] = nx[[0, -1]] = 2
    pick = (ny[:, None] * nx - 1) // 2
    return np.take_along_axis(stack, pick[None], axis=0)[0].astype(np.uint8)


def prefilter(frame: Frame, kind: str = PREFILTERS[0]) -> Frame:
    """Optional denoise pass before modeling: ``none`` or ``median3``."""
    if kind == "none":
        return frame
    if kind == "median3":
        return Frame(_median3(frame.pixels))
    raise ValueError(f"unknown prefilter {kind!r}: expected 'none' or 'median3'")
