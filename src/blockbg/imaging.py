"""Grayscale frame type and lossless netpbm I/O.

Frames are 8-bit single-channel images stored row-major. The only file
formats supported are binary PGM (P5) and binary PPM (P6); PPM input is
reduced to grayscale on load with an integer BT.601 weighting so that
loads are bit-reproducible everywhere. Compressed containers are out of
scope: every save/load round trip must be exact.

Frame pixel buffers are frozen at construction, so frames can be shared
freely between threads. ``Frame(pixels)`` copies the caller's array; a
PGM Frame from ``load_frame`` keeps the bytes the file was read into.
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


def check_intensities(arr: np.ndarray, what: str) -> None:
    """Raise ValueError, naming ``what``, unless uint8 holds every value of ``arr`` exactly."""
    if arr.dtype != np.uint8:
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"{what} pixels must be integers")
        if arr.size and (arr.min() < 0 or arr.max() > 255):
            raise ValueError(f"{what} intensities must lie in [0, 255]")


@dataclass(frozen=True, eq=False)
class Frame:
    """One grayscale frame: a read-only (height, width) uint8 array."""

    pixels: np.ndarray

    def __post_init__(self, copy: bool = True):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2:
            raise ValueError("frame pixels must be a 2-D array")
        h, w = arr.shape
        if h < MIN_DIM or w < MIN_DIM:
            raise FrameTooSmall(
                f"frame is {w}x{h}; minimum supported dimension is {MIN_DIM}"
            )
        if copy:
            check_intensities(arr, "frame")
            arr = arr.astype(np.uint8, order="C")  # always a row-major copy, so the caller's array can change
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> Frame:
        """A Frame that keeps ``arr`` uncopied and read-only: only for a 2-D
        uint8 C-contiguous array its caller has just made and no one else holds."""
        frame = object.__new__(cls)
        object.__setattr__(frame, "pixels", arr)
        frame.__post_init__(copy=False)
        return frame

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


def check_size(frame: Frame, size: tuple[int, int], index: int, where: str = "") -> None:
    """Raise InconsistentSequence unless ``frame`` is ``size`` (width, height),
    the size of frame 0 of its sequence; the message names frame ``index``
    and starts with ``where``, if given."""
    if (frame.width, frame.height) != size:
        prefix = f"{where}: " if where else ""
        raise InconsistentSequence(
            index, f"{prefix}frame {index} is {frame.width}x{frame.height}, expected {size[0]}x{size[1]}"
        )


_FIELD = re.compile(rb"(?:\s|#[^\n]*\n?)*([^\s#]*)")  # separators, then one header field


def _read_header(data: bytes):
    """Parse a P5/P6 header; returns (magic, width, height, payload offset).

    Whitespace or a ``#`` comment (to end of line) right after the magic and
    between fields, exactly one whitespace byte after the maxval, payload after that.
    """
    if data[:2] not in (b"P5", b"P6"):
        raise PnmError("malformed header: not a binary PGM/PPM (P5/P6) file")
    if not (data[2:3].isspace() or data[2:3] == b"#"):
        raise PnmError("malformed header: expected whitespace or '#' after the magic")
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
    return magic, width, height, pos + 1


def load_frame(path) -> Frame:
    """Load a binary PGM (P5) or PPM (P6) file as a grayscale Frame.

    The file is read once, unbuffered and to its end, so a FIFO reads
    whole. A PGM Frame keeps its payload as a view of the bytes read,
    unless the file holds more than the payload. PPM pixels are reduced
    with the integer luma weighting ``(77*R + 150*G + 29*B + 128) >> 8``.
    """
    with open(path, "rb", buffering=0) as fh:
        data = fh.readall()
    magic, width, height, pos = _read_header(data)
    channels = 1 if magic == "P5" else 3
    need = width * height * channels
    if len(data) - pos < need:
        raise PnmError(
            f"truncated payload: expected {need} bytes, found {len(data) - pos}"
        )
    raw = np.frombuffer(data, np.uint8, need, offset=pos)  # a read-only view
    if channels == 3:
        rgb = raw.reshape(height, width, 3).astype(np.uint32)
        px = (77 * rgb[:, :, 0] + 150 * rgb[:, :, 1] + 29 * rgb[:, :, 2] + 128) >> 8
        return Frame._adopt(px.astype(np.uint8))
    if pos + need < len(data):  # copy the payload rather than keep trailing bytes alive
        return Frame(raw.reshape(height, width))
    return Frame._adopt(raw.reshape(height, width))


def save_frame(frame: Frame, path) -> None:
    """Write a Frame as binary PGM (P5), maxval 255."""
    with open(path, "wb") as fh:  # header and pixel buffer as they are, no joined copy
        fh.write(f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii"))
        fh.write(frame.pixels)


def _pattern_regex(pattern: str) -> tuple[re.Pattern, str]:
    """Split a printf-style file pattern (one %d / %0Nd field) into a regex
    whose group 1 is the field's text, and the field itself. As in printf,
    ``%%`` stands for one ``%`` and never starts the field."""
    m = re.match(r"((?:[^%]|%%|%(?!%|0?\d*d))*)(%0?\d*d)", pattern)
    if m is None:
        raise ValueError(f"pattern {pattern!r} has no %d field")
    prefix, suffix = (re.escape(text.replace("%%", "%")) for text in (m[1], pattern[m.end() :]))
    return re.compile(f"^{prefix}( *\\d+){suffix}$"), m[2]


def load_sequence(
    directory, pattern: str = DEFAULT_PATTERN, min_frames: int = 2
) -> Iterator[Frame]:
    """Frames in ``directory`` named by ``pattern``, in ascending index.

    A file belongs to the sequence only if its name is ``pattern`` with its
    index filled in: with ``%06d.pgm``, ``1.pgm`` and ``0000002.pgm`` are
    not frames. The files are listed up front, so a sequence of fewer than
    ``min_frames`` files (default two) raises before anything is decoded.
    The returned iterator decodes each frame only when it is reached; a
    frame that cannot be read, or whose dimensions differ from the first
    frame's, raises there, naming its file.
    """
    rx, field = _pattern_regex(pattern)
    found = []
    for entry in Path(directory).iterdir():
        m = rx.match(entry.name)
        if m and m[1] == field % int(m[1]):
            found.append((int(m[1]), entry))
    found.sort()
    if len(found) < min_frames:
        raise SequenceTooShort(
            f"found {len(found)} frame(s) matching {pattern!r}; "
            f"need at least {min_frames}"
        )
    return _decode(found)


def _decode(found: list[tuple[int, Path]]) -> Iterator[Frame]:
    size = None
    for index, entry in found:
        try:
            frame = load_frame(entry)
        except (PnmError, FrameTooSmall) as exc:
            raise type(exc)(f"{entry}: {exc}") from exc
        size = size or (frame.width, frame.height)
        check_size(frame, size, index, str(entry))
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
        return Frame._adopt(_median3(frame.pixels))
    raise ValueError(f"unknown prefilter {kind!r}: expected 'none' or 'median3'")
