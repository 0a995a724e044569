"""Static reference background image (SRBI) construction.

The model is assembled block by block: counterpart blocks of adjacent
frames are compared, and when a cell is judged static its pixels are
committed verbatim from the later frame of the pair. Each pair scores the
still unsettled cells in raster order, in chunks of about SCORE_BUDGET_PX
pixels per call, and each cell settles at most once; building stops when
every cell has settled or the frame budget runs out. A frame's cells are
summarized when first compared (see ``FrameSummary``), and a pair's later
frame keeps its summaries for the next pair. Rebuilds move one
build along a stream's last frames (see ``RebuildWindow``), so each pair's
cells are scored at most once per stream.

Cell status bookkeeping: a cell is either unsettled, settled at a frame
index (the later frame of the agreeing pair), or backfilled from a
fallback frame after the budget ran out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .blocks import BlockGrid, block_view, make_grid
from .comparators import ComparatorConfig, FrameSummary, score_cells
from .errors import PnmError, SequenceTooShort
from .imaging import Frame, check_size, load_frame, save_frame

CELL_UNSETTLED = -1
CELL_BACKFILLED = -2

DEFAULT_MAX_FRAMES = 150

# Pixels per score_cells call: enough cells to amortize the call, few
# enough to bound its temporaries (about one g = 8 row of a 720p frame).
SCORE_BUDGET_PX = 1 << 16

_SIDECAR_SUFFIX = ".cells"


@dataclass
class BackgroundModel:
    """SRBI pixels over the cropped extent plus per-cell provenance.

    ``cell_status[row, col]`` is the settle frame index (>= 0),
    CELL_UNSETTLED, or CELL_BACKFILLED. ``built_from`` is the half-open
    range of stream indices consumed while building.
    """

    grid: BlockGrid
    pixels: np.ndarray  # (cropped_height, cropped_width) uint8, read-only
    cell_status: np.ndarray  # (g, g) int32
    built_from: tuple[int, int]


def coverage(model: BackgroundModel) -> float:
    """Fraction of cells that are settled or backfilled."""
    return float(np.mean(model.cell_status != CELL_UNSETTLED))


def build_srbi(frames, grid: BlockGrid, cfg: ComparatorConfig, max_frames: int = DEFAULT_MAX_FRAMES) -> BackgroundModel:
    """Build the SRBI from a frame sequence (any iterable).

    Pulls a frame only when it is compared, and at most ``max_frames`` of
    them: frames past the point where every cell settled are never read.
    Each frame is checked against the grid and frame 0 as it arrives. A
    partial model (coverage < 1) is a normal return, not an error; see
    ``backfill``.
    """
    if max_frames < 2:
        raise ValueError(f"max_frames must be >= 2, got {max_frames}")
    return _move(_unread(grid), frames, 0, max_frames, cfg)


def _unread(grid: BlockGrid) -> BackgroundModel:
    """The build of no frame: every cell unsettled, every pixel 0 (a view that holds no memory)."""
    status = np.full((grid.g, grid.g), CELL_UNSETTLED, dtype=np.int32)
    return BackgroundModel(grid, np.broadcast_to(np.uint8(0), (grid.cropped_height, grid.cropped_width)), status, (0, 0))


def _move(build: BackgroundModel, frames, start: int, end: int, cfg: ComparatorConfig) -> BackgroundModel:
    """``build_srbi`` over ``frames``, stream frames [start, end), from
    ``build`` over stream frames [s, e), s <= start. A cell keeps its settle
    index only inside the window, and an unsettled or backfilled cell failed
    every pair before e - 1, so only the cells that settled before ``start``
    are compared again from it; the unsettled ones join them at pair e - 1."""
    grid, g = build.grid, build.grid.g
    status = build.cell_status.copy()
    pixels = build.pixels.copy()  # an unread build's pixels are a zero view, so this starts all 0
    model_blocks = block_view(pixels, grid)
    again = (status >= 0) & (status <= start)
    kept = (status > start) & (status < end)
    model_blocks[~kept & (status != CELL_UNSETTLED)] = 0  # an unsettled cell's pixels are 0
    status[~kept] = CELL_UNSETTLED
    resume = build.built_from[1] - 1  # the first pair the build's unsettled cells were not compared on
    per_call = max(1, SCORE_BUDGET_PX // (grid.block_height * grid.block_width))
    stream = iter(frames)
    first = next(stream, None)
    consumed = 0 if first is None else 1
    later = None  # the summary of the last frame read, the earlier frame of the next pair
    while start + consumed < end and (pending := status == CELL_UNSETTLED).any():
        if (frame := next(stream, None)) is None:
            break
        if start + consumed <= resume:
            pending &= again
        earlier = later or FrameSummary(block_view(first, grid), cfg)  # frame 0 is cropped once it has a pair
        check_size(frame, (first.width, first.height), consumed)
        later = FrameSummary(block_view(frame, grid), cfg)
        # Chunks of pending cells in raster order; a chunk may span grid rows.
        static = np.zeros((g, g), dtype=bool)
        rows, cols = np.nonzero(pending)
        for i in range(0, len(rows), per_call):
            r, c = rows[i : i + per_call], cols[i : i + per_call]
            static[r, c] = score_cells(earlier, later, r, c) < cfg.threshold
        model_blocks[static] = later.blocks[static]
        status[static] = start + consumed
        consumed += 1
    done = start + consumed if (status == CELL_UNSETTLED).any() else int(status.max()) + 1
    if done - start < 2:
        raise SequenceTooShort(f"need at least 2 frames to build, got {consumed}")
    pixels.setflags(write=False)
    return BackgroundModel(grid=grid, pixels=pixels, cell_status=status, built_from=(start, done))


def backfill(model: BackgroundModel, fallback: Frame) -> BackgroundModel:
    """Fill unsettled cells from ``fallback``, marking them CELL_BACKFILLED.

    Returns a new model; settled cells and their provenance are untouched.
    ``fallback`` must cover the grid (see ``blocks.crop``).
    """
    grid = model.grid
    pixels = model.pixels.copy()
    status = model.cell_status.copy()
    unsettled = status == CELL_UNSETTLED
    block_view(pixels, grid)[unsettled] = block_view(fallback, grid)[unsettled]
    status[unsettled] = CELL_BACKFILLED
    pixels.setflags(write=False)
    return BackgroundModel(grid=grid, pixels=pixels, cell_status=status, built_from=model.built_from)


class RebuildWindow(deque):
    """The last ``maxlen`` frames of a stream, and ``build``, ``build_srbi``
    over them at the last ``update_srbi``, counting from the stream start; it
    starts as the given build (backfilled cells count as unsettled) or unread."""

    def __init__(self, grid: BlockGrid, maxlen: int, build: BackgroundModel | None = None):
        super().__init__((), maxlen)
        self.build, self.end = build or _unread(grid), 0  # end: the number of frames appended

    def append(self, frame: Frame) -> None:
        super().append(frame)
        self.end += 1


def update_srbi(model: BackgroundModel, window: RebuildWindow, cfg: ComparatorConfig) -> BackgroundModel:
    """Move ``window.build`` to the window; keep the old model unless coverage holds up.

    The moved build is ``build_srbi`` over the window and scores no (pair,
    cell) the build has scored (see ``_move``); a window that ends before
    the build reads it cut there. The new model is adopted only when its
    coverage is at least the old one's, so a burst of activity can never
    degrade an established model."""
    fresh = _move(window.build, window, window.end - len(window), window.end, cfg)
    if fresh.built_from[1] >= window.build.built_from[1]:
        window.build = fresh
    return fresh if coverage(fresh) >= coverage(model) else model


_STATUS_NAMES = {CELL_UNSETTLED: "unsettled", CELL_BACKFILLED: "backfilled"}
_STATUS_CODES = {name: code for code, name in _STATUS_NAMES.items()}
_SETTLE_MAX = int(np.iinfo(np.int32).max)  # the largest settle index cell_status holds


def _sidecar_text(g: int, built_from: tuple[int, int], codes: list[int]) -> str:
    """A '.cells' sidecar: a header line, the grid, the ``built_from`` range,
    then a line ``row col status settle_index`` for each of the g*g row-major
    status ``codes``; settle_index is -1 unless the cell settled from a frame
    pair. Every line ends in a newline."""
    # Most cells share a few codes, so each code's line end is formatted once.
    ends = {code: f"{_STATUS_NAMES.get(code, 'settled')} {max(code, -1)}\n" for code in set(codes)}
    parts = [""] * (2 * g * g)
    parts[0::2] = [f"{i // g} {i % g} " for i in range(g * g)]
    parts[1::2] = map(ends.__getitem__, codes)
    return f"# srbi cells v1\n# grid {g}\n# built_from {built_from[0]} {built_from[1]}\n" + "".join(parts)


def save_model(model: BackgroundModel, path) -> None:
    """Write the SRBI as PGM plus a '.cells' text sidecar (see ``_sidecar_text``)."""
    path = Path(path)
    sidecar = path.with_name(path.name + _SIDECAR_SUFFIX)
    sidecar.unlink(missing_ok=True)  # a failed write must not leave new pixels beside an old sidecar
    save_frame(Frame(model.pixels), path)
    text = _sidecar_text(model.grid.g, model.built_from, model.cell_status.ravel().tolist())
    sidecar.write_text(text, encoding="ascii")


def load_model(path) -> BackgroundModel:
    """Load a model written by save_model (PGM + '.cells' sidecar).

    The sidecar must hold exactly the lines save_model writes for the grid,
    ``built_from`` range and cell statuses it states. Raises PnmError naming
    the first line that differs, a grid on line 2 that is missing, not
    positive or does not divide the image (before any cell is read), a
    ``built_from`` range that runs backwards or below frame 0, or a settle
    index outside start < index < end or past int32.
    """
    path = Path(path)
    frame = load_frame(path)
    sidecar = path.with_name(path.name + _SIDECAR_SUFFIX)
    if not sidecar.exists():
        raise PnmError(f"model sidecar missing: {sidecar}")
    # A non-ASCII byte reads as U+FFFD, which no line of a sidecar holds.
    text = sidecar.read_text(encoding="ascii", errors="replace")
    got = text.splitlines(keepends=True)
    try:
        g = int(got[1].removeprefix("# grid "))
    except (IndexError, ValueError):
        raise PnmError("model sidecar line 2: lacks a grid declaration") from None
    if g < 1:
        raise PnmError(f"model sidecar line 2: grid {g} is not positive")
    if frame.width % g or frame.height % g:
        raise PnmError(f"model sidecar line 2: model image dimensions are not a multiple of the grid {g}")
    try:
        start, end = map(int, got[2].removeprefix("# built_from ").split())
    except (IndexError, ValueError):
        start = end = 0  # no rendering matches such a line
    if not 0 <= start <= end:
        raise PnmError(f"model sidecar line 3: built_from ({start}, {end}) needs 0 <= start <= end")
    codes = []
    for line in got[3 : 3 + g * g]:
        try:
            _, _, name, settle = line.split()
            code = int(settle) if name == "settled" else _STATUS_CODES[name]
        except (KeyError, ValueError):
            code = CELL_UNSETTLED  # no rendering matches such a line
        codes.append(code)
    codes += [CELL_UNSETTLED] * (g * g - len(codes))  # cells past the end of the file
    expected = _sidecar_text(g, (start, end), codes)
    if expected != text:  # walk the lines only to name the first that differs
        for ln, (want, have) in enumerate(zip_longest(expected.splitlines(keepends=True), got, fillvalue=""), start=1):
            if want != have:
                raise PnmError(f"model sidecar line {ln}: expected {want!r}, got {have!r}")
    for ln, code in enumerate(codes, start=4):  # a build settles a cell at the later frame of a pair it read
        if code >= 0 and (not start < code < end or code > _SETTLE_MAX):
            raise PnmError(f"model sidecar line {ln}: settle index {code} lies outside built_from ({start}, {end}) or int32")
    grid = make_grid(frame.width, frame.height, g)
    status = np.array(codes, dtype=np.int32).reshape(g, g)
    return BackgroundModel(grid=grid, pixels=frame.pixels, cell_status=status, built_from=(start, end))
