"""Static reference background image (SRBI) construction.

The model is assembled block by block: counterpart blocks of adjacent
frames are compared, and when a cell is judged static its pixels are
committed verbatim from the later frame of the pair. Each pair scores the
still unsettled cells, one grid row per call, and each cell settles at
most once; building stops when every cell has settled or the frame budget
runs out. A caller may keep each pair's scores across builds over the
same frames, so a rebuild scores only the cells no earlier build did.

Cell status bookkeeping: a cell is either unsettled, settled at a frame
index (the later frame of the agreeing pair), or backfilled from a
fallback frame after the budget ran out.
"""

from __future__ import annotations

from collections.abc import MutableSequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blocks import BlockGrid, block_view, make_grid
from .comparators import ComparatorConfig, score_blocks
from .errors import InconsistentSequence, PnmError, SequenceTooShort
from .imaging import Frame, load_frame, save_frame

CELL_UNSETTLED = -1
CELL_BACKFILLED = -2

DEFAULT_MAX_FRAMES = 150

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


def build_srbi(
    frames,
    grid: BlockGrid,
    cfg: ComparatorConfig,
    max_frames: int = DEFAULT_MAX_FRAMES,
    scores: MutableSequence[np.ndarray] | None = None,
) -> BackgroundModel:
    """Build the SRBI from a frame sequence (any iterable).

    Pulls a frame only when it is compared, and at most ``max_frames`` of
    them: frames past the point where every cell settled are never read.
    Each frame is checked against the grid and frame 0 as it arrives. A
    partial model (coverage < 1) is a normal return, not an error; see
    ``backfill``.

    ``scores[k]`` is the (g, g) float64 score grid of pair k (frames k and
    k + 1), NaN where no build has scored the cell yet. The build appends
    a grid when it first reaches a pair, scores only the pending cells that
    are still NaN, and writes their scores back, so a later build over the
    same frames reuses them. None starts an empty list.
    """
    if max_frames < 2:
        raise ValueError(f"max_frames must be >= 2, got {max_frames}")
    scores = [] if scores is None else scores
    g = grid.g
    status = np.full((g, g), CELL_UNSETTLED, dtype=np.int32)
    pixels = np.zeros((grid.cropped_height, grid.cropped_width), dtype=np.uint8)
    model_blocks = block_view(pixels, grid)
    stream = iter(frames)
    first = prev = next(stream, None)
    consumed = 0 if first is None else 1
    while consumed < max_frames and (pending := status == CELL_UNSETTLED).any():
        frame = next(stream, None)
        if frame is None:
            break
        w, h = first.width, first.height  # frame 0 is checked once it has a pair
        if consumed == 1 and (w < grid.cropped_width or h < grid.cropped_height):
            raise InconsistentSequence(
                0, f"frame 0 is {w}x{h}, smaller than the grid extent"
            )
        if (frame.width, frame.height) != (w, h):
            raise InconsistentSequence(
                consumed,
                f"frame {consumed} is {frame.width}x{frame.height}, expected {w}x{h}",
            )
        blocks_a = block_view(prev, grid)
        blocks_b = block_view(frame, grid)
        if len(scores) < consumed:
            scores.append(np.full((g, g), np.nan))
        pair_scores = scores[consumed - 1]
        unscored = pending & np.isnan(pair_scores)
        # One grid row of unscored blocks per call bounds the temporaries.
        for row in np.flatnonzero(unscored.any(axis=1)):
            cols = np.flatnonzero(unscored[row])
            pair_scores[row, cols] = score_blocks(blocks_a[row, cols], blocks_b[row, cols], cfg)
        static = pending & (pair_scores < cfg.threshold)
        model_blocks[static] = blocks_b[static]
        status[static] = consumed
        prev = frame
        consumed += 1
    if consumed < 2:
        raise SequenceTooShort(f"need at least 2 frames to build, got {consumed}")
    pixels.setflags(write=False)
    return BackgroundModel(
        grid=grid, pixels=pixels, cell_status=status, built_from=(0, consumed)
    )


def backfill(model: BackgroundModel, fallback: Frame) -> BackgroundModel:
    """Fill unsettled cells from ``fallback``, marking them CELL_BACKFILLED.

    Returns a new model; settled cells and their provenance are untouched.
    """
    grid = model.grid
    if fallback.width < grid.cropped_width or fallback.height < grid.cropped_height:
        raise InconsistentSequence(
            0,
            f"fallback frame is {fallback.width}x{fallback.height}, "
            "smaller than the grid extent",
        )
    pixels = model.pixels.copy()
    status = model.cell_status.copy()
    unsettled = status == CELL_UNSETTLED
    block_view(pixels, grid)[unsettled] = block_view(fallback, grid)[unsettled]
    status[unsettled] = CELL_BACKFILLED
    pixels.setflags(write=False)
    return BackgroundModel(
        grid=grid, pixels=pixels, cell_status=status, built_from=model.built_from
    )


def update_srbi(
    model: BackgroundModel,
    frames,
    cfg: ComparatorConfig,
    max_frames: int = DEFAULT_MAX_FRAMES,
    scores: MutableSequence[np.ndarray] | None = None,
) -> BackgroundModel:
    """Rebuild from newer frames; keep the old model unless coverage holds up.

    The new model is adopted only when its coverage is at least the old
    one's, so a burst of activity can never degrade an established model.
    ``scores`` is passed to ``build_srbi``.
    """
    fresh = build_srbi(frames, model.grid, cfg, max_frames=max_frames, scores=scores)
    if coverage(fresh) >= coverage(model):
        return fresh
    return model


_STATUS_NAMES = {CELL_UNSETTLED: "unsettled", CELL_BACKFILLED: "backfilled"}
_STATUS_CODES = {name: code for code, name in _STATUS_NAMES.items()}


def save_model(model: BackgroundModel, path) -> None:
    """Write the SRBI as PGM plus a '.cells' text sidecar.

    Sidecar lines are ``row col status settle_index`` per cell, row-major;
    settle_index is -1 unless the cell settled from a frame pair.
    """
    path = Path(path)
    save_frame(Frame(model.pixels), path)
    lines = [
        "# srbi cells v1",
        f"# grid {model.grid.g}",
        f"# built_from {model.built_from[0]} {model.built_from[1]}",
    ]
    for row in range(model.grid.g):
        for col in range(model.grid.g):
            s = int(model.cell_status[row, col])
            name = _STATUS_NAMES.get(s, "settled")
            settle = s if s >= 0 else -1
            lines.append(f"{row} {col} {name} {settle}")
    path.with_name(path.name + _SIDECAR_SUFFIX).write_text(
        "\n".join(lines) + "\n", encoding="ascii"
    )


def load_model(path) -> BackgroundModel:
    """Load a model written by save_model (PGM + '.cells' sidecar).

    Raises PnmError naming the sidecar line that is malformed, declares a
    non-positive grid or a ``built_from`` range that runs backwards or below
    frame 0, repeats a ``grid`` or ``built_from`` declaration, is out of the
    grid, repeated, or pairs a status with an impossible settle index.
    """
    path = Path(path)
    frame = load_frame(path)
    sidecar = path.with_name(path.name + _SIDECAR_SUFFIX)
    if not sidecar.exists():
        raise PnmError(f"model sidecar missing: {sidecar}")
    g = built = None
    cells = {}
    # A non-ASCII byte reads as U+FFFD, which no field parses: outside a comment it fails its line.
    text = sidecar.read_text(encoding="ascii", errors="replace")
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        where = f"model sidecar line {ln}"
        try:
            if line.startswith("#"):
                parts = line[1:].split()
                if parts[:1] == ["grid"]:
                    if g is not None:
                        raise PnmError(f"{where}: second grid declaration")
                    g = int(parts[1])
                    if g < 1:
                        raise PnmError(f"{where}: grid {g} is not positive")
                elif parts[:1] == ["built_from"]:
                    if built is not None:
                        raise PnmError(f"{where}: second built_from declaration")
                    built = (int(parts[1]), int(parts[2]))
                    if not 0 <= built[0] <= built[1]:
                        raise PnmError(f"{where}: built_from {built} needs 0 <= start <= end")
                continue
            row_s, col_s, name, settle_s = line.split()
            cell, settle = (int(row_s), int(col_s)), int(settle_s)
        except (ValueError, IndexError) as exc:
            raise PnmError(f"{where}: malformed {raw!r}") from exc
        if g is None or not (0 <= cell[0] < g and 0 <= cell[1] < g):
            raise PnmError(f"{where}: cell {cell} is not inside a grid declared above it")
        if cell in cells:
            raise PnmError(f"{where}: cell {cell} listed twice")
        code = settle if name == "settled" else _STATUS_CODES.get(name)
        if code is None:
            raise PnmError(f"{where}: unknown cell status {name!r}")
        if not (0 <= settle <= np.iinfo(np.int32).max if name == "settled" else settle == -1):
            raise PnmError(f"{where}: status {name} with settle index {settle}")
        cells[cell] = code
    if g is None:
        raise PnmError(f"model sidecar lacks a grid declaration: {sidecar}")
    if frame.width % g or frame.height % g:
        raise PnmError("model image dimensions are not a multiple of the grid")
    grid = make_grid(frame.width, frame.height, g)
    status = np.full((g, g), CELL_UNSETTLED, dtype=np.int32)
    for cell, code in cells.items():
        status[cell] = code
    missing = [cell for cell in np.ndindex(g, g) if cell not in cells]
    if missing:
        raise PnmError(f"model sidecar missing cell {missing[0]}")
    return BackgroundModel(grid=grid, pixels=frame.pixels, cell_status=status, built_from=built or (0, 0))
