"""Small shared builders for the test suite."""

import dataclasses
from collections import namedtuple
from pathlib import Path

import numpy as np
from hypothesis import settings

import blockbg.background
import blockbg.comparators
import blockbg.pipeline
from blockbg.bench import SceneSpec, parse_scene_file
from blockbg.imaging import Frame, save_frame

# Hypothesis settings for every property: a fixed, bounded set of examples.
FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=30)


def reference_scene(noise_sigma: float) -> SceneSpec:
    """The acceptance checks' scene, read from its golden file, at ``noise_sigma``."""
    spec = parse_scene_file(Path(__file__).parent / "golden" / "reference_sigma5.scene")
    return dataclasses.replace(spec, noise_sigma=noise_sigma)


def frame_of(arr) -> Frame:
    return Frame(np.asarray(arr, dtype=np.uint8))


def texture(seed: int, height: int, width: int, lo: int = 60, hi: int = 200) -> np.ndarray:
    """Deterministic random uint8 field for test inputs."""
    rng = np.random.default_rng(seed)
    return rng.integers(lo, hi, size=(height, width), dtype=np.int64).astype(np.uint8)


def write_frames(directory, arrays, pattern: str = "%06d.pgm", start: int = 0):
    """Save arrays as a PGM sequence; returns the written paths."""
    paths = []
    for i, arr in enumerate(arrays, start=start):
        path = directory / (pattern % i)
        save_frame(frame_of(arr), path)
        paths.append(path)
    return paths


def frames_to_reach(model_status: np.ndarray, fraction: float, g: int) -> int:
    """Frames needed until ``fraction`` of cells had settled, from settle
    indices; -1 when never reached."""
    settled = np.sort(model_status[model_status >= 0])
    need = int(np.ceil(fraction * g * g))
    if len(settled) < need or need == 0:
        return -1
    return int(settled[need - 1]) + 1


def scored_pairs(status, built_from) -> set[tuple[int, int, int]]:
    """The (pair, row, col)s a from-scratch build scored: each cell on every
    pair from the window start up to the one it settled on, or up to the
    last pair read if it never settled. Pair k is frames k and k + 1."""
    start, end = built_from
    return {
        (k, r, c)
        for (r, c), s in np.ndenumerate(status)
        for k in range(start, s if s >= 0 else end - 1)
    }


ScoreCall = namedtuple("ScoreCall", "cells scores")


def record_score_calls(mp) -> list[ScoreCall]:
    """Patch, through the pytest MonkeyPatch ``mp``, the ``score_cells`` that
    builds call so that each call's cells, as a list of (row, col), and
    scores are appended to the returned list."""
    calls = []
    score_cells = blockbg.background.score_cells

    def recording(a, b, rows, cols):
        calls.append(ScoreCall(list(zip(rows.tolist(), cols.tolist())), score_cells(a, b, rows, cols)))
        return calls[-1].scores

    mp.setattr(blockbg.background, "score_cells", recording)
    return calls


def record_block_stacks(mp) -> list[int]:
    """Patch, through the pytest MonkeyPatch ``mp``, the comparator kernels
    that take stacks of blocks, ``summarize`` and ``compare`` of absdiff and
    XOR pixels, so that each call's number of blocks is appended to the
    returned list."""
    stacks = []
    summarize, compare = blockbg.comparators.summarize, blockbg.comparators.compare

    def summarizing(blocks, cfg):
        stacks.append(len(blocks))
        return summarize(blocks, cfg)

    def comparing(a, b, cfg):
        if a.ndim == 3:  # pixels; entropy and DCT summaries have fewer axes
            stacks.append(len(a))
        return compare(a, b, cfg)

    mp.setattr(blockbg.comparators, "summarize", summarizing)
    mp.setattr(blockbg.comparators, "compare", comparing)
    return stacks


def blocks_scored(calls) -> int:
    """The number of block pairs that the recorded ``calls`` scored."""
    return sum(len(call.scores) for call in calls)


Rebuild = namedtuple("Rebuild", "start end old model build scored")


def record_rebuilds(mp) -> tuple[list[Rebuild], list[ScoreCall]]:
    """Patch, through the pytest MonkeyPatch ``mp``, the ``update_srbi`` that
    ``detect_stream`` calls, and record every score call as
    ``record_score_calls`` does. Returns the rebuilds and the score calls.
    Each rebuild holds its window's frames [start, end), the model it was
    given, the model it returned, the window's build after it and the
    number of blocks it scored."""
    rebuilds, calls = [], record_score_calls(mp)
    update_srbi = blockbg.pipeline.update_srbi

    def recording(model, window, cfg):
        before = len(calls)
        got = update_srbi(model, window, cfg)
        start = window.end - len(window)
        rebuilds.append(Rebuild(start, window.end, model, got, window.build, blocks_scored(calls[before:])))
        return got

    mp.setattr(blockbg.pipeline, "update_srbi", recording)
    return rebuilds, calls
