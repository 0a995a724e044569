"""Small shared builders for the test suite."""

from collections import namedtuple

import numpy as np
from hypothesis import settings

import blockbg.background
from blockbg.imaging import Frame, save_frame

# Hypothesis settings for every property: a fixed, bounded set of examples.
FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=30)


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


ScoreCall = namedtuple("ScoreCall", "a scores")


def record_score_calls(mp) -> list[ScoreCall]:
    """Patch, through the pytest MonkeyPatch ``mp``, the ``score_blocks`` that
    builds call so that each call's first blocks and scores are appended to
    the returned list."""
    calls = []
    score_blocks = blockbg.background.score_blocks

    def recording(a, b, cfg):
        calls.append(ScoreCall(a, score_blocks(a, b, cfg)))
        return calls[-1].scores

    mp.setattr(blockbg.background, "score_blocks", recording)
    return calls


def blocks_scored(calls) -> int:
    """The number of block pairs that the recorded ``calls`` scored."""
    return sum(len(call.scores) for call in calls)
