"""Small shared builders for the test suite."""

import numpy as np
from hypothesis import settings

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
