"""Block dissimilarity scores and the static/dynamic verdict.

Four interchangeable ways of scoring how different two counterpart blocks
are: mean absolute difference, entropy delta, quantized XOR pixel fraction,
and the distance between leading DCT coefficients. Every score is >= 0,
scores 0 for identical blocks, and is symmetric in its arguments. A block
pair is judged Static when its score falls strictly below the configured
threshold.

Each method scores a stack of block pairs in one call (``score_blocks``);
the pairwise functions are the one-pair case of the same code.

The 2-D DCT here is the orthonormal (unitary) DCT-II, computed directly
as two cosine-matrix multiplications; no transform library is involved.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blocks import entropy_bits
from .errors import ShapeMismatch


class Method(str, enum.Enum):
    ABSDIFF = "absdiff"
    ENTROPY = "entropy"
    XOR = "xor"
    DCT = "dct"


class Verdict(enum.Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"


# Engineering defaults, frozen after tuning against the synthetic benchmark.
# The XOR threshold is calibrated to the measured quantized-flip rate of
# sigma=5 Gaussian noise at shift 3 (~0.59 of pixels flip buckets), so noisy
# static blocks settle while content changes stay dynamic.
DEFAULT_THRESHOLDS: dict[Method, float] = {
    Method.ABSDIFF: 6.0,
    Method.ENTROPY: 0.5,
    Method.XOR: 0.70,
    Method.DCT: 6.0,
}

DEFAULT_XOR_SHIFT = 3
DEFAULT_DCT_KEEP = 10


@dataclass(frozen=True)
class ComparatorConfig:
    """Method choice plus its knobs. Entropy log base is fixed at 2."""

    method: Method
    threshold: float
    xor_shift: int = DEFAULT_XOR_SHIFT
    dct_keep: int = DEFAULT_DCT_KEEP

    def __post_init__(self):
        if not self.threshold >= 0:  # NaN fails too
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if not 0 <= self.xor_shift <= 7:
            raise ValueError(f"xor shift must be in [0, 7], got {self.xor_shift}")
        if self.dct_keep < 1:
            raise ValueError(f"dct keep count must be >= 1, got {self.dct_keep}")


def default_config(method: Method | str) -> ComparatorConfig:
    method = Method(method)
    return ComparatorConfig(method=method, threshold=DEFAULT_THRESHOLDS[method])


@dataclass(frozen=True)
class CompareResult:
    score: float
    verdict: Verdict


@lru_cache(maxsize=None)
def _dct_matrix(n: int) -> np.ndarray:
    # Orthonormal DCT-II basis: C @ C.T == I.
    k = np.arange(n)[:, None].astype(np.float64)
    x = np.arange(n)[None, :].astype(np.float64)
    c = np.cos(np.pi * (2.0 * x + 1.0) * k / (2.0 * n)) * np.sqrt(2.0 / n)
    c[0, :] *= np.sqrt(0.5)
    c.setflags(write=False)
    return c


def dct2(block) -> np.ndarray:
    """Orthonormal 2-D DCT-II of a block, as float64 coefficients.

    Separable form: rows and columns each transformed by the 1-D cosine
    basis, i.e. C_h @ block @ C_w.T. Energy is preserved (Parseval).
    """
    px = np.asarray(block, dtype=np.float64)
    if px.ndim != 2 or px.size == 0:
        raise ValueError("dct2 expects a non-empty 2-D block")
    ch = _dct_matrix(px.shape[0])
    cw = _dct_matrix(px.shape[1])
    return ch @ px @ cw.T


@lru_cache(maxsize=None)
def zigzag_indices(height: int, width: int) -> tuple[tuple[int, int], ...]:
    """Zigzag scan order generalized to rectangles.

    Anti-diagonals (row + col constant) are visited in increasing order with
    alternating direction, exactly the 8x8 JPEG order when height == width,
    skipping out-of-bounds cells otherwise.
    """
    if height < 1 or width < 1:
        raise ValueError("zigzag needs positive dimensions")
    order = []
    for d in range(height + width - 1):
        rows = range(max(0, d - width + 1), min(d, height - 1) + 1)
        if d % 2 == 0:
            rows = reversed(rows)
        order.extend((r, d - r) for r in rows)
    return tuple(order)


def zigzag_take(coeffs: np.ndarray, keep: int) -> np.ndarray:
    """First ``keep`` coefficients in zigzag order (clamped to block area)
    of the block held in the last two axes."""
    coeffs = np.asarray(coeffs)
    order = zigzag_indices(coeffs.shape[-2], coeffs.shape[-1])
    keep = min(keep, len(order))
    rows, cols = np.array(order[:keep], dtype=np.intp).reshape(-1, 2).T
    return coeffs[..., rows, cols]


def score_blocks(a, b, cfg: ComparatorConfig) -> np.ndarray:
    """Scores of n counterpart block pairs stacked as (n, height, width)
    arrays, as float64 of shape (n,)."""
    n, height, width = a.shape
    area = height * width
    if cfg.method is Method.ABSDIFF:
        diff = np.subtract(a, b, dtype=np.int16, casting="unsafe")
        # An integer sum over the pixel count equals the float64 mean exactly.
        return np.abs(diff, out=diff).sum(axis=(1, 2)) / area
    if cfg.method is Method.ENTROPY:
        # One tally for both stacks: block i's gray level v lands in bin i*256+v.
        blocks = np.concatenate((a, b)).astype(np.uint8, copy=False).reshape(2 * n, area)
        bins = blocks + 256 * np.arange(2 * n)[:, None]
        h = entropy_bits(np.bincount(bins.ravel(), minlength=512 * n).reshape(2 * n, 256))
        return np.abs(h[:n] - h[n:])
    if cfg.method is Method.XOR:
        a, b = a.astype(np.uint8, copy=False), b.astype(np.uint8, copy=False)
        changed = (a >> cfg.xor_shift) ^ (b >> cfg.xor_shift)
        return np.count_nonzero(changed, axis=(1, 2)) / area
    # The DCT is linear, so the coefficient differences are the DCT of the
    # block difference, and only the basis rows and columns that the kept
    # coefficients occupy are applied. The first ``keep`` zigzag cells of
    # the block are also the first ``keep`` of that rows x cols corner.
    rows, cols = np.max(zigzag_indices(height, width)[: cfg.dct_keep], axis=0) + 1
    diff = np.subtract(a, b, dtype=np.float64)
    coeffs = _dct_matrix(height)[:rows] @ diff @ _dct_matrix(width)[:cols].T
    return np.abs(zigzag_take(coeffs, cfg.dct_keep)).mean(axis=-1)


def score(a, b, cfg: ComparatorConfig) -> float:
    """Score of one block pair under the configured method."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"block shapes differ: {a.shape} vs {b.shape}")
    if a.ndim != 2 or a.size == 0:
        raise ValueError("blocks must be non-empty 2-D arrays")
    return float(score_blocks(a[None], b[None], cfg)[0])


def absdiff_score(a, b) -> float:
    """Mean absolute intensity difference, in [0, 255]."""
    return score(a, b, ComparatorConfig(Method.ABSDIFF, 0.0))


def entropy_score(a, b) -> float:
    """|H(a) - H(b)| in bits, in [0, 8]. Blind to permutations by design."""
    return score(a, b, ComparatorConfig(Method.ENTROPY, 0.0))


def xor_score(a, b, shift: int = DEFAULT_XOR_SHIFT) -> float:
    """Fraction of pixels whose (value >> shift) buckets XOR to nonzero."""
    return score(a, b, ComparatorConfig(Method.XOR, 0.0, xor_shift=shift))


def dct_score(a, b, keep: int = DEFAULT_DCT_KEEP) -> float:
    """Mean absolute difference of the first ``keep`` zigzag DCT coefficients."""
    return score(a, b, ComparatorConfig(Method.DCT, 0.0, dct_keep=keep))


def compare(a, b, cfg: ComparatorConfig) -> CompareResult:
    """Score a block pair; Static iff score < threshold (strict)."""
    s = score(a, b, cfg)
    verdict = Verdict.STATIC if s < cfg.threshold else Verdict.DYNAMIC
    return CompareResult(score=s, verdict=verdict)
