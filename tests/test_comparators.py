"""The four block scores and the DCT/zigzag machinery."""

import math
from collections import Counter

import numpy as np
import pytest

from blockbg.comparators import (
    ComparatorConfig,
    _kept_cells,
    Method,
    dct2,
    default_config,
    score,
    score_blocks,
    zigzag_indices,
)
from blockbg.blocks import block_view, make_grid
from blockbg.errors import ShapeMismatch

from helpers import frame_of, texture


def naive_dct2(px: np.ndarray) -> np.ndarray:
    """Defining four-nested-sum orthonormal DCT-II, O(N^4). Oracle only."""
    px = np.asarray(px, dtype=np.float64)
    h, w = px.shape
    out = np.zeros((h, w))
    for u in range(h):
        au = math.sqrt((1.0 if u == 0 else 2.0) / h)
        for v in range(w):
            av = math.sqrt((1.0 if v == 0 else 2.0) / w)
            acc = 0.0
            for y in range(h):
                cy = math.cos(math.pi * (2 * y + 1) * u / (2 * h))
                for x in range(w):
                    cx = math.cos(math.pi * (2 * x + 1) * v / (2 * w))
                    acc += px[y, x] * cy * cx
            out[u, v] = au * av * acc
    return out


def naive_idct2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of the orthonormal DCT-II, from the defining sums."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    h, w = coeffs.shape
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for u in range(h):
                au = math.sqrt((1.0 if u == 0 else 2.0) / h)
                cy = math.cos(math.pi * (2 * y + 1) * u / (2 * h))
                for v in range(w):
                    av = math.sqrt((1.0 if v == 0 else 2.0) / w)
                    cx = math.cos(math.pi * (2 * x + 1) * v / (2 * w))
                    acc += au * av * coeffs[u, v] * cy * cx
            out[y, x] = acc
    return out


def zigzag_oracle(height: int, width: int):
    """Enumerate anti-diagonals with alternating direction."""
    cells = [(r, c) for r in range(height) for c in range(width)]
    order = []
    for d in range(height + width - 1):
        diag = [(r, c) for r, c in cells if r + c == d]
        diag.sort()  # ascending row
        if d % 2 == 0:
            diag.reverse()
        order.extend(diag)
    return order


# Scores ignore the threshold; the XOR shift is 3 and the DCT keeps 10.
ABSDIFF = ComparatorConfig(Method.ABSDIFF, 0.0)
ENTROPY = ComparatorConfig(Method.ENTROPY, 0.0)
XOR = ComparatorConfig(Method.XOR, 0.0)
DCT = ComparatorConfig(Method.DCT, 0.0)


# --- absdiff ---


def test_absdiff_identical_blocks():
    b = texture(0, 8, 8)
    assert score(b, b, ABSDIFF) == 0.0


def test_absdiff_maximal_difference():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.full((4, 4), 255, dtype=np.uint8)
    assert score(a, b, ABSDIFF) == 255.0


def test_absdiff_hand_example():
    a = np.array([[0, 10], [20, 30]], dtype=np.uint8)
    b = np.array([[5, 10], [20, 26]], dtype=np.uint8)
    assert score(a, b, ABSDIFF) == 2.25  # (5 + 0 + 0 + 4) / 4


def test_absdiff_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        score(np.zeros((2, 2)), np.zeros((2, 3)), ABSDIFF)


# --- entropy ---


def test_entropy_score_identical_blocks():
    b = texture(1, 8, 8)
    assert score(b, b, ENTROPY) == 0.0


def test_entropy_score_constant_vs_two_level():
    a = np.full((4, 4), 7, dtype=np.uint8)
    b = np.array([[0, 255]] * 4 + [[255, 0]] * 4, dtype=np.uint8).reshape(4, 4)
    assert abs(score(a, b, ENTROPY) - 1.0) < 1e-12


def test_entropy_score_is_blind_to_permutations():
    rng = np.random.default_rng(2)
    a = texture(3, 8, 8, lo=0, hi=256)
    shuffled = a.ravel().copy()
    rng.shuffle(shuffled)
    b = shuffled.reshape(8, 8)
    assert not np.array_equal(a, b)
    assert score(a, b, ENTROPY) == 0.0


# --- xor ---


def test_xor_identical_blocks_any_shift():
    b = texture(4, 8, 8)
    for q in range(8):
        assert score(b, b, ComparatorConfig(Method.XOR, 0.0, xor_shift=q)) == 0.0


def test_xor_opposite_extremes():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.full((4, 4), 255, dtype=np.uint8)
    assert score(a, b, XOR) == 1.0  # 0 vs 31 after the shift


def test_xor_same_bucket_scores_zero():
    a = np.full((4, 4), 100, dtype=np.uint8)
    b = np.full((4, 4), 103, dtype=np.uint8)
    assert score(a, b, XOR) == 0.0  # both quantize to 12


def test_xor_partial_change_fraction():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = a.copy()
    b[0, :] = 255
    assert score(a, b, XOR) == 0.25


def test_xor_shift_out_of_range():
    with pytest.raises(ValueError):
        ComparatorConfig(Method.XOR, 0.0, xor_shift=8)
    with pytest.raises(ValueError):
        ComparatorConfig(Method.XOR, 0.0, xor_shift=-1)


# --- dct2 ---


def test_dct_constant_block_has_only_dc():
    coeffs = dct2(np.full((8, 8), 128, dtype=np.uint8))
    assert abs(coeffs[0, 0] - 1024.0) < 1e-9  # 128 * sqrt(64)
    ac = coeffs.copy()
    ac[0, 0] = 0.0
    assert np.abs(ac).max() <= 1e-9


def test_dct_zero_block():
    assert np.abs(dct2(np.zeros((8, 8)))).max() == 0.0


def test_dct_matches_naive_definition():
    for seed in range(6):
        for shape in ((4, 4), (8, 8), (3, 5)):
            px = texture(700 + seed, *shape, lo=0, hi=256)
            got = dct2(px)
            want = naive_dct2(px)
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() / scale < 1e-9


def test_dct_parseval():
    for seed in range(10):
        px = texture(720 + seed, 8, 8, lo=0, hi=256).astype(np.float64)
        coeffs = dct2(px)
        e_px = (px ** 2).sum()
        e_cf = (coeffs ** 2).sum()
        assert abs(e_px - e_cf) / e_px < 1e-9


def test_dct_inverse_round_trip():
    for seed in range(5):
        px = texture(740 + seed, 8, 8, lo=0, hi=256).astype(np.float64)
        back = naive_idct2(dct2(px))
        assert np.abs(back - px).max() < 1e-6


def test_dct_rejects_non_2d():
    with pytest.raises(ValueError):
        dct2(np.zeros(8))


# --- zigzag ---


def test_zigzag_2x2_order():
    assert zigzag_indices(2, 2) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_zigzag_first_entry_is_dc():
    for h, w in ((3, 4), (4, 3), (1, 1), (1, 5), (5, 1)):
        assert zigzag_indices(h, w)[0] == (0, 0)


def test_zigzag_4x4_first_six_cells():
    assert zigzag_indices(4, 4)[:6] == (
        (0, 0),
        (0, 1),
        (1, 0),
        (2, 0),
        (1, 1),
        (0, 2),
    )


def test_zigzag_matches_enumeration_oracle():
    for h, w in ((4, 4), (8, 8), (3, 5), (5, 3), (1, 7), (6, 1)):
        assert list(zigzag_indices(h, w)) == zigzag_oracle(h, w)


def test_zigzag_full_scan_is_a_bijection():
    for h, w in ((4, 4), (2, 6), (7, 3)):
        order = zigzag_indices(h, w)
        assert len(order) == h * w
        assert len(set(order)) == h * w


def test_zigzag_prefix_lies_in_the_keep_by_keep_corner():
    # The DCT score sorts only this corner; from keep = max(h, w) on it is the whole block.
    for h in range(1, 41):
        for w in range(1, 41):
            order = zigzag_indices(h, w)
            for keep in range(1, max(h, w)):
                assert zigzag_indices(min(h, keep), min(w, keep))[:keep] == order[:keep], (h, w, keep)


def test_kept_cells_are_the_blocks_first_zigzag_cells():
    for h, w, keep in ((90, 160, 10), (22, 40, 10), (3, 1, 2), (2, 3, 10), (8, 8, 64), (1, 1, 1)):
        want = np.array(zigzag_indices(h, w)[:keep]).T
        assert np.array_equal(_kept_cells(h, w, keep), want), (h, w, keep)


def test_dct_keep_past_block_area_scores_every_coefficient():
    a = texture(790, 2, 3, lo=0, hi=256)
    b = texture(791, 2, 3, lo=0, hi=256)
    want = float(np.mean(np.abs(naive_dct2(a) - naive_dct2(b))))
    assert abs(score(a, b, ComparatorConfig(Method.DCT, 0.0, dct_keep=10)) - want) < 1e-9


# --- dct score ---


def test_dct_score_identical_blocks():
    b = texture(6, 8, 8)
    assert score(b, b, DCT) == 0.0


def test_dct_score_constant_blocks():
    a = np.full((8, 8), 100, dtype=np.uint8)
    b = np.full((8, 8), 110, dtype=np.uint8)
    # only the DC coefficient differs: |100-110| * 8 spread over K=10
    assert abs(score(a, b, DCT) - 8.0) < 1e-9


def test_dct_score_matches_composed_oracles():
    for seed in range(4):
        a = texture(760 + seed, 8, 8, lo=0, hi=256)
        b = texture(780 + seed, 8, 8, lo=0, hi=256)
        fa = [naive_dct2(a)[r, c] for r, c in zigzag_oracle(8, 8)[:10]]
        fb = [naive_dct2(b)[r, c] for r, c in zigzag_oracle(8, 8)[:10]]
        want = float(np.mean(np.abs(np.array(fa) - np.array(fb))))
        assert abs(score(a, b, DCT) - want) < 1e-9


def test_dct_score_rejects_bad_keep():
    for keep in (0, -1):
        with pytest.raises(ValueError):
            ComparatorConfig(Method.DCT, 0.0, dct_keep=keep)


def test_compare_identical_blocks_are_static():
    b = texture(8, 8, 8)
    for method in Method:
        cfg = default_config(method)
        assert score(b, b, cfg) == 0.0 < cfg.threshold


def test_compare_dct_constants_under_threshold():
    a = np.full((8, 8), 100, dtype=np.uint8)
    b = np.full((8, 8), 110, dtype=np.uint8)
    cfg = ComparatorConfig(method=Method.DCT, threshold=10.0)
    s = score(a, b, cfg)
    assert abs(s - 8.0) < 1e-9
    assert s < cfg.threshold


# --- config validation ---


def test_config_rejects_negative_threshold():
    with pytest.raises(ValueError):
        ComparatorConfig(method=Method.ABSDIFF, threshold=-0.1)


def test_config_rejects_bad_shift_and_keep():
    with pytest.raises(ValueError):
        ComparatorConfig(method=Method.XOR, threshold=0.5, xor_shift=9)
    with pytest.raises(ValueError):
        ComparatorConfig(method=Method.DCT, threshold=1.0, dct_keep=0)


def test_default_config_accepts_method_names():
    cfg = default_config("xor")
    assert cfg.method is Method.XOR
    assert cfg.threshold == 0.70


# --- algebraic properties across all methods ---


def _all_scores(a, b):
    return {
        Method.ABSDIFF: score(a, b, ABSDIFF),
        Method.ENTROPY: score(a, b, ENTROPY),
        Method.XOR: score(a, b, XOR),
        Method.DCT: score(a, b, DCT),
    }


def test_symmetry_and_identity_on_random_pairs():
    for seed in range(100):
        a = texture(1000 + seed, 8, 8, lo=0, hi=256)
        b = texture(2000 + seed, 8, 8, lo=0, hi=256)
        fwd = _all_scores(a, b)
        rev = _all_scores(b, a)
        for method in (Method.ABSDIFF, Method.ENTROPY, Method.XOR):
            assert fwd[method] == rev[method]
            assert _all_scores(a, a)[method] == 0.0
        assert abs(fwd[Method.DCT] - rev[Method.DCT]) <= 1e-12
        assert _all_scores(a, a)[Method.DCT] == 0.0


def test_score_ranges_on_random_pairs():
    for seed in range(50):
        a = texture(3000 + seed, 8, 8, lo=0, hi=256)
        b = texture(4000 + seed, 8, 8, lo=0, hi=256)
        s = _all_scores(a, b)
        assert 0.0 <= s[Method.ABSDIFF] <= 255.0
        assert 0.0 <= s[Method.ENTROPY] <= 8.0
        assert 0.0 <= s[Method.XOR] <= 1.0
        assert s[Method.DCT] >= 0.0


# --- stacked scoring against per-block oracles ---


def _entropy_oracle(block) -> float:
    n = block.size
    return -sum(c / n * math.log2(c / n) for c in Counter(block.ravel().tolist()).values())


def _score_oracle(a, b, cfg) -> float:
    """One block pair scored from the definitions, with Python arithmetic."""
    a = a.astype(int)
    b = b.astype(int)
    if cfg.method is Method.ABSDIFF:
        return int(np.abs(a - b).sum()) / a.size
    if cfg.method is Method.XOR:
        return int(((a >> cfg.xor_shift) != (b >> cfg.xor_shift)).sum()) / a.size
    if cfg.method is Method.ENTROPY:
        return abs(_entropy_oracle(a) - _entropy_oracle(b))
    order = zigzag_oracle(*a.shape)[: cfg.dct_keep]
    fa, fb = naive_dct2(a), naive_dct2(b)
    return sum(abs(fa[r, c] - fb[r, c]) for r, c in order) / len(order)


@pytest.mark.parametrize(
    "cfg",
    [
        default_config(Method.ABSDIFF),
        default_config(Method.ENTROPY),
        default_config(Method.XOR),
        ComparatorConfig(Method.XOR, 0.7, xor_shift=0),
        default_config(Method.DCT),
        ComparatorConfig(Method.DCT, 6.0, dct_keep=1),
        ComparatorConfig(Method.DCT, 6.0, dct_keep=100),  # clamped to the block area
    ],
    ids=lambda cfg: f"{cfg.method.value}-shift{cfg.xor_shift}-keep{cfg.dct_keep}",
)
def test_stacked_scores_match_per_block_oracles(cfg):
    # 6x8 blocks, so the zigzag and the truncated DCT basis are rectangular
    grid = make_grid(34, 26, 4)
    exact = cfg.method in (Method.ABSDIFF, Method.XOR)
    for seed in range(3):
        a = texture(5000 + seed, 26, 34, lo=0, hi=256)
        b = texture(6000 + seed, 26, 34, lo=0, hi=256)
        b[:12, :16] = a[:12, :16]  # some identical blocks
        pending = np.random.default_rng(seed).random((4, 4)) < 0.6
        fa, fb = frame_of(a), frame_of(b)
        got = score_blocks(block_view(fa, grid)[pending], block_view(fb, grid)[pending], cfg)
        cells = list(zip(*np.nonzero(pending)))
        assert got.shape == (len(cells),)
        for value, (row, col) in zip(got, cells):
            want = _score_oracle(
                block_view(fa, grid)[row, col], block_view(fb, grid)[row, col], cfg
            )
            if exact:
                assert value == want, (seed, row, col)
            else:
                assert abs(value - want) <= 1e-12, (seed, row, col, value - want)
