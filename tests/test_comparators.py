"""The four block scores, the DCT/zigzag machinery, and the verdict rule."""

import math
from collections import Counter

import numpy as np
import pytest

from blockbg.comparators import (
    ComparatorConfig,
    Method,
    Verdict,
    absdiff_score,
    compare,
    dct2,
    dct_score,
    default_config,
    entropy_score,
    score_blocks,
    xor_score,
    zigzag_indices,
    zigzag_take,
)
from blockbg.blocks import block_view, extract_block, make_grid
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


# --- absdiff ---


def test_absdiff_identical_blocks():
    b = texture(0, 8, 8)
    assert absdiff_score(b, b) == 0.0


def test_absdiff_maximal_difference():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.full((4, 4), 255, dtype=np.uint8)
    assert absdiff_score(a, b) == 255.0


def test_absdiff_hand_example():
    a = np.array([[0, 10], [20, 30]], dtype=np.uint8)
    b = np.array([[5, 10], [20, 26]], dtype=np.uint8)
    assert absdiff_score(a, b) == 2.25  # (5 + 0 + 0 + 4) / 4


def test_absdiff_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        absdiff_score(np.zeros((2, 2)), np.zeros((2, 3)))


# --- entropy ---


def test_entropy_score_identical_blocks():
    b = texture(1, 8, 8)
    assert entropy_score(b, b) == 0.0


def test_entropy_score_constant_vs_two_level():
    a = np.full((4, 4), 7, dtype=np.uint8)
    b = np.array([[0, 255]] * 4 + [[255, 0]] * 4, dtype=np.uint8).reshape(4, 4)
    assert abs(entropy_score(a, b) - 1.0) < 1e-12


def test_entropy_score_is_blind_to_permutations():
    rng = np.random.default_rng(2)
    a = texture(3, 8, 8, lo=0, hi=256)
    shuffled = a.ravel().copy()
    rng.shuffle(shuffled)
    b = shuffled.reshape(8, 8)
    assert not np.array_equal(a, b)
    assert entropy_score(a, b) == 0.0


# --- xor ---


def test_xor_identical_blocks_any_shift():
    b = texture(4, 8, 8)
    for q in range(8):
        assert xor_score(b, b, q) == 0.0


def test_xor_opposite_extremes():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.full((4, 4), 255, dtype=np.uint8)
    assert xor_score(a, b, 3) == 1.0  # 0 vs 31 after the shift


def test_xor_same_bucket_scores_zero():
    a = np.full((4, 4), 100, dtype=np.uint8)
    b = np.full((4, 4), 103, dtype=np.uint8)
    assert xor_score(a, b, 3) == 0.0  # both quantize to 12


def test_xor_partial_change_fraction():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = a.copy()
    b[0, :] = 255
    assert xor_score(a, b, 3) == 0.25


def test_xor_shift_out_of_range():
    b = texture(5, 4, 4)
    with pytest.raises(ValueError):
        xor_score(b, b, 8)
    with pytest.raises(ValueError):
        xor_score(b, b, -1)


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
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert list(zigzag_take(m, 4)) == [1.0, 2.0, 3.0, 4.0]


def test_zigzag_first_entry_is_dc():
    m = np.arange(12, dtype=np.float64).reshape(3, 4)
    assert list(zigzag_take(m, 1)) == [0.0]


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


def test_zigzag_take_clamps_to_block_area():
    m = np.ones((2, 2))
    assert len(zigzag_take(m, 10)) == 4


# --- dct_score / compare ---


def test_dct_score_identical_blocks():
    b = texture(6, 8, 8)
    assert dct_score(b, b) == 0.0


def test_dct_score_constant_blocks():
    a = np.full((8, 8), 100, dtype=np.uint8)
    b = np.full((8, 8), 110, dtype=np.uint8)
    # only the DC coefficient differs: |100-110| * 8 spread over K=10
    assert abs(dct_score(a, b, 10) - 8.0) < 1e-9


def test_dct_score_matches_composed_oracles():
    for seed in range(4):
        a = texture(760 + seed, 8, 8, lo=0, hi=256)
        b = texture(780 + seed, 8, 8, lo=0, hi=256)
        fa = [naive_dct2(a)[r, c] for r, c in zigzag_oracle(8, 8)[:10]]
        fb = [naive_dct2(b)[r, c] for r, c in zigzag_oracle(8, 8)[:10]]
        want = float(np.mean(np.abs(np.array(fa) - np.array(fb))))
        assert abs(dct_score(a, b, 10) - want) < 1e-9


def test_dct_score_rejects_bad_keep():
    b = texture(7, 4, 4)
    with pytest.raises(ValueError):
        dct_score(b, b, 0)


def test_compare_identical_blocks_are_static():
    b = texture(8, 8, 8)
    for method in Method:
        result = compare(b, b, default_config(method))
        assert result.score == 0.0
        assert result.verdict is Verdict.STATIC


def test_compare_threshold_boundary_is_dynamic():
    a = np.array([[0, 10], [20, 30]], dtype=np.uint8)
    b = np.array([[5, 10], [20, 26]], dtype=np.uint8)
    cfg = ComparatorConfig(method=Method.ABSDIFF, threshold=2.25)
    result = compare(a, b, cfg)
    assert result.score == 2.25
    assert result.verdict is Verdict.DYNAMIC  # strict score < threshold


def test_compare_dct_constants_under_threshold():
    a = np.full((8, 8), 100, dtype=np.uint8)
    b = np.full((8, 8), 110, dtype=np.uint8)
    cfg = ComparatorConfig(method=Method.DCT, threshold=10.0)
    result = compare(a, b, cfg)
    assert abs(result.score - 8.0) < 1e-9
    assert result.verdict is Verdict.STATIC


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
        Method.ABSDIFF: absdiff_score(a, b),
        Method.ENTROPY: entropy_score(a, b),
        Method.XOR: xor_score(a, b, 3),
        Method.DCT: dct_score(a, b, 10),
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
                extract_block(fa, grid, row, col), extract_block(fb, grid, row, col), cfg
            )
            if exact:
                assert value == want, (seed, row, col)
            else:
                assert abs(value - want) <= 1e-12, (seed, row, col, value - want)
