"""The four block scores and the DCT/zigzag machinery."""

import math
from collections import Counter
from functools import cache

import numpy as np
import pytest

from blockbg.comparators import (
    ComparatorConfig,
    _dct_matrix,
    _kept_basis,
    Method,
    default_config,
    score,
    score_blocks,
    zigzag_indices,
)
from blockbg.blocks import block_view, make_grid
from blockbg.errors import ShapeMismatch

from helpers import frame_of, texture
from oracles import naive_dct2, naive_idct2, zigzag_oracle


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
    for shape in ((0, 2), (2, 0), (4,)):
        with pytest.raises(ValueError, match="non-empty 2-D"):
            score(np.zeros(shape), np.zeros(shape), ABSDIFF)


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
@pytest.mark.parametrize(
    "a, b, message",
    [
        ([[300, 44], [44, 44]], [[44, 44], [44, 44]], "block intensities must lie"),  # 300 would wrap to 44
        ([[-1, 0], [0, 0]], [[0, 0], [0, 0]], "block intensities must lie"),  # -1 would wrap to 255
        ([[0, 0], [0, 0]], np.full((2, 2), 256, dtype=np.int16), "block intensities must lie"),
        (np.full((2, 2), 0.9), np.zeros((2, 2)), "block pixels must be integers"),  # 0.9 would truncate to 0
        ([[True, False], [False, False]], [[0, 0], [0, 0]], "block pixels must be integers"),
    ],
    ids=["above-255", "negative", "int16-256", "float", "bool"],
)
def test_score_rejects_blocks_that_uint8_would_change(method, a, b, message):
    with pytest.raises(ValueError, match=message):
        score(a, b, default_config(method))
    with pytest.raises(ValueError, match=message):
        score(b, a, default_config(method))


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_score_takes_in_range_integer_blocks_of_any_dtype(method):
    a, b = texture(7, 6, 6, lo=0, hi=256), texture(8, 6, 6, lo=0, hi=256)
    cfg = default_config(method)
    assert score(a.astype(np.int64), b.astype(np.int16), cfg) == score(a, b, cfg)
    assert score(a.tolist(), b.tolist(), cfg) == score(a, b, cfg)


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


# --- the DCT basis score_blocks applies ---


def basis_dct(px) -> np.ndarray:
    """2-D DCT of a block through the cached basis, as score_blocks takes it."""
    px = np.asarray(px, dtype=np.float64)
    return _dct_matrix(px.shape[0]) @ px @ _dct_matrix(px.shape[1]).T


def test_dct_constant_block_has_only_dc():
    coeffs = basis_dct(np.full((8, 8), 128, dtype=np.uint8))
    assert abs(coeffs[0, 0] - 1024.0) < 1e-9  # 128 * sqrt(64)
    ac = coeffs.copy()
    ac[0, 0] = 0.0
    assert np.abs(ac).max() <= 1e-9


def test_dct_zero_block():
    assert np.abs(basis_dct(np.zeros((8, 8)))).max() == 0.0


def test_dct_matches_naive_definition():
    for seed in range(6):
        for shape in ((4, 4), (8, 8), (3, 5)):
            px = texture(700 + seed, *shape, lo=0, hi=256)
            got = basis_dct(px)
            want = naive_dct2(px)
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() / scale < 1e-9


def test_dct_parseval():
    for seed in range(10):
        px = texture(720 + seed, 8, 8, lo=0, hi=256).astype(np.float64)
        coeffs = basis_dct(px)
        e_px = (px ** 2).sum()
        e_cf = (coeffs ** 2).sum()
        assert abs(e_px - e_cf) / e_px < 1e-9


def test_dct_inverse_round_trip():
    for seed in range(5):
        px = texture(740 + seed, 8, 8, lo=0, hi=256).astype(np.float64)
        back = naive_idct2(basis_dct(px))
        assert np.abs(back - px).max() < 1e-6


# --- zigzag ---


def test_zigzag_2x2_order():
    assert zigzag_indices(2, 2) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_zigzag_first_entry_is_dc():
    for h, w in ((3, 4), (4, 3), (1, 1), (1, 5), (5, 1)):
        assert zigzag_indices(h, w)[0] == (0, 0)
    for h, w in ((0, 4), (4, 0), (-1, 1)):
        with pytest.raises(ValueError, match="positive dimensions"):
            zigzag_indices(h, w)


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
    corner = cache(zigzag_indices)  # each corner recurs for many (h, w, keep)
    for h in range(1, 41):
        for w in range(1, 41):
            order = zigzag_indices(h, w)
            for keep in range(1, max(h, w)):
                assert corner(min(h, keep), min(w, keep))[:keep] == order[:keep], (h, w, keep)


def test_kept_cells_are_the_blocks_first_zigzag_cells():
    for h, w, keep in ((90, 160, 10), (22, 40, 10), (3, 1, 2), (2, 3, 10), (8, 8, 64), (1, 1, 1)):
        want = np.array(zigzag_indices(h, w)[:keep]).T
        assert np.array_equal(_kept_basis(h, w, keep)[:2], want), (h, w, keep)


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


# --- the integer kernels against the float formulas they replaced ---


def _absdiff_formula(a, b):
    diff = np.subtract(a, b, dtype=np.int16, casting="unsafe")
    return np.abs(diff).sum(axis=(1, 2)) / (a.shape[1] * a.shape[2])


def _dct_formula(a, b, keep):
    """Each block's kept coefficients through the two truncated basis
    products of its float64 pixels; the |coefficient differences| are then
    summed left to right, as score_blocks sums them for a stack of any size."""
    _, h, w = a.shape
    rows, cols = np.array(zigzag_oracle(h, w)[:keep]).T
    basis_h, basis_w = _dct_matrix(h)[: rows.max() + 1], _dct_matrix(w)[: cols.max() + 1]
    ca, cb = ((basis_h @ x.astype(np.float64) @ basis_w.T)[:, rows, cols] for x in (a, b))
    kept = np.abs(ca - cb)
    total = kept[:, 0]
    for j in range(1, kept.shape[1]):
        total = total + kept[:, j]
    return total / kept.shape[1]


def _dct_difference_formula(a, b, keep):
    """The DCT of the exact int16 block difference, whose kept coefficients
    equal the coefficient differences up to rounding (the DCT is linear)."""
    _, h, w = a.shape
    rows, cols = np.array(zigzag_oracle(h, w)[:keep]).T
    diff = np.subtract(a, b, dtype=np.int16).astype(np.float64)
    coeffs = _dct_matrix(h)[: rows.max() + 1] @ diff @ _dct_matrix(w)[: cols.max() + 1].T
    return np.abs(coeffs[:, rows, cols]).mean(axis=-1)


def _random_stacks(seed, count):
    """(a, b, keep) stacks: identical, +-6 noise, only 0 and 255, unrelated;
    h, w and n in 1-40, keep from 1 to h * w + 5, some as int64."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, h, w = (int(x) for x in rng.integers(1, 41, 3))
        a = rng.integers(0, 256, (n, h, w)).astype(np.uint8)
        kind = i % 4
        if kind == 0:
            b = a.copy()
        elif kind == 1:
            b = np.clip(a + rng.integers(-6, 7, a.shape), 0, 255).astype(np.uint8)
        elif kind == 2:
            a, b = (rng.integers(0, 2, (2, n, h, w)) * 255).astype(np.uint8)
        else:
            b = rng.integers(0, 256, a.shape).astype(np.uint8)
        if i % 5 == 4:
            a, b = a.astype(np.int64), b.astype(np.int64)
        yield a, b, int(rng.integers(1, h * w + 6))


def test_absdiff_kernel_equals_the_int16_formula_bit_for_bit():
    for a, b, _ in _random_stacks(7100, 400):
        assert score_blocks(a, b, ABSDIFF).tobytes() == _absdiff_formula(a, b).tobytes(), a.shape


def test_dct_kernel_equals_the_coefficient_difference_formula_bit_for_bit():
    for a, b, keep in _random_stacks(7200, 400):
        got = score_blocks(a, b, ComparatorConfig(Method.DCT, 0.0, dct_keep=keep))
        assert got.tobytes() == _dct_formula(a, b, keep).tobytes(), (a.shape, keep)


def test_dct_kernel_stays_within_1e_12_of_the_block_difference_formula():
    # Differencing coefficients rounds where differencing pixels is exact;
    # measured worst 4.2e-13 relative to max(1, score), as criterion 5 scales it.
    for a, b, keep in _random_stacks(7200, 400):
        got = score_blocks(a, b, ComparatorConfig(Method.DCT, 0.0, dct_keep=keep))
        want = _dct_difference_formula(a, b, keep)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, want)), (a.shape, keep)


def test_dct_scores_do_not_depend_on_the_stack_they_are_in():
    for a, b, keep in _random_stacks(7300, 60):
        cfg = ComparatorConfig(Method.DCT, 0.0, dct_keep=keep)
        alone = np.concatenate([score_blocks(a[i : i + 1], b[i : i + 1], cfg) for i in range(len(a))])
        assert score_blocks(a, b, cfg).tobytes() == alone.tobytes(), (a.shape, keep)


def test_absdiff_of_a_block_past_the_uint32_range_is_exact():
    # 255 * 4096 * 4200 > 2**32, so a uint32 block sum would wrap; so would
    # 255 * 16,843,010, the first pixel count whose sum can pass 2**32 - 1.
    for shape in ((1, 4096, 4200), (1, 2, 8_421_505)):
        a = np.full(shape, 255, dtype=np.uint8)
        assert score_blocks(a, np.zeros_like(a), ABSDIFF).tolist() == [255.0], shape
