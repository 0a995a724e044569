"""Release gate: one test per shipping criterion, at its stated tolerance.

Each test prints a single summary line so a full run reads as a
checklist. The brute-force references come from ``oracles.py``: the
gate must not share code paths with the implementation it is checking.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from blockbg import rng
from blockbg.background import build_srbi, coverage
from blockbg.bench import (
    REFERENCE_ACCURACY,
    REFERENCE_ORDER,
    Mover,
    SceneSpec,
    bench_methods,
    gen_scene,
    write_scene_file,
)
from blockbg.blocks import entropy_of
from blockbg.cli import main
from blockbg.comparators import ComparatorConfig, Method, _dct_matrix, default_config, score, score_blocks
from blockbg.foreground import (
    ForegroundMask,
    connected_components,
    median_filter_mask,
)
from blockbg.imaging import save_frame, Frame
from blockbg.pipeline import PipelineParams, resolve_grid, run_detection

from helpers import frames_to_reach, reference_scene
from oracles import flood_components, naive_dct2, naive_idct2, naive_median, summarize, zigzag_oracle


@pytest.fixture(scope="module")
def noisy_rows():
    """Four-method results on the sigma=5 scene, shared by two criteria."""
    return bench_methods(reference_scene(5.0))


def test_criterion_01_reference_accuracies_are_an_ordering_statement():
    # The recorded per-method accuracies (0.82/0.89/0.93/0.96) come from an
    # external evaluation whose footage, truth, and metric are not
    # available, so they are carried as a ranking to mirror, never as
    # numbers to reproduce. The checks below substitute synthetic scenes
    # with exact ground truth.
    assert REFERENCE_ACCURACY == {
        Method.ABSDIFF: 0.82,
        Method.ENTROPY: 0.89,
        Method.XOR: 0.93,
        Method.DCT: 0.96,
    }
    by_accuracy = tuple(
        sorted(REFERENCE_ACCURACY, key=REFERENCE_ACCURACY.get, reverse=True)
    )
    assert by_accuracy == REFERENCE_ORDER
    print(
        "criterion 1: PASS - reference accuracies recorded as an ordering "
        "statement only; synthetic-oracle checks stand in for them"
    )


def test_criterion_02_clean_scene_every_method_is_perfect():
    start = time.perf_counter()
    rows = bench_methods(reference_scene(0.0))
    elapsed = time.perf_counter() - start
    for row in rows:
        assert row.coverage == 1.0, row.method
        assert row.frames_to_cover <= 10, (row.method, row.frames_to_cover)
        assert row.metrics.det_accuracy == 1.0, (row.method, row.metrics)
    assert elapsed < 5.0, elapsed
    print(
        f"criterion 2: PASS - all four methods: coverage 1.0 within "
        f"{max(r.frames_to_cover for r in rows)} frames, detection accuracy "
        f"1.0, {elapsed:.2f}s < 5s for the whole sweep"
    )


def test_criterion_03_noisy_scene_dct_and_xor_cover_fast_with_high_f1(noisy_rows):
    spec = reference_scene(5.0)
    scene = gen_scene(spec)
    grid = resolve_grid(scene.frames, PipelineParams())
    details = []
    for method in (Method.DCT, Method.XOR):
        model = build_srbi(scene.frames, grid, default_config(method))
        assert coverage(model) >= 0.95, (method, coverage(model))
        reach = frames_to_reach(model.cell_status, 0.95, grid.g)
        assert 0 < reach <= 30, (method, reach)
        row = next(r for r in noisy_rows if r.method is method)
        assert row.metrics.pixel_f1 >= 0.85, (method, row.metrics.pixel_f1)
        details.append(f"{method.value}: 95% cover in {reach} frames, "
                       f"F1 {row.metrics.pixel_f1:.4f}")
    print(f"criterion 3: PASS - {'; '.join(details)}")


def test_criterion_04_noisy_scene_accuracy_ordering_holds(noisy_rows):
    acc = {row.method: row.metrics.det_accuracy for row in noisy_rows}
    assert acc[Method.DCT] >= acc[Method.XOR] >= acc[Method.ENTROPY] >= acc[
        Method.ABSDIFF
    ], acc
    print(
        "criterion 4: PASS - sigma=5 detection accuracy "
        f"dct {acc[Method.DCT]:.4f} >= xor {acc[Method.XOR]:.4f} >= "
        f"entropy {acc[Method.ENTROPY]:.4f} >= absdiff {acc[Method.ABSDIFF]:.4f}"
    )


def test_criterion_05_dct_matches_the_four_sum_definition():
    # The DCT that model builds run: score_blocks applies the _dct_matrix
    # basis and averages |coefficient difference| over the first keep
    # zigzag cells. keep = 5 ends mid-diagonal, so a transposed or
    # misordered cell set scores differently.
    orders = {4: zigzag_oracle(4, 4), 8: zigzag_oracle(8, 8)}
    worst_rel = 0.0
    worst_parseval = 0.0
    worst_round = 0.0
    worst_score = 0.0
    for i in range(1000):
        size = 4 if i % 2 == 0 else 8
        block, other = (
            (rng.uniforms(500 + i, tag, size * size) * 256).astype(np.uint8).reshape(size, size) for tag in (1, 2)
        )
        x = block.astype(np.float64)
        want = naive_dct2(x)
        basis = _dct_matrix(size)
        got = basis @ x @ basis.T
        rel = np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-9, (i, rel)
        energy = float(np.sum(x * x))
        parseval = abs(float(np.sum(got * got)) - energy) / energy
        worst_parseval = max(worst_parseval, parseval)
        assert parseval <= 1e-9, (i, parseval)
        back = naive_idct2(got)
        round_err = float(np.max(np.abs(back - x)))
        worst_round = max(worst_round, round_err)
        assert round_err <= 1e-6, (i, round_err)
        delta = want - naive_dct2(other)
        for keep in (1, 5, 10, size * size):
            cfg = ComparatorConfig(Method.DCT, 0.0, dct_keep=keep)
            scored = float(score_blocks(block[None], other[None], cfg)[0])
            defined = float(np.mean([abs(delta[r, c]) for r, c in orders[size][:keep]]))
            score_rel = abs(scored - defined) / max(1.0, defined)
            worst_score = max(worst_score, score_rel)
            assert score_rel <= 1e-9, (i, keep, scored, defined)
    print(
        f"criterion 5: PASS - 1000 blocks: max rel err {worst_rel:.2e} "
        f"(<= 1e-9), Parseval {worst_parseval:.2e} (<= 1e-9), round-trip "
        f"{worst_round:.2e} (<= 1e-6), score_blocks at keep 1/5/10/n^2 "
        f"{worst_score:.2e} (<= 1e-9)"
    )


def test_criterion_06_entropy_hits_exact_endpoints():
    constant = np.full((16, 16), 137, dtype=np.uint8)
    assert entropy_of(constant) == 0.0

    halves = np.zeros((16, 16), dtype=np.uint8)
    halves[8:] = 255
    assert abs(entropy_of(halves) - 1.0) <= 1e-12

    uniform = np.arange(256, dtype=np.uint8).reshape(16, 16)
    assert abs(entropy_of(uniform) - 8.0) <= 1e-12
    print(
        "criterion 6: PASS - entropy exactly 0 on constant, 1.0 +- 1e-12 on "
        "two equiprobable levels, 8.0 +- 1e-12 on a 256-level uniform"
    )


def test_criterion_07_mask_operators_match_brute_force_oracles():
    densities = (0.2, 0.35, 0.5)
    windows = (3, 5)
    for i in range(200):
        gen = np.random.default_rng(3000 + i)
        bits = (gen.random((64, 64)) < densities[i % 3]).astype(np.uint8)
        mask = ForegroundMask(bits)
        window = windows[i % 2]
        assert np.array_equal(
            median_filter_mask(mask, window).bits, naive_median(bits, window)
        ), (i, window)
        objs = connected_components(mask)
        got = sorted(
            (o.x, o.y, o.w, o.h, o.area, o.centroid_x, o.centroid_y) for o in objs
        )
        assert got == sorted(summarize(px) for px in flood_components(bits)), i
    print(
        "criterion 7: PASS - 200 seeded 64x64 masks: median filter bit-exact "
        "vs a double-loop oracle, components identical to flood fill"
    )


def _tree_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def test_criterion_08_cli_outputs_are_byte_deterministic(tmp_path):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    gen = np.random.default_rng(81)
    base = gen.integers(60, 200, size=(32, 48), dtype=np.int64).astype(np.uint8)
    for t in range(8):
        px = base.copy()
        if t >= 2:
            x = 2 + 3 * (t - 2)
            px[8:14, x : x + 10] = 220
        save_frame(Frame(px), frames_dir / f"{t:06d}.pgm")
    scene_path = tmp_path / "scene.txt"
    write_scene_file(
        SceneSpec(
            width=32,
            height=32,
            frame_count=8,
            movers=(Mover(-8, 9, 6, 3, 220, 2, 0),),
            noise_sigma=5.0,
            seed=7,
        ),
        scene_path,
    )

    def run_all(tag: str, jobs: str) -> dict[str, bytes]:
        root = tmp_path / f"run-{tag}"
        model_dir = root / "model"
        detect_dir = root / "detect"
        bench_dir = root / "bench"
        model_dir.mkdir(parents=True)
        bench_dir.mkdir()
        assert main([
            "model", "--input", str(frames_dir), "--out",
            str(model_dir / "model.pgm"), "--grid", "8",
        ]) == 0
        assert main([
            "detect", "--input", str(frames_dir), "--model-frames", "2",
            "--method", "absdiff", "--grid", "8",
            "--out-dir", str(detect_dir),
        ]) == 0
        assert main([
            "bench", "--scene", str(scene_path), "--out",
            str(bench_dir / "report.csv"), "--grid", "8", "--jobs", jobs,
        ]) == 0
        merged = {}
        for sub in (model_dir, detect_dir, bench_dir):
            for name, blob in _tree_bytes(sub).items():
                merged[f"{sub.name}/{name}"] = blob
        return merged

    trees = {
        (jobs, attempt): run_all(f"j{jobs}-{attempt}", jobs)
        for jobs in ("1", "4")
        for attempt in ("a", "b")
    }
    assert trees[("1", "a")] == trees[("1", "b")]
    assert trees[("4", "a")] == trees[("4", "b")]
    assert trees[("1", "a")] == trees[("4", "a")]
    n = len(trees[("1", "a")])
    print(
        f"criterion 8: PASS - model/detect/bench outputs ({n} files) "
        "byte-identical across reruns and across bench --jobs 1 vs 4"
    )


def test_criterion_09_comparator_symmetry_and_identity():
    exact = (Method.ABSDIFF, Method.ENTROPY, Method.XOR)
    configs = {m: default_config(m) for m in Method}
    sizes = (4, 8, 16)
    worst_dct = 0.0
    for i in range(1000):
        size = sizes[i % 3]
        u = rng.uniforms(700 + i, 1, 2 * size * size)
        pair = (u * 256).astype(np.uint8).reshape(2, size, size)
        a, b = pair[0], pair[1]
        for m in exact:
            cfg = configs[m]
            assert score(a, b, cfg) == score(b, a, cfg), (i, m)
            assert score(a, a, cfg) == 0.0, (i, m)
        cfg = configs[Method.DCT]
        sym = abs(score(a, b, cfg) - score(b, a, cfg))
        ident = abs(score(a, a, cfg))
        worst_dct = max(worst_dct, sym, ident)
        assert sym <= 1e-12, (i, sym)
        assert ident <= 1e-12, (i, ident)
    print(
        "criterion 9: PASS - 1000 block pairs: symmetry and zero identity "
        f"exact for absdiff/entropy/xor, <= 1e-12 for dct (worst "
        f"{worst_dct:.2e})"
    )


def test_criterion_10_hot_path_meets_the_time_budget():
    spec = SceneSpec(
        width=320,
        height=240,
        frame_count=60,
        movers=(Mover(-16, 100, 12, 8, 220, 2, 0),),
        noise_sigma=0.0,
        seed=42,
    )
    scene = gen_scene(spec)  # synthesis happens outside the timed window
    params = PipelineParams()
    cfg = default_config(Method.DCT)
    start = time.perf_counter()
    grid = resolve_grid(scene.frames, params)
    model = build_srbi(scene.frames, grid, cfg)
    results = run_detection(model, scene.frames, params)
    elapsed = time.perf_counter() - start
    assert len(results) == 60
    assert elapsed < 2.0, elapsed
    print(
        f"criterion 10: PASS - model + detect on 60 frames of 320x240 in "
        f"{elapsed:.3f}s (< 2s, single-threaded)"
    )
