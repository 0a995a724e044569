"""Random streams, scene synthesis, metrics, and the method harness."""

import numpy as np
import pytest

from blockbg import rng
from blockbg.bench import (
    REFERENCE_ORDER,
    Metrics,
    Mover,
    SceneSpec,
    bench_methods,
    box_iou,
    evaluate,
    frames_to_reach,
    gen_scene,
    parse_scene_file,
    reference_scene,
    write_report_csv,
    write_scene_file,
)
from blockbg.comparators import Method, default_config, score
from blockbg.errors import SceneSpecError
from blockbg.foreground import DetectedObject, ForegroundMask

# --- counter-based random streams ---


def test_raw64_is_deterministic_and_tag_separated():
    a = rng.raw64(1234, 5, 100)
    b = rng.raw64(1234, 5, 100)
    c = rng.raw64(1234, 6, 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.dtype == np.uint64
    # streams are counter-based: a prefix is a prefix
    assert np.array_equal(rng.raw64(1234, 5, 10), a[:10])


def test_raw64_validates_count():
    assert len(rng.raw64(0, 0, 0)) == 0
    with pytest.raises(ValueError):
        rng.raw64(0, 0, -1)


def test_uniforms_stay_strictly_inside_unit_interval():
    u = rng.uniforms(7, 3, 10_000)
    assert u.min() > 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_inv_norm_cdf_known_quantiles():
    assert rng.inv_norm_cdf(np.array([0.5]))[0] == 0.0
    assert rng.inv_norm_cdf(np.array([0.975]))[0] == pytest.approx(
        1.959964, abs=1e-5
    )
    assert rng.inv_norm_cdf(np.array([0.025]))[0] == pytest.approx(
        -1.959964, abs=1e-5
    )
    # the tail branches
    assert rng.inv_norm_cdf(np.array([0.01]))[0] == pytest.approx(
        -2.3263479, abs=1e-5
    )
    assert rng.inv_norm_cdf(np.array([0.99]))[0] == pytest.approx(
        2.3263479, abs=1e-5
    )


def test_inv_norm_cdf_is_antisymmetric():
    p = np.array([0.001, 0.01, 0.2, 0.4, 0.49])
    assert rng.inv_norm_cdf(p) == pytest.approx(-rng.inv_norm_cdf(1.0 - p), abs=1e-8)


def test_inv_norm_cdf_rejects_the_endpoints():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            rng.inv_norm_cdf(np.array([bad]))


def test_gaussians_have_standard_moments():
    z = rng.gaussians(99, 1, 50_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02
    assert np.array_equal(z, rng.gaussians(99, 1, 50_000))


# --- scene synthesis ---


def test_empty_scene_is_just_the_background():
    spec = SceneSpec(width=48, height=32, frame_count=4, seed=3)
    scene = gen_scene(spec)
    for frame, truth in zip(scene.frames, scene.truth_masks):
        assert np.array_equal(frame.pixels, scene.true_background.pixels)
        assert not truth.bits.any()


def test_background_avoids_quantization_boundaries():
    scene = gen_scene(SceneSpec(width=64, height=48, frame_count=2, seed=5))
    bg = scene.true_background.pixels
    assert bg.min() >= 72
    assert bg.max() <= 120  # both inside the shift-6 bucket [64, 128)


def test_mover_kinematics_land_where_expected():
    mover = Mover(x=5, y=5, w=10, h=8, intensity=200, dx=2, dy=0)
    scene = gen_scene(
        SceneSpec(width=64, height=32, frame_count=6, movers=(mover,), seed=1)
    )
    t = 3
    expected = np.zeros((32, 64), dtype=np.uint8)
    expected[5:13, 11:21] = 1
    assert np.array_equal(scene.truth_masks[t].bits, expected)
    assert (scene.frames[t].pixels[5:13, 11:21] == 200).all()


def test_mover_clips_at_frame_edges():
    mover = Mover(x=58, y=5, w=10, h=8, intensity=200, dx=4, dy=0)
    scene = gen_scene(
        SceneSpec(width=64, height=32, frame_count=4, movers=(mover,), seed=1)
    )
    assert int(scene.truth_masks[0].bits.sum()) == 6 * 8  # right edge clips
    assert int(scene.truth_masks[1].bits.sum()) == 2 * 8
    assert not scene.truth_masks[2].bits.any()  # fully off-screen


def test_scene_generation_is_deterministic():
    spec = SceneSpec(
        width=48,
        height=32,
        frame_count=5,
        movers=(Mover(0, 4, 6, 4, 230, 2, 1),),
        noise_sigma=5.0,
        seed=77,
    )
    a = gen_scene(spec)
    b = gen_scene(spec)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.pixels, fb.pixels)


def test_noise_perturbs_but_preserves_structure():
    quiet = gen_scene(SceneSpec(width=48, height=32, frame_count=2, seed=9))
    noisy = gen_scene(
        SceneSpec(width=48, height=32, frame_count=2, noise_sigma=5.0, seed=9)
    )
    delta = noisy.frames[0].pixels.astype(int) - quiet.frames[0].pixels.astype(int)
    assert delta.any()
    assert np.abs(delta).max() < 30  # a few sigma, nothing wild


def test_scene_spec_validation():
    with pytest.raises(SceneSpecError):
        SceneSpec(width=8, height=32, frame_count=4)
    with pytest.raises(SceneSpecError):
        SceneSpec(width=32, height=32, frame_count=1)
    with pytest.raises(SceneSpecError):
        SceneSpec(width=32, height=32, frame_count=4, noise_sigma=-1.0)
    with pytest.raises(SceneSpecError):
        SceneSpec(width=32, height=32, frame_count=4, noise_sigma=float("nan"))
    with pytest.raises(SceneSpecError):
        Mover(0, 0, 0, 4, 200, 1, 0)
    with pytest.raises(SceneSpecError):
        Mover(0, 0, 4, 4, 300, 1, 0)


def test_reference_scene_starts_object_free():
    scene = gen_scene(reference_scene(0.0))
    for t in range(3):
        assert not scene.truth_masks[t].bits.any()
    assert scene.truth_masks[3].bits.any()


# --- box IoU and evaluation ---


def test_box_iou_cases():
    assert box_iou((0, 0, 4, 4), (0, 0, 4, 4)) == 1.0
    assert box_iou((0, 0, 4, 4), (10, 10, 4, 4)) == 0.0
    assert box_iou((0, 0, 4, 4), (1, 1, 4, 4)) == pytest.approx(9 / 23)
    assert box_iou((1, 1, 4, 4), (0, 0, 4, 4)) == pytest.approx(9 / 23)


def rect_mask(h, w, y0, y1, x0, x1):
    bits = np.zeros((h, w), dtype=np.uint8)
    bits[y0:y1, x0:x1] = 1
    return ForegroundMask(bits)


def obj_for(x, y, w, h):
    return DetectedObject(
        x=x, y=y, w=w, h=h, area=w * h, centroid_x=x + (w - 1) / 2,
        centroid_y=y + (h - 1) / 2,
    )


def test_evaluate_perfect_prediction():
    mask = rect_mask(16, 16, 2, 6, 3, 9)
    m = evaluate([mask], [[obj_for(3, 2, 6, 4)]], [mask], [[(3, 2, 6, 4)]])
    assert m == Metrics(1.0, 1.0, 1.0, 1.0, 1.0, tp=1, fp=0, fn=0)


def test_evaluate_empty_against_empty_is_perfect():
    empty = rect_mask(16, 16, 0, 0, 0, 0)
    m = evaluate([empty], [[]], [empty], [[]])
    assert m.pixel_precision == 1.0 and m.pixel_recall == 1.0
    assert m.pixel_f1 == 1.0
    assert m.mean_iou == 1.0
    assert m.det_accuracy == 1.0


def test_evaluate_missed_object():
    empty = rect_mask(16, 16, 0, 0, 0, 0)
    truth = rect_mask(16, 16, 2, 6, 3, 9)
    m = evaluate([empty], [[]], [truth], [[(3, 2, 6, 4)]])
    assert m.pixel_precision == 1.0  # nothing predicted, nothing wrong
    assert m.pixel_recall == 0.0
    assert m.pixel_f1 == 0.0
    assert m.det_accuracy == 0.0
    assert (m.tp, m.fp, m.fn) == (0, 0, 1)


def test_evaluate_below_iou_threshold_counts_both_ways():
    pred = rect_mask(16, 16, 0, 4, 0, 4)
    truth = rect_mask(16, 16, 1, 5, 1, 5)
    m = evaluate([pred], [[obj_for(0, 0, 4, 4)]], [truth], [[(1, 1, 4, 4)]])
    # overlap 9 of 23: under the 0.5 gate the pair is both a FP and a FN
    assert (m.tp, m.fp, m.fn) == (0, 1, 1)
    assert m.det_accuracy == 0.0
    assert m.pixel_precision == pytest.approx(9 / 16)
    assert m.pixel_recall == pytest.approx(9 / 16)
    assert m.mean_iou == pytest.approx(9 / 23)


def test_evaluate_matches_greedily_by_descending_iou():
    pred = rect_mask(32, 32, 0, 10, 0, 10)
    truth = rect_mask(32, 32, 0, 10, 0, 10)
    objs = [obj_for(0, 0, 10, 10), obj_for(2, 2, 10, 10)]
    boxes = [(0, 0, 10, 10), (20, 20, 10, 10)]
    m = evaluate([pred], [objs], [truth], [boxes])
    # the exact match pairs first; the offset box cannot steal it
    assert (m.tp, m.fp, m.fn) == (1, 1, 1)


def test_evaluate_mean_iou_skips_empty_frames():
    empty = rect_mask(16, 16, 0, 0, 0, 0)
    pred = rect_mask(16, 16, 0, 4, 0, 4)
    truth = rect_mask(16, 16, 1, 5, 1, 5)
    m = evaluate([empty, pred], [[], []], [empty, truth], [[], []])
    assert m.mean_iou == pytest.approx(9 / 23)


def test_evaluate_rejects_mismatched_lengths():
    empty = rect_mask(16, 16, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        evaluate([empty], [[], []], [empty], [[]])


def test_evaluate_lower_threshold_accepts_the_pair():
    pred = rect_mask(16, 16, 0, 4, 0, 4)
    truth = rect_mask(16, 16, 1, 5, 1, 5)
    m = evaluate(
        [pred], [[obj_for(0, 0, 4, 4)]], [truth], [[(1, 1, 4, 4)]],
        iou_threshold=0.3,
    )
    assert (m.tp, m.fp, m.fn) == (1, 0, 0)
    assert m.det_accuracy == 1.0


# --- settle bookkeeping ---


def test_frames_to_reach_reads_settle_indices():
    status = np.full((4, 4), 1, dtype=np.int32)
    assert frames_to_reach(status, 1.0, 4) == 2
    status[3, 3] = 9
    assert frames_to_reach(status, 1.0, 4) == 10
    assert frames_to_reach(status, 15 / 16, 4) == 2
    status[3, 3] = -1
    assert frames_to_reach(status, 1.0, 4) == -1
    assert frames_to_reach(status, 0.0, 4) == -1


# --- the four-method harness ---


def test_bench_on_a_clean_scene_is_perfect_everywhere():
    rows = bench_methods(reference_scene(0.0))
    assert [r.method for r in rows] == [
        Method.ABSDIFF,
        Method.ENTROPY,
        Method.XOR,
        Method.DCT,
    ]
    for row in rows:
        assert row.coverage == 1.0
        assert row.frames_to_cover == 2
        assert row.metrics.det_accuracy == 1.0
        assert row.metrics.pixel_f1 > 0.95


def test_bench_results_are_reproducible_across_runs_and_jobs():
    spec = reference_scene(0.0)
    assert bench_methods(spec) == bench_methods(spec)
    assert bench_methods(spec) == bench_methods(spec, jobs=4)


def test_report_csv_is_byte_stable(tmp_path):
    rows = bench_methods(reference_scene(0.0))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_report_csv(rows, a)
    write_report_csv(rows, b)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("method,pixel_precision")
    assert len(lines) == 5
    assert lines[1].split(",")[0] == "absdiff"


def test_reference_order_names_all_methods():
    assert set(REFERENCE_ORDER) == set(Method)
    assert REFERENCE_ORDER[0] is Method.DCT


# --- noise separation per comparator ---


def noise_to_content_ratio(method, sigma, trials=20):
    """Mean score(noise pair) / score(object pair) over seeded blocks.

    Lower means the comparator separates sensor noise from a real object
    better at that noise level.
    """
    cfg = default_config(method)
    ratios = []
    for t in range(trials):
        u = rng.uniforms(900 + t, 1, 256)
        block = (60 + 140 * u).astype(np.uint8).reshape(16, 16)
        content = block.copy()
        content[4:12, 4:12] = 220
        z = rng.gaussians(900 + t, 2, 256).reshape(16, 16)
        noisy = np.clip(np.rint(block + sigma * z), 0, 255).astype(np.uint8)
        ratios.append(score(block, noisy, cfg) / score(block, content, cfg))
    return float(np.mean(ratios))


def test_dct_separates_noise_from_objects_best():
    for sigma in (0.5, 5.0):
        dct = noise_to_content_ratio(Method.DCT, sigma)
        absdiff = noise_to_content_ratio(Method.ABSDIFF, sigma)
        assert dct < absdiff, (sigma, dct, absdiff)


def test_xor_cannot_separate_heavy_noise():
    # at sigma=5 most pixels hop a shift-3 bucket, swamping the object signal
    assert noise_to_content_ratio(Method.XOR, 5.0) > 0.5


# --- scene files ---


def test_scene_file_round_trip(tmp_path):
    spec = SceneSpec(
        width=80,
        height=60,
        frame_count=12,
        movers=(Mover(-4, 10, 8, 6, 220, 3, 0), Mover(70, 40, 6, 6, 30, -2, 1)),
        noise_sigma=2.5,
        seed=13,
    )
    path = tmp_path / "scene.txt"
    write_scene_file(spec, path)
    assert parse_scene_file(path) == spec


def test_scene_file_accepts_comments_and_blank_lines(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text(
        "# a scene\n\nwidth=32\nheight = 32 # inline comment\nframes=4\n"
        "mover = 1, 2, 3, 4, 200, 1, 0\n"
    )
    spec = parse_scene_file(path)
    assert (spec.width, spec.height, spec.frame_count) == (32, 32, 4)
    assert spec.movers == (Mover(1, 2, 3, 4, 200, 1, 0),)
    assert spec.noise_sigma == 0.0 and spec.seed == 0


def test_scene_file_errors_name_the_line(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text("width=32\nheight=32\nframes=4\nnonsense\n")
    with pytest.raises(SceneSpecError) as err:
        parse_scene_file(path)
    assert "line 4" in str(err.value)

    path.write_text("width=32\nheight=32\nframes=4\nmover=1,2,3\n")
    with pytest.raises(SceneSpecError) as err:
        parse_scene_file(path)
    assert "line 4" in str(err.value)

    path.write_text("width=32\nheight=32\nframes=4\nmover=1,2,3,4,x,1,0\n")
    with pytest.raises(SceneSpecError) as err:
        parse_scene_file(path)
    assert "line 4" in str(err.value)


def test_scene_file_rejects_unknown_and_repeated_keys(tmp_path):
    path = tmp_path / "scene.txt"
    for text, ln, named in (
        ("width=32\nheight=32\nframes=4\nsigam=5\n", 4, "'sigam'"),
        ("width=32\nheight=32\nframes=4\nsigma=5\nsigma=0\n", 5, "'sigma'"),
        ("width=32\nwidth=32\nheight=32\nframes=4\n", 2, "'width'"),
    ):
        path.write_text(text)
        with pytest.raises(SceneSpecError, match=f"line {ln}: .*{named}"):
            parse_scene_file(path)


def test_scene_file_missing_key(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text("height=32\nframes=4\n")
    with pytest.raises(SceneSpecError) as err:
        parse_scene_file(path)
    assert "width" in str(err.value)
