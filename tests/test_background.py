"""SRBI construction: settling, budgets, backfill, update, persistence."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import blockbg.background
from blockbg.background import (
    CELL_BACKFILLED,
    CELL_UNSETTLED,
    DEFAULT_MAX_FRAMES,
    backfill,
    build_srbi,
    coverage,
    load_model,
    save_model,
    update_srbi,
)
from blockbg.bench import Mover, SceneSpec, gen_scene
from blockbg.blocks import block_view, make_grid
from blockbg.comparators import ComparatorConfig, Method, default_config, score
from blockbg.errors import InconsistentSequence, PnmError, SequenceTooShort

from helpers import FIXED, frame_of, texture

ABSDIFF = default_config(Method.ABSDIFF)


def flicker_frames(count=10):
    """Static texture except cell (1, 2) of a 4x4 grid, which toggles 0/255."""
    base = texture(7, 16, 16)
    frames = []
    for t in range(count):
        px = base.copy()
        px[4:8, 8:12] = 0 if t % 2 == 0 else 255
        frames.append(frame_of(px))
    return frames


def crossing_scene():
    """A 2x3 rectangle sweeping left to right, 3 px per frame, no noise.

    The stride exceeds the width, so the footprint inside any one block
    changes every frame and the touched blocks stay dynamic until the
    rectangle has passed.
    """
    spec = SceneSpec(
        width=32,
        height=32,
        frame_count=25,
        movers=(Mover(0, 9, 2, 3, 220, 3, 0),),
        noise_sigma=0.0,
        seed=11,
    )
    return gen_scene(spec)


# --- settling on static input ---


def test_static_pair_settles_every_cell():
    base = texture(3, 32, 32)
    grid = make_grid(32, 32, 8)
    model = build_srbi([frame_of(base), frame_of(base)], grid, ABSDIFF)
    assert coverage(model) == 1.0
    assert (model.cell_status == 1).all()
    assert np.array_equal(model.pixels, base)
    assert model.built_from == (0, 2)


def test_static_sequence_stops_after_first_pair():
    base = texture(4, 16, 16)
    grid = make_grid(16, 16, 4)
    # generator input is fine; only two frames should be consumed
    model = build_srbi(iter([frame_of(base)] * 10), grid, ABSDIFF)
    assert model.built_from == (0, 2)
    assert coverage(model) == 1.0


def test_commit_takes_pixels_from_the_later_frame():
    a = texture(5, 16, 16, lo=60, hi=200)
    b = (a + 2).astype(np.uint8)  # mean abs diff 2, below the 6.0 threshold
    grid = make_grid(16, 16, 4)
    model = build_srbi([frame_of(a), frame_of(b)], grid, ABSDIFF)
    assert coverage(model) == 1.0
    assert np.array_equal(model.pixels, b)
    assert not np.array_equal(model.pixels, a)


def test_grid_crops_right_and_bottom():
    base = texture(6, 21, 19)  # 19x21 frame, g=4 -> 16x20 cropped extent
    grid = make_grid(19, 21, 4)
    model = build_srbi([frame_of(base), frame_of(base)], grid, ABSDIFF)
    assert model.pixels.shape == (20, 16)
    assert np.array_equal(model.pixels, base[:20, :16])


# --- cells that never settle ---


def test_flickering_cell_stays_unsettled():
    frames = flicker_frames()
    grid = make_grid(16, 16, 4)
    model = build_srbi(frames, grid, ABSDIFF)
    assert coverage(model) == 15 / 16
    assert model.cell_status[1, 2] == CELL_UNSETTLED
    for r in range(4):
        for c in range(4):
            if (r, c) != (1, 2):
                assert model.cell_status[r, c] == 1
    # the whole sequence was consumed looking for agreement
    assert model.built_from == (0, 10)


def test_frame_budget_is_respected():
    frames = flicker_frames()
    grid = make_grid(16, 16, 4)
    model = build_srbi(frames, grid, ABSDIFF, max_frames=5)
    assert model.built_from == (0, 5)
    assert coverage(model) == 15 / 16  # partial model is a normal return
    with pytest.raises(ValueError):
        build_srbi(frames, grid, ABSDIFF, max_frames=1)


# --- moving object scenes ---


def test_crossing_mover_background_recovered_exactly():
    scene = crossing_scene()
    grid = make_grid(32, 32, 8)
    truth = scene.true_background.pixels
    for method in (Method.ABSDIFF, Method.DCT):
        model = build_srbi(scene.frames, grid, default_config(method))
        assert coverage(model) == 1.0
        assert np.array_equal(model.pixels, truth)
        # cells on the travel row settle only after the rectangle passes
        late = {
            (r, c): int(model.cell_status[r, c])
            for r in range(8)
            for c in range(8)
            if model.cell_status[r, c] != 1
        }
        assert late == {(2, 0): 3, (2, 1): 4}
        assert model.built_from == (0, 5)


def test_offscreen_entry_recovered_by_every_method():
    # the first two frames are object-free, so every method settles at once
    spec = SceneSpec(
        width=32,
        height=32,
        frame_count=25,
        movers=(Mover(-8, 9, 6, 3, 220, 2, 0),),
        noise_sigma=0.0,
        seed=11,
    )
    scene = gen_scene(spec)
    grid = make_grid(32, 32, 8)
    for method in Method:
        model = build_srbi(scene.frames, grid, default_config(method))
        assert coverage(model) == 1.0
        assert np.array_equal(model.pixels, scene.true_background.pixels)
        assert (model.cell_status == 1).all()


def settle_cell_by_cell(frames, grid, cfg, max_frames=DEFAULT_MAX_FRAMES):
    """Reference build: visit every unsettled cell of every frame pair
    among the first ``max_frames`` frames."""
    g, bh, bw = grid.g, grid.block_height, grid.block_width
    status = np.full((g, g), CELL_UNSETTLED)
    pixels = np.zeros((grid.cropped_height, grid.cropped_width), dtype=np.uint8)
    frames = frames[:max_frames]
    consumed = 2
    for t in range(len(frames) - 1):
        pending = [(r, c) for r in range(g) for c in range(g) if status[r, c] == CELL_UNSETTLED]
        if not pending:
            consumed = t + 1
            break
        consumed = t + 2
        for r, c in pending:
            a = block_view(frames[t], grid)[r, c]
            b = block_view(frames[t + 1], grid)[r, c]
            if score(a, b, cfg) < cfg.threshold:
                pixels[r * bh : (r + 1) * bh, c * bw : (c + 1) * bw] = b
                status[r, c] = t + 1
    return pixels, status, (0, consumed)


def test_build_matches_a_cell_by_cell_settle_loop():
    scene = crossing_scene()
    grid = make_grid(32, 32, 8)
    for method in Method:
        cfg = default_config(method)
        model = build_srbi(scene.frames, grid, cfg)
        pixels, status, built_from = settle_cell_by_cell(scene.frames, grid, cfg)
        assert np.array_equal(model.pixels, pixels), method
        assert np.array_equal(model.cell_status, status), method
        assert model.built_from == built_from, method


small_scenes = st.builds(
    SceneSpec,
    width=st.integers(16, 64),
    height=st.integers(16, 64),
    frame_count=st.integers(2, 12),
    movers=st.lists(
        st.builds(
            Mover,
            x=st.integers(-16, 64),
            y=st.integers(-16, 64),
            w=st.integers(1, 24),
            h=st.integers(1, 24),
            intensity=st.integers(0, 255),
            dx=st.integers(-9, 9),
            dy=st.integers(-9, 9),
        ),
        max_size=3,
    ).map(tuple),
    noise_sigma=st.floats(0, 15),
    seed=st.integers(0, 2**16),
)


@FIXED
@given(small_scenes, st.sampled_from((1, 2, 4, 8)), st.integers(2, 12), st.booleans())
def test_build_and_a_rebuild_from_its_scores_match_the_cell_by_cell_reference(spec, g, max_frames, tie):
    frames = gen_scene(spec).frames
    grid = make_grid(spec.width, spec.height, g)
    first, second = block_view(frames[0], grid), block_view(frames[1], grid)
    for method in Method:
        cfg = default_config(method)
        if tie:  # a threshold that some cell of the first pair scores exactly
            pair = sorted(score(first[r, c], second[r, c], cfg) for r, c in np.ndindex(g, g))
            cfg = ComparatorConfig(method, pair[len(pair) // 2])
        want = settle_cell_by_cell(frames, grid, cfg, max_frames)
        scores = []
        model = build_srbi(frames, grid, cfg, max_frames, scores=scores)
        with mock.patch.object(blockbg.background, "score_blocks", side_effect=AssertionError("rescored")):
            again = build_srbi(frames, grid, cfg, max_frames, scores=scores)
        for got in (model, again):
            assert np.array_equal(got.pixels, want[0]), method
            assert np.array_equal(got.cell_status, want[1]), method
            assert got.built_from == want[2], method


def test_pair_scoring_exactly_the_threshold_leaves_its_cell_unsettled():
    first = texture(24, 16, 16)
    second = first.copy()
    second[:8, :8] += 2  # cell (0, 0) scores exactly 2.0; the others score 0
    frames = [frame_of(first), frame_of(second)]
    grid = make_grid(16, 16, 2)
    model = build_srbi(frames, grid, ComparatorConfig(Method.ABSDIFF, 2.0))
    assert model.cell_status.tolist() == [[CELL_UNSETTLED, 1], [1, 1]]
    model = build_srbi(frames, grid, ComparatorConfig(Method.ABSDIFF, np.nextafter(2.0, 3.0)))
    assert model.cell_status.tolist() == [[1, 1], [1, 1]]


def test_settled_blocks_match_their_settle_frame():
    scene = crossing_scene()
    grid = make_grid(32, 32, 8)
    model = build_srbi(scene.frames, grid, ABSDIFF)
    for r in range(8):
        for c in range(8):
            s = int(model.cell_status[r, c])
            assert s >= 0
            assert np.array_equal(
                block_view(model.pixels, grid)[r, c],
                block_view(scene.frames[s], grid)[r, c],
            )


# --- input validation ---


def test_rejects_sequences_too_short_to_compare():
    grid = make_grid(16, 16, 4)
    with pytest.raises(SequenceTooShort):
        build_srbi([frame_of(texture(8, 16, 16))], grid, ABSDIFF)


def test_rejects_dimension_mismatch_mid_sequence():
    grid = make_grid(16, 16, 4)
    frames = [frame_of(texture(9, 16, 16)), frame_of(texture(9, 32, 32))]
    with pytest.raises(InconsistentSequence) as err:
        build_srbi(frames, grid, ABSDIFF)
    assert err.value.index == 1


def test_rejects_frames_smaller_than_grid_extent():
    grid = make_grid(32, 32, 8)
    frames = [frame_of(texture(10, 16, 16))] * 2
    with pytest.raises(InconsistentSequence) as err:
        build_srbi(frames, grid, ABSDIFF)
    assert err.value.index == 0


# --- backfill ---


def test_backfill_fills_only_unsettled_cells():
    model = build_srbi(flicker_frames(), make_grid(16, 16, 4), ABSDIFF)
    fallback = texture(12, 16, 16)
    filled = backfill(model, frame_of(fallback))
    assert coverage(filled) == 1.0
    assert filled.cell_status[1, 2] == CELL_BACKFILLED
    assert np.array_equal(filled.pixels[4:8, 8:12], fallback[4:8, 8:12])
    outside = np.ones((16, 16), dtype=bool)
    outside[4:8, 8:12] = False
    assert np.array_equal(filled.pixels[outside], model.pixels[outside])
    assert filled.built_from == model.built_from
    # the input model is left alone
    assert model.cell_status[1, 2] == CELL_UNSETTLED


def test_backfill_is_a_noop_on_a_complete_model():
    base = texture(13, 16, 16)
    model = build_srbi([frame_of(base)] * 2, make_grid(16, 16, 4), ABSDIFF)
    filled = backfill(model, frame_of(texture(14, 16, 16)))
    assert np.array_equal(filled.pixels, model.pixels)
    assert not (filled.cell_status == CELL_BACKFILLED).any()


def test_backfill_rejects_undersized_fallback():
    base = texture(15, 32, 32)
    model = build_srbi([frame_of(base)] * 2, make_grid(32, 32, 8), ABSDIFF)
    with pytest.raises(InconsistentSequence):
        backfill(model, frame_of(texture(16, 16, 16)))


# --- model refresh ---


def test_update_adopts_a_parked_object():
    base = texture(17, 16, 16)
    old = build_srbi([frame_of(base)] * 3, make_grid(16, 16, 4), ABSDIFF)
    parked = base.copy()
    parked[6:10, 6:10] = 230  # now stationary, so it belongs to the background
    updated = update_srbi(old, [frame_of(parked)] * 3, ABSDIFF)
    assert updated is not old
    assert np.array_equal(updated.pixels, parked)


def test_update_keeps_old_model_when_activity_spikes():
    base = texture(18, 16, 16)
    old = build_srbi([frame_of(base)] * 3, make_grid(16, 16, 4), ABSDIFF)
    churn = [frame_of(base), frame_of(255 - base)]  # every cell disagrees
    updated = update_srbi(old, churn, ABSDIFF)
    assert updated is old


def test_update_from_static_frames_reproduces_the_model():
    base = texture(19, 16, 16)
    old = build_srbi([frame_of(base)] * 3, make_grid(16, 16, 4), ABSDIFF)
    updated = update_srbi(old, [frame_of(base)] * 4, ABSDIFF)
    assert updated is not old
    assert np.array_equal(updated.pixels, old.pixels)
    assert np.array_equal(updated.cell_status, old.cell_status)


# --- persistence ---


def test_save_load_round_trip_with_mixed_statuses(tmp_path):
    model = build_srbi(flicker_frames(), make_grid(16, 16, 4), ABSDIFF)
    filled = backfill(model, frame_of(texture(20, 16, 16)))
    for label, m in (("partial", model), ("filled", filled)):
        path = tmp_path / f"{label}.pgm"
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.grid.g == m.grid.g
        assert np.array_equal(loaded.pixels, m.pixels)
        assert np.array_equal(loaded.cell_status, m.cell_status)
        assert loaded.built_from == m.built_from


def test_save_load_round_trip_with_late_settles(tmp_path):
    scene = crossing_scene()
    model = build_srbi(scene.frames, make_grid(32, 32, 8), ABSDIFF)
    path = tmp_path / "model.pgm"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.cell_status, model.cell_status)
    assert loaded.built_from == (0, 5)


def test_load_rejects_missing_sidecar(tmp_path):
    base = texture(21, 16, 16)
    model = build_srbi([frame_of(base)] * 2, make_grid(16, 16, 4), ABSDIFF)
    path = tmp_path / "model.pgm"
    save_model(model, path)
    (tmp_path / "model.pgm.cells").unlink()
    with pytest.raises(PnmError):
        load_model(path)


def saved_model_path(tmp_path):
    base = texture(22, 16, 16)
    model = build_srbi([frame_of(base)] * 2, make_grid(16, 16, 4), ABSDIFF)
    path = tmp_path / "model.pgm"
    save_model(model, path)
    return path


def test_load_rejects_sidecar_without_a_grid(tmp_path):
    path = saved_model_path(tmp_path)
    sidecar = tmp_path / "model.pgm.cells"
    header = [ln for ln in sidecar.read_text().splitlines() if ln.startswith("#")]
    sidecar.write_text("\n".join(ln for ln in header if not ln.startswith("# grid")) + "\n")
    with pytest.raises(PnmError, match="lacks a grid declaration"):
        load_model(path)


def test_load_rejects_sidecar_with_missing_cell(tmp_path):
    path = saved_model_path(tmp_path)
    sidecar = tmp_path / "model.pgm.cells"
    lines = sidecar.read_text().splitlines()
    sidecar.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(PnmError):
        load_model(path)


def test_load_rejects_unknown_cell_status(tmp_path):
    path = saved_model_path(tmp_path)
    sidecar = tmp_path / "model.pgm.cells"
    sidecar.write_text(sidecar.read_text().replace("settled", "melted"))
    with pytest.raises(PnmError):
        load_model(path)


def test_load_rejects_sidecar_without_grid_line(tmp_path):
    path = saved_model_path(tmp_path)
    sidecar = tmp_path / "model.pgm.cells"
    kept = [l for l in sidecar.read_text().splitlines() if not l.startswith("# grid")]
    sidecar.write_text("\n".join(kept) + "\n")
    with pytest.raises(PnmError):
        load_model(path)


def test_load_rejects_image_not_matching_grid(tmp_path):
    from blockbg.imaging import save_frame

    px = texture(23, 16, 17)  # 17 wide, not a multiple of a 4x4 grid
    path = tmp_path / "model.pgm"
    save_frame(frame_of(px), path)
    lines = ["# srbi cells v1", "# grid 4", "# built_from 0 2"]
    for r in range(4):
        for c in range(4):
            lines.append(f"{r} {c} settled 1")
    (tmp_path / "model.pgm.cells").write_text("\n".join(lines) + "\n")
    with pytest.raises(PnmError):
        load_model(path)

    path = saved_model_path(tmp_path)  # a 16x16 image declared as 17x17 blocks
    sidecar = tmp_path / "model.pgm.cells"
    sidecar.write_text(sidecar.read_text().replace("# grid 4", "# grid 17"))
    with pytest.raises(PnmError, match="not a multiple of the grid"):
        load_model(path)
    # A grid far wider than the image is read line by line all the same:
    # a repeated cell still names its line before the grid is rejected.
    text = sidecar.read_text().replace("# grid 17", "# grid 99999999999")
    sidecar.write_text(text.replace("0 1 settled", "0 0 settled"))
    with pytest.raises(PnmError, match=r"line 5: cell \(0, 0\) listed twice"):
        load_model(path)


@pytest.mark.parametrize(
    "ln, text",
    [
        (4, "0 0 settled -1"),
        (4, "0 0 settled -2"),
        (4, "0 0 settled 99999999999"),
        (20, "4 0 settled 1"),
        (20, "0 0 settled 1"),
        (4, "0 0 settled"),
        (2, "# grid 0"),
        (2, "# grid -4"),
        (3, "# built_from 5 2"),
        (3, "# built_from -1 2"),
        (20, "# grid 2"),
        (20, "# grid 4"),
        (20, "# built_from 0 9"),
        (4, "0 0 settled 1\xff"),
    ],
    ids=[
        "settled-at-minus-one",
        "settled-at-minus-two",
        "settle-index-past-int32",
        "outside-grid",
        "duplicate",
        "three-fields",
        "grid-zero",
        "grid-negative",
        "built-from-backwards",
        "built-from-below-zero",
        "second-grid-smaller",
        "second-grid-same",
        "second-built-from",
        "non-ascii",
    ],
)
def test_load_rejects_bad_cell_line_and_names_it(tmp_path, ln, text):
    path = saved_model_path(tmp_path)
    sidecar = tmp_path / "model.pgm.cells"
    lines = sidecar.read_text().splitlines()
    assert len(lines) == 19  # 3 header lines, then the 4x4 cells
    lines[ln - 1 : ln] = [text]
    sidecar.write_text("\n".join(lines) + "\n")
    with pytest.raises(PnmError, match=f"line {ln}:"):
        load_model(path)
