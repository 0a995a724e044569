"""SRBI construction: settling, budgets, backfill, update, persistence."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import blockbg.background
import blockbg.comparators
from blockbg.background import (
    CELL_BACKFILLED,
    CELL_UNSETTLED,
    BackgroundModel,
    RebuildWindow,
    backfill,
    build_srbi,
    coverage,
    load_model,
    save_model,
    update_srbi,
)
from blockbg.bench import Mover, SceneSpec, gen_scene
from blockbg.blocks import block_view, make_grid
from blockbg.comparators import ComparatorConfig, Method, default_config, score, score_blocks
from blockbg.errors import InconsistentSequence, PnmError, SequenceTooShort, ShapeMismatch

from helpers import FIXED, blocks_scored, frame_of, record_block_stacks, record_score_calls, scored_pairs, texture
from oracles import settle_cell_by_cell

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


def window_of(grid, frames, maxlen=None, build=None, reloads=None):
    """A RebuildWindow over the stream ``frames`` that holds its last
    ``maxlen``; or, given a list ``reloads``, that holds none, reloads each
    frame it needs from ``frames`` and appends its index to ``reloads``."""
    reload = None if reloads is None else lambda k: reloads.append(k) or frames[k]
    window = RebuildWindow(grid, len(frames) if maxlen is None else maxlen, build, reload)
    for frame in frames:
        window.append(frame)
    return window


# Budgets as (k, d) for k * block area + d pixels: one block per kernel
# call, one either side of a block's area, and 2 or 7 blocks, so slices end
# mid-row.
BUDGETS = ((0, 1), (1, -1), (1, 0), (1, 1), (3, -1), (7, 1))


@FIXED
@given(
    small_scenes, st.sampled_from((1, 2, 4, 8)), st.integers(2, 12), st.booleans(),
    st.sampled_from(BUDGETS), st.integers(0, 10), st.integers(2, 12),
)
# A mover 1 px a frame keeps column 0 changing until frame 8, so the build
# settles it at 9, past a cut at 6, and that read has no cell left to compare.
@example(SceneSpec(32, 32, 12, (Mover(0, 0, 8, 8, 255, 1, 0),)), 4, 12, False, (1, 0), 0, 6)
def test_build_and_its_move_to_a_later_window_match_the_cell_by_cell_reference(
    spec, g, max_frames, tie, budget, shift, cut
):
    frames = gen_scene(spec).frames
    grid = make_grid(spec.width, spec.height, g)
    first, second = block_view(frames[0], grid), block_view(frames[1], grid)
    budget_px = budget[0] * grid.block_height * grid.block_width + budget[1]
    shift = min(shift, len(frames) - 2)
    for method in Method:
        cfg = default_config(method)
        if tie:  # a threshold that some cell of the first pair scores exactly
            pair = sorted(score(first[r, c], second[r, c], cfg) for r, c in np.ndindex(g, g))
            cfg = ComparatorConfig(method, pair[len(pair) // 2])
        want = settle_cell_by_cell(frames, grid, cfg, max_frames)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blockbg.comparators, "SCORE_BUDGET_PX", budget_px)
            calls = record_score_calls(mp)
            stacks = record_block_stacks(mp)
            model = build_srbi(frames, grid, cfg, max_frames)
            built = blocks_scored(calls)
            # The build moved to frames[shift:], as many as max_frames allows,
            # reloading each frame it reads.
            held, reloads = min(max_frames, len(frames) - shift), []
            window = window_of(grid, frames[: shift + held], held, model, reloads)
            rebuilt = update_srbi(model, window, cfg)
            moved = blocks_scored(calls) - built
            # A window that ends before the build does reads it cut there; against
            # a model that covers nothing, that read is adopted, so it is seen.
            cut, cut_reloads = min(cut, len(frames)), []
            unread = BackgroundModel(grid, model.pixels, np.full_like(model.cell_status, CELL_UNSETTLED), (0, 0))
            truncated = update_srbi(unread, window_of(grid, frames[:cut], build=model, reloads=cut_reloads), cfg)
        assert np.array_equal(model.pixels, want[0]), method
        assert np.array_equal(model.cell_status, want[1]), method
        assert model.built_from == want[2], method
        assert built == len(scored_pairs(*want[1:])), method
        # No kernel call takes more blocks than the budget holds, or than one when a block exceeds it.
        per_slice = max(1, budget_px // (grid.block_height * grid.block_width))
        assert stacks and max(stacks) <= per_slice, method
        fresh = settle_cell_by_cell(frames[shift:], grid, cfg, max_frames)
        status = np.where(fresh[1] >= 0, fresh[1] + shift, fresh[1])
        built_from = (fresh[2][0] + shift, fresh[2][1] + shift)
        assert np.array_equal(window.build.pixels, fresh[0]), method
        assert np.array_equal(window.build.cell_status, status), method
        assert window.build.built_from == built_from, method
        assert rebuilt is (window.build if coverage(window.build) >= coverage(model) else model), method
        # The move scored only the (pair, cell)s the build had not, and read
        # only the frames of their pairs, each once, in order.
        new_pairs = scored_pairs(status, built_from) - scored_pairs(*want[1:])
        assert moved == len(new_pairs), method
        assert reloads == sorted({k + d for k, _, _ in new_pairs for d in (0, 1)}), method
        head = settle_cell_by_cell(frames[:cut], grid, cfg)
        assert np.array_equal(truncated.pixels, head[0]), method
        assert np.array_equal(truncated.cell_status, head[1]), method
        assert truncated.built_from == head[2], method
        new_pairs = scored_pairs(*head[1:]) - scored_pairs(*want[1:])
        assert cut_reloads == sorted({k + d for k, _, _ in new_pairs for d in (0, 1)}), method


def test_a_build_scores_each_pairs_pending_cells_in_one_call(monkeypatch):
    # At 320x240 and g = 32, a block is 7x10, so the default budget holds 936
    # of them: pair 0's one call summarizes each frame's 1024 cells in two slices.
    spec = SceneSpec(320, 240, 12, movers=(Mover(10, 20, 40, 30, 230, 9, 2), Mover(300, 150, 30, 20, 25, -7, 0)),
                     noise_sigma=5.0, seed=4)
    grid = make_grid(320, 240, 32)
    calls = record_score_calls(monkeypatch)
    stacks = record_block_stacks(monkeypatch)
    firsts = []  # the index in calls of each pair's first call

    def pulled(frames):
        for i, frame in enumerate(frames):
            if i:  # frame i completes pair i - 1
                firsts.append(len(calls))
            yield frame

    frames = gen_scene(spec).frames
    model = build_srbi(pulled(frames), grid, default_config(Method.DCT))
    assert len(firsts) == model.built_from[1] - 1 > 2
    assert stacks[:4] == [936, 88, 936, 88], stacks[:4]
    for k, (i, j) in enumerate(zip(firsts, [*firsts[1:], len(calls)])):
        # Pair k settles its cells at index k + 1; the cells still pending there were scored.
        pending = (model.cell_status == CELL_UNSETTLED) | (model.cell_status > k)
        assert [call.cells for call in calls[i:j]] == [list(zip(*np.nonzero(pending)))], k


def test_a_build_and_its_move_summarize_each_frame_cell_once(monkeypatch):
    # Two movers keep some cells changing past the 6-frame budget, so the
    # build leaves them unsettled, and the move from frame 2 compares them
    # again only from pair 5 on, where frame 5's summary lacks them. A budget
    # of three 8x6 blocks splits each pair's cells into several slices.
    spec = SceneSpec(64, 48, 12, movers=(Mover(0, 8, 12, 10, 230, 3, 0), Mover(60, 30, 10, 8, 20, -2, 1)),
                     noise_sigma=5.0, seed=9)
    frames = gen_scene(spec).frames
    grid, cfg = make_grid(64, 48, 8), default_config(Method.DCT)
    calls = record_score_calls(monkeypatch)
    score_cells, scored = blockbg.background.score_cells, []

    def kept(a, b, rows, cols):
        scored.append((a.blocks[rows, cols], b.blocks[rows, cols], score_cells(a, b, rows, cols)))
        return scored[-1][2]

    monkeypatch.setattr(blockbg.background, "score_cells", kept)
    monkeypatch.setattr(blockbg.comparators, "SCORE_BUDGET_PX", 3 * 48 + 47)
    summarized = record_block_stacks(monkeypatch)  # DCT compares no pixels, so these are summarize's

    def frame_cells(pairs):
        """The (frame, row, col)s whose summaries the (pair, row, col)s compare."""
        return {(k + d, r, c) for k, r, c in pairs for d in (0, 1)}

    model = build_srbi(frames, grid, cfg, 6)
    built = scored_pairs(model.cell_status, model.built_from)
    assert model.built_from == (0, 6) and (model.cell_status == CELL_UNSETTLED).any()
    assert sum(summarized) == len(frame_cells(built)) and blocks_scored(calls) == len(built)
    assert min(summarized) > 0 and max(summarized) == 3, summarized  # no empty stack, none past the budget
    summarized.clear()
    window = window_of(grid, frames[:11], 9, model)
    update_srbi(model, window, cfg)
    moved = scored_pairs(window.build.cell_status, window.build.built_from) - built
    assert window.build.built_from[1] > 6 and any(k == 5 and model.cell_status[r, c] == CELL_UNSETTLED for k, r, c in moved)
    assert sum(summarized) == len(frame_cells(moved))
    assert min(summarized) > 0 and max(summarized) <= 3, summarized
    monkeypatch.undo()
    # Each score is score_blocks' on the same blocks, bit for bit.
    for a, b, got in scored:
        assert got.tobytes() == score_blocks(a, b, cfg).tobytes()


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
    for frames in ([frame_of(texture(8, 16, 16))], []):
        with pytest.raises(SequenceTooShort, match=f"^need at least 2 frames to build, got {len(frames)}$"):
            build_srbi(frames, grid, ABSDIFF)


def test_rejects_dimension_mismatch_mid_sequence():
    grid = make_grid(16, 16, 4)
    frames = [frame_of(texture(9, 16, 16)), frame_of(texture(9, 32, 32))]
    with pytest.raises(InconsistentSequence) as err:
        build_srbi(frames, grid, ABSDIFF)
    assert err.value.index == 1


def test_rejects_frames_smaller_than_grid_extent():
    grid = make_grid(32, 32, 8)
    frames = [frame_of(texture(10, 16, 16))] * 2
    with pytest.raises(ShapeMismatch, match="^frame is 16x16, smaller than the grid extent 32x32$"):
        build_srbi(frames, grid, ABSDIFF)


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
    with pytest.raises(ShapeMismatch, match="^frame is 16x16, smaller than the grid extent 32x32$"):
        backfill(model, frame_of(texture(16, 16, 16)))


# --- model refresh ---


def test_update_adopts_a_parked_object():
    base = texture(17, 16, 16)
    grid = make_grid(16, 16, 4)
    old = build_srbi([frame_of(base)] * 3, grid, ABSDIFF)
    parked = base.copy()
    parked[6:10, 6:10] = 230  # now stationary, so it belongs to the background
    updated = update_srbi(old, window_of(grid, [frame_of(parked)] * 3), ABSDIFF)
    assert updated is not old
    assert np.array_equal(updated.pixels, parked)


def test_update_keeps_old_model_when_activity_spikes():
    base = texture(18, 16, 16)
    grid = make_grid(16, 16, 4)
    old = build_srbi([frame_of(base)] * 3, grid, ABSDIFF)
    churn = [frame_of(base), frame_of(255 - base)]  # every cell disagrees
    updated = update_srbi(old, window_of(grid, churn), ABSDIFF)
    assert updated is old


def test_update_from_static_frames_reproduces_the_model():
    base = texture(19, 16, 16)
    grid = make_grid(16, 16, 4)
    old = build_srbi([frame_of(base)] * 3, grid, ABSDIFF)
    updated = update_srbi(old, window_of(grid, [frame_of(base)] * 4), ABSDIFF)
    assert updated is not old
    assert np.array_equal(updated.pixels, old.pixels)
    assert np.array_equal(updated.cell_status, old.cell_status)


# --- persistence ---


def test_save_load_round_trip_with_mixed_statuses(tmp_path):
    model = build_srbi(flicker_frames(), make_grid(16, 16, 4), ABSDIFF)
    filled = backfill(model, frame_of(texture(20, 16, 16)))
    whole = build_srbi(flicker_frames()[:2], make_grid(16, 16, 1), ABSDIFF)  # one cell
    # The extremes a sidecar may state: an empty range, the largest settle index.
    last = int(np.iinfo(np.int32).max)
    none_read = BackgroundModel(whole.grid, filled.pixels, np.array([[CELL_BACKFILLED]], dtype=np.int32), (3, 3))
    status = np.array([[last, 1], [CELL_BACKFILLED, CELL_UNSETTLED]], dtype=np.int32)
    late = BackgroundModel(make_grid(16, 16, 2), filled.pixels, status, (0, last + 1))
    for label, m in (("partial", model), ("filled", filled), ("whole", whole), ("none-read", none_read), ("late", late)):
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


def test_a_failed_sidecar_write_leaves_no_old_sidecar_beside_new_pixels(tmp_path):
    grid = make_grid(16, 16, 4)
    path = tmp_path / "model.pgm"
    save_model(build_srbi([frame_of(texture(23, 16, 16))] * 2, grid, ABSDIFF), path)
    newer = build_srbi([frame_of(texture(24, 16, 16))] * 2, grid, ABSDIFF)
    with mock.patch.object(type(path), "write_text", side_effect=OSError("disk full")):
        with pytest.raises(OSError, match="disk full"):
            save_model(newer, path)
    with pytest.raises(PnmError, match="model sidecar missing"):
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
    # A grid far wider than the image is rejected on its own line 2, before
    # any cell is read, so the repeated cell below it is never reached.
    text = sidecar.read_text().replace("# grid 17", "# grid 99999999999")
    sidecar.write_text(text.replace("0 1 settled", "0 0 settled"))
    with pytest.raises(PnmError, match=r"line 2: .*not a multiple of the grid"):
        load_model(path)


@pytest.mark.parametrize(
    "ln, text",
    [
        (4, "0 0 settled -1"),
        (4, "0 0 settled -2"),
        (4, "0 0 settled 99999999999"),
        (4, "0 0 settled 0"),
        (4, "0 0 settled 2"),
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
        (4, "0 0 settled +1"),
        (4, "+0 0 settled 1"),
        (4, "0 0 settled 0_1"),
        (2, "# grid +4"),
        (2, "# grid 0_4"),
        (3, "# built_from 0 +2"),
    ],
    ids=[
        "settled-at-minus-one",
        "settled-at-minus-two",
        "settle-index-past-int32",
        "settled-at-built-from-start",
        "settled-at-built-from-end",
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
        "settle-plus-sign",
        "row-plus-sign",
        "settle-underscore",
        "grid-plus-sign",
        "grid-underscore",
        "built-from-plus-sign",
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


def test_load_takes_only_settle_indices_a_build_over_built_from_writes(tmp_path):
    # A cell settles at the later frame of a pair inside built_from, and
    # cell_status is int32; a read of a build relies on both. (Settle indices
    # at the ends of built_from (0, 2) are cases of the table above.)
    path = saved_model_path(tmp_path)
    sidecar = tmp_path / "model.pgm.cells"
    text = sidecar.read_text()
    assert "# built_from 0 2\n0 0 settled 1\n" in text
    last = int(np.iinfo(np.int32).max)
    for (start, end), settle, ok in [
        ((3, 9), 4, True),
        ((3, 9), 8, True),
        ((3, 9), 3, False),
        ((3, 9), 9, False),
        ((0, last + 5), last, True),
        ((0, last + 5), last + 1, False),
    ]:
        cells = text.replace("# built_from 0 2", f"# built_from {start} {end}").replace("settled 1", f"settled {start + 1}")
        sidecar.write_text(cells.replace(f"0 0 settled {start + 1}", f"0 0 settled {settle}", 1))
        if ok:
            assert load_model(path).cell_status[0, 0] == settle
        else:
            with pytest.raises(PnmError, match=f"^model sidecar line 4: settle index {settle} lies outside"):
                load_model(path)


def test_load_accepts_only_the_lines_save_model_writes(tmp_path):
    # The reader once skipped blank and comment lines, took cells in any
    # order and any spelling of a number, and defaulted a missing header.
    path = saved_model_path(tmp_path)
    sidecar = tmp_path / "model.pgm.cells"
    text = sidecar.read_text()
    lines = text.splitlines(keepends=True)
    for edited, ln in (
        (lines[:4] + ["\n"] + lines[4:], 5),  # a blank line between two cells
        (lines[:3] + ["# note\n"] + lines[3:], 4),
        (lines[:3] + [lines[4], lines[3]] + lines[5:], 4),  # two cells swapped
        (lines[:3] + ["0 0 settled 007\n"] + lines[4:], 4),
        (lines[:3] + ["0 0 settled 1 \n"] + lines[4:], 4),
        (lines[:2] + lines[3:], 3),  # no built_from line
        (lines[1:], 2),  # no header line, so line 2 declares no grid
        (lines[:-1] + ["3 3 settled 1"], 19),  # no final newline
    ):
        sidecar.write_text("".join(edited))
        with pytest.raises(PnmError, match=f"^model sidecar line {ln}:"):
            load_model(path)
    with pytest.raises(PnmError, match=r"line 19: expected '3 3 settled 1\\n', got '3 3 settled 1'$"):
        load_model(path)
    sidecar.write_text(text.replace("# grid 4", "# grid 99999999999"))
    with mock.patch.object(blockbg.background, "_sidecar_text") as render:
        with pytest.raises(PnmError, match="line 2: .*not a multiple of the grid 99999999999"):
            load_model(path)
    render.assert_not_called()
