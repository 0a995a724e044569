"""The one build-and-detect path that ``model``, ``detect`` and ``bench``
share, and the names perfbench's tracer patches on it."""

import csv
import importlib
import importlib.util
import os
import sys
import weakref
from itertools import chain, islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import blockbg.cli
import blockbg.foreground
import blockbg.pipeline
from blockbg.background import build_srbi, coverage
from blockbg.bench import Mover, SceneSpec, bench_methods, evaluate, gen_scene, truth_boxes_for
from blockbg.cli import main
from blockbg.comparators import Method, default_config
from blockbg.errors import SequenceTooShort
from blockbg.foreground import DetectedObject, frame_to_mask
from blockbg.imaging import Frame, load_frame
from blockbg.pipeline import PipelineParams, build_model, detect_stream
from blockbg.validation import VEHICLE

from helpers import FIXED, blocks_scored, record_rebuilds, scored_pairs, texture, write_frames

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_detect_stream_holds_only_the_rebuild_window(monkeypatch):
    # 48 frames, 12 times the window: a frame kept past the window would
    # pile up. Each frame is a fresh object, so a weak reference tells
    # whether anything still holds it.
    max_frames = 4
    spec = SceneSpec(
        64, 48, 48,
        movers=(Mover(0, 8, 12, 8, 230, 2, 0), Mover(56, 28, 10, 8, 20, -2, 1)),
        noise_sigma=4.0, seed=5,
    )
    pixels = [f.pixels for f in gen_scene(spec).frames]
    refs = []

    def stream():
        for px in pixels:
            frame = Frame(px.copy())
            refs.append(weakref.ref(frame))
            yield frame

    rebuilds, calls = record_rebuilds(monkeypatch)
    frames = stream()
    params, cfg = PipelineParams(grid=8), default_config(Method.DCT)
    pulled = []
    model = build_model(islice(frames, 3), params, cfg, max_frames, pulled=pulled)
    frames, pulled = chain(iter(pulled), frames), None
    results = detect_stream(model, frames, params, cfg, max_frames, rebuild_every=1, build=model)
    for i, _ in enumerate(results):
        alive = [t for t, ref in enumerate(refs) if ref() is not None]
        assert len(alive) <= max_frames + 1, (i, alive)
    assert i == len(pixels) - 1 and len(rebuilds) == len(pixels) - 2
    # Nor does work pile up: each pair's cells are scored at most once.
    assert 0 < blocks_scored(calls) <= 8 * 8 * (len(pixels) - 1)


scenes = st.builds(
    SceneSpec,
    width=st.integers(16, 40),
    height=st.integers(16, 40),
    frame_count=st.integers(2, 20),
    movers=st.lists(
        st.builds(
            Mover, x=st.integers(-16, 40), y=st.integers(-16, 40), w=st.integers(1, 16), h=st.integers(1, 16),
            intensity=st.integers(0, 255), dx=st.integers(-6, 6), dy=st.integers(-6, 6),
        ),
        max_size=3,
    ).map(tuple),
    noise_sigma=st.floats(0, 8),
    seed=st.integers(0, 2**16),
)


@FIXED
@given(scenes, st.sampled_from(Method), st.integers(2, 10), st.integers(2, 8), st.integers(1, 5))
def test_each_rebuild_is_a_build_over_its_window_and_no_pair_cell_is_scored_twice(
    spec, method, model_frames, max_frames, rebuild_every
):
    frames = gen_scene(spec).frames
    params, cfg = PipelineParams(grid=8), default_config(method)
    with pytest.MonkeyPatch.context() as mp:
        rebuilds, calls = record_rebuilds(mp)
        model = build_model(frames[:model_frames], params, cfg, max_frames)
        for _ in detect_stream(model, frames, params, cfg, max_frames, rebuild_every, build=model):
            pass
    grid = model.grid
    inline = build_srbi(frames[:model_frames], grid, cfg, max_frames)
    union = scored_pairs(inline.cell_status, inline.built_from)
    reach = inline.built_from[1]  # the furthest frame a build has read
    assert len(rebuilds) == sum(1 for i in range(2, len(frames)) if i % rebuild_every == 0)
    for start, end, old, got, build, _ in rebuilds:
        want = build_srbi(frames[start:end], grid, cfg, end - start)
        status = np.where(want.cell_status >= 0, want.cell_status + start, want.cell_status)
        built_from = (start, start + want.built_from[1])
        union |= scored_pairs(status, built_from)
        fresh = [got] if got is not old else []
        if end >= reach:  # a move, not a read of the build cut at the window's end
            fresh.append(build)
            reach = built_from[1]
        for model in fresh:
            assert np.array_equal(model.pixels, want.pixels), (start, end)
            assert np.array_equal(model.cell_status, status), (start, end)
            assert model.built_from == built_from, (start, end)
        assert (got is not old) == (coverage(want) >= coverage(old)), (start, end)
    assert blocks_scored(calls) == len(union)


def test_adopted_rebuilds_count_their_frames_from_the_stream_start(monkeypatch):
    # On a static scene every build settles all cells at its first pair, so
    # each model's built_from is that pair's stream indices.
    frames = gen_scene(SceneSpec(64, 48, 10, noise_sigma=0.0, seed=3)).frames
    seen = []
    run_detection = blockbg.pipeline.run_detection
    monkeypatch.setattr(
        blockbg.pipeline, "run_detection",
        lambda model, frames, params: seen.append(
            (model.built_from, int(model.cell_status.max()), model.cell_status.dtype)
        ) or run_detection(model, frames, params),
    )
    params, cfg = PipelineParams(grid=8), default_config(Method.DCT)
    model = build_model(frames, params, cfg, max_frames=3)
    assert len(list(detect_stream(model, frames, params, cfg, max_frames=3, rebuild_every=2))) == 10
    built_from = [(0, 2)] * 4 + [(1, 3)] * 2 + [(3, 5)] * 2 + [(5, 7)] * 2
    assert seen == [((start, end), end - 1, np.int32) for start, end in built_from]


def test_bench_scores_what_detect_writes(tmp_path, capsys):
    # bench_methods runs detect's loop with an inline model over the whole
    # scene and no rebuilds; evaluate over detect's files must agree exactly.
    # At sigma 8 entropy settles every cell and the others are backfilled.
    spec = SceneSpec(
        64, 48, 14,
        movers=(Mover(-16, 10, 16, 10, 230, 5, 0), Mover(64, 30, 14, 8, 25, -4, 0)),
        noise_sigma=8.0, seed=3,
    )
    scene = gen_scene(spec)
    frames = tmp_path / "frames"
    frames.mkdir()
    write_frames(frames, [f.pixels for f in scene.frames])
    params = PipelineParams(grid=8)
    rows = bench_methods(spec, params=params)
    assert [r.coverage == 1.0 for r in rows] == [False, True, False, False]
    for row in rows:
        out = tmp_path / row.method.value
        code = main([
            "detect", "--input", str(frames), "--model-frames", str(spec.frame_count),
            "--rebuild-every", "0", "--grid", "8", "--method", row.method.value, "--out-dir", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        masks = [frame_to_mask(load_frame(out / f"mask_{t:06d}.pgm")) for t in range(spec.frame_count)]
        objects = [[] for _ in masks]
        with open(out / "objects.csv", newline="") as fh:
            for r in csv.DictReader(fh):
                if r["label"] == VEHICLE:
                    box = [int(r[k]) for k in ("x", "y", "w", "h", "area")]
                    objects[int(r["frame_index"])].append(DetectedObject(*box, 0.0, 0.0))
        boxes = truth_boxes_for(spec, masks[0].width, masks[0].height, params)
        assert evaluate(masks, objects, scene.truth_masks, boxes) == row.metrics, row.method


def test_a_failed_inline_build_creates_no_out_dir(tmp_path, capsys):
    frames = tmp_path / "mixed"
    frames.mkdir()
    write_frames(frames, [texture(63, 16, 16), texture(63, 32, 32)])
    out_dir = tmp_path / "out"
    code = main([
        "detect", "--input", str(frames), "--model-frames", "2", "--grid", "8",
        "--out-dir", str(out_dir),
    ])
    assert code == 1 and "frame 1 is 32x32" in capsys.readouterr().err
    assert not out_dir.exists()


def test_build_model_names_what_too_few_frames_lack():
    frame = Frame(texture(65, 32, 32))
    cfg = default_config(Method.ABSDIFF)
    for frames, params, named in (
        ([], PipelineParams(grid=8), "no frames to resolve a grid from"),
        ([frame], PipelineParams(), "grid auto-selection needs at least 2 frames"),
        ([frame], PipelineParams(grid=8), "need at least 2 frames to build, got 1"),
    ):
        with pytest.raises(SequenceTooShort, match=named):
            build_model(frames, params, cfg)


def test_detect_stream_checks_its_rebuild_arguments_before_the_first_frame():
    frames = [Frame(texture(66, 32, 32))] * 3
    params, cfg = PipelineParams(grid=8), default_config(Method.ABSDIFF)
    model = build_model(frames, params, cfg)
    for rebuild_cfg, every, named in (
        (None, 2, "rebuilding needs a comparator config"),
        (cfg, -1, "rebuild_every must be >= 0, got -1"),
    ):
        pending = iter(frames)
        with pytest.raises(ValueError, match=named):
            next(detect_stream(model, pending, params, rebuild_cfg, rebuild_every=every))
        assert len(list(pending)) == 3  # no frame was read
    for max_frames in (1, 0):  # a window of fewer than 2 frames can never rebuild
        pending = iter(frames)
        with pytest.raises(ValueError, match=f"rebuilding needs max_frames >= 2, got {max_frames}"):
            next(detect_stream(model, pending, params, cfg, max_frames=max_frames, rebuild_every=2))
        assert len(list(pending)) == 3  # no frame was read
    assert len(list(detect_stream(model, frames, params))) == 3  # no rebuilds, no cfg needed


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_names_the_tracer_patches_are_there(tmp_path, capsys, monkeypatch):
    # The tracer replaces these module attributes and blockbg.cli's global
    # open; a renamed function or a moved open would silently drop spans.
    tracing = load_tracing()
    for module, attr in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    opened, detected = [], []

    def recording_open(file, *args, **kwargs):
        opened.append(os.path.basename(os.fspath(file)))
        return open(file, *args, **kwargs)

    run_detection = blockbg.pipeline.run_detection
    monkeypatch.setattr(blockbg.cli, "open", recording_open, raising=False)
    monkeypatch.setattr(
        blockbg.pipeline, "run_detection",
        lambda model, frames, params: detected.append(len(frames)) or run_detection(model, frames, params),
    )
    frames = tmp_path / "frames"
    frames.mkdir()
    write_frames(frames, [np.full((32, 32), 96, dtype=np.uint8)] * 3)
    code = main([
        "detect", "--input", str(frames), "--model-frames", "2", "--rebuild-every", "1",
        "--grid", "8", "--out-dir", str(tmp_path / "out"),
    ])
    capsys.readouterr()
    assert code == 0
    assert tracing.CSV_NAME in opened
    assert detected == [1, 1, 1]  # one span per frame


def test_each_frame_reaches_the_foreground_stages_the_tracer_times(tmp_path, capsys, monkeypatch):
    # perfbench's detect workloads expect a span of each of these per frame.
    # The tracer wraps a function in every blockbg module that holds it, so
    # a path that fuses the stages or calls a private copy would lose them.
    stages = ("subtract", "median_filter_mask", "connected_components")
    calls = {name: 0 for name in stages}
    modules = [m for key, m in sys.modules.items() if key == "blockbg" or key.startswith("blockbg.")]
    for name in stages:
        original = getattr(blockbg.foreground, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    frames = tmp_path / "frames"
    frames.mkdir()
    write_frames(frames, [texture(66, 32, 32)] * 3)
    code = main([
        "detect", "--input", str(frames), "--model-frames", "2", "--grid", "8",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert "frames 3" in capsys.readouterr().out and code == 0
    assert calls == {name: 3 for name in stages}
