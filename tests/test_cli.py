"""End-to-end command line behavior: outputs, exit codes, precedence."""

import os
import re
import subprocess
import sys
import weakref
from collections import deque

import numpy as np
import pytest

import blockbg.cli
import blockbg.imaging
from blockbg.background import CELL_UNSETTLED, backfill, build_srbi, coverage, load_model
from blockbg.bench import Mover, SceneSpec, gen_scene, write_scene_file
from blockbg.blocks import make_grid
from blockbg.cli import main
from blockbg.comparators import Method, default_config
from blockbg.foreground import DEFAULT_WINDOW, mask_to_frame
from blockbg.imaging import load_frame
from blockbg.pipeline import PipelineParams, run_detection

from helpers import blocks_scored, record_rebuilds, texture, write_frames


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def echo_dict(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def static_dir(tmp_path, name="frames", count=3, seed=60):
    d = tmp_path / name
    d.mkdir()
    write_frames(d, [texture(seed, 32, 32)] * count)
    return d


def mover_dir(tmp_path, name="moving"):
    """Constant background; a 10x6 rectangle crosses from frame 2 on."""
    d = tmp_path / name
    d.mkdir()
    arrays = []
    for t in range(8):
        px = np.full((32, 48), 96, dtype=np.uint8)
        if t >= 2:
            x = 2 + 3 * (t - 2)
            px[8:14, x : x + 10] = 220
        arrays.append(px)
    write_frames(d, arrays)
    return d


# --- parser surface ---


def test_version_and_usage_exit_codes(capsys):
    assert main(["--version"]) == 0
    assert "blockbg" in capsys.readouterr().out
    assert main([]) == 2  # a subcommand is required
    assert main(["model"]) == 2  # --input/--out are required
    capsys.readouterr()


def test_every_subcommand_help_renders(capsys):
    # argparse interpolates "%" in help strings; a raw %06d default used to
    # crash --help with a TypeError instead of printing usage.
    for sub in ("model", "detect", "bench", "entropy"):
        assert main([sub, "--help"]) == 0
        out = capsys.readouterr().out
        assert f"blockbg {sub}" in out
    assert "%06d.pgm" in out  # entropy shares the frame-input options


# --- model ---


def test_model_builds_from_a_static_sequence(tmp_path, capsys):
    frames = static_dir(tmp_path)
    out = tmp_path / "model.pgm"
    code, stdout, _ = run(
        capsys, "model", "--input", str(frames), "--out", str(out),
        "--method", "absdiff", "--grid", "8",
    )
    assert code == 0
    assert "coverage 1.000000" in stdout
    assert "frames_consumed 2" in stdout
    assert out.exists()
    assert (tmp_path / "model.pgm.cells").exists()
    assert (tmp_path / "model.pgm.config.txt").exists()
    model = load_model(out)
    assert np.array_equal(model.pixels, texture(60, 32, 32))
    assert (model.cell_status == 1).all()


def truncate(path):
    """Cut a PGM's payload short, leaving its header intact."""
    path.write_bytes(path.read_bytes()[:-7])


def test_model_decodes_only_the_frames_it_consumes(tmp_path, capsys, monkeypatch):
    frames = static_dir(tmp_path, count=6)  # every cell settles at pair 1
    truncate(frames / "000004.pgm")  # past the settle point: never read
    decoded = []
    load_frame = blockbg.imaging.load_frame
    monkeypatch.setattr(
        blockbg.imaging, "load_frame", lambda path: decoded.append(path) or load_frame(path)
    )
    out = tmp_path / "model.pgm"
    code, stdout, _ = run(
        capsys, "model", "--input", str(frames), "--out", str(out),
        "--method", "absdiff", "--grid", "8",
    )
    assert code == 0
    assert "frames_consumed 2" in stdout
    assert [p.name for p in decoded] == ["000000.pgm", "000001.pgm"]


def flicker_dir(tmp_path):
    d = tmp_path / "flicker"
    d.mkdir()
    base = texture(61, 16, 16)
    arrays = []
    for t in range(6):
        px = base.copy()
        px[4:8, 8:12] = 0 if t % 2 == 0 else 255
        arrays.append(px)
    write_frames(d, arrays)
    return d


def test_model_backfills_unsettled_cells_by_default(tmp_path, capsys):
    frames = flicker_dir(tmp_path)
    out = tmp_path / "model.pgm"
    code, stdout, stderr = run(
        capsys, "model", "--input", str(frames), "--out", str(out),
        "--method", "absdiff", "--grid", "8",
    )
    assert code == 0
    assert "coverage 1.000000" in stdout
    assert stderr == "backfilled 4 unsettled cell(s) from frame 5\n"


def test_model_fails_below_min_coverage_without_backfill(tmp_path, capsys):
    frames = flicker_dir(tmp_path)
    out = tmp_path / "model.pgm"
    code, stdout, _ = run(
        capsys, "model", "--input", str(frames), "--out", str(out),
        "--method", "absdiff", "--grid", "8", "--no-backfill",
    )
    assert code == 1
    assert "coverage 0.9" in stdout
    assert out.exists()  # the partial model is still saved for inspection


# --- detect ---


def test_detect_reports_nothing_on_static_frames(tmp_path, capsys):
    frames = static_dir(tmp_path)
    model = tmp_path / "model.pgm"
    run(capsys, "model", "--input", str(frames), "--out", str(model), "--grid", "8")
    out_dir = tmp_path / "out"
    code, stdout, _ = run(
        capsys, "detect", "--input", str(frames), "--model", str(model),
        "--out-dir", str(out_dir),
    )
    assert code == 0
    assert "frames 3" in stdout and "objects 0" in stdout
    csv_text = (out_dir / "objects.csv").read_text().splitlines()
    assert csv_text == ["frame_index,object_index,x,y,w,h,area,label,score"]
    for i in range(3):
        mask = load_frame(out_dir / f"mask_{i:06d}.pgm")
        assert not mask.pixels.any()
    assert (out_dir / "config.txt").exists()


def test_detect_tracks_a_crossing_object(tmp_path, capsys):
    frames = mover_dir(tmp_path)
    out_dir = tmp_path / "out"
    code, stdout, _ = run(
        capsys, "detect", "--input", str(frames), "--model-frames", "2",
        "--method", "absdiff", "--grid", "8", "--out-dir", str(out_dir),
    )
    assert code == 0
    assert "objects 6" in stdout
    rows = (out_dir / "objects.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    for row in rows:
        fi, oi, x, y, w, h, area, label, score = row.split(",")
        t = int(fi)
        assert 2 <= t <= 7 and oi == "0"
        assert int(x) == 2 + 3 * (t - 2)
        assert (int(y), int(w), int(h)) == (8, 10, 6)
        assert int(area) == 56  # median cleanup shaves the four corners
        assert label == "vehicle"
        assert score == "1.000000"
        mask = load_frame(out_dir / f"mask_{t:06d}.pgm")
        assert int((mask.pixels == 255).sum()) == 56


def test_detect_rebuild_cycle_matches_single_model_run(tmp_path, capsys):
    frames = mover_dir(tmp_path)
    plain = tmp_path / "plain"
    cycled = tmp_path / "cycled"
    for out_dir, extra in ((plain, []), (cycled, ["--rebuild-every", "3"])):
        code, _, _ = run(
            capsys, "detect", "--input", str(frames), "--model-frames", "2",
            "--method", "absdiff", "--grid", "8", "--out-dir", str(out_dir),
            *extra,
        )
        assert code == 0
    assert (plain / "objects.csv").read_bytes() == (cycled / "objects.csv").read_bytes()
    for i in range(8):
        name = f"mask_{i:06d}.pgm"
        assert (plain / name).read_bytes() == (cycled / name).read_bytes()


def sliding_scene(tmp_path):
    """14 noisy frames with two small fast movers: a cell's verdict changes
    from pair to pair, yet a 4-frame window can settle every cell."""
    spec = SceneSpec(
        64, 48, 14,
        movers=(Mover(0, 8, 6, 6, 230, 7, 0), Mover(56, 28, 6, 4, 20, -9, 1)),
        noise_sigma=4.0, seed=0,
    )
    d = tmp_path / "scene"
    d.mkdir()
    write_frames(d, [f.pixels for f in gen_scene(spec).frames])
    return d, [load_frame(p) for p in sorted(d.glob("*.pgm"))]


def oracle_detect(frames, method, model_frames, max_frames, rebuild_every):
    """detect's loop, with each rebuild scoring its window from scratch.
    Returns the mask images, the objects.csv rows, the adoption count and
    the backfill note."""
    cfg = default_config(method)
    params = PipelineParams(grid=8)
    grid = make_grid(frames[0].width, frames[0].height, 8)
    model = build_srbi(frames[:model_frames], grid, cfg, max_frames)
    note = ""
    if coverage(model) < 1.0:
        last = model.built_from[1] - 1
        note = f"backfilled {int((model.cell_status == CELL_UNSETTLED).sum())} unsettled cell(s) from frame {last}\n"
        model = backfill(model, frames[last])
    recent = deque(maxlen=max_frames)
    masks, rows, adopted = [], [], 0
    for i, frame in enumerate(frames):
        if rebuild_every and len(recent) >= 2 and i % rebuild_every == 0:
            rebuilt = build_srbi(recent, grid, cfg, max_frames)
            if coverage(rebuilt) >= coverage(model):
                adopted, model = adopted + 1, rebuilt
        ((mask, objects),) = run_detection(model, [frame], params)
        masks.append(mask_to_frame(mask).pixels)
        rows += [
            f"{i},{oi},{o.x},{o.y},{o.w},{o.h},{o.area},{o.label},{o.score:.6f}"
            for oi, o in enumerate(objects)
        ]
        recent.append(frame)
    return masks, rows, adopted, note


@pytest.mark.parametrize("rebuild_every", (0, 1, 2, 3))
@pytest.mark.parametrize("method", [m.value for m in Method])
def test_detect_sliding_rebuilds_match_rebuilding_from_scratch(tmp_path, capsys, method, rebuild_every):
    # With --max-frames 4 the window drops its oldest frame from frame 4 on,
    # so every later rebuild must forget the scores of the pair it lost.
    d, frames = sliding_scene(tmp_path)
    out_dir = tmp_path / "out"
    code, _, stderr = run(
        capsys, "detect", "--input", str(d), "--model-frames", "3", "--max-frames", "4",
        "--rebuild-every", str(rebuild_every), "--method", method, "--grid", "8",
        "--out-dir", str(out_dir),
    )
    assert code == 0
    masks, rows, adopted, note = oracle_detect(frames, method, 3, 4, rebuild_every)
    assert adopted > 0 or not rebuild_every  # the rebuilt models are in use
    assert stderr == note and (note or method == "xor")  # only xor settles every cell
    assert (out_dir / "objects.csv").read_text().splitlines()[1:] == rows
    for i, want in enumerate(masks):
        assert np.array_equal(load_frame(out_dir / f"mask_{i:06d}.pgm").pixels, want), i


@pytest.mark.parametrize("max_frames", ("150", "4"))
def test_detect_rebuilds_score_each_frame_pair_once(tmp_path, capsys, monkeypatch, max_frames):
    d, frames = sliding_scene(tmp_path)
    rebuilds, _ = record_rebuilds(monkeypatch)
    code, _, _ = run(
        capsys, "detect", "--input", str(d), "--model-frames", "3", "--max-frames", max_frames,
        "--rebuild-every", "1", "--method", "dct", "--grid", "8", "--out-dir", str(tmp_path / "out"),
    )
    assert code == 0 and len(rebuilds) == len(frames) - 2
    assert sum(r.scored for r in rebuilds) <= 8 * 8 * (len(frames) - 1)


def test_detect_rebuilds_reuse_the_inline_builds_scores(tmp_path, capsys, monkeypatch):
    # max_frames 150 keeps every frame, so no window slides: each rebuild
    # covers pairs the inline build scored, up to where every cell settled.
    spec = SceneSpec(64, 48, 12, movers=(Mover(0, 8, 16, 10, 230, 5, 0),), noise_sigma=4.0, seed=3)
    d = tmp_path / "frames"
    d.mkdir()
    write_frames(d, [f.pixels for f in gen_scene(spec).frames])
    rebuilds, calls = record_rebuilds(monkeypatch)
    code, _, stderr = run(
        capsys, "detect", "--input", str(d), "--model-frames", "12", "--max-frames", "150",
        "--rebuild-every", "2", "--method", "dct", "--grid", "8", "--out-dir", str(tmp_path / "out"),
    )
    rebuilt = [r.scored for r in rebuilds]
    inline = blocks_scored(calls) - sum(rebuilt)  # the inline build scored the rest
    assert code == 0 and "backfilled" not in stderr  # the inline build settled every cell
    assert inline > 0 and len(rebuilt) == 5
    assert rebuilt == [0] * 5


def test_detect_releases_frames_it_no_longer_needs(tmp_path, capsys, monkeypatch):
    d, frames = sliding_scene(tmp_path)
    refs = []  # a weak reference to each frame as it is loaded
    dead_at_last = []
    original = blockbg.imaging.load_frame

    def loading(path):
        frame = original(path)
        refs.append(weakref.ref(frame))
        if len(refs) == len(frames):
            dead_at_last.append(refs[0]() is None)
        return frame

    monkeypatch.setattr(blockbg.imaging, "load_frame", loading)
    code, _, _ = run(
        capsys, "detect", "--input", str(d), "--model-frames", "3", "--rebuild-every", "0",
        "--grid", "8", "--out-dir", str(tmp_path / "out"),
    )
    assert code == 0 and dead_at_last == [True]


def test_detect_writes_masks_up_to_a_bad_frame(tmp_path, capsys):
    frames = mover_dir(tmp_path)
    truncate(frames / "000005.pgm")
    out_dir = tmp_path / "out"
    code, _, stderr = run(
        capsys, "detect", "--input", str(frames), "--model-frames", "2",
        "--method", "absdiff", "--grid", "8", "--rebuild-every", "3",
        "--out-dir", str(out_dir),
    )
    assert code == 1
    assert "000005.pgm" in stderr and "truncated" in stderr
    written = sorted(p.name for p in out_dir.glob("mask_*.pgm"))
    assert written == [f"mask_{i:06d}.pgm" for i in range(5)]


def test_a_shorter_detect_rerun_leaves_only_its_own_masks(tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "other.pgm").write_bytes(b"not a mask")
    for count in (12, 6):
        frames = static_dir(tmp_path, f"frames{count}", count=count)
        code, stdout, _ = run(
            capsys, "detect", "--input", str(frames), "--model-frames", "2", "--grid", "8",
            "--out-dir", str(out_dir),
        )
        assert code == 0 and f"frames {count}" in stdout
    written = sorted(p.name for p in out_dir.glob("*.pgm"))
    assert written == [f"mask_{i:06d}.pgm" for i in range(6)] + ["other.pgm"]


def test_a_rerun_that_fails_at_frame_k_leaves_only_its_own_outputs(tmp_path, capsys):
    # The stale masks and config.txt of a longer first run go even when the
    # rerun stops at a bad frame, not only after a loop that finishes.
    frames = static_dir(tmp_path, count=12)
    out_dir = tmp_path / "out"
    argv = ["detect", "--input", str(frames), "--model-frames", "2", "--grid", "8", "--out-dir", str(out_dir)]
    code, stdout, _ = run(capsys, *argv, "--window", "5")
    assert code == 0 and "frames 12" in stdout
    truncate(frames / "000005.pgm")
    code, _, err = run(capsys, *argv)
    assert code == 1 and "000005.pgm" in err
    assert sorted(p.name for p in out_dir.glob("*.pgm")) == [f"mask_{i:06d}.pgm" for i in range(5)]
    assert echo_dict(out_dir / "config.txt")["window"] == "3"


def test_a_rerun_that_cannot_open_objects_csv_leaves_out_dir_as_it_was(tmp_path, capsys):
    frames = static_dir(tmp_path, count=4)
    out_dir = tmp_path / "out"
    argv = ["detect", "--input", str(frames), "--model-frames", "2", "--grid", "8", "--out-dir", str(out_dir)]
    assert run(capsys, *argv, "--window", "5")[0] == 0
    (out_dir / "objects.csv").unlink()
    (out_dir / "objects.csv").mkdir()
    code, _, err = run(capsys, *argv)
    assert code == 1 and "objects.csv" in err
    assert sorted(p.name for p in out_dir.glob("*.pgm")) == [f"mask_{i:06d}.pgm" for i in range(4)]
    assert echo_dict(out_dir / "config.txt")["window"] == "5"


def test_a_failed_mask_write_is_the_error_reported(tmp_path, capsys, monkeypatch):
    # The cleanup after a failed frame may fail too (a full disk fails both
    # writes); the mask's error is the one that names the cause.
    save = blockbg.cli.save_frame

    def save_or_fail(frame, path):
        if path.name == "mask_000002.pgm":
            raise OSError(28, "No space left on device", str(path))
        save(frame, path)

    def echo_fails(args, path):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(blockbg.cli, "save_frame", save_or_fail)
    monkeypatch.setattr(blockbg.cli, "_echo_config", echo_fails)
    frames = static_dir(tmp_path, count=4)
    code, _, err = run(
        capsys, "detect", "--input", str(frames), "--model-frames", "2", "--grid", "8",
        "--out-dir", str(tmp_path / "out"),
    )
    assert code == 1 and "mask_000002.pgm" in err and "config.txt" not in err


# --- bench ---


def bench_scene_path(tmp_path):
    spec = SceneSpec(
        width=32,
        height=32,
        frame_count=8,
        movers=(Mover(-8, 9, 6, 3, 220, 2, 0),),
        noise_sigma=0.0,
        seed=7,
    )
    path = tmp_path / "scene.txt"
    write_scene_file(spec, path)
    return path


def test_bench_writes_report_and_reruns_identically(tmp_path, capsys):
    scene = bench_scene_path(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    code, stdout, _ = run(
        capsys, "bench", "--scene", str(scene), "--out", str(a), "--grid", "8",
    )
    assert code == 0
    assert "method" in stdout  # the formatted table
    lines = a.read_text().splitlines()
    assert len(lines) == 5
    for line in lines[1:]:
        assert line.split(",")[6] == "1.000000"  # coverage column
    code, _, _ = run(
        capsys, "bench", "--scene", str(scene), "--out", str(b), "--grid", "8",
        "--jobs", "4",
    )
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    echo = echo_dict(tmp_path / "a.csv.config.txt")
    assert not {"scene", "out", "jobs", "config"} & set(echo)


# --- entropy ---


def test_entropy_prints_one_value_per_frame(tmp_path, capsys):
    d = tmp_path / "one"
    d.mkdir()
    write_frames(d, [np.full((16, 16), 50, dtype=np.uint8)])
    code, stdout, _ = run(capsys, "entropy", "--input", str(d))
    assert code == 0
    assert stdout.splitlines() == ["0.000000"]


def test_entropy_pair_reports_delta_and_grid(tmp_path, capsys):
    d = tmp_path / "pair"
    d.mkdir()
    a = np.full((16, 16), 50, dtype=np.uint8)
    b = a.copy()
    b[0, :4] = 220
    write_frames(d, [a, b])
    code, stdout, _ = run(capsys, "entropy", "--input", str(d))
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 4
    assert lines[0] == "0.000000"
    delta = float(lines[2].split()[1])
    assert delta == pytest.approx(float(lines[1]), abs=1e-6)
    assert lines[3].split() == ["grid", "16"]  # 4 of 256 pixels changed


def test_entropy_trio_prints_values_only(tmp_path, capsys):
    d = tmp_path / "trio"
    d.mkdir()
    write_frames(d, [np.full((16, 16), 50, dtype=np.uint8)] * 3)
    code, stdout, _ = run(capsys, "entropy", "--input", str(d))
    assert code == 0
    assert stdout.splitlines() == ["0.000000"] * 3


# --- configuration resolution ---


def test_cli_flags_beat_config_file(tmp_path, capsys):
    frames = static_dir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method=absdiff\nthreshold=3.0\nmax-frames=20\n")
    out = tmp_path / "model.pgm"
    code, _, _ = run(
        capsys, "model", "--input", str(frames), "--out", str(out),
        "--config", str(cfg), "--threshold", "9.0", "--grid", "8",
    )
    assert code == 0
    echo = echo_dict(tmp_path / "model.pgm.config.txt")
    assert echo["method"] == "absdiff"  # from the file
    assert echo["threshold"] == "9.0"  # the flag wins
    assert echo["max_frames"] == "20"
    # path/parallelism keys never appear, so reruns echo identical bytes
    assert not {"input", "out", "config", "jobs"} & set(echo)


def test_a_config_file_sets_nothing_for_the_next_call(tmp_path, capsys):
    # The parser is built once per process; one call's file must not leak.
    frames = mover_dir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window=5\n")
    detect = ["detect", "--input", str(frames), "--model-frames", "2", "--grid", "8", "--out-dir"]
    assert run(capsys, *detect, str(tmp_path / "with"), "--config", str(cfg))[0] == 0
    assert run(capsys, *detect, str(tmp_path / "without"))[0] == 0
    assert echo_dict(tmp_path / "with" / "config.txt")["window"] == "5"
    assert echo_dict(tmp_path / "without" / "config.txt")["window"] == str(DEFAULT_WINDOW) == "3"


def test_echoed_config_reproduces_the_run(tmp_path, capsys):
    # The echo writes None for an unset option; passed back as --config it
    # must leave that option unset and repeat the run byte for byte. The echo
    # leaves paths out, so a saved model's path stays on the command line,
    # while an inline model's --model-frames comes back from the echo.
    frames = mover_dir(tmp_path)
    scene = bench_scene_path(tmp_path)
    model = tmp_path / "model" / "first" / "m.pgm"
    cases = {  # name: (the run's locations, its knobs, its echo)
        "model": (lambda o: ["model", "--input", str(frames), "--out", str(o / "m.pgm")], ["--max-frames", "8"], "m.pgm.config.txt"),
        "inline": (lambda o: ["detect", "--input", str(frames), "--out-dir", str(o)], ["--model-frames", "6", "--rebuild-every", "5"], "config.txt"),
        "saved": (lambda o: ["detect", "--input", str(frames), "--out-dir", str(o), "--model", str(model)], ["--window", "5"], "config.txt"),
        "bench": (lambda o: ["bench", "--scene", str(scene), "--out", str(o / "r.csv")], ["--grid", "8"], "r.csv.config.txt"),
    }
    for name, (where, knobs, echo) in cases.items():
        first, again = tmp_path / name / "first", tmp_path / name / "again"
        first.mkdir(parents=True)
        again.mkdir(parents=True)
        code, stdout, _ = run(capsys, *where(first), *knobs)
        assert code == 0, name
        assert "=None" in (first / echo).read_text()
        assert run(capsys, *where(again), "--config", str(first / echo))[:2] == (0, stdout), name
        outputs = [{p.name: p.read_bytes() for p in d.iterdir()} for d in (first, again)]
        assert outputs[0] == outputs[1], name


def test_an_echoed_pattern_holding_a_hash_reproduces_the_run(tmp_path, capsys):
    # A '#' that neither opens a line nor follows whitespace is part of the
    # value, so the echo of a run over f#000.pgm, f#001.pgm, ... replays it.
    frames = tmp_path / "frames"
    frames.mkdir()
    write_frames(frames, [texture(60, 32, 32)] * 3, pattern="f#%03d.pgm")
    first, again = tmp_path / "first", tmp_path / "again"
    first.mkdir()
    again.mkdir()
    code, stdout, _ = run(capsys, "model", "--input", str(frames), "--out", str(first / "m.pgm"), "--pattern", "f#%03d.pgm")
    assert code == 0
    assert echo_dict(first / "m.pgm.config.txt")["pattern"] == "f#%03d.pgm"
    echo = str(first / "m.pgm.config.txt")
    assert run(capsys, "model", "--input", str(frames), "--out", str(again / "m.pgm"), "--config", echo)[:2] == (0, stdout)
    outputs = [{p.name: p.read_bytes() for p in d.iterdir()} for d in (first, again)]
    assert sorted(outputs[0]) == ["m.pgm", "m.pgm.cells", "m.pgm.config.txt"]
    assert outputs[0] == outputs[1]


def test_config_file_sets_every_option_including_required_ones(tmp_path, capsys):
    # Each golden command with all its flags moved into a config file writes
    # the same bytes as with the flags on the command line.
    frames = mover_dir(tmp_path)
    scene = bench_scene_path(tmp_path)
    model = tmp_path / "model.pgm"
    assert run(capsys, "model", "--input", str(frames), "--out", str(model), "--grid", "8")[0] == 0
    cases = {  # name: the run, writing under the given directory
        "model": lambda o: ["model", "--input", frames, "--out", o / "m.pgm", "--max-frames", "8"],
        "saved": lambda o: ["detect", "--input", frames, "--model", model, "--out-dir", o],
        "inline": lambda o: ["detect", "--input", frames, "--model-frames", "6", "--rebuild-every", "5", "--out-dir", o],
        "bench": lambda o: ["bench", "--scene", scene, "--out", o / "r.csv"],
    }
    for name, argv in cases.items():
        flags, filed = tmp_path / name / "flags", tmp_path / name / "filed"
        flags.mkdir(parents=True)
        filed.mkdir()
        code, stdout, _ = run(capsys, *map(str, argv(flags)))
        assert code == 0, name
        command, *options = map(str, argv(filed))
        cfg = tmp_path / name / "run.cfg"
        cfg.write_text("".join(f"{k[2:]}={v}\n" for k, v in zip(options[::2], options[1::2])))
        assert run(capsys, command, "--config", str(cfg))[:2] == (0, stdout), name
        outputs = [{p.name: p.read_bytes() for p in d.iterdir()} for d in (flags, filed)]
        assert outputs[0] == outputs[1], name
    code, _, stderr = run(capsys, "model", "--config")
    assert code == 2 and "argument --config: expected one argument" in stderr


def test_config_file_validation(tmp_path, capsys):
    frames = static_dir(tmp_path)
    out = tmp_path / "model.pgm"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method=dctt\n")
    code, _, stderr = run(
        capsys, "model", "--input", str(frames), "--out", str(out),
        "--config", str(cfg),
    )
    assert code == 2
    assert "unknown method" in stderr
    assert not out.exists()  # nothing partial gets written

    cfg.write_text("threshold\n")
    code, _, stderr = run(
        capsys, "model", "--input", str(frames), "--out", str(out),
        "--config", str(cfg),
    )
    assert code == 2
    assert "config line 1" in stderr

    cfg.write_text("method=absdiff\nthresold=3.0\n")  # misspelt key
    code, _, stderr = run(
        capsys, "model", "--input", str(frames), "--out", str(out),
        "--config", str(cfg),
    )
    assert code == 2
    assert "config line 2: unknown key 'thresold'" in stderr
    assert not out.exists()

    # a key of another subcommand is accepted: one file serves model and detect
    cfg.write_text("method=absdiff\nrebuild-every=5\n")
    code, _, _ = run(
        capsys, "model", "--input", str(frames), "--out", str(out),
        "--config", str(cfg), "--grid", "8",
    )
    assert code == 0

    # model skips detect's keys, so it neither checks nor echoes their values
    cfg.write_text("method=absdiff\nwindow=4\n")
    code, _, _ = run(
        capsys, "model", "--input", str(frames), "--out", str(out),
        "--config", str(cfg), "--grid", "8",
    )
    assert code == 0
    assert echo_dict(tmp_path / "model.pgm.config.txt")["window"] == str(DEFAULT_WINDOW)

    # a file value gets its flag's checks, and a flag's boolean takes a boolean
    for text, named in (
        ("max_frames=1\n", "--max-frames: must be >= 2, got 1"),
        ("no_backfill=maybe\n", "config line 1: no_backfill expects true or false"),
    ):
        cfg.write_text(text)
        code, _, stderr = run(
            capsys, "model", "--input", str(frames), "--out", str(out),
            "--config", str(cfg),
        )
        assert code == 2 and named in stderr, text


def test_config_and_scene_files_name_the_line_of_a_non_utf8_byte(tmp_path, capsys):
    frames = static_dir(tmp_path)
    out = tmp_path / "model.pgm"
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"# comment\nmethod=absdiff\r\nthreshold=5\xff\n")
    code, _, stderr = run(
        capsys, "model", "--input", str(frames), "--out", str(out), "--config", str(cfg),
    )
    assert code == 2
    assert "config line 3: byte 0xff is not UTF-8" in stderr
    assert not out.exists()

    scene = tmp_path / "scene.txt"
    scene.write_bytes(b"width=32\nheight=32\nframes=4\nseed=1\xff\n")
    code, _, stderr = run(capsys, "bench", "--scene", str(scene), "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert "line 4: byte 0xff is not UTF-8" in stderr


def test_config_file_cannot_add_the_other_model_source(tmp_path, capsys):
    frames = mover_dir(tmp_path)
    model = tmp_path / "model.pgm"
    assert main(["model", "--input", str(frames), "--out", str(model), "--grid", "8"]) == 0
    cfg = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    detect = ["detect", "--input", str(frames), "--out-dir", str(out_dir), "--config", str(cfg)]
    for text, source in (
        (f"model={model}\n", ["--model-frames", "2"]),
        ("model_frames=4\nrebuild_every=2\n", ["--model", str(model)]),
    ):
        cfg.write_text(text)
        code, _, stderr = run(capsys, *detect, *source)
        assert code == 2, text
        error = stderr.strip().splitlines()[-1]
        assert set(re.findall(r"--model[-\w]*", error)) == {"--model", "--model-frames"}
        assert not list(out_dir.glob("mask_*.pgm"))


# --- exit codes on bad input ---


def test_usage_errors_exit_two(tmp_path, capsys):
    frames = static_dir(tmp_path)
    out = tmp_path / "model.pgm"
    base = ["model", "--input", str(frames), "--out", str(out)]
    assert main(base + ["--method", "dctt"]) == 2  # argparse choice
    assert main(base + ["--jobs", "2"]) == 2  # model builds on one thread
    assert main(base + ["--max-frames", "1"]) == 2
    assert main(base + ["--grid", "9"]) == 2
    capsys.readouterr()
    entropy = ["entropy", "--input", str(frames)]
    bench = [
        "bench", "--scene", str(bench_scene_path(tmp_path)),
        "--out", str(tmp_path / "r.csv"),
    ]
    for argv, named in (
        (base + ["--pattern", "frame.pgm"], "'frame.pgm' has no %d field"),
        (entropy + ["--pattern", "frame.pgm"], "'frame.pgm' has no %d field"),
        (base + ["--min-coverage", "-3"], "got -3.0"),
        (base + ["--min-coverage", "1.5"], "got 1.5"),
        (bench + ["--iou", "7"], "got 7.0"),
        (bench + ["--iou", "0"], "got 0.0"),
        (bench + ["--max-frames", "1_0"], "--max-frames: '1_0' is not a decimal integer"),
        (bench + ["--jobs", "+2"], "--jobs: '+2' is not a decimal integer"),
        (bench + ["--iou", "0_0.5"], "--iou: '0_0.5' is not a decimal number"),
        (base + ["--threshold", "nan"], "got nan"),
        (base + ["--grid", "12x"], "expected auto, 8, 16 or 32, got '12x'"),
        (base + ["--grid", "\uff18"], "expected auto, 8, 16 or 32, got '\uff18'"),
        (base + ["--grid-thresholds", "0.1"], "expected LOW,HIGH, got '0.1'"),
        (base + ["--grid-thresholds", "0.3,0.1"], "grid thresholds must satisfy 0 < low < high"),
        (base + ["--config", str(tmp_path / "missing.cfg")], "cannot read config file"),
    ):
        code, _, stderr = run(capsys, *argv)
        assert code == 2 and named in stderr, argv
    out_dir = tmp_path / "out"
    detect = [
        "detect", "--input", str(frames), "--model-frames", "2",
        "--out-dir", str(out_dir),
    ]
    assert main(detect + ["--window", "4"]) == 2
    assert main(detect + ["--rebuild-every", "-1"]) == 2
    assert main(detect + ["--model-frames", "1"]) == 2
    assert main(detect + ["--subtract-shift", "9"]) == 2
    assert main(detect + ["--jobs", "0"]) == 2
    assert main(detect + ["--jobs", "2"]) == 2  # detect runs on one thread
    capsys.readouterr()
    code, _, stderr = run(capsys, *detect, "--min-area", "nan")
    assert code == 2 and "got nan" in stderr


def test_runtime_errors_exit_one(tmp_path, capsys):
    single = tmp_path / "single"
    single.mkdir()
    write_frames(single, [texture(62, 16, 16)])
    out = tmp_path / "model.pgm"
    code, _, stderr = run(
        capsys, "model", "--input", str(single), "--out", str(out),
    )
    assert code == 1
    assert "error:" in stderr

    mixed = tmp_path / "mixed"
    mixed.mkdir()
    write_frames(mixed, [texture(63, 16, 16), texture(63, 32, 32)])
    assert main(["model", "--input", str(mixed), "--out", str(out)]) == 1
    capsys.readouterr()

    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["model", "--input", str(empty), "--out", str(out)]) == 1
    capsys.readouterr()

    missing_scene = tmp_path / "nope.txt"
    report = tmp_path / "r.csv"
    assert main(["bench", "--scene", str(missing_scene), "--out", str(report)]) == 1
    capsys.readouterr()


def test_incompatible_model_exits_one(tmp_path, capsys):
    big = tmp_path / "big"
    big.mkdir()
    write_frames(big, [texture(64, 64, 64)] * 2)
    model = tmp_path / "model.pgm"
    run(capsys, "model", "--input", str(big), "--out", str(model), "--grid", "8")
    small = static_dir(tmp_path, name="small")
    out_dir = tmp_path / "out"
    code, _, stderr = run(
        capsys, "detect", "--input", str(small), "--model", str(model),
        "--out-dir", str(out_dir),
    )
    assert code == 1
    assert "frame is 32x32, smaller than the grid extent 64x64" in stderr


# --- the CLI's process ---


def glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# Runs one detect, then reports the minor page faults of a second, identical one.
WARM_FAULTS = """
import resource, sys
from blockbg.cli import main
assert main(sys.argv[1:]) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not glibc(), reason="the CLI tunes only glibc's malloc")
def test_a_warm_detect_does_not_refault_frame_memory(tmp_path):
    # By default glibc returns a 640x480 frame's freed temporaries to the
    # kernel, and every frame faults them in again: about 900 faults over
    # the second run. A fresh process is needed, because large frees made
    # earlier in this one have already raised glibc's thresholds.
    rng = np.random.default_rng(14)
    base = texture(14, 480, 640).astype(np.int16)
    arrays = []
    for t in range(8):
        px = base + rng.integers(-4, 5, size=base.shape)
        px[200:260, 40 + 60 * t : 120 + 60 * t] = 235
        arrays.append(np.clip(px, 0, 255))
    frames = tmp_path / "frames"
    frames.mkdir()
    write_frames(frames, arrays)
    argv = ["detect", "--input", str(frames), "--model-frames", "2", "--grid", "8", "--out-dir", str(tmp_path / "out")]
    src = os.path.dirname(os.path.dirname(blockbg.cli.__file__))
    done = subprocess.run(
        [sys.executable, "-c", WARM_FAULTS, *argv], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=120,
    )
    faults = int(done.stdout.split()[-1])
    assert faults < 640 * 480 // 4096, faults  # fewer than one frame's pages


class FakeMallopt:
    def __init__(self, result: int):
        self.result, self.calls = result, []

    def __call__(self, param: int, value: int) -> int:
        self.calls.append((param, value))
        return self.result


@pytest.mark.parametrize("result", (1, 0))
def test_the_trim_threshold_is_set_only_after_the_mmap_threshold(monkeypatch, result):
    # The trim threshold alone would switch off glibc's dynamic mmap
    # threshold, so it is set only once the mmap threshold was accepted.
    import ctypes

    mallopt = FakeMallopt(result)
    monkeypatch.setattr(blockbg.cli.os, "confstr", lambda name: "glibc 2.35")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: type("Libc", (), {"mallopt": mallopt})())
    blockbg.cli._keep_freed_heap.__wrapped__()
    m_trim_threshold, m_mmap_threshold = -1, -3
    assert mallopt.calls == [(m_mmap_threshold, 32 << 20), (m_trim_threshold, 256 << 20)][: 1 + result]


def test_detect_without_glibc_leaves_malloc_alone_and_writes_the_same_bytes(tmp_path, capsys, monkeypatch):
    import ctypes

    frames = mover_dir(tmp_path)
    detect = ["detect", "--input", str(frames), "--model-frames", "2", "--grid", "8", "--out-dir"]
    assert run(capsys, *detect, str(tmp_path / "glibc"))[0] == 0

    def no_such_name(name):
        raise ValueError("unrecognized configuration name")

    def no_libc(name):
        raise AssertionError("ctypes reached without glibc")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    monkeypatch.setattr(blockbg.cli, "_keep_freed_heap", blockbg.cli._keep_freed_heap.__wrapped__)
    # os.confstr raises on a platform that does not know the name, and
    # returns None where the C library defines no value for it.
    for name, confstr in (("other", no_such_name), ("unnamed", lambda name: None)):
        monkeypatch.setattr(blockbg.cli.os, "confstr", confstr)
        assert run(capsys, *detect, str(tmp_path / name))[0] == 0
    outputs = [{p.name: p.read_bytes() for p in (tmp_path / d).iterdir()} for d in ("glibc", "other", "unnamed")]
    assert outputs[0] == outputs[1] == outputs[2]
