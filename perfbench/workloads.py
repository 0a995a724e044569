"""The benchmark's three workloads: scenes made from a seed, the CLI
commands run on them, and the quality checks on their outputs.

Each builder synthesizes its scene, records it with
``bench.write_scene_file``, writes the frames as PGM files and returns a
``Workload`` whose commands touch only those files (plus, for
detect-720p, a model saved during set-up). All scenes use sigma=5 noise
and default thresholds.

The seed drives ``blockbg.bench.gen_scene``: background texture and pixel
noise, so every pixel differs between seeds. The layout (mover sizes,
tracks, intensities, entry times) is drawn once from a fixed
``random.Random(LAYOUT_SEED)``, independent of the program under test:
when the layout followed the seed, the work per run (pending cells,
objects per frame) moved the metrics by 10-25% between seeds, more than
the bounds allow.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import random
import time
from dataclasses import dataclass, replace
from typing import Callable

from blockbg import cli
from blockbg.background import load_model
from blockbg.bench import Mover, SceneSpec, evaluate, gen_scene, truth_boxes_for, write_scene_file
from blockbg.foreground import DetectedObject, ForegroundMask, frame_to_mask
from blockbg.imaging import load_frame, save_frame
from blockbg.pipeline import PipelineParams, detect_frame
from blockbg.validation import VEHICLE
from tracing import GRIDS, METHODS

SIGMA = 5.0
LAYOUT_SEED = 0
# Mover intensities at least 3 sigma away from the subtraction buckets'
# edges (64, 128, 192 at the default shift 6) and from the background's
# 72..120, so noise never splits a mover's mask.
INTENSITIES = (25, 40, 160, 225, 235)

# Layers each workload must record a span for; "name@method.gG" asks for a
# build with that comparator and grid.
DETECT_SPANS = (
    "cli.main", "imaging.load_sequence", "imaging.load_frame", "imaging.save_frame",
    "pipeline.run_detection", "pipeline.detect_frame", "foreground.make_mask",
    "foreground.subtract", "foreground.median_filter_mask",
    "foreground.connected_components", "validation.classify_all", "cli.objects_csv",
)
FOREGROUND_SPANS = (
    "pipeline.run_detection", "pipeline.detect_frame", "foreground.make_mask",
    "foreground.subtract", "foreground.median_filter_mask",
    "foreground.connected_components", "validation.classify_all", "cli.objects_csv",
)


@dataclass
class Workload:
    commands: list[dict]
    expect: tuple[str, ...]
    forbid: tuple[str, ...]
    # Scores the outputs the last pass left on disk: (px_f1, det_acc).
    quality: Callable[[], tuple[float, float]]
    gen_scene_s: float
    scenes: list[str]
    # Parts of the speed probe that match where the commands spend their
    # time (see calibrate.py).
    probe: tuple[str, ...]


def _write_frames(frames, directory: str) -> None:
    os.makedirs(directory)
    for i, frame in enumerate(frames):
        save_frame(frame, os.path.join(directory, f"{i:06d}.pgm"))


def _timed_gen(spec: SceneSpec):
    t0 = time.perf_counter()
    scene = gen_scene(spec)
    return scene, time.perf_counter() - t0


def _record_scene(spec: SceneSpec, scene_dir: str, name: str) -> str:
    os.makedirs(scene_dir, exist_ok=True)
    path = os.path.join(scene_dir, name)
    write_scene_file(spec, path)
    return path


def _detect_command(argv: list[str], input_dir: str, out: str, frames: int) -> dict:
    return {
        "kind": "detect",
        "argv": ["detect", "--input", input_dir, *argv, "--out-dir", out],
        "input": input_dir,
        "out": out,
        "frames": frames,
        "first_output": os.path.join(out, "mask_000000.pgm"),
    }


def _score_detect(out: str, truth, spec: SceneSpec, first: int):
    """px_f1 and det_acc of a detect command's masks and objects.csv
    against the scene truth from frame ``first`` on."""
    masks = [
        frame_to_mask(load_frame(os.path.join(out, f"mask_{i:06d}.pgm")))
        for i in range(len(truth))
    ]
    h, w = masks[0].height, masks[0].width
    objects = [[] for _ in masks]
    with open(os.path.join(out, "objects.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            if row["label"] == VEHICLE:
                x, y, bw, bh, area = (int(row[k]) for k in ("x", "y", "w", "h", "area"))
                objects[int(row["frame_index"])].append(
                    DetectedObject(x, y, bw, bh, area, 0.0, 0.0, VEHICLE, float(row["score"]))
                )
    truth_masks = [ForegroundMask(t.bits[:h, :w]) for t in truth]
    boxes = truth_boxes_for(spec, w, h, PipelineParams())[first:]
    m = evaluate(masks, objects, truth_masks, boxes)
    return m.pixel_f1, m.det_accuracy


def detect_720p(seed: int, work: str, scene_dir: str) -> Workload:
    """1280x720 detect against a saved DCT g=16 model.

    Three 256x160 constant-intensity movers, one per horizontal lane, so
    they never overlap and stay wholly on screen: 13.3% of every frame is
    foreground whatever the seed. The model is built during set-up from
    frames without the movers, so the command never builds one.
    """
    model_frames, frames = 8, 3
    width, height, w, h = 1280, 720, 256, 160
    r = random.Random(LAYOUT_SEED)
    movers = []
    for lane in range(3):
        dx = r.randint(4, 12) * r.choice((-1, 1))
        travel = dx * (frames - 1)
        x = r.randint(max(0, -travel), width - w - max(0, travel))
        y = lane * (height // 3) + r.randint(0, height // 3 - h)
        # positioned at x when the first detect frame is rendered
        movers.append(Mover(x - dx * model_frames, y, w, h, r.choice(INTENSITIES), dx, 0))
    spec = SceneSpec(width, height, model_frames + frames, tuple(movers), SIGMA, seed)
    empty = replace(spec, movers=(), frame_count=model_frames)
    scene, t_scene = _timed_gen(spec)
    background, t_background = _timed_gen(empty)

    model_dir = os.path.join(work, "model_frames")
    input_dir = os.path.join(work, "frames")
    _write_frames(background.frames, model_dir)
    _write_frames(scene.frames[model_frames:], input_dir)
    truth = scene.truth_masks[model_frames:]
    del scene, background

    model = os.path.join(work, "model", "model.pgm")
    os.makedirs(os.path.dirname(model))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["model", "--input", model_dir, "--out", model,
                       "--method", "dct", "--grid", "16"])
    if rc != 0:
        raise RuntimeError(f"building the detect-720p model failed with exit code {rc}")

    out = os.path.join(work, "out", "detect")
    command = _detect_command(["--model", model], input_dir, out, frames)
    return Workload(
        commands=[command],
        expect=DETECT_SPANS + ("background.load_model",),
        forbid=("background.build_srbi", "background.update_srbi"),
        quality=lambda: _score_detect(out, truth, spec, model_frames),
        gen_scene_s=t_scene + t_background,
        probe=("flood",),  # connected_components is ~93% of detect_frame
        scenes=[
            _record_scene(spec, scene_dir, f"detect-720p-{seed}.txt"),
            _record_scene(empty, scene_dir, f"detect-720p-{seed}-model.txt"),
        ],
    )


def model_720p(seed: int, work: str, scene_dir: str) -> Workload:
    """`blockbg model` for each comparator at g=8 and g=32 on 1280x720.

    Forty small movers are on screen from frame 0 and cross at different
    speeds, so DCT at g=8 keeps cells pending for the whole sequence while
    entropy and xor settle within a few pairs.
    """
    frames, count = 60, 40
    width, height = 1280, 720
    r = random.Random(LAYOUT_SEED)
    movers = []
    for _ in range(count):
        w, h = r.randint(36, 72), r.randint(28, 48)
        movers.append(Mover(
            r.randint(0, width - w), r.randint(0, height - h), w, h,
            r.choice(INTENSITIES), r.randint(1, 8) * r.choice((-1, 1)), r.choice((-1, 0, 0, 1)),
        ))
    spec = SceneSpec(width, height, frames, tuple(movers), SIGMA, seed)
    scene, t_scene = _timed_gen(spec)
    input_dir = os.path.join(work, "frames")
    _write_frames(scene.frames, input_dir)
    # Quality: each saved model, used to detect on one mid-sequence frame.
    probe = frames // 2
    probe_frame, probe_truth = scene.frames[probe], scene.truth_masks[probe]
    del scene

    commands = []
    for method in METHODS:
        for g in GRIDS:
            out = os.path.join(work, "out", f"{method}-g{g}")
            model = os.path.join(out, "model.pgm")
            commands.append({
                "kind": "model",
                "argv": ["model", "--input", input_dir, "--out", model,
                         "--method", method, "--grid", str(g)],
                "input": input_dir,
                "out": out,
                "frames": frames,
                "first_output": model,
            })

    def quality():
        params = PipelineParams()
        masks, objects, truths, boxes = [], [], [], []
        for cmd in commands:
            model = load_model(cmd["first_output"])
            mask, objs = detect_frame(model, probe_frame, params)
            masks.append(mask)
            objects.append([o for o in objs if o.label == VEHICLE])
            truths.append(ForegroundMask(probe_truth.bits[: mask.height, : mask.width]))
            boxes.append(truth_boxes_for(spec, mask.width, mask.height, params)[probe])
        m = evaluate(masks, objects, truths, boxes)
        return m.pixel_f1, m.det_accuracy

    return Workload(
        commands=commands,
        expect=(
            "cli.main", "imaging.load_sequence", "imaging.load_frame",
            "imaging.save_frame", "background.save_model",
            *(f"background.build_srbi@{m}.g{g}" for m in METHODS for g in GRIDS),
        ),
        forbid=FOREGROUND_SPANS + ("background.load_model", "background.update_srbi"),
        quality=quality,
        gen_scene_s=t_scene,
        scenes=[_record_scene(spec, scene_dir, f"model-720p-{seed}.txt")],
        # per-cell Python loops, comparator arithmetic, and whole 720p
        # sequences held in memory
        probe=("flood", "arrays", "stream"),
    )


def rebuild_320(seed: int, work: str, scene_dir: str) -> Workload:
    """320x240 detect with an inline DCT g=32 model rebuilt every 5 frames.

    The whole 100-frame sequence is loaded and its masks held, so its
    memory shows in peak_rss_mib; it is no longer so that a 30 s run
    still makes about ten passes. Light traffic: small movers enter from
    either side, staggered over the whole sequence, about eight on screen
    at once, and one slow wide mover ghosts into the model; 4% of each
    frame is foreground.
    """
    frames, count = 100, 16
    width, height = 320, 240
    r = random.Random(LAYOUT_SEED)
    movers = []
    for i in range(count):
        # w - speed < 10 = block width at g=32, so no block lies wholly
        # inside a small mover in two consecutive frames: whether a block
        # it partly covers ghosted would depend on the noise, which made
        # det_acc jump between seeds.
        w, h, speed = r.randint(12, 15), r.randint(10, 20), r.randint(6, 8)
        enter = i * frames // count + r.randrange(frames // count)
        x, dx = (-w - speed * enter, speed) if r.random() < 0.5 else (width + speed * enter, -speed)
        movers.append(Mover(x, r.randint(0, height - h), w, h, r.choice(INTENSITIES), dx, 0))
    # One slow, wide mover on screen from frame 0: blocks lie wholly inside
    # it for many consecutive frames, so a build settles them into the
    # model as a ghost. Every rebuild starts at frame 0 (the CLI rebuilds
    # from up to 150 trailing frames), so the ghost stays in each model it
    # adopts. The mover's edges sit on the g=32 grid of 10x7 blocks, so
    # the same cells ghost in all but a few seeds.
    movers.append(Mover(109, 70, 41, 28, 25, 2, 0))
    spec = SceneSpec(width, height, frames, tuple(movers), SIGMA, seed)
    scene, t_scene = _timed_gen(spec)
    input_dir = os.path.join(work, "frames")
    _write_frames(scene.frames, input_dir)
    truth = scene.truth_masks
    del scene

    out = os.path.join(work, "out", "detect")
    command = _detect_command(
        ["--model-frames", "30", "--rebuild-every", "5", "--grid", "32"], input_dir, out, frames
    )
    return Workload(
        commands=[command],
        expect=DETECT_SPANS + ("background.build_srbi@dct.g32", "background.update_srbi"),
        forbid=("background.load_model", "background.save_model"),
        quality=lambda: _score_detect(out, truth, spec, 0),
        gen_scene_s=t_scene,
        scenes=[_record_scene(spec, scene_dir, f"rebuild-320-{seed}.txt")],
        # connected_components, and DCT builds and masks on small frames
        probe=("flood", "arrays"),
    )


WORKLOADS = {
    "detect-720p": detect_720p,
    "model-720p": model_720p,
    "rebuild-320": rebuild_320,
}
