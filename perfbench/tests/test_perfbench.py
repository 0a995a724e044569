"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
from blockbg import background  # noqa: E402
from blockbg.bench import Mover, SceneSpec, gen_scene  # noqa: E402
from blockbg.blocks import make_grid  # noqa: E402
from blockbg.comparators import default_config  # noqa: E402
from blockbg.imaging import save_frame  # noqa: E402
from tracing import METHODS, cells_scored, check_spans, layer_metrics, tail  # noqa: E402
from workloads import DETECT_SPANS  # noqa: E402

TINY = SceneSpec(
    64, 48, 12,
    movers=(Mover(-10, 8, 12, 8, 230, 3, 0), Mover(70, 30, 10, 10, 25, -2, 0)),
    noise_sigma=5.0, seed=1,
)


def test_cells_scored_matches_a_count_of_comparisons(monkeypatch):
    frames = gen_scene(TINY).frames
    real = background.compare
    calls = []

    def counting(a, b, cfg):
        calls.append(1)
        return real(a, b, cfg)

    monkeypatch.setattr(background, "compare", counting)
    saw_unsettled = False
    for method in METHODS:
        for g, max_frames in ((4, 150), (8, 150), (8, 3)):
            calls.clear()
            model = background.build_srbi(
                frames, make_grid(64, 48, g), default_config(method), max_frames=max_frames)
            saw_unsettled |= bool((model.cell_status < 0).any())
            assert cells_scored(model.cell_status, model.built_from) == len(calls), (method, g)
    assert saw_unsettled


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert tail(range(30)) == (19.0, 100.0 * 19 / 29, 30)
    assert tail(range(11)) == (0.0, 0.0, 11)
    assert tail([5.0, 3.0]) == (3.0, 0.0, 2)
    assert tail([]) == (0.0, 0.0, 0)


def test_check_spans_reports_missing_and_forbidden_layers():
    spans = [
        ["cli.main", 0.0, 1.0, None, -1, {}],
        ["background.build_srbi", 0.1, 0.2, 0, -1, {"method": "dct", "g": 32}],
    ]
    assert check_spans(spans, ("cli.main", "background.build_srbi@dct.g32"), ()) == []
    problems = check_spans(
        spans, ("background.build_srbi@dct.g8", "foreground.subtract"), ("background.build_srbi",))
    assert len(problems) == 3


def test_calibrated_timings_do_not_move_with_the_machine_speed():
    def result(slowdown):
        passes = [
            [{"wall_s": slowdown * w, "frames": 3, "first_output_s": slowdown * w / 3,
              "argv": ["detect"], "error": None}]
            for w in (1.0, 1.2, 0.9)
        ]
        probes = [[slowdown * 0.01 * f] * 4 for f in (1.0, 1.2, 0.9)]
        return {"passes": passes, "probes": probes, "probe_ref_s": 0.01,
                "peak_rss_kib": 1024, "setup": (slowdown * 0.2, slowdown * 0.01)}

    class Workload:
        commands = [{"kind": "detect"}]

        def quality(self):
            return 1.0, 1.0

    def setup(slowdown):
        return [(slowdown * s, slowdown * 0.01) for s in (0.1, 0.3, 0.2, 0.25)]

    fast, _ = run.end_to_end(Workload(), result(1.0), setup(1.0))
    slow, views = run.end_to_end(Workload(), result(1.6), setup(1.6))
    assert fast["frames_per_ref_s"] == pytest.approx(3.0)
    assert fast["first_output_ref_s"] == pytest.approx(1 / 3)
    assert fast["setup_s"] == pytest.approx(0.2 * calibrate.PART_REF_S["flood"] / 0.01)
    for name in ("frames_per_ref_s", "first_output_ref_s", "setup_s"):
        assert slow[name] == pytest.approx(fast[name])
    assert views["uncalibrated.frames_per_s"][0] == pytest.approx(3.0 / 1.6)


def test_sampler_probes_during_a_command_and_keeps_only_those_inside_it():
    sampler = calibrate.Sampler(calibrate.Probe(("flood", "arrays", "stream")))
    sampler.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * calibrate.INTERVAL_S:
            pass
        t1 = time.perf_counter()
    finally:
        sampler.stop()
    sampler.sample()
    inside = sampler.between(t0, t1)
    assert len(inside) >= 2
    assert sampler.samples[-1] not in inside
    assert all(t0 <= s < e <= t1 for s, e in inside)


@pytest.fixture
def tiny_plan(tmp_path):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for i, frame in enumerate(gen_scene(TINY).frames):
        save_frame(frame, frames_dir / f"{i:06d}.pgm")
    out_detect = str(tmp_path / "out" / "detect")
    out_model = str(tmp_path / "out" / "model")
    model = os.path.join(out_model, "model.pgm")
    commands = [
        {
            "kind": "detect",
            "argv": ["detect", "--input", str(frames_dir), "--model-frames", "4",
                     "--rebuild-every", "3", "--grid", "8", "--out-dir", out_detect],
            "input": str(frames_dir), "out": out_detect, "frames": TINY.frame_count,
            "first_output": os.path.join(out_detect, "mask_000000.pgm"),
        },
        {
            "kind": "model",
            "argv": ["model", "--input", str(frames_dir), "--out", model,
                     "--method", "xor", "--grid", "8"],
            "input": str(frames_dir), "out": out_model, "frames": TINY.frame_count,
            "first_output": model,
        },
    ]
    return commands, str(tmp_path)


def test_traced_and_untraced_runs_execute_identical_argv(tiny_plan):
    commands, work = tiny_plan
    plan = {"commands": commands, "seconds": 0, "probe": ["flood"]}
    traced = run.run_child(dict(plan, trace=True), work, "traced")
    untraced = run.run_child(dict(plan, trace=False), work, "untraced")

    def argvs(passes):
        return [[r["argv"] for r in p] for p in passes]

    # with seconds 0 an untraced process makes one pass; a traced one
    # makes a traced pass and an untraced pass
    expected = [[c["argv"] for c in commands]]
    assert argvs(untraced["passes"]) == expected
    assert argvs(traced["passes"][0::2]) == argvs(traced["passes"][1::2]) == expected
    records = [r for c in (traced, untraced) for p in c["passes"] for r in p]
    assert all(r["error"] is None for r in records)
    # outputs are byte-identical with tracing on and off
    assert len({r["digest"] for r in records if r["argv"][0] == "detect"}) == 1
    assert "spans" not in untraced
    # the machine's speed is sampled in untraced passes only, at least once each
    assert traced["probes"] == []
    assert len(untraced["probes"]) == len(untraced["passes"])
    assert all(untraced["probes"])
    assert check_spans(traced["spans"], DETECT_SPANS + ("background.update_srbi",), ()) == []
    # only the first, traced, pass recorded spans
    metrics = layer_metrics(traced["spans"], 1)
    assert metrics["pipeline.detect_frame.samples"][0] == TINY.frame_count
    assert metrics["imaging.frames_loaded"][0] == 2 * TINY.frame_count  # two commands


def test_a_reference_digest_mismatch_fails_the_command(tiny_plan):
    commands, work = tiny_plan
    plan = {"commands": [dict(commands[1], reference="0" * 64)], "seconds": 0, "trace": False,
            "probe": ["flood"]}
    (record,) = run.run_child(plan, work, "mismatch")["passes"][0]
    assert record["error"] == "output digest differs from the reference"
