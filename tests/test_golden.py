"""Golden outputs: the CLI writes the same bytes on the committed scenes.

Each scene file in ``tests/golden`` is rendered to a frame directory and
run through ``model --max-frames 8``, ``detect --model`` (on the saved model),
``detect --model-frames 10 --rebuild-every 5`` and ``bench``. The SHA-256
of every file those commands write must equal the digest recorded in
``tests/golden/digests.json``. A change that moves a digest changes
behaviour and must say why. Every DCT score of a build over each scene,
and over perfbench's rebuild-320 scene and detect-720p model scene at seed
0, must also keep 1e-12 of its threshold's size clear of it, so the
verdicts do not hang on the BLAS kernel's last bits; where NumPy's BLAS is
an OpenBLAS that picks its kernel at run time, the digests must also hold
under its oldest x86-64 kernel. Re-record with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import blockbg
from blockbg.background import build_srbi
from blockbg.bench import gen_scene, parse_scene_file
from blockbg.blocks import GRID_CHOICES, make_grid
from blockbg.cli import main
from blockbg.comparators import Method, default_config
from blockbg.imaging import save_frame

from helpers import record_score_calls

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "digests.json"
SCENES = ("reference_sigma5", "mover_from_start")
BLAS = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})


def scene_outputs(name: str, root: Path) -> dict[str, str]:
    """Run the four commands on one scene; SHA-256 of each output file."""
    scene = GOLDEN / f"{name}.scene"
    frames = root / "frames"
    frames.mkdir(parents=True)
    for t, frame in enumerate(gen_scene(parse_scene_file(scene)).frames):
        save_frame(frame, frames / f"{t:06d}.pgm")
    model = root / "model" / "model.pgm"
    model.parent.mkdir()
    (root / "bench").mkdir()
    commands = (
        ["model", "--input", frames, "--out", model, "--max-frames", "8"],
        ["detect", "--input", frames, "--model", model, "--out-dir", root / "detect_model"],
        ["detect", "--input", frames, "--model-frames", "10", "--rebuild-every", "5",
         "--out-dir", root / "detect_rebuild"],
        ["bench", "--scene", scene, "--out", root / "bench" / "report.csv"],
    )
    for argv in commands:
        assert main([str(a) for a in argv]) == 0, argv
    return {
        f"{name}/{path.relative_to(root).as_posix()}": hashlib.sha256(path.read_bytes()).hexdigest()
        for sub in ("model", "detect_model", "detect_rebuild", "bench")
        for path in sorted((root / sub).iterdir())
    }


@pytest.mark.parametrize("name", SCENES)
def test_outputs_match_recorded_digests(name, tmp_path, capsys):
    want = {k: v for k, v in json.loads(DIGESTS.read_text()).items() if k.startswith(f"{name}/")}
    got = scene_outputs(name, tmp_path)
    capsys.readouterr()
    assert sorted(got) == sorted(want)
    changed = [k for k in want if got[k] != want[k]]
    assert not changed, f"{len(changed)} output(s) changed, first {changed[0]}"


def golden_outputs() -> dict[str, str]:
    """SHA-256 of every output of every golden scene, keyed as in digests.json."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in SCENES:
            digests.update(scene_outputs(name, Path(tmp) / name))
    return digests


@pytest.mark.skipif(
    "DYNAMIC_ARCH" not in BLAS.get("openblas configuration", ""),
    reason="NumPy's BLAS is not an OpenBLAS that picks its kernel at run time",
)
def test_outputs_match_recorded_digests_under_prescott(tmp_path):
    # OPENBLAS_CORETYPE is read once, when OpenBLAS loads: rerun the scenes
    # in a fresh interpreter that loads it with the Prescott kernel.
    got = tmp_path / "digests.json"
    code = "import json, pathlib, sys, test_golden; pathlib.Path(sys.argv[1]).write_text(json.dumps(test_golden.golden_outputs()))"
    src = str(Path(blockbg.__file__).parents[1])  # the package under test, wherever it was imported from
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": os.pathsep.join((src, str(GOLDEN.parent)))}
    run = subprocess.run([sys.executable, "-c", code, str(got)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(got.read_text()) == json.loads(DIGESTS.read_text())


# perfbench's scenes at seed 0, as its runs record them; no digest covers
# them. rebuild-320's only DCT scores are its inline g = 32 build's and its
# rebuilds', and every rebuild window there starts at frame 0, so a build
# over all its frames scores each of them. detect-720p builds its g = 16
# model over all 8 frames of its model scene.
REBUILD_320 = Path(__file__).parent / "rebuild-320-0.scene"
DETECT_720P_MODEL = Path(__file__).parent / "detect-720p-0-model.scene"


@pytest.mark.parametrize(
    "path, grids",
    [
        *((GOLDEN / f"{name}.scene", GRID_CHOICES) for name in SCENES),
        (REBUILD_320, (32,)),
        (DETECT_720P_MODEL, (16,)),
    ],
    ids=[*SCENES, "rebuild-320-0", "detect-720p-0-model"],
)
def test_dct_scores_keep_clear_of_the_threshold(path, grids, monkeypatch):
    # A DCT score's last bits come from the BLAS kernel; the golden verdicts
    # hold on every kernel only while no score sits on the threshold. The
    # other scores are exact integer ratios, so their ties are kernel-free.
    cfg = default_config(Method.DCT)
    frames = gen_scene(parse_scene_file(path)).frames
    calls = record_score_calls(monkeypatch)
    for g in grids:
        calls.clear()
        build_srbi(frames, make_grid(frames[0].width, frames[0].height, g), cfg, len(frames))
        scores = np.concatenate([call.scores for call in calls])
        margin = np.min(np.abs(scores - cfg.threshold)) / cfg.threshold
        assert margin >= 1e-12, (g, margin)


if __name__ == "__main__":
    digests = golden_outputs()
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests to {DIGESTS}", file=sys.stderr)
