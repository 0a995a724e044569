"""Properties checked over generated inputs with hypothesis.

Every property draws a fixed, bounded set of examples (``derandomize``, no
example database), so the suite tests the same inputs on every run.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blockbg.background import CELL_BACKFILLED, CELL_UNSETTLED, BackgroundModel, load_model, save_model
from blockbg.bench import Mover, SceneSpec, parse_scene_file, write_scene_file
from blockbg.blocks import make_grid
from blockbg.cli import main
from blockbg.imaging import PREFILTERS

from helpers import write_frames

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=30)

# Values of detect's options as text, each valid on its own and together.
floats = st.floats(min_value=0, max_value=40, allow_nan=False).map(repr)
DETECT_OPTIONS = {
    "method": st.sampled_from(("absdiff", "entropy", "xor", "dct")),
    "threshold": st.one_of(floats, st.integers(0, 40).map(str)),
    "xor_shift": st.integers(0, 7).map(str),
    "dct_k": st.integers(1, 30).map(str),
    "grid": st.sampled_from(("auto", "8", "16")),
    "grid_thresholds": st.sampled_from(("0.01,0.02", "0.05,0.2", "1e-3,5")),
    "prefilter": st.sampled_from(PREFILTERS),
    "max_frames": st.integers(2, 9).map(str),
    "subtract_shift": st.integers(0, 7).map(str),
    "window": st.sampled_from(("3", "5", "7")),
    "min_area": floats,
    "no_validate": st.booleans(),
    "aspect_min": st.sampled_from(("0.2", "0.5")),
    "aspect_max": st.sampled_from(("1", "4.0")),
    "fill_min": st.sampled_from(("0.1", "1")),
    "area_min_frac": st.sampled_from(("1e-4", "0.001")),
    "area_max_frac": st.sampled_from(("0.5", "1.0")),
    "rebuild_every": st.integers(0, 4).map(str),
}
TRUE, FALSE = ("true", "yes", "1", "ON"), ("false", "no", "0", "Off")


def moving_frames(directory: Path) -> Path:
    """A 48x32 background with a bright rectangle crossing it."""
    directory.mkdir()
    arrays = []
    for t in range(8):
        px = np.full((32, 48), 96, dtype=np.uint8)
        px[8:14, 2 + 3 * t : 12 + 3 * t] = 220
        arrays.append(px)
    write_frames(directory, arrays)
    return directory


@FIXED
@given(
    st.fixed_dictionaries({}, optional=DETECT_OPTIONS),
    st.sampled_from(TRUE),
    st.sampled_from(FALSE),
)
def test_config_file_and_flags_echo_identical_bytes(options, true, false):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        frames = moving_frames(tmp / "frames")
        flags, lines = [], ["min_coverage=0.5", "iou=0.7"]  # other subcommands' keys
        for key, value in options.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(value, bool):
                flags += [flag] if value else []
                lines.append(f"{key}={true if value else false}")
            else:
                flags += [flag, value]
                lines.append(f"{flag[2:]} = {value}")  # a key may be spelt as its flag
        config = tmp / "run.cfg"
        config.write_text("\n".join(lines) + "\n")
        base = ["detect", "--input", str(frames), "--model-frames", "3"]
        from_flags = [*base, "--out-dir", str(tmp / "flags"), *flags]
        from_file = [*base, "--out-dir", str(tmp / "file"), "--config", str(config)]
        assert main(from_flags) == 0, from_flags
        assert main(from_file) == 0, lines
        for name in ("config.txt", "objects.csv"):
            assert (tmp / "flags" / name).read_bytes() == (tmp / "file" / name).read_bytes(), name


@st.composite
def models(draw) -> BackgroundModel:
    g = draw(st.integers(1, 8))
    side = st.integers(-(-16 // g), -(-16 // g) + 3)  # frames are at least 16x16
    bw, bh = draw(side), draw(side)
    status = draw(
        st.lists(
            st.one_of(
                st.sampled_from((CELL_UNSETTLED, CELL_BACKFILLED)),
                st.integers(0, np.iinfo(np.int32).max),
            ),
            min_size=g * g,
            max_size=g * g,
        )
    )
    pixels = draw(st.binary(min_size=g * g * bw * bh, max_size=g * g * bw * bh))
    start = draw(st.integers(0, 1000))
    end = draw(st.integers(start, start + 1000))
    return BackgroundModel(
        grid=make_grid(g * bw, g * bh, g),
        pixels=np.frombuffer(pixels, dtype=np.uint8).reshape(g * bh, g * bw),
        cell_status=np.array(status, dtype=np.int32).reshape(g, g),
        built_from=(start, end),
    )


@FIXED
@given(models())
def test_save_load_model_round_trips(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.pgm"
        save_model(model, path)
        loaded = load_model(path)
    assert loaded.grid == model.grid
    assert np.array_equal(loaded.pixels, model.pixels)
    assert np.array_equal(loaded.cell_status, model.cell_status)
    assert loaded.built_from == model.built_from


movers = st.builds(
    Mover,
    x=st.integers(-500, 500),
    y=st.integers(-500, 500),
    w=st.integers(1, 200),
    h=st.integers(1, 200),
    intensity=st.integers(0, 255),
    dx=st.integers(-20, 20),
    dy=st.integers(-20, 20),
)
scenes = st.builds(
    SceneSpec,
    width=st.integers(16, 2000),
    height=st.integers(16, 2000),
    frame_count=st.integers(2, 5000),
    movers=st.lists(movers, max_size=4).map(tuple),
    noise_sigma=st.floats(min_value=0, max_value=1e3, allow_nan=False),
    seed=st.integers(0, 2**32),
)


@FIXED
@given(scenes)
def test_scene_file_round_trips(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.txt"
        write_scene_file(spec, path)
        assert parse_scene_file(path) == spec
