"""Properties checked over generated inputs with hypothesis.

Every property draws a fixed, bounded set of examples (``derandomize``, no
example database), so the suite tests the same inputs on every run.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from blockbg.background import CELL_BACKFILLED, CELL_UNSETTLED, BackgroundModel, load_model, save_model
from blockbg.bench import Mover, SceneSpec, parse_scene_file, write_scene_file
from blockbg.blocks import make_grid
from blockbg.cli import _comparator_config, _config_flags, _pipeline_params, build_parser, main
from blockbg.errors import ConfigError, FrameTooSmall, PnmError, SceneSpecError
from blockbg.imaging import PREFILTERS, Frame, load_frame, save_frame

from helpers import FIXED, texture, write_frames

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


def mutated(text: bytes, draw, pieces) -> bytes:
    """``text`` after one to three edits: a byte replaced, bytes or a drawn
    piece inserted, or a span deleted."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("replace", "insert", "piece", "delete")))
        if edit == "replace" and at < len(text):
            text = text[:at] + draw(st.binary(min_size=1, max_size=1)) + text[at + 1 :]
        elif edit == "insert":
            text = text[:at] + draw(st.binary(min_size=1, max_size=3)) + text[at:]
        elif edit == "piece":
            text = text[:at] + draw(pieces) + text[at:]
        else:
            text = text[:at] + text[at + draw(st.integers(1, 4)) :]
    return text


# Header tokens a mutation may splice in: other magics, a run of zeros
# longer than int() reads by default, sizes around the 16-pixel minimum and
# past the payload, maxvals, comments and whitespace. Which pieces the fixed
# draws reach depends on their order, so each is also tried in every field
# directly, below.
HEADER_PIECE_BYTES = (
    b"P5", b"P6", b"0" * 4400, b"P2", b"15", b"16", b"17", b"0", b"-1", b"65535", b"256",
    b"254", b"99999999999999999999", b"#", b"# c\n", b"\n", b" ", b"\t",
)
HEADER_PIECES = st.sampled_from(HEADER_PIECE_BYTES)


def test_each_header_piece_in_each_field_loads_or_raises_pnm_errors(tmp_path):
    path = tmp_path / "frame.pgm"
    payload = texture(0, 16, 17).tobytes()  # 16 x 17 pixels
    for piece in HEADER_PIECE_BYTES:
        for i in range(3):
            fields = [b"16", b"17", b"255"]  # width, height, maxval
            fields[i] = piece
            path.write_bytes(b"P5\n" + b" ".join(fields) + b"\n" + payload)
            try:
                frame = load_frame(path)
            except (PnmError, FrameTooSmall):
                continue
            assert frame.width >= 16 and frame.height >= 16, (piece, i)


@FIXED
@given(st.data())
def test_mutated_pgm_headers_load_or_raise_pnm_errors(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.pgm"
        save_frame(Frame(texture(0, 16, 17)), path)
        raw = path.read_bytes()
        cut = len(raw) - 16 * 17  # the header, ending in its one whitespace byte
        head = mutated(raw[:cut], data.draw, HEADER_PIECES)
        payload = raw[cut:][: data.draw(st.integers(0, 16 * 17 * 3 + 8))]
        path.write_bytes(head + payload)
        try:
            frame = load_frame(path)
        except (PnmError, FrameTooSmall):
            return
    assert frame.width >= 16 and frame.height >= 16


# Sidecar pieces: header declarations with good and bad values, cell lines
# with good, repeated, out-of-grid and impossible fields, and line breaks.
CELL_PIECES = st.sampled_from(
    (b"# grid 2\n", b"# grid 4\n", b"# grid 0\n", b"# grid 17\n", b"# grid 99999999999\n",
     b"# built_from 0 2\n", b"# built_from 3 1\n", b"# built_from -1\n",
     b"0 0 settled 1\n", b"3 3 backfilled -1\n", b"4 0 unsettled -1\n",
     b"1 1 settled -1\n", b"0 0 moved 1\n", b"0 0 settled 2147483648\n",
     b"\n", b"#", b" ", b"-", b"\xff")
)


@FIXED
@given(st.data())
def test_mutated_cells_sidecars_load_or_raise_pnm_errors(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.pgm"
        save_model(
            BackgroundModel(
                grid=make_grid(16, 16, 4),
                pixels=texture(1, 16, 16),
                cell_status=np.array([CELL_UNSETTLED, CELL_BACKFILLED, 0, 1] * 4, dtype=np.int32).reshape(4, 4),
                built_from=(0, 2),
            ),
            path,
        )
        sidecar = Path(tmp) / "model.pgm.cells"
        sidecar.write_bytes(mutated(sidecar.read_bytes(), data.draw, CELL_PIECES))
        try:
            model = load_model(path)
        except PnmError:
            return
    assert model.cell_status.shape == (model.grid.g, model.grid.g)


# Config pieces: detect's keys with good and bad values, a key of another
# subcommand, the other model source, comment and line breaks, non-UTF-8.
CONFIG_PIECES = st.sampled_from(
    (b"method=dct\n", b"method=dctt\n", b"threshold=nan\n", b"window=4\n", b"grid=7\n",
     b"no_validate=maybe\n", b"no-validate=yes\n", b"iou=0.7\n", b"model=m.pgm\n",
     b"max_frames=99999999999999999999\n", b"=", b"#", b"\n", b"\r", b" ", b"\xff", b"\xc3")
)


@FIXED
@given(st.data())
def test_mutated_config_files_parse_or_raise_config_errors(data):
    parser, commands = build_parser()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        text = b"# detect settings\nmethod=xor\nthreshold=0.5\nxor-shift=3\nwindow=5\nno_validate=false\n"
        path.write_bytes(mutated(text, data.draw, CONFIG_PIECES))
        argv = ["detect", "--input", tmp, "--out-dir", tmp, "--model-frames", "3", "--config", str(path)]
        try:
            flags = _config_flags(path, "detect", commands)
            with contextlib.redirect_stderr(io.StringIO()):
                args = parser.parse_args(argv[:1] + flags + argv[1:])
            _comparator_config(args)
            _pipeline_params(args)
        except ConfigError:
            return
        except SystemExit as exc:  # argparse's own usage error
            assert exc.code == 2
            return
    assert args.command == "detect"


# Scene pieces: keys with bad, non-finite and out-of-range values, movers
# with too few fields or an empty size, separators, non-UTF-8.
SCENE_PIECES = st.sampled_from(
    (b"sigma=inf\n", b"sigma=nan\n", b"sigma=-1\n", b"seed=1.5\n", b"width=8\n", b"frames=1\n",
     b"mover=0,0,0,4,100,1,1\n", b"mover=1,2,3\n", b"mover=1,2,3,4,300,0,0\n", b"sigam=5\n",
     b"1e999", b"=", b",", b"#", b"\n", b" ", b"-", b"\xff", b"\xc3")
)


@FIXED
@given(st.data())
def test_mutated_scene_files_parse_or_raise_scene_errors(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.txt"
        write_scene_file(
            SceneSpec(64, 48, 10, (Mover(-8, 10, 12, 8, 220, 2, 0), Mover(5, 5, 6, 6, 30, 0, 1)), 5.0, 7),
            path,
        )
        path.write_bytes(mutated(path.read_bytes(), data.draw, SCENE_PIECES))
        try:
            spec = parse_scene_file(path)
        except SceneSpecError:
            return
    assert spec.width >= 16 and spec.height >= 16 and math.isfinite(spec.noise_sigma)
