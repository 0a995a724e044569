"""Command-line interface.

Subcommands: model (build + save an SRBI), detect (masks + objects CSV),
bench (four-method synthetic comparison), entropy (per-frame entropy,
grid suggestion). Exit codes: 0 success, 1 runtime failure, 2 usage or
configuration error. Option values resolve as CLI flag > config file >
built-in default, and the effective configuration is echoed to a text
file next to the primary output so a run can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections import deque
from collections.abc import Iterator
from itertools import chain, islice
from pathlib import Path

from . import __version__
from .background import (
    CELL_UNSETTLED,
    DEFAULT_MAX_FRAMES,
    BackgroundModel,
    backfill,
    build_srbi,
    coverage,
    load_model,
    save_model,
    update_srbi,
)
from .bench import (
    bench_methods,
    format_report,
    parse_scene_file,
    write_report_csv,
)
from .blocks import DELTA_H_HIGH, DELTA_H_LOW, entropy_of, grid_for_delta
from .comparators import (
    DEFAULT_DCT_KEEP,
    DEFAULT_THRESHOLDS,
    DEFAULT_XOR_SHIFT,
    ComparatorConfig,
    Method,
)
from .errors import ConfigError, PipelineError, SceneSpecError
from .foreground import (
    DEFAULT_SUBTRACT_SHIFT,
    DEFAULT_WINDOW,
    mask_to_frame,
)
from .imaging import DEFAULT_PATTERN, Frame, load_sequence, prefilter, save_frame
from .pipeline import PipelineParams, resolve_grid, run_detection
from .validation import HeuristicParams

_METHODS = tuple(m.value for m in Method)

DEFAULT_REBUILD_EVERY = 300


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; CLI flags win")


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="directory of frames")
    # argparse expands "%" in help text, so the default's %06d must be doubled
    p.add_argument(
        "--pattern",
        help=f"frame filename pattern (default {DEFAULT_PATTERN.replace('%', '%%')})",
    )


def _add_model_knobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=_METHODS, help="block comparator (default dct)")
    p.add_argument("--threshold", type=float, help="static/dynamic score threshold")
    p.add_argument("--xor-shift", type=int, help=f"XOR quantization shift (default {DEFAULT_XOR_SHIFT})")
    p.add_argument("--dct-k", type=int, help=f"DCT coefficients kept (default {DEFAULT_DCT_KEEP})")
    p.add_argument("--grid", help="grid granularity: auto, 8, 16 or 32 (default auto)")
    p.add_argument("--grid-thresholds", help=f"entropy-delta bands LOW,HIGH (default {DELTA_H_LOW},{DELTA_H_HIGH})")
    p.add_argument("--prefilter", choices=("none", "median3"), help="denoise frames before use (default none)")
    p.add_argument("--max-frames", type=int, help=f"frame budget for building (default {DEFAULT_MAX_FRAMES})")


def _add_detect_knobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--subtract-shift", type=int, help=f"quantization shift for subtraction (default {DEFAULT_SUBTRACT_SHIFT})")
    p.add_argument("--window", type=int, help=f"median filter window, odd >= 3 (default {DEFAULT_WINDOW})")
    p.add_argument("--min-area", type=float, help="minimum object area in pixels (default 0.1%% of cropped area)")
    p.add_argument("--no-validate", action="store_true", help="skip the vehicle heuristic; label everything vehicle")
    p.add_argument("--aspect-min", type=float, help="heuristic: min w/h (default 0.5)")
    p.add_argument("--aspect-max", type=float, help="heuristic: max w/h (default 4.0)")
    p.add_argument("--fill-min", type=float, help="heuristic: min bbox fill (default 0.4)")
    p.add_argument("--area-min-frac", type=float, help="heuristic: min area fraction (default 0.001)")
    p.add_argument("--area-max-frac", type=float, help="heuristic: max area fraction (default 0.5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockbg",
        description="Block-based background modeling and moving-object detection.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="build a background model from a frame sequence")
    _add_input(p_model)
    _add_model_knobs(p_model)
    p_model.add_argument("--out", required=True, help="output model PGM path")
    p_model.add_argument("--no-backfill", action="store_true", help="leave unsettled cells empty")
    p_model.add_argument("--min-coverage", type=float, help="fail below this coverage (default 1.0)")
    _add_common(p_model)

    p_detect = sub.add_parser("detect", help="detect moving objects against a model")
    _add_input(p_detect)
    group = p_detect.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="saved model PGM (with .cells sidecar)")
    group.add_argument("--model-frames", type=int, help="build the model inline from the first N input frames")
    _add_model_knobs(p_detect)
    _add_detect_knobs(p_detect)
    p_detect.add_argument("--rebuild-every", type=int, help=f"rebuild the inline model every N frames (default {DEFAULT_REBUILD_EVERY}, 0 disables)")
    p_detect.add_argument("--out-dir", required=True, help="directory for masks and objects.csv")
    _add_common(p_detect)

    p_bench = sub.add_parser("bench", help="compare all four methods on a synthetic scene")
    p_bench.add_argument("--scene", required=True, help="scene description file")
    p_bench.add_argument("--out", required=True, help="output report CSV path")
    p_bench.add_argument("--iou", type=float, help="object match IoU threshold (default 0.5)")
    _add_detect_knobs(p_bench)
    p_bench.add_argument("--grid", help="grid granularity: auto, 8, 16 or 32 (default auto)")
    p_bench.add_argument("--max-frames", type=int, help=f"frame budget for building (default {DEFAULT_MAX_FRAMES})")
    p_bench.add_argument("--jobs", type=int, help="worker threads over methods (default 1)")
    _add_common(p_bench)

    p_entropy = sub.add_parser("entropy", help="print per-frame entropy (and grid choice for a pair)")
    _add_input(p_entropy)
    p_entropy.add_argument("--grid-thresholds", help="entropy-delta bands LOW,HIGH")
    _add_common(p_entropy)

    # A config file may set any subcommand's option, so one file serves all.
    keys = {a.dest for p in sub.choices.values() for a in p._actions} - {"help"}
    parser.set_defaults(config_keys=frozenset(keys))
    return parser


def _read_config_file(path: str, known) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {ln}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key.replace("-", "_") not in known:
            raise ConfigError(f"config line {ln}: unknown key {key!r}")
        cfg[key.replace("-", "_")] = value
    return cfg


_BOOL_KEYS = {"no_validate", "no_backfill"}


def _coerce(key: str, value: str):
    if key in _BOOL_KEYS:
        lowered = value.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key}: expected a boolean, got {value!r}")
    return value


class _Resolver:
    """CLI flag > config file > default, tracking the effective values."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        path = self.args.get("config")
        self.file_cfg = _read_config_file(path, self.args["config_keys"]) if path else {}
        self.effective: dict[str, object] = {}

    def get(self, key: str, default, convert=None):
        value = self.args.get(key)
        if value is None or value is False and key in _BOOL_KEYS:
            if key in self.file_cfg:
                value = _coerce(key, self.file_cfg[key])
            else:
                value = default
        if convert is not None and value is not None and isinstance(value, str):
            try:
                value = convert(value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from exc
        self.effective[key] = value
        return value


def _parse_grid(value) -> int | None:
    if value is None or value == "auto":
        return None
    try:
        g = int(value)
    except ValueError as exc:
        raise ConfigError(f"bad grid value {value!r}: expected auto, 8, 16 or 32") from exc
    if g not in (8, 16, 32):
        raise ConfigError(f"grid must be auto, 8, 16 or 32, got {g}")
    return g


def _parse_grid_thresholds(value) -> tuple[float, float]:
    if value is None:
        return (DELTA_H_LOW, DELTA_H_HIGH)
    try:
        low_s, high_s = value.split(",")
        low, high = float(low_s), float(high_s)
    except ValueError as exc:
        raise ConfigError(f"bad grid thresholds {value!r}: expected LOW,HIGH") from exc
    if not 0 < low < high:
        raise ConfigError(f"grid thresholds must satisfy 0 < low < high, got {value!r}")
    return (low, high)


def _comparator_config(r: _Resolver) -> ComparatorConfig:
    raw_method = r.get("method", "dct")
    try:
        method = Method(raw_method)
    except ValueError as exc:
        raise ConfigError(
            f"unknown method {raw_method!r}: expected one of {', '.join(_METHODS)}"
        ) from exc
    threshold = r.get("threshold", None, float)
    if threshold is None:
        threshold = DEFAULT_THRESHOLDS[method]
        r.effective["threshold"] = threshold
    try:
        return ComparatorConfig(
            method=method,
            threshold=float(threshold),
            xor_shift=int(r.get("xor_shift", DEFAULT_XOR_SHIFT, int)),
            dct_keep=int(r.get("dct_k", DEFAULT_DCT_KEEP, int)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _pipeline_params(r: _Resolver) -> PipelineParams:
    low, high = _parse_grid_thresholds(r.get("grid_thresholds", None))
    try:
        heuristic = HeuristicParams(
            aspect_min=float(r.get("aspect_min", 0.5, float)),
            aspect_max=float(r.get("aspect_max", 4.0, float)),
            fill_min=float(r.get("fill_min", 0.4, float)),
            area_min_frac=float(r.get("area_min_frac", 0.001, float)),
            area_max_frac=float(r.get("area_max_frac", 0.5, float)),
        )
        min_area = r.get("min_area", None, float)
        return PipelineParams(
            grid=_parse_grid(r.get("grid", None)),
            grid_low=low,
            grid_high=high,
            subtract_shift=int(r.get("subtract_shift", DEFAULT_SUBTRACT_SHIFT, int)),
            window=int(r.get("window", DEFAULT_WINDOW, int)),
            min_area=None if min_area is None else float(min_area),
            validate=not bool(r.get("no_validate", False)),
            heuristic=heuristic,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# Keys that locate files or tune parallelism rather than change results;
# left out of the echo so identical runs write identical bytes no matter
# where the outputs land or how many workers ran.
_ECHO_EXCLUDE = {"config", "input", "jobs", "model", "out", "out_dir", "scene"}


def _echo_config(effective: dict[str, object], path: Path) -> None:
    lines = [
        f"{key}={effective[key]}"
        for key in sorted(effective)
        if key not in _ECHO_EXCLUDE
    ]
    path.write_text("\n".join(lines) + "\n")


def _max_frames(r: _Resolver) -> int:
    max_frames = int(r.get("max_frames", DEFAULT_MAX_FRAMES, int))
    if max_frames < 2:
        raise ConfigError(f"max frames must be >= 2, got {max_frames}")
    return max_frames


def _sequence(r: _Resolver, directory, min_frames: int = 2) -> Iterator[Frame]:
    """load_sequence with the configured pattern."""
    try:
        return load_sequence(directory, r.get("pattern", DEFAULT_PATTERN), min_frames)
    except ValueError as exc:  # the pattern has no %d field
        raise ConfigError(str(exc)) from exc


def _frames(r: _Resolver, directory) -> Iterator[Frame]:
    """The input frames, each decoded and prefiltered when it is pulled."""
    kind = r.get("prefilter", "none")
    if kind not in ("none", "median3"):
        raise ConfigError(f"unknown prefilter {kind!r}")
    return (prefilter(f, kind) for f in _sequence(r, directory))


def _build(
    frames: Iterator[Frame],
    pulled,
    params: PipelineParams,
    cfg: ComparatorConfig,
    max_frames: int,
) -> BackgroundModel:
    """Build a model from the head of ``frames``; every frame the build
    pulls is appended to ``pulled``."""
    head = list(islice(frames, 2))
    grid = resolve_grid(head, params)

    def pulling() -> Iterator[Frame]:
        for frame in chain(head, frames):
            pulled.append(frame)
            yield frame

    return build_srbi(pulling(), grid, cfg, max_frames=max_frames)


def _cmd_model(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    cfg = _comparator_config(r)
    params = _pipeline_params(r)
    max_frames = _max_frames(r)
    min_coverage = float(r.get("min_coverage", 1.0, float))
    if not 0 <= min_coverage <= 1:
        raise ConfigError(f"min coverage must be in [0, 1], got {min_coverage}")
    do_backfill = not bool(r.get("no_backfill", False))
    out = Path(r.get("out", None))

    last = deque(maxlen=1)  # the last frame the build pulled
    model = _build(_frames(r, args.input), last, params, cfg, max_frames)
    if do_backfill and coverage(model) < 1.0:
        n = int((model.cell_status == CELL_UNSETTLED).sum())
        model = backfill(model, last[0])
        print(f"backfilled {n} unsettled cell(s) from frame {model.built_from[1] - 1}", file=sys.stderr)
    save_model(model, out)
    _echo_config(r.effective, out.with_name(out.name + ".config.txt"))
    final_cov = coverage(model)
    print(f"coverage {final_cov:.6f}")
    print(f"frames_consumed {model.built_from[1]}")
    return 0 if final_cov >= min_coverage else 1


def _cmd_detect(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    cfg = _comparator_config(r)
    params = _pipeline_params(r)
    max_frames = _max_frames(r)
    rebuild_every = int(r.get("rebuild_every", DEFAULT_REBUILD_EVERY, int))
    if rebuild_every < 0:
        raise ConfigError(f"rebuild period must be >= 0, got {rebuild_every}")
    model_path = r.get("model", None)
    model_frames = r.get("model_frames", None, int)
    if model_frames is not None and model_frames < 2:
        raise ConfigError(f"--model-frames must be >= 2, got {model_frames}")
    out_dir = Path(r.get("out_dir", None))

    frames = _frames(r, args.input)
    pulled = []  # frames the inline build decoded; detection starts with them
    if model_path is not None:
        model = load_model(model_path)  # frames smaller than it fail in subtract
    else:
        model = _build(islice(frames, model_frames), pulled, params, cfg, max_frames)
        if coverage(model) < 1.0:
            k = int((model.cell_status == CELL_UNSETTLED).sum())
            model = backfill(model, pulled[-1])
            print(f"backfilled {k} unsettled cell(s)", file=sys.stderr)

    # The last max_frames detected frames, kept only for inline rebuilds.
    recent = deque(maxlen=max_frames if model_frames is not None and rebuild_every else 0)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_frames = n_objects = 0
    with open(out_dir / "objects.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ("frame_index", "object_index", "x", "y", "w", "h", "area", "label", "score")
        )
        for i, frame in enumerate(chain(pulled, frames)):
            if len(recent) >= 2 and i % rebuild_every == 0:
                # the model in use is complete, so only complete rebuilds are adopted
                model = update_srbi(model, recent, cfg, max_frames=max_frames)
            ((mask, objects),) = run_detection(model, [frame], params)
            save_frame(mask_to_frame(mask), out_dir / f"mask_{i:06d}.pgm")
            writer.writerows(
                (i, oi, o.x, o.y, o.w, o.h, o.area, o.label, f"{o.score:.6f}")
                for oi, o in enumerate(objects)
            )
            recent.append(frame)
            n_frames, n_objects = i + 1, n_objects + len(objects)
    _echo_config(r.effective, out_dir / "config.txt")
    print(f"frames {n_frames}")
    print(f"objects {n_objects}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    params = _pipeline_params(r)
    max_frames = _max_frames(r)
    iou = float(r.get("iou", 0.5, float))
    if not 0 < iou <= 1:
        raise ConfigError(f"iou must be in (0, 1], got {iou}")
    jobs = int(r.get("jobs", 1, int))
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    out = Path(r.get("out", None))
    scene_path = r.get("scene", None)

    spec = parse_scene_file(scene_path)
    rows = bench_methods(
        spec, params=params, iou_threshold=iou, max_frames=max_frames, jobs=jobs
    )
    write_report_csv(rows, out)
    _echo_config(r.effective, out.with_name(out.name + ".config.txt"))
    print(format_report(rows))
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    low, high = _parse_grid_thresholds(r.get("grid_thresholds", None))
    values = [entropy_of(f) for f in _sequence(r, args.input, min_frames=1)]
    for v in values:
        print(f"{v:.6f}")
    if len(values) == 2:
        delta = abs(values[0] - values[1])
        print(f"delta {delta:.6f}")
        print(f"grid {grid_for_delta(delta, low, high)}")
    return 0


_COMMANDS = {
    "model": _cmd_model,
    "detect": _cmd_detect,
    "bench": _cmd_bench,
    "entropy": _cmd_entropy,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, SceneSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
