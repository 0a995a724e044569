"""Command-line interface.

Subcommands: model (build + save an SRBI), detect (masks + objects CSV),
bench (four-method synthetic comparison), entropy (per-frame entropy,
grid suggestion). Exit codes: 0 success, 1 runtime failure, 2 usage or
configuration error. Each line of a ``--config`` file acts as the
subcommand's own flag placed before the command line's flags, so flags win
and a file value passes the same checks as a flag; ``None`` leaves an
option without a default unset. The effective configuration is echoed to a
text file next to the primary output, which passed back as ``--config``
reproduces the run exactly.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections import deque
from collections.abc import Iterator
from dataclasses import fields
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
    DEFAULT_IOU,
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
    DEFAULT_MIN_AREA_FRAC,
    DEFAULT_SUBTRACT_SHIFT,
    DEFAULT_WINDOW,
    mask_to_frame,
)
from .imaging import DEFAULT_PATTERN, PREFILTERS, Frame, load_sequence, prefilter, save_frame
from .keyvalue import read_key_values
from .pipeline import PipelineParams, resolve_grid, run_detection
from .validation import HeuristicParams

_METHODS = tuple(m.value for m in Method)

DEFAULT_REBUILD_EVERY = 300


def _checked(kind, ok, rule: str):
    """An argparse type: ``kind(text)``, which must satisfy ``ok``."""

    def convert(text: str):
        value = kind(text)
        if not ok(value):  # written so that NaN fails
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    convert.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return convert


def _int_from(low: int):
    return _checked(int, lambda v: v >= low, f">= {low}")


def _method(text: str) -> str:
    if text not in _METHODS:
        raise argparse.ArgumentTypeError(
            f"unknown method {text!r}: expected one of {', '.join(_METHODS)}"
        )
    return text


def _grid(text: str) -> int | None:
    """auto is None; PipelineParams checks the size."""
    if text == "auto":
        return None
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected auto, 8, 16 or 32, got {text!r}")
    return int(text)


def _bands(text: str) -> tuple[float, float]:
    """LOW,HIGH; PipelineParams checks their order."""
    try:
        low, high = (float(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LOW,HIGH, got {text!r}") from None
    return low, high


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; CLI flags win")


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="directory of frames")
    p.add_argument("--pattern", default=DEFAULT_PATTERN, help="frame filename pattern (default %(default)s)")


def _add_grid_thresholds(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-thresholds", type=_bands, help=f"entropy-delta bands LOW,HIGH (default {DELTA_H_LOW},{DELTA_H_HIGH})")


def _add_build_knobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", type=_grid, help="grid granularity: auto, 8, 16 or 32 (default auto)")
    p.add_argument("--max-frames", type=_int_from(2), default=DEFAULT_MAX_FRAMES, help="frame budget for building (default %(default)s)")


def _add_model_knobs(p: argparse.ArgumentParser) -> None:
    thresholds = ", ".join(f"{m.value} {t}" for m, t in DEFAULT_THRESHOLDS.items())
    p.add_argument("--method", type=_method, default=Method.DCT.value, help=f"block comparator: {', '.join(_METHODS)} (default %(default)s)")
    p.add_argument("--threshold", type=float, help=f"static/dynamic score threshold (default {thresholds})")
    p.add_argument("--xor-shift", type=int, default=DEFAULT_XOR_SHIFT, help="XOR quantization shift (default %(default)s)")
    p.add_argument("--dct-k", type=int, default=DEFAULT_DCT_KEEP, help="DCT coefficients kept (default %(default)s)")
    _add_grid_thresholds(p)
    p.add_argument("--prefilter", choices=PREFILTERS, default=PREFILTERS[0], help="denoise frames before use (default %(default)s)")
    _add_build_knobs(p)


def _add_detect_knobs(p: argparse.ArgumentParser) -> dict[str, object]:
    """Add the detection knobs' flags; returns their defaults by name."""
    added = [
        p.add_argument("--subtract-shift", type=int, default=DEFAULT_SUBTRACT_SHIFT, help="quantization shift for subtraction (default %(default)s)"),
        p.add_argument("--window", type=int, default=DEFAULT_WINDOW, help="median filter window, odd >= 3 (default %(default)s)"),
        p.add_argument("--min-area", type=float, help=f"minimum object area in pixels (default {100 * DEFAULT_MIN_AREA_FRAC:g}%% of cropped area)"),
        p.add_argument("--no-validate", action="store_true", help="skip the vehicle heuristic; label everything vehicle"),
        p.add_argument("--aspect-min", type=float, default=HeuristicParams.aspect_min, help="heuristic: min w/h (default %(default)s)"),
        p.add_argument("--aspect-max", type=float, default=HeuristicParams.aspect_max, help="heuristic: max w/h (default %(default)s)"),
        p.add_argument("--fill-min", type=float, default=HeuristicParams.fill_min, help="heuristic: min bbox fill (default %(default)s)"),
        p.add_argument("--area-min-frac", type=float, default=HeuristicParams.area_min_frac, help="heuristic: min area fraction (default %(default)s)"),
        p.add_argument("--area-max-frac", type=float, default=HeuristicParams.area_max_frac, help="heuristic: max area fraction (default %(default)s)"),
    ]
    return {a.dest: a.default for a in added}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The blockbg parser and its subcommands' parsers by name."""
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
    p_model.add_argument("--min-coverage", type=_checked(float, lambda v: 0 <= v <= 1, "in [0, 1]"), default=1.0, help="fail below this coverage (default %(default)s)")
    _add_common(p_model)

    p_detect = sub.add_parser("detect", help="detect moving objects against a model")
    _add_input(p_detect)
    group = p_detect.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="saved model PGM (with .cells sidecar)")
    group.add_argument("--model-frames", type=_int_from(2), help="build the model inline from the first N input frames")
    _add_model_knobs(p_detect)
    knob_defaults = _add_detect_knobs(p_detect)
    p_detect.add_argument("--rebuild-every", type=_int_from(0), default=DEFAULT_REBUILD_EVERY, help="rebuild the inline model every N frames (default %(default)s, 0 disables)")
    p_detect.add_argument("--out-dir", required=True, help="directory for masks and objects.csv")
    _add_common(p_detect)

    p_bench = sub.add_parser("bench", help="benchmark all four methods on a synthetic scene")
    p_bench.add_argument("--scene", required=True, help="scene description file")
    p_bench.add_argument("--out", required=True, help="output report CSV path")
    p_bench.add_argument("--iou", type=_checked(float, lambda v: 0 < v <= 1, "in (0, 1]"), default=DEFAULT_IOU, help="object match IoU threshold (default %(default)s)")
    _add_detect_knobs(p_bench)
    _add_build_knobs(p_bench)
    p_bench.add_argument("--jobs", type=_int_from(1), default=1, help="worker threads over methods (default %(default)s)")
    _add_common(p_bench)

    p_entropy = sub.add_parser("entropy", help="print per-frame entropy (and grid choice for a pair)")
    _add_input(p_entropy)
    _add_grid_thresholds(p_entropy)
    _add_common(p_entropy)

    # A subcommand without some knobs' flags still builds a PipelineParams
    # from its namespace; model and bench also echo those defaults.
    p_model.set_defaults(**knob_defaults)
    p_bench.set_defaults(grid_thresholds=None)
    p_entropy.set_defaults(grid=None, **knob_defaults)
    return parser, sub.choices


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _config_flags(path: str, command: str, commands: dict[str, argparse.ArgumentParser]) -> list[str]:
    """The lines of a key=value file that set ``command``'s options, each as
    the flag token that sets it; keys of the other subcommands are skipped."""
    options = {
        name: {a.dest: a for a in p._actions if a.dest != "help"}
        for name, p in commands.items()
    }
    try:
        entries = read_key_values(path, ConfigError, "config line")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    flags = []
    for ln, key, value in entries:
        dest = key.replace("-", "_")
        if not any(dest in own for own in options.values()):
            raise ConfigError(f"config line {ln}: unknown key {key!r}")
        action = options[command].get(dest)
        if action is None or (value == "None" and action.default is None):
            continue  # another subcommand's key, or an echoed unset option
        flag = action.option_strings[0]
        if action.nargs != 0:
            flags.append(f"{flag}={value}")
        elif value.lower() in _TRUE:
            flags.append(flag)
        elif value.lower() not in _FALSE:
            raise ConfigError(f"config line {ln}: {key} expects true or false, got {value!r}")
    return flags


def _comparator_config(args: argparse.Namespace) -> ComparatorConfig:
    method = Method(args.method)
    if args.threshold is None:
        args.threshold = DEFAULT_THRESHOLDS[method]  # echoed as resolved
    try:
        return ComparatorConfig(method, args.threshold, args.xor_shift, args.dct_k)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _pipeline_params(args: argparse.Namespace) -> PipelineParams:
    bands = dict(zip(("grid_low", "grid_high"), args.grid_thresholds or ()))
    try:
        return PipelineParams(
            grid=args.grid,
            subtract_shift=args.subtract_shift,
            window=args.window,
            min_area=args.min_area,
            validate=not args.no_validate,
            heuristic=HeuristicParams(**{f.name: getattr(args, f.name) for f in fields(HeuristicParams)}),
            **bands,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# Keys that name the subcommand, locate files or tune parallelism rather
# than change results; left out of the echo so identical runs write
# identical bytes no matter where the outputs land or how many workers ran.
_ECHO_EXCLUDE = {"command", "config", "input", "jobs", "model", "out", "out_dir", "scene"}


def _echo_config(args: argparse.Namespace, path: Path) -> None:
    lines = [
        f"{key}={','.join(map(str, value)) if isinstance(value, tuple) else value}"
        for key, value in sorted(vars(args).items())
        if key not in _ECHO_EXCLUDE
    ]
    path.write_text("\n".join(lines) + "\n")


def _sequence(args: argparse.Namespace, min_frames: int = 2) -> Iterator[Frame]:
    """load_sequence with the configured pattern."""
    try:
        return load_sequence(args.input, args.pattern, min_frames)
    except ValueError as exc:  # the pattern has no %d field
        raise ConfigError(str(exc)) from exc


def _frames(args: argparse.Namespace) -> Iterator[Frame]:
    """The input frames, each decoded and prefiltered when it is pulled."""
    return (prefilter(f, args.prefilter) for f in _sequence(args))


def _build(
    frames: Iterator[Frame],
    pulled,
    params: PipelineParams,
    cfg: ComparatorConfig,
    max_frames: int,
    fill: bool = True,
    scores: deque | None = None,
) -> BackgroundModel:
    """Build a model from the head of ``frames``; every frame the build
    pulls is appended to ``pulled``. With ``fill``, cells that never
    settled are backfilled from the last frame pulled, with a note."""
    head = list(islice(frames, 2))
    grid = resolve_grid(head, params)

    def pulling() -> Iterator[Frame]:
        for frame in chain(head, frames):
            pulled.append(frame)
            yield frame

    model = build_srbi(pulling(), grid, cfg, max_frames=max_frames, scores=scores)
    if fill and coverage(model) < 1.0:
        n = int((model.cell_status == CELL_UNSETTLED).sum())
        model = backfill(model, pulled[-1])
        print(f"backfilled {n} unsettled cell(s) from frame {model.built_from[1] - 1}", file=sys.stderr)
    return model


def _cmd_model(args: argparse.Namespace) -> int:
    cfg = _comparator_config(args)
    params = _pipeline_params(args)
    out = Path(args.out)

    model = _build(_frames(args), deque(maxlen=1), params, cfg, args.max_frames, not args.no_backfill)
    save_model(model, out)
    _echo_config(args, out.with_name(out.name + ".config.txt"))
    final_cov = coverage(model)
    print(f"coverage {final_cov:.6f}")
    print(f"frames_consumed {model.built_from[1]}")
    return 0 if final_cov >= args.min_coverage else 1


def _cmd_detect(args: argparse.Namespace) -> int:
    cfg = _comparator_config(args)
    params = _pipeline_params(args)
    max_frames, rebuild_every = args.max_frames, args.rebuild_every
    out_dir = Path(args.out_dir)

    frames = _frames(args)
    pulled = []  # frames the inline build decoded; detection starts with them
    scores = deque()  # pair k's block scores: frames k, k + 1 of the build, then of recent
    if args.model is not None:
        model = load_model(args.model)  # frames smaller than it fail in subtract
    else:
        model = _build(islice(frames, args.model_frames), pulled, params, cfg, max_frames, scores=scores)
    # The loop takes the pulled frames over. Through iter() the list is freed
    # once the loop has passed it; chain would hold it until frames ran out.
    frames, pulled = chain(iter(pulled), frames), None

    # The last max_frames detected frames, kept only for inline rebuilds.
    recent = deque(maxlen=max_frames if args.model_frames is not None and rebuild_every else 0)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_frames = n_objects = 0
    with open(out_dir / "objects.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ("frame_index", "object_index", "x", "y", "w", "h", "area", "label", "score")
        )
        for i, frame in enumerate(frames):
            if len(recent) >= 2 and i % rebuild_every == 0:
                # the model in use is complete, so only complete rebuilds are adopted
                model = update_srbi(model, recent, cfg, max_frames=max_frames, scores=scores)
            ((mask, objects),) = run_detection(model, [frame], params)
            save_frame(mask_to_frame(mask), out_dir / f"mask_{i:06d}.pgm")
            writer.writerows(
                (i, oi, o.x, o.y, o.w, o.h, o.area, o.label, f"{o.score:.6f}")
                for oi, o in enumerate(objects)
            )
            if len(recent) == recent.maxlen and scores:
                scores.popleft()  # its pair loses recent[0]
            recent.append(frame)
            n_frames, n_objects = i + 1, n_objects + len(objects)
    _echo_config(args, out_dir / "config.txt")
    print(f"frames {n_frames}")
    print(f"objects {n_objects}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    params = _pipeline_params(args)
    out = Path(args.out)

    spec = parse_scene_file(args.scene)
    rows = bench_methods(
        spec, params=params, iou_threshold=args.iou, max_frames=args.max_frames, jobs=args.jobs
    )
    write_report_csv(rows, out)
    _echo_config(args, out.with_name(out.name + ".config.txt"))
    print(format_report(rows))
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    params = _pipeline_params(args)
    values = [entropy_of(f) for f in _sequence(args, min_frames=1)]
    for v in values:
        print(f"{v:.6f}")
    if len(values) == 2:
        delta = abs(values[0] - values[1])
        print(f"delta {delta:.6f}")
        print(f"grid {grid_for_delta(delta, params.grid_low, params.grid_high)}")
    return 0


_COMMANDS = {
    "model": _cmd_model,
    "detect": _cmd_detect,
    "bench": _cmd_bench,
    "entropy": _cmd_entropy,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = build_parser()
    try:
        if argv and argv[0] in commands:
            pre = argparse.ArgumentParser(prog=commands[argv[0]].prog, usage=argparse.SUPPRESS, add_help=False)
            _add_common(pre)
            config = pre.parse_known_args(argv[1:])[0].config
            if config:
                # The file's lines go right after the subcommand name, so the
                # command line's flags come later and win.
                argv[1:1] = _config_flags(config, argv[0], commands)
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    except (ConfigError, SceneSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
