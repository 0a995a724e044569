"""Synthetic benchmark: scene synthesis, metrics, four-method harness.

Scenes are procedural so ground truth is exact: a seeded value-noise
background with a horizontal gradient, rectangular movers on linear
tracks, optional Gaussian pixel noise, all generated from the
deterministic counter-based streams in ``rng`` (same seed, same bytes,
any platform).

The harness runs all four block comparators over one scene and reports
pixel metrics, object-level detection accuracy, and model coverage side
by side. The published reference evaluation of these four methods ranked
them absdiff < entropy < xor < dct; those absolute numbers came from
real traffic footage and are recorded here only as the ordering the
noisy-scene check mirrors, never as reproduction targets.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng
from .background import DEFAULT_MAX_FRAMES
from .comparators import ComparatorConfig, Method, default_config
from .errors import SceneSpecError
from .foreground import DetectedObject, ForegroundMask
from .imaging import Frame
from .keyvalue import decimal_float, decimal_int, read_key_values
from .pipeline import PipelineParams, build_model, detect_stream, label_objects
from .validation import VEHICLE

# Reference detection accuracy of the original four-method evaluation,
# best to worst. Only the ordering is meaningful here.
REFERENCE_ACCURACY = {
    Method.ABSDIFF: 0.82,
    Method.ENTROPY: 0.89,
    Method.XOR: 0.93,
    Method.DCT: 0.96,
}
REFERENCE_ORDER = (Method.DCT, Method.XOR, Method.ENTROPY, Method.ABSDIFF)

DEFAULT_IOU = 0.5  # a detection matches a truth box at this IoU or above

# Background texture range. Kept clear of the quantization boundaries that
# the default subtraction shift (6 -> buckets of 64) puts at 64 and 128,
# so sigma=5 noise cannot blink background pixels across a bucket edge.
_BG_LO = 72.0
_BG_SPAN_NOISE = 32.0
_BG_SPAN_GRADIENT = 16.0
_LATTICE = 16  # value-noise lattice spacing in pixels

_TAG_BACKGROUND = 1
_TAG_NOISE_BASE = 16


@dataclass(frozen=True)
class Mover:
    """A rectangle of constant intensity on a linear track.

    Position at frame t is (x + t*dx, y + t*dy); the rectangle may start
    or travel off-screen, truth clips to frame bounds.
    """

    x: int
    y: int
    w: int
    h: int
    intensity: int
    dx: int
    dy: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise SceneSpecError(f"mover needs positive size, got {self.w}x{self.h}")
        if not 0 <= self.intensity <= 255:
            raise SceneSpecError(f"mover intensity {self.intensity} outside [0, 255]")

    def rect_at(self, t: int) -> tuple[int, int, int, int]:
        return (self.x + t * self.dx, self.y + t * self.dy, self.w, self.h)


@dataclass(frozen=True)
class SceneSpec:
    width: int
    height: int
    frame_count: int
    movers: tuple[Mover, ...] = ()
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.width < 16 or self.height < 16:
            raise SceneSpecError("scene must be at least 16x16")
        if self.frame_count < 2:
            raise SceneSpecError("scene needs at least 2 frames")
        if not 0 <= self.noise_sigma < math.inf:  # NaN fails too
            raise SceneSpecError(f"noise sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0 <= self.seed < 2**64:  # rng reduces a seed modulo 2**64
            raise SceneSpecError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass
class Scene:
    frames: list[Frame]
    truth_masks: list[ForegroundMask]
    true_background: Frame


def _fade(t: np.ndarray) -> np.ndarray:
    # smoothstep curve used for value-noise interpolation
    return t * t * t * (t * (t * 6.0 - 15.0) + 10.0)


def _value_noise(width: int, height: int, seed: int) -> np.ndarray:
    """Smooth noise in [0, 1] from a seeded lattice, bilinear with fade."""
    gw = width // _LATTICE + 2
    gh = height // _LATTICE + 2
    lattice = rng.uniforms(seed, _TAG_BACKGROUND, gw * gh).reshape(gh, gw)
    xs = np.arange(width, dtype=np.float64) / _LATTICE
    ys = np.arange(height, dtype=np.float64) / _LATTICE
    x0 = xs.astype(np.intp)
    y0 = ys.astype(np.intp)
    tx = _fade(xs - x0)[None, :]
    ty = _fade(ys - y0)[:, None]
    v00 = lattice[np.ix_(y0, x0)]
    v01 = lattice[np.ix_(y0, x0 + 1)]
    v10 = lattice[np.ix_(y0 + 1, x0)]
    v11 = lattice[np.ix_(y0 + 1, x0 + 1)]
    top = v00 * (1.0 - tx) + v01 * tx
    bottom = v10 * (1.0 - tx) + v11 * tx
    return top * (1.0 - ty) + bottom * ty


def _background(spec: SceneSpec) -> np.ndarray:
    noise = _value_noise(spec.width, spec.height, spec.seed)
    gradient = np.linspace(0.0, 1.0, spec.width)[None, :]
    bg = _BG_LO + _BG_SPAN_NOISE * noise + _BG_SPAN_GRADIENT * gradient
    return np.rint(bg)


def _clip_rect(x: int, y: int, w: int, h: int, width: int, height: int):
    """Visible part of a rect, or None when fully off-screen."""
    x0 = max(x, 0)
    y0 = max(y, 0)
    x1 = min(x + w, width)
    y1 = min(y + h, height)
    if x0 >= x1 or y0 >= y1:
        return None
    return x0, y0, x1, y1


def gen_scene(spec: SceneSpec) -> Scene:
    """Render every frame plus exact truth masks and the clean background."""
    bg = _background(spec)
    frames = []
    truths = []
    for t in range(spec.frame_count):
        canvas = bg.copy()
        truth = np.zeros((spec.height, spec.width), dtype=np.uint8)
        for mover in spec.movers:
            rect = _clip_rect(*mover.rect_at(t), spec.width, spec.height)
            if rect is None:
                continue
            x0, y0, x1, y1 = rect
            canvas[y0:y1, x0:x1] = float(mover.intensity)
            truth[y0:y1, x0:x1] = 1
        if spec.noise_sigma > 0:
            z = rng.gaussians(
                spec.seed, _TAG_NOISE_BASE + t, spec.width * spec.height
            ).reshape(spec.height, spec.width)
            canvas = canvas + spec.noise_sigma * z
        px = np.clip(np.rint(canvas), 0.0, 255.0).astype(np.uint8)
        frames.append(Frame(px))
        truths.append(ForegroundMask._adopt(truth))
    return Scene(
        frames=frames,
        truth_masks=truths,
        true_background=Frame(bg.astype(np.uint8)),
    )


def box_iou(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix0 = max(ax, bx)
    iy0 = max(ay, by)
    ix1 = min(ax + aw, bx + bw)
    iy1 = min(ay + ah, by + bh)
    inter = max(0, ix1 - ix0) * max(0, iy1 - iy0)
    if inter == 0:
        return 0.0
    union = aw * ah + bw * bh - inter
    return inter / union


@dataclass(frozen=True)
class Metrics:
    pixel_precision: float
    pixel_recall: float
    pixel_f1: float
    mean_iou: float
    det_accuracy: float
    tp: int
    fp: int
    fn: int


def _safe_div(num: float, den: float, empty: float) -> float:
    return num / den if den else empty


def evaluate(
    pred_masks: list[ForegroundMask],
    pred_objects: list[list[DetectedObject]],
    truth_masks: list[ForegroundMask],
    truth_boxes: list[list[tuple[int, int, int, int]]],
    iou_threshold: float = DEFAULT_IOU,
) -> Metrics:
    """Pixel metrics pooled over all frames plus object-level accuracy.

    Pixels count over the extent both masks cover. Objects are matched per
    frame greedily, best IoU first, one to one, among the pairs with IoU > 0
    and >= ``iou_threshold``; each match is a true positive. Detection
    accuracy is TP / (TP + FP + FN). Frames with no predictions and no
    truth contribute nothing.
    """
    if not (len(pred_masks) == len(pred_objects) == len(truth_masks) == len(truth_boxes)):
        raise ValueError("evaluate needs equally long per-frame lists")
    tp = fp = fn = 0
    px_tp = px_fp = px_fn = 0
    iou_sum = 0.0
    iou_frames = 0
    for mask, objs, truth, boxes in zip(
        pred_masks, pred_objects, truth_masks, truth_boxes
    ):
        h, w = min(mask.height, truth.height), min(mask.width, truth.width)
        pb, tb = mask.bits[:h, :w], truth.bits[:h, :w]
        inter = int(np.count_nonzero(pb & tb))
        p_total = int(np.count_nonzero(pb))
        t_total = int(np.count_nonzero(tb))
        px_tp += inter
        px_fp += p_total - inter
        px_fn += t_total - inter
        union = p_total + t_total - inter
        if union > 0:
            iou_sum += inter / union
            iou_frames += 1
        # object matching
        pairs = []
        for pi, obj in enumerate(objs):
            for ti, box in enumerate(boxes):
                iou = box_iou(obj.bbox, box)
                if iou > 0 and iou >= iou_threshold:
                    pairs.append((-iou, pi, ti))
        pairs.sort()
        used_p, used_t = set(), set()
        for _, pi, ti in pairs:
            if pi not in used_p and ti not in used_t:
                used_p.add(pi)
                used_t.add(ti)
        matched = len(used_p)
        tp += matched
        fp += len(objs) - matched
        fn += len(boxes) - matched
    precision = _safe_div(px_tp, px_tp + px_fp, 1.0)
    recall = _safe_div(px_tp, px_tp + px_fn, 1.0)
    f1 = _safe_div(2 * precision * recall, precision + recall, 0.0)
    return Metrics(
        pixel_precision=precision,
        pixel_recall=recall,
        pixel_f1=f1,
        mean_iou=_safe_div(iou_sum, iou_frames, 1.0),
        det_accuracy=_safe_div(tp, tp + fp + fn, 1.0),
        tp=tp,
        fp=fp,
        fn=fn,
    )


@dataclass(frozen=True)
class BenchRow:
    method: Method
    metrics: Metrics
    coverage: float
    frames_to_cover: int


def truth_boxes_for(
    spec: SceneSpec, grid_w: int, grid_h: int, params: PipelineParams
) -> list[list[tuple[int, int, int, int]]]:
    """Per-frame clipped mover boxes, gated like predictions are.

    Truth boxes that ``detect_frame``'s gate rejects (below the area floor,
    or a solid rectangle ``label_objects`` labels non-vehicle) are not scoring
    targets, otherwise every mover entering the frame edge would charge
    the method an unavoidable miss during its sliver frames.
    """
    frame_area = grid_w * grid_h
    min_area = params.resolved_min_area(frame_area)
    out = []
    for t in range(spec.frame_count):
        rects = filter(None, (_clip_rect(*m.rect_at(t), grid_w, grid_h) for m in spec.movers))  # on screen
        solids = [DetectedObject(x0, y0, x1 - x0, y1 - y0, (x1 - x0) * (y1 - y0), 0.0, 0.0) for x0, y0, x1, y1 in rects]
        kept = label_objects([o for o in solids if o.area >= min_area], frame_area, params)
        out.append([o.bbox for o in kept if o.label == VEHICLE])
    return out


def bench_methods(
    spec: SceneSpec,
    params: PipelineParams = PipelineParams(),
    iou_threshold: float = DEFAULT_IOU,
    max_frames: int = DEFAULT_MAX_FRAMES,
    jobs: int = 1,
) -> list[BenchRow]:
    """``detect``'s loop per comparator over one scene, model built inline and never rebuilt; ``jobs`` pool threads."""
    configs = [default_config(m) for m in Method]
    scene = gen_scene(spec)

    def run_one(cfg: ComparatorConfig) -> BenchRow:
        model = build_model(scene.frames, params, cfg, max_frames)
        masks, found = zip(*detect_stream(model, scene.frames, params))
        objects = [[o for o in objs if o.label == VEHICLE] for objs in found]
        boxes = truth_boxes_for(spec, model.grid.cropped_width, model.grid.cropped_height, params)
        metrics = evaluate(masks, objects, scene.truth_masks, boxes, iou_threshold)
        return BenchRow(
            method=cfg.method,
            metrics=metrics,
            coverage=float(np.mean(model.cell_status >= 0)),  # settled, not backfilled
            frames_to_cover=model.built_from[1],  # a build stops at the pair settling its last cell
        )

    from concurrent.futures import ThreadPoolExecutor  # here, so importing blockbg does not load it

    with ThreadPoolExecutor(max_workers=min(jobs, len(configs))) as pool:
        return list(pool.map(run_one, configs))  # rows in method order for any worker count


REPORT_COLUMNS = (
    "method",
    "pixel_precision",
    "pixel_recall",
    "pixel_f1",
    "mean_iou",
    "det_accuracy",
    "coverage",
    "frames_to_cover",
)


def _report_values(row: BenchRow) -> tuple:
    """The report's values for one row, in REPORT_COLUMNS order."""
    m = row.metrics
    return (
        row.method.value, m.pixel_precision, m.pixel_recall, m.pixel_f1,
        m.mean_iou, m.det_accuracy, row.coverage, row.frames_to_cover,
    )


def write_report_csv(rows: list[BenchRow], path) -> None:
    """Fixed-precision CSV so identical runs produce identical bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            method, *scores, frames_to_cover = _report_values(row)
            writer.writerow([method, *(f"{v:.6f}" for v in scores), frames_to_cover])


def format_report(rows: list[BenchRow]) -> str:
    """Human-readable table for stdout."""
    header = f"{'method':<8} {'px_prec':>8} {'px_rec':>8} {'px_f1':>8} {'mIoU':>8} {'det_acc':>8} {'cover':>6} {'f2c':>4}"
    row_format = "{:<8} {:>8.4f} {:>8.4f} {:>8.4f} {:>8.4f} {:>8.4f} {:>6.3f} {:>4d}"
    return "\n".join([header, *(row_format.format(*_report_values(row)) for row in rows)])


def parse_scene_file(path) -> SceneSpec:
    """Read a key=value scene description.

    Keys: width, height, frames, sigma, seed, each at most once, and one
    ``mover=`` line per mover with values x,y,w,h,intensity,dx,dy. A ``#``
    at a line's start or after whitespace starts a comment. An unknown or
    repeated key, a bad value and a bad mover name their line.
    """
    fields: dict[str, int | float] = {}
    movers: list[Mover] = []
    for ln, key, value in read_key_values(path, SceneSpecError, "line"):
        try:
            if key == "mover":
                parts = [s.strip() for s in value.split(",")]
                if len(parts) != 7:
                    raise SceneSpecError("mover needs x,y,w,h,intensity,dx,dy")
                movers.append(Mover(*[decimal_int(s) for s in parts]))
            elif key not in ("width", "height", "frames", "sigma", "seed"):
                raise SceneSpecError(f"unknown key {key!r}")
            elif key in fields:
                raise SceneSpecError(f"key {key!r} given twice")
            else:
                fields[key] = decimal_float(value) if key == "sigma" else decimal_int(value)
        except ValueError as exc:  # a number that does not parse
            raise SceneSpecError(f"line {ln}: bad {key} value: {exc}") from exc
        except SceneSpecError as exc:
            raise SceneSpecError(f"line {ln}: {exc}") from exc
    try:
        return SceneSpec(
            width=fields["width"],
            height=fields["height"],
            frame_count=fields["frames"],
            movers=tuple(movers),
            noise_sigma=fields.get("sigma", 0.0),
            seed=fields.get("seed", 0),
        )
    except KeyError as exc:
        raise SceneSpecError(f"scene file missing required key {exc}") from exc


def write_scene_file(spec: SceneSpec, path) -> None:
    lines = [
        f"width={spec.width}",
        f"height={spec.height}",
        f"frames={spec.frame_count}",
        f"sigma={float(spec.noise_sigma)!r}".removesuffix(".0"),  # reads back exactly
        f"seed={spec.seed}",
    ]
    for m in spec.movers:
        lines.append(f"mover={m.x},{m.y},{m.w},{m.h},{m.intensity},{m.dx},{m.dy}")
    Path(path).write_text("\n".join(lines) + "\n")
