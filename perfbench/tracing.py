"""Spans around calls into blockbg's public functions, and the per-layer
metrics derived from them.

The tracer wraps functions from outside the package: every module
attribute of ``blockbg`` that refers to a traced function is replaced by a
timing wrapper, so calls through ``from .x import y`` bindings are caught
as well. Each span records its name, start, end, parent span and the frame
index it belongs to, plus a few counts taken at the same boundary. Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import builtins
import os
import statistics
import sys
import time

import numpy as np
from blockbg.background import CELL_UNSETTLED
from blockbg.validation import VEHICLE

# (module, function) pairs timed in a traced run. The span name is the
# module's last component and the function name, e.g. "imaging.load_frame".
TRACED = (
    ("blockbg.cli", "main"),
    ("blockbg.imaging", "load_sequence"),
    ("blockbg.imaging", "load_frame"),
    ("blockbg.imaging", "save_frame"),
    ("blockbg.blocks", "select_grid"),
    ("blockbg.background", "build_srbi"),
    ("blockbg.background", "update_srbi"),
    ("blockbg.background", "backfill"),
    ("blockbg.background", "save_model"),
    ("blockbg.background", "load_model"),
    ("blockbg.pipeline", "run_detection"),
    ("blockbg.pipeline", "detect_frame"),
    ("blockbg.foreground", "make_mask"),
    ("blockbg.foreground", "subtract"),
    ("blockbg.foreground", "median_filter_mask"),
    ("blockbg.foreground", "connected_components"),
    ("blockbg.validation", "classify_all"),
)

# Span for the objects.csv write inside the detect command: from the
# open() of the file until it is closed.
OBJECTS_CSV = "cli.objects_csv"
CSV_NAME = "objects.csv"

# Per-frame functions, each with the parent span that marks a per-frame
# call (None: any parent). Such a span gets the ordinal of the call within
# the command as its frame index, which its child spans inherit; the model
# PGM that load_model reads or save_model writes is not a frame.
_PER_FRAME = {
    "imaging.load_frame": "imaging.load_sequence",
    "imaging.save_frame": "cli.main",
    "pipeline.detect_frame": None,
}

METHODS = ("absdiff", "entropy", "xor", "dct")
GRIDS = (8, 32)


class Span:
    __slots__ = ("name", "start", "end", "parent", "frame", "attrs")

    def __init__(self, name, start, parent, frame):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.frame = frame
        self.attrs = {}

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.frame, self.attrs]


class Tracer:
    """Collects spans; one instance per traced workload process."""

    def __init__(self):
        # While inactive the wrappers only call through, so passes with
        # tracing off can alternate with traced ones in one process.
        self.active = False
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.context: dict = {}
        self.counters: dict[str, int] = {}

    def begin_command(self, **context) -> None:
        """Reset per-command frame counters and tag the next cli.main span."""
        self.context = context
        self.counters = {}

    def _open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        frame = self.spans[parent].frame if parent is not None else -1
        parent_name = self.spans[parent].name if parent is not None else None
        if name in _PER_FRAME and _PER_FRAME[name] in (None, parent_name):
            frame = self.counters.get(name, 0)
            self.counters[name] = frame + 1
        span = Span(name, 0.0, parent, frame)
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def _close(self) -> None:
        self.stack.pop()

    def wrap(self, name: str, fn):
        tracer = self
        describe = _DESCRIBE.get(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._close()
            if name == "cli.main":
                span.attrs.update(tracer.context)
            if describe is not None:
                describe(span.attrs, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def open_file(self, file, *args, **kwargs):
        """Stand-in for open() inside blockbg.cli; times the objects.csv write."""
        fh = builtins.open(file, *args, **kwargs)
        if not self.active or os.path.basename(os.fspath(file)) != CSV_NAME:
            return fh
        return _TimedFile(self, fh)

    def install(self) -> None:
        """Replace every blockbg reference to a traced function with its wrapper."""
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "blockbg" or key.startswith("blockbg.")
        ]
        for module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(f"{module_name.rsplit('.', 1)[1]}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        sys.modules["blockbg.cli"].open = self.open_file

    def dump(self) -> list:
        return [s.as_list() for s in self.spans]


class _TimedFile:
    """Context manager over a file object that spans open() to close()."""

    def __init__(self, tracer: Tracer, fh):
        self.fh = fh
        self.tracer = tracer
        self.span = tracer._open(OBJECTS_CSV)
        self.span.start = time.perf_counter()
        self.closed = False

    def __getattr__(self, key):
        return getattr(self.fh, key)

    def __iter__(self):
        return iter(self.fh)

    def close(self):
        if not self.closed:
            self.closed = True
            self.fh.close()
            self.span.end = time.perf_counter()
            self.tracer._close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def cells_scored(cell_status: np.ndarray, built_from: tuple[int, int]) -> int:
    """Cell comparisons a build made, from its result alone.

    A cell settled at frame index s was compared s times (pairs 0..s-1);
    a cell that never settled was compared in every pair the build made,
    built_from[1] - 1 of them.
    """
    status = np.asarray(cell_status)
    pairs = built_from[1] - 1
    settled = status[status >= 0]
    unsettled = int(np.count_nonzero(status == CELL_UNSETTLED))
    return int(settled.sum()) + unsettled * pairs


def _describe_build(attrs, args, kwargs, model):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    status = model.cell_status
    attrs["method"] = cfg.method.value
    attrs["g"] = int(model.grid.g)
    attrs["consumed"] = int(model.built_from[1])
    attrs["scored"] = cells_scored(status, model.built_from)
    attrs["settled"] = int(np.count_nonzero(status >= 0))


def _describe_update(attrs, args, kwargs, model):
    old = args[0] if args else kwargs["model"]
    attrs["adopted"] = model is not old


def _describe_backfill(attrs, args, kwargs, model):
    old = args[0] if args else kwargs["model"]
    attrs["cells"] = int(np.count_nonzero(old.cell_status == CELL_UNSETTLED))


def _describe_load(attrs, args, kwargs, frame):
    attrs["bytes"] = os.stat(args[0] if args else kwargs["path"]).st_size


def _describe_save(attrs, args, kwargs, _):
    attrs["bytes"] = os.stat(args[1] if len(args) > 1 else kwargs["path"]).st_size


def _describe_components(attrs, args, kwargs, objects):
    bits = (args[0] if args else kwargs["mask"]).bits
    attrs["fg_px"] = int(np.count_nonzero(bits))
    attrs["px"] = int(bits.size)
    attrs["objects"] = len(objects)


def _describe_classify(attrs, args, kwargs, objects):
    attrs["objects"] = len(objects)
    attrs["vehicles"] = sum(1 for o in objects if o.label == VEHICLE)


_DESCRIBE = {
    "background.build_srbi": _describe_build,
    "background.update_srbi": _describe_update,
    "background.backfill": _describe_backfill,
    "imaging.load_frame": _describe_load,
    "imaging.save_frame": _describe_save,
    "foreground.connected_components": _describe_components,
    "validation.classify_all": _describe_classify,
}


def check_spans(spans: list, expect, forbid) -> list[str]:
    """Problems with a trace: expected boundaries that recorded no span,
    and forbidden ones that did. Empty when the trace is sound."""
    seen = {}
    for name, _, _, _, _, attrs in spans:
        seen.setdefault(name, []).append(attrs)
    problems = []
    for want in expect:
        name, _, key = want.partition("@")
        found = seen.get(name, [])
        if key:
            method, g = key.split(".")
            found = [a for a in found if a["method"] == method and f"g{a['g']}" == g]
        if not found:
            problems.append(f"expected span {want} was not recorded")
    for name in forbid:
        if name in seen:
            problems.append(f"span {name} appeared {len(seen[name])} time(s)")
    return problems


def median(values) -> float:
    """Median, or 0 when there are no values (a layer the workload skips)."""
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile that has at
    least 10 samples beyond it; with 10 or fewer samples, the minimum."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    i = max(n - 11, 0)
    pct = 100.0 * i / (n - 1) if n > 1 else 0.0
    return float(xs[i]), pct, n


def layer_metrics(spans: list, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of ``passes`` passes over a
    workload's commands. Counts are per pass; times are per call."""
    by_name: dict[str, list] = {}
    for index, s in enumerate(spans):
        by_name.setdefault(s[0], []).append((index, s))

    def ms(name, keep=lambda a: True):
        return [1e3 * (s[2] - s[1]) for _, s in by_name.get(name, []) if keep(s[5])]

    def attrs(name):
        return [s[5] for _, s in by_name.get(name, [])]

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    per_pass = max(passes, 1)

    for name in ("foreground.connected_components", "pipeline.detect_frame"):
        values = ms(name)
        out[f"{name}.ms_p50"] = (median(values), "ms")
        value, pct, n = tail(values)
        out[f"{name}.ms_tail"] = (value, "ms")
        out[f"{name}.ms_tail_pct"] = (pct, "%")
        out[f"{name}.samples"] = (float(n), "count")

    cc = attrs("foreground.connected_components")
    cc_us = 1e3 * sum(ms("foreground.connected_components"))
    fg = sum(a["fg_px"] for a in cc)
    out["foreground.us_per_fg_px"] = (ratio(cc_us, fg), "us")
    out["foreground.fg_fraction"] = (ratio(fg, sum(a["px"] for a in cc)), "ratio")
    out["foreground.objects_per_frame"] = (
        ratio(sum(a["objects"] for a in cc), len(cc)), "count")
    out["foreground.median_filter_mask.ms_p50"] = (
        median(ms("foreground.median_filter_mask")), "ms")
    out["foreground.subtract.ms_p50"] = (median(ms("foreground.subtract")), "ms")

    builds = by_name.get("background.build_srbi", [])
    for method in METHODS:
        for g in GRIDS:
            mine = [s for _, s in builds if s[5]["method"] == method and s[5]["g"] == g]
            key = f"{method}.g{g}"
            out[f"background.build_srbi.{key}.ms"] = (
                median([1e3 * (s[2] - s[1]) for s in mine]), "ms")
            out[f"background.frame_pairs.{key}"] = (
                median([s[5]["consumed"] - 1 for s in mine]), "count")
            out[f"comparators.cells_scored.{key}"] = (
                median([s[5]["scored"] for s in mine]), "count")
            out[f"comparators.us_per_cell.{key}"] = (
                median([1e6 * (s[2] - s[1]) / s[5]["scored"] for s in mine if s[5]["scored"]]),
                "us")
            out[f"background.settle_yield.{key}"] = (
                ratio(sum(s[5]["settled"] for s in mine), sum(s[5]["scored"] for s in mine)),
                "ratio")

    updates = attrs("background.update_srbi")
    out["background.update_srbi.ms_p50"] = (median(ms("background.update_srbi")), "ms")
    out["background.rebuilds"] = (len(updates) / per_pass, "count")
    out["background.rebuild_adopt_ratio"] = (
        ratio(sum(1 for a in updates if a["adopted"]), len(updates)), "ratio")
    out["background.backfilled_cells"] = (
        sum(a["cells"] for a in attrs("background.backfill")) / per_pass, "count")
    out["background.load_model.ms"] = (median(ms("background.load_model")), "ms")
    out["background.save_model.ms"] = (median(ms("background.save_model")), "ms")

    # Frames each command loaded through load_sequence, and the frames it
    # used: detected frames, or for a model command the frames its build
    # consumed.
    root = {}
    for index, s in enumerate(spans):
        parent = s[3]
        root[index] = index if parent is None else root[parent]
    loaded: dict[int, int] = {}
    detected: dict[int, int] = {}
    consumed: dict[int, int] = {}
    for index, s in by_name.get("imaging.load_frame", []):
        if s[3] is not None and spans[s[3]][0] == "imaging.load_sequence":
            loaded[root[index]] = loaded.get(root[index], 0) + 1
    for index, s in by_name.get("pipeline.detect_frame", []):
        detected[root[index]] = detected.get(root[index], 0) + 1
    for index, s in builds:
        if s[3] is not None and spans[s[3]][0] == "cli.main":
            consumed[root[index]] = max(consumed.get(root[index], 0), s[5]["consumed"])
    used = sum(detected.get(r, consumed.get(r, 0)) for r in loaded)
    frames_loaded = sum(loaded.values())
    out["imaging.load_frame.ms_p50"] = (median(ms("imaging.load_frame")), "ms")
    out["imaging.frames_loaded"] = (frames_loaded / per_pass, "count")
    out["imaging.frames_used_ratio"] = (ratio(used, frames_loaded), "ratio")
    out["imaging.bytes_read"] = (
        sum(a["bytes"] for a in attrs("imaging.load_frame")) / per_pass, "B")
    out["imaging.save_frame.ms_p50"] = (median(ms("imaging.save_frame")), "ms")
    out["imaging.bytes_written"] = (
        sum(a["bytes"] for a in attrs("imaging.save_frame")) / per_pass, "B")
    out["cli.objects_csv.ms"] = (median(ms(OBJECTS_CSV)), "ms")

    classified = attrs("validation.classify_all")
    out["validation.classify_all.ms_p50"] = (median(ms("validation.classify_all")), "ms")
    out["validation.vehicle_ratio"] = (
        ratio(sum(a["vehicles"] for a in classified), sum(a["objects"] for a in classified)),
        "ratio")

    # Self time of the CLI layer: each command's wall time minus the time
    # its direct child spans cover (children run one after another).
    child_time = {}
    for s in spans:
        if s[3] is not None and spans[s[3]][0] == "cli.main":
            child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
    self_per_pass: dict[int, float] = {}
    for index, s in by_name.get("cli.main", []):
        p = s[5]["pass"]
        self_per_pass[p] = self_per_pass.get(p, 0.0) + 1e3 * (
            s[2] - s[1] - child_time.get(index, 0.0))
    out["cli.self_ms"] = (median(list(self_per_pass.values())), "ms")
    out["blocks.select_grid.ms"] = (median(ms("blocks.select_grid")), "ms")
    return out
