"""The workload process: runs a plan of blockbg CLI commands in one fresh
interpreter and reports what it measured.

    python3 perfbench/child.py --setup
    python3 perfbench/child.py PLAN.json RESULT.json

With ``--setup`` it only imports ``blockbg.cli`` and prints, as JSON, the
monotonic clock at the moment the import returned (the parent subtracts
the time it launched the process) and the time of a ``calibrate.Probe``
of ``SETUP_PARTS`` run just after. Otherwise it repeats the plan's commands, in order,
until ``seconds`` have passed, calling ``blockbg.cli.main(argv)``
in-process; with ``seconds`` 0 that is one pass. In a traced plan,
passes alternate between tracing on and off, an even number of them, so
the tracing overhead is measured against untraced passes made at the
same time of the run. Each command's output directory is emptied before
the command starts; its outputs are checked and hashed after it ends,
outside the timed window. In an untraced plan a ``calibrate.Sampler``
probes the machine's speed during each pass; the probes' time is taken
out of each command's wall time and reported per pass. The CLI's own
stdout/stderr are captured so the result file is the only thing this
process reports.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import blockbg.cli

# End of the set-up being measured: process launch until blockbg.cli is
# imported. CLOCK_MONOTONIC is system-wide, so the parent can subtract.
READY = time.monotonic()

from calibrate import SETUP_PARTS, Probe, Sampler  # noqa: E402 (not part of the measured set-up)

CSV_HEADER = "frame_index,object_index,x,y,w,h,area,label,score"


def digest(directory: str) -> str:
    """SHA-256 over every file in ``directory``: sorted name, size, bytes."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def check_outputs(cmd: dict) -> str | None:
    """Structural checks on one command's outputs; None when they pass."""
    out = cmd["out"]
    if cmd["kind"] == "detect":
        masks = sorted(n for n in os.listdir(out) if n.startswith("mask_"))
        want = [f"mask_{i:06d}.pgm" for i in range(cmd["frames"])]
        if masks != want:
            return f"expected {len(want)} masks mask_000000.pgm.., found {len(masks)}"
        csv_path = os.path.join(out, "objects.csv")
        if not os.path.isfile(csv_path):
            return "objects.csv missing"
        with open(csv_path) as fh:
            header = fh.readline().rstrip("\r\n")
        if header != CSV_HEADER:
            return f"objects.csv header is {header!r}"
    else:
        model = cmd["first_output"]
        for path in (model, model + ".cells"):
            if not os.path.isfile(path):
                return f"{os.path.basename(path)} missing"
    return None


def peak_rss_kib() -> int:
    """High-water resident set of this process image (VmHWM). Unlike
    ru_maxrss it does not carry over the parent's peak through exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_command(cmd: dict, sampler: Sampler | None) -> dict:
    out = cmd["out"]
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    captured = io.StringIO()
    error = None
    since = len(sampler.samples) if sampler else 0
    start_ns = time.time_ns()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            rc = blockbg.cli.main(cmd["argv"])
    except Exception:
        rc = None
        error = traceback.format_exc()
    t1 = time.perf_counter()
    # probes that ran inside the command, as offsets from its start
    probes = [(s - t0, e - t0) for s, e in sampler.between(t0, t1, since)] if sampler else []
    wall = t1 - t0 - sum(e - s for s, e in probes)
    if error is None and rc != 0:
        error = f"exit code {rc}: {captured.getvalue().strip()}"
    if error is None:
        error = check_outputs(cmd)
    record = {"wall_s": wall, "frames": cmd["frames"], "argv": cmd["argv"], "error": error}
    if error is None:
        first = (os.stat(cmd["first_output"]).st_mtime_ns - start_ns) / 1e9
        record["first_output_s"] = first - sum(e - s for s, e in probes if e <= first)
        record["digest"] = digest(out)
        if cmd.get("reference") and record["digest"] != cmd["reference"]:
            record["error"] = "output digest differs from the reference"
    return record


def ready_probe_s() -> float:
    """Median time of a set-up probe run right after set-up: the machine's
    speed at the moment set-up was measured."""
    probe = Probe(SETUP_PARTS)
    return statistics.median(probe() for _ in range(5))


def main(argv: list[str]) -> int:
    if argv == ["--setup"]:
        print(json.dumps({"ready": READY, "ready_probe_s": ready_probe_s()}))
        return 0
    setup_probe_s = ready_probe_s()
    plan_path, result_path = argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = None
    if plan["trace"]:
        from blockbg.imaging import load_frame
        from tracing import Tracer

        # Grid selection is off every workload's path (each pins g), so it
        # is timed on its own, on the first two frames of each input; they
        # are read before the tracer is installed.
        pairs = [
            tuple(load_frame(os.path.join(d, f"{i:06d}.pgm")) for i in (0, 1))
            for d in sorted({cmd["input"] for cmd in plan["commands"]})
        ]
        tracer = Tracer()
        tracer.install()

    # The machine's speed is sampled in untraced processes only: a probe
    # inside a traced command would land in its spans.
    sampler = None if tracer else Sampler(Probe(plan["probe"]))
    passes, probes = [], []
    began = time.perf_counter()
    while True:
        records = []
        if tracer is not None:
            tracer.active = len(passes) % 2 == 0
        since = len(sampler.samples) if sampler else 0
        if sampler:
            sampler.start()
        try:
            for index, cmd in enumerate(plan["commands"]):
                if tracer is not None:
                    tracer.begin_command(**{"pass": len(passes), "command": index})
                records.append(run_command(cmd, sampler))
        finally:
            if sampler:
                sampler.stop()
        passes.append(records)
        if sampler:
            sampler.sample()  # so that every pass has at least one
            probes.append([e - s for s, e in sampler.samples[since:]])
        if time.perf_counter() - began >= plan["seconds"]:
            if tracer is None or len(passes) % 2 == 0:
                break

    result = {
        "ready": READY,
        "ready_probe_s": setup_probe_s,
        "passes": passes,
        "probes": probes,
        "probe_ref_s": sampler.probe.ref_s if sampler else None,
        "peak_rss_kib": peak_rss_kib(),
        "module": blockbg.cli.__file__,
    }
    if tracer is not None:
        tracer.active = True
        select_grid = sys.modules["blockbg.blocks"].select_grid  # the traced one
        for first, second in pairs:
            for _ in range(5):
                select_grid(first, second)
        result["spans"] = tracer.dump()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
