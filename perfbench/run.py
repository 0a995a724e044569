"""blockbg benchmark: one run of one workload.

    python3 perfbench/run.py --workload detect-720p --seed 3 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Set-up (outside every timed window) synthesizes the workload's scene from
the seed, writes its frames as PGM files and, for detect-720p, saves the
model. The workload's ``blockbg`` CLI commands then run in one fresh
workload process (``child.py``), repeated until ``--seconds`` have passed,
with BLAS pinned to one thread.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
Their timings are calibrated against the machine's speed, sampled while
they run (``calibrate.py``), so that the drift of a shared host's speed
does not move them; the uncalibrated figures are printed too.
``--trace 1`` runs the same commands in a traced workload process for the
per-layer metrics; its passes alternate between tracing on and off, which
gives the tracing overhead. Every command's outputs are checked: exit
code, file layout, and a SHA-256 digest equal to the one recorded in
``reference_digests.json``. Human-readable lines come first; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before NumPy is imported, here and in children

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, SRC)  # the workload modules import blockbg from the checkout
REFERENCE = os.path.join(HERE, "reference_digests.json")

# Scenes come from seed % SCENE_SEEDS, the seeds whose output digests
# reference_digests.json holds.
SCENE_SEEDS = 16
SETUP_LAUNCHES = 5
# The workload process stops at the first pass boundary after ``seconds``
# (the second, when traced); this covers those passes and its start-up.
CHILD_MARGIN_S = 120

END_TO_END = {
    "setup_s": "s",
    "frames_per_ref_s": "frames/s",
    "first_output_ref_s": "s",
    "peak_rss_mib": "MiB",
    "px_f1": "ratio",
    "det_acc": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(PINNED)
    return env


def setup_sample(ready: dict, launched: float) -> tuple[float, float]:
    """Seconds from launching a workload process until ``import
    blockbg.cli`` returned, and the time of the probe it ran just after."""
    return ready["ready"] - launched, ready["ready_probe_s"]


def setup_samples(n: int) -> list[tuple[float, float]]:
    """Set-up samples of ``n`` fresh interpreters that only import
    ``blockbg.cli``, after one unmeasured launch that leaves the bytecode
    cache warm."""
    samples = []
    for i in range(n + 1):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, CHILD, "--setup"], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            samples.append(setup_sample(json.loads(out.stdout), t0))
    return samples


def run_child(plan: dict, work: str, tag: str) -> dict:
    plan_path = os.path.join(work, f"{tag}.plan.json")
    result_path = os.path.join(work, f"{tag}.result.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    t0 = time.monotonic()
    subprocess.run(
        [sys.executable, CHILD, plan_path, result_path], env=child_env(), cwd=ROOT,
        stdout=subprocess.DEVNULL, timeout=plan["seconds"] + CHILD_MARGIN_S, check=True,
    )
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup"] = setup_sample(result, t0)
    if os.path.dirname(os.path.realpath(result["module"])) != os.path.join(SRC, "blockbg"):
        raise RuntimeError(f"workload process imported blockbg from {result['module']}")
    return result


def make_plan(workload, references, trace: bool, seconds: float) -> dict:
    if len(references) != len(workload.commands):
        raise RuntimeError(f"{len(references)} reference digests for {len(workload.commands)} commands")
    commands = [dict(cmd, reference=ref) for cmd, ref in zip(workload.commands, references)]
    return {"commands": commands, "trace": trace, "seconds": seconds, "probe": workload.probe}


def ok_passes(result: dict) -> list[tuple[list[dict], float]]:
    """The passes whose commands all succeeded, each with its speed factor:
    the probe's reference time over its mean time during the pass."""
    return [
        (p, result["probe_ref_s"] / statistics.fmean(probes))
        for p, probes in zip(result["passes"], result["probes"])
        if all(r["error"] is None for r in p)
    ]


def pass_wall(records: list[dict]) -> float:
    return sum(r["wall_s"] for r in records)


def end_to_end(workload, result: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics, and views of them: per workload kind
    (detect_fps, first_mask_s, model_s.<method>) and uncalibrated.

    Pass timings are calibrated (see calibrate.py): each pass's wall time
    is scaled by its speed factor, so it reads in seconds of a machine on
    which the probe takes its reference time. Each timing is the median
    over the run's passes. Set-up time is the median over the launches,
    calibrated by the median of the probes they ran just after set-up:
    one launch's probe is too short to tell its speed, but the pooled
    probes follow the machine's drift from run to run.
    """
    from calibrate import PART_REF_S, SETUP_PARTS
    from tracing import METHODS, median

    setup = setup + [tuple(result["setup"])]
    raw_setup = [s for s, _ in setup]
    setup_ref_s = sum(PART_REF_S[p] for p in SETUP_PARTS)
    good = ok_passes(result)
    # quality reads the outputs the last pass left on disk
    px_f1, det_acc = workload.quality() if good and good[-1][0] is result["passes"][-1] else (0.0, 0.0)

    def frames_per_s(p, k):
        return sum(r["frames"] for r in p) / (pass_wall(p) * k)

    def first_output_s(p, k):
        # mean over a pass's commands, not median: model-720p's commands
        # differ 30x in length, and the median flipped between commands
        return statistics.fmean(r["first_output_s"] for r in p) * k

    metrics = {
        "setup_s": median(raw_setup) * setup_ref_s / median([p for _, p in setup]),
        "frames_per_ref_s": median([frames_per_s(p, k) for p, k in good]),
        "first_output_ref_s": median([first_output_s(p, k) for p, k in good]),
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
        "px_f1": px_f1,
        "det_acc": det_acc,
    }
    views = {
        "uncalibrated.setup_s": (median(raw_setup), "s"),
        "uncalibrated.frames_per_s": (median([frames_per_s(p, 1.0) for p, _ in good]), "frames/s"),
        "uncalibrated.first_output_s": (median([first_output_s(p, 1.0) for p, _ in good]), "s"),
        "probe_s": (median([s for probes in result["probes"] for s in probes]), "s"),
    }
    if workload.commands[0]["kind"] == "detect":
        views["detect_fps"] = (metrics["frames_per_ref_s"], "frames/s")
        views["first_mask_s"] = (metrics["first_output_ref_s"], "s")
    else:
        for method in METHODS:
            views[f"model_s.{method}"] = (median([
                k * sum(r["wall_s"] for r in p if r["argv"][r["argv"].index("--method") + 1] == method)
                for p, k in good
            ]), "s")
    return metrics, views


def environment() -> list[str]:
    import numpy as np

    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {}).get("name", "unknown")
    return [
        f"nproc {os.cpu_count()}",
        f"python {platform.python_version()}",
        f"numpy {np.__version__}",
        f"blas {blas} ({', '.join(f'{k}={v}' for k, v in PINNED.items())})",
    ]


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import check_spans, layer_metrics, median
    from workloads import WORKLOADS

    with open(REFERENCE) as fh:
        reference = json.load(fh)
    scene_seed = seed % SCENE_SEEDS
    references = reference[name][str(scene_seed)]

    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workload = WORKLOADS[name](scene_seed, work, os.path.join(WORK, "scenes"))
        lines = environment() + [
            f"workload {name} seed {seed} scene {', '.join(workload.scenes)}",
        ]
        if not trace:
            # launches before and after the workload process, which sample
            # the machine at two moments of the run
            setup = setup_samples(SETUP_LAUNCHES)
            result = run_child(make_plan(workload, references, False, seconds), work, "untraced")
            setup += setup_samples(SETUP_LAUNCHES)
            values, views = end_to_end(workload, result, setup)
            metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        else:
            result = run_child(make_plan(workload, references, True, seconds), work, "traced")
            traced, untraced = result["passes"][0::2], result["passes"][1::2]
            if [[r["argv"] for r in p] for p in traced] != [[r["argv"] for r in p] for p in untraced]:
                raise RuntimeError("traced and untraced passes executed different commands")
            problems = check_spans(result["spans"], workload.expect, workload.forbid)
            if problems:
                raise RuntimeError("trace is incomplete: " + "; ".join(problems))
            metrics = layer_metrics(result["spans"], len(traced))
            metrics["bench.gen_scene.s"] = (workload.gen_scene_s, "s")
            t_traced = median([pass_wall(p) for p in traced])
            t_untraced = median([pass_wall(p) for p in untraced])
            metrics["trace.overhead_frac"] = ((t_traced - t_untraced) / t_untraced, "ratio")
            views = {}
        records = [r for p in result["passes"] for r in p]
        errors = [r["error"] for r in records if r["error"] is not None]
        digests = {r["digest"] for r in records if r.get("digest")}
        lines.append(f"passes {len(result['passes'])}, distinct output digests {len(digests)}")
        lines += [f"error {e}" for e in dict.fromkeys(errors)]
        views["failed_frac"] = (len(errors) / len(records), "ratio")
        lines += [f"{k} {v:.6g} {u}" for k, (v, u) in sorted(views.items())]
        lines += [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
        print("\n".join(lines))
        return {
            "correct": not errors,
            "attempted": len(records),
            "failed": len(errors),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "blockbg", "cli.py")):
        print(f"error: no blockbg sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}: expected one of {', '.join(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
