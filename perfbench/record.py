"""Record the reference output digests the benchmark checks against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs the workloads' commands (all workloads, or those named) once for
each scene seed 0..SCENE_SEEDS-1 and writes the SHA-256 digest of each
command's outputs to ``reference_digests.json``, keeping the entries of
workloads not named. Run it only at a commit whose outputs are
known good; a change that alters any output bytes must say why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main(names: list[str]) -> int:
    from workloads import WORKLOADS

    digests: dict[str, dict[str, list[str]]] = {}
    if names and os.path.exists(run.REFERENCE):
        with open(run.REFERENCE) as fh:
            digests = json.load(fh)
    for name in names or WORKLOADS:
        build = WORKLOADS[name]
        digests[name] = {}
        for seed in range(run.SCENE_SEEDS):
            work = os.path.join(run.WORK, f"record-{name}-{seed}")
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            try:
                workload = build(seed, work, os.path.join(run.WORK, "scenes"))
                plan = run.make_plan(workload, [None] * len(workload.commands), False, 0)
                (records,) = run.run_child(plan, work, "record")["passes"]
            finally:
                shutil.rmtree(work, ignore_errors=True)
            errors = [r["error"] for r in records if r["error"] is not None]
            if errors:
                print(f"{name} seed {seed}: {errors[0]}", file=sys.stderr)
                return 1
            digests[name][str(seed)] = [r["digest"] for r in records]
            print(f"{name} seed {seed}: {len(records)} command(s)", flush=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
