"""The benchmark's workloads reproduce the output digests it recorded.

Each case builds one workload with ``perfbench/workloads.py`` under
``tmp_path``, runs its commands' argv through ``blockbg.cli.main`` in
process, and compares ``child.digest`` of each command's outputs with
``perfbench/reference_digests.json``: rebuild-320 at every recorded seed,
detect-720p at seeds 0-2. model-720p is left to the benchmark's own runs,
since rendering its sixty 720p frames takes seconds per seed. Nothing under
``perfbench/`` is written.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import child  # noqa: E402
import workloads  # noqa: E402
from blockbg import cli  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference_digests.json").read_text())
CASES = [*(("rebuild-320", seed) for seed in range(16)), *(("detect-720p", seed) for seed in range(3))]


@pytest.mark.parametrize("name, seed", CASES, ids=[f"{name}-{seed}" for name, seed in CASES])
def test_workload_outputs_match_their_recorded_digests(name, seed, tmp_path):
    work = tmp_path / "work"
    try:
        workload = workloads.WORKLOADS[name](seed, str(work), str(tmp_path / "scenes"))
        got = []
        for cmd in workload.commands:
            os.makedirs(cmd["out"])
            assert cli.main(cmd["argv"]) == 0, cmd["argv"]
            got.append(child.digest(cmd["out"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)  # tens of MB of frames and masks per case
    assert got == REFERENCE[name][str(seed)]
