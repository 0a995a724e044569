"""Mutation check: do the tests notice a small change to a module?

Makes mutants of each module named, each with one change: a ``<`` becomes
``<=``, a ``<=`` becomes ``<``, a ``>`` becomes ``>=``, a ``>=`` becomes
``>``, or an integer literal gains 1. Each mutant is written into a copy of
``src`` and the tests named run against that copy, stopping at their first
failure; one copy per CPU tests one mutant at a time. A mutant that every
test passes survives. A survivor listed in EQUIVALENT behaves as the
original does, so no test can fail it; any other survivor is a change the
tests do not see. Exits 1 when there is one.

    python tools/mutate.py src/blockbg/foreground.py \\
        --tests tests/test_foreground.py tests/test_acceptance.py

Standard library only. It takes minutes per module, so it is a tool to run
on the modules a change touches, not part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}

# Mutants known to behave as the original, as (file, line, column, mutation):
# why. Columns count from 1. tests/test_mutate.py checks that each entry
# still names a mutant of its file, so an edit that moves one fails there.
EQUIVALENT = {
    ("src/blockbg/foreground.py", 95, 10, "1 -> 2"):
        "_window_sum: dst[:2] is overwritten by the next line's dst[1:]",
    ("src/blockbg/imaging.py", 224, 62, "256 -> 257"):
        "_median3: any pad value above 255 sorts after every pixel",
    ("src/blockbg/background.py", 35, 20, "2 -> 3"):
        "CELL_BACKFILLED: any negative code but CELL_UNSETTLED's does; sidecars store the name",
    ("src/blockbg/background.py", 79, 116, "0 -> 1"):
        "_unread: no code reads the start of an unread build's built_from",
    ("src/blockbg/background.py", 79, 119, "0 -> 1"):
        "_unread: resume = end - 1 = 0 stays below every pair a build reads",
    ("src/blockbg/background.py", 92, 24, ">= -> >"):
        "_move: a build never settles a cell at index 0, and load_model rejects one",
    ("src/blockbg/background.py", 92, 24, "0 -> 1"):
        "_move: a build never settles a cell at index 0, and load_model rejects one",
    ("src/blockbg/background.py", 230, 23, "0 -> 1"):
        "load_model: a malformed line 3 fails against any placeholder range",
    ("src/blockbg/comparators.py", 104, 52, "1 -> 2"):
        "zigzag_indices: NumPy's reshape infers a size given as -2 as it does -1",
    ("src/blockbg/comparators.py", 162, 38, "<= -> <"):
        "compare: at exactly 16,843,009 pixels a uint64 sum gives the same exact mean",
}


def sites(tree: ast.AST) -> list[tuple[int, int, int, int, str]]:
    """(node index in ast.walk order, operator index or -1, line, column,
    mutation) for each mutant of ``tree``, in source order. A comparison is
    placed at its right operand."""
    found = []
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    right = node.comparators[k]
                    mutation = f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"
                    found.append((i, k, right.lineno, right.col_offset + 1, mutation))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((i, -1, node.lineno, node.col_offset + 1, f"{node.value} -> {node.value + 1}"))
    return sorted(found, key=lambda site: site[2:4])


def mutant(source: str, index: int, op: int) -> str:
    """``source`` with the one change that site (index, op) names."""
    tree = ast.parse(source)
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    if op >= 0:
        node.ops[op] = SWAPS[type(node.ops[op])]()
    else:
        node.value += 1
    return ast.unparse(tree)


def run_tests(tree: Path, tests: list[str], timeout: float | None) -> bool:
    """Whether ``tests`` pass against the package under ``tree/src``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            f"--basetemp={tree / 'tmp'}", *tests]
    try:
        return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:  # a mutant that loops forever is caught
        return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="module files under src/ to mutate")
    parser.add_argument("--tests", nargs="+", required=True, help="test files or node ids to run on each mutant")
    args = parser.parse_args()
    jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    names = [Path(module).resolve().relative_to(ROOT).as_posix() for module in args.modules]
    # Mutants are written back from the syntax tree, which drops comments and
    # layout; the tests must pass on each module written back unchanged.
    plain = {name: ast.unparse(ast.parse((ROOT / name).read_text())) for name in names}
    with tempfile.TemporaryDirectory(prefix="mutate-") as work:
        trees = queue.Queue()
        for j in range(jobs):
            tree = Path(work, str(j))
            shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
            for name, text in plain.items():
                (tree / name).write_text(text)
            trees.put(tree)
        t0 = time.perf_counter()
        if not run_tests(Path(work, "0"), args.tests, None):
            print("the tests fail on the unmutated modules", file=sys.stderr)
            return 2
        timeout = 3 * (time.perf_counter() - t0) + 10
        survivors = []
        for name in names:
            source = (ROOT / name).read_text()
            todo = sites(ast.parse(source))

            def attempt(site):
                tree = trees.get()
                try:
                    (tree / name).write_text(mutant(source, site[0], site[1]))
                    return run_tests(tree, args.tests, timeout)
                finally:
                    (tree / name).write_text(plain[name])
                    trees.put(tree)

            with ThreadPoolExecutor(jobs) as pool:
                passed = list(pool.map(attempt, todo))
            known = 0
            for (_, _, line, col, mutation), survived in zip(todo, passed):
                if not survived:
                    continue
                why = EQUIVALENT.get((name, line, col, mutation))
                known += why is not None
                print(f"{name}:{line}:{col}: {mutation}: " + (f"equivalent ({why})" if why else "SURVIVED"))
                if why is None:
                    survivors.append((name, line, col, mutation))
            print(f"{name}: {len(todo)} mutants, {len(todo) - sum(passed)} killed, "
                  f"{known} known equivalent, {sum(passed) - known} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
