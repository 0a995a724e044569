"""The mutation tool's table of known-equivalent mutants stays current."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_mutate():
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_equivalent_entry_names_a_mutant_of_its_file():
    # Line numbers move with edits; an entry that no longer names a mutant
    # would let the mutant that moved onto its old place go unreported.
    mutate = load_mutate()
    stale = []
    for name, line, col, mutation in mutate.EQUIVALENT:
        found = {site[2:] for site in mutate.sites(ast.parse((ROOT / name).read_text()))}
        if (line, col, mutation) not in found:
            stale.append(f"{name}:{line}:{col}: {mutation}")
    assert not stale, f"EQUIVALENT entries that name no mutant: {stale}"
