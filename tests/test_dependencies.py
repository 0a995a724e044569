"""The package stays pure NumPy: it imports only the standard library,
numpy and itself."""

import ast
import sys
from pathlib import Path

import blockbg

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "blockbg"}


def outside_imports(path: Path) -> list[str]:
    """Absolute imports in one source file whose top-level package is not allowed."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] not in ALLOWED]
    return found


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(Path(blockbg.__file__).parent.rglob("*.py"))
    assert len(sources) > 10
    outside = [hit for path in sources for hit in outside_imports(path)]
    assert not outside, f"imports outside stdlib/numpy: {outside}"


def test_guard_flags_a_third_party_import(tmp_path):
    src = tmp_path / "labels.py"
    src.write_text("import os\nfrom . import blocks\nfrom scipy.ndimage import label\n")
    assert outside_imports(src) == ["labels.py:3 scipy.ndimage"]
