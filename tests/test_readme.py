"""The README's code examples run against the package as it is."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import blockbg

ROOT = Path(__file__).resolve().parent.parent


def test_the_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", block], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert any(" vehicle " in line for line in done.stdout.splitlines()), done.stdout


def without_parentheticals(text: str) -> str:
    """``text`` with every parenthesized aside removed, nested ones included."""
    while True:
        stripped = re.sub(r"\([^()]*\)", "", text)
        if stripped == text:
            return text
        text = stripped


def test_the_readme_export_list_is_what_blockbg_exports():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listing = readme.split("`import blockbg` exports these names, by module:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for entry in without_parentheticals(listing).split("\n- "):
        module, names = entry.removeprefix("- ").split(":", 1)
        listed.update((name, module.strip("`")) for name in re.findall(r"`(\w+)`", names))
    exported = {
        name: getattr(blockbg, name).__module__.removeprefix("blockbg.")
        for name in dir(blockbg)
        if not name.startswith("_") and not isinstance(getattr(blockbg, name), types.ModuleType)
    }
    assert listed == exported
