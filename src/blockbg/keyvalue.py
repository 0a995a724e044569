"""The ``key=value`` text that config files and scene files share."""

from __future__ import annotations

from pathlib import Path

from .errors import PipelineError


def read_key_values(path, error: type[PipelineError], where: str) -> list[tuple[int, str, str]]:
    """(line number, key, value) for each ``key=value`` line of a UTF-8 file,
    skipping ``#`` comments and blank lines. A byte that is not UTF-8 or a
    line without ``=`` raises ``error``, naming the line as ``where N``."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines split as below; the "x" stands in for the bad byte, so a
        # byte that opens a line still counts that line.
        ln = len((data[: exc.start] + b"x").decode("utf-8").splitlines())
        raise error(f"{where} {ln}: byte 0x{data[exc.start]:02x} is not UTF-8") from exc
    entries = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"{where} {ln}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        entries.append((ln, key, value))
    return entries
