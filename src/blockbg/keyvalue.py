"""The ``key=value`` text that config files and scene files share, and the
one rule for the numbers in text inputs."""

from __future__ import annotations

import re
from pathlib import Path

from .errors import PipelineError

_COMMENT = re.compile(r"(?:^|\s)#")  # a '#' that opens a line or follows whitespace
_FLOAT = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|-?inf|nan")


def decimal_int(text: str) -> int:
    """ASCII digits after at most a leading '-' (int() also takes '+1', '0_1', ' 1')."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"{text!r} is not a decimal integer")
    return int(text)


def decimal_float(text: str) -> float:
    """ASCII digits with at most one '.' and an optional exponent, after at
    most a leading '-'; or nan, inf, -inf, for the value's range check to name."""
    if not _FLOAT.fullmatch(text):
        raise ValueError(f"{text!r} is not a decimal number")
    return float(text)


def read_key_values(path, error: type[PipelineError], where: str) -> list[tuple[int, str, str]]:
    """(line number, key, value) for each ``key=value`` line of a UTF-8 file,
    skipping blank lines and comments, from a ``#`` at a line's start or after
    whitespace (``pattern=f#%03d.pgm`` keeps its ``#``). A byte that is not
    UTF-8 or a line without ``=`` raises ``error``, naming it as ``where N``."""
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
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"{where} {ln}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        entries.append((ln, key, value))
    return entries
