"""Flat key=value config files and the per-run manifest.

Config lines look like ``section.key = value``; ``#`` starts a comment.
Command-line flags override file values.  Every run directory, that of
``generate --out`` too, gets a ``manifest.json`` written before any result
file.  It holds the command, master seed, tool version and a timestamp, and:

* ``config``: the config file's lines, raw, and nothing else;
* ``options``: every command-line option as parsed (dates and paths as
  text);
* ``settings``: every setting, resolved from the config or its default;
* ``hyperparameters``: each detector kind's typed hyperparameters;
* ``inputs``: the SHA-256 of each input file, by its resolved path.

Result files carry no timestamps, so a rerun from the same manifest (its
``config`` lines as a config file, and its ``options``) is byte-identical.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import math
import os
from pathlib import Path

from .errors import DataError

TOOL_VERSION = "0.1.0"


def read_text(path) -> str:
    """The file's text; ``DataError`` gives the offset of its first byte
    that is not UTF-8."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def content_lines(text: str):
    """(line number, stripped line) for each line of ``text`` that is
    neither blank nor a ``#`` comment."""
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield ln, line


def parse_config(path) -> dict[str, str]:
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    for ln, line in content_lines(read_text(path)):
        if "=" not in line:
            raise DataError(f"{path}:{ln}: expected key = value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in lines:
            raise DataError(f"{path}:{ln}: {key} repeats line {lines[key]}")
        lines[key], out[key] = ln, value
    return out


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def cast_value(name: str, value, cast):
    """``value``, config text or a Python value, as ``cast``: a bool takes
    the ``_BOOLS`` spellings in any case, an int only integral values, a
    float only finite ones and a date only ``YYYY-MM-DD``.  ``DataError``
    reads ``name = value: reason``."""
    if cast is str:
        return str(value)
    if cast is bool:
        spelled = str(value).lower()  # str(True) is "True"
        if spelled in _BOOLS:
            return _BOOLS[spelled]
        reason = f"expected one of {', '.join(_BOOLS)}"
    elif cast is _dt.date:
        try:
            return _dt.date.fromisoformat(str(value))
        except ValueError:
            reason = "expected YYYY-MM-DD"
    else:
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = math.nan
        if math.isfinite(number) and (cast is float or number.is_integer()):
            return cast(number)
        reason = "expected int" if cast is int else "expected a finite float"
    raise DataError(f"{name} = {value!r}: {reason}")


def cast_setting(key: str, text: str, default):
    """Config ``text`` for ``key`` as its default's type, or the default if
    empty; a tuple default takes a comma list."""
    if text == "":
        return default
    if isinstance(default, tuple):
        return tuple(item.strip() for item in text.split(","))
    return cast_value(f"config {key}", text, type(default))


def resolve_data_path(path) -> Path:
    """Paths resolve against cwd first, then $DGALAB_DATA."""
    p = Path(path)
    if p.exists():
        return p
    base = os.environ.get("DGALAB_DATA")
    if base:
        candidate = Path(base) / path
        if candidate.exists():
            return candidate
    raise DataError(f"input file not found: {path}")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command: str, master_seed, *, config: dict,
                   options: dict, settings: dict, hyperparameters: dict,
                   blas_thread_setter: bool, inputs=()) -> Path:
    """Must be called before any result file lands in ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool_version": TOOL_VERSION,
        "command": command,
        "created_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "master_seed": master_seed,
        "config": config,
        "options": options,
        "settings": settings,
        "hyperparameters": hyperparameters,
        "blas_thread_setter": blas_thread_setter,
        "inputs": {str(p): sha256_file(p) for p in inputs},
    }
    path = out_dir / "manifest.json"
    # a date or a path is written as its text
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True,
                               default=str) + "\n", "utf-8")
    return path
