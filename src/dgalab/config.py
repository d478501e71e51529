"""Flat key=value config files and the per-run manifest.

Config lines look like ``section.key = value``; ``#`` starts a comment.
Command-line flags override file values.  Every run directory gets a
``manifest.json`` written before any result file: config snapshot, master
seed, input digests, tool version, and timestamps.  Result files themselves
carry no timestamps, so a rerun from the same manifest is byte-identical.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import os
from pathlib import Path

from .errors import DataError

TOOL_VERSION = "0.1.0"


def parse_config(path) -> dict[str, str]:
    out: dict[str, str] = {}
    for ln, raw in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{ln}: expected key = value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def parse_bool(raw: str) -> bool:
    """The boolean a config value spells, in any case; ValueError for any
    spelling outside ``_BOOLS``."""
    try:
        return _BOOLS[raw.lower()]
    except KeyError:
        raise ValueError(f"expected one of {', '.join(_BOOLS)}") from None


def cfg_get(cfg: dict, key: str, default=None, cast=str):
    if key not in cfg or cfg[key] == "":
        return default
    raw = cfg[key]
    try:
        return (parse_bool if cast is bool else cast)(raw)
    except ValueError as exc:
        raise DataError(f"config {key} = {raw!r}: {exc}") from None


def cfg_date(cfg: dict, key: str, default):
    raw = cfg.get(key)
    if not raw:
        return default
    try:
        return _dt.date.fromisoformat(raw)
    except ValueError:
        raise DataError(f"config {key} = {raw!r}: expected YYYY-MM-DD") from None


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


def write_manifest(out_dir, command: str, config: dict, master_seed,
                   inputs=()) -> Path:
    """Must be called before any result file lands in ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool_version": TOOL_VERSION,
        "command": command,
        "created_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "master_seed": master_seed,
        "config": dict(sorted(config.items())),
        "inputs": {str(p): sha256_file(p) for p in inputs},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    "utf-8")
    return path
