"""Append-only JSON-lines result cache keyed by a content hash.

A record's key hashes the command, its parameters, the prime, the seed and
the tool version, so a replay is byte-for-byte the original result.  The
file is only ever appended to; on duplicate keys the first record wins.  A
line that is not a {"key", "record"} object, such as one cut short by a
killed run, is skipped with a warning, and the next append starts on a
fresh line.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path


def default_cache_dir() -> Path:
    env = os.environ.get("GRSECANT_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "grsecant"


def cache_key(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _is_entry(entry) -> bool:
    """Whether a decoded line is a {"key": str, "record": dict} object."""
    return isinstance(entry, dict) and isinstance(entry.get("key"), str) and isinstance(entry.get("record"), dict)


class ResultCache:
    def __init__(self, directory: Path | None = None):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.path = self.directory / "results.jsonl"
        self._index: dict[str, dict] | None = None

    def _load(self) -> dict[str, dict]:
        if self._index is None:
            self._index = {}
            skipped = 0
            if self.path.exists():
                with open(self.path, "r", encoding="utf-8") as fh:
                    for line in fh:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            entry = json.loads(line)
                        except json.JSONDecodeError:
                            entry = None
                        if not _is_entry(entry):
                            skipped += 1
                            continue
                        self._index.setdefault(entry["key"], entry["record"])
            if skipped:
                print(f"warning: skipped {skipped} undecodable line(s) in {self.path}", file=sys.stderr)
        return self._index

    def get(self, key: str) -> dict | None:
        return self._load().get(key)

    def put(self, key: str, record: dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps({"key": key, "record": record}, sort_keys=True) + "\n"
        with open(self.path, "a+b") as fh:
            end = fh.seek(0, os.SEEK_END)
            if end:
                fh.seek(end - 1)
                if fh.read(1) != b"\n":
                    # The last append was cut short: start a fresh line.
                    line = "\n" + line
            fh.write(line.encode("utf-8"))
        self._load().setdefault(key, record)
