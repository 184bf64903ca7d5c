"""Append-only JSON-lines result cache keyed by a content hash.

A record's key hashes the command, its parameters, the prime, the seed and
the tool version, so a replay is byte-for-byte the original result.  The
file is only ever appended to, one whole line per `put`, in the one form
`put` writes: `{"key": "<64 hex>", "record": {...}}` as dumped with sorted
keys.  Appends from several processes take turns under an exclusive lock.

Loading the file indexes each line in that form by its key without decoding
it; a record is decoded only when it is replayed.  On duplicate keys the
first line that decodes to a {"key", "record"} entry and passes the replay
check wins.  The caller passes that check to `get` (the CLI passes
`terracini.replays` for a probe record); the cache itself knows no
command, and without a check any decoded entry replays.

Two kinds of line are skipped with a warning that names which: at load,
every line not in `put`'s form, such as one cut short by a killed run or
one written by hand; at replay, a line in that form whose body does not
decode or fails the check, after which the next line with the same key is
tried.  The next append after a cut-short line starts on a fresh line.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Callable

# A line as `put` writes it: _HEAD, the key's 64 hex digits, _MIDDLE, the
# rest of the record, b"}}".  Only the record's replay decodes and checks it.
_HEAD, _MIDDLE = b'{"key": "', b'", "record": {'
_KEY_END = len(_HEAD) + 64
_HEX = b"0123456789abcdef"


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
        # ASCII key -> its lines not yet decoded, newline-joined in file
        # order; bytes rather than a list per key, so that a load creates
        # no objects for the garbage collector to track
        self._lines: dict[bytes, bytes] | None = None
        # key -> the record replayed for it
        self._records: dict[str, dict] = {}

    def _warn(self, skipped: int, cause: str) -> None:
        if skipped:
            print(f"warning: skipped {skipped} undecodable line(s) in {self.path}: {cause}", file=sys.stderr)

    def _load(self) -> dict[bytes, bytes]:
        if self._lines is None:
            lines = self._lines = {}
            skipped = 0
            if self.path.exists():
                for line in self.path.read_bytes().split(b"\n"):
                    line = line.strip()
                    if not line:
                        continue
                    key = line[len(_HEAD) : _KEY_END]
                    if (
                        line.startswith(_HEAD)
                        and line.startswith(_MIDDLE, _KEY_END)
                        and line.endswith(b"}}")
                        and not key.translate(None, _HEX)
                    ):
                        lines[key] = lines[key] + b"\n" + line if key in lines else line
                    else:
                        skipped += 1
            self._warn(skipped, "not in the cache's line form")
        return self._lines

    def get(self, key: str, replays: Callable[[dict], bool] | None = None) -> dict | None:
        """The record replayed for `key`: the first of its lines that decodes
        and, if `replays` is given, passes that check."""
        if key not in self._records:
            skipped = 0
            pending = self._load().pop(key.encode("ascii"), None)
            for line in pending.split(b"\n") if pending else ():
                try:
                    entry = json.loads(line)
                except ValueError:
                    entry = None
                if _is_entry(entry) and entry["key"] == key and (replays is None or replays(entry["record"])):
                    self._records[key] = entry["record"]
                    break
                skipped += 1
            self._warn(skipped, "did not decode or failed the replay check")
        return self._records.get(key)

    def put(self, key: str, record: dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps({"key": key, "record": record}, sort_keys=True).encode("utf-8")
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            # Appenders take turns, so the last byte read below is never
            # inside another process's line still being written.
            fcntl.flock(fd, fcntl.LOCK_EX)
            end = os.fstat(fd).st_size
            # The last append was cut short: start a fresh line.
            torn = end > 0 and os.pread(fd, 1, end - 1) != b"\n"
            # One write on an O_APPEND descriptor lands as a whole line.
            os.write(fd, (b"\n" if torn else b"") + line + b"\n")
        finally:
            os.close(fd)
        if self._lines is not None and key not in self._records:
            ascii_key = key.encode("ascii")
            pending = self._lines.get(ascii_key)
            self._lines[ascii_key] = line if pending is None else pending + b"\n" + line
