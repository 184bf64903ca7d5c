"""Append-only JSON-lines result cache keyed by a content hash.

A record's key hashes the command, its parameters, the prime, the seed and
the tool version, so a replay is byte-for-byte the original result.  The
file is only ever appended to, one whole line per `put`, in the one form
`put` writes: `{"key": "<64 hex>", "record": {...}}` as dumped with sorted
keys.  Appends from several processes take turns under an exclusive lock.

Loading reads the file once and indexes it in one vectorised pass over its
bytes: the fixed head, the 64 lowercase hex digits of the key and the
closing `}}` of every line are checked at once, and the keys are kept as
one array.  A line that fails this test (blank, cut short, padded with
whitespace or CRLF, or written by hand) is stripped and checked again on
its own, so exactly the lines in `put`'s form are indexed.  A record is
decoded only when it is replayed.  On duplicate keys the first line, in
file order, that decodes to a {"key", "record"} entry and passes the
replay check wins.  The caller passes that check to `get` (the CLI checks
the record's envelope and, for a probe or induction record, rebuilds it
from the problem asked); the cache itself knows no command, and without a
check any decoded entry replays.  Each key is resolved once: its first
`get` finds the winning line, or none, and every later `get` of that key
in the same process returns that outcome.

Two kinds of line are skipped with a warning that names which: at load,
every line not in `put`'s form; at replay, a line in that form whose body
does not decode or fails the check, after which the next line with the
same key is tried.  The next append after a cut-short line starts on a
fresh line.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# A line as `put` writes it: _HEAD, the key's 64 hex digits, _MIDDLE, the
# rest of the record, b"}}".  Only the record's replay decodes and checks it.
_HEAD, _MIDDLE = b'{"key": "', b'", "record": {'
_KEY = slice(len(_HEAD), len(_HEAD) + 64)
_HEX = b"0123456789abcdef"
# The head, the key and the middle as one template whose key bytes are free;
# a line in form is at least the template and b"}}" long.
_TEMPLATE = np.frombuffer(_HEAD + bytes(64) + _MIDDLE, np.uint8)
_FIXED = np.ones(_TEMPLATE.size, bool)
_FIXED[_KEY] = False
_SHORTEST = _TEMPLATE.size + 2
# Bytes searched for newlines at once.  A file-sized boolean temporary
# would double the load's peak memory; freeing it can push the allocator
# over its trim threshold, so that every later load in the same process
# faults its pages in again.
_NEWLINE_CHUNK = 1 << 18


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


def _in_form(line: bytes) -> bool:
    """Whether one stripped line is in `put`'s form, checked on its bytes."""
    return (
        line.startswith(_HEAD)
        and line.startswith(_MIDDLE, _KEY.stop)
        and line.endswith(b"}}")
        and not line[_KEY].translate(None, _HEX)
    )


class ResultCache:
    def __init__(self, directory: Path | None = None):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.path = self.directory / "results.jsonl"
        # Once loaded, and never changed after: the file's bytes, and for each
        # line in form, in file order, its ASCII key and its start and end
        self._data = b""
        self._keys: np.ndarray | None = None
        self._starts: np.ndarray | None = None
        self._ends: np.ndarray | None = None
        # key -> its outcome: the record replayed for it, or None
        self._records: dict[str, dict | None] = {}

    def _warn(self, skipped: int, cause: str) -> None:
        if skipped:
            print(f"warning: skipped {skipped} undecodable line(s) in {self.path}: {cause}", file=sys.stderr)

    def _load(self) -> None:
        if self._keys is not None:
            return
        data = self._data = self.path.read_bytes() if self.path.exists() else b""
        a = np.frombuffer(data, np.uint8)
        chunks = range(0, max(a.size, 1), _NEWLINE_CHUNK)
        newlines = np.concatenate([np.flatnonzero(a[lo : lo + _NEWLINE_CHUNK] == ord("\n")) + lo for lo in chunks])
        starts = np.concatenate(([0], newlines + 1))
        ends = np.concatenate((newlines, [a.size]))
        keys = np.zeros(starts.size, "S64")
        # Every line long enough is tested at once, as written: the template's
        # fixed bytes, 64 lowercase hex digits, and b"}}" last.  (No line is
        # long enough in a file shorter than the template.)
        indexed = ends - starts >= _SHORTEST
        if indexed.any():
            rows = np.flatnonzero(indexed)
            head = sliding_window_view(a, _TEMPLATE.size)[starts[rows]]
            key = np.ascontiguousarray(head[:, _KEY])
            close = ends[rows]
            indexed[rows] = (
                ((head ^ _TEMPLATE)[:, _FIXED] == 0).all(axis=1)
                & (((key - ord("0")) < 10) | ((key - ord("a")) < 6)).all(axis=1)
                & (a[close - 2] == ord("}"))
                & (a[close - 1] == ord("}"))
            )
            keys[rows] = key.view("S64")[:, 0]
        # The lines that test rejects are stripped and tested one at a time.
        skipped = 0
        for i in np.flatnonzero(~indexed).tolist():
            raw = data[starts[i] : ends[i]]
            line = raw.strip()
            if not line:
                continue
            if _in_form(line):
                starts[i] += len(raw) - len(raw.lstrip())
                ends[i] = starts[i] + len(line)
                keys[i] = line[_KEY]
                indexed[i] = True
            else:
                skipped += 1
        self._keys, self._starts, self._ends = keys[indexed], starts[indexed], ends[indexed]
        self._warn(skipped, "not in the cache's line form")

    def get(self, key: str, replays: Callable[[dict], bool] | None = None) -> dict | None:
        """The record replayed for `key`: the first of its lines that decodes
        and, if `replays` is given, passes that check.  Each key is resolved
        once: a later `get` returns the same record or None and warns of nothing."""
        if key not in self._records:
            self._load()
            rows = np.flatnonzero(self._keys == key.encode("ascii"))
            record, skipped = None, 0
            for start, end in zip(self._starts[rows].tolist(), self._ends[rows].tolist()):
                try:
                    entry = json.loads(self._data[start:end])
                except (ValueError, RecursionError):  # a body nested too deep does not decode
                    entry = None
                if _is_entry(entry) and entry["key"] == key and (replays is None or replays(entry["record"])):
                    record = entry["record"]
                    break
                skipped += 1
            self._records[key] = record
            self._warn(skipped, "did not decode or failed the replay check")
        return self._records[key]

    def put(self, key: str, record: dict) -> None:
        """Append `record` under `key`, meant for a key whose lookup missed.

        Unless the key already resolved to a record, the line written, as a
        later process would decode it, becomes the key's outcome.
        """
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
        if self._records.get(key) is None:
            self._records[key] = json.loads(line)["record"]
