"""Append-only JSONL cache for factorizations and analysis records.

One JSON object per line, keyed by integer value for factorizations and by
(m, EngineConfig.record_key) for analyses, so a record computed under
another engine version, height tolerance or bit cap is never served.  Later
lines win on duplicate keys, so the file can simply be appended to.  Writes
are serialized by a lock; readers see a dict snapshot loaded at
construction.  A torn last line, left by an
interrupted append, is skipped with a warning on stderr.
"""

from __future__ import annotations

import json
import os
import sys
import threading

DEFAULT_CACHE_PATH = ".emcache.jsonl"
CACHE_PATH_ENV = "EM_CACHE_PATH"


def resolve_cache_path(explicit: str | None = None) -> str:
    if explicit:
        return explicit
    return os.environ.get(CACHE_PATH_ENV, DEFAULT_CACHE_PATH)


class ResultCache:
    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._data: dict[tuple[str, str], object] = {}
        # (offset, bytes): what replaces an unterminated last line before the
        # next append, so that append starts a line of its own.
        self._tail: tuple[int, bytes] | None = None
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            *whole, last = data.split(b"\n")
            for line in whole:
                self._load_line(line)
            if last.strip():
                # An interrupted append leaves its line without the newline;
                # only there is damage skipped, anywhere else it raises.
                try:
                    self._load_line(last)
                    self._tail = (len(data) - len(last), last + b"\n")
                except ValueError:
                    print(f"warning: skipping torn last line of cache {path}",
                          file=sys.stderr)
                    self._tail = (len(data) - len(last), b"")

    def _load_line(self, line: bytes) -> None:
        if line.strip():
            obj = json.loads(line)
            self._data[(obj["kind"], obj["key"])] = obj["value"]

    def _put(self, kind: str, key: str, value) -> None:
        line = json.dumps({"kind": kind, "key": key, "value": value}) + "\n"
        with self._lock:
            self._data[(kind, key)] = value
            with open(self.path, "ab") as fh:
                if self._tail is not None:
                    offset, repaired = self._tail
                    fh.truncate(offset)
                    fh.write(repaired)
                    self._tail = None
                fh.write(line.encode("utf-8"))

    def get_factorization(self, n: int) -> list[tuple[int, int]] | None:
        raw = self._data.get(("factorization", str(n)))
        if raw is None:
            return None
        return [(int(p), int(e)) for p, e in raw]

    def put_factorization(self, n: int, factors) -> None:
        self._put("factorization", str(n), [[str(p), e] for p, e in factors])

    def get_analysis(self, m: int, record_key: str) -> dict | None:
        return self._data.get(("analysis", f"{m}:{record_key}"))

    def put_analysis(self, m: int, record_key: str, record: dict) -> None:
        self._put("analysis", f"{m}:{record_key}", record)
