"""Append-only JSONL cache for factorizations and analysis records.

One JSON object per line, keyed by integer value for factorizations and by
(m, EngineConfig.record_key) for analyses, so a record computed under
another engine version, height tolerance or bit cap is never served, nor
is a factorization whose product is not its key.  Later lines win on
duplicate keys, so the file can simply be appended to.  Readers see a dict
snapshot loaded at construction.  A torn last line, left by an interrupted
append, is skipped with a warning on stderr.

Appends are serialized across threads and processes by an exclusive flock.
Under it, each append repairs whatever the file ends with after its last
newline, as it is at that moment: a whole line gets its newline, a torn one
is cut off.  Then the new line goes out in one write.

A cache at path None (--no-cache) holds its snapshot in memory only: it
loads nothing and writes nothing, so each value is still computed once.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import sys

DEFAULT_CACHE_PATH = ".emcache.jsonl"
CACHE_PATH_ENV = "EM_CACHE_PATH"

# One decoder for every cache line, and the JSON whitespace around each.
_scan_once = json.JSONDecoder().scan_once
_WHITESPACE = json.decoder.WHITESPACE


def resolve_cache_path(explicit: str | None = None) -> str:
    if explicit:
        return explicit
    return os.environ.get(CACHE_PATH_ENV, DEFAULT_CACHE_PATH)


class ResultCache:
    def __init__(self, path: str | None):
        self.path = path
        self._data: dict[tuple[str, str], object] = {}
        if path is not None and os.path.exists(path):
            with open(path, "rb") as fh:
                raw = fh.read()
            cut = raw.rfind(b"\n") + 1
            for line in _decode(raw[:cut]).split("\n")[:-1]:
                self._load_line(line)
            try:
                self._load_line(_decode(raw[cut:]))
            except ValueError:
                # An interrupted append leaves its line without the newline;
                # only there is damage skipped, anywhere else it raises.
                print(f"warning: skipping torn last line of cache {path}",
                      file=sys.stderr)

    def _load_line(self, line: str) -> None:
        entry = _parse_line(line)
        if entry is not None:
            key, value = entry
            self._data[key] = value

    def _put(self, kind: str, key: str, value) -> None:
        self._data[(kind, key)] = value
        if self.path is None:
            return
        line = json.dumps({"kind": kind, "key": key, "value": value}) + "\n"
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)  # released by the close
            os.write(fd, _repair_tail(fd) + line.encode("utf-8"))
        finally:
            os.close(fd)

    def get_factorization(self, n: int) -> list[tuple[int, int]] | None:
        """The cached factors of n; ValueError unless they are (p, e) pairs
        whose product is n (the p are not re-proven prime)."""
        raw = self._data.get(("factorization", str(n)))
        if raw is None:
            return None
        try:
            factors = [(int(p), int(e)) for p, e in raw]
            # The bounds keep a malformed exponent from building a huge power.
            if (all(1 < p <= n and 0 < e <= n.bit_length() for p, e in factors)
                    and math.prod(p**e for p, e in factors) == n):
                return factors
        except (TypeError, ValueError):
            pass
        raise ValueError(f"cache {self.path}: the factorization at key {n} "
                         f"is not one of {n}: {str(raw)[:80]}")

    def put_factorization(self, n: int, factors) -> None:
        self._put("factorization", str(n), [[str(p), e] for p, e in factors])

    def get_analysis(self, m: int, record_key: str) -> dict | None:
        return self._data.get(("analysis", f"{m}:{record_key}"))

    def put_analysis(self, m: int, record_key: str, record: dict) -> None:
        self._put("analysis", f"{m}:{record_key}", record)


def _decode(raw: bytes) -> str:
    """Cache bytes as text, decoded as json.loads decodes UTF-8."""
    return raw.decode("utf-8", "surrogatepass")


def _parse_line(line: str) -> tuple[tuple[str, str], object] | None:
    """((kind, key), value) of one cache line, or None if it is blank.

    ValueError unless the line holds one kind/key/value object with only
    JSON whitespace around it; a leading BOM is skipped.
    """
    bom = 1 if line.startswith("\ufeff") else 0
    start = _WHITESPACE.match(line, bom).end()
    if start == len(line):
        return None
    try:
        obj, end = _scan_once(line, start)
    except StopIteration:
        end = None
    if end is None or _WHITESPACE.match(line, end).end() != len(line):
        raise ValueError(f"cache line is not one JSON value: {line[:80]!r}")
    try:
        key = obj["kind"], obj["key"]
        hash(key)  # an unhashable kind or key would fail only when stored
        return key, obj["value"]
    except (KeyError, TypeError) as e:
        raise ValueError(
            f"cache line is not a kind/key/value object: {line[:80]!r}") from e


def _repair_tail(fd: int) -> bytes:
    """Make the locked file end at a line boundary before an append.

    Returns the newline that ends a whole last line, or b"" after cutting
    off a torn one (bytes after the last newline that do not parse).
    """
    end = os.fstat(fd).st_size
    start, tail = end, b""
    while start and b"\n" not in tail:
        start = max(0, start - 4096)
        tail = os.pread(fd, end - start, start)
    tail = tail[tail.rfind(b"\n") + 1:]
    try:
        if _parse_line(_decode(tail)) is None:
            return b""
    except ValueError:
        os.ftruncate(fd, end - len(tail))
        return b""
    return b"\n"
