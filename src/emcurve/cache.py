"""Append-only JSONL cache for factorizations and analysis records.

One JSON object per line, keyed by integer value for factorizations and by
(m, EngineConfig.record_key) for analyses, so a record computed under
another engine version, height tolerance or bit cap is never served, nor
is a factorization whose product is not its key.  Later lines win on
duplicate keys, so the file can simply be appended to.  Readers see a dict
snapshot loaded at construction, keyed by each line's slot: its bytes from
the kind's first byte to the key's last, K", "key": "KEY, which get and
_put build from (kind, key) alike.

Each line is {"kind": K, "key": KEY, "crc": C, "value": V} as json.dumps
prints it, C the crc32 of V's bytes; caches written before the checksum
lack "crc": C.  One regex, _LINE, reads every line.  A tagged line keeps
V as bytes once C holds, decoded the first time its key is read, so a
command decodes only what it serves; a line without C has V decoded at
load.  json.loads reads every line as one kind/key/value object.

A line is damaged if the regex does not match it (a byte-order mark,
whitespace around the object, a carriage return, another key order, a C
of more than ten digits), if C fails, or if a line without C holds a V
that is not JSON.  A damaged line inside the file raises ValueError; as
the last line, where an interrupted append leaves one, it is skipped with
a warning on stderr.

Loading serves every line before the last newline from one pass of _LINE
over the whole buffer and one comparison of every C with its V; Python
code runs per line only to decode the V of a line without C, and a blank
line needs nothing.  The snapshot maps the slot and V bytes that the one
split returns, so a load keeps no object per line beyond those, and
builds none but the ints the crc comparison drops as it goes.  _judge,
the same checks one line at a time, reads the tail after the last newline
and decides what an append cuts off; on damage it walks the lines to name
the first damaged one, serving nothing.

Appends are serialized across threads and processes by an exclusive flock.
Under it, each append repairs whatever the file ends with after its last
newline, as it is at that moment: a whole line gets its newline, a damaged
one is cut off.  Then the new lines go out in one write.  Puts inside a
batch block wait for its end or for a record: the CLI appends once per
computed record, its new factorizations then the record, or once per
selmer, heights or torsion command, on error too.  A killed process loses
only the lines of the record in progress, which are recomputed identically.

A cache at path None (--no-cache) holds its snapshot in memory only: it
loads nothing and writes nothing, so each value is still computed once.
"""

import binascii
import contextlib
import fcntl
import json
import math
import operator
import os
import re
import sys
from itertools import compress

DEFAULT_CACHE_PATH = ".emcache.jsonl"
CACHE_PATH_ENV = "EM_CACHE_PATH"

# A line as _put writes it, with or without the crc.  Kind and key are
# JSON strings without escapes (printable ASCII but the quote and the
# backslash), so their bytes are their text; the first group is the line's
# slot, from the kind's first byte to the key's last.  A CRC-32 prints in
# at most ten digits.  Anchored to line ends, it also finds every line of
# a buffer.
_LINE = re.compile(rb'^\{"kind": "([ !#-\[\]-~]*", "key": "[ !#-\[\]-~]*)", '
                   rb'(?:"crc": ([0-9]{1,10}), )?"value": (.*)\}$', re.M)


def _slot(kind: str, key: str) -> bytes:
    """The snapshot's key: a line's bytes from the kind's first to the key's last."""
    return f'{kind}", "key": "{key}'.encode("ascii")


def resolve_cache_path(explicit: str | None = None) -> str:
    if explicit is not None:
        return explicit
    return os.environ.get(CACHE_PATH_ENV, DEFAULT_CACHE_PATH)


class ResultCache:
    def __init__(self, path: str | None):
        self.path = path
        # A value still held as bytes is a tagged line's, not yet decoded;
        # JSON decodes to no bytes object, so the two never mix up.
        self._data: dict[bytes, object] = {}  # _slot(kind, key) -> value
        self._pending: list[bytes] = []  # lines held for one append
        self._depth = 0  # how many batch blocks are open
        if path is None:
            return
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:  # not written yet, or removed: nothing to serve
            return
        end = data.rfind(b"\n") + 1  # the tail after it is judged alone
        # split gives one flat list, no tuple per line: the text before the
        # first match, then per match its three groups and the text after
        # it.  A match is a whole line, so any line that is not lies in
        # those texts; a blank line leaves two newlines there.
        parts = _LINE.split(memoryview(data)[:end])
        slots, crcs, values = parts[1::4], parts[2::4], parts[3::4]
        whole = not b"".join(parts[::4]).strip(b"\n")
        tagged, tagged_crcs = compress(values, crcs), filter(None, crcs)
        if None in crcs:  # C is None on a line without one: V is decoded here
            try:
                for i in compress(range(len(crcs)), map(operator.not_, crcs)):
                    values[i] = _decode(values[i])
            except ValueError:
                whole = False
        # A tagged line's V is still bytes when compress reaches it.
        if not (whole and all(map(operator.eq, map(binascii.crc32, tagged),
                                  map(int, tagged_crcs)))):
            try:  # judged one by one, the first damaged line names itself
                for line in data[:end].split(b"\n"):
                    _judge(line)
            except ValueError as e:
                raise ValueError(f"cache {path}: {e}") from None
        self._data.update(zip(slots, values))
        try:
            self._data.update(filter(None, [_judge(data[end:])]))
        except ValueError:
            # An interrupted append leaves its line without the newline;
            # only there is damage skipped, anywhere else it raises.
            print(f"warning: skipping torn last line of cache {path}",
                  file=sys.stderr)

    def get(self, kind: str, key: str):
        """The value stored under (kind, key), or None.

        A tagged line's value is decoded here the first time it is read,
        and kept decoded.
        """
        slot = _slot(kind, key)
        value = self._data.get(slot)
        if type(value) is bytes:
            try:
                value = self._data[slot] = _decode(value)
            except ValueError as e:
                raise ValueError(f"cache {self.path}: the value at key {key} "
                                 f"is not JSON: {e}") from None
        return value

    @contextlib.contextmanager
    def batch(self):
        """Hold the lines put in the block until it ends, however it ends, or
        until an analysis record is put, the last line of its computation."""
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            if not self._depth:
                self._append()

    def _append(self) -> None:
        """Write the held lines, in order, in one locked append."""
        if self._pending:
            lines, self._pending = b"".join(self._pending), []
            fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)  # released by the close
                os.write(fd, _repair_tail(fd) + lines)
            finally:
                os.close(fd)

    def _put(self, kind: str, key: str, value) -> None:
        slot = _slot(kind, key)
        self._data[slot] = value
        if self.path is None:
            return
        text = json.dumps(value).encode("ascii")
        self._pending.append(b'{"kind": "%s", "crc": %d, "value": %s}\n'
                             % (slot, binascii.crc32(text), text))
        if not self._depth:
            self._append()

    def get_factorization(self, n: int) -> list[tuple[int, int]] | None:
        """The cached factors of n; ValueError unless they are (p, e) pairs
        whose product is n (the p are not re-proven prime)."""
        raw = self.get("factorization", str(n))
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
        return self.get("analysis", f"{m}:{record_key}")

    def put_analysis(self, m: int, record_key: str, record: dict) -> None:
        self._put("analysis", f"{m}:{record_key}", record)
        self._append()


def _decode(raw: bytes):
    """A value from its bytes, which json.dumps writes as ASCII."""
    return json.loads(raw.decode("ascii"))


def _judge(line: bytes) -> tuple[bytes, object] | None:
    """(slot, value) of one cache line, None if empty, ValueError if
    damaged.  A tagged line keeps its value as bytes; one without a crc has
    it decoded here."""
    if not line:
        return None
    parts = _LINE.fullmatch(line)
    if parts is None:
        raise ValueError(f"cache line is not one the cache writes: {line[:80]!r}")
    slot, crc, value = parts.groups()
    if crc is None:
        try:
            value = _decode(value)
        except ValueError:
            raise ValueError(
                f"cache line holds a value that is not JSON: {line[:80]!r}") from None
    elif binascii.crc32(value) != int(crc):
        raise ValueError(f"cache line fails its checksum: {line[:80]!r}")
    return slot, value


def _repair_tail(fd: int) -> bytes:
    """Make the locked file end at a line boundary before an append.

    Returns the newline that ends a whole last line, or b"" after cutting
    off a damaged one (bytes after the last newline that _judge rejects).
    """
    end = os.fstat(fd).st_size
    start, tail = end, b""
    while start and b"\n" not in tail:
        start = max(0, start - 4096)
        tail = os.pread(fd, end - start, start)
    tail = tail[tail.rfind(b"\n") + 1:]
    try:
        if _judge(tail) is None:
            return b""
    except ValueError:
        os.ftruncate(fd, end - len(tail))
        return b""
    return b"\n"
