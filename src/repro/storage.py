"""Shared on-disk JSON storage primitives (atomic writes, shard layout).

The durable stores in this library — the sweep-cell
:class:`~repro.experiments.store.ResultStore` and the serving-layer
:class:`~repro.service.cache.ExtensionCache` — follow one write
discipline, implemented here exactly once:

* records live at ``root/<key[:2]>/<key>.json`` (two-hex-digit fan-out
  keeps directories small at multi-thousand-record scale);
* writes go to a ``*.tmp`` file created with :func:`tempfile.mkstemp`
  in the destination directory, are flushed and fsynced, then
  ``os.replace``-d into place — a kill at any instant leaves either the
  old record or the new record, never a torn file;
* a failed write never leaks the temporary file *or* its file
  descriptor (the fd is closed on every path, including an
  ``os.fdopen`` failure);
* stray ``*.tmp`` files from a killed process are cleaned
  opportunistically, but only once they are old enough that they cannot
  belong to a live concurrent writer — unlinking a fresh ``.tmp``
  would make that writer's ``os.replace`` fail;
* a reader that drops a damaged record (:func:`open_json_record`)
  removes only the file it read, never one a writer published since.

Alongside the replace-whole-record stores there is one **append-only**
primitive, :class:`JsonlLogWriter` (used by the serving daemon's audit
log): records are single JSON lines appended to an always-growing file,
each fsynced before the append returns, so a kill at any instant loses
at most the one record being written — and that record only ever as a
*torn final line*, which :func:`read_jsonl_records` tolerates (a torn
line anywhere *else* means foreign damage and raises).  An append that
fails while the process lives (ENOSPC, EIO) is undone: the file is
truncated back to its size before the append.

This module sits below every layer and imports nothing from the
package, so any subsystem can depend on it without cycles.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
from typing import Iterator, Optional

__all__ = [
    "sharded_path",
    "atomic_write_json",
    "read_json_or_none",
    "open_json_record",
    "OpenRecord",
    "iter_keys",
    "clean_stale_tmp",
    "JsonlLogWriter",
    "append_jsonl",
    "read_jsonl_records",
]


def sharded_path(root: str | os.PathLike, key: str) -> str:
    """Path of ``key``'s record under the two-hex-digit fan-out layout."""
    root = os.fspath(root)
    return os.path.join(root, key[:2], f"{key}.json")


def atomic_write_json(path: str, record: dict) -> None:
    """Atomically persist ``record`` as JSON at ``path``.

    The record is written to a fresh ``*.tmp`` file in ``path``'s
    directory, fsynced, then renamed over the destination.  On any
    failure the temporary file is unlinked and the descriptor is closed
    — neither a failed ``os.fdopen`` nor a failed ``os.replace`` leaks
    an fd or leaves a stray file behind.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)[:8]}-", suffix=".tmp", dir=directory
    )
    try:
        handle = os.fdopen(fd, "w", encoding="utf-8")
    except BaseException:
        # fdopen failed: the raw descriptor is still ours to close.
        os.close(fd)
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    try:
        with handle:
            json.dump(record, handle, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        # The handle (and fd) are closed by the with-block on every
        # path; only the tmp file itself needs reclaiming.
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class OpenRecord:
    """A JSON record decoded from a file that is still open.

    Yielded by :func:`open_json_record`.  ``record`` is the decoded
    value, or ``None`` if the file could not be decoded.
    """

    def __init__(self, path: str, handle, record) -> None:
        self.path = path
        self.record = record
        self._handle = handle

    def discard(self) -> bool:
        """Unlink :attr:`path` if it still names the file that was read.

        A concurrent writer may have ``os.replace``-d a new record onto
        the path since it was opened; that record is left alone.  The
        comparison runs while the read handle is still open, so the
        inode it compares cannot have been reused.  ``True`` if
        something was removed.
        """
        try:
            if not os.path.samestat(
                os.fstat(self._handle.fileno()), os.stat(self.path)
            ):
                return False
            os.unlink(self.path)
        except OSError:
            return False
        return True


@contextlib.contextmanager
def open_json_record(path: str) -> Iterator[Optional[OpenRecord]]:
    """Read the JSON record at ``path`` and keep its file open.

    Yields ``None`` if ``path`` does not exist — decided by this single
    open, so a record published a moment later is never mistaken for a
    damaged one — and otherwise an :class:`OpenRecord` whose
    :meth:`~OpenRecord.discard` drops the record only if no writer has
    replaced it since.
    """
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        yield None
        return
    with handle:
        try:
            record = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError):
            record = None
        yield OpenRecord(path, handle, record)


def read_json_or_none(path: str) -> dict | None:
    """Load the JSON record at ``path``; ``None`` if absent or torn.

    Only complete records ever reach their final name (writers go
    through :func:`atomic_write_json`), so a decode failure means the
    file was produced or damaged by something else; callers treat it as
    a cache miss.
    """
    with open_json_record(path) as found:
        return None if found is None else found.record


def iter_keys(root: str | os.PathLike):
    """Iterate over every stored key under ``root``'s shard layout
    (sorted, for determinism).  The inverse of :func:`sharded_path`."""
    root = os.fspath(root)
    try:
        shards = sorted(os.listdir(root))
    except FileNotFoundError:
        return
    for shard in shards:
        shard_dir = os.path.join(root, shard)
        if not os.path.isdir(shard_dir):
            continue
        for name in sorted(os.listdir(shard_dir)):
            if name.endswith(".json"):
                yield name[: -len(".json")]


class JsonlLogWriter:
    """Append-only, fsync-per-record JSONL log.

    The durable twin of :func:`atomic_write_json` for *growing* data:
    where the atomic writer replaces a whole record, this appends one
    JSON line at a time to a single file and forces it to stable
    storage (``fsync``) before :meth:`append` returns.  A
    ``kill -9`` therefore loses at most the record currently being
    written, and only ever as an incomplete final line — never a hole
    in the middle of the log.

    The file stays open across appends (one ``open`` per process
    lifetime, not per record); use as a context manager or call
    :meth:`close`.  One writer per file: append-only logs are
    single-owner by design (the serving daemon holds its audit log
    exclusively), concurrent writers would interleave partial lines.

    **A failed append leaves the file as it was.**  A write or fsync
    that raises (ENOSPC after a short write, EIO from fsync) makes
    :meth:`append` truncate the file back to its size before the
    append, so the caller — told the record failed — never finds it, or
    a fragment of it, in the log later.  Bytes go straight to the file
    descriptor, so no user-space buffer can replay them into the next
    append.  If the truncate fails too, the writer closes itself:
    :attr:`closed` turns true and every later append raises, rather
    than glue a record onto a fragment.

    Opening **repairs a torn tail**: a final line left incomplete (or
    undecodable, or blank) by a crash mid-append is truncated away, so
    the next append starts a fresh line instead of concatenating onto
    the fragment — which would have corrupted both records and turned a
    tolerated torn *final* line into fatal *interior* damage on the next
    replay.  Only unacknowledged data can be dropped this way: append
    returns only after fsync, so a torn line was never confirmed to any
    caller.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._truncate_torn_tail()
        # Unbuffered: append writes through os.write on its descriptor.
        self._file = open(self.path, "ab", buffering=0)

    def _truncate_torn_tail(self) -> None:
        """Drop trailing lines that are not complete JSON records."""
        try:
            handle = open(self.path, "r+b")
        except FileNotFoundError:
            return
        with handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            while size > 0:
                # Locate the start of the final line with a growing
                # backward window (records are single lines, usually
                # far smaller than the initial window).
                window = 4096
                while True:
                    chunk_start = max(0, size - window)
                    handle.seek(chunk_start)
                    buffer = handle.read(size - chunk_start)
                    body = (
                        buffer[:-1] if buffer.endswith(b"\n") else buffer
                    )
                    newline_at = body.rfind(b"\n")
                    if newline_at != -1 or chunk_start == 0:
                        break
                    window *= 2
                line_start = chunk_start + newline_at + 1
                line = body[newline_at + 1:]
                if buffer.endswith(b"\n") and line.strip():
                    try:
                        json.loads(line.decode("utf-8"))
                        break  # final line is one whole valid record
                    except (ValueError, UnicodeDecodeError):
                        pass
                handle.truncate(line_start)
                handle.flush()
                os.fsync(handle.fileno())
                size = line_start

    def append(self, record: dict) -> None:
        """Durably append one record as a single JSON line.

        On any failure the file is truncated back to its size before
        this call (see the class docstring) and the error re-raised.
        """
        line = json.dumps(record, sort_keys=True)
        if "\n" in line:  # pragma: no cover - json.dumps never emits one
            raise ValueError("record serialized to more than one line")
        fd = self._file.fileno()  # ValueError once closed
        data = (line + "\n").encode("utf-8")
        size = os.fstat(fd).st_size
        try:
            written = 0
            while written < len(data):  # a regular file may write short
                written += os.write(fd, data[written:])
            os.fsync(fd)
        except BaseException:
            try:
                os.ftruncate(fd, size)
            except OSError:
                self.close()
            raise

    @property
    def closed(self) -> bool:
        """Whether the writer is closed (appends would fail): by
        :meth:`close`, or by a failed append it could not undo."""
        return self._file.closed

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "JsonlLogWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def append_jsonl(path: str | os.PathLike, record: dict) -> None:
    """One-shot durable append (open, write one line, fsync, close).

    Convenience wrapper over :class:`JsonlLogWriter` for callers that
    append rarely; a long-lived writer should hold the class instance
    instead and pay the ``open`` once.
    """
    with JsonlLogWriter(path) as writer:
        writer.append(record)


def read_jsonl_records(path: str | os.PathLike):
    """Yield the records of an append-only JSONL log, oldest first.

    A missing file yields nothing.  An undecodable **final** line is
    tolerated silently — it is exactly what a process killed mid-append
    leaves behind, and the append discipline guarantees the records
    before it are intact.  An undecodable line anywhere else cannot be
    produced by the writer and raises :class:`ValueError` (the log was
    damaged by something foreign; better loud than silently dropping
    audit records).
    """
    path = os.fspath(path)
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return
    with handle:
        pending_error: ValueError | None = None
        pending_line_number = 0
        for line_number, line in enumerate(handle, start=1):
            if pending_error is not None:
                raise ValueError(
                    f"{path}: undecodable record on line "
                    f"{pending_line_number} (not the final line: "
                    "foreign damage, not a torn append)"
                ) from pending_error
            if not line.strip():
                # A blank final line is a torn append of a record whose
                # payload never made it; blank interior lines are held
                # to the same foreign-damage standard as decode errors.
                pending_error = ValueError("blank line")
                pending_line_number = line_number
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                pending_error = ValueError(str(exc))
                pending_line_number = line_number


def clean_stale_tmp(root: str | os.PathLike, max_age_seconds: float = 3600.0) -> int:
    """Remove stale ``*.tmp`` files under ``root``'s shards; return the count.

    Only files strictly older than ``max_age_seconds`` are unlinked: a
    younger ``.tmp`` may be a live concurrent writer's in-flight record,
    and removing it would make that writer's ``os.replace`` fail.  The
    age test re-reads the clock per file (a long scan must not age
    files artificially), and files that vanish mid-scan — e.g. renamed
    into place by their writer — are skipped silently.
    """
    root = os.fspath(root)
    removed = 0
    try:
        shards = os.listdir(root)
    except FileNotFoundError:
        return 0
    for shard in shards:
        shard_dir = os.path.join(root, shard)
        if not os.path.isdir(shard_dir):
            continue
        for name in os.listdir(shard_dir):
            if not name.endswith(".tmp"):
                continue
            path = os.path.join(shard_dir, name)
            try:
                if time.time() - os.path.getmtime(path) > max_age_seconds:
                    os.unlink(path)
                    removed += 1
            except OSError:
                # Vanished mid-scan (the writer finished or another
                # cleaner got it first): never an error.
                pass
    return removed
