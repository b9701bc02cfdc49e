"""Tests for the shared durable-store primitives (``repro.storage``).

Pins the satellite bugfix contract for ``clean_tmp`` and ``put``:

* another process's cleanup must never unlink a live writer's young
  ``*.tmp`` file (doing so would break that writer's ``os.replace``);
* a failed write — including a failed ``os.fdopen`` or ``os.replace``
  — must not leak a file descriptor or a stray tmp file.
"""

import json
import os
import subprocess
import sys
import tempfile

import pytest

from repro.storage import (
    atomic_write_json,
    clean_stale_tmp,
    read_json_or_none,
    sharded_path,
)

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _run_clean_in_subprocess(root: str, max_age: float) -> int:
    """Run ``clean_stale_tmp`` in a *separate process* (the concurrent
    cleaner of the two-process race) and return its removal count."""
    script = (
        "import sys, json\n"
        f"sys.path.insert(0, {_SRC!r})\n"
        "from repro.storage import clean_stale_tmp\n"
        f"print(json.dumps(clean_stale_tmp({root!r}, {max_age!r})))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout)


class TestTwoProcessCleanRace:
    def test_concurrent_cleaner_spares_live_writer_tmp(self, tmp_path):
        """Process A holds an in-flight .tmp (mid-put); process B's
        cleanup must leave it alone so A's os.replace succeeds."""
        root = str(tmp_path / "store")
        destination = sharded_path(root, "abcd" * 16)
        directory = os.path.dirname(destination)
        os.makedirs(directory)
        # Simulate a writer paused between mkstemp and os.replace.
        fd, live_tmp = tempfile.mkstemp(
            prefix=".abcd-", suffix=".tmp", dir=directory
        )
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write('{"half": ')  # deliberately incomplete

        removed = _run_clean_in_subprocess(root, 3600.0)
        assert removed == 0
        assert os.path.exists(live_tmp)

        # The writer resumes and lands its record atomically.
        os.replace(live_tmp, destination)
        assert read_json_or_none(destination) is None  # torn == missing

    def test_concurrent_cleaner_removes_only_stale(self, tmp_path):
        root = str(tmp_path / "store")
        shard = os.path.join(root, "ab")
        os.makedirs(shard)
        stale = os.path.join(shard, "dead.tmp")
        fresh = os.path.join(shard, "live.tmp")
        for path in (stale, fresh):
            with open(path, "w") as handle:
                handle.write("partial")
        os.utime(stale, (0, 0))
        assert _run_clean_in_subprocess(root, 3600.0) == 1
        assert sorted(os.listdir(shard)) == ["live.tmp"]

    def test_vanishing_file_mid_scan_is_not_an_error(self, tmp_path):
        # A cleaner racing a completing writer sees the tmp disappear:
        # getmtime/unlink OSErrors are swallowed, not raised.
        root = str(tmp_path / "store")
        os.makedirs(os.path.join(root, "ab"))
        assert clean_stale_tmp(root) == 0
        assert clean_stale_tmp(str(tmp_path / "missing-root")) == 0


class TestAtomicWrite:
    def test_roundtrip_and_no_tmp_left(self, tmp_path):
        path = sharded_path(tmp_path, "ff" * 32)
        atomic_write_json(path, {"x": 1})
        assert read_json_or_none(path) == {"x": 1}
        files = [
            name for _, _, names in os.walk(tmp_path) for name in names
        ]
        assert files == [os.path.basename(path)]

    def test_failed_replace_cleans_tmp_and_closes_fd(
        self, tmp_path, monkeypatch
    ):
        """os.replace failing must leave no tmp file and no open fd."""
        path = sharded_path(tmp_path, "aa" * 32)

        real_replace = os.replace
        captured = {}

        def failing_replace(src, dst):
            captured["tmp"] = src
            raise OSError("disk detached")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk detached"):
            atomic_write_json(path, {"x": 1})
        monkeypatch.setattr(os, "replace", real_replace)
        assert not os.path.exists(captured["tmp"])
        assert not os.path.exists(path)
        # The fd was closed before replace: closing it again must fail.
        # (We can't capture the numeric fd portably; instead assert the
        # directory holds no stray entries at all.)
        directory = os.path.dirname(path)
        assert os.listdir(directory) == []

    def test_failed_fdopen_closes_raw_fd(self, tmp_path, monkeypatch):
        path = sharded_path(tmp_path, "bb" * 32)
        captured = {}
        real_fdopen = os.fdopen

        def failing_fdopen(fd, *args, **kwargs):
            captured["fd"] = fd
            raise ValueError("bad mode simulation")

        monkeypatch.setattr(os, "fdopen", failing_fdopen)
        with pytest.raises(ValueError, match="bad mode"):
            atomic_write_json(path, {"x": 1})
        monkeypatch.setattr(os, "fdopen", real_fdopen)
        # The raw descriptor was closed on the failure path.
        with pytest.raises(OSError):
            os.close(captured["fd"])
        assert os.listdir(os.path.dirname(path)) == []

    def test_overwrite_is_atomic_swap(self, tmp_path):
        path = sharded_path(tmp_path, "cc" * 32)
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2})
        assert read_json_or_none(path) == {"v": 2}


class TestJsonlLog:
    """The fsync'd append-only primitive behind the daemon's audit log."""

    def test_append_and_read_back_in_order(self, tmp_path):
        from repro.storage import JsonlLogWriter, read_jsonl_records

        path = tmp_path / "log.jsonl"
        with JsonlLogWriter(path) as writer:
            for i in range(5):
                writer.append({"seq": i, "payload": "x" * i})
        records = list(read_jsonl_records(path))
        assert [r["seq"] for r in records] == list(range(5))

    def test_one_shot_append_and_missing_file(self, tmp_path):
        from repro.storage import append_jsonl, read_jsonl_records

        path = tmp_path / "deep" / "dirs" / "log.jsonl"
        append_jsonl(path, {"a": 1})
        append_jsonl(path, {"b": 2})
        assert list(read_jsonl_records(path)) == [{"a": 1}, {"b": 2}]
        assert list(read_jsonl_records(tmp_path / "nope.jsonl")) == []

    def test_torn_final_line_tolerated(self, tmp_path):
        from repro.storage import append_jsonl, read_jsonl_records

        path = tmp_path / "log.jsonl"
        append_jsonl(path, {"seq": 0})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 1, "pay')  # kill -9 mid-append
        assert list(read_jsonl_records(path)) == [{"seq": 0}]
        # Blank final line (newline landed, payload did not): also torn.
        path2 = tmp_path / "log2.jsonl"
        append_jsonl(path2, {"seq": 0})
        with open(path2, "a", encoding="utf-8") as handle:
            handle.write("\n")
        assert list(read_jsonl_records(path2)) == [{"seq": 0}]

    def test_interior_damage_raises(self, tmp_path):
        from repro.storage import read_jsonl_records

        path = tmp_path / "log.jsonl"
        path.write_text('{"seq": 0}\n{torn interior\n{"seq": 2}\n')
        with pytest.raises(ValueError, match="not the final line"):
            list(read_jsonl_records(path))
        path.write_text('{"seq": 0}\n\n{"seq": 2}\n')
        with pytest.raises(ValueError, match="not the final line"):
            list(read_jsonl_records(path))

    def test_reopen_repairs_torn_tail_before_appending(self, tmp_path):
        """Append-after-crash: a new writer must truncate the torn
        final line, otherwise its first append would concatenate onto
        the fragment — corrupting both records and turning tolerated
        *final*-line damage into fatal *interior* damage on the next
        replay."""
        from repro.storage import (
            JsonlLogWriter,
            append_jsonl,
            read_jsonl_records,
        )

        for torn_tail in ('{"seq": 1, "pay', "\n", '{"whole bad"}\n',
                          '{"a": 1\n\n'):
            path = tmp_path / f"log-{hash(torn_tail) & 0xffff}.jsonl"
            append_jsonl(path, {"seq": 0})
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(torn_tail)  # kill -9 / foreign damage
            writer = JsonlLogWriter(path)
            writer.append({"seq": 1})
            writer.close()
            assert list(read_jsonl_records(path)) == [
                {"seq": 0}, {"seq": 1},
            ], torn_tail

    def test_reopen_of_clean_or_missing_log_touches_nothing(self, tmp_path):
        from repro.storage import JsonlLogWriter, read_jsonl_records

        path = tmp_path / "log.jsonl"
        with JsonlLogWriter(path) as writer:
            writer.append({"seq": 0})
            writer.append({"seq": 1})
        before = path.read_bytes()
        JsonlLogWriter(path).close()  # reopen, no append
        assert path.read_bytes() == before
        assert list(read_jsonl_records(path)) == [{"seq": 0}, {"seq": 1}]
        # A writer on a whole-file fragment truncates to empty.
        torn_only = tmp_path / "torn.jsonl"
        torn_only.write_text('{"never finis')
        with JsonlLogWriter(torn_only) as writer:
            writer.append({"seq": 0})
        assert list(read_jsonl_records(torn_only)) == [{"seq": 0}]

    @pytest.mark.parametrize("fault", ["fsync_eio", "short_write_enospc"])
    def test_failed_append_leaves_file_unchanged(
        self, tmp_path, io_fault, fault
    ):
        """A live I/O fault inside append leaves neither the record nor
        a fragment of it: the caller was told the append failed, and
        the next append must not glue onto leftover bytes."""
        from repro.storage import JsonlLogWriter, read_jsonl_records

        path = tmp_path / "log.jsonl"
        writer = JsonlLogWriter(path)
        writer.append({"seq": 0})
        before = path.read_bytes()
        io_fault(fault)
        with pytest.raises(OSError):
            writer.append({"seq": 1, "payload": "x" * 64})
        assert path.read_bytes() == before
        assert not writer.closed
        writer.append({"seq": 1})
        writer.close()
        assert list(read_jsonl_records(path)) == [{"seq": 0}, {"seq": 1}]

    def test_failed_undo_closes_writer(self, tmp_path, io_fault):
        from repro.storage import JsonlLogWriter

        writer = JsonlLogWriter(tmp_path / "log.jsonl")
        writer.append({"seq": 0})
        io_fault("fsync_eio", undo_fails=True)
        with pytest.raises(OSError, match="injected"):
            writer.append({"seq": 1})
        assert writer.closed
        with pytest.raises(ValueError, match="closed"):
            writer.append({"seq": 2})
        writer.close()  # idempotent

    def test_fsync_called_per_append(self, tmp_path, monkeypatch):
        from repro.storage import JsonlLogWriter

        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        with JsonlLogWriter(tmp_path / "log.jsonl") as writer:
            writer.append({"a": 1})
            writer.append({"b": 2})
        assert len(calls) == 2
