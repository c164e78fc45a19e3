"""The durable-ingest hot path and the one-file log's durability contracts.

Each session is one file, ``<root>/<name>.log``: a head record (the
create record, or after a compaction the snapshot) followed by the
batches applied since.  `DirectorySessionStore.append` opens that one
path and returns the log's bytes beyond its snapshot head, which is
what `EstimationService.ingest` compares with ``compact_after_bytes``.
These tests pin what one warm ingest costs in system calls, that the
returned size is the size on disk, that a log replaced by another store
object on the same root is the one the next append extends, that a
compaction failing at any step loses no acknowledged batch, that a
failed append which created a log takes it back, and the fsync order
that makes a ``sync=True`` store power-loss durable.
"""

from __future__ import annotations

import errno
import os
import re
import stat
import struct
import sys
import threading
from pathlib import Path

import pytest

from repro.common.labels import CLEAN, DIRTY
from repro.streaming import DirectorySessionStore, EstimationService, StreamingSession
from repro.streaming import store as store_module
from repro.streaming import wal
from repro.streaming.wal import BatchRecord, CreateRecord, encode_record

ESTIMATORS = ["voting", "chao92", "switch_total"]

_NAMES_DESCRIPTORS = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="names descriptors through /proc"
)


def _service(root) -> EstimationService:
    return EstimationService(DirectorySessionStore(root), compact_after_bytes=None)


def _batch(offset: int):
    return [{offset % 5: DIRTY, (offset + 1) % 5: CLEAN}]


def _create() -> CreateRecord:
    return CreateRecord(item_ids=tuple(range(5)), estimators=("voting",))


def _record(offset: int) -> BatchRecord:
    return BatchRecord.from_columns(_batch(offset), source="l", sequence=offset + 1)


def _head(root: Path, name: str):
    """Magic and total size of the log's head frame, read without the store."""
    magic, size, _ = struct.unpack_from("<4sII", (root / f"{name}.log").read_bytes())
    return magic, 12 + size


def _log_on_disk(root: Path, name: str) -> int:
    """Bytes of the session's log beyond its snapshot head, found without the store."""
    magic, head = _head(root, name)
    size = (root / f"{name}.log").stat().st_size
    return size - head if magic == b"RSNP" else size


def _fail_once(monkeypatch, owner, attribute: str, *, skip: int = 0) -> None:
    """Make call number ``skip`` (from 0) of ``owner.attribute`` raise ENOSPC."""
    real = getattr(owner, attribute)
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == skip + 1:
            monkeypatch.setattr(owner, attribute, real)
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attribute, failing)


def _fail_half_way(monkeypatch, owner, attribute: str) -> None:
    """Make the next ``owner.attribute(handle, ...)`` write part of its bytes, then fail."""
    real = getattr(owner, attribute)

    def failing(handle, *args, **kwargs):
        monkeypatch.setattr(owner, attribute, real)
        handle.write(b"RSNP\xff\xff")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(owner, attribute, failing)


def _fail_next_log_write(monkeypatch) -> None:
    """Make the next log opened by ``repro.streaming.wal`` refuse its write."""
    real_open = open

    class _Refusing:
        def __init__(self, handle) -> None:
            self._handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self._handle.close()

        def __getattr__(self, name):
            return getattr(self._handle, name)

        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

    def refusing_open(*args, **kwargs):
        monkeypatch.undo()
        return _Refusing(real_open(*args, **kwargs))

    monkeypatch.setattr(wal, "open", refusing_open, raising=False)


def _assert_reopens_as_live(service, root, version) -> None:
    live, reopened = service.estimate_report("s"), _service(root).estimate_report("s")
    assert reopened.version == live.version == version
    assert reopened.results == live.results


def _entries(root: Path):
    return sorted(path.name for path in root.iterdir())


class _SyscallCounter:
    """Count the directory and file calls a block of code makes."""

    CALLS = ("listdir", "scandir", "stat", "mkdir")

    def __init__(self, monkeypatch) -> None:
        self.counts = dict.fromkeys(self.CALLS + ("open", "log_size"), 0)
        for name in self.CALLS:
            monkeypatch.setattr(os, name, self._counted(name, getattr(os, name)))
        monkeypatch.setattr("builtins.open", self._counted("open", open))
        monkeypatch.setattr(
            DirectorySessionStore,
            "log_size",
            self._counted("log_size", DirectorySessionStore.log_size),
        )

    def _counted(self, name, function):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return function(*args, **kwargs)

        return counted


class TestWarmIngest:
    #: One ``stat`` (does the log exist?) and one ``open``; no listing.
    WARM = {"listdir": 0, "scandir": 0, "stat": 1, "mkdir": 0, "open": 1, "log_size": 0}

    def _count_one_ingest(self, service, monkeypatch, sequence: int) -> dict:
        counter = _SyscallCounter(monkeypatch)
        assert service.ingest("s", _batch(sequence), source="l", sequence=sequence).applied
        monkeypatch.undo()
        return counter.counts

    def test_a_warm_ingest_lists_the_session_once_and_opens_the_log_once(
        self, tmp_path, monkeypatch
    ):
        """The session is looked up by one ``stat`` of its log: no listing."""
        service = EstimationService(DirectorySessionStore(tmp_path))
        service.create_session("s", range(5), ESTIMATORS)
        service.ingest("s", _batch(0), source="l", sequence=1)
        assert self._count_one_ingest(service, monkeypatch, 2) == self.WARM

    def test_a_compacted_session_also_checks_its_snapshot_is_complete(
        self, tmp_path, monkeypatch
    ):
        """The snapshot head's frame header is read through the append's own open."""
        service = EstimationService(DirectorySessionStore(tmp_path))
        service.create_session("s", range(5), ESTIMATORS)
        service.ingest("s", _batch(0), source="l", sequence=1)
        service.compact("s")
        assert self._count_one_ingest(service, monkeypatch, 2) == self.WARM


class TestAppendReturnsTheLogSize:
    def test_every_step_of_a_session_life(self, tmp_path):
        store = DirectorySessionStore(tmp_path)
        sizes = []

        def step(size: int) -> None:
            assert size == _log_on_disk(tmp_path, "s") == store.log_size("s")
            sizes.append(size)

        step(store.append("s", encode_record(_create())))
        step(store.append("s", encode_record(_record(0))))
        session = StreamingSession(range(5), ["voting"])
        session.add_columns(_batch(0))
        store.save("s", session.snapshot())  # compaction: a snapshot head only
        assert _head(tmp_path, "s")[0] == b"RSNP"
        assert _log_on_disk(tmp_path, "s") == store.log_size("s") == 0
        step(store.append("s", encode_record(_record(1))))
        assert sizes[-1] == len(encode_record(_record(1)))
        store.delete("s")
        assert store.log_size("s") == 0
        step(store.append("s", encode_record(_create())))  # re-created: a create head again
        step(store.append("s", encode_record(_record(2))))
        assert sizes == [
            sizes[0],
            sizes[0] + len(encode_record(_record(0))),
            len(encode_record(_record(1))),
            sizes[0],
            sizes[0] + len(encode_record(_record(2))),
        ]

    def test_after_recovery_repairs_a_torn_tail(self, tmp_path):
        store = DirectorySessionStore(tmp_path)
        store.append("s", encode_record(_create()))
        store.append("s", encode_record(_record(0)))
        # A crash mid-append by an earlier writer left half a frame.
        log = tmp_path / "s.log"
        intact = log.stat().st_size
        with open(log, "ab") as handle:
            handle.write(encode_record(_record(9))[:-7])
        _, records = store.recovery("s")
        assert len(records) == 2
        assert log.stat().st_size == intact
        size = store.append("s", encode_record(_record(1)))
        assert size == log.stat().st_size == intact + len(encode_record(_record(1)))

    def test_threads_that_compact_as_they_go_lose_no_batch(self, tmp_path):
        # More writer threads than CPUs, a 1 µs switch interval, and
        # compactions every few batches.
        service = EstimationService(
            DirectorySessionStore(tmp_path), compact_after_bytes=400
        )
        names = [f"s{index}" for index in range(6)]
        for name in names:
            service.create_session(name, range(5), ESTIMATORS)
        errors = []

        def feed(name: str) -> None:
            try:
                for sequence in range(1, 31):
                    service.ingest(name, _batch(sequence), source="l", sequence=sequence)
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        threads = [threading.Thread(target=feed, args=(name,)) for name in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(_head(tmp_path, name)[0] == b"RSNP" for name in names)
        assert _entries(tmp_path) == [f"{name}.log" for name in names]
        reopened = _service(tmp_path)
        for name in names:
            live, recovered = service.estimate_report(name), reopened.estimate_report(name)
            assert recovered.version == live.version == (30, 60)
            assert recovered.results == live.results


class TestSharedRoot:
    """``repro serve --store`` and ``repro session`` open one root together."""

    def test_a_log_compacted_by_another_store_is_not_recreated(self, tmp_path):
        live = _service(tmp_path)
        live.create_session("s", range(5), ESTIMATORS)
        live.ingest("s", _batch(0), source="l", sequence=1)
        _service(tmp_path).compact("s")  # a snapshot log replaces the old one
        live.ingest("s", _batch(1), source="l", sequence=2)
        report = live.estimate_report("s")
        assert report.version == (2, 4)
        reopened = _service(tmp_path).estimate_report("s")
        assert reopened.version == report.version
        assert reopened.results == report.results
        # The batch went behind the other store's snapshot head.
        assert _head(tmp_path, "s")[0] == b"RSNP"
        assert _log_on_disk(tmp_path, "s") == len(encode_record(_record(1)))

    def test_a_session_dropped_by_another_store_takes_a_fresh_log(self, tmp_path):
        live = _service(tmp_path)
        live.create_session("s", range(5), ESTIMATORS)
        other = _service(tmp_path)
        other.drop("s")
        other.create_session("s", range(5), ESTIMATORS)
        other.compact("s")
        size = live.store.append("s", encode_record(_record(0)))
        assert size == _log_on_disk(tmp_path, "s") == len(encode_record(_record(0)))


def _staged_write(monkeypatch) -> None:
    _fail_half_way(monkeypatch, store_module, "write_snapshot_record")


def _staged_fsync(monkeypatch) -> None:
    _fail_once(monkeypatch, os, "fsync")  # the staged file's, before the rename


def _rename(monkeypatch) -> None:
    _fail_once(monkeypatch, os, "replace")


def _root_fsync(monkeypatch) -> None:
    _fail_once(monkeypatch, os, "fsync", skip=1)  # the root's, after the rename


class TestFailedCompaction:
    """A compaction that fails at any step loses no acknowledged batch.

    Before the rename the old log stays in place, byte for byte, and the
    staged file is removed; after it the new log is in place.  Either
    way later batches land in the log that is there.
    """

    @pytest.mark.parametrize(
        "sync, fail, renamed",
        [
            (False, _staged_write, False),
            (True, _staged_fsync, False),
            (True, _rename, False),
            (True, _root_fsync, True),
        ],
        ids=["new-log", "new-log-sync", "rename", "directory-fsync"],
    )
    def test_later_batches_land_in_the_new_generation(
        self, tmp_path, monkeypatch, sync, fail, renamed
    ):
        service = EstimationService(
            DirectorySessionStore(tmp_path, sync=sync), compact_after_bytes=None
        )
        service.create_session("s", range(5), ESTIMATORS)
        service.ingest("s", _batch(0), source="l", sequence=1)
        before = (tmp_path / "s.log").read_bytes()
        fail(monkeypatch)
        with pytest.raises(OSError):
            service.compact("s")
        monkeypatch.undo()
        assert _entries(tmp_path) == ["s.log"]
        if renamed:
            assert _head(tmp_path, "s")[0] == b"RSNP"
        else:
            assert (tmp_path / "s.log").read_bytes() == before
        service.ingest("s", _batch(1), source="l", sequence=2)
        _assert_reopens_as_live(service, tmp_path, (2, 4))


class TestFailedAutomaticCompaction:
    """An ingest whose size-triggered compaction fails is still acknowledged.

    The batch is logged and applied before the compaction starts, so the
    client must see it applied: an error would make it retry a batch that
    is already served (and read ``duplicate=True``).  The log stays as it
    was, and the next ingest past the threshold compacts again.
    """

    @pytest.mark.parametrize(
        "sync, fail",
        [
            (False, _staged_write),
            (False, _rename),
            # fsync 0 is the appended batch's, 1 the staged file's.
            (True, lambda monkeypatch: _fail_once(monkeypatch, os, "fsync", skip=1)),
        ],
        ids=["new-log", "rename", "new-log-sync"],
    )
    def test_the_ingest_is_acknowledged_and_the_next_one_compacts(
        self, tmp_path, monkeypatch, sync, fail
    ):
        service = EstimationService(
            DirectorySessionStore(tmp_path, sync=sync), compact_after_bytes=1
        )
        service.create_session("s", range(5), ESTIMATORS)
        service.ingest("s", _batch(0), source="l", sequence=1)
        assert service.store.log_size("s") == 0  # every ingest compacts
        batch = _batch(1) + _batch(2)
        fail(monkeypatch)
        ack = service.ingest("s", batch, source="l", sequence=2)
        monkeypatch.undo()
        assert (ack.applied, ack.duplicate) == (2, False)
        assert _entries(tmp_path) == ["s.log"]
        assert service.store.log_size("s") > 0  # the batch, after the old head
        _assert_reopens_as_live(service, tmp_path, (3, 6))
        assert service.ingest("s", batch, source="l", sequence=2).duplicate
        service.ingest("s", _batch(3), source="l", sequence=3)
        assert service.store.log_size("s") == 0
        _assert_reopens_as_live(service, tmp_path, (4, 8))

    def test_an_explicit_compaction_still_raises(self, tmp_path, monkeypatch):
        service = EstimationService(DirectorySessionStore(tmp_path), compact_after_bytes=1)
        service.create_session("s", range(5), ESTIMATORS)
        _rename(monkeypatch)
        with pytest.raises(OSError):
            service.snapshot("s")


def _log_write(monkeypatch) -> None:
    _fail_next_log_write(monkeypatch)


def _log_fsync(monkeypatch) -> None:
    _fail_once(monkeypatch, os, "fsync")


def _creating_root_fsync(monkeypatch) -> None:
    _fail_once(monkeypatch, os, "fsync", skip=1)


class TestFailedCreatingAppend:
    """An append that created the log and then failed takes the log back."""

    @_NAMES_DESCRIPTORS
    @pytest.mark.parametrize(
        "fail",
        [_log_fsync, _log_write, _creating_root_fsync],
        ids=["log", "session-write", "root"],
    )
    def test_a_failed_create_session_can_be_retried(self, tmp_path, monkeypatch, fail):
        service = EstimationService(
            DirectorySessionStore(tmp_path, sync=True), compact_after_bytes=None
        )
        # The creating append writes the create record, then fsyncs the
        # log and the root, in that order.
        fail(monkeypatch)
        with pytest.raises(OSError):
            service.create_session("s", range(5), ESTIMATORS)
        assert _entries(tmp_path) == []
        assert "s" not in service.store
        monkeypatch.undo()
        recorder = _DurabilityRecorder(monkeypatch, tmp_path)
        service.create_session("s", range(5), ESTIMATORS)
        assert recorder.take() == [("fsync", "s.log"), ("fsync", ".")]
        service.ingest("s", _batch(0), source="l", sequence=1)
        _assert_reopens_as_live(service, tmp_path, (1, 2))

    def test_a_failed_batch_that_created_the_log_is_not_replayed(
        self, tmp_path, monkeypatch
    ):
        service = EstimationService(
            DirectorySessionStore(tmp_path, sync=True), compact_after_bytes=None
        )
        service.create_session("s", range(5), ESTIMATORS)
        service.ingest("s", _batch(0))
        _service(tmp_path).drop("s")  # another store object removes the log
        # The batch creates s.log; fsync 0 is the log's, 1 the root's.
        # The batch is rejected, so nothing of it may replay.
        _fail_once(monkeypatch, os, "fsync", skip=1)
        with pytest.raises(OSError):
            service.ingest("s", _batch(1))
        assert _entries(tmp_path) == []
        assert _service(tmp_path).sessions() == []


class _DurabilityRecorder:
    """Record every fsync, rename, replace and unlink, relative to ``root``."""

    def __init__(self, monkeypatch, root: Path) -> None:
        self.root = os.path.realpath(root)
        self.events = []
        real = {name: getattr(os, name) for name in ("fsync", "rename", "replace", "unlink")}

        def fsync(descriptor):
            self._record("fsync", os.readlink(f"/proc/self/fd/{descriptor}"))
            return real["fsync"](descriptor)

        def renaming(kind):
            def rename(source, target, **kwargs):
                self._record(kind, source, kwargs.get("src_dir_fd"))
                return real[kind](source, target, **kwargs)

            return rename

        def unlink(path, *, dir_fd=None):
            self._record("unlink", path, dir_fd)
            return real["unlink"](path, dir_fd=dir_fd)

        for name, function in (
            ("fsync", fsync),
            ("rename", renaming("rename")),
            ("replace", renaming("replace")),
            ("unlink", unlink),
        ):
            monkeypatch.setattr(os, name, function)

    def _record(self, kind, path, dir_fd=None) -> None:
        if dir_fd is not None:
            path = os.path.join(os.readlink(f"/proc/self/fd/{dir_fd}"), path)
        relative = os.path.relpath(os.path.realpath(path), self.root)
        self.events.append((kind, re.sub(r"\.tmp-[^/]+", ".tmp", relative)))

    def take(self):
        events, self.events = self.events, []
        return events


def _life_of_a_session(store: DirectorySessionStore, recorder) -> dict:
    """Create, append, compact twice and append; the events of each step."""
    session = StreamingSession(range(5), ["voting"])
    steps = {}
    store.append("s", encode_record(_create()))
    steps["create"] = recorder.take()
    store.append("s", encode_record(_record(0)))
    steps["append"] = recorder.take()
    store.save("s", session.snapshot())
    steps["compact"] = recorder.take()
    store.save("s", session.snapshot())
    steps["compact again"] = recorder.take()
    store.append("s", encode_record(_record(1)))
    steps["append after compact"] = recorder.take()
    store.delete("s")
    steps["delete"] = recorder.take()
    return steps


@_NAMES_DESCRIPTORS
class TestSyncOrdering:
    def test_sync_true_fsyncs_before_each_rename_and_unlink(self, tmp_path, monkeypatch):
        """The staged log before its rename, the root after it; a delete syncs nothing."""
        root = tmp_path / "root"
        root.mkdir()
        recorder = _DurabilityRecorder(monkeypatch, root)
        steps = _life_of_a_session(DirectorySessionStore(root, sync=True), recorder)
        compaction = [
            ("fsync", ".s.log.tmp"),
            ("replace", ".s.log.tmp"),
            ("fsync", "."),  # the rename
        ]
        assert steps == {
            "create": [("fsync", "s.log"), ("fsync", ".")],  # the new log's entry
            "append": [("fsync", "s.log")],
            "compact": compaction,
            "compact again": compaction,
            "append after compact": [("fsync", "s.log")],
            "delete": [("unlink", "s.log")],
        }

    def test_the_staged_log_is_whole_when_it_is_fsynced(self, tmp_path, monkeypatch):
        """Its header is written last, and must not wait in a buffer."""
        store = DirectorySessionStore(tmp_path, sync=True)
        synced = []
        real = os.fsync

        def fsync(descriptor):
            if stat.S_ISREG(os.fstat(descriptor).st_mode):
                synced.append(os.pread(descriptor, 1 << 20, 0))
            return real(descriptor)

        monkeypatch.setattr(os, "fsync", fsync)
        store.save("s", StreamingSession(range(5), ["voting"]).snapshot())
        assert synced == [(tmp_path / "s.log").read_bytes()]

    def test_a_reopened_store_fsyncs_only_the_log(self, tmp_path, monkeypatch):
        DirectorySessionStore(tmp_path).append("s", encode_record(_create()))
        recorder = _DurabilityRecorder(monkeypatch, tmp_path)
        DirectorySessionStore(tmp_path, sync=True).append("s", encode_record(_record(0)))
        assert recorder.take() == [("fsync", "s.log")]

    def test_sync_false_never_fsyncs(self, tmp_path, monkeypatch):
        recorder = _DurabilityRecorder(monkeypatch, tmp_path)
        steps = _life_of_a_session(DirectorySessionStore(tmp_path), recorder)
        assert [
            event for events in steps.values() for event in events if event[0] == "fsync"
        ] == []
        assert steps["compact"] == [("replace", ".s.log.tmp")]


@pytest.mark.parametrize("sync", [False, True])
def test_synced_and_unsynced_stores_recover_the_same_session(tmp_path, sync):
    root = tmp_path / str(sync)
    service = EstimationService(
        DirectorySessionStore(root, sync=sync), compact_after_bytes=300
    )
    service.create_session("s", range(5), ESTIMATORS)
    for sequence in range(1, 8):
        service.ingest("s", _batch(sequence), source="l", sequence=sequence)
    assert _head(root, "s")[0] == b"RSNP"
    reopened = EstimationService(DirectorySessionStore(root, sync=sync))
    live, recovered = service.estimate_report("s"), reopened.estimate_report("s")
    assert recovered.version == live.version == (7, 14)
    assert recovered.results == live.results
