"""The durable-ingest hot path: one directory listing and one open per append.

`DirectorySessionStore.append` finds the session's active log with one
listing of its directory and returns the log size after the write, which
is what `EstimationService.ingest` compares with ``compact_after_bytes``.
These tests pin what one warm ingest costs in system calls, that the
returned size is the size on disk, that a log replaced by another store
object on the same root or left behind by a failed compaction is never
written again, that a failed append which created a log takes it back,
and the fsync order that makes a ``sync=True`` store power-loss durable.
"""

from __future__ import annotations

import errno
import os
import re
import sys
import threading
from pathlib import Path

import pytest

from repro.common.labels import CLEAN, DIRTY
from repro.streaming import DirectorySessionStore, EstimationService, StreamingSession
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


def _log_on_disk(root: Path, name: str) -> int:
    """Size of the session's only log file, found without the store."""
    logs = sorted((root / name).glob("wal-*.log"))
    assert len(logs) == 1, logs
    return logs[0].stat().st_size


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


def _assert_reopens_as_live(service, root, version) -> None:
    live, reopened = service.estimate_report("s"), _service(root).estimate_report("s")
    assert reopened.version[:2] == live.version[:2] == version
    assert reopened.results == live.results


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
    def _count_one_ingest(self, service, monkeypatch, sequence: int) -> dict:
        counter = _SyscallCounter(monkeypatch)
        assert service.ingest("s", _batch(sequence), source="l", sequence=sequence).applied
        monkeypatch.undo()
        return counter.counts

    def test_a_warm_ingest_lists_the_session_once_and_opens_the_log_once(
        self, tmp_path, monkeypatch
    ):
        service = EstimationService(DirectorySessionStore(tmp_path))
        service.create_session("s", range(5), ESTIMATORS)
        service.ingest("s", _batch(0), source="l", sequence=1)
        assert self._count_one_ingest(service, monkeypatch, 2) == {
            "listdir": 0,
            "scandir": 1,
            "stat": 0,
            "mkdir": 0,
            "open": 1,
            "log_size": 0,
        }

    def test_a_compacted_session_also_checks_its_snapshot_is_complete(
        self, tmp_path, monkeypatch
    ):
        service = EstimationService(DirectorySessionStore(tmp_path))
        service.create_session("s", range(5), ESTIMATORS)
        service.ingest("s", _batch(0), source="l", sequence=1)
        service.compact("s")
        # manifest.json and arrays.npz of gen-00000002.
        assert self._count_one_ingest(service, monkeypatch, 2) == {
            "listdir": 0,
            "scandir": 1,
            "stat": 2,
            "mkdir": 0,
            "open": 1,
            "log_size": 0,
        }


class TestAppendReturnsTheLogSize:
    def test_every_step_of_a_session_life(self, tmp_path):
        store = DirectorySessionStore(tmp_path)
        sizes = []

        def step(size: int) -> None:
            assert size == _log_on_disk(tmp_path, "s") == store.log_size("s")
            sizes.append(size)

        step(store.append("s", _create()))
        step(store.append("s", _record(0)))
        session = StreamingSession(range(5), ["voting"])
        session.add_columns(_batch(0))
        store.save("s", session.snapshot())  # compaction: gen-2 + wal-2
        assert _log_on_disk(tmp_path, "s") == 0
        step(store.append("s", _record(1)))
        assert sizes[-1] == len(encode_record(_record(1)))
        store.delete("s")
        step(store.append("s", _create()))  # re-created at generation 1
        step(store.append("s", _record(2)))
        assert sizes == [
            sizes[0],
            sizes[0] + len(encode_record(_record(0))),
            len(encode_record(_record(1))),
            sizes[0],
            sizes[0] + len(encode_record(_record(2))),
        ]

    def test_after_recovery_repairs_a_torn_tail(self, tmp_path):
        store = DirectorySessionStore(tmp_path)
        store.append("s", _create())
        store.append("s", _record(0))
        # A crash mid-append by an earlier writer left half a frame.
        log = tmp_path / "s" / "wal-00000001.log"
        intact = log.stat().st_size
        with open(log, "ab") as handle:
            handle.write(encode_record(_record(9))[:-7])
        _, records = store.recovery("s")
        assert len(records) == 2
        assert log.stat().st_size == intact
        size = store.append("s", _record(1))
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
        assert all(list((tmp_path / name).glob("gen-*")) for name in names)
        reopened = _service(tmp_path)
        for name in names:
            live, recovered = service.estimate_report(name), reopened.estimate_report(name)
            assert recovered.version[:2] == live.version[:2] == (30, 60)
            assert recovered.results == live.results


class TestSharedRoot:
    """``repro serve --store`` and ``repro session`` open one root together."""

    def test_a_log_compacted_by_another_store_is_not_recreated(self, tmp_path):
        live = _service(tmp_path)
        live.create_session("s", range(5), ESTIMATORS)
        live.ingest("s", _batch(0), source="l", sequence=1)
        _service(tmp_path).compact("s")  # wal-1 is gone, gen-2 + wal-2 replace it
        live.ingest("s", _batch(1), source="l", sequence=2)
        report = live.estimate_report("s")
        assert report.version[:2] == (2, 4)
        reopened = _service(tmp_path).estimate_report("s")
        assert reopened.version[:2] == report.version[:2]
        assert reopened.results == report.results
        assert not (tmp_path / "s" / "wal-00000001.log").exists()

    def test_a_session_dropped_by_another_store_takes_a_fresh_log(self, tmp_path):
        live = _service(tmp_path)
        live.create_session("s", range(5), ESTIMATORS)
        other = _service(tmp_path)
        other.drop("s")
        other.create_session("s", range(5), ESTIMATORS)
        other.compact("s")
        size = live.store.append("s", _record(0))
        assert size == _log_on_disk(tmp_path, "s") == len(encode_record(_record(0)))


class TestFailedCompaction:
    """A compaction that fails after its new generation is renamed in."""

    @pytest.mark.parametrize(
        "sync, owner, attribute, skip",
        [(False, Path, "touch", 0), (True, Path, "touch", 0), (True, os, "fsync", 3)],
        ids=["new-log", "new-log-sync", "directory-fsync"],
    )
    def test_later_batches_land_in_the_new_generation(
        self, tmp_path, monkeypatch, sync, owner, attribute, skip
    ):
        service = EstimationService(
            DirectorySessionStore(tmp_path, sync=sync), compact_after_bytes=None
        )
        service.create_session("s", range(5), ESTIMATORS)
        service.ingest("s", _batch(0), source="l", sequence=1)
        # Under sync=True, fsyncs 0-2 are the staged snapshot's; 3 is the
        # session directory's, after the rename and the new empty log.
        _fail_once(monkeypatch, owner, attribute, skip=skip)
        with pytest.raises(OSError):
            service.compact("s")
        assert (tmp_path / "s" / "gen-00000002").is_dir()
        assert (tmp_path / "s" / "wal-00000001.log").exists()
        service.ingest("s", _batch(1), source="l", sequence=2)
        _assert_reopens_as_live(service, tmp_path, (2, 4))


class TestFailedCreatingAppend:
    """An append that created the log and then failed takes the log back."""

    @_NAMES_DESCRIPTORS
    @pytest.mark.parametrize("skip", [0, 1, 2], ids=["log", "session-dir", "root"])
    def test_a_failed_create_session_can_be_retried(self, tmp_path, monkeypatch, skip):
        service = EstimationService(
            DirectorySessionStore(tmp_path, sync=True), compact_after_bytes=None
        )
        # The creating append fsyncs the log, the session directory and
        # the root, in that order.
        _fail_once(monkeypatch, os, "fsync", skip=skip)
        with pytest.raises(OSError):
            service.create_session("s", range(5), ESTIMATORS)
        assert not (tmp_path / "s").exists()
        assert "s" not in service.store
        monkeypatch.undo()
        recorder = _DurabilityRecorder(monkeypatch, tmp_path)
        service.create_session("s", range(5), ESTIMATORS)
        assert recorder.take() == [
            ("fsync", "s/wal-00000001.log"),
            ("fsync", "s"),
            ("fsync", "."),
        ]
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
        _fail_once(monkeypatch, Path, "touch")
        with pytest.raises(OSError):
            service.compact("s")  # gen-00000002 is in, its log is not
        # The batch creates wal-00000002.log; fsync 0 is the log's, 1 its
        # directory's.  The batch is rejected, so it must not replay.
        _fail_once(monkeypatch, os, "fsync", skip=1)
        with pytest.raises(OSError):
            service.ingest("s", _batch(1))
        assert not (tmp_path / "s" / "wal-00000002.log").exists()
        service.ingest("s", _batch(2))
        _assert_reopens_as_live(service, tmp_path, (2, 4))


class _DurabilityRecorder:
    """Record every fsync, rename, unlink and rmdir, relative to ``root``."""

    def __init__(self, monkeypatch, root: Path) -> None:
        self.root = os.path.realpath(root)
        self.events = []
        real = {name: getattr(os, name) for name in ("fsync", "rename", "unlink", "rmdir")}

        def fsync(descriptor):
            self._record("fsync", os.readlink(f"/proc/self/fd/{descriptor}"))
            return real["fsync"](descriptor)

        def rename(source, target, **kwargs):
            self._record("rename", source, kwargs.get("src_dir_fd"))
            return real["rename"](source, target, **kwargs)

        def unlink(path, *, dir_fd=None):
            self._record("unlink", path, dir_fd)
            return real["unlink"](path, dir_fd=dir_fd)

        def rmdir(path, *, dir_fd=None):
            self._record("rmdir", path, dir_fd)
            return real["rmdir"](path, dir_fd=dir_fd)

        for name, function in (
            ("fsync", fsync),
            ("rename", rename),
            ("unlink", unlink),
            ("rmdir", rmdir),
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
    store.append("s", _create())
    steps["create"] = recorder.take()
    store.append("s", _record(0))
    steps["append"] = recorder.take()
    store.save("s", session.snapshot())
    steps["compact"] = recorder.take()
    store.save("s", session.snapshot())
    steps["compact again"] = recorder.take()
    store.append("s", _record(1))
    steps["append after compact"] = recorder.take()
    return steps


@_NAMES_DESCRIPTORS
class TestSyncOrdering:
    def test_sync_true_fsyncs_before_each_rename_and_unlink(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "root"
        root.mkdir()
        recorder = _DurabilityRecorder(monkeypatch, root)
        steps = _life_of_a_session(DirectorySessionStore(root, sync=True), recorder)
        assert steps["create"] == [
            ("fsync", "s/wal-00000001.log"),
            ("fsync", "s"),  # the new log's directory entry
            ("fsync", "."),  # the new session directory's entry
        ]
        assert steps["append"] == [("fsync", "s/wal-00000001.log")]
        assert steps["compact"] == [
            ("fsync", "s/.gen-00000002.tmp/manifest.json"),
            ("fsync", "s/.gen-00000002.tmp/arrays.npz"),
            ("fsync", "s/.gen-00000002.tmp"),
            ("rename", "s/.gen-00000002.tmp"),
            ("fsync", "s"),
            ("unlink", "s/wal-00000001.log"),
        ]
        head, tail = steps["compact again"][:5], steps["compact again"][5:]
        assert head == [
            ("fsync", "s/.gen-00000003.tmp/manifest.json"),
            ("fsync", "s/.gen-00000003.tmp/arrays.npz"),
            ("fsync", "s/.gen-00000003.tmp"),
            ("rename", "s/.gen-00000003.tmp"),
            ("fsync", "s"),
        ]
        assert tail[0] == ("unlink", "s/wal-00000002.log")
        assert sorted(tail[1:]) == [
            ("rmdir", "s/gen-00000002"),
            ("unlink", "s/gen-00000002/arrays.npz"),
            ("unlink", "s/gen-00000002/manifest.json"),
        ]
        # The log a compaction created is already in a synced directory.
        assert steps["append after compact"] == [("fsync", "s/wal-00000003.log")]

    def test_a_reopened_store_fsyncs_only_the_log(self, tmp_path, monkeypatch):
        DirectorySessionStore(tmp_path).append("s", _create())
        recorder = _DurabilityRecorder(monkeypatch, tmp_path)
        DirectorySessionStore(tmp_path, sync=True).append("s", _record(0))
        assert recorder.take() == [("fsync", "s/wal-00000001.log")]

    def test_sync_false_never_fsyncs(self, tmp_path, monkeypatch):
        recorder = _DurabilityRecorder(monkeypatch, tmp_path)
        steps = _life_of_a_session(DirectorySessionStore(tmp_path), recorder)
        assert [
            event for events in steps.values() for event in events if event[0] == "fsync"
        ] == []
        assert ("rename", "s/.gen-00000002.tmp") in steps["compact"]


@pytest.mark.parametrize("sync", [False, True])
def test_synced_and_unsynced_stores_recover_the_same_session(tmp_path, sync):
    root = tmp_path / str(sync)
    service = EstimationService(
        DirectorySessionStore(root, sync=sync), compact_after_bytes=300
    )
    service.create_session("s", range(5), ESTIMATORS)
    for sequence in range(1, 8):
        service.ingest("s", _batch(sequence), source="l", sequence=sequence)
    assert list((root / "s").glob("gen-*"))
    reopened = EstimationService(DirectorySessionStore(root, sync=sync))
    # A session restored from a snapshot restarts its mutation counter,
    # the version's last field.
    live, recovered = service.estimate_report("s"), reopened.estimate_report("s")
    assert recovered.version[:2] == live.version[:2] == (7, 14)
    assert recovered.results == live.results


class TestRecoveryPastAnUnreadableGeneration:
    """A crash left ``gen-00000003`` unreadable beside ``gen-00000002``."""

    def _crash_mid_compaction(self, root: Path, sync: bool) -> EstimationService:
        service = EstimationService(
            DirectorySessionStore(root, sync=sync), compact_after_bytes=None
        )
        service.create_session("s", range(5), ESTIMATORS)
        service.ingest("s", _batch(0), source="l", sequence=1)
        service.compact("s")
        service.ingest("s", _batch(1), source="l", sequence=2)
        session_dir = root / "s"
        # The next compaction's snapshot and empty log are in place, but
        # its arrays never reached the disk intact.
        unreadable = session_dir / "gen-00000003"
        unreadable.mkdir()
        for name in ("manifest.json", "arrays.npz"):
            (unreadable / name).write_bytes(b"\0" * 16)
        (session_dir / "wal-00000003.log").touch()
        return EstimationService(
            DirectorySessionStore(root, sync=sync), compact_after_bytes=None
        )

    @pytest.mark.parametrize("sync", [False, True])
    def test_batches_acknowledged_after_the_fallback_survive_a_reopen(
        self, tmp_path, sync
    ):
        service = self._crash_mid_compaction(tmp_path, sync)
        assert service.estimate_report("s").version[:2] == (2, 4)
        assert service.ingest("s", _batch(2), source="l", sequence=3).applied
        _assert_reopens_as_live(service, tmp_path, (3, 6))
        # The skipped entries are kept, out of the layout, through a
        # reopen (which sweeps stale files) and the next compaction.
        service.compact("s")
        _assert_reopens_as_live(service, tmp_path, (3, 6))
        layout, skipped = [], []
        for path in sorted((tmp_path / "s").iterdir()):
            name, _, suffix = path.name.partition(".skipped-")
            (skipped if suffix else layout).append(name)
        assert layout == skipped == ["gen-00000003", "wal-00000003.log"]

    @_NAMES_DESCRIPTORS
    def test_sync_true_fsyncs_the_session_directory_after_setting_aside(
        self, tmp_path, monkeypatch
    ):
        service = self._crash_mid_compaction(tmp_path, sync=True)
        recorder = _DurabilityRecorder(monkeypatch, tmp_path)
        service.estimate_report("s")
        assert recorder.take() == [
            ("rename", "s/gen-00000003"),
            ("rename", "s/wal-00000003.log"),
            ("fsync", "s"),
        ]
