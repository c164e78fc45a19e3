"""Model-based durability check of the log-backed service, on both stores.

A hypothesis state machine drives ``EstimationService`` through create,
ingest, retried and reordered deliveries, eviction, compaction and
crash+reopen (the service is dropped and a new one opened on the same
store: a ``DirectorySessionStore`` on the same root, or the same
``MemorySessionStore`` object).  The model is one plain
``StreamingSession`` per session, fed exactly the acknowledged
non-duplicate batches.  After every step each session's served
``(columns, votes)`` and estimates must equal the model's, and a
duplicate delivery must leave the served version as it was.

The fault layer, on the directory store only: one rule arms a single ``OSError(ENOSPC)`` for the next
ingest only, at the k-th write the store makes (a log append, or a write
of the staged file of the compaction the ingest triggers; the failing
write lands half its bytes) or at the store's next ``os.replace``.  On a
``sync=True`` store it may instead raise ``OSError(EIO)`` at the k-th
``os.fsync`` (the log's, or the staged file's or the root's of the
compaction), which fails after the whole frame was written.  An ingest
that raises must leave the served version as it was and use up no
sequence, so a freshly drawn batch of another column count then
applies under it: a frame the failed ingest left in the log would
replay on reopen in its place, and the version would show it.  An
ingest that returns is acknowledged, and joins the model, also when its
compaction failed.
"""

from __future__ import annotations

import errno
import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.common.labels import CLEAN, DIRTY
from repro.streaming import (
    DirectorySessionStore,
    EstimationService,
    MemorySessionStore,
    StreamingSession,
)
from repro.streaming import store as store_module
from repro.streaming import wal

ESTIMATORS = ["voting", "chao92", "switch_total"]
ITEMS = 6
NAMES = ("a", "b")

batches = st.lists(
    st.dictionaries(
        st.integers(0, ITEMS - 1), st.sampled_from([DIRTY, CLEAN]), min_size=1
    ),
    min_size=1,
    max_size=3,
)

#: Where the armed ENOSPC strikes: the k-th write the store makes, or its
#: next rename.
faults = st.one_of(st.integers(0, 4), st.just("replace"))
#: Under ``sync=True``, also the k-th fsync (EIO).
synced_faults = st.one_of(faults, st.integers(0, 2).map(lambda k: ("fsync", k)))


def _enospc() -> OSError:
    return OSError(errno.ENOSPC, "No space left on device")


class _FullDiskHandle:
    """A store file handle that shares a write count with its siblings."""

    def __init__(self, handle, writes: list, fail_at: object) -> None:
        self._handle = handle
        self._writes = writes
        self._fail_at = fail_at

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def write(self, data):
        self._writes.append(len(data))
        if len(self._writes) - 1 == self._fail_at:
            self._handle.write(bytes(data[: len(data) // 2]))
            raise _enospc()
        return self._handle.write(data)


@contextmanager
def _full_disk(fault):
    """Arm one ENOSPC at write number ``fault`` (from 0) or, for
    ``"replace"``, at the next ``os.replace``, or one EIO at fsync number
    ``k`` for ``("fsync", k)``; disarmed on exit."""
    writes: list = []
    replaces: list = []
    fsyncs: list = []
    real_replace, real_fsync = os.replace, os.fsync

    def opened(*args, **kwargs):
        return _FullDiskHandle(open(*args, **kwargs), writes, fault)

    def replace(*args, **kwargs):
        replaces.append(args)
        if fault == "replace" and len(replaces) == 1:
            raise _enospc()
        return real_replace(*args, **kwargs)

    def fsync(descriptor):
        fsyncs.append(descriptor)
        if fault == ("fsync", len(fsyncs) - 1):
            raise OSError(errno.EIO, "Input/output error")
        return real_fsync(descriptor)

    with mock.patch.object(wal, "open", opened, create=True), mock.patch.object(
        store_module, "open", opened, create=True
    ), mock.patch.object(os, "replace", replace), mock.patch.object(os, "fsync", fsync):
        yield


class _ServiceModel(RuleBasedStateMachine):
    """The rules every store runs; :meth:`_open` opens a service on the store."""

    def __init__(self) -> None:
        super().__init__()
        self.service = self._open()
        #: session name -> the model session and the acknowledged batches
        self.models = {}
        self.acknowledged = {}

    def _open(self) -> EstimationService:
        raise NotImplementedError

    def _deliver_duplicate(self, name: str, sequence: int, columns) -> None:
        before = self.service.estimate_report(name).version
        ack = self.service.ingest(name, columns, source="w", sequence=sequence)
        assert ack.duplicate and ack.applied == 0
        assert self.service.estimate_report(name).version == before

    @precondition(lambda self: len(self.models) < len(NAMES))
    @rule(data=st.data())
    def create(self, data) -> None:
        name = data.draw(st.sampled_from([n for n in NAMES if n not in self.models]))
        self.service.create_session(name, range(ITEMS), ESTIMATORS)
        self.models[name] = StreamingSession(range(ITEMS), ESTIMATORS)
        self.acknowledged[name] = []

    @precondition(lambda self: self.models)
    @rule(data=st.data())
    def ingest(self, data) -> None:
        name = data.draw(st.sampled_from(sorted(self.models)))
        for columns in data.draw(st.lists(batches, min_size=1, max_size=3)):
            sequence = len(self.acknowledged[name]) + 1
            ack = self.service.ingest(name, columns, source="w", sequence=sequence)
            assert not ack.duplicate and ack.applied == len(columns)
            self.models[name].add_columns(columns)
            self.acknowledged[name].append(columns)

    @precondition(lambda self: any(self.acknowledged.values()))
    @rule(data=st.data())
    def retry(self, data) -> None:
        name = data.draw(st.sampled_from(sorted(n for n, b in self.acknowledged.items() if b)))
        sequence = data.draw(st.integers(1, len(self.acknowledged[name])))
        self._deliver_duplicate(name, sequence, self.acknowledged[name][sequence - 1])

    @precondition(lambda self: any(len(b) > 1 for b in self.acknowledged.values()))
    @rule(data=st.data())
    def reorder(self, data) -> None:
        # A batch that arrives after a later one was acknowledged.
        name = data.draw(
            st.sampled_from(sorted(n for n, b in self.acknowledged.items() if len(b) > 1))
        )
        stale = data.draw(st.integers(1, len(self.acknowledged[name]) - 1))
        self._deliver_duplicate(name, stale, data.draw(batches))

    @precondition(lambda self: self.models)
    @rule(data=st.data())
    def evict(self, data) -> None:
        self.service.evict(data.draw(st.sampled_from(sorted(self.models))))

    @precondition(lambda self: self.models)
    @rule(data=st.data())
    def compact(self, data) -> None:
        self.service.compact(data.draw(st.sampled_from(sorted(self.models))))

    @rule()
    def crash_and_reopen(self) -> None:
        self.service = self._open()

    @invariant()
    def served_state_equals_the_model(self) -> None:
        assert self.service.sessions() == sorted(self.models)
        for name, model in self.models.items():
            report = self.service.estimate_report(name)
            assert report.version == (model.num_columns, model.total_votes)
            assert report.results == model.estimate()


class DurableService(_ServiceModel):
    #: Fsync the log after every append (and a compaction's files).
    sync = False
    #: Where the armed fault of :meth:`ingest_on_a_full_disk` strikes.
    faults = faults

    def __init__(self) -> None:
        self.root = Path(tempfile.mkdtemp(prefix="wal-model-"))
        super().__init__()

    def _open(self) -> EstimationService:
        # A small threshold, so ingest compacts by itself now and then.
        return EstimationService(
            DirectorySessionStore(self.root, sync=self.sync), compact_after_bytes=500
        )

    def teardown(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    @precondition(lambda self: self.models)
    @rule(data=st.data())
    def ingest_on_a_full_disk(self, data) -> None:
        name = data.draw(st.sampled_from(sorted(self.models)))
        fault = data.draw(self.faults)
        columns = data.draw(batches)
        sequence = len(self.acknowledged[name]) + 1
        before = self.service.estimate_report(name).version
        try:
            with _full_disk(fault):
                ack = self.service.ingest(name, columns, source="w", sequence=sequence)
        except OSError:
            # A failed ingest changes nothing and uses up no sequence, so a
            # fresh batch of another column count applies under it ...
            assert self.service.estimate_report(name).version == before
            failed = columns
            columns = data.draw(batches.filter(lambda fresh: len(fresh) != len(failed)))
            ack = self.service.ingest(name, columns, source="w", sequence=sequence)
        # ... and one that returns is acknowledged, compaction or not.
        assert not ack.duplicate and ack.applied == len(columns)
        self.models[name].add_columns(columns)
        self.acknowledged[name].append(columns)


class SyncedDurableService(DurableService):
    sync = True
    faults = synced_faults


class MemoryService(_ServiceModel):
    def __init__(self) -> None:
        self.store = MemorySessionStore()
        super().__init__()

    def _open(self) -> EstimationService:
        # Reopening is a new service over the same store object.
        return EstimationService(self.store, compact_after_bytes=500)


TestDurableService = DurableService.TestCase
TestSyncedDurableService = SyncedDurableService.TestCase
TestMemoryService = MemoryService.TestCase
