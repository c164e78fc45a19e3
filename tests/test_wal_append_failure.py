"""A failed WAL append must not cost a later acknowledged batch.

The fault: an append writes half a frame, then the disk reports ENOSPC.
The service rejects that batch, as it should.  Before the fix, the next
batch landed *behind* the half frame and was acknowledged; on reopen,
the log scan stopped at the half frame and the repair truncated the
acknowledged batch away.  Now the failed append truncates the log back
to its size before the append, and when even that truncate fails, the
store refuses appends to the session until it is reopened.
"""

from __future__ import annotations

import errno

import pytest

from repro.common.labels import CLEAN, DIRTY
from repro.streaming import DirectorySessionStore, EstimationService
from repro.streaming import wal
from repro.streaming.store import StoreCorruptionError

ESTIMATORS = ["voting", "chao92", "switch_total"]


def _service(root) -> EstimationService:
    return EstimationService(DirectorySessionStore(root), compact_after_bytes=None)


def _batch(offset: int):
    return [{offset % 5: DIRTY, (offset + 1) % 5: CLEAN}]


class _HalfWritingHandle:
    """A log handle whose write lands half the frame, then hits ENOSPC."""

    def __init__(self, handle, *, truncate_fails: bool) -> None:
        self._handle = handle
        self._truncate_fails = truncate_fails

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        self._handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def truncate(self, size=None):
        if self._truncate_fails:
            raise OSError(errno.EIO, "Input/output error")
        return self._handle.truncate(size)


def _fail_next_append(monkeypatch, *, truncate_fails: bool = False) -> None:
    """Make the next log open in ``repro.streaming.wal`` a failing one."""
    real_open = open

    def failing_open(*args, **kwargs):
        monkeypatch.undo()
        return _HalfWritingHandle(
            real_open(*args, **kwargs), truncate_fails=truncate_fails
        )

    monkeypatch.setattr(wal, "open", failing_open, raising=False)


def test_failed_append_does_not_erase_the_next_acknowledged_batch(
    tmp_path, monkeypatch
):
    service = _service(tmp_path)
    service.create_session("s", range(5), ESTIMATORS)
    service.ingest("s", _batch(0), source="l", sequence=1)
    _fail_next_append(monkeypatch)
    with pytest.raises(OSError) as excinfo:
        service.ingest("s", _batch(1), source="l", sequence=2)
    assert excinfo.value.errno == errno.ENOSPC
    assert service.ingest("s", _batch(2), source="l", sequence=2).applied == 1
    live = service.estimate_report("s")
    assert live.version[0] == 2

    reopened = _service(tmp_path).estimate_report("s")
    assert reopened.version == live.version
    assert reopened.results == live.results


def test_failed_truncate_refuses_appends_until_reopened(tmp_path, monkeypatch):
    service = _service(tmp_path)
    service.create_session("s", range(5), ESTIMATORS)
    service.create_session("t", range(5), ESTIMATORS)
    service.ingest("s", _batch(0), source="l", sequence=1)
    live = service.estimate_report("s")
    _fail_next_append(monkeypatch, truncate_fails=True)
    with pytest.raises(OSError):
        service.ingest("s", _batch(1), source="l", sequence=2)
    # The half frame is still on disk: nothing may land behind it.
    with pytest.raises(StoreCorruptionError, match="reopen"):
        service.ingest("s", _batch(2), source="l", sequence=2)
    assert service.estimate_report("s") == live
    # Other sessions of the same store keep taking writes.
    assert service.ingest("t", _batch(3), source="l", sequence=1).applied == 1

    reopened = _service(tmp_path)
    assert reopened.estimate_report("s") == live
    assert reopened.ingest("s", _batch(2), source="l", sequence=2).applied == 1
    assert _service(tmp_path).estimate_report("s") == reopened.estimate_report("s")


@pytest.mark.parametrize("replace_log", ["compact", "drop"])
def test_a_replaced_log_takes_appends_again(tmp_path, monkeypatch, replace_log):
    service = _service(tmp_path)
    service.create_session("s", range(5), ESTIMATORS)
    service.ingest("s", _batch(0), source="l", sequence=1)
    _fail_next_append(monkeypatch, truncate_fails=True)
    with pytest.raises(OSError):
        service.ingest("s", _batch(1), source="l", sequence=2)
    if replace_log == "compact":
        service.compact("s")
    else:
        service.drop("s")
        service.create_session("s", range(5), ESTIMATORS)
    assert service.ingest("s", _batch(2), source="l", sequence=2).applied == 1
    live = service.estimates("s")
    assert _service(tmp_path).estimates("s") == live
