"""Log-structured session persistence: WAL codec, compaction, recovery.

The durability contract under test: every mutation the serving layer
acknowledges is on disk before the call returns, a crash at *any* point
(mid-append, mid-compaction) loses at most the unacknowledged tail, and
recovery — the one log file, snapshot head plus the batches after it —
rebuilds estimates bit-identical to the live session.  Torn final
records are detected by checksum and ignored; an unreadable head is
reported and left untouched; duplicate ``(source, sequence)`` records
replay as no-ops exactly as their deliveries did live.
"""

from __future__ import annotations

import io
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.exceptions import ConfigurationError, ValidationError
from repro.common.labels import CLEAN, DIRTY
from repro.streaming import (
    DirectorySessionStore,
    EstimationService,
    StreamingSession,
    UnknownSessionError,
    write_snapshot,
)
from repro.streaming.store import StoreCorruptionError
from repro.streaming.wal import (
    BatchRecord,
    CreateRecord,
    SessionLog,
    WAL_FORMAT_VERSION,
    check_batch_record,
    decode_payload,
    encode_record,
    write_snapshot_record,
)

ESTIMATORS = ["voting", "chao92", "switch_total"]


def _batch(offset: int = 0):
    """A small deterministic ingest batch (two columns)."""
    return [
        {offset % 5: DIRTY, (offset + 1) % 5: CLEAN},
        {(offset + 2) % 5: DIRTY},
    ]


def _service(root, **kwargs) -> EstimationService:
    kwargs.setdefault("compact_after_bytes", None)
    return EstimationService(DirectorySessionStore(root), **kwargs)


def _estimates(service, name="s"):
    return service.estimates(name)


def _flip_head_byte(log) -> bytes:
    """Corrupt one payload byte of the log's head record; the new bytes."""
    data = bytearray(log.read_bytes())
    data[20] ^= 0xFF
    log.write_bytes(bytes(data))
    return bytes(data)


class TestRecordCodec:
    def test_create_record_roundtrip(self):
        record = CreateRecord(item_ids=(0, 3, 7), estimators=("voting",), keep_votes=False)
        frame = encode_record(record)
        assert decode_payload(frame[12:]) == record

    def test_batch_record_roundtrip_preserves_order_and_workers(self):
        record = BatchRecord.from_columns(
            [{3: DIRTY, 1: CLEAN}, {0: DIRTY}],
            worker_ids=[7, None],
            source="loader",
            sequence=4,
        )
        decoded = decode_payload(encode_record(record)[12:])
        assert decoded == record
        assert decoded.column_mappings() == [{3: DIRTY, 1: CLEAN}, {0: DIRTY}]
        assert decoded.worker_ids == (7, None)

    def test_unknown_kind_and_wrong_version_rejected(self):
        import json

        with pytest.raises(ConfigurationError, match="unknown WAL record kind"):
            decode_payload(
                json.dumps({"kind": "mystery", "format": WAL_FORMAT_VERSION}).encode()
            )
        with pytest.raises(ConfigurationError, match="format"):
            decode_payload(
                json.dumps({"kind": "create", "format": WAL_FORMAT_VERSION + 1}).encode()
            )
        with pytest.raises(ConfigurationError, match="undecodable"):
            decode_payload(b"not json at all")

    def test_mid_log_create_record_rejected_by_replay_guard(self):
        create = CreateRecord(item_ids=(0,), estimators=("voting",))
        with pytest.raises(ValidationError, match="middle of a session log"):
            check_batch_record(create)
        batch = BatchRecord.from_columns([{0: DIRTY}])
        assert check_batch_record(batch) is batch


class TestSessionLog:
    def _records(self):
        return [
            CreateRecord(item_ids=(0, 1, 2), estimators=("voting",)),
            BatchRecord.from_columns(_batch(0), source="a", sequence=1),
            BatchRecord.from_columns(_batch(1), source="a", sequence=2),
        ]

    def test_append_scan_roundtrip(self, tmp_path):
        log = SessionLog(tmp_path / "s.log")
        assert log.records() == []
        for record in self._records():
            size = log.append(record)
        assert size == log.size_bytes()
        records, valid, torn = log.scan()
        assert records == self._records()
        assert valid == log.size_bytes()
        assert not torn

    def test_torn_final_record_is_ignored_and_repaired(self, tmp_path):
        log = SessionLog(tmp_path / "s.log")
        for record in self._records():
            log.append(record)
        intact = log.size_bytes()
        # A crash mid-append leaves a half-written frame at the tail.
        with open(log.path, "ab") as handle:
            handle.write(encode_record(self._records()[1])[:-5])
        records, valid, torn = log.scan()
        assert records == self._records()
        assert valid == intact
        assert torn
        assert log.repair()
        assert log.size_bytes() == intact
        assert not log.repair()  # healthy log: no-op
        # Appends after repair extend a valid prefix.
        extra = BatchRecord.from_columns(_batch(2))
        log.append(extra)
        assert log.records() == self._records() + [extra]

    def test_mid_file_corruption_stops_replay_at_the_valid_prefix(self, tmp_path):
        log = SessionLog(tmp_path / "s.log")
        first = self._records()[0]
        boundary = log.append(first)
        for record in self._records()[1:]:
            log.append(record)
        data = bytearray(log.path.read_bytes())
        data[boundary + 20] ^= 0xFF  # flip one payload byte of record 2
        log.path.write_bytes(bytes(data))
        records, valid, torn = log.scan()
        assert records == [first]
        assert valid == boundary
        assert torn

    def test_missing_log_reads_empty_and_repair_is_noop(self, tmp_path):
        log = SessionLog(tmp_path / "missing.log")
        assert log.records() == []
        assert log.size_bytes() == 0
        assert not log.repair()


class TestLogStructuredStore:
    def test_log_only_session_has_no_loadable_snapshot(self, tmp_path):
        store = DirectorySessionStore(tmp_path)
        store.append("s", encode_record(CreateRecord(item_ids=(0, 1), estimators=("voting",))))
        assert "s" in store
        assert store.names() == ["s"]
        snapshot, records = store.recovery("s")
        assert snapshot is None
        assert len(records) == 1
        with pytest.raises(ConfigurationError, match="no base snapshot"):
            store.load("s")

    def test_save_compacts_and_truncates_the_log(self, tmp_path):
        store = DirectorySessionStore(tmp_path)
        session = StreamingSession([0, 1, 2], ["voting"])
        store.append("s", encode_record(CreateRecord(item_ids=(0, 1, 2), estimators=("voting",))))
        store.append("s", encode_record(BatchRecord.from_columns(_batch())))
        assert store.log_size("s") > 0
        store.save("s", session.snapshot())
        assert store.log_size("s") == 0
        snapshot, records = store.recovery("s")
        assert snapshot is not None and records == []
        # Exactly one file remains: the log, now a snapshot head alone.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.log"]
        (head,) = SessionLog(tmp_path / "s.log").records()
        assert head.manifest == session.snapshot().manifest

    def test_snapshot_record_shares_the_export_encoding(self, tmp_path):
        session = StreamingSession([0, 1, 2], ESTIMATORS)
        session.add_column({0: DIRTY, 2: CLEAN}, worker_id=1)
        snapshot = session.snapshot()
        log = SessionLog(tmp_path / "s.log")
        with open(log.path, "wb") as handle:
            write_snapshot_record(handle, snapshot)
        exported = write_snapshot(snapshot, tmp_path / "export")
        data = log.path.read_bytes()
        manifest = (exported / "manifest.json").read_bytes()
        # Frame header, manifest size, the manifest.json bytes, then npz.
        assert data[16 : 16 + len(manifest)] == manifest
        assert data[16 + len(manifest) : 18 + len(manifest)] == b"PK"
        (record,) = log.records()
        assert record.manifest == snapshot.manifest
        restored = StreamingSession.from_snapshot(record)
        assert restored.estimate() == session.estimate()

    def test_an_old_layout_root_is_refused(self, tmp_path):
        session = StreamingSession([0, 1], ["voting"])
        write_snapshot(session.snapshot(), tmp_path / "old" / "gen-00000001")
        (tmp_path / "old" / "wal-00000001.log").touch()
        (tmp_path / ".old.tmp-dead").touch()
        before = sorted(str(path) for path in tmp_path.rglob("*"))
        with pytest.raises(ConfigurationError, match="old store layout") as caught:
            DirectorySessionStore(tmp_path)
        assert str(tmp_path / "old") in str(caught.value)
        assert not isinstance(caught.value, StoreCorruptionError)
        # Refused as it is: nothing swept, nothing migrated.
        assert sorted(str(path) for path in tmp_path.rglob("*")) == before
        # Directories of any other shape are not sessions and stay allowed.
        (tmp_path / "old" / "gen-00000001").rename(tmp_path / "exports")
        (tmp_path / "old" / "wal-00000001.log").unlink()
        assert DirectorySessionStore(tmp_path).names() == []

    def test_kill_mid_compaction_staging_is_swept_and_old_generation_wins(self, tmp_path):
        store = DirectorySessionStore(tmp_path)
        session = StreamingSession([0, 1], ["voting"])
        store.save("s", session.snapshot())
        before = (tmp_path / "s.log").read_bytes()
        # Crash before the rename: the next log exists only as its
        # staging file.
        staging = tmp_path / ".s.log.tmp-dead"
        staging.write_bytes(before[:20])
        reopened = DirectorySessionStore(tmp_path)
        assert not staging.exists(), "stale staging must be swept on open"
        snapshot, records = reopened.recovery("s")
        assert snapshot is not None and records == []
        assert (tmp_path / "s.log").read_bytes() == before

    def test_unknown_and_corrupt_sessions_are_distinct_errors(self, tmp_path):
        store = DirectorySessionStore(tmp_path)
        with pytest.raises(UnknownSessionError):
            store.recovery("ghost")
        store.save("bad", StreamingSession([0], ["voting"]).snapshot())
        store.append("bad", encode_record(BatchRecord.from_columns([{0: DIRTY}])))
        corrupt = _flip_head_byte(tmp_path / "bad.log")
        with pytest.raises(StoreCorruptionError, match="corrupt") as exc_info:
            DirectorySessionStore(tmp_path).recovery("bad")
        assert not isinstance(exc_info.value, UnknownSessionError)
        # No path truncates a log whose head does not verify.
        assert not SessionLog(tmp_path / "bad.log").repair()
        with pytest.raises(StoreCorruptionError):
            _service(tmp_path).estimates("bad")
        assert (tmp_path / "bad.log").read_bytes() == corrupt

    def test_an_unreadable_create_head_is_left_as_it_is(self, tmp_path):
        store = DirectorySessionStore(tmp_path)
        store.append("bad", encode_record(CreateRecord(item_ids=(0,), estimators=("voting",))))
        store.append("bad", encode_record(BatchRecord.from_columns([{0: DIRTY}])))
        corrupt = _flip_head_byte(tmp_path / "bad.log")
        with pytest.raises(StoreCorruptionError, match="does not verify"):
            store.recovery("bad")
        assert not SessionLog(tmp_path / "bad.log").repair()
        assert (tmp_path / "bad.log").read_bytes() == corrupt

    def test_a_torn_head_is_left_as_it_is(self, tmp_path):
        # A crash during the very first append: half a create frame.
        log = tmp_path / "s.log"
        torn = encode_record(CreateRecord(item_ids=(0,), estimators=("voting",)))[:-3]
        log.write_bytes(torn)
        store = DirectorySessionStore(tmp_path)
        assert store.names() == ["s"]
        with pytest.raises(StoreCorruptionError, match="does not verify"):
            store.recovery("s")
        assert log.read_bytes() == torn
        store.delete("s")  # what an operator does with it
        assert store.names() == []

    def test_stale_staging_files_swept_on_open(self, tmp_path):
        """Regression: orphaned ``*.tmp`` staging entries are removed."""
        store = DirectorySessionStore(tmp_path)
        session = StreamingSession([0], ["voting"])
        store.save("s", session.snapshot())
        stale_root_file = tmp_path / ".snapshot.tmp-1234"
        stale_root_file.write_text("partial", encoding="utf-8")
        stale_log = tmp_path / ".s.log.tmp-99"
        stale_log.write_text("partial", encoding="utf-8")
        kept = tmp_path / ".notes"
        kept.write_text("not a staging file", encoding="utf-8")
        DirectorySessionStore(tmp_path)
        assert not stale_root_file.exists()
        assert not stale_log.exists()
        assert kept.exists()
        # The real session was untouched.
        assert DirectorySessionStore(tmp_path).load("s") is not None


def _snapshot_payload() -> bytes:
    """The payload of a valid snapshot record (its frame header stripped)."""
    session = StreamingSession([0, 1, 2], ESTIMATORS)
    session.add_column({0: DIRTY, 2: CLEAN}, worker_id=1)
    buffer = io.BytesIO()
    write_snapshot_record(buffer, session.snapshot())
    return buffer.getvalue()[12:]


_PAYLOAD = _snapshot_payload()
#: The npz archive's first central-directory entry.
_CENTRAL = _PAYLOAD.index(b"PK\x01\x02")


def _flipped(flips) -> bytes:
    data = bytearray(_PAYLOAD)
    for position, mask in flips:
        data[position] ^= mask
    return bytes(data)


#: A valid payload cut short, or with one to three bytes flipped.
_DAMAGED_PAYLOADS = st.one_of(
    st.integers(min_value=0, max_value=len(_PAYLOAD) - 1).map(lambda cut: _PAYLOAD[:cut]),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(_PAYLOAD) - 1),
            st.integers(min_value=1, max_value=255),
        ),
        min_size=1,
        max_size=3,
    ).map(_flipped),
)


class TestSnapshotDecodeErrors:
    """Only bytes that do not decode are corruption."""

    def test_a_transient_load_error_is_not_reported_as_corruption(
        self, tmp_path, monkeypatch
    ):
        store = DirectorySessionStore(tmp_path)
        session = StreamingSession([0, 1, 2], ESTIMATORS)
        session.add_column({0: DIRTY, 2: CLEAN}, worker_id=1)
        store.save("s", session.snapshot())
        store.append("s", encode_record(BatchRecord.from_columns(_batch())))
        before = (tmp_path / "s.log").read_bytes()
        load = np.load
        raised = []

        def load_failing_once(*args, **kwargs):
            if not raised:
                raised.append(True)
                raise SystemError("AST constructor recursion depth mismatch")
            return load(*args, **kwargs)

        monkeypatch.setattr(np, "load", load_failing_once)
        with pytest.raises(SystemError, match="recursion depth"):
            store.recovery("s")
        assert (tmp_path / "s.log").read_bytes() == before
        snapshot, records = store.recovery("s")
        assert snapshot.manifest == session.snapshot().manifest
        assert len(records) == 1
        assert (tmp_path / "s.log").read_bytes() == before

    @given(payload=_DAMAGED_PAYLOADS)
    # Zip features the reader refuses: an unknown compression method
    # (``NotImplementedError``) and an encrypted member (``RuntimeError``).
    @example(payload=_flipped([(_CENTRAL + 10, 99)]))
    @example(payload=_flipped([(_CENTRAL + 8, 1)]))
    @settings(max_examples=400, deadline=None)
    def test_a_damaged_payload_decodes_or_is_one_configuration_error(self, payload):
        """Truncations and byte flips under a recomputed CRC reach the decoder."""
        frame = struct.pack("<4sII", b"RSNP", len(payload), zlib.crc32(payload))
        with tempfile.TemporaryDirectory() as root:
            log = SessionLog(Path(root) / "s.log")
            log.path.write_bytes(frame + payload)
            try:
                records = log.records()
            except ConfigurationError as error:
                assert "undecodable snapshot record" in str(error)
            else:
                assert len(records) == 1 and records[0].manifest


class TestServiceCrashConsistency:
    def _reference(self, batches):
        reference = StreamingSession(range(5), ESTIMATORS)
        for batch in batches:
            for column in batch:
                reference.add_column(column)
        return reference.estimate()

    def test_crash_and_recover_is_bit_identical(self, tmp_path):
        service = _service(tmp_path)
        service.create_session("s", range(5), ESTIMATORS)
        batches = [_batch(0), _batch(1), _batch(2)]
        for sequence, batch in enumerate(batches, start=1):
            service.ingest("s", batch, source="l", sequence=sequence)
        live = _estimates(service)
        del service  # crash: all in-memory state gone
        recovered = _service(tmp_path)
        assert _estimates(recovered) == live
        assert _estimates(recovered) == self._reference(batches)

    def test_torn_final_record_is_ignored_on_replay(self, tmp_path):
        service = _service(tmp_path)
        service.create_session("s", range(5), ESTIMATORS)
        batches = [_batch(0), _batch(1)]
        for sequence, batch in enumerate(batches, start=1):
            service.ingest("s", batch, source="l", sequence=sequence)
        # Crash mid-append: a half-written frame lands at the log tail.
        wal = tmp_path / "s.log"
        with open(wal, "ab") as handle:
            handle.write(encode_record(BatchRecord.from_columns(_batch(9)))[:-7])
        recovered = _service(tmp_path)
        assert _estimates(recovered) == self._reference(batches)
        # The log was repaired, so the next ingest extends a valid prefix.
        recovered.ingest("s", _batch(2), source="l", sequence=3)
        assert _estimates(_service(tmp_path)) == self._reference(
            batches + [_batch(2)]
        )

    def test_duplicate_batch_record_replays_as_noop(self, tmp_path):
        service = _service(tmp_path)
        service.create_session("s", range(5), ESTIMATORS)
        service.ingest("s", _batch(0), source="l", sequence=1)
        # A retried delivery that crashed after its append leaves the same
        # (source, sequence) record in the log twice.
        service.store.append(
            "s", encode_record(BatchRecord.from_columns(_batch(0), source="l", sequence=1))
        )
        recovered = _service(tmp_path)
        assert _estimates(recovered) == self._reference([_batch(0)])
        # The duplicate also keeps blocking live redelivery after recovery.
        assert recovered.ingest("s", _batch(0), source="l", sequence=1).duplicate

    def test_create_is_durable_without_any_snapshot(self, tmp_path):
        service = _service(tmp_path)
        service.create_session("s", range(5), ESTIMATORS, keep_votes=False)
        recovered = _service(tmp_path)
        assert recovered.sessions() == ["s"]
        assert recovered.progress("s")["num_columns"] == 0

    def test_eviction_is_free_and_lossless_under_wal(self, tmp_path):
        service = _service(tmp_path, max_active=1)
        service.create_session("a", range(5), ESTIMATORS)
        service.create_session("b", range(5), ESTIMATORS)  # evicts "a"
        service.ingest("a", _batch(0), source="l", sequence=1)  # revives "a"
        service.ingest("b", _batch(1), source="l", sequence=1)
        assert service.sessions_evicted >= 2
        # No snapshot was ever written — the sessions live entirely in
        # their logs, behind their create records — yet a crash loses
        # nothing.
        assert service.store.recovery("a")[0] is None
        recovered = _service(tmp_path)
        assert _estimates(recovered, "a") == self._reference([_batch(0)])
        assert _estimates(recovered, "b") == self._reference([_batch(1)])

    def test_size_triggered_compaction_folds_the_log(self, tmp_path):
        service = EstimationService(
            DirectorySessionStore(tmp_path), compact_after_bytes=1
        )
        service.create_session("s", range(5), ESTIMATORS)
        service.ingest("s", _batch(0), source="l", sequence=1)
        # Every ingest exceeds the 1-byte threshold, so the log is folded
        # into a snapshot head immediately.
        assert service.store.log_size("s") == 0
        assert service.store.load("s").manifest["num_columns"] == len(_batch(0))
        assert _estimates(_service(tmp_path)) == self._reference([_batch(0)])

    def test_explicit_compact_preserves_estimates(self, tmp_path):
        service = _service(tmp_path)
        service.create_session("s", range(5), ESTIMATORS)
        service.ingest("s", _batch(0), source="l", sequence=1)
        before = _estimates(service)
        service.compact("s")
        assert service.store.log_size("s") == 0
        assert _estimates(_service(tmp_path)) == before
