"""Append-only write-ahead log for streaming sessions.

The log-structured persistence path (the HTAP-style split: an
append-only update path for ingestion, snapshots only at compaction)
rests on one small primitive — a :class:`SessionLog`, one file of
framed, checksummed records.  Its head is a :class:`CreateRecord` (the
session's birth certificate) or, once compacted, a snapshot record (see
:func:`write_snapshot_record`); every later record is a
:class:`BatchRecord`, one ingested batch carrying the serving layer's
``(source, sequence)`` idempotency pair so a duplicate replays as a
no-op.

Frame format (little-endian)::

    +------+----------+------------+------------------+
    | RWAL | u32 size | u32 crc32  | payload (size B) |
    +------+----------+------------+------------------+

Create and batch payloads are canonical JSON (sorted keys, compact
separators), so a log of identical appends is byte-identical across
runs; a snapshot frame has the magic ``RSNP``.  Readers stop at the
first frame that is short, has a wrong magic, or fails its CRC — a torn
final record from a crash mid-append is therefore *ignored*, and
:meth:`SessionLog.repair` truncates it away so later appends land on a
valid prefix.  Appending a batch costs O(batch), independent of the
session's accumulated state — the whole point of the WAL path.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, List, Optional, Tuple, Union

import numpy as np

from repro.common.exceptions import ConfigurationError, ValidationError
from repro.streaming.session import SessionSnapshot, _load_arrays

#: Log payload format version; bump when the record schema changes.
WAL_FORMAT_VERSION = 1

#: Per-record frame: magic, payload size, payload crc32.
_FRAME = struct.Struct("<4sII")
_MAGIC = b"RWAL"
_SNAPSHOT_MAGIC = b"RSNP"
#: A snapshot payload starts with the size of its manifest JSON.
_MANIFEST_SIZE = struct.Struct("<I")


@dataclass(frozen=True)
class CreateRecord:
    """The head of a log never compacted: how to build the session.

    Carrying creation in the log keeps ``create_session`` O(1) on the
    durable path — no snapshot is written until the first compaction.
    """

    item_ids: Tuple[int, ...]
    estimators: Tuple[str, ...]
    keep_votes: bool = True

    def payload(self) -> dict:
        return {
            "kind": "create",
            "format": WAL_FORMAT_VERSION,
            "item_ids": list(self.item_ids),
            "estimators": list(self.estimators),
            "keep_votes": bool(self.keep_votes),
        }


@dataclass(frozen=True)
class BatchRecord:
    """One durably ingested batch of task columns.

    ``columns`` preserves both item order within a column and column
    order within the batch (each column is a tuple of ``(item, vote)``
    pairs), so replaying a record applies the exact columns, in the exact
    vote order, that the live ingest applied — the precondition for
    bit-identical recovery.
    """

    columns: Tuple[Tuple[Tuple[int, int], ...], ...]
    worker_ids: Optional[Tuple[Optional[int], ...]] = None
    source: Optional[str] = None
    sequence: Optional[int] = None

    @classmethod
    def from_columns(
        cls,
        columns,
        worker_ids=None,
        source: Optional[str] = None,
        sequence: Optional[int] = None,
    ) -> "BatchRecord":
        """Freeze a live ingest batch (mappings in, tuples out)."""
        return cls(
            columns=tuple(
                tuple((int(item), int(vote)) for item, vote in votes.items())
                for votes in columns
            ),
            worker_ids=(
                None
                if worker_ids is None
                else tuple(
                    None if worker is None else int(worker)
                    for worker in worker_ids
                )
            ),
            source=source,
            sequence=sequence,
        )

    def column_mappings(self) -> List[dict]:
        """The batch as ``{item: vote}`` mappings, in recorded order."""
        return [dict(pairs) for pairs in self.columns]

    def payload(self) -> dict:
        return {
            "kind": "batch",
            "format": WAL_FORMAT_VERSION,
            "columns": [[[item, vote] for item, vote in pairs] for pairs in self.columns],
            "worker_ids": (
                None if self.worker_ids is None else list(self.worker_ids)
            ),
            "source": self.source,
            "sequence": self.sequence,
        }


WalRecord = Union[CreateRecord, BatchRecord]
LogRecord = Union[CreateRecord, BatchRecord, SessionSnapshot]  # a snapshot only heads a log


class _Checksummed(io.RawIOBase):
    """A write-only stream that passes its bytes on and sums them up."""

    def __init__(self, handle: BinaryIO) -> None:
        super().__init__()
        self.handle, self.size, self.crc = handle, 0, 0

    def write(self, data) -> int:
        self.size += len(data)
        self.crc = zlib.crc32(data, self.crc)
        return self.handle.write(data)


def write_snapshot_record(handle: BinaryIO, snapshot: SessionSnapshot) -> None:
    """Write ``snapshot`` as one framed record at the start of ``handle``.

    The payload is ``u32 manifest size | manifest JSON | npz bytes``,
    encoded as :func:`~repro.streaming.session.write_snapshot` encodes
    ``manifest.json`` and ``arrays.npz``.  It streams to the file through
    :class:`_Checksummed`, which ``np.savez`` cannot seek, so every byte
    is final when written and no copy of the arrays is built.
    """
    manifest = (
        json.dumps(snapshot.manifest, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")
    handle.write(bytes(_FRAME.size))
    payload = _Checksummed(handle)
    payload.write(_MANIFEST_SIZE.pack(len(manifest)) + manifest)
    np.savez(payload, **snapshot.arrays)
    handle.seek(0)
    handle.write(_FRAME.pack(_SNAPSHOT_MAGIC, payload.size, payload.crc))


def _decode_snapshot(payload: bytes) -> SessionSnapshot:
    """Rebuild a snapshot from a CRC-verified payload, without copying it.

    The npz archive ends the payload, and the zip reader skips what precedes it.
    """
    try:
        start = _MANIFEST_SIZE.size + _MANIFEST_SIZE.unpack_from(payload)[0]
        manifest = json.loads(payload[_MANIFEST_SIZE.size : start].decode("utf-8"))
    except (struct.error, ValueError) as error:  # ValueError: bad UTF-8 or JSON
        raise ConfigurationError(f"undecodable snapshot record: {error!r}") from error
    if not isinstance(manifest, dict):
        raise ConfigurationError(
            "undecodable snapshot record: the manifest is a "
            f"{type(manifest).__name__}, not an object"
        )
    archive = io.BytesIO(payload)
    archive.seek(start)
    return SessionSnapshot(manifest, _load_arrays(archive, "snapshot record"))


def _snapshot_bytes(descriptor: int) -> int:
    """Size of the snapshot record a log starts with (0 for any other head)."""
    header = os.pread(descriptor, _FRAME.size, 0).ljust(_FRAME.size, b"\0")
    magic, size, _ = _FRAME.unpack(header)
    return _FRAME.size + size if magic == _SNAPSHOT_MAGIC else 0


def encode_record(record: WalRecord) -> bytes:
    """Serialise one record into its framed on-disk bytes."""
    payload = json.dumps(
        record.payload(), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return _FRAME.pack(_MAGIC, len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes) -> WalRecord:
    """Rebuild a record from a CRC-verified payload.

    A payload that passes its checksum but does not decode is a format
    problem (a future log version, not a torn write) and raises
    ``ConfigurationError`` instead of being silently skipped.
    """
    try:
        document = json.loads(payload.decode("utf-8"))
        kind = document["kind"]
        if int(document.get("format", -1)) != WAL_FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported WAL record format {document.get('format')!r} "
                f"(this build reads version {WAL_FORMAT_VERSION})"
            )
        if kind == "create":
            return CreateRecord(
                item_ids=tuple(int(item) for item in document["item_ids"]),
                estimators=tuple(str(name) for name in document["estimators"]),
                keep_votes=bool(document["keep_votes"]),
            )
        if kind == "batch":
            workers = document["worker_ids"]
            return BatchRecord(
                columns=tuple(
                    tuple((int(item), int(vote)) for item, vote in pairs)
                    for pairs in document["columns"]
                ),
                worker_ids=(
                    None
                    if workers is None
                    else tuple(
                        None if worker is None else int(worker)
                        for worker in workers
                    )
                ),
                source=document["source"],
                sequence=document["sequence"],
            )
        raise ConfigurationError(f"unknown WAL record kind {kind!r}")
    except ConfigurationError:
        raise
    except Exception as error:
        raise ConfigurationError(f"undecodable WAL record: {error!r}") from error


class TornAppendError(OSError):
    """A failed append left a partial frame the log could not truncate."""


class SessionLog:
    """One session's append-only log file.

    Parameters
    ----------
    path:
        The log file; created on first append.
    sync:
        Fsync after every append.  Off by default: records are flushed
        to the OS (surviving process crashes); turn it on to also
        survive power loss at a large throughput cost.
    """

    def __init__(self, path: Union[str, Path], *, sync: bool = False) -> None:
        self.path = Path(path)
        self.sync = bool(sync)
        #: Size of the log's snapshot head (0 for a create head) at the last :meth:`append`.
        self.snapshot_bytes = 0

    def append(self, record: WalRecord) -> int:
        """Append one framed record; returns the log size in bytes after.

        O(record) — the log is opened in append mode and never rewritten;
        the same open reads :attr:`snapshot_bytes`.  A failed write or
        fsync truncates the log back to its size before the append and
        re-raises, so the next append never lands behind a partial frame
        that recovery would stop at; if that truncate fails too,
        :class:`TornAppendError` is raised instead.
        """
        frame = encode_record(record)
        with open(self.path, "a+b", buffering=0) as handle:
            start = handle.tell()
            self.snapshot_bytes = _snapshot_bytes(handle.fileno())
            try:
                written = 0
                while written < len(frame):
                    written += handle.write(frame[written:])
                if self.sync:
                    os.fsync(handle.fileno())
            except BaseException:
                try:
                    handle.truncate(start)
                except OSError as error:
                    raise TornAppendError(
                        f"{self.path} keeps a partial frame after a failed "
                        f"append: truncating it back to {start} bytes failed"
                    ) from error
                raise
        return start + written

    def scan(self) -> Tuple[List[LogRecord], int, bool]:
        """Read every intact record.

        Returns ``(records, valid_bytes, torn)`` where ``valid_bytes``
        is the length of the longest valid prefix and ``torn`` reports
        whether trailing bytes (a short frame, wrong magic or checksum
        mismatch — the signature of a crash mid-append) were ignored.
        Each payload is read once, into its own buffer.
        """
        records: List[LogRecord] = []
        offset = 0
        if not self.path.exists():
            return records, offset, False
        with open(self.path, "rb") as handle:
            end = os.fstat(handle.fileno()).st_size
            while end - offset >= _FRAME.size:
                magic, size, checksum = _FRAME.unpack(handle.read(_FRAME.size))
                if magic not in (_MAGIC, _SNAPSHOT_MAGIC) or size > end - offset - _FRAME.size:
                    break
                payload = handle.read(size)
                if zlib.crc32(payload) != checksum:
                    break
                decode = _decode_snapshot if magic == _SNAPSHOT_MAGIC else decode_payload
                records.append(decode(payload))
                offset += _FRAME.size + size
        return records, offset, offset != end

    def records(self) -> List[LogRecord]:
        """Every intact record, ignoring any torn tail."""
        return self.scan()[0]

    def repair(self) -> bool:
        """Truncate a torn tail so future appends land on a valid prefix.

        Returns True when bytes were removed.  A no-op on a healthy or
        missing log, and on one whose head record does not verify: that
        log has no valid prefix to keep, only bytes to inspect.
        """
        records, valid_bytes, torn = self.scan()
        if not (torn and records):
            return False
        os.truncate(self.path, valid_bytes)
        return True

    def tail_bytes(self) -> int:
        """Bytes after the log's snapshot head (all of them for any other head)."""
        try:
            with open(self.path, "rb", buffering=0) as handle:
                return os.fstat(handle.fileno()).st_size - _snapshot_bytes(handle.fileno())
        except FileNotFoundError:
            return 0

    def size_bytes(self) -> int:
        """Current log size (0 when the file does not exist yet)."""
        try:
            return self.path.stat().st_size
        except FileNotFoundError:
            return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"SessionLog({str(self.path)!r}, size={self.size_bytes()})"


def check_batch_record(record: LogRecord) -> BatchRecord:
    """Assert a replayed mid-log record is a batch (only a head is not)."""
    if not isinstance(record, BatchRecord):
        raise ValidationError(
            f"unexpected {type(record).__name__} in the middle of a session "
            "log — the log is not a valid ingestion history"
        )
    return record
