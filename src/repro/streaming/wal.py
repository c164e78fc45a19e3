"""Append-only write-ahead log for streaming sessions.

The log-structured persistence path (the HTAP-style split: an
append-only update path for ingestion, snapshots only at compaction)
rests on one small primitive — a :class:`SessionLog` holding a sequence
of framed, checksummed records:

* :class:`CreateRecord` — the session's birth certificate (item ids,
  estimator names, ``keep_votes``); always the first record of a log
  that has no base snapshot yet.
* :class:`BatchRecord` — one ingested batch of task columns, carrying
  the serving layer's ``(source, sequence)`` idempotency pair so a
  duplicate record replays as a no-op.

Frame format (little-endian)::

    +------+----------+------------+------------------+
    | RWAL | u32 size | u32 crc32  | payload (size B) |
    +------+----------+------------+------------------+

The payload is canonical JSON (sorted keys, compact separators), so a
log of identical appends is byte-identical across runs.  Readers stop at
the first frame that is short, has a wrong magic, or fails its CRC —
a torn final record from a crash mid-append is therefore *ignored*, and
:meth:`SessionLog.repair` truncates it away so later appends land on a
valid prefix.  Appending a batch costs O(batch), independent of the
session's accumulated state — the whole point of the WAL path.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.common.exceptions import ConfigurationError, ValidationError

#: Log payload format version; bump when the record schema changes.
WAL_FORMAT_VERSION = 1

#: Per-record frame: magic, payload size, payload crc32.
_FRAME = struct.Struct("<4sII")
_MAGIC = b"RWAL"


@dataclass(frozen=True)
class CreateRecord:
    """The first record of a snapshotless log: how to build the session.

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
    pairs), so replaying a record drives the exact ``add_column`` calls
    the live ingest made — the precondition for bit-identical recovery.
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

    def append(self, record: WalRecord) -> int:
        """Append one framed record; returns the log size in bytes after.

        O(record) — the log is opened in append mode and never rewritten.
        A failed write or fsync truncates the log back to its size before
        the append and re-raises, so the next append never lands behind
        a partial frame that recovery would stop at; if that truncate
        fails too, :class:`TornAppendError` is raised instead.
        """
        frame = encode_record(record)
        with open(self.path, "ab", buffering=0) as handle:
            start = handle.tell()
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

    def scan(self) -> Tuple[List[WalRecord], int, bool]:
        """Read every intact record.

        Returns ``(records, valid_bytes, torn)`` where ``valid_bytes``
        is the length of the longest valid prefix and ``torn`` reports
        whether trailing bytes (a short frame, wrong magic or checksum
        mismatch — the signature of a crash mid-append) were ignored.
        """
        if not self.path.exists():
            return [], 0, False
        data = self.path.read_bytes()
        records: List[WalRecord] = []
        offset = 0
        while offset < len(data):
            header = data[offset : offset + _FRAME.size]
            if len(header) < _FRAME.size:
                break
            magic, size, checksum = _FRAME.unpack(header)
            if magic != _MAGIC:
                break
            payload = data[offset + _FRAME.size : offset + _FRAME.size + size]
            if len(payload) < size or zlib.crc32(payload) != checksum:
                break
            records.append(decode_payload(payload))
            offset += _FRAME.size + size
        return records, offset, offset != len(data)

    def records(self) -> List[WalRecord]:
        """Every intact record, ignoring any torn tail."""
        return self.scan()[0]

    def repair(self) -> bool:
        """Truncate a torn tail so future appends land on a valid prefix.

        Returns True when bytes were removed.  Safe to call on a healthy
        (or missing) log — it is a no-op then.
        """
        _, valid_bytes, torn = self.scan()
        if torn:
            with open(self.path, "ab") as handle:
                handle.truncate(valid_bytes)
        return torn

    def size_bytes(self) -> int:
        """Current log size (0 when the file does not exist yet)."""
        try:
            return self.path.stat().st_size
        except FileNotFoundError:
            return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"SessionLog({str(self.path)!r}, size={self.size_bytes()})"


def check_batch_record(record: WalRecord) -> BatchRecord:
    """Assert a replayed mid-log record is a batch (creates lead a log)."""
    if not isinstance(record, BatchRecord):
        raise ValidationError(
            "unexpected create record in the middle of a session log — the "
            "log is not a valid ingestion history"
        )
    return record
