"""Session storage behind the serving layer: one log per session.

A :class:`SessionStore` keeps each named session as a **log**: a head
record (the session's :class:`~repro.streaming.wal.CreateRecord` or,
once compacted, its :class:`~repro.streaming.session.SessionSnapshot`)
followed by the :class:`~repro.streaming.wal.BatchRecord` of every batch
applied since.  The serving façade
(:class:`~repro.streaming.serving.EstimationService`) appends to it
before each mutation, so the store is never behind a live session:
eviction frees memory without a write, and a new service over the same
store recovers every session.  ``append`` is the hot path, O(batch): it
takes a record's framed bytes, encoded once by the caller
(:func:`~repro.streaming.wal.encode_batch`,
:func:`~repro.streaming.wal.encode_record`); ``save`` is
**compaction**, the snapshot becomes the head and the records go;
``recovery`` returns the head snapshot (``None`` under a create head)
and the decoded records.

Two backends share that contract, byte counts included:

* :class:`MemorySessionStore` — the log's frames in a process-local
  dict; zero I/O, the default for tests and single-process serving.
* :class:`DirectorySessionStore` — one file per session under a root
  path, ``<root>/<name>.log``, a write-ahead log (see
  :mod:`repro.streaming.wal`); the CLI uses one, so `repro session`
  invocations compose into one long-lived session across processes.
  Compaction stages a file holding only the new snapshot record and
  renames it over the log in one atomic step, so a kill at any point of
  a compaction leaves either the old log or the new one, never a mix.

Both backends return independent snapshot copies: mutating a loaded
snapshot (or the session restored from it) never corrupts the stored
state.
"""

from __future__ import annotations

import os
import re
import tempfile
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

try:  # pragma: no cover - always present on the POSIX targets we support
    import fcntl
except ImportError:  # pragma: no cover - Windows fallback: no advisory locks
    fcntl = None

from repro.common.exceptions import ConfigurationError, ValidationError
from repro.streaming.session import SessionSnapshot
from repro.streaming.wal import (
    _FRAME,
    LogRecord,
    SessionLog,
    TornAppendError,
    append_frame,
    decode_payload,
    write_snapshot_record,
)

#: Session names double as file names, so keep them filesystem-safe.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")

#: Staging leftovers a crashed compaction can orphan (swept on store open).
_STALE_PATTERN = re.compile(r"^\..*\.tmp-")

#: The snapshot generations and logs of an old-layout session directory.
_OLD_LAYOUT_PATTERN = re.compile(r"^(?:gen-\d{8}|wal-\d{8}\.log)$")


class UnknownSessionError(ConfigurationError):
    """The requested session is not in the store.

    A distinct subclass so the serving layer can map "unknown name" to
    its own error message while letting genuine corruption reports
    (also ``ConfigurationError``) surface unchanged.
    """


class StoreCorruptionError(ConfigurationError):
    """The stored bytes for a session are unreadable.

    Distinct from :class:`UnknownSessionError` (the session exists but
    cannot be rebuilt) and from plain configuration mistakes: the HTTP
    layer maps it to a server-side 500 where unknown names are a 404 and
    bad requests a 400.
    """


def _fsync(path: Union[str, Path]) -> None:
    """Flush a file, or a directory's entries, to disk."""
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def check_session_name(name: str) -> str:
    """Validate a session name (shared by every store and the service).

    Names must start with an alphanumeric and use only alphanumerics,
    dots, underscores and dashes (max 128 chars) — safe as dictionary
    keys, file names and CLI arguments alike.
    """
    if not isinstance(name, str) or not _NAME_PATTERN.match(name):
        raise ValidationError(
            f"invalid session name {name!r}: use alphanumerics, '.', '_' or "
            "'-', starting with an alphanumeric (max 128 characters)"
        )
    return name


class SessionStore:
    """Interface of a session store (see module docstring).

    Subclasses implement :meth:`append`, :meth:`save`, :meth:`recovery`,
    :meth:`log_size`, :meth:`delete`, :meth:`names`, ``len()`` and
    ``in``, which must not list every name (``create_session`` probes it
    each time); :meth:`load` is shared.
    """

    def append(self, name: str, frame: bytes) -> int:
        """Append a record's frame to ``name``'s log, starting the log if there is none.

        Returns :meth:`log_size` after the append.
        """
        raise NotImplementedError

    def save(self, name: str, snapshot: SessionSnapshot) -> None:
        """Compact: replace ``name``'s log with one headed by ``snapshot`` alone."""
        raise NotImplementedError

    def recovery(self, name: str) -> Tuple[Optional[SessionSnapshot], List[LogRecord]]:
        """Everything needed to rebuild ``name``: the head snapshot and the records.

        The snapshot is ``None`` for a log never compacted, whose records
        then start with its create record.  Raises
        :class:`UnknownSessionError` (listing available names) when the
        session is unknown.
        """
        raise NotImplementedError

    def log_size(self, name: str) -> int:
        """The log's bytes beyond its head snapshot, as framed on disk (0 for no log)."""
        raise NotImplementedError

    def load(self, name: str) -> SessionSnapshot:
        """Return an independent copy of the head snapshot of ``name``'s log.

        Records after the head are *not* folded in: use :meth:`recovery`
        (or an :class:`~repro.streaming.serving.EstimationService`) to
        rebuild the live state of a session with a non-empty log.
        """
        snapshot, records = self.recovery(name)
        if snapshot is None:
            raise ConfigurationError(
                f"session {name!r} has no base snapshot yet ({len(records)} "
                "log record(s) only); open it through an EstimationService "
                "or compact it first"
            )
        return snapshot

    def delete(self, name: str) -> None:
        """Remove ``name``'s log (missing is an error)."""
        raise NotImplementedError

    def names(self) -> List[str]:
        """Stored session names, sorted."""
        raise NotImplementedError

    def _unknown(self, name: str) -> UnknownSessionError:
        names = self.names()
        if len(names) > 10:
            # A 100k-session store should not render 100k names into one
            # error message.
            listed = f"{names[:10]} … ({len(names)} total)"
        else:
            listed = f"{names}"
        return UnknownSessionError(
            f"no stored session named {name!r}; available: {listed}"
        )


@dataclass
class _MemoryLog:
    """One session's log in memory: its head snapshot, frames and tail size."""

    head: Optional[SessionSnapshot] = None
    frames: List[bytes] = field(default_factory=list)
    tail_bytes: int = 0


class MemorySessionStore(SessionStore):
    """In-process log store (the default serving backend).

    It keeps each record's frame, the bytes a :class:`DirectorySessionStore`
    writes, so :meth:`append` and :meth:`log_size` return what that store
    returns for the same frames, and :meth:`recovery` decodes them as it
    does.  Like that store it takes one writer per session at a time,
    which the service's per-session lock provides.
    """

    def __init__(self) -> None:
        self._logs: Dict[str, _MemoryLog] = {}

    def append(self, name: str, frame: bytes) -> int:
        """Keep ``frame`` at the end of the session's log; returns the tail size."""
        log = self._logs.setdefault(check_session_name(name), _MemoryLog())
        log.frames.append(frame)
        log.tail_bytes += len(frame)
        return log.tail_bytes

    def save(self, name: str, snapshot: SessionSnapshot) -> None:
        """Compact: a copy of ``snapshot`` becomes the head and the records go."""
        self._logs[check_session_name(name)] = _MemoryLog(snapshot.copy())

    def recovery(self, name: str) -> Tuple[Optional[SessionSnapshot], List[LogRecord]]:
        """A copy of the head snapshot (``None`` before any compaction) and the records."""
        log = self._logs.get(check_session_name(name))
        if log is None:
            raise self._unknown(name)
        records = [decode_payload(frame[_FRAME.size :]) for frame in log.frames]
        return (None if log.head is None else log.head.copy()), records

    def log_size(self, name: str) -> int:
        """Bytes of the records after the head snapshot (0 for a missing log)."""
        log = self._logs.get(check_session_name(name))
        return 0 if log is None else log.tail_bytes

    def delete(self, name: str) -> None:
        """Drop the session's log."""
        if self._logs.pop(check_session_name(name), None) is None:
            raise self._unknown(name)

    def names(self) -> List[str]:
        """Stored session names, sorted."""
        return sorted(self._logs)

    def __contains__(self, name: str) -> bool:
        return name in self._logs

    def __len__(self) -> int:
        return len(self._logs)


class DirectorySessionStore(SessionStore):
    """On-disk log-structured store: one log file per session name.

    Parameters
    ----------
    root:
        Directory holding the ``<name>.log`` files; created on first
        write.  Stale staging leftovers from crashed writers are swept
        when the store opens, and a root that still holds a session
        directory of the old layout is refused with ``ConfigurationError``.
    sync:
        Fsync the log after every append, a compaction's staged file
        before its rename, and the root after that rename and after an
        append that created a log.
    exclusive:
        Claim sole ownership of the root with an advisory ``flock`` on
        ``<root>/.lock``.  A second exclusive open of the same root —
        from any process — raises ``ConfigurationError`` instead of
        silently interleaving two writers' WAL appends.  The lock is a
        kernel lease on the open file descriptor, so it vanishes with
        the process (including ``kill -9``), which is exactly what the
        process-per-shard serving layer needs: a restarted worker can
        always reclaim its shard.  Released by :meth:`close` (or
        process exit).
    """

    #: Name of the advisory ownership lockfile inside the root.
    LOCK_FILENAME = ".lock"

    def __init__(
        self,
        root: Union[str, Path],
        *,
        sync: bool = False,
        exclusive: bool = False,
    ) -> None:
        self.root = Path(root)
        self._root = os.fspath(self.root)
        self.sync = bool(sync)
        self._lock_descriptor: Optional[int] = None
        #: Sessions whose log a failed append left torn (see :meth:`append`).
        self._torn: Set[str] = set()
        if exclusive:
            self._acquire_exclusive()
        try:
            self._open_root()
        except ConfigurationError:
            self.close()
            raise

    def _acquire_exclusive(self) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX
            raise ConfigurationError(
                "exclusive store ownership requires fcntl.flock, which this "
                "platform does not provide"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        descriptor = os.open(
            self.root / self.LOCK_FILENAME, os.O_RDWR | os.O_CREAT, 0o644
        )
        try:
            fcntl.flock(descriptor, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(descriptor)
            raise ConfigurationError(
                f"store root {self.root} is exclusively owned by another "
                "process (stale owners release the lock automatically when "
                "they die)"
            ) from None
        self._lock_descriptor = descriptor

    @property
    def exclusive(self) -> bool:
        """Whether this store currently holds the root's ownership lock."""
        return self._lock_descriptor is not None

    def close(self) -> None:
        """Release the exclusive ownership lock, if held.  Idempotent."""
        if self._lock_descriptor is not None:
            os.close(self._lock_descriptor)
            self._lock_descriptor = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _path(self, name: str) -> str:
        return os.path.join(self._root, f"{check_session_name(name)}.log")

    def _open_root(self) -> None:
        """Refuse an old-layout root, then sweep interrupted compactions' staging files."""
        try:
            entries = sorted(os.scandir(self.root), key=lambda entry: entry.name)
        except FileNotFoundError:
            return
        for entry in entries:
            if (
                entry.is_dir()
                and _NAME_PATTERN.match(entry.name)
                and any(map(_OLD_LAYOUT_PATTERN.match, os.listdir(entry.path)))
            ):
                raise ConfigurationError(
                    f"{entry.path} is a session directory of the old store "
                    "layout, which this store does not read: export its "
                    "sessions with the release that wrote them and restore "
                    "them into a new root"
                )
        for entry in entries:
            if _STALE_PATTERN.match(entry.name) and entry.is_file():
                Path(entry.path).unlink(missing_ok=True)

    def save(self, name: str, snapshot: SessionSnapshot) -> None:
        """Compact: replace the session's log with one holding only ``snapshot``.

        The new log is staged in a sibling and renamed over the old one, so
        a kill at any point leaves the old log or the new one, never a mix.
        Under ``sync=True`` the staged file is fsynced before the rename
        and the root after it.
        """
        path = self._path(name)
        self.root.mkdir(parents=True, exist_ok=True)
        descriptor, staging = tempfile.mkstemp(
            prefix=f".{os.path.basename(path)}.tmp-", dir=self.root
        )
        try:
            with open(descriptor, "wb") as handle:
                write_snapshot_record(handle, snapshot)
                if self.sync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(staging, path)
        except BaseException:
            Path(staging).unlink(missing_ok=True)
            raise
        self._torn.discard(name)
        if self.sync:
            _fsync(self.root)

    def delete(self, name: str) -> None:
        """Remove the session's log."""
        try:
            os.unlink(self._path(name))
        except FileNotFoundError:
            raise self._unknown(name) from None
        self._torn.discard(name)

    def names(self) -> List[str]:
        """Stored session names, sorted (other files ignored)."""
        try:
            entries = os.listdir(self.root)
        except FileNotFoundError:
            return []
        stems = (entry[:-4] for entry in entries if entry.endswith(".log"))
        return sorted(filter(_NAME_PATTERN.match, stems))

    def __contains__(self, name: str) -> bool:
        """One ``stat``: ``create_session`` probes membership every time."""
        try:
            return os.path.exists(self._path(name))
        except ValidationError:
            return False

    def __len__(self) -> int:
        return len(self.names())

    def append(self, name: str, frame: bytes) -> int:
        """Append one record's frame to the session's log — O(frame).

        Returns :meth:`log_size` after the write.  One ``stat`` (does the
        log exist?) and one ``open``, through the log's ``str`` path;
        nothing is kept between calls, so a log another store object on
        the same root replaced is the one the next append extends.  Under
        ``sync=True`` an append that creates the log also fsyncs the root.

        A failed append leaves the log as it was (see
        :func:`~repro.streaming.wal.append_frame`), and one that was
        creating the log removes it.  If the log keeps a partial frame,
        every later append raises ``StoreCorruptionError`` until the store
        is reopened, or a compaction or delete replaces the log.
        """
        if name in self._torn:
            raise StoreCorruptionError(
                f"session {name!r} refuses appends: a failed append left a "
                "partial frame in its log; reopen the store to repair it"
            )
        path = self._path(name)
        exists = os.path.exists(path)
        if not exists:
            os.makedirs(self._root, exist_ok=True)
        try:
            size, snapshot_bytes = append_frame(path, frame, self.sync)
            if self.sync and not exists:
                _fsync(self._root)
        except TornAppendError:
            self._torn.add(name)
            raise
        except OSError:
            if not exists:
                # Nothing of a rejected record may be replayed, and the
                # next append must create the log, and sync it, again.
                with suppress(FileNotFoundError):
                    os.unlink(path)
            raise
        return size - snapshot_bytes

    def recovery(self, name: str) -> Tuple[Optional[SessionSnapshot], List[LogRecord]]:
        """The log's base snapshot (``None`` before any compaction) and records.

        A torn tail (crash mid-append) is ignored and truncated away; a
        log whose head record does not verify raises
        ``StoreCorruptionError`` and is left byte for byte as it is.
        """
        path = self._path(name)
        log = SessionLog(path)
        records, _, torn = log.scan()
        if not records:
            if not os.path.exists(path):
                raise self._unknown(name)
            raise StoreCorruptionError(
                f"stored session {name!r} is corrupt: the head record of "
                f"{path} does not verify (the file is left as it is)"
            )
        if torn:
            log.repair()
        if isinstance(records[0], SessionSnapshot):
            return records[0], records[1:]
        return None, records

    def log_size(self, name: str) -> int:
        """Log bytes beyond the base snapshot (0 for a missing log)."""
        return SessionLog(self._path(name)).tail_bytes()
