"""Durable session storage behind the serving layer.

A :class:`SessionStore` keeps :class:`~repro.streaming.session.SessionSnapshot`
values by session name.  The serving façade
(:class:`~repro.streaming.serving.EstimationService`) uses one to park
evicted sessions and to survive restarts; the CLI uses a
:class:`DirectorySessionStore` so `repro session` invocations compose into
one long-lived session across processes.

Two backends cover the operational spectrum:

* :class:`MemorySessionStore` — a process-local dict; zero I/O, the
  default for tests and single-process serving.  It is the degenerate
  no-WAL case: ``supports_wal`` is False and recovery is just a load.
* :class:`DirectorySessionStore` — a **log-structured** store, one
  directory per session under a root path.  Each session directory
  holds at most one snapshot *generation* (``gen-<n>/manifest.json`` +
  ``arrays.npz``) plus the write-ahead log paired with it
  (``wal-<n>.log``, see :mod:`repro.streaming.wal`).  ``append`` is the
  hot path — O(batch) per durable ingest; ``save`` is **compaction** —
  it writes a fresh snapshot as generation ``n+1``, starts an empty
  ``wal-<n+1>.log`` and removes the old generation.  Recovery reads the
  newest *valid* generation and replays its paired log, so a kill at
  any point of a compaction leaves a recoverable store: either the old
  generation+log pair is still intact, or the new snapshot is already
  in place (a new generation is only visible after an atomic rename).

Both backends return independent snapshot copies: mutating a loaded
snapshot (or the session restored from it) never corrupts the stored
bytes.
"""

from __future__ import annotations

import os
import re
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

try:  # pragma: no cover - always present on the POSIX targets we support
    import fcntl
except ImportError:  # pragma: no cover - Windows fallback: no advisory locks
    fcntl = None

from repro.common.exceptions import ConfigurationError, ValidationError
from repro.streaming.session import (
    ARRAYS_FILENAME,
    MANIFEST_FILENAME,
    SessionSnapshot,
    read_snapshot,
    write_snapshot,
)
from repro.streaming.wal import SessionLog, TornAppendError, WalRecord

#: Session names double as directory names, so keep them filesystem-safe.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")

#: Snapshot generations and their paired logs inside a session directory.
_GENERATION_PATTERN = re.compile(r"^gen-(\d{8})$")
_WAL_PATTERN = re.compile(r"^wal-(\d{8})\.log$")

#: Staging leftovers a crashed writer can orphan (swept on store open).
_STALE_PATTERN = re.compile(r"^\..*\.(?:tmp|staging)-")


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


def check_session_name(name: str) -> str:
    """Validate a session name (shared by every store and the service).

    Names must start with an alphanumeric and use only alphanumerics,
    dots, underscores and dashes (max 128 chars) — safe as dictionary
    keys, directory names and CLI arguments alike.
    """
    if not isinstance(name, str) or not _NAME_PATTERN.match(name):
        raise ValidationError(
            f"invalid session name {name!r}: use alphanumerics, '.', '_' or "
            "'-', starting with an alphanumeric (max 128 characters)"
        )
    return name


class SessionStore:
    """Interface of a snapshot store (see module docstring).

    Subclasses implement :meth:`save`, :meth:`load`, :meth:`delete` and
    :meth:`names`; the convenience dunders are shared.  Log-structured
    backends additionally set :attr:`supports_wal` and implement
    :meth:`append` / :meth:`recovery` / :meth:`log_size`; the defaults
    here make every plain snapshot store the degenerate no-WAL case.
    """

    #: Whether :meth:`append` lands records in a durable write-ahead log.
    supports_wal = False

    def save(self, name: str, snapshot: SessionSnapshot) -> None:
        """Persist ``snapshot`` under ``name`` (overwriting any previous).

        On a log-structured store this is **compaction**: the snapshot
        becomes the new base generation and the session's log restarts
        empty.
        """
        raise NotImplementedError

    def load(self, name: str) -> SessionSnapshot:
        """Return an independent copy of the snapshot stored under ``name``.

        Raises ``ConfigurationError`` (listing available names) when the
        session is unknown.
        """
        raise NotImplementedError

    def delete(self, name: str) -> None:
        """Remove the snapshot stored under ``name`` (missing is an error)."""
        raise NotImplementedError

    def names(self) -> List[str]:
        """Stored session names, sorted."""
        raise NotImplementedError

    def append(self, name: str, record: WalRecord) -> None:
        """Append one durable log record for ``name`` (O(record)).

        Only meaningful when :attr:`supports_wal` is True.
        """
        raise ConfigurationError(
            f"{type(self).__name__} has no write-ahead log; use a "
            "log-structured store (DirectorySessionStore) or snapshot "
            "explicitly"
        )

    def recovery(self, name: str) -> Tuple[Optional[SessionSnapshot], List[WalRecord]]:
        """Everything needed to rebuild ``name``: base snapshot + log tail.

        The default (no-WAL) implementation returns ``(load(name), [])``.
        Log-structured stores may return ``(None, records)`` for a
        session whose whole history still lives in its log.
        """
        return self.load(name), []

    def log_size(self, name: str) -> int:
        """Bytes in the session's active log (0 on snapshot-only stores)."""
        return 0

    def __contains__(self, name: str) -> bool:
        return name in self.names()

    def __len__(self) -> int:
        return len(self.names())

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


class MemorySessionStore(SessionStore):
    """In-process snapshot store (the default serving backend)."""

    def __init__(self) -> None:
        self._snapshots: Dict[str, SessionSnapshot] = {}

    def save(self, name: str, snapshot: SessionSnapshot) -> None:
        """Store a defensive copy of ``snapshot`` under ``name``."""
        self._snapshots[check_session_name(name)] = snapshot.copy()

    def load(self, name: str) -> SessionSnapshot:
        """Return a fresh copy of the stored snapshot."""
        check_session_name(name)
        try:
            return self._snapshots[name].copy()
        except KeyError:
            raise self._unknown(name) from None

    def delete(self, name: str) -> None:
        """Drop the stored snapshot."""
        check_session_name(name)
        if self._snapshots.pop(name, None) is None:
            raise self._unknown(name)

    def names(self) -> List[str]:
        """Stored session names, sorted."""
        return sorted(self._snapshots)


class DirectorySessionStore(SessionStore):
    """On-disk log-structured store: one directory per session name.

    Parameters
    ----------
    root:
        Directory holding the per-session directories; created on first
        write.  Stale staging leftovers from crashed writers are swept
        when the store opens.
    sync:
        Fsync the log after every append (see
        :class:`~repro.streaming.wal.SessionLog`).
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

    supports_wal = True

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
        self.sync = bool(sync)
        self._lock_descriptor: Optional[int] = None
        #: Sessions whose log a failed append left torn (see :meth:`append`).
        self._torn: Set[str] = set()
        if exclusive:
            self._acquire_exclusive()
        self._sweep_stale_files()

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

    # ------------------------------------------------------------------ #
    # layout helpers
    # ------------------------------------------------------------------ #
    def _path(self, name: str) -> Path:
        return self.root / check_session_name(name)

    @staticmethod
    def _generation_dir(session_dir: Path, generation: int) -> Path:
        return session_dir / f"gen-{generation:08d}"

    @staticmethod
    def _wal_path(session_dir: Path, generation: int) -> Path:
        return session_dir / f"wal-{generation:08d}.log"

    @staticmethod
    def _snapshot_complete(directory: Path) -> bool:
        return (directory / MANIFEST_FILENAME).exists() and (
            directory / ARRAYS_FILENAME
        ).exists()

    def _generations(self, session_dir: Path) -> List[int]:
        """Complete snapshot generations, ascending (legacy layout = 0)."""
        if not session_dir.is_dir():
            return []
        found = []
        if self._snapshot_complete(session_dir):
            # Pre-WAL layout: the snapshot lives directly in the session
            # directory.  It reads as generation 0 and is upgraded (and
            # removed) by the next compaction.
            found.append(0)
        for entry in session_dir.iterdir():
            match = _GENERATION_PATTERN.match(entry.name)
            if match and self._snapshot_complete(entry):
                found.append(int(match.group(1)))
        return sorted(found)

    def _wal_numbers(self, session_dir: Path) -> List[int]:
        if not session_dir.is_dir():
            return []
        return sorted(
            int(match.group(1))
            for entry in session_dir.iterdir()
            if (match := _WAL_PATTERN.match(entry.name))
        )

    def _active_generation(self, session_dir: Path) -> int:
        """The generation new appends and reads belong to.

        The newest generation wins whether it is a snapshot or a log
        (legacy pre-WAL snapshots read as generation 0, so their paired
        log is ``wal-00000000.log``); a fresh log-only session starts at
        generation 1.
        """
        numbers = self._generations(session_dir) + self._wal_numbers(session_dir)
        return max(numbers) if numbers else 1

    def _sweep_stale_files(self) -> None:
        """Remove staging leftovers a crashed writer orphaned.

        A save stages its snapshot in a dot-prefixed ``*.tmp-…`` sibling
        and renames it into place; a crash between the two leaves the
        staging directory behind.  Swept here (store open) because no
        writer can hold a stale staging path across processes.
        """
        if not self.root.is_dir():
            return
        candidates = [self.root]
        candidates.extend(
            entry
            for entry in self.root.iterdir()
            if entry.is_dir() and _NAME_PATTERN.match(entry.name)
        )
        for directory in candidates:
            for entry in directory.iterdir():
                if _STALE_PATTERN.match(entry.name):
                    if entry.is_dir():
                        shutil.rmtree(entry, ignore_errors=True)
                    else:
                        entry.unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # snapshot interface (save = compaction)
    # ------------------------------------------------------------------ #
    def save(self, name: str, snapshot: SessionSnapshot) -> None:
        """Compact: write a fresh generation and restart the log empty.

        The snapshot is staged in a temporary sibling and renamed into
        place, so a kill at any point leaves either the old
        generation+log pair intact or the new generation already
        visible — never a torn snapshot.  Only after the new generation
        is durable are the previous generation, its log, and any legacy
        layout files removed.
        """
        session_dir = self._path(name)
        session_dir.mkdir(parents=True, exist_ok=True)
        old_generations = self._generations(session_dir)
        old_wals = self._wal_numbers(session_dir)
        new_generation = max(old_generations + old_wals, default=0) + 1
        staging = Path(
            tempfile.mkdtemp(
                prefix=f".gen-{new_generation:08d}.tmp-", dir=session_dir
            )
        )
        try:
            write_snapshot(snapshot, staging)
            staging.rename(self._generation_dir(session_dir, new_generation))
        except Exception:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        # The new generation is durable; start its (empty) log and only
        # then clear out the superseded generation(s).
        self._wal_path(session_dir, new_generation).touch()
        self._torn.discard(name)
        for number in old_wals:
            self._wal_path(session_dir, number).unlink(missing_ok=True)
        for generation in old_generations:
            if generation == 0:
                (session_dir / MANIFEST_FILENAME).unlink(missing_ok=True)
                (session_dir / ARRAYS_FILENAME).unlink(missing_ok=True)
            else:
                shutil.rmtree(
                    self._generation_dir(session_dir, generation),
                    ignore_errors=True,
                )

    def load(self, name: str) -> SessionSnapshot:
        """Read the stored base snapshot (the newest valid generation).

        Pending log records are *not* folded in — use :meth:`recovery`
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
        """Remove the session's directory (snapshot and log)."""
        path = self._path(name)
        if not path.is_dir():
            raise self._unknown(name)
        shutil.rmtree(path)
        self._torn.discard(name)

    def names(self) -> List[str]:
        """Stored session names, sorted (non-session directories ignored)."""
        if not self.root.is_dir():
            return []
        found = []
        for entry in self.root.iterdir():
            if not entry.is_dir() or not _NAME_PATTERN.match(entry.name):
                continue
            if self._generations(entry) or self._wal_numbers(entry):
                found.append(entry.name)
        return sorted(found)

    def __contains__(self, name: str) -> bool:
        """O(one session directory) — ``names()`` would scan the store.

        The serving layer probes membership on every ``create_session``,
        so this must not degrade to O(sessions) as the store grows.
        """
        try:
            session_dir = self._path(name)
        except ValidationError:
            return False
        return bool(self._generations(session_dir) or self._wal_numbers(session_dir))

    # ------------------------------------------------------------------ #
    # write-ahead log interface
    # ------------------------------------------------------------------ #
    def append(self, name: str, record: WalRecord) -> None:
        """Append one record to the session's active log — O(record).

        A failed append leaves the log as it was (see
        :meth:`SessionLog.append`).  When it cannot, the log ends in a
        partial frame, and every later append to it raises
        ``StoreCorruptionError`` until the store is reopened, or a
        compaction or delete replaces the log.
        """
        if name in self._torn:
            raise StoreCorruptionError(
                f"session {name!r} refuses appends: a failed append left a "
                "partial frame in its log; reopen the store to repair it"
            )
        session_dir = self._path(name)
        session_dir.mkdir(parents=True, exist_ok=True)
        generation = self._active_generation(session_dir)
        try:
            SessionLog(self._wal_path(session_dir, generation), sync=self.sync).append(
                record
            )
        except TornAppendError:
            self._torn.add(name)
            raise

    def recovery(self, name: str) -> Tuple[Optional[SessionSnapshot], List[WalRecord]]:
        """The newest valid generation's snapshot plus its replayable log.

        A torn final log record (crash mid-append) is detected by its
        checksum, ignored, and truncated away so later appends extend a
        valid prefix.  A generation whose snapshot turns out unreadable
        falls back to the next older valid generation; only when no
        generation and no log survives is the session reported corrupt.
        """
        session_dir = self._path(name)
        generations = self._generations(session_dir)
        wal_numbers = self._wal_numbers(session_dir)
        if not generations and not wal_numbers:
            raise self._unknown(name)
        failure: Optional[Exception] = None
        for generation in reversed(generations):
            directory = (
                session_dir
                if generation == 0
                else self._generation_dir(session_dir, generation)
            )
            try:
                snapshot = read_snapshot(directory)
            except Exception as error:  # corrupt bytes — try the older one
                failure = error
                continue
            return snapshot, self._log_records(session_dir, generation)
        if generations:
            raise StoreCorruptionError(
                f"stored session {name!r} is corrupt: no readable snapshot "
                f"generation ({failure!r})"
            )
        # Log-only session: its whole history is the newest log.
        return None, self._log_records(session_dir, wal_numbers[-1])

    def _log_records(self, session_dir: Path, generation: int) -> List[WalRecord]:
        log = SessionLog(self._wal_path(session_dir, generation), sync=self.sync)
        records, _, torn = log.scan()
        if torn:
            log.repair()
        return records

    def log_size(self, name: str) -> int:
        """Size of the session's active log in bytes."""
        session_dir = self._path(name)
        if not session_dir.is_dir():
            return 0
        return SessionLog(
            self._wal_path(session_dir, self._active_generation(session_dir))
        ).size_bytes()
