"""Multi-tenant serving façade over streaming estimation sessions.

The paper's use case is operational: a data-cleaning pipeline
continuously asks "how many undetected errors remain?" while crowd votes
trickle in.  :class:`~repro.streaming.StreamingSession` answers that for
one in-process session; :class:`EstimationService` hosts **many named
sessions** behind one façade, with what a long-running deployment needs:
idempotent ingestion (a batch whose ``(source, sequence)`` does not
advance its source's high-water mark is a no-op), estimates cached on
the session state's mutation version, durability through a pluggable
:class:`~repro.streaming.store.SessionStore` (every applied batch is
logged before it mutates the session, and recovery is last snapshot +
log replay), LRU eviction under ``max_active``, and one table entry,
with its own lock, per session name.
``docs/serving.md`` and ``docs/persistence.md`` tour each of these.

Every op of the façade is declared once, in :data:`SERVING_OPS`: its
method, whether it routes by session name or fans out to every shard,
and, for an op on the HTTP API, its wire codecs and route.  The HTTP
API and its client are driven from that table, a shard worker frame may
call only the ops it names, and one :class:`ShardRouter` routes it
across shards.  For deployments whose
throughput outgrows one service, :class:`ShardedEstimationService`
partitions sessions across N single-process shards by session-key hash
behind the same façade — ``N=1`` is exactly one :class:`EstimationService`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.common.exceptions import ConfigurationError, ValidationError
from repro.common.validation import check_int
from repro.core.base import EstimateResult, EstimatorProtocol
from repro.streaming.session import (
    SessionSnapshot,
    StreamingSession,
    _malformed_field,
    check_worker_ids,
)
from repro.streaming.store import (
    DirectorySessionStore,
    MemorySessionStore,
    SessionStore,
    UnknownSessionError,
    check_session_name,
)
from repro.streaming.wal import (
    BatchRecord,
    CreateRecord,
    check_batch_record,
    encode_batch,
    encode_record,
)

#: Compact a session once its write-ahead log grows past this size.
DEFAULT_COMPACT_BYTES = 1 << 20

#: The serving counters every front reports (:meth:`EstimationService.stats`).
_COUNTERS = (
    "estimates_served",
    "estimate_cache_hits",
    "sessions_restored",
    "sessions_evicted",
)


class ShardUnavailableError(ConfigurationError):
    """A shard's backing worker cannot serve requests right now.

    Raised by process-sharded deployments when the worker process owning
    a session's shard has died mid-request, exceeded its per-request
    timeout, or exhausted its restart budget.  The session's durable
    state (snapshot + write-ahead log) is intact — retrying after the
    worker recovers, with the same idempotency ``(source, sequence)``
    pair, is always safe.  Maps to HTTP 500 with kind
    ``"shard_unavailable"``.
    """


def is_duplicate(
    sources: Mapping[str, int], source: Optional[str], sequence: Optional[int]
) -> bool:
    """The one idempotency rule: does this batch fail to advance its source?

    ``sources`` maps each source to the highest sequence applied from it
    (its high-water mark).  A batch with a ``source`` is a duplicate when
    its ``sequence`` is not above that mark; a batch without one never
    is.  Live ingest, WAL recovery and the trace codec all apply it.
    """
    if source is None:
        return False
    last = sources.get(source)
    return last is not None and sequence <= last


def replay_batch_record(
    session: StreamingSession, sources: Dict[str, int], record: BatchRecord
) -> bool:
    """Apply one logged batch to ``session``; returns False for duplicates.

    The replay twin of :meth:`EstimationService.ingest`: the same
    :func:`is_duplicate` rule guards it, so a re-appended duplicate batch
    record is a no-op on recovery exactly as its delivery was live.
    """
    if is_duplicate(sources, record.source, record.sequence):
        return False
    session.add_columns(record.column_mappings(), record.worker_ids)
    if record.source is not None:
        sources[record.source] = record.sequence
    return True


def _check_worker_ids(
    columns: Sequence[object], worker_ids: Optional[Sequence[object]]
) -> None:
    """Reject a ``worker_ids`` list that is not aligned with ``columns``."""
    if worker_ids is not None and len(worker_ids) != len(columns):
        raise ValidationError(
            f"worker_ids length {len(worker_ids)} does not match "
            f"{len(columns)} column(s)"
        )


@dataclass(frozen=True)
class EstimateReport:
    """One :meth:`EstimationService.estimate_report` read, with its version.

    Attributes
    ----------
    session:
        The session the read addressed.
    version:
        The state's mutation version at read time — ``(num_columns,
        total_votes)``.  Two reads with equal versions saw the identical
        state, which is what lets a wire client assert "that retried
        batch really was a no-op" without comparing every estimate.
        Compaction, eviction and recovery keep it; only a ``restore``
        replaces it, with the restored state's.
    results:
        ``{estimator name: EstimateResult}``, exactly what
        :meth:`EstimationService.estimates` returns (and served from the
        same version-keyed cache).
    """

    session: str
    version: Tuple[int, int]
    results: Dict[str, EstimateResult]


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one :meth:`EstimationService.ingest` call.

    Attributes
    ----------
    session:
        The session the batch addressed.
    applied:
        Number of columns actually ingested (0 for a duplicate batch).
    duplicate:
        True when the batch was dropped because its ``(source, sequence)``
        did not advance the source's high-water mark.
    num_columns / total_votes:
        Session totals *after* the call — what a client needs to decide
        whether to poll ``estimates``.
    """

    session: str
    applied: int
    duplicate: bool
    num_columns: int
    total_votes: int


class _ActiveSession:
    """One session name's table entry: its live session and serving bookkeeping.

    Created empty (``session is None``) under the table lock, then loaded
    (from the store, a create or a restored snapshot) under its own
    ``lock`` by whichever caller holds that lock first.  ``retired`` is
    set, under both locks, as the entry leaves the table.
    """

    __slots__ = (
        "session", "item_ids", "lock", "sources", "cache_version", "cache", "retired"
    )

    def __init__(self) -> None:
        self.session: Optional[StreamingSession] = None
        #: the session's item ids by row, as the create record logs them.
        self.item_ids: List[int] = []
        self.lock = threading.RLock()
        #: per-source ingestion high-water marks (idempotency state).
        self.sources: Dict[str, int] = {}
        self.cache_version: Optional[tuple] = None
        self.cache: Optional[Dict[str, EstimateResult]] = None
        self.retired = False


class EstimationService:
    """Host many named :class:`StreamingSession`s behind one façade.

    Parameters
    ----------
    store:
        The session store holding each session's log
        (:class:`~repro.streaming.store.MemorySessionStore` by default;
        pass a :class:`~repro.streaming.store.DirectorySessionStore` to
        survive restarts).
    max_active:
        Maximum number of live in-memory sessions; beyond it the
        least-recently-used session is dropped from memory, to be
        recovered from its log on the next touch.  ``None`` (default)
        keeps every session live.
    compact_after_bytes:
        Fold the log into a fresh snapshot once it grows past this many
        bytes (checked after each applied batch).  ``None`` disables
        automatic compaction; :meth:`compact` always remains available.

    Creation and every applied ingest batch reach the store's log before
    the call returns, in O(batch), so the store is never behind a live
    session: eviction is an in-memory drop, and a new service over the
    same store recovers every session.

    Estimate reads are cached against the session state's version,
    ``(num_columns, total_votes)``.  Every applied batch advances it,
    and both parts are saved state, so a session read again after
    compaction, eviction or a restart reports the version it was last
    read at.

    Thread safety: each session name has at most one entry in the
    service's table, and every op on the name, eviction included, runs
    under that entry's lock.  The table lock only finds the entry, so no
    store I/O ever holds it; a caller holding both took the entry's lock
    first.  Whichever caller locks an empty entry first loads it from
    the store, so a session is recovered once, by one caller, and no
    batch can land between its recovery and its use.

    Examples
    --------
    >>> service = EstimationService()
    >>> _ = service.create_session("tenant-a", item_ids=[0, 1, 2], estimators=["voting"])
    >>> service.ingest("tenant-a", [{0: 1, 1: 0}], source="loader", sequence=1).applied
    1
    >>> service.ingest("tenant-a", [{0: 1, 1: 0}], source="loader", sequence=1).duplicate
    True
    >>> sorted(service.estimates("tenant-a"))
    ['voting']
    """

    def __init__(
        self,
        store: Optional[SessionStore] = None,
        *,
        max_active: Optional[int] = None,
        compact_after_bytes: Optional[int] = DEFAULT_COMPACT_BYTES,
    ) -> None:
        self._store = store if store is not None else MemorySessionStore()
        if max_active is not None:
            max_active = check_int(max_active, "max_active", minimum=1)
        self._max_active = max_active
        if compact_after_bytes is not None:
            compact_after_bytes = check_int(
                compact_after_bytes, "compact_after_bytes", minimum=1
            )
        self._compact_after_bytes = compact_after_bytes
        self._active: "OrderedDict[str, _ActiveSession]" = OrderedDict()
        self._lock = threading.Lock()
        #: entries holding a session; changes with them, under ``_lock``.
        self._live = 0
        #: serving counters (observability + the caching tests/benchmark);
        #: guarded by their own lock so concurrent handlers don't lose
        #: increments.
        self._counter_lock = threading.Lock()
        self.estimates_served = 0
        self.estimate_cache_hits = 0
        self.sessions_restored = 0
        self.sessions_evicted = 0

    def _count(self, counter: str, delta: int = 1) -> None:
        with self._counter_lock:
            setattr(self, counter, getattr(self, counter) + delta)

    def stats(self) -> Dict[str, int]:
        """The serving counters, read together under their lock."""
        with self._counter_lock:
            return {counter: getattr(self, counter) for counter in _COUNTERS}

    # ------------------------------------------------------------------ #
    # session lifecycle
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> SessionStore:
        """The session store holding every session's log."""
        return self._store

    def create_session(
        self,
        name: str,
        item_ids: Sequence[int],
        estimators: Optional[Sequence[Union[str, EstimatorProtocol]]] = None,
        *,
        keep_votes: bool = True,
    ) -> str:
        """Create and activate a new named session; returns the name.

        Raises ``ConfigurationError`` when the name is already in use —
        live or stored — since silently rebinding a tenant's name would
        orphan its history.

        The creation is in the store before the call returns — as one
        O(1) create record, not a snapshot — and the session goes live
        under the name's lock, so no batch is logged ahead of it.
        """
        with self._handle(name, load=False) as handle:
            session = StreamingSession(item_ids, estimators, keep_votes=keep_votes)
            if handle.session is not None or name in self._store:
                raise ConfigurationError(
                    f"session {name!r} already exists; drop it first or pick "
                    "another name"
                )
            record = CreateRecord(
                item_ids=tuple(int(item) for item in session.state.item_ids),
                estimators=tuple(est.name for est in session.estimators),
                keep_votes=keep_votes,
            )
            self._store.append(name, encode_record(record))
            self._load(handle, session, {})
        self._enforce_limit(keep=name)
        return name

    def sessions(self) -> List[str]:
        """Every known session name — live and stored — sorted."""
        names = set(self.active_sessions())
        names.update(self._store.names())
        return sorted(names)

    def active_sessions(self) -> List[str]:
        """Names of the sessions currently live in memory (LRU order)."""
        with self._lock:
            return [
                name
                for name, handle in self._active.items()
                if handle.session is not None
            ]

    def drop(self, name: str) -> None:
        """Forget a session everywhere: live table and store.

        Runs under the name's lock, so an op already inside the session
        lands first and one that waited for the drop finds no session.
        """
        with self._handle(name, load=False) as handle:
            if name in self._store:
                self._store.delete(name)
            elif handle.session is None:
                raise UnknownSessionError(
                    f"unknown session {name!r}; available: {self.sessions()}"
                )
            self._load(handle, None, {})

    # ------------------------------------------------------------------ #
    # ingestion and estimation
    # ------------------------------------------------------------------ #
    def ingest(
        self,
        name: str,
        columns: Sequence[Mapping[int, int]],
        *,
        worker_ids: Optional[Sequence[Optional[int]]] = None,
        source: Optional[str] = None,
        sequence: Optional[int] = None,
    ) -> IngestResult:
        """Ingest a batch of task columns into the named session.

        Parameters
        ----------
        columns:
            One ``{item_id: vote}`` mapping per task column, applied in
            order.
        worker_ids:
            Optional worker id per column (aligned with ``columns``), each
            ``None`` or an integer under the wire's rule
            (:func:`~repro.streaming.session.check_worker_ids`).
        source, sequence:
            Idempotency pair.  When given (always together), the batch is
            applied only if ``sequence`` is strictly greater than the last
            sequence accepted from ``source``; otherwise the whole batch
            is skipped and ``duplicate=True`` is reported.  Retried
            deliveries of the same batch are therefore no-ops.

        The batch is atomic with respect to validation: every column is
        checked (known item ids, DIRTY/CLEAN votes) before any column is
        applied, so a rejected batch leaves the session untouched and can
        be fixed and redelivered under the same sequence number.

        The validated batch is encoded once, from the checked columns,
        and appended to the session's log — one O(batch) frame —
        *before* it mutates the in-memory session, so an applied batch is
        always in the store and the store never lags the live state.
        Once the log outgrows
        ``compact_after_bytes`` it is folded into a fresh snapshot; an
        ``OSError`` from that compaction leaves the log as it was and the
        batch acknowledged, and the next ingest past the threshold tries
        again.
        """
        if (source is None) != (sequence is None):
            raise ValidationError(
                "source and sequence must be provided together (the pair is "
                "what makes retried deliveries idempotent)"
            )
        if sequence is not None:
            sequence = check_int(sequence, "sequence", minimum=0)
        if source is not None and not isinstance(source, str):
            # Snapshots key high-water marks by string, so any other type
            # would stop deduplicating after a compaction and reopen.
            raise ValidationError(f"source must be a string, got {source!r}")
        worker_ids = check_worker_ids(worker_ids, len(columns))
        with self._handle(name) as handle:
            session = handle.session
            if is_duplicate(handle.sources, source, sequence):
                return IngestResult(
                    session=name,
                    applied=0,
                    duplicate=True,
                    num_columns=session.num_columns,
                    total_votes=session.total_votes,
                )
            # Check the whole batch before logging or applying any of it:
            # a half-applied batch whose high-water mark never advanced
            # would be double-counted by the (legitimate) retry.
            checked = session.check_columns(columns)
            # Log first, apply second: a crash between the two replays
            # the record on recovery, so the durable state is never
            # behind what the client saw acknowledged.
            ids = handle.item_ids
            frame = encode_batch(
                [zip(map(ids.__getitem__, rows), votes) for rows, votes in checked],
                worker_ids,
                source,
                sequence,
            )
            log_bytes = self._store.append(name, frame)
            session.add_columns(checked, worker_ids)
            if source is not None:
                handle.sources[source] = sequence
            if (
                self._compact_after_bytes is not None
                and log_bytes >= self._compact_after_bytes
            ):
                # The batch is logged and applied: it is acknowledged
                # whatever the compaction does.
                with suppress(OSError):
                    self._store.save(name, self._snapshot(session, handle.sources))
            return IngestResult(
                session=name,
                applied=len(columns),
                duplicate=False,
                num_columns=session.num_columns,
                total_votes=session.total_votes,
            )

    def estimates(self, name: str) -> Dict[str, EstimateResult]:
        """Current estimates of the named session, cached between mutations.

        The cache key is the session state's mutation version; polling an
        idle session returns the previously computed ``EstimateResult``
        objects without touching an estimator.
        """
        return self.estimate_report(name).results

    def estimate_report(self, name: str) -> EstimateReport:
        """Like :meth:`estimates`, plus the state version the read saw.

        Version and results are captured under the session lock, so the
        pair is consistent — the wire contract a retrying client needs to
        verify its duplicate delivery left the session untouched.
        """
        with self._handle(name) as handle:
            self._count("estimates_served")
            version = handle.session.state.version
            if handle.cache is not None and handle.cache_version == version:
                self._count("estimate_cache_hits")
                return EstimateReport(name, version, dict(handle.cache))
            results = handle.session.estimate()
            handle.cache = results
            handle.cache_version = version
            return EstimateReport(name, version, dict(results))

    def progress(self, name: str) -> Dict[str, float]:
        """The named session's stream-progress summary."""
        with self._handle(name) as handle:
            return handle.session.progress()

    def collusion_report(
        self, name: str, *, threshold: float = 0.9, min_overlap: int = 5
    ):
        """Pairwise-agreement collusion diagnostics for the session.

        Materialises the session's retained votes and runs
        :func:`repro.core.descriptive.collusion_report` over them — the
        detection-side answer to the cross-session clique regimes.
        Requires the session to have been created with
        ``keep_votes=True`` (the materialisation raises
        ``ConfigurationError`` otherwise, which the HTTP layer maps to a
        409).
        """
        from repro.core.descriptive import collusion_report as _collusion_report

        with self._handle(name) as handle:
            matrix = handle.session.matrix()
            return _collusion_report(
                matrix, threshold=threshold, min_overlap=min_overlap
            )

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #
    def snapshot(self, name: str) -> SessionSnapshot:
        """Snapshot the named session and persist it to the store.

        The returned snapshot carries the serving-layer idempotency state
        (per-source sequence high-water marks) in its manifest, so a
        restored session keeps rejecting the duplicates its predecessor
        already saw.  The session stays live.

        This **is** compaction: the store folds the session's log into
        the fresh snapshot and restarts the log empty (see
        :meth:`compact`).
        """
        with self._handle(name) as handle:
            snapshot = self._snapshot(handle.session, handle.sources)
            self._store.save(name, snapshot)
            return snapshot

    def compact(self, name: str) -> SessionSnapshot:
        """Fold the named session's log into a fresh snapshot now.

        Recovery cost is proportional to the log tail, so a periodic
        compaction (or the automatic ``compact_after_bytes`` trigger)
        keeps reopen latency flat.  The same as :meth:`snapshot`; returns
        the compacted snapshot.
        """
        return self.snapshot(name)

    def restore(
        self,
        name: str,
        snapshot: Optional[SessionSnapshot] = None,
        estimators: Optional[Sequence[Union[str, EstimatorProtocol]]] = None,
    ) -> Dict[str, float]:
        """Activate a session from a snapshot (explicit or from the store).

        With ``snapshot=None`` the store's copy is loaded — which is also
        what every other accessor does transparently, so an explicit
        ``restore`` is only needed to import a foreign snapshot or to
        override the estimator set.  The restored session replaces any
        live one under the name, once an op already inside it has landed,
        and starts with an empty estimate cache; an imported snapshot
        becomes the head of the session's log.  Returns the restored
        session's progress summary.
        """
        if snapshot is not None and not isinstance(snapshot, SessionSnapshot):
            raise ValidationError(
                "snapshot must be a SessionSnapshot or None, got "
                f"{type(snapshot).__name__}"
            )
        with self._handle(name, load=False) as handle:
            if snapshot is None:
                session, sources = self._recover_session(name, estimators)
            else:
                session = StreamingSession.from_snapshot(snapshot, estimators)
                sources = self._serving_sources(snapshot)
                # The store is never behind a live session.
                self._store.save(name, self._snapshot(session, sources))
            self._load(handle, session, sources)
            progress = session.progress()
        self._count("sessions_restored")
        self._enforce_limit(keep=name)
        return progress

    def evict(self, name: Optional[str] = None) -> Optional[str]:
        """Free a live session's memory; its log stays in the store.

        ``name=None`` picks the least-recently-used live session.  Returns
        the evicted name, or ``None`` when nothing is live.  The session
        remains addressable: the next touch recovers it from the store.
        """
        if name is None:
            live = self.active_sessions()
            if not live:
                return None
            name = live[0]
        if not self._evict(name):
            raise ConfigurationError(
                f"session {name!r} is not live; active: {self.active_sessions()}"
            )
        return name

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _snapshot(session: StreamingSession, sources: Dict[str, int]) -> SessionSnapshot:
        """``session``'s snapshot carrying ``sources`` (caller holds its entry's lock)."""
        snapshot = session.snapshot()
        snapshot.manifest["serving"] = {
            "sources": {key: int(value) for key, value in sources.items()}
        }
        return snapshot

    @staticmethod
    def _serving_sources(snapshot: SessionSnapshot) -> Dict[str, int]:
        """The idempotency gate's ``{source: sequence}`` from the manifest."""
        serving = snapshot.manifest.get("serving", {})
        sources = serving.get("sources", {}) if isinstance(serving, dict) else None
        if not isinstance(sources, dict) or not all(
            isinstance(sequence, int) and not isinstance(sequence, bool)
            for sequence in sources.values()
        ):
            raise _malformed_field("serving", '{"sources": {source: sequence}}', serving)
        return {str(key): sequence for key, sequence in sources.items()}

    def _recover_session(
        self,
        name: str,
        estimators: Optional[Sequence[Union[str, EstimatorProtocol]]] = None,
    ) -> Tuple[StreamingSession, Dict[str, int]]:
        """Rebuild ``name`` from the store: base snapshot + log replay.

        The base is absent until the first compaction — then the log's
        leading create record builds the empty session — and every batch
        record replays through the same idempotency gate live ingestion
        uses, so duplicate records are no-ops and the recovered state is
        bit-identical to the pre-crash live session.
        """
        try:
            snapshot, records = self._store.recovery(name)
        except UnknownSessionError:
            raise UnknownSessionError(
                f"unknown session {name!r}; available: {self.sessions()}"
            ) from None
        if snapshot is not None:
            session = StreamingSession.from_snapshot(snapshot, estimators)
            sources = self._serving_sources(snapshot)
        else:
            head = records[0] if records else None
            if not isinstance(head, CreateRecord):
                raise ConfigurationError(
                    f"stored session {name!r} has neither a snapshot nor a "
                    "leading create record — its log is not a valid "
                    "ingestion history"
                )
            session = StreamingSession(
                list(head.item_ids),
                list(head.estimators) if estimators is None else estimators,
                keep_votes=head.keep_votes,
            )
            sources = {}
            records = records[1:]
        for record in records:
            replay_batch_record(session, sources, check_batch_record(record))
        return session, sources

    @contextmanager
    def _handle(self, name: str, *, load: bool = True) -> Iterator[_ActiveSession]:
        """``name``'s one table entry, held under its lock.

        The table lock only finds the entry, or puts an empty one in the
        table; the entry's own lock is taken after it.  An entry retired
        while this waited for its lock is looked up again.  With ``load``
        an empty entry is recovered from the store before the body runs,
        and the limit is enforced once the lock is released.  An entry
        the body leaves empty leaves the table, so a failed lookup leaves
        the table as it found it.
        """
        check_session_name(name)
        revived = False
        try:
            while True:
                with self._lock:
                    handle = self._active.get(name)
                    if handle is None:
                        handle = self._active[name] = _ActiveSession()
                    else:
                        self._active.move_to_end(name)
                with handle.lock:
                    if handle.retired:
                        continue
                    try:
                        if load and handle.session is None:
                            self._load(handle, *self._recover_session(name))
                            revived = True
                        yield handle
                    finally:
                        if handle.session is None:
                            with self._lock:
                                handle.retired = True
                                del self._active[name]
                    return
        finally:
            if revived:
                self._count("sessions_restored")
                self._enforce_limit(keep=name)

    def _load(
        self,
        handle: _ActiveSession,
        session: Optional[StreamingSession],
        sources: Dict[str, int],
    ) -> None:
        """Hold ``session`` (``None`` unloads) in ``handle``, with an empty cache.

        The caller holds the entry's lock; the live count changes with
        the entry, under the table lock.  The session's item ids are
        converted to ints here, once per load, for the batch frames.
        """
        with self._lock:
            self._live += (session is not None) - (handle.session is not None)
            handle.session = session
        handle.item_ids = (
            [] if session is None else [int(item) for item in session.state.item_ids]
        )
        handle.sources = sources
        handle.cache_version = handle.cache = None

    def _evict(self, name: str) -> bool:
        """Drop ``name``'s live session from memory; False if it is not live.

        Every mutation was logged before it was applied, so eviction is
        an in-memory drop, never an O(state) write — what lets
        ``max_active`` bound memory over very large session counts.  An
        op already inside the session lands first, and one that waited
        for the eviction recovers the session from the store.
        """
        with self._handle(name, load=False) as handle:
            if handle.session is None:
                return False
            self._load(handle, None, {})
        self._count("sessions_evicted")
        return True

    def _enforce_limit(self, keep: str) -> None:
        """Evict LRU sessions, never ``keep``, until at most ``max_active`` are live.

        Called with no entry lock held: each victim is evicted under its
        own lock, so an eviction waits only for its victim.
        """
        while self._max_active is not None:
            with self._lock:
                if self._live <= self._max_active:
                    return
                victim = next(
                    key
                    for key, handle in self._active.items()
                    if key != keep and handle.session is not None
                )
            self._evict(victim)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"EstimationService(active={self._live}, "
            f"stored={len(self._store)}, max_active={self._max_active})"
        )


#: Root manifest of a sharded serving directory.
SHARD_MANIFEST_FILENAME = "shards.json"

#: Sharded-root manifest format version; bump when the layout changes.
SHARD_MANIFEST_VERSION = 1


def reconcile_shard_manifest(root: Path, num_shards: Optional[int]) -> int:
    """Validate ``num_shards`` against ``root``'s manifest, or write one.

    The single source of truth for a sharded root's shard count, shared
    by every deployment shape (in-process :class:`ShardedEstimationService`
    and the process-per-shard parent): an existing ``shards.json`` wins —
    reopening with a different requested count raises, since resharding
    would silently strand every session whose hash moved — and a fresh
    root records the requested count (default 1) atomically.
    Returns the authoritative shard count.

    The manifest is staged in ``.shards.json.tmp-*`` and renamed into
    place; a staging file whose write or rename fails is removed, and one
    found next to an existing manifest (a crash's leftover) is swept.
    """
    manifest_path = root / SHARD_MANIFEST_FILENAME
    if manifest_path.exists():
        for leftover in root.glob(f".{SHARD_MANIFEST_FILENAME}.tmp-*"):
            leftover.unlink(missing_ok=True)
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError as error:  # undecodable bytes or malformed JSON
            raise ConfigurationError(
                f"unreadable shard manifest {manifest_path}: {error}"
            ) from error
        if not isinstance(manifest, dict):
            raise ConfigurationError(
                f"unreadable shard manifest {manifest_path}: expected a "
                f"JSON object, got {type(manifest).__name__}"
            )
        if manifest.get("format_version") != SHARD_MANIFEST_VERSION:
            raise ConfigurationError(
                f"unsupported shard manifest version in {manifest_path}: "
                f"{manifest.get('format_version')!r}"
            )
        try:
            recorded = check_int(manifest.get("num_shards"), "num_shards", minimum=1)
        except ValidationError as error:
            raise ConfigurationError(f"unreadable shard manifest {manifest_path}: {error}") from None
        if num_shards is not None and num_shards != recorded:
            raise ConfigurationError(
                f"shard count mismatch for {root}: the root was "
                f"created with {recorded} shard(s) but {num_shards} were "
                "requested — resharding would strand sessions whose hash "
                "moved; open with the recorded count (or omit num_shards)"
            )
        return recorded
    resolved = 1 if num_shards is None else num_shards
    root.mkdir(parents=True, exist_ok=True)
    descriptor, staging = tempfile.mkstemp(
        prefix=f".{SHARD_MANIFEST_FILENAME}.tmp-", dir=root
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "format_version": SHARD_MANIFEST_VERSION,
                    "num_shards": int(resolved),
                },
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        os.replace(staging, manifest_path)
    except BaseException:
        Path(staging).unlink(missing_ok=True)
        raise
    return resolved


def shard_index(name: str, num_shards: int) -> int:
    """The shard owning session ``name`` (stable across processes).

    A keyed hash (not Python's salted ``hash``) so every process — and
    every future reopen of the same root — routes a name to the same
    shard.
    """
    digest = hashlib.sha256(check_session_name(name).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % check_int(
        num_shards, "num_shards", minimum=1
    )




# --------------------------------------------------------------------- #
# wire codecs (shared by the HTTP API and the CLI)
# --------------------------------------------------------------------- #
def _plain(value):
    """JSON-safe value: numpy scalars and arrays become Python equivalents."""
    if type(value) in (int, float, str, bool):  # already plain: the common case
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        # Estimator ``details`` legitimately carry arrays (frequency
        # tables, per-checkpoint traces); ``tolist`` yields nested lists
        # of exact Python scalars instead of crashing ``json.dumps``.
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    return value


def parse_columns_payload(
    payload: object,
) -> Tuple[List[Dict[int, int]], List[Optional[int]]]:
    """Decode the JSON wire shape of a vote batch into ingest arguments.

    The accepted shape — shared by ``POST /sessions/<name>/batches`` and
    ``repro session ingest`` — is a list with one
    entry per task column, each either ``{"votes": {"<item>": vote, ...},
    "worker": id}`` or the bare ``{"<item>": vote}`` mapping itself.
    Votes and worker ids are integers in the :func:`check_int` sense:
    ``0.5``, ``true`` or ``"1"`` are rejected, never truncated.  Anything
    else raises ``ValidationError`` with the offending entry's position;
    nothing here lets a malformed body escape as a raw traceback.
    """
    if not isinstance(payload, list):
        raise ValidationError(
            f"vote batch must be a JSON list of column objects, "
            f"got {type(payload).__name__}"
        )
    columns: List[Dict[int, int]] = []
    workers: List[Optional[int]] = []
    for position, entry in enumerate(payload):
        if not isinstance(entry, dict):
            raise ValidationError(
                f"column {position} must be an object, got {type(entry).__name__}"
            )
        worker = None
        votes = entry
        if "votes" in entry:
            votes = entry["votes"]
            if not isinstance(votes, dict):
                raise ValidationError(
                    f"column {position}: 'votes' must be an object mapping "
                    f"item ids to votes, got {type(votes).__name__}"
                )
            worker = entry.get("worker")
            unknown = sorted(set(entry) - {"votes", "worker"})
            if unknown:
                raise ValidationError(
                    f"column {position}: unknown key(s) {unknown}; "
                    "expected 'votes' and optional 'worker'"
                )
        column: Dict[int, int] = {}
        for item, vote in votes.items():
            try:
                column[int(item)] = check_int(vote, "vote")
            except (TypeError, ValueError):
                raise ValidationError(
                    f"column {position}: item ids and votes must be "
                    f"integers, got {item!r}: {vote!r}"
                ) from None
        try:
            workers.append(None if worker is None else check_int(worker, "worker"))
        except ValidationError:
            raise ValidationError(
                f"column {position}: 'worker' must be an integer, got {worker!r}"
            ) from None
        columns.append(column)
    return columns, workers


def result_to_payload(result: EstimateResult) -> Dict[str, object]:
    """One :class:`EstimateResult` as its JSON wire object."""
    return {
        "estimate": _plain(float(result.estimate)),
        "observed": _plain(float(result.observed)),
        "remaining": _plain(float(result.remaining)),
        "details": _plain(dict(result.details)),
    }


def result_from_payload(payload: Mapping[str, object]) -> EstimateResult:
    """The client-side inverse of :func:`result_to_payload`.

    JSON floats round-trip exactly (the encoder emits the shortest
    representation that parses back to the identical double), so the
    reconstructed :class:`EstimateResult` compares equal bit for bit with
    the server's — the property the end-to-end harness pins.
    """
    return EstimateResult(
        estimate=float(payload["estimate"]),
        observed=float(payload["observed"]),
        details={str(key): value for key, value in dict(payload.get("details", {})).items()},
    )


def report_to_payload(report: EstimateReport) -> Dict[str, object]:
    """One :class:`EstimateReport` as the estimates response body."""
    return {
        "session": report.session,
        "version": [int(part) for part in report.version],
        "estimates": {
            name: result_to_payload(result)
            for name, result in sorted(report.results.items())
        },
    }


def report_from_payload(payload: Mapping[str, object]) -> EstimateReport:
    """The client-side inverse of :func:`report_to_payload`."""
    return EstimateReport(
        session=str(payload["session"]),
        version=tuple(int(part) for part in payload["version"]),
        results={
            str(name): result_from_payload(result)
            for name, result in dict(payload["estimates"]).items()
        },
    )


# --------------------------------------------------------------------- #
# the op table: every serving op, declared once
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class HttpRoute:
    """Where a :class:`ServingOp` lives on the HTTP API.

    ``{name}`` in ``path`` is the session; an op without it carries the
    name in its JSON body.  POST ops read their arguments from the JSON
    body, the others from the query string.  An op with a ``flag``
    extends the route's primary op: its result joins the response under
    that key when the query sets the flag (``?collusion=1``).
    """

    method: str
    path: str
    status: int = 200
    flag: Optional[str] = None


@dataclass(frozen=True)
class ServingOp:
    """One op of the serving façade: its method, routing and wire codecs.

    ``name`` is the :class:`EstimationService` method.  An op ``by_name``
    goes to the shard owning its first argument, any other op to every
    shard, with ``merge`` combining the per-shard results (lazily:
    ``evict()``, routed by name, fans out when the name is ``None``).
    ``http`` is its route, if any, and an op with a route has the JSON
    codecs of the HTTP wire: ``encode(*args, **kwargs) -> (session name,
    wire args)`` has the method's signature (the client);
    ``decode(wire args) -> kwargs`` validates them (the server; ``None``
    when the op takes no arguments); ``reply(name, kwargs, result)`` is
    the JSON response and ``result`` its client-side inverse.  ``local``
    computes an op without a wire form from the other ops.
    """

    name: str
    encode: Optional[Callable[..., Tuple[Optional[str], Dict[str, object]]]] = None
    decode: Optional[Callable[[Mapping[str, object]], Dict[str, object]]] = None
    reply: Optional[Callable[..., object]] = None
    result: Optional[Callable[[object], object]] = None
    by_name: bool = True
    merge: Optional[Callable[[Iterable[object]], object]] = None
    http: Optional[HttpRoute] = None
    local: Optional[Callable[..., object]] = None


def _estimator_names(estimators: object) -> Optional[List[str]]:
    """Estimators as registry names, the only form the HTTP wire carries."""
    if estimators is not None and (
        not isinstance(estimators, (list, tuple))
        or not all(isinstance(name, str) for name in estimators)
    ):
        raise ValidationError(
            "'estimators' must be a list of registry names (estimator objects "
            f"cannot cross the HTTP wire), got {estimators!r}"
        )
    return None if estimators is None else list(estimators)


def _named(name: Optional[str] = None) -> Tuple[Optional[str], Dict[str, object]]:
    return name, {}


def _unnamed() -> Tuple[None, Dict[str, object]]:
    return None, {}


def _create_args(
    name: str,
    item_ids: Optional[Sequence[int]] = None,
    estimators: Optional[Sequence[str]] = None,
    *,
    items: Optional[int] = None,
    keep_votes: bool = True,
) -> Tuple[str, Dict[str, object]]:
    # ``items=N`` is the wire's shorthand for ``item_ids=range(N)``.
    args: Dict[str, object] = {"keep_votes": keep_votes}
    if item_ids is not None:
        args["item_ids"] = _plain(list(item_ids))
    if items is not None:
        args["items"] = _plain(items)
    if estimators is not None:
        args["estimators"] = _estimator_names(estimators)
    return name, args


def _create_kwargs(args: Mapping[str, object]) -> Dict[str, object]:
    unknown = sorted(set(args) - {"item_ids", "items", "estimators", "keep_votes"})
    if unknown:
        raise ValidationError(
            f"unknown create key(s) {unknown}; expected 'name', "
            "'item_ids' or 'items', optional 'estimators' and 'keep_votes'"
        )
    if ("item_ids" in args) == ("items" in args):
        raise ValidationError(
            "create body requires exactly one of 'item_ids' (explicit id "
            "list) or 'items' (ids 0..N-1)"
        )
    if "items" in args:
        item_ids = list(range(check_int(args["items"], "'items'")))
    elif isinstance(args["item_ids"], list):
        item_ids = [check_int(item, "'item_ids' entry") for item in args["item_ids"]]
    else:
        raise ValidationError("'item_ids' must be a list of integers")
    keep_votes = args.get("keep_votes", True)
    if not isinstance(keep_votes, bool):
        raise ValidationError("'keep_votes' must be a boolean")
    return {
        "item_ids": item_ids,
        "estimators": _estimator_names(args.get("estimators")),
        "keep_votes": keep_votes,
    }


def _ingest_args(
    name: str,
    columns: Sequence[Mapping[int, int]],
    *,
    worker_ids: Optional[Sequence[Optional[int]]] = None,
    source: Optional[str] = None,
    sequence: Optional[int] = None,
) -> Tuple[str, Dict[str, object]]:
    # Numbers travel as given (numpy scalars made plain): the server
    # validates them, so 0.5 or True fail there instead of truncating here.
    _check_worker_ids(columns, worker_ids)
    wire_columns: List[Dict[str, object]] = []
    for index, votes in enumerate(columns):
        entry: Dict[str, object] = {
            "votes": {str(item): _plain(vote) for item, vote in votes.items()}
        }
        if worker_ids is not None and worker_ids[index] is not None:
            entry["worker"] = _plain(worker_ids[index])
        wire_columns.append(entry)
    args: Dict[str, object] = {"columns": wire_columns}
    if source is not None:
        args["source"] = source
    if sequence is not None:
        args["sequence"] = _plain(sequence)
    return name, args


def _ingest_kwargs(args: Mapping[str, object]) -> Dict[str, object]:
    unknown = sorted(set(args) - {"columns", "source", "sequence"})
    if unknown:
        raise ValidationError(
            f"unknown ingest key(s) {unknown}; expected 'columns', "
            "optional 'source' and 'sequence'"
        )
    columns, workers = parse_columns_payload(args.get("columns"))
    return {
        "columns": columns,
        "worker_ids": workers,
        "source": args.get("source"),
        "sequence": args.get("sequence"),
    }


def _collusion_args(
    name: str, *, threshold: Optional[float] = None, min_overlap: Optional[int] = None
) -> Tuple[str, Dict[str, object]]:
    # Query-string values; omitted knobs take the server-side defaults.
    args: Dict[str, object] = {}
    if threshold is not None:
        args["threshold"] = repr(float(threshold))
    if min_overlap is not None:
        args["min_overlap"] = str(_plain(min_overlap))
    return name, args


def _collusion_kwargs(args: Mapping[str, object]) -> Dict[str, object]:
    kwargs: Dict[str, object] = {}
    for key, parse in (("threshold", float), ("min_overlap", int)):
        try:
            if key in args:
                kwargs[key] = parse(args[key])
        except ValueError:
            kind = "a number" if parse is float else "an integer"
            raise ValidationError(
                f"'{key}' must be {kind}, got {args[key]!r}"
            ) from None
    return kwargs


def _receipt(action: str) -> Callable[..., Dict[str, object]]:
    return lambda name, kwargs, result: {"session": name, action: True}


def _progress(name: str, kwargs: object, progress: Mapping[str, float]) -> object:
    return {"session": name, "progress": progress}


def _created(name: str, kwargs: Mapping[str, object], result: str) -> object:
    return {
        "session": name,
        "num_items": len(kwargs["item_ids"]),
        "keep_votes": kwargs["keep_votes"],
    }


def _sum_counts(per_shard: Iterable[Mapping[str, int]]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for counts in per_shard:
        for key, value in counts.items():
            total[key] = total.get(key, 0) + value
    return total


_SESSION, _PROGRESS, _SESSIONS = map(itemgetter, ("session", "progress", "sessions"))
_ROUTE = "/sessions/{name}"

#: Every serving op, in one table: ``ServingOp(name, encode, decode,
#: reply, result, ...)``.  :class:`~repro.serving.ServingApi` routes HTTP
#: requests through it, a shard worker runs only the ops it names, and
#: :class:`ShardRouter`, :class:`~repro.serving.SessionClient` and the
#: shard worker proxy generate their methods from it.
SERVING_OPS: Tuple[ServingOp, ...] = (
    ServingOp("create_session", _create_args, _create_kwargs, _created, _SESSION,
              http=HttpRoute("POST", "/sessions", status=201)),
    ServingOp("sessions", _unnamed, None,
              lambda name, kwargs, names: {"sessions": list(names)}, _SESSIONS,
              by_name=False, merge=lambda per_shard: sorted(set().union(*per_shard)),
              http=HttpRoute("GET", "/sessions")),
    ServingOp("active_sessions", by_name=False,
              merge=lambda per_shard: [name for names in per_shard for name in names]),
    ServingOp("progress", _named, None, _progress, _PROGRESS,
              http=HttpRoute("GET", _ROUTE)),
    ServingOp("drop", _named, None, _receipt("dropped"), lambda payload: None,
              http=HttpRoute("DELETE", _ROUTE)),
    ServingOp("ingest", _ingest_args, _ingest_kwargs,
              lambda name, kwargs, result: dict(vars(result)),
              lambda payload: IngestResult(
                  **{key: payload[key] for key in IngestResult.__dataclass_fields__}
              ),
              http=HttpRoute("POST", _ROUTE + "/batches")),
    ServingOp("estimate_report", _named, None,
              lambda name, kwargs, report: report_to_payload(report),
              report_from_payload, http=HttpRoute("GET", _ROUTE + "/estimates")),
    ServingOp("estimates",
              local=lambda front, name: front.estimate_report(name).results),
    ServingOp("collusion_report", _collusion_args, _collusion_kwargs,
              lambda name, kwargs, report: report.to_dict(), dict,
              http=HttpRoute("GET", _ROUTE + "/estimates", flag="collusion")),
    ServingOp("snapshot", _named, None, _receipt("snapshotted"), dict,
              http=HttpRoute("POST", _ROUTE + "/snapshot")),
    ServingOp("compact", _named, None, _receipt("compacted"), dict,
              http=HttpRoute("POST", _ROUTE + "/compact")),
    ServingOp("restore"),
    ServingOp("evict", merge=lambda victims: next(filter(None, victims), None)),
    ServingOp("stats", by_name=False, merge=_sum_counts),
)


def serve_op(service, op: ServingOp, name: Optional[str], args: Mapping[str, object]):
    """Run ``op`` on ``service`` from its wire arguments; returns the reply.

    The one server-side path of the HTTP API.
    """
    kwargs = op.decode(args) if op.decode is not None else {}
    method = getattr(service, op.name)
    result = method(name, **kwargs) if op.by_name else method(**kwargs)
    return op.reply(name, kwargs, result)


def _install_ops(cls: type, make: Callable[[ServingOp], Callable], carries) -> None:
    """Generate a method per carried op into ``cls``'s own ``__dict__``.

    Methods the class defines itself are kept.  Every front class gets
    its own copies, so call-site tracing by ``Class.__dict__`` works.
    """
    for op in SERVING_OPS:
        if op.name not in cls.__dict__ and carries(op):
            method = make(op)
            method.__name__ = op.name
            method.__qualname__ = f"{cls.__qualname__}.{op.name}"
            method.__doc__ = getattr(EstimationService, op.name).__doc__
            setattr(cls, op.name, method)


def _routed(op: ServingOp) -> Callable:
    def fanned(self, *args, **kwargs):
        return op.merge(
            getattr(backend, op.name)(*args, **kwargs) for backend in self._backends
        )

    def routed(self, name=None, *args, **kwargs):
        if name is None and op.merge is not None:
            return fanned(self, None, *args, **kwargs)
        return getattr(self._backend(name), op.name)(name, *args, **kwargs)

    return routed if op.by_name else fanned


def _counter(key: str) -> property:
    return property(lambda self: self.stats()[key], doc=f"All shards' ``{key}``.")


class ShardRouter:
    """The serving façade over N backends, routed by session-name hash.

    A backend is anything with the :data:`SERVING_OPS` methods: an
    in-process :class:`EstimationService` or a shard worker proxy.  An op
    addressing one session goes to the backend owning its name
    (:func:`shard_index`); any other op goes to every backend, and the
    op's ``merge`` combines the results — so one backend behaves exactly
    like the backend itself.  Subclasses get the generated methods too.
    """

    def __init__(self, backends: Iterable[object]) -> None:
        self._backends = tuple(backends)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _install_ops(cls, _routed, lambda op: True)

    @property
    def num_shards(self) -> int:
        """The shard count."""
        return len(self._backends)

    def shard_of(self, name: str) -> int:
        """The shard index owning session ``name``."""
        return shard_index(name, len(self._backends))

    def _backend(self, name: str):
        return self._backends[self.shard_of(name)]

    estimates_served = _counter("estimates_served")
    estimate_cache_hits = _counter("estimate_cache_hits")
    sessions_restored = _counter("sessions_restored")
    sessions_evicted = _counter("sessions_evicted")


_install_ops(ShardRouter, _routed, lambda op: True)


class ShardedEstimationService(ShardRouter):
    """Partition sessions across N single-process service shards.

    Each shard is a full :class:`EstimationService` over its own store;
    a session lives on exactly one shard, chosen by a stable hash of its
    name (:func:`shard_index`).  The façade is the same as a single
    service — ``N=1`` **is** exactly one service, shard 0 — which
    makes the split shard-ready: moving a shard to its own process (or
    machine) changes where the shard runs, not what callers see.

    Parameters
    ----------
    root:
        Directory holding one :class:`DirectorySessionStore` per shard
        (``<root>/shard-<i>/``) plus a ``shards.json`` manifest
        recording the shard count.  Reopening a root with a different
        ``num_shards`` raises — resharding would silently strand every
        session whose hash moved.  ``None`` serves from per-shard
        in-memory stores instead.
    num_shards:
        Shard count.  ``None`` reads the manifest (new in-memory or new
        on-disk roots default to 1).
    max_active:
        Per-shard live-session bound, passed to each shard's service.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        *,
        num_shards: Optional[int] = None,
        max_active: Optional[int] = None,
    ) -> None:
        self.root = None if root is None else Path(root)
        if self.root is not None:
            num_shards = reconcile_shard_manifest(self.root, num_shards)
        elif num_shards is None:
            num_shards = 1
        super().__init__(
            EstimationService(
                MemorySessionStore()
                if self.root is None
                else DirectorySessionStore(self.root / f"shard-{index:04d}"),
                max_active=max_active,
            )
            for index in range(check_int(num_shards, "num_shards", minimum=1))
        )

    @property
    def shards(self) -> Tuple[EstimationService, ...]:
        """The per-shard services, by shard index."""
        return self._backends
