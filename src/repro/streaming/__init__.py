"""Online estimation sessions over a live stream of worker responses.

The paper's use case is inherently online: a data-cleaning session
consumes crowd responses task by task while the analyst watches the
quality estimate converge.  :class:`StreamingSession` is that loop as a
first-class object — votes go in one task (or one vote) at a time, and
``session.estimate()`` returns the current estimate of every registered
estimator without ever rescanning the history, bit-identical to what the
batch sweep engine would compute on the same prefix.

On top of the single session sits the serving layer
(:mod:`repro.streaming.serving`, aliased as :mod:`repro.serving`):
:class:`EstimationService` hosts many named sessions with idempotent
batched ingestion, cached estimates, LRU eviction and durable
snapshot/restore through a :class:`SessionStore`
(:mod:`repro.streaming.store`).  Persistence is log-structured on every
store: ingests append O(batch) records to a per-session log — on a
directory store, a write-ahead log file (:mod:`repro.streaming.wal`) —
and compaction folds the log into a fresh snapshot.  :class:`ShardedEstimationService` partitions
sessions across N such services by session-key hash.
"""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    globals(),
    {
        ".session": (
            "StreamingSession CheckedColumns SessionSnapshot SNAPSHOT_FORMAT_VERSION read_snapshot "
            "write_snapshot"
        ),
        ".serving": (
            "EstimationService ShardedEstimationService IngestResult EstimateReport "
            "DEFAULT_COMPACT_BYTES replay_batch_record shard_index ShardUnavailableError "
            "reconcile_shard_manifest"
        ),
        ".store": (
            "SessionStore MemorySessionStore DirectorySessionStore UnknownSessionError "
            "StoreCorruptionError check_session_name"
        ),
        ".wal": "SessionLog CreateRecord BatchRecord WAL_FORMAT_VERSION",
    },
)
