"""``repro.serving`` — the multi-tenant serving layer, by its public name.

This package is the stable import surface for the serving stack; the
in-process façade lives next to the session machinery it builds on
(:mod:`repro.streaming.serving` and :mod:`repro.streaming.store`), while
the network boundary is native to this package:

* :mod:`repro.serving.http` — a JSON HTTP API over any serving façade,
  with structured error mapping, and :class:`SessionClient`, its client.
* :mod:`repro.serving.workers` — :class:`ProcessShardedService`, the
  same façade with each shard in its own worker process that exclusively
  owns its shard store (``repro serve --workers N``).
* :mod:`repro.serving.loadgen` — the synthetic worker fleet that hammers
  that API end to end and replays it to prove the served estimates
  bit-identical to a direct :class:`~repro.streaming.StreamingSession`.

Every front reads one op table, :data:`SERVING_OPS`, and both sharded
fronts are one :class:`ShardRouter`.

Quick use::

    from repro.serving import DirectorySessionStore, EstimationService

    service = EstimationService(DirectorySessionStore("sessions"), max_active=32)
    service.create_session("tenant-a", item_ids=range(100), estimators=["chao92"])
    service.ingest("tenant-a", [{0: 1, 3: 0}], source="loader", sequence=1)
    print(service.estimates("tenant-a")["chao92"].remaining)

Or over the wire (``repro serve`` runs the same server from the CLI)::

    from repro.serving import EstimationService, HttpServingServer, SessionClient

    with HttpServingServer(EstimationService()) as server:
        client = SessionClient(server.url)
        client.create_session("tenant-a", item_ids=range(100), estimators=["chao92"])
        client.ingest("tenant-a", [{0: 1, 3: 0}], source="loader", sequence=1)
        print(client.estimates("tenant-a")["chao92"].remaining)

See ``docs/http.md`` for the wire API and the load harness,
``docs/serving.md`` for the full in-process tour (idempotent ingestion,
cached estimates, LRU eviction, bit-identical snapshot/restore) and
``docs/persistence.md`` for the log-structured store underneath it: the
per-session write-ahead log, size-triggered compaction, and the
hash-sharded :class:`ShardedEstimationService` front.
"""

from repro.serving.http import (
    CLIENT_ERROR_TYPES,
    SERVER_ERROR_TAXONOMY,
    HttpApiError,
    HttpConflictError,
    HttpServingServer,
    HttpShardUnavailableError,
    HttpStoreCorruptionError,
    HttpUnknownSessionError,
    HttpValidationError,
    ServingApi,
    SessionClient,
    classify_error,
    error_from_kind,
    parse_columns_payload,
    result_from_payload,
    result_to_payload,
)
from repro.serving.loadgen import (
    AppliedBatch,
    Delivery,
    FleetConfig,
    FleetReport,
    LoadGenerator,
    latency_percentiles,
    ordered_session_batches,
    replay_applied_batches,
)
from repro.serving.workers import ProcessShardedService
from repro.streaming.serving import (
    SERVING_OPS,
    EstimateReport,
    EstimationService,
    IngestResult,
    ServingOp,
    ShardedEstimationService,
    ShardRouter,
    ShardUnavailableError,
    shard_index,
)
from repro.streaming.store import (
    DirectorySessionStore,
    MemorySessionStore,
    StoreCorruptionError,
    UnknownSessionError,
)

__all__ = [
    "EstimationService",
    "ShardedEstimationService",
    "ProcessShardedService",
    "ShardUnavailableError",
    "IngestResult",
    "EstimateReport",
    "MemorySessionStore",
    "DirectorySessionStore",
    "UnknownSessionError",
    "StoreCorruptionError",
    "shard_index",
    # the op table and the shard router every front is built from
    "SERVING_OPS",
    "ServingOp",
    "ShardRouter",
    # the HTTP boundary (repro.serving.http)
    "ServingApi",
    "HttpServingServer",
    "SessionClient",
    "HttpApiError",
    "HttpUnknownSessionError",
    "HttpValidationError",
    "HttpConflictError",
    "HttpStoreCorruptionError",
    "HttpShardUnavailableError",
    "SERVER_ERROR_TAXONOMY",
    "CLIENT_ERROR_TYPES",
    "classify_error",
    "error_from_kind",
    "parse_columns_payload",
    "result_to_payload",
    "result_from_payload",
    # the synthetic-crowd load harness (repro.serving.loadgen)
    "AppliedBatch",
    "Delivery",
    "FleetConfig",
    "FleetReport",
    "LoadGenerator",
    "latency_percentiles",
    "ordered_session_batches",
    "replay_applied_batches",
]
