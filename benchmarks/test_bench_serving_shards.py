"""Sharded vs single-service ingestion throughput.

Times the same many-session durable-ingestion workload twice — once
through one :class:`~repro.serving.EstimationService` over a single
log-structured store, once through a
:class:`~repro.serving.ShardedEstimationService` partitioning the
sessions across four hash-routed shard stores — and checks the two
produce identical estimates (sharding must change placement, never
results).

The default run is small enough for CI; the 100k-session shape from the
recorded ``wal-100k`` workload only runs under ``REPRO_BENCH_SCALE=full``
(it takes minutes, and its canonical record already lives in
``BENCH_runner.json``).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.bench import WalWorkload
from repro.serving import (
    DirectorySessionStore,
    EstimationService,
    ShardedEstimationService,
)

#: Small-scale shape shared by both arms of the comparison.
SMALL = WalWorkload(name="shard_bench_small", num_sessions=120)

#: The acceptance-criterion scale, gated behind the full preset.
LARGE = WalWorkload(name="shard_bench_100k", num_sessions=100_000)

full_scale_only = pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_SCALE", "default").lower() != "full",
    reason="100k-session shard benchmark only runs under REPRO_BENCH_SCALE=full",
)


def _sample_estimates(service, workload: WalWorkload):
    return {
        workload.session_name(index): service.estimates(workload.session_name(index))
        for index in workload.verify_indexes()
    }


def test_bench_single_service_ingest(benchmark, tmp_path):
    service = EstimationService(
        DirectorySessionStore(tmp_path / "single"), max_active=SMALL.max_active
    )
    benchmark.pedantic(lambda: SMALL.ingest_all(service), rounds=1, iterations=1)
    assert len(service.sessions()) == SMALL.num_sessions


def test_bench_sharded_service_ingest(benchmark, tmp_path):
    service = ShardedEstimationService(
        tmp_path / "sharded", num_shards=4, max_active=SMALL.max_active
    )
    benchmark.pedantic(lambda: SMALL.ingest_all(service), rounds=1, iterations=1)
    assert len(service.sessions()) == SMALL.num_sessions
    # Every shard should own a non-trivial slice of 120 hashed names.
    assert all(len(shard.sessions()) > 0 for shard in service.shards)


def test_sharded_estimates_match_single_service(tmp_path):
    single = EstimationService(
        DirectorySessionStore(tmp_path / "single"), max_active=SMALL.max_active
    )
    sharded = ShardedEstimationService(
        tmp_path / "sharded", num_shards=4, max_active=SMALL.max_active
    )
    SMALL.ingest_all(single)
    SMALL.ingest_all(sharded)
    assert _sample_estimates(single, SMALL) == _sample_estimates(sharded, SMALL)


@full_scale_only
def test_bench_sharded_service_ingest_100k(benchmark, tmp_path):
    service = ShardedEstimationService(
        tmp_path / "sharded-100k", num_shards=8, max_active=LARGE.max_active
    )
    benchmark.pedantic(lambda: LARGE.ingest_all(service), rounds=1, iterations=1)
    assert len(service.sessions()) == LARGE.num_sessions
