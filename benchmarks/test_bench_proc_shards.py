"""Process-worker vs single-process sharded ingestion throughput.

Times the same deterministic multi-threaded ingestion workload twice —
once through the single-process
:class:`~repro.serving.ShardedEstimationService` (every shard shares the
GIL) and once through :class:`~repro.serving.ProcessShardedService`
(every shard in its own worker process) — and checks the two topologies
produce bit-identical estimate reports before any timing is trusted.

The acceptance-criterion assertion — worker processes ingest at least
1.5x faster than the single process — only holds where there are cores
to scale onto, so it auto-skips below four usable CPUs; the timing
benchmarks themselves run everywhere (the smoke numbers are still worth
recording on one core: they price the RPC overhead).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.bench import WORKLOADS, regression_failure, run_workload
from repro.serving import ProcessShardedService, ShardedEstimationService

SMOKE = WORKLOADS["proc-shards-smoke"]
FULL = WORKLOADS["proc-shards"]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


multi_core_only = pytest.mark.skipif(
    _usable_cpus() < 4,
    reason=(
        "the 1.5x process-scaling criterion needs >=4 usable CPUs "
        f"(this machine has {_usable_cpus()})"
    ),
)


def test_bench_single_process_shards_ingest(benchmark, tmp_path):
    service = ShardedEstimationService(
        tmp_path / "single", num_shards=SMOKE.num_shards
    )
    benchmark.pedantic(lambda: SMOKE.ingest_all(service), rounds=1, iterations=1)
    assert len(service.sessions()) == SMOKE.num_sessions


def test_bench_process_worker_shards_ingest(benchmark, tmp_path):
    with ProcessShardedService(
        tmp_path / "workers", num_shards=SMOKE.num_shards
    ) as service:
        benchmark.pedantic(
            lambda: SMOKE.ingest_all(service), rounds=1, iterations=1
        )
        assert len(service.sessions()) == SMOKE.num_sessions
        assert len(service.worker_pids()) == SMOKE.num_shards


def test_worker_reports_match_single_process_bit_identically(tmp_path):
    single = ShardedEstimationService(
        tmp_path / "single", num_shards=SMOKE.num_shards
    )
    SMOKE.ingest_all(single)
    with ProcessShardedService(
        tmp_path / "workers", num_shards=SMOKE.num_shards
    ) as workers:
        SMOKE.ingest_all(workers)
        assert SMOKE.report_json(workers) == SMOKE.report_json(single)


def test_recorded_entry_shape_is_ungated(tmp_path):
    # The entry records a machine-specific scaling ratio, never the
    # batch-vs-serial speedup the regression gate reads.
    entry = run_workload(SMOKE)
    metrics = entry["metrics"]
    assert "batch_vs_serial" not in metrics
    assert regression_failure(entry, entry) is None
    assert metrics["verified_sessions"] == SMOKE.num_sessions
    assert metrics["workers"] == SMOKE.num_shards
    assert metrics["proc_vs_single"] > 0
    assert entry["timings_s"]["single_process_ingest"] > 0
    assert entry["timings_s"]["process_workers_ingest"] > 0


@multi_core_only
def test_process_workers_scale_past_the_gil(tmp_path):
    # Acceptance criterion: >=1.5x ingest throughput over the
    # single-process sharded service when there are cores to use.
    entry = run_workload(FULL)
    ratio = entry["metrics"]["proc_vs_single"]
    assert ratio >= 1.5, (
        f"process workers only reached {ratio:.2f}x the single-process "
        f"throughput on {_usable_cpus()} usable CPUs"
    )
