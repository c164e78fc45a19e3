"""Recorded benchmarks: the repo's performance trajectory.

``repro bench`` (or ``python tools/bench_record.py``) times pinned
workloads and appends the measurements to ``BENCH_runner.json``.  The
file accumulates machine info, workload parameters, wall times and
speedups per run, so performance drift is a diff instead of folklore.

Several workload families are recorded:

* **runner** workloads time the permutation-averaged estimation runner
  through both engines — the classic one-permutation-at-a-time
  ``serial`` sweep loop and the cross-permutation ``batch`` tensor
  engine — and verify the two produce bit-identical estimates;
* **serving** workloads time the multi-tenant serving layer
  (:class:`repro.serving.EstimationService`): batched idempotent
  ingestion across many concurrent sessions, cached estimate reads and a
  full snapshot/restore cycle, reported as columns/s and votes/s;
* **wal** workloads time log-structured durable ingestion end to end —
  ingest through the write-ahead log, simulate a crash, recover by log
  replay and verify the recovered estimates are bit-identical — then run
  the snapshot-per-save baseline under a wall-clock budget derived from
  the WAL time, recording how many sessions the baseline completed (the
  ``wal-100k`` shape is exactly the workload the old full-snapshot path
  cannot finish inside the budget);
* **proc-shards** workloads time hash-sharded ingestion through the
  per-shard worker processes (:class:`repro.serving.ProcessShardedService`)
  against the single-process :class:`repro.streaming.ShardedEstimationService`
  over the same deterministic workload, verify the two topologies produce
  bit-identical estimate reports, and record the machine-specific scaling
  ratio (no regression gate — single-core machines cannot show a win).

Regression checking is **relative**: wall times are machine-specific, but
the batch-vs-serial speedup ratio is not, so ``--check`` fails when the
measured speedup of a runner run drops below ``baseline_speedup /
factor`` (default factor 3; serving entries record throughput only and
are exempt).  The first entry recorded for a workload and scan path
becomes its baseline; CI runs the scaled-down ``smoke`` workload on
every push and uploads the updated record as an artifact.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.labels import CLEAN, DIRTY, UNSEEN
from repro.common.validation import check_int, check_positive
from repro.core import state as core_state
from repro.crowd.response_matrix import ResponseMatrix
from repro.experiments.runner import EstimationRunner, RunnerConfig

#: Record-file format version (bump when the layout changes).
FORMAT_VERSION = 2

#: Default record location (repo root when run from there).
DEFAULT_RECORD = "BENCH_runner.json"

#: The estimator set of the recorded workloads.
RUNNER_ESTIMATORS = (
    "voting",
    "chao92",
    "vchao92",
    "extrapolation",
    "switch",
    "switch_total",
)


@dataclass(frozen=True)
class BenchWorkload:
    """One pinned runner workload (matrix shape x permutations x checkpoints)."""

    name: str
    num_items: int
    num_columns: int
    num_permutations: int
    num_checkpoints: int
    seed: int = 17
    estimators: Tuple[str, ...] = RUNNER_ESTIMATORS

    def build_matrix(self) -> ResponseMatrix:
        """The workload's vote matrix (identical for every run of the name)."""
        rng = np.random.default_rng(self.seed)
        votes = rng.choice(
            [UNSEEN, CLEAN, DIRTY],
            size=(self.num_items, self.num_columns),
            p=[0.85, 0.05, 0.10],
        ).astype(np.int8)
        return ResponseMatrix.from_array(votes)


#: Registered runner workloads: the acceptance-criterion shape, a CI-size one,
#: and the wide sweeps (R >= 32) where the (R, N, K) tensor engine and the
#: compiled scan kernels are meant to pay off.
WORKLOADS: Dict[str, BenchWorkload] = {
    "full": BenchWorkload(
        name="runner_5000x200",
        num_items=5000,
        num_columns=200,
        num_permutations=10,
        num_checkpoints=20,
    ),
    "smoke": BenchWorkload(
        name="runner_smoke_1500x120",
        num_items=1500,
        num_columns=120,
        num_permutations=6,
        num_checkpoints=12,
    ),
    "wide": BenchWorkload(
        name="runner_wide_3000x200x32",
        num_items=3000,
        num_columns=200,
        num_permutations=32,
        num_checkpoints=20,
    ),
    "wide-smoke": BenchWorkload(
        name="runner_wide_smoke_800x100x32",
        num_items=800,
        num_columns=100,
        num_permutations=32,
        num_checkpoints=10,
    ),
}


@dataclass(frozen=True)
class ServingWorkload:
    """One pinned multi-session serving workload.

    ``num_sessions`` tenants each ingest ``num_columns`` task columns in
    batches of ``batch_columns`` (every batch carrying a ``(source,
    sequence)`` idempotency pair, with one duplicate delivery per batch to
    exercise the no-op path), read estimates after every batch plus one
    guaranteed-cached re-read, and finally round-trip through
    snapshot/restore.
    """

    name: str
    num_sessions: int
    num_items: int
    num_columns: int
    items_per_column: int = 12
    batch_columns: int = 10
    seed: int = 23
    estimators: Tuple[str, ...] = ("voting", "chao92", "switch_total")

    def build_columns(self) -> List[List[Dict[int, int]]]:
        """Per-session column batches (identical for every run of the name)."""
        rng = np.random.default_rng(self.seed)
        sessions = []
        for _ in range(self.num_sessions):
            columns = []
            for _ in range(self.num_columns):
                items = rng.choice(
                    self.num_items, size=self.items_per_column, replace=False
                )
                votes = rng.choice([CLEAN, DIRTY], size=self.items_per_column, p=[0.6, 0.4])
                columns.append(
                    {int(item): int(vote) for item, vote in zip(items, votes)}
                )
            sessions.append(columns)
        return sessions


#: Registered serving workloads (ingestion-throughput family).
SERVING_WORKLOADS: Dict[str, ServingWorkload] = {
    "serving": ServingWorkload(
        name="serving_16x240",
        num_sessions=16,
        num_items=2000,
        num_columns=240,
    ),
    "serving-smoke": ServingWorkload(
        name="serving_smoke_6x80",
        num_sessions=6,
        num_items=600,
        num_columns=80,
    ),
}


@dataclass(frozen=True)
class WalWorkload:
    """One pinned durable-ingestion workload (WAL vs snapshot-per-save).

    ``num_sessions`` sessions are created and fed ``num_batches`` batches
    of ``columns_per_batch`` task columns each through a
    :class:`~repro.streaming.store.DirectorySessionStore` write-ahead
    log, with ``max_active`` bounding live memory (eviction is free under
    a WAL).  A crash is then simulated — the service and its in-memory
    sessions are dropped — and a sample of ``verify_sample`` sessions is
    recovered by snapshot + log replay and checked **bit-identical**
    against the estimates recorded live.  Finally the snapshot-per-save
    baseline (the pre-WAL durable path: a full npz snapshot after every
    mutation) runs the same ingestion under a wall-clock budget of
    ``max(wal_time * baseline_budget_factor, baseline_budget_floor_s)``
    seconds, recording how many sessions it completed.

    Columns are a pure arithmetic function of (session, batch, column) —
    no RNG state to carry — so any subset of sessions can be regenerated
    independently for verification.
    """

    name: str
    num_sessions: int
    num_items: int = 30
    num_batches: int = 4
    columns_per_batch: int = 3
    items_per_column: int = 8
    max_active: int = 256
    verify_sample: int = 25
    baseline_budget_factor: float = 3.0
    baseline_budget_floor_s: float = 5.0
    estimators: Tuple[str, ...] = ("voting", "chao92")

    def session_name(self, session_index: int) -> str:
        return f"wal-{session_index:06d}"

    def batch(self, session_index: int, batch_index: int) -> List[Dict[int, int]]:
        """The batch's columns, regenerable for any session independently."""
        columns = []
        for column_index in range(self.columns_per_batch):
            base = (
                session_index * 7919
                + batch_index * 104729
                + column_index * 1299709
            )
            columns.append(
                {
                    (base + slot * 17) % self.num_items: (
                        CLEAN if (base >> slot) & 1 else DIRTY
                    )
                    for slot in range(self.items_per_column)
                }
            )
        return columns

    def verify_indexes(self) -> List[int]:
        """Evenly spread sample of sessions to recover and verify."""
        sample = min(self.verify_sample, self.num_sessions)
        step = max(1, self.num_sessions // sample)
        return list(range(0, self.num_sessions, step))[:sample]


#: Registered WAL workloads: the CI-sized shape and the acceptance-criterion
#: 100k-session shape the snapshot-per-save baseline cannot complete.
WAL_WORKLOADS: Dict[str, WalWorkload] = {
    "wal-smoke": WalWorkload(
        name="wal_smoke_400x12",
        num_sessions=400,
    ),
    "wal-100k": WalWorkload(
        name="wal_100000x12",
        num_sessions=100_000,
        baseline_budget_factor=2.0,
        baseline_budget_floor_s=30.0,
    ),
}


@dataclass(frozen=True)
class HttpWorkload:
    """One pinned HTTP serving workload (synthetic worker fleet).

    A real :class:`~repro.serving.http.HttpServingServer` is booted
    in-process over an in-memory store (so the numbers isolate the wire
    path, not the disk), and a :class:`~repro.serving.loadgen.FleetConfig`
    worker fleet drives it concurrently through the urllib
    :class:`~repro.serving.http.SessionClient` — bursty arrivals,
    deliberate duplicate re-sends and reordered deliveries included.
    Before anything is recorded, the served estimates are checked
    **bit-identical** against :func:`replay_applied_batches` replaying the
    acknowledged batches through plain sessions; a throughput number for
    a server that loses or double-applies batches is worse than none.

    The recorded entry carries multi-client throughput (requests/s,
    columns/s) and the request-latency tail (p50/p95/p99 ms).  Like the
    serving family it records machine-specific numbers and therefore has
    no ``speedups`` ratio and no regression gate.
    """

    name: str
    num_sessions: int = 2
    num_workers: int = 6
    num_items: int = 100
    batches_per_worker: int = 5
    columns_per_batch: int = 3
    items_per_column: int = 10
    workers_per_burst: int = 4
    burst_gap_s: float = 0.0
    duplicate_every: int = 3
    reorder_every: int = 4
    estimators: Tuple[str, ...] = ("voting", "chao92", "switch_total")
    seed: int = 7


#: Registered HTTP workloads: the CI-sized smoke shape and the heavier
#: multi-burst load shape behind the recorded latency tail.
HTTP_WORKLOADS: Dict[str, HttpWorkload] = {
    "http-smoke": HttpWorkload(
        name="http_smoke_2x6",
    ),
    "http-load": HttpWorkload(
        name="http_load_4x16",
        num_sessions=4,
        num_workers=16,
        num_items=250,
        batches_per_worker=12,
        columns_per_batch=4,
        items_per_column=12,
        workers_per_burst=4,
        burst_gap_s=0.05,
        reorder_every=5,
    ),
}


@dataclass(frozen=True)
class ProcShardsWorkload:
    """One pinned process-sharding workload (worker processes vs one process).

    ``num_sessions`` sessions are spread over ``num_shards`` shards by the
    sha256 routing both services share and fed ``num_batches`` batches of
    ``columns_per_batch`` columns each from ``threads`` concurrent client
    threads — first through the single-process
    :class:`~repro.streaming.ShardedEstimationService`, then through the
    :class:`~repro.serving.ProcessShardedService` per-shard worker
    processes over a fresh root.  Before anything is recorded every
    session's estimate report is checked **bit-identical** between the
    two topologies.

    Columns are a pure arithmetic function of (session, batch, column) in
    the WAL-workload style, so both runs ingest the same bytes without
    carrying RNG state.  Wall times are machine-specific, so the entry
    records a ``scaling`` section (not ``speedups``) and carries no
    regression gate — a single-core machine cannot show a multi-process
    win.
    """

    name: str
    num_shards: int = 4
    num_sessions: int = 16
    num_items: int = 30
    num_batches: int = 6
    columns_per_batch: int = 4
    items_per_column: int = 8
    threads: int = 4
    estimators: Tuple[str, ...] = ("voting", "chao92")

    def session_name(self, session_index: int) -> str:
        return f"tenant-{session_index:04d}"

    def batch(self, session_index: int, batch_index: int) -> List[Dict[int, int]]:
        """The batch's columns, regenerable for any session independently."""
        columns = []
        for column_index in range(self.columns_per_batch):
            base = (
                session_index * 7919
                + batch_index * 104729
                + column_index * 1299709
            )
            columns.append(
                {
                    (base + slot * 17) % self.num_items: (
                        CLEAN if (base >> slot) & 1 else DIRTY
                    )
                    for slot in range(self.items_per_column)
                }
            )
        return columns


#: Registered process-sharding workloads: the CI-sized smoke shape and the
#: heavier shape behind the recorded multi-core scaling ratio.
PROC_SHARDS_WORKLOADS: Dict[str, ProcShardsWorkload] = {
    "proc-shards": ProcShardsWorkload(
        name="proc_shards_4x32",
        num_shards=4,
        num_sessions=32,
        num_batches=10,
        threads=8,
    ),
    "proc-shards-smoke": ProcShardsWorkload(
        name="proc_shards_smoke_2x8",
        num_shards=2,
        num_sessions=8,
        num_batches=4,
        threads=4,
    ),
}


def machine_info() -> Dict[str, object]:
    """The environment fingerprint stored with every entry."""
    try:
        usable_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        usable_cpus = os.cpu_count() or 1
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
        "usable_cpus": usable_cpus,
    }


def _time_run(runner: EstimationRunner, matrix: ResponseMatrix, repeats: int):
    """Best-of-``repeats`` wall time plus the (identical) last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        result = runner.run(matrix)
        best = min(best, time.perf_counter() - start)
    return best, result


def _series_values(result) -> Dict[str, List[tuple]]:
    return {
        name: [point.values for point in series.points]
        for name, series in result.series.items()
    }


def run_workload(
    workload: BenchWorkload,
    *,
    n_jobs: int = 1,
    repeats: int = 2,
) -> Dict[str, object]:
    """Time one workload through both engines and build a record entry.

    The entry's ``backend`` names the scan path the batch engine ran:
    ``numba`` (the fused kernels, used when numba imports) or ``numpy``
    (the vectorised reference).  The serial engine always runs the
    reference, so where numba is installed the mandatory serial-vs-batch
    equality check also verifies the fused kernels bit for bit.

    Raises ``RuntimeError`` if the engines disagree on a single estimate —
    a benchmark that silently measures a wrong result is worse than none.
    """
    check_int(n_jobs, "n_jobs", minimum=1)
    check_int(repeats, "repeats", minimum=1)
    scan_path = "numba" if core_state._FUSED_SCANS else "numpy"
    matrix = workload.build_matrix()
    shared = dict(
        num_permutations=workload.num_permutations,
        num_checkpoints=workload.num_checkpoints,
        seed=3,
    )
    estimators = list(workload.estimators)
    # Warm-up outside the timed region (imports, registry, allocator, and —
    # where numba is installed — JIT compilation of the scan kernels).
    EstimationRunner(
        estimators, RunnerConfig(num_permutations=1, num_checkpoints=2)
    ).run(matrix.prefix(min(10, matrix.num_columns)))

    serial_seconds, serial_result = _time_run(
        EstimationRunner(estimators, RunnerConfig(engine="serial", **shared)),
        matrix,
        repeats,
    )
    batch_seconds, batch_result = _time_run(
        EstimationRunner(estimators, RunnerConfig(engine="batch", **shared)),
        matrix,
        repeats,
    )
    if _series_values(serial_result) != _series_values(batch_result):
        raise RuntimeError(
            f"serial and batch engines disagree ({scan_path} scans) — "
            "refusing to record the benchmark"
        )

    parallel_seconds = None
    if n_jobs > 1:
        parallel_seconds, parallel_result = _time_run(
            EstimationRunner(
                estimators,
                RunnerConfig(engine="batch", n_jobs=n_jobs, **shared),
            ),
            matrix,
            repeats,
        )
        if _series_values(parallel_result) != _series_values(batch_result):
            raise RuntimeError(
                "parallel batch engine disagrees — refusing to record the benchmark"
            )

    return {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": machine_info(),
        "params": asdict(workload),
        "backend": scan_path,
        "timings_s": {
            "serial_engine": round(serial_seconds, 4),
            "batch_engine": round(batch_seconds, 4),
            "batch_engine_parallel": (
                round(parallel_seconds, 4) if parallel_seconds is not None else None
            ),
            "n_jobs": n_jobs,
            "repeats": repeats,
        },
        "speedups": {
            "batch_vs_serial": round(serial_seconds / batch_seconds, 3),
            "parallel_vs_serial": (
                round(serial_seconds / parallel_seconds, 3)
                if parallel_seconds
                else None
            ),
        },
    }


def run_serving_workload(
    workload: ServingWorkload, *, repeats: int = 2
) -> Dict[str, object]:
    """Time one multi-session serving workload and build a record entry.

    The measured loop is the operational hot path: batched ingestion with
    idempotency bookkeeping (including one duplicate delivery per batch,
    which must be a fast no-op), an estimate read after every batch plus a
    cached re-read, and one final snapshot/restore round trip per session.
    Raises ``RuntimeError`` if a restored session disagrees with its live
    original — a throughput number for a broken serving layer is worse
    than none.
    """
    check_int(repeats, "repeats", minimum=1)
    from repro.streaming import EstimationService, MemorySessionStore

    per_session = workload.build_columns()
    batches = max(1, -(-workload.num_columns // workload.batch_columns))
    best_ingest = float("inf")
    best_cycle = float("inf")
    cache_hit_rate = 0.0
    for _ in range(repeats):
        gc.collect()
        service = EstimationService(MemorySessionStore())
        for session_index in range(workload.num_sessions):
            service.create_session(
                f"tenant-{session_index:03d}",
                range(workload.num_items),
                list(workload.estimators),
                keep_votes=False,
            )
        start = time.perf_counter()
        for batch_index in range(batches):
            low = batch_index * workload.batch_columns
            high = min(low + workload.batch_columns, workload.num_columns)
            for session_index in range(workload.num_sessions):
                name = f"tenant-{session_index:03d}"
                batch = per_session[session_index][low:high]
                service.ingest(
                    name, batch, source="bench", sequence=batch_index + 1
                )
                # A retried delivery of the same batch must be a no-op.
                duplicate = service.ingest(
                    name, batch, source="bench", sequence=batch_index + 1
                )
                if not duplicate.duplicate:
                    raise RuntimeError("duplicate delivery was not dropped")
                service.estimates(name)
                service.estimates(name)  # guaranteed cache hit
        best_ingest = min(best_ingest, time.perf_counter() - start)
        cache_hit_rate = service.estimate_cache_hits / service.estimates_served

        start = time.perf_counter()
        for session_index in range(workload.num_sessions):
            name = f"tenant-{session_index:03d}"
            before = service.estimates(name)
            service.snapshot(name)
            service.evict(name)
            after = service.estimates(name)  # transparently restored
            if before != after:
                raise RuntimeError(
                    "restored session disagrees with the live original — "
                    "refusing to record the benchmark"
                )
        best_cycle = min(best_cycle, time.perf_counter() - start)

    total_columns = workload.num_sessions * workload.num_columns
    total_votes = total_columns * workload.items_per_column
    return {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": machine_info(),
        "params": asdict(workload),
        "timings_s": {
            "ingest_and_estimate": round(best_ingest, 4),
            "snapshot_restore_cycle": round(best_cycle, 4),
            "repeats": repeats,
        },
        "throughput": {
            "columns_per_s": round(total_columns / best_ingest, 1),
            "votes_per_s": round(total_votes / best_ingest, 1),
            "estimate_cache_hit_rate": round(cache_hit_rate, 3),
        },
    }


def run_wal_workload(workload: WalWorkload) -> Dict[str, object]:
    """Time one durable-ingestion workload and build a record entry.

    Three phases, all over real directory stores in a temporary root:

    1. **WAL ingest** — create every session and ingest every batch
       through the write-ahead log (O(batch) appends, LRU eviction free),
       recording live estimates for the verification sample.
    2. **Crash + recover** — drop the service, reopen the store cold and
       verify the sampled sessions' recovered estimates are bit-identical
       to the live ones (``RuntimeError`` on any mismatch — a throughput
       number for a lossy log is worse than none).
    3. **Snapshot-per-save baseline** — the pre-WAL durable path (full
       npz snapshot after every mutation) under a wall-clock budget
       derived from phase 1, recording completed sessions and whether
       the budget ran out.
    """
    import shutil
    import tempfile

    from repro.streaming import DirectorySessionStore, EstimationService

    root = Path(tempfile.mkdtemp(prefix="repro-bench-wal-"))
    try:
        verify = workload.verify_indexes()
        live_estimates: Dict[str, object] = {}

        gc.collect()
        service = EstimationService(
            DirectorySessionStore(root / "wal"), max_active=workload.max_active
        )
        start = time.perf_counter()
        for session_index in range(workload.num_sessions):
            name = workload.session_name(session_index)
            service.create_session(
                name,
                range(workload.num_items),
                list(workload.estimators),
                keep_votes=False,
            )
            for batch_index in range(workload.num_batches):
                service.ingest(
                    name,
                    workload.batch(session_index, batch_index),
                    source="bench",
                    sequence=batch_index + 1,
                )
        wal_seconds = time.perf_counter() - start
        for session_index in verify:
            name = workload.session_name(session_index)
            live_estimates[name] = service.estimates(name)

        # Crash simulation: the service (and every live session) is gone;
        # only the store's snapshots + logs survive.  A cold service must
        # rebuild the sampled sessions by log replay, bit-identically.
        del service
        gc.collect()
        start = time.perf_counter()
        recovered = EstimationService(DirectorySessionStore(root / "wal"))
        for session_index in verify:
            name = workload.session_name(session_index)
            if recovered.estimates(name) != live_estimates[name]:
                raise RuntimeError(
                    f"recovered estimates for {name!r} differ from the live "
                    "session — refusing to record the benchmark"
                )
        verify_seconds = time.perf_counter() - start

        # Snapshot-per-save baseline under a budget: the old durable path
        # wrote a full snapshot after every mutation, so it pays O(state)
        # where the WAL pays O(batch).
        budget = max(
            wal_seconds * workload.baseline_budget_factor,
            workload.baseline_budget_floor_s,
        )
        gc.collect()
        baseline = EstimationService(
            DirectorySessionStore(root / "baseline"),
            max_active=workload.max_active,
            wal=False,
        )
        completed = 0
        exceeded = False
        start = time.perf_counter()
        for session_index in range(workload.num_sessions):
            if time.perf_counter() - start > budget:
                exceeded = True
                break
            name = workload.session_name(session_index)
            baseline.create_session(
                name,
                range(workload.num_items),
                list(workload.estimators),
                keep_votes=False,
            )
            baseline.snapshot(name)
            for batch_index in range(workload.num_batches):
                baseline.ingest(
                    name,
                    workload.batch(session_index, batch_index),
                    source="bench",
                    sequence=batch_index + 1,
                )
                baseline.snapshot(name)
            completed += 1
        baseline_seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(root, ignore_errors=True)

    columns_per_session = workload.num_batches * workload.columns_per_batch
    total_columns = workload.num_sessions * columns_per_session
    return {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": machine_info(),
        "params": asdict(workload),
        "timings_s": {
            "wal_ingest": round(wal_seconds, 4),
            "recovery_verify": round(verify_seconds, 4),
            "baseline_snapshot_per_save": round(baseline_seconds, 4),
        },
        "wal": {
            "columns_per_s": round(total_columns / wal_seconds, 1),
            "verified_sessions": len(verify),
            "bit_identical": True,
            "baseline": {
                "budget_s": round(budget, 2),
                "completed_sessions": completed,
                "total_sessions": workload.num_sessions,
                "budget_exceeded": exceeded,
                "columns_per_s": round(
                    completed * columns_per_session / baseline_seconds, 1
                )
                if baseline_seconds > 0
                else None,
            },
        },
    }


def run_http_workload(workload: HttpWorkload) -> Dict[str, object]:
    """Time one HTTP serving workload and build a record entry.

    Boots the threaded HTTP server over an in-memory service, runs the
    workload's worker fleet against it through real sockets, then
    replays the acknowledged batches through plain
    :class:`~repro.streaming.StreamingSession` objects and refuses to
    record unless every session's served estimates are bit-identical to
    the replay.
    """
    from repro.serving import (
        EstimationService,
        FleetConfig,
        HttpServingServer,
        LoadGenerator,
        MemorySessionStore,
        SessionClient,
        replay_applied_batches,
    )

    config = FleetConfig(
        num_sessions=workload.num_sessions,
        num_workers=workload.num_workers,
        num_items=workload.num_items,
        batches_per_worker=workload.batches_per_worker,
        columns_per_batch=workload.columns_per_batch,
        items_per_column=workload.items_per_column,
        workers_per_burst=workload.workers_per_burst,
        burst_gap_s=workload.burst_gap_s,
        duplicate_every=workload.duplicate_every,
        reorder_every=workload.reorder_every,
        estimators=workload.estimators,
        seed=workload.seed,
    )
    gc.collect()
    service = EstimationService(MemorySessionStore())
    with HttpServingServer(service) as server:
        client = SessionClient(server.url)
        report = LoadGenerator(client, config).run()
        served = {
            name: client.estimates(name) for name in config.session_names()
        }
    replayed = replay_applied_batches(report)
    for name, results in served.items():
        if results != replayed[name]:
            raise RuntimeError(
                f"served estimates for {name!r} differ from the deterministic "
                "replay of the acknowledged batches — refusing to record the "
                "benchmark"
            )

    latency = report.latency_summary()
    return {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": machine_info(),
        "params": asdict(workload),
        "timings_s": {
            "fleet_wall": round(report.wall_s, 4),
        },
        "http": {
            "requests": report.deliveries,
            "applied_batches": report.applied_deliveries,
            "duplicate_acks": report.duplicate_acks,
            "late_drops": report.late_drops,
            "requests_per_s": round(report.requests_per_s, 1),
            "columns_per_s": round(report.columns_per_s, 1),
            "votes_applied": report.votes_applied,
            "latency_ms": {
                key: round(value * 1000, 3) for key, value in latency.items()
            },
            "verified_sessions": len(served),
            "bit_identical": True,
        },
    }


def run_proc_shards_workload(workload: ProcShardsWorkload) -> Dict[str, object]:
    """Time one process-sharding workload and build a record entry.

    Both topologies ingest the identical deterministic workload from
    ``workload.threads`` client threads over real directory stores in a
    temporary root: the single-process
    :class:`~repro.streaming.ShardedEstimationService` first, then the
    :class:`~repro.serving.ProcessShardedService` per-shard worker
    processes.  Every session's estimate report is compared
    **bit-identically** between the two (``RuntimeError`` on mismatch — a
    scaling number for a topology that changes answers is worse than
    none) before the entry is built.
    """
    import shutil
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from repro.serving import ProcessShardedService
    from repro.serving.http import report_to_payload
    from repro.streaming import ShardedEstimationService

    def feed(service, session_index: int) -> None:
        name = workload.session_name(session_index)
        for batch_index in range(workload.num_batches):
            service.ingest(
                name,
                workload.batch(session_index, batch_index),
                source="bench",
                sequence=batch_index + 1,
            )

    def drive(service) -> float:
        for session_index in range(workload.num_sessions):
            service.create_session(
                workload.session_name(session_index),
                range(workload.num_items),
                list(workload.estimators),
                keep_votes=False,
            )
        gc.collect()
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=workload.threads) as pool:
            for future in [
                pool.submit(feed, service, index)
                for index in range(workload.num_sessions)
            ]:
                future.result()
        return time.perf_counter() - start

    def reports(service) -> Dict[str, str]:
        return {
            workload.session_name(index): json.dumps(
                report_to_payload(
                    service.estimate_report(workload.session_name(index))
                ),
                sort_keys=True,
            )
            for index in range(workload.num_sessions)
        }

    root = Path(tempfile.mkdtemp(prefix="repro-bench-proc-"))
    try:
        single = ShardedEstimationService(
            root / "single", num_shards=workload.num_shards
        )
        single_seconds = drive(single)
        single_reports = reports(single)

        with ProcessShardedService(
            root / "workers", num_shards=workload.num_shards
        ) as workers:
            workers_seconds = drive(workers)
            worker_reports = reports(workers)
            worker_count = len(workers.worker_pids())
    finally:
        shutil.rmtree(root, ignore_errors=True)

    for name, expected in single_reports.items():
        if worker_reports[name] != expected:
            raise RuntimeError(
                f"process-worker estimates for {name!r} differ from the "
                "single-process shards — refusing to record the benchmark"
            )

    total_columns = (
        workload.num_sessions * workload.num_batches * workload.columns_per_batch
    )
    return {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": machine_info(),
        "params": asdict(workload),
        "timings_s": {
            "single_process_ingest": round(single_seconds, 4),
            "process_workers_ingest": round(workers_seconds, 4),
        },
        "scaling": {
            "single_columns_per_s": round(total_columns / single_seconds, 1),
            "workers_columns_per_s": round(total_columns / workers_seconds, 1),
            "proc_vs_single": round(single_seconds / workers_seconds, 2),
            "workers": worker_count,
            "verified_sessions": workload.num_sessions,
            "bit_identical": True,
        },
    }


#: Schema note written into the record document (refreshed on every save so
#: an existing file picks up wording changes).
RECORD_NOTE = (
    "Performance trajectory of the estimation runner; append entries with "
    "`repro bench`. Regression checks compare batch-vs-serial speedup ratios "
    "(machine-independent), not raw wall times. Runner entries carry a "
    "'backend' field naming the batch engine's scan path (numpy: vectorised; "
    "numba: fused kernels); each workload keeps one baseline per scan path "
    "under 'baselines' (entries that never run the engine: 'numpy') and "
    "`--check` compares like with like."
)


def load_record(path: Path) -> Dict[str, object]:
    """Read (or initialise) the benchmark record document."""
    if path.exists():
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported benchmark record version in {path}: "
                f"{record.get('format_version')!r}"
            )
        return record
    return {
        "format_version": FORMAT_VERSION,
        "note": RECORD_NOTE,
        "workloads": {},
    }


def _entry_backend(entry: Dict[str, object]) -> str:
    """The scan path an entry ran (entries that never run the engine: numpy)."""
    return str(entry.get("backend", "numpy"))


def update_record(
    record: Dict[str, object], entry: Dict[str, object]
) -> Optional[Dict[str, object]]:
    """Append ``entry`` to its workload's history; returns the baseline.

    Baselines are kept per scan path (``slot["baselines"][backend]``) so
    the regression gate only ever compares like with like: a numba entry
    is never judged against a numpy baseline or vice versa.  The first
    entry recorded for a (workload, scan path) pair becomes that pair's
    baseline and ``None`` is returned for it.
    """
    workloads = record.setdefault("workloads", {})
    slot = workloads.setdefault(
        entry["params"]["name"], {"baselines": {}, "history": []}
    )
    baseline = slot["baselines"].setdefault(_entry_backend(entry), entry)
    slot["history"].append(entry)
    return None if baseline is entry else baseline


def save_record(record: Dict[str, object], path: Path) -> None:
    """Write the record with stable formatting (diff-friendly)."""
    path.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def regression_failure(
    entry: Dict[str, object],
    baseline: Optional[Dict[str, object]],
    *,
    factor: float = 3.0,
) -> Optional[str]:
    """A message when ``entry`` regressed >``factor``x against ``baseline``.

    Compares speedup *ratios*, which transfer across machines; ``None``
    means no regression (or no baseline to compare against yet).
    """
    check_positive(factor, "factor")
    if baseline is None:
        return None
    if "speedups" not in entry or "speedups" not in baseline:
        # Serving entries record machine-specific throughput, not a
        # machine-independent ratio, so they carry no regression gate.
        return None
    current = float(entry["speedups"]["batch_vs_serial"])
    recorded = float(baseline["speedups"]["batch_vs_serial"])
    floor = recorded / factor
    if current < floor:
        return (
            f"batch-engine speedup regressed: {current:.2f}x vs the recorded "
            f"baseline {recorded:.2f}x (floor {floor:.2f}x at factor {factor})"
        )
    return None


def format_summary(entry: Dict[str, object]) -> str:
    """The one-line summary printed in CI logs."""
    timings = entry["timings_s"]
    if "scaling" in entry:
        scaling = entry["scaling"]
        return (
            f"BENCH {entry['params']['name']}: single-process "
            f"{timings['single_process_ingest']:.3f}s "
            f"({scaling['single_columns_per_s']:.0f} col/s), "
            f"{scaling['workers']} worker process(es) "
            f"{timings['process_workers_ingest']:.3f}s "
            f"({scaling['workers_columns_per_s']:.0f} col/s, "
            f"{scaling['proc_vs_single']:.2f}x), "
            f"{scaling['verified_sessions']} session(s) verified bit-identical "
            f"on {entry['machine']['usable_cpus']} usable cpu(s)"
        )
    if "http" in entry:
        http = entry["http"]
        latency = http["latency_ms"]
        return (
            f"BENCH {entry['params']['name']}: {http['requests']} requests in "
            f"{timings['fleet_wall']:.3f}s ({http['requests_per_s']:.0f} req/s, "
            f"{http['columns_per_s']:.0f} col/s), latency p50/p95/p99 "
            f"{latency['p50']:.1f}/{latency['p95']:.1f}/{latency['p99']:.1f} ms, "
            f"{http['duplicate_acks']} duplicate(s) acknowledged, "
            f"{http['verified_sessions']} session(s) verified bit-identical "
            f"on {entry['machine']['usable_cpus']} usable cpu(s)"
        )
    if "wal" in entry:
        wal = entry["wal"]
        base = wal["baseline"]
        completed = (
            f"completed {base['completed_sessions']}/{base['total_sessions']} "
            f"sessions before the {base['budget_s']:.0f}s budget ran out"
            if base["budget_exceeded"]
            else f"completed all {base['total_sessions']} sessions "
            f"in {timings['baseline_snapshot_per_save']:.3f}s"
        )
        return (
            f"BENCH {entry['params']['name']}: WAL ingest "
            f"{timings['wal_ingest']:.3f}s ({wal['columns_per_s']:.0f} col/s), "
            f"crash-recovery verified {wal['verified_sessions']} session(s) "
            f"bit-identical in {timings['recovery_verify']:.3f}s; "
            f"snapshot-per-save baseline {completed} "
            f"on {entry['machine']['usable_cpus']} usable cpu(s)"
        )
    if "throughput" in entry:
        throughput = entry["throughput"]
        return (
            f"BENCH {entry['params']['name']}: "
            f"ingest+estimate {timings['ingest_and_estimate']:.3f}s "
            f"({throughput['columns_per_s']:.0f} col/s, "
            f"{throughput['votes_per_s']:.0f} votes/s, "
            f"cache hit {throughput['estimate_cache_hit_rate']:.0%}), "
            f"snapshot/restore cycle {timings['snapshot_restore_cycle']:.3f}s "
            f"on {entry['machine']['usable_cpus']} usable cpu(s)"
        )
    speedups = entry["speedups"]
    parallel = (
        f", n_jobs={timings['n_jobs']} {timings['batch_engine_parallel']:.3f}s "
        f"({speedups['parallel_vs_serial']:.2f}x)"
        if timings["batch_engine_parallel"] is not None
        else ""
    )
    return (
        f"BENCH {entry['params']['name']}: [{_entry_backend(entry)}] serial "
        f"{timings['serial_engine']:.3f}s, "
        f"batch {timings['batch_engine']:.3f}s "
        f"({speedups['batch_vs_serial']:.2f}x){parallel} "
        f"on {entry['machine']['usable_cpus']} usable cpu(s)"
    )


def run_and_record(
    *,
    workload: str = "full",
    n_jobs: int = 1,
    repeats: int = 2,
    output: Optional[str] = None,
    check: bool = False,
    factor: float = 3.0,
    dry_run: bool = False,
) -> int:
    """The ``repro bench`` implementation.  Returns a process exit code."""
    known = {
        **WORKLOADS,
        **SERVING_WORKLOADS,
        **WAL_WORKLOADS,
        **HTTP_WORKLOADS,
        **PROC_SHARDS_WORKLOADS,
    }
    if workload not in known:
        raise ValueError(
            f"unknown workload {workload!r}; available: {sorted(known)}"
        )
    path = Path(output or DEFAULT_RECORD)
    record = load_record(path)
    record["note"] = RECORD_NOTE
    if workload in PROC_SHARDS_WORKLOADS:
        entry = run_proc_shards_workload(PROC_SHARDS_WORKLOADS[workload])
    elif workload in HTTP_WORKLOADS:
        entry = run_http_workload(HTTP_WORKLOADS[workload])
    elif workload in WAL_WORKLOADS:
        entry = run_wal_workload(WAL_WORKLOADS[workload])
    elif workload in SERVING_WORKLOADS:
        entry = run_serving_workload(SERVING_WORKLOADS[workload], repeats=repeats)
    else:
        entry = run_workload(WORKLOADS[workload], n_jobs=n_jobs, repeats=repeats)
    baseline = update_record(record, entry)
    print(format_summary(entry))
    if not dry_run:
        save_record(record, path)
        print(f"recorded -> {path}")
    failure = regression_failure(entry, baseline, factor=factor) if check else None
    if failure:
        print(f"REGRESSION: {failure}")
        return 1
    return 0


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the bench options to ``parser``.

    The single definition behind both entry points — the ``repro bench``
    subcommand and ``tools/bench_record.py`` — so workload names and the
    default record path cannot drift between them.
    """
    which = parser.add_mutually_exclusive_group()
    which.add_argument(
        "--workload",
        choices=sorted(WORKLOADS)
        + sorted(SERVING_WORKLOADS)
        + sorted(WAL_WORKLOADS)
        + sorted(HTTP_WORKLOADS)
        + sorted(PROC_SHARDS_WORKLOADS),
        default="full",
        help=(
            "which pinned workload to time "
            "(runner, serving, wal, http or proc-shards family)"
        ),
    )
    which.add_argument(
        "--smoke", action="store_true",
        help="shorthand for --workload smoke (the CI-sized workload)",
    )
    parser.add_argument("--n-jobs", type=int, default=1, help="also time the chunked parallel dispatch")
    parser.add_argument("--repeats", type=int, default=2, help="best-of-N timing repeats")
    parser.add_argument("--output", default=DEFAULT_RECORD, help="record file to update")
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when the speedup regressed more than --factor vs the baseline",
    )
    parser.add_argument(
        "--factor", type=float, default=3.0,
        help="allowed relative regression factor for --check",
    )
    parser.add_argument(
        "--dry-run", action="store_true", help="measure and print without writing"
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a parsed bench invocation (shared by both entry points)."""
    return run_and_record(
        workload="smoke" if args.smoke else args.workload,
        n_jobs=args.n_jobs,
        repeats=args.repeats,
        output=args.output,
        check=args.check,
        factor=args.factor,
        dry_run=args.dry_run,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench_record",
        description="Run the pinned runner workloads and update BENCH_runner.json.",
    )
    add_bench_arguments(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point shared by ``repro bench`` and ``tools/bench_record.py``."""
    return run_from_args(build_parser().parse_args(argv))
