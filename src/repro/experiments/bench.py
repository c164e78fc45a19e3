"""Recorded benchmarks: the repo's performance trajectory.

``python -m repro bench`` times one pinned
workload and appends its entry to ``BENCH_runner.json``, so performance
drift is a diff instead of folklore.  Every workload in the one
:data:`WORKLOADS` registry is a :class:`RecordedWorkload` of one of five
families (runner, serving, wal, http, proc-shards), and every entry has
one schema: ``{recorded_at, machine, params, timings_s, metrics}``.

Regression checking is **relative**: wall times are machine-specific,
but the batch-vs-serial speedup ratio is not, so ``--check`` fails when
``metrics["batch_vs_serial"]`` drops below ``baseline / factor``.  Only
runner entries carry that ratio; the other families are not gated.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import tempfile
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.exceptions import ConfigurationError
from repro.common.labels import CLEAN, DIRTY, UNSEEN
from repro.common.validation import check_int, check_positive
from repro.crowd.response_matrix import ResponseMatrix
from repro.experiments.runner import EstimationRunner, RunnerConfig

#: Record-file format version (bump when the layout changes).
FORMAT_VERSION = 4

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

#: What ``measure`` returns: wall times in seconds, then flat metrics.
Measurement = Tuple[Dict[str, float], Dict[str, object]]

#: An HTTP entry records a latency percentile above the median only when
#: at least this many requests lie beyond it (p95 from 200 requests, p99
#: from 1,000); below that it is one run's few largest latencies, not a tail.
TAIL_REQUESTS = 10


def recorded_percentiles(requests: int) -> Tuple[int, ...]:
    """The latency percentiles an HTTP entry of ``requests`` requests records."""
    return (50,) + tuple(
        quantile
        for quantile in (95, 99)
        if requests * (100 - quantile) // 100 >= TAIL_REQUESTS
    )


def _require_identical(what: str, expected: Dict, actual: Dict) -> None:
    """The oracle check every family ends with: a wrong answer gets no number."""
    for key in expected.keys() | actual.keys():
        if expected.get(key) != actual.get(key):
            raise RuntimeError(
                f"{what} disagree on {key!r} — refusing to record the benchmark"
            )


class RecordedWorkload:
    """One pinned workload of the recorded trajectory.

    Subclasses are frozen dataclasses: every field pins an input, and
    ``name`` keys the workload's slot in the record.  ``measure`` sets
    up, runs the timed body and checks the family's oracle; it returns
    ``(timings_s, metrics)`` or raises ``RuntimeError`` when the oracle
    fails — a benchmark that silently measures a wrong result is worse
    than none.  The wal, http and proc-shards families time one run and
    ignore ``repeats`` and ``n_jobs``.
    """

    name: str

    def measure(self, repeats: int, n_jobs: int) -> Measurement:
        """Set up, time and verify the workload; see the class docstring."""
        raise NotImplementedError


@dataclass(frozen=True)
class BenchWorkload(RecordedWorkload):
    """One pinned runner workload (matrix shape x permutations x checkpoints).

    Times the runner through the serial and the batch engine (best of
    ``repeats``), and with ``n_jobs > 1`` also the chunked parallel
    dispatch.  The serial and batch engines build their vote streams
    independently, and their results must be equal before anything is
    recorded.
    """

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

    def measure(self, repeats: int, n_jobs: int) -> Measurement:
        matrix = self.build_matrix()
        estimators = list(self.estimators)

        def timed(engine: str, jobs: int = 1):
            config = RunnerConfig(
                engine=engine,
                n_jobs=jobs,
                num_permutations=self.num_permutations,
                num_checkpoints=self.num_checkpoints,
                seed=3,
            )
            return _time_run(EstimationRunner(estimators, config), matrix, repeats)

        # Warm-up outside the timed region (imports, registry, allocator).
        EstimationRunner(
            estimators, RunnerConfig(num_permutations=1, num_checkpoints=2)
        ).run(matrix.prefix(min(10, matrix.num_columns)))

        serial_seconds, serial_result = timed("serial")
        batch_seconds, batch_result = timed("batch")
        batch_values = _series_values(batch_result)
        _require_identical(
            "serial and batch engines",
            _series_values(serial_result),
            batch_values,
        )
        timings = {"serial_engine": serial_seconds, "batch_engine": batch_seconds}
        metrics = {"batch_vs_serial": serial_seconds / batch_seconds}
        if n_jobs > 1:
            parallel_seconds, parallel_result = timed("batch", n_jobs)
            _require_identical(
                "batch and parallel batch engines",
                batch_values,
                _series_values(parallel_result),
            )
            timings["batch_engine_parallel"] = parallel_seconds
            metrics["parallel_vs_serial"] = serial_seconds / parallel_seconds
        return timings, metrics


@dataclass(frozen=True)
class ServingWorkload(RecordedWorkload):
    """One pinned multi-session serving workload (best of ``repeats``).

    ``num_sessions`` tenants each ingest ``num_columns`` task columns in
    batches of ``batch_columns``, every batch carrying a ``(source,
    sequence)`` pair and delivered twice (the retry must be a no-op),
    with an estimate read after every batch plus one cached re-read;
    then every session round-trips through snapshot/restore, which must
    give back its live estimates.
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

    def measure(self, repeats: int, n_jobs: int) -> Measurement:
        from repro.streaming import EstimationService, MemorySessionStore

        per_session = self.build_columns()
        names = [f"tenant-{index:03d}" for index in range(self.num_sessions)]
        batches = max(1, -(-self.num_columns // self.batch_columns))
        best_ingest = best_cycle = float("inf")
        for _ in range(repeats):
            gc.collect()
            service = EstimationService(MemorySessionStore())
            for name in names:
                service.create_session(
                    name, range(self.num_items), list(self.estimators), keep_votes=False
                )
            start = time.perf_counter()
            for batch_index in range(batches):
                low = batch_index * self.batch_columns
                for name, columns in zip(names, per_session):
                    batch = columns[low:low + self.batch_columns]
                    service.ingest(
                        name, batch, source="bench", sequence=batch_index + 1
                    )
                    # A retried delivery of the same batch must be a no-op.
                    retried = service.ingest(
                        name, batch, source="bench", sequence=batch_index + 1
                    )
                    if not retried.duplicate:
                        raise RuntimeError("a retried delivery was applied twice")
                    service.estimates(name)
                    service.estimates(name)  # guaranteed cache hit
            best_ingest = min(best_ingest, time.perf_counter() - start)
            cache_hit_rate = service.estimate_cache_hits / service.estimates_served

            live, restored = {}, {}
            start = time.perf_counter()
            for name in names:
                live[name] = service.estimates(name)
                service.snapshot(name)
                service.evict(name)
                restored[name] = service.estimates(name)  # transparently restored
            best_cycle = min(best_cycle, time.perf_counter() - start)
            _require_identical("live and restored sessions", live, restored)

        columns_per_s = self.num_sessions * self.num_columns / best_ingest
        return (
            {"ingest_and_estimate": best_ingest, "snapshot_restore_cycle": best_cycle},
            {
                "columns_per_s": columns_per_s,
                "votes_per_s": columns_per_s * self.items_per_column,
                "estimate_cache_hit_rate": cache_hit_rate,
            },
        )


class _ArithmeticSessions:
    """Sessions fed columns that are a pure arithmetic function of
    (session, batch, column): no RNG state to carry, so any session can be
    created, fed or verified independently of the others.
    """

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

    def create(self, service, session_index: int) -> None:
        """Create the session on any serving façade."""
        service.create_session(
            self.session_name(session_index),
            range(self.num_items),
            list(self.estimators),
            keep_votes=False,
        )

    def feed(self, service, session_index: int) -> None:
        """Ingest the session's batches in order, sequences ``1..num_batches``."""
        name = self.session_name(session_index)
        for batch_index in range(self.num_batches):
            service.ingest(
                name,
                self.batch(session_index, batch_index),
                source="bench",
                sequence=batch_index + 1,
            )


@dataclass(frozen=True)
class WalWorkload(_ArithmeticSessions, RecordedWorkload):
    """One pinned durable-ingestion workload (WAL vs snapshot-per-save).

    ``num_sessions`` sessions are created and fed through a
    :class:`~repro.streaming.store.DirectorySessionStore` write-ahead log
    (``max_active`` bounds live memory; eviction is free under a WAL).
    After a simulated crash, ``verify_sample`` sessions are recovered by
    log replay and must equal their live estimates.  The snapshot-per-save
    baseline (a plain :class:`~repro.streaming.StreamingSession` whose full
    snapshot is saved to a ``DirectorySessionStore`` after every mutation:
    O(state) where the WAL pays O(batch)) then runs the same ingestion for
    at most ``max(wal_time * baseline_budget_factor,
    baseline_budget_floor_s)`` s.
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

    def verify_indexes(self) -> List[int]:
        """Evenly spread sample of sessions to recover and verify."""
        sample = min(self.verify_sample, self.num_sessions)
        step = max(1, self.num_sessions // sample)
        return list(range(0, self.num_sessions, step))[:sample]

    def ingest_all(self, service) -> float:
        """Create and feed every session in turn; returns the seconds taken."""
        start = time.perf_counter()
        for session_index in range(self.num_sessions):
            self.create(service, session_index)
            self.feed(service, session_index)
        return time.perf_counter() - start

    def measure(self, repeats: int, n_jobs: int) -> Measurement:
        from repro.streaming import (
            DirectorySessionStore,
            EstimationService,
            StreamingSession,
        )

        verify = [self.session_name(index) for index in self.verify_indexes()]
        with tempfile.TemporaryDirectory(
            prefix="repro-bench-wal-", ignore_cleanup_errors=True
        ) as scratch:
            root = Path(scratch)
            gc.collect()
            service = EstimationService(
                DirectorySessionStore(root / "wal"), max_active=self.max_active
            )
            wal_seconds = self.ingest_all(service)
            live = {name: service.estimates(name) for name in verify}

            # The crash: only the store's snapshots and logs survive.
            del service
            gc.collect()
            start = time.perf_counter()
            cold = EstimationService(DirectorySessionStore(root / "wal"))
            recovered = {name: cold.estimates(name) for name in verify}
            recovery_seconds = time.perf_counter() - start
            _require_identical("live and recovered sessions", live, recovered)

            budget = max(
                wal_seconds * self.baseline_budget_factor,
                self.baseline_budget_floor_s,
            )
            gc.collect()
            baseline = DirectorySessionStore(root / "baseline")
            completed = 0
            start = time.perf_counter()
            for session_index in range(self.num_sessions):
                if time.perf_counter() - start > budget:
                    break
                name = self.session_name(session_index)
                session = StreamingSession(
                    range(self.num_items), list(self.estimators), keep_votes=False
                )
                baseline.save(name, session.snapshot())
                for batch_index in range(self.num_batches):
                    session.add_columns(self.batch(session_index, batch_index))
                    baseline.save(name, session.snapshot())
                completed += 1
            baseline_seconds = time.perf_counter() - start

        columns = self.num_batches * self.columns_per_batch  # per session
        return (
            {
                "wal_ingest": wal_seconds,
                "recovery_verify": recovery_seconds,
                "baseline_snapshot_per_save": baseline_seconds,
            },
            {
                "columns_per_s": self.num_sessions * columns / wal_seconds,
                "verified_sessions": len(verify),
                "baseline_budget_s": budget,
                "baseline_completed_sessions": completed,
                "baseline_budget_exceeded": completed < self.num_sessions,
                "baseline_columns_per_s": completed * columns / baseline_seconds,
            },
        )


@dataclass(frozen=True)
class HttpWorkload(RecordedWorkload):
    """One pinned HTTP serving workload (synthetic worker fleet).

    A :class:`~repro.serving.http.HttpServingServer` over an in-memory
    store (so the numbers isolate the wire path, not the disk) is driven
    concurrently through :class:`~repro.serving.http.SessionClient` by a
    :class:`~repro.serving.loadgen.FleetConfig` fleet — bursts, duplicate
    re-sends and reordered deliveries included; ``fleet`` holds the
    ``FleetConfig`` overrides.  The served estimates must equal a replay
    of the acknowledged batches through plain sessions.
    """

    name: str
    fleet: Dict[str, object] = field(default_factory=dict)

    def measure(self, repeats: int, n_jobs: int) -> Measurement:
        from repro.serving import (
            EstimationService,
            FleetConfig,
            HttpServingServer,
            LoadGenerator,
            MemorySessionStore,
            SessionClient,
            latency_percentiles,
            replay_applied_batches,
        )

        config = FleetConfig(**self.fleet)
        gc.collect()
        service = EstimationService(MemorySessionStore())
        with HttpServingServer(service) as server:
            client = SessionClient(server.url)
            report = LoadGenerator(client, config).run()
            served = {
                name: client.estimates(name) for name in config.session_names()
            }
        _require_identical(
            "served estimates and the replayed acknowledged batches",
            served,
            replay_applied_batches(report),
        )
        latency = latency_percentiles(
            report.latencies_s, recorded_percentiles(len(report.latencies_s))
        )
        return (
            {"fleet_wall": report.wall_s},
            {
                "requests": report.deliveries,
                "applied_batches": report.applied_deliveries,
                "duplicate_acks": report.duplicate_acks,
                "late_drops": report.late_drops,
                "requests_per_s": report.requests_per_s,
                "columns_per_s": report.columns_per_s,
                "votes_applied": report.votes_applied,
                **{f"latency_{key}_ms": value * 1000 for key, value in latency.items()},
                "verified_sessions": len(served),
            },
        )


@dataclass(frozen=True)
class ProcShardsWorkload(_ArithmeticSessions, RecordedWorkload):
    """One pinned process-sharding workload (worker processes vs one process).

    ``num_sessions`` sessions, routed over ``num_shards`` shards, are fed
    from ``threads`` client threads through the single-process
    :class:`~repro.streaming.ShardedEstimationService` and then through
    :class:`~repro.serving.ProcessShardedService` over a fresh root; every
    session's estimate report must be identical between the two.  The
    ``proc_vs_single`` ratio is machine-specific (a single core cannot
    show a multi-process win), so it is not gated.
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

    def ingest_all(self, service) -> float:
        """Create every session, then feed them all from ``threads`` client
        threads; returns the seconds the feeding took."""
        from concurrent.futures import ThreadPoolExecutor
        from functools import partial

        for session_index in range(self.num_sessions):
            self.create(service, session_index)
        gc.collect()
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            # list() reads every result, so an ingest failure re-raises here.
            list(pool.map(partial(self.feed, service), range(self.num_sessions)))
        return time.perf_counter() - start

    def report_json(self, service) -> Dict[str, str]:
        """Every session's estimate report as canonical JSON, by name."""
        from repro.serving.http import report_to_payload

        return {
            name: json.dumps(
                report_to_payload(service.estimate_report(name)), sort_keys=True
            )
            for name in map(self.session_name, range(self.num_sessions))
        }

    def measure(self, repeats: int, n_jobs: int) -> Measurement:
        from repro.serving import ProcessShardedService
        from repro.streaming import ShardedEstimationService

        with tempfile.TemporaryDirectory(
            prefix="repro-bench-proc-", ignore_cleanup_errors=True
        ) as scratch:
            root = Path(scratch)
            single = ShardedEstimationService(
                root / "single", num_shards=self.num_shards
            )
            single_seconds = self.ingest_all(single)
            single_reports = self.report_json(single)
            with ProcessShardedService(
                root / "workers", num_shards=self.num_shards
            ) as workers:
                workers_seconds = self.ingest_all(workers)
                worker_reports = self.report_json(workers)
                worker_count = len(workers.worker_pids())

        _require_identical(
            "single-process shards and process workers", single_reports, worker_reports
        )
        total_columns = self.num_sessions * self.num_batches * self.columns_per_batch
        return (
            {
                "single_process_ingest": single_seconds,
                "process_workers_ingest": workers_seconds,
            },
            {
                "single_columns_per_s": total_columns / single_seconds,
                "workers_columns_per_s": total_columns / workers_seconds,
                "proc_vs_single": single_seconds / workers_seconds,
                "workers": worker_count,
                "verified_sessions": self.num_sessions,
            },
        )


#: Every registered workload, by its ``--workload`` name: each family's
#: acceptance shape and a CI-sized one, plus the runner's wide sweeps (R >= 32)
#: where the tensor engine is meant to pay off.
#: ``wal-100k`` is the shape the snapshot-per-save baseline cannot complete.
WORKLOADS: Dict[str, RecordedWorkload] = {
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
    "wal-100k": WalWorkload(
        name="wal_100000x12",
        num_sessions=100_000,
        baseline_budget_factor=2.0,
        baseline_budget_floor_s=30.0,
    ),
    "wal-smoke": WalWorkload(
        name="wal_smoke_400x12",
        num_sessions=400,
    ),
    "http-load": HttpWorkload(
        name="http_load_4x16",
        fleet=dict(
            num_sessions=4,
            num_workers=16,
            num_items=250,
            batches_per_worker=12,
            columns_per_batch=4,
            items_per_column=12,
            burst_gap_s=0.05,
            reorder_every=5,
            seed=7,
        ),
    ),
    "http-smoke": HttpWorkload(
        name="http_smoke_2x6",
        fleet=dict(num_items=100, seed=7),
    ),
    "proc-shards": ProcShardsWorkload(
        name="proc_shards_4x32",
        num_sessions=32,
        num_batches=10,
        threads=8,
    ),
    "proc-shards-smoke": ProcShardsWorkload(
        name="proc_shards_smoke_2x8",
        num_shards=2,
        num_sessions=8,
        num_batches=4,
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
    workload: RecordedWorkload,
    *,
    n_jobs: int = 1,
    repeats: int = 2,
) -> Dict[str, object]:
    """Measure one workload and build its record entry.

    Every family's entry has the same keys: ``params`` is the workload's
    fields plus this run's ``repeats``/``n_jobs``, ``timings_s`` wall times
    in seconds (to 0.1 ms) and ``metrics`` the family's flat derived
    numbers (floats to three decimals).  Raises ``RuntimeError`` when the
    workload's oracle fails.
    """
    check_int(n_jobs, "n_jobs", minimum=1)
    check_int(repeats, "repeats", minimum=1)
    timings, metrics = workload.measure(repeats, n_jobs)
    return {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": machine_info(),
        "params": {**asdict(workload), "repeats": repeats, "n_jobs": n_jobs},
        "timings_s": {key: round(seconds, 4) for key, seconds in timings.items()},
        "metrics": {
            key: round(value, 3) if isinstance(value, float) else value
            for key, value in metrics.items()
        },
    }


#: Schema note written into the record document (refreshed on every save so
#: an existing file picks up wording changes).
RECORD_NOTE = (
    "Performance trajectory of this repo; append entries with `repro bench`. "
    "Every entry is {recorded_at, machine, params, timings_s, metrics}. "
    "`--check` compares metrics.batch_vs_serial (runner entries only; "
    "machine-independent) against the workload's baseline, its first entry."
)


def load_record(path: Path) -> Dict[str, object]:
    """Read (or initialise) the benchmark record document.

    Raises :class:`~repro.common.exceptions.ConfigurationError`, naming the
    path, when the file is not JSON or has another format version.
    """
    if not path.exists():
        return {
            "format_version": FORMAT_VERSION,
            "note": RECORD_NOTE,
            "workloads": {},
        }
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as error:  # undecodable bytes or malformed JSON
        raise ConfigurationError(
            f"benchmark record {path} is not JSON ({error})"
        ) from None
    version = record.get("format_version") if isinstance(record, dict) else None
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported benchmark record version in {path}: {version!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    return record


def update_record(
    record: Dict[str, object], entry: Dict[str, object]
) -> Optional[Dict[str, object]]:
    """Append ``entry`` to its workload's history; returns the baseline.

    The first entry recorded for a workload becomes its one baseline
    (``slot["baseline"]``), and ``None`` is returned for it.
    """
    workloads = record.setdefault("workloads", {})
    slot = workloads.setdefault(
        entry["params"]["name"], {"baseline": entry, "history": []}
    )
    baseline = slot["baseline"]
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

    Compares the ``batch_vs_serial`` speedup ratio, which transfers
    across machines; ``None`` means no regression, no baseline to
    compare against yet, or an entry without the ratio (every family but
    the runner records machine-specific numbers only).
    """
    check_positive(factor, "factor")
    if baseline is None or "batch_vs_serial" not in baseline["metrics"]:
        return None
    current = entry["metrics"]["batch_vs_serial"]
    recorded = baseline["metrics"]["batch_vs_serial"]
    floor = recorded / factor
    if current < floor:
        return (
            f"batch-engine speedup regressed: {current:.2f}x vs the recorded "
            f"baseline {recorded:.2f}x (floor {floor:.2f}x at factor {factor})"
        )
    return None


def format_summary(entry: Dict[str, object]) -> str:
    """The one-line summary printed in CI logs: every timing and metric."""
    timings = ", ".join(
        f"{key}={seconds:.3f}s" for key, seconds in entry["timings_s"].items()
    )
    metrics = ", ".join(f"{key}={value}" for key, value in entry["metrics"].items())
    return (
        f"BENCH {entry['params']['name']}: {timings}; "
        f"{metrics} on {entry['machine']['usable_cpus']} usable cpu(s)"
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
    """The ``repro bench`` implementation.  Returns a process exit code.

    Every argument is checked and the record is read before anything is
    timed, so a bad value or an unreadable record costs no measurement
    and leaves the record untouched.
    """
    check_int(n_jobs, "n_jobs", minimum=1)
    check_int(repeats, "repeats", minimum=1)
    check_positive(factor, "factor")
    if workload not in WORKLOADS:
        raise ConfigurationError(
            f"unknown workload {workload!r}; available: {sorted(WORKLOADS)}"
        )
    path = Path(output or DEFAULT_RECORD)
    record = load_record(path)
    record["note"] = RECORD_NOTE
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
    """Attach the ``repro bench`` options to ``parser``."""
    parser.add_argument(
        "--workload", choices=list(WORKLOADS), default="full",
        help="which pinned workload to time (see docs/performance.md)",
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
    """Execute a parsed ``repro bench`` invocation."""
    return run_and_record(
        workload=args.workload,
        n_jobs=args.n_jobs,
        repeats=args.repeats,
        output=args.output,
        check=args.check,
        factor=args.factor,
        dry_run=args.dry_run,
    )

