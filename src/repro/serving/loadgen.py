"""Synthetic-crowd load generation against the serving API.

The missing half of a serving layer is the traffic that proves it: this
module builds a **worker fleet** — every worker a thread with its own
accuracy, think-time and delivery plan — and drives any client with the
:class:`~repro.streaming.serving.EstimationService` surface, which
includes the wire-level :class:`~repro.serving.http.SessionClient` and
the in-process façade itself.

The fleet deliberately produces the traffic a real crowd platform
produces:

* **bursty arrivals** — workers launch in bursts of
  ``workers_per_burst`` separated by ``burst_gap_s``;
* **duplicate deliveries** — every ``duplicate_every``-th delivery is
  re-sent immediately, as a crashed-and-retried loader would;
* **reordered deliveries** — every ``reorder_every``-th adjacent pair of
  a worker's deliveries is swapped, so a *lower* sequence number arrives
  after a higher one and must be dropped by the ``(source, sequence)``
  high-water mark;
* **overlapping sessions** — workers are assigned round-robin, so every
  session is written by several concurrent workers.

This is the repository's one crowd-traffic model: the dynamic-scenario
drive (:mod:`repro.scenarios.dynamics`) builds its plans through the same
fault pass (:func:`inject_faults`), drives them with
:meth:`LoadGenerator.run_serial`, and counts acknowledgements with the
same :meth:`FleetReport.record`.

Every plan is a pure function of :class:`FleetConfig` (content-wise):
what interleaving the server actually applied is recovered from the
acknowledgements — an applied batch's ``num_columns`` minus its
``applied`` count is the exact column index where it landed — so
:func:`replay_applied_batches` can rebuild each session's column order
deterministically and replay it through a plain
:class:`~repro.streaming.StreamingSession`.  The end-to-end harness
asserts the served estimates equal that replay **bit for bit**; the
:class:`FleetReport` additionally carries the latency distribution
(p50/p95/p99) and throughput that ``repro bench`` records as the
``http-smoke`` / ``http-load`` workload family.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.exceptions import ValidationError
from repro.common.validation import check_int
from repro.core.base import EstimateResult
from repro.streaming.session import StreamingSession


def latency_percentiles(
    latencies_s: Sequence[float], quantiles: Sequence[int] = (50, 95, 99)
) -> Dict[str, float]:
    """Nearest-rank percentiles of a latency sample, as ``{"p50": ...}``.

    Nearest-rank (not interpolated) so every reported number is a latency
    that actually happened.  Raises ``ValidationError`` on an empty
    sample — a load report with no requests has no tail to summarise.
    """
    if not latencies_s:
        raise ValidationError("cannot summarise an empty latency sample")
    ordered = sorted(float(value) for value in latencies_s)
    summary = {}
    for quantile in quantiles:
        if not 0 < quantile <= 100:
            raise ValidationError(f"percentile must be in (0, 100], got {quantile}")
        rank = max(1, math.ceil(quantile / 100 * len(ordered)))
        summary[f"p{quantile}"] = ordered[rank - 1]
    return summary


@dataclass(frozen=True)
class FleetConfig:
    """One synthetic worker fleet (deterministic given ``seed``).

    ``num_workers`` workers deliver ``batches_per_worker`` batches of
    ``columns_per_batch`` task columns each into ``num_sessions``
    sessions (round-robin assignment, so sessions overlap whenever
    ``num_workers > num_sessions``).  Worker accuracy is drawn uniformly
    from ``accuracy``; per-delivery think time uniformly from
    ``latency_s``.  ``duplicate_every``/``reorder_every`` inject the
    retry and out-of-order traffic described in the module docstring
    (``0`` disables either).
    """

    num_sessions: int = 2
    num_workers: int = 6
    num_items: int = 150
    error_rate: float = 0.25
    batches_per_worker: int = 5
    columns_per_batch: int = 3
    items_per_column: int = 10
    accuracy: Tuple[float, float] = (0.7, 0.95)
    latency_s: Tuple[float, float] = (0.0, 0.0)
    workers_per_burst: int = 4
    burst_gap_s: float = 0.0
    duplicate_every: int = 3
    reorder_every: int = 4
    estimators: Tuple[str, ...] = ("voting", "chao92", "switch_total")
    session_prefix: str = "crowd-"
    keep_votes: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        check_int(self.num_sessions, "num_sessions", minimum=1)
        check_int(self.num_workers, "num_workers", minimum=1)
        check_int(self.num_items, "num_items", minimum=1)
        check_int(self.batches_per_worker, "batches_per_worker", minimum=1)
        check_int(self.columns_per_batch, "columns_per_batch", minimum=1)
        check_int(self.items_per_column, "items_per_column", minimum=1)
        check_int(self.workers_per_burst, "workers_per_burst", minimum=1)
        check_int(self.duplicate_every, "duplicate_every", minimum=0)
        check_int(self.reorder_every, "reorder_every", minimum=0)
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValidationError(f"error_rate must be in [0, 1], got {self.error_rate}")
        low, high = self.accuracy
        if not 0.0 <= low <= high <= 1.0:
            raise ValidationError(f"accuracy must satisfy 0 <= low <= high <= 1, got {self.accuracy}")
        low, high = self.latency_s
        if not 0.0 <= low <= high:
            raise ValidationError(f"latency_s must satisfy 0 <= low <= high, got {self.latency_s}")

    def session_names(self) -> List[str]:
        """The fleet's target session names, by session index."""
        return [
            f"{self.session_prefix}{index:03d}" for index in range(self.num_sessions)
        ]

    def true_labels(self) -> np.ndarray:
        """Ground-truth dirtiness per item (1 = dirty), fixed by ``seed``."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xFEED]))
        return (rng.random(self.num_items) < self.error_rate).astype(np.int8)


@dataclass(frozen=True)
class Delivery:
    """One planned client request: a batch plus its retry metadata."""

    session: str
    source: str
    sequence: int
    columns: Tuple[Dict[int, int], ...]
    worker_ids: Tuple[int, ...]
    #: True when this delivery is the deliberate immediate re-send of the
    #: previous one (the wire retry that must be acknowledged as a no-op).
    is_retry: bool = False
    #: Seconds the worker thinks before sending this delivery.
    think_s: float = 0.0


@dataclass(frozen=True)
class AppliedBatch:
    """A batch the server acknowledged as applied, and where it landed.

    ``start`` is the session column index of the batch's first column —
    recovered from the acknowledgement (``num_columns - applied``), which
    is what makes the concurrent run replayable: sorting a session's
    applied batches by ``start`` *is* the server-side application order.
    """

    session: str
    start: int
    columns: Tuple[Dict[int, int], ...]
    worker_ids: Tuple[int, ...]


@dataclass
class FleetReport:
    """Everything one fleet run produced: traffic stats and replay fuel."""

    config: FleetConfig
    wall_s: float = 0.0
    deliveries: int = 0
    applied_deliveries: int = 0
    duplicate_acks: int = 0
    #: Duplicate acknowledgements for deliveries that were *not* planned
    #: retries — i.e. reordered (late) batches correctly dropped by the
    #: high-water mark.
    late_drops: int = 0
    columns_applied: int = 0
    votes_applied: int = 0
    latencies_s: List[float] = field(default_factory=list)
    applied_batches: List[AppliedBatch] = field(default_factory=list)
    #: Dirty items in the truth the plans' votes were drawn from; ``-1``
    #: (no ground truth) when the plans were injected.
    true_errors: int = -1

    def record(self, delivery: Delivery, ack, elapsed_s: float) -> None:
        """Count one acknowledged delivery — every drive's one tally.

        ``ack`` is the :class:`~repro.streaming.serving.IngestResult` the
        server returned; an applied batch's landing column is
        ``num_columns - applied``.
        """
        self.latencies_s.append(elapsed_s)
        self.deliveries += 1
        if ack.duplicate:
            self.duplicate_acks += 1
            if not delivery.is_retry:
                self.late_drops += 1
            return
        self.applied_deliveries += 1
        self.columns_applied += ack.applied
        self.votes_applied += sum(len(column) for column in delivery.columns)
        self.applied_batches.append(
            AppliedBatch(
                session=delivery.session,
                start=ack.num_columns - ack.applied,
                columns=delivery.columns,
                worker_ids=delivery.worker_ids,
            )
        )

    @property
    def requests_per_s(self) -> float:
        return self.deliveries / self.wall_s if self.wall_s > 0 else float("inf")

    @property
    def columns_per_s(self) -> float:
        return self.columns_applied / self.wall_s if self.wall_s > 0 else float("inf")

    def latency_summary(self) -> Dict[str, float]:
        """p50/p95/p99 request latency in seconds."""
        return latency_percentiles(self.latencies_s)


def inject_faults(
    batches: Sequence[Delivery],
    *,
    reorder_every: int,
    duplicate_every: int,
    abandon_rate: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> List[Delivery]:
    """One source's in-order batches, faulted into the plan it delivers.

    The traffic model's one fault pass, in order: with probability
    ``abandon_rate`` (drawn from ``rng``) the source abandons after a
    uniformly drawn batch; every ``reorder_every``-th adjacent pair is
    swapped, so a lower sequence arrives late and must be dropped by the
    high-water mark; and every ``duplicate_every``-th surviving delivery
    gains an immediate retry twin.  ``0`` disables either.
    """
    batches = list(batches)
    if abandon_rate and len(batches) > 1 and float(rng.random()) < abandon_rate:
        batches = batches[: int(rng.integers(1, len(batches)))]
    if reorder_every:
        for index in range(reorder_every - 1, len(batches) - 1, reorder_every):
            batches[index], batches[index + 1] = batches[index + 1], batches[index]
    plan: List[Delivery] = []
    for index, delivery in enumerate(batches, start=1):
        plan.append(delivery)
        if duplicate_every and index % duplicate_every == 0:
            plan.append(replace(delivery, is_retry=True, think_s=0.0))
    return plan


def build_worker_plan(config: FleetConfig, worker: int) -> List[Delivery]:
    """Worker ``worker``'s delivery plan — a pure function of the config.

    Batches carry sequences ``1..batches_per_worker`` toward the worker's
    round-robin session, each column's votes drawn from the fleet's truth
    at the worker's accuracy; :func:`inject_faults` then swaps every
    ``reorder_every``-th pair and adds the retry twins.
    """
    check_int(worker, "worker", minimum=0)
    if config.items_per_column > config.num_items:
        raise ValidationError(
            f"items_per_column ({config.items_per_column}) cannot exceed "
            f"num_items ({config.num_items})"
        )
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1 + worker]))
    truth = config.true_labels()
    accuracy = float(rng.uniform(*config.accuracy))
    session = config.session_names()[worker % config.num_sessions]
    source = f"worker-{worker:03d}"

    batches: List[Delivery] = []
    for batch_index in range(config.batches_per_worker):
        columns = []
        for _ in range(config.columns_per_batch):
            items = rng.choice(config.num_items, size=config.items_per_column, replace=False)
            flips = rng.random(config.items_per_column) >= accuracy
            votes = np.where(flips, 1 - truth[items], truth[items])
            columns.append(
                {int(item): int(vote) for item, vote in zip(items, votes)}
            )
        batches.append(
            Delivery(
                session=session,
                source=source,
                sequence=batch_index + 1,
                columns=tuple(columns),
                worker_ids=(worker,) * len(columns),
                think_s=float(rng.uniform(*config.latency_s)),
            )
        )

    return inject_faults(
        batches,
        reorder_every=config.reorder_every,
        duplicate_every=config.duplicate_every,
    )


class LoadGenerator:
    """Run a worker fleet against a serving client.

    Parameters
    ----------
    client:
        Anything with the service surface the fleet needs:
        ``create_session(name, item_ids, estimators, keep_votes=...)``
        and ``ingest(name, columns, worker_ids=..., source=...,
        sequence=...)`` returning an
        :class:`~repro.streaming.serving.IngestResult`.  Both the HTTP
        :class:`~repro.serving.http.SessionClient` and the in-process
        :class:`~repro.streaming.serving.EstimationService` qualify.
    config:
        The fleet to simulate.
    """

    def __init__(self, client, config: FleetConfig) -> None:
        self.client = client
        self.config = config

    def create_sessions(self) -> List[str]:
        """Create the fleet's target sessions on the service."""
        names = self.config.session_names()
        for name in names:
            self.client.create_session(
                name,
                range(self.config.num_items),
                list(self.config.estimators),
                keep_votes=self.config.keep_votes,
            )
        return names

    def _send(self, delivery: Delivery):
        """Deliver once; returns ``(acknowledgement, elapsed seconds)``."""
        begin = time.perf_counter()
        ack = self.client.ingest(
            delivery.session,
            list(delivery.columns),
            worker_ids=list(delivery.worker_ids),
            source=delivery.source,
            sequence=delivery.sequence,
        )
        return ack, time.perf_counter() - begin

    def run(
        self,
        *,
        create_sessions: bool = True,
        plans: Optional[Sequence[Sequence[Delivery]]] = None,
    ) -> FleetReport:
        """Drive the whole fleet; returns the :class:`FleetReport`.

        Workers run as real threads, launched in bursts, and sleep each
        delivery's think time; a worker failure (an unexpected error
        response, a dead server) is re-raised here after every thread has
        stopped.  ``plans`` overrides the default per-worker plans
        (``build_worker_plan`` for every worker); only a fleet that drew
        its own plans reports its ``true_errors``.
        """
        config = self.config
        report = FleetReport(config)
        if create_sessions:
            self.create_sessions()
        if plans is None:
            plans = [
                build_worker_plan(config, worker)
                for worker in range(config.num_workers)
            ]
            report.true_errors = int(config.true_labels().sum())

        lock = threading.Lock()
        failures: List[BaseException] = []

        def deliver(plan: Sequence[Delivery]) -> None:
            try:
                for delivery in plan:
                    if delivery.think_s:
                        time.sleep(delivery.think_s)
                    ack, elapsed = self._send(delivery)
                    with lock:
                        report.record(delivery, ack, elapsed)
            except BaseException as error:  # noqa: BLE001 - reported to the caller
                with lock:
                    failures.append(error)

        threads = [
            threading.Thread(target=deliver, args=(plan,), name=f"loadgen-{index}")
            for index, plan in enumerate(plans)
        ]
        start = time.perf_counter()
        for index, thread in enumerate(threads):
            if index and index % config.workers_per_burst == 0 and config.burst_gap_s:
                time.sleep(config.burst_gap_s)
            thread.start()
        for thread in threads:
            thread.join()
        report.wall_s = time.perf_counter() - start
        if failures:
            raise failures[0]
        return report

    def run_serial(self, plans: Sequence[Sequence[Delivery]]) -> FleetReport:
        """Create the sessions, then drive ``plans`` round-robin from one thread.

        Each turn sends the next delivery of every plan that has one, in
        plan order — the reproducible stand-in for concurrency, so
        landing positions and counters are deterministic.  Think times
        are part of the plans but never slept here.
        """
        report = FleetReport(self.config)
        self.create_sessions()
        start = time.perf_counter()
        for turn in range(max(map(len, plans), default=0)):
            for plan in plans:
                if turn < len(plan):
                    report.record(plan[turn], *self._send(plan[turn]))
        report.wall_s = time.perf_counter() - start
        return report


def ordered_session_batches(
    applied_batches: Sequence[AppliedBatch],
    session_names: Optional[Sequence[str]] = None,
) -> Dict[str, List[AppliedBatch]]:
    """Group applied batches by session in server-side application order.

    Sorting a session's batches by their acknowledged landing position
    *is* the order the server applied them; the tiling check (no gaps, no
    overlaps) means a lost or double-applied batch cannot hide.  This is
    the shared first step of :func:`replay_applied_batches` and the
    trace-replay codec in :mod:`repro.scenarios.replay`.
    """
    by_session: Dict[str, List[AppliedBatch]] = {
        name: [] for name in (session_names or [])
    }
    for batch in applied_batches:
        by_session.setdefault(batch.session, []).append(batch)
    ordered: Dict[str, List[AppliedBatch]] = {}
    for name, batches in by_session.items():
        batches = sorted(batches, key=lambda batch: batch.start)
        expected_start = 0
        for batch in batches:
            if batch.start != expected_start:
                raise ValidationError(
                    f"applied batches for session {name!r} do not tile the "
                    f"column range: expected a batch starting at column "
                    f"{expected_start}, found {batch.start} — a delivery was "
                    "lost or double-applied"
                )
            expected_start += len(batch.columns)
        ordered[name] = batches
    return ordered


def replay_applied_batches(
    report: FleetReport,
    estimators: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, EstimateResult]]:
    """Deterministically replay a fleet run through plain sessions.

    For every session the fleet touched, the applied batches are sorted
    by their acknowledged landing position — the server-side application
    order — verified to tile the column range exactly (no gaps, no
    overlaps: a lost or double-applied batch cannot hide), and replayed
    through a fresh :class:`~repro.streaming.StreamingSession`.  Returns
    ``{session: {estimator: EstimateResult}}``; the end-to-end harness
    compares this against the estimates served over HTTP, which must be
    **bit-identical**.
    """
    config = report.config
    estimators = list(estimators if estimators is not None else config.estimators)
    replayed: Dict[str, Dict[str, EstimateResult]] = {}
    for name, batches in ordered_session_batches(
        report.applied_batches, config.session_names()
    ).items():
        session = StreamingSession(
            range(config.num_items), estimators, keep_votes=config.keep_votes
        )
        for batch in batches:
            session.add_columns(list(batch.columns), list(batch.worker_ids))
        replayed[name] = session.estimate()
    return replayed
