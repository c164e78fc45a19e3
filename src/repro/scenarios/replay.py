"""Trace-replay codec: recorded session logs become golden scenarios.

Any recorded column stream — a per-session write-ahead log from
:mod:`repro.streaming.wal`, or the acknowledged-batch record a
:class:`~repro.serving.loadgen.LoadGenerator` run produced — converts
into a deterministic, JSON-round-tripping
:class:`~repro.scenarios.spec.Scenario` whose
:class:`~repro.scenarios.spec.TraceSpec` carries the columns verbatim.
Registered and pinned through the existing golden harness, a production
trace becomes a regression test: the estimators must keep producing the
exact trajectory they produced on the live run.

The WAL conversion applies the same ``(source, sequence)`` idempotency
rule (:func:`~repro.streaming.serving.is_duplicate`) recovery applies, so a
log containing duplicated or reordered deliveries converts to exactly
the columns a recovering service would apply — the property the
hypothesis suite pins against ``SessionLog.repair()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.common.exceptions import ConfigurationError
from repro.crowd.response_matrix import ResponseMatrix
from repro.scenarios.spec import Scenario, TraceSpec
from repro.serving.loadgen import FleetReport, ordered_session_batches
from repro.streaming.serving import is_duplicate
from repro.streaming.wal import BatchRecord, CreateRecord, SessionLog

#: Tag every trace-derived scenario carries.
TRACE_TAG = "trace"


@dataclass
class TraceSimulation:
    """What the scenario runner needs from a trace: a matrix, no crowd.

    Duck-types the ``matrix`` / ``true_error_count`` surface of
    :class:`~repro.crowd.simulator.CrowdSimulation`; ``true_error_count``
    is ``-1`` when the trace carries no ground truth.
    """

    matrix: ResponseMatrix
    true_error_count: int = -1


def trace_matrix(trace: TraceSpec) -> ResponseMatrix:
    """Rebuild the recorded response matrix verbatim.

    A recorded ``worker_ids`` entry of ``None`` defaults to the column
    index — the same rule :class:`~repro.streaming.StreamingSession`
    applies on live ingestion, so the rebuilt matrix is bit-identical to
    the one the live run accumulated.
    """
    matrix = ResponseMatrix(trace.item_ids)
    for index, column in enumerate(trace.columns):
        worker = trace.worker_ids[index]
        matrix.add_column(dict(column), index if worker is None else worker)
    return matrix


def simulate_trace(trace: TraceSpec) -> TraceSimulation:
    """The runner's ``simulate`` step for a traced scenario."""
    return TraceSimulation(
        matrix=trace_matrix(trace), true_error_count=trace.true_errors
    )


def scenario_from_wal(
    log: Union[SessionLog, str, Path],
    name: str,
    *,
    description: str = "",
    estimators: Optional[Sequence[str]] = None,
    num_checkpoints: int = 8,
    tags: Sequence[str] = (),
) -> Scenario:
    """Convert a session WAL into a traced scenario.

    Reads the log's valid prefix (a torn tail is ignored, exactly as
    recovery ignores it), requires the leading ``CreateRecord``, and
    applies every batch record through the same ``(source, sequence)``
    high-water-mark gate live ingestion uses — duplicated and reordered
    records convert to no-ops, so the resulting trace holds exactly the
    columns a recovering service would serve.
    """
    if not isinstance(log, SessionLog):
        log = SessionLog(Path(log))
    records = log.records()
    if not records or not isinstance(records[0], CreateRecord):
        raise ConfigurationError(
            f"cannot build a scenario from {str(log.path)!r}: the log does "
            "not start with a session-create record"
        )
    create = records[0]
    columns: List[tuple] = []
    worker_ids: List[Optional[int]] = []
    sources: Dict[str, int] = {}
    for record in records[1:]:
        if not isinstance(record, BatchRecord):
            raise ConfigurationError(
                f"unexpected extra create record in {str(log.path)!r}"
            )
        if is_duplicate(sources, record.source, record.sequence):
            continue
        columns.extend(record.columns)
        worker_ids.extend(
            record.worker_ids
            if record.worker_ids is not None
            else [None] * len(record.columns)
        )
        if record.source is not None:
            sources[record.source] = record.sequence
    return Scenario(
        name=name,
        description=description
        or f"trace replay of the recorded session log {Path(log.path).name!r}",
        estimators=tuple(estimators if estimators is not None else create.estimators),
        num_checkpoints=num_checkpoints,
        tags=tuple(tags) + (TRACE_TAG,),
        trace=TraceSpec(
            item_ids=tuple(create.item_ids),
            columns=tuple(columns),
            worker_ids=tuple(worker_ids),
            true_errors=-1,
        ),
    )


def scenarios_from_fleet_report(
    report: FleetReport,
    *,
    name_prefix: str = "replay-",
    estimators: Optional[Sequence[str]] = None,
    num_checkpoints: int = 8,
    tags: Sequence[str] = (),
) -> List[Scenario]:
    """Convert a fleet run's acknowledged batches into traced scenarios.

    One scenario per session the fleet touched, columns in the
    server-side application order recovered from the acknowledgements
    (tiling-verified, as in
    :func:`~repro.serving.loadgen.replay_applied_batches`).  A fleet that
    drew its own votes knows its ground truth, so the report's
    ``true_errors`` is carried into the trace; a drive of injected plans
    (a dynamic scenario's) carries ``-1``, like a production WAL.
    """
    config = report.config
    scenarios = []
    for session, batches in ordered_session_batches(
        report.applied_batches, config.session_names()
    ).items():
        columns: List[tuple] = []
        worker_ids: List[Optional[int]] = []
        for batch in batches:
            columns.extend(tuple(votes.items()) for votes in batch.columns)
            worker_ids.extend(batch.worker_ids)
        scenarios.append(
            Scenario(
                name=f"{name_prefix}{session}",
                description=(
                    f"trace replay of fleet session {session!r} "
                    f"(seed {config.seed})"
                ),
                estimators=tuple(
                    estimators if estimators is not None else config.estimators
                ),
                num_checkpoints=num_checkpoints,
                tags=tuple(tags) + (TRACE_TAG,),
                trace=TraceSpec(
                    item_ids=tuple(range(config.num_items)),
                    columns=tuple(columns),
                    worker_ids=tuple(worker_ids),
                    true_errors=report.true_errors,
                ),
            )
        )
    return scenarios
