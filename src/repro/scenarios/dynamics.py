"""Drive a scenario's columns through the serving layer.

A scenario with a :class:`~repro.scenarios.spec.SessionDynamics` block is
not just a matrix to sweep — it is *traffic*.  This module turns the
simulated response matrix into per-source delivery plans (bursts,
loop-point think times, duplicates, reorders, abandonment — the same
fault vocabulary as :mod:`repro.serving.loadgen`), pushes them through
the multi-tenant serving facade, and checks the served estimates against
the acknowledged-batch replay oracle **bit for bit**.

Two drives share one plan builder, and both count acknowledgements with
the load generator's one tally (:meth:`~repro.serving.loadgen.FleetReport.record`):

* :func:`drive_scenario` — the deterministic serial drive used by the
  golden harness: :meth:`~repro.serving.loadgen.LoadGenerator.run_serial`
  interleaves deliveries round-robin across sources (the reproducible
  stand-in for concurrency), think times are recorded but not slept,
  and the resulting :attr:`DynamicDriveReport.stats` are stable enough
  to byte-pin.
* The threaded drive — pass the same plans to
  :meth:`~repro.serving.loadgen.LoadGenerator.run` via its ``plans``
  override to exercise real sockets and real concurrency (the slow e2e
  path); landing positions then depend on thread scheduling, but the
  replay oracle still pins the estimates exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.common.exceptions import ConfigurationError
from repro.common.rng import derive_rng
from repro.core.base import EstimateResult
from repro.crowd.response_matrix import ResponseMatrix
from repro.scenarios.spec import Scenario, SessionDynamics
from repro.serving.loadgen import (
    Delivery,
    FleetConfig,
    FleetReport,
    LoadGenerator,
    inject_faults,
    replay_applied_batches,
)

#: Stream index dynamics randomness derives from (disjoint from the
#: dataset's 11 and the simulator's 0-3 so plans never correlate with
#: crowd noise).
_DYNAMICS_STREAM = 29


def _require_dynamics(scenario: Scenario) -> SessionDynamics:
    if scenario.dynamics is None:
        raise ConfigurationError(
            f"scenario {scenario.name!r} has no dynamics block; only dynamic "
            "scenarios can be driven through the serving layer"
        )
    return scenario.dynamics


def fleet_config(scenario: Scenario, num_items: int) -> FleetConfig:
    """The :class:`FleetConfig` a dynamic scenario's drive runs under.

    It names and sizes the sessions, lists the estimators and shapes the
    threaded drive's bursts.  The plans come from
    :func:`build_delivery_plans`, so none of the fleet's own plan fields
    is set.
    """
    dynamics = _require_dynamics(scenario)
    return FleetConfig(
        num_sessions=dynamics.num_sessions,
        num_items=int(num_items),
        workers_per_burst=dynamics.workers_per_burst,
        burst_gap_s=dynamics.burst_gap_s,
        estimators=tuple(scenario.estimators),
        session_prefix=f"{scenario.name}-s",
        seed=scenario.seed,
    )


def build_delivery_plans(
    scenario: Scenario, matrix: ResponseMatrix
) -> List[List[Delivery]]:
    """One delivery plan per source for ``matrix``'s columns.

    Columns are spread round-robin over the dynamics' sessions, chopped
    into ``columns_per_batch`` batches, and the batches dealt round-robin
    to each session's sources (each source carrying its own ``(source,
    sequence)`` idempotency stream).  Each source's batches then go
    through the load generator's one fault pass,
    :func:`~repro.serving.loadgen.inject_faults`: abandonment, reorder
    swaps, retry twins.  All randomness derives from the scenario seed
    per source, so any one source's plan is stable under changes to the
    others.
    """
    dynamics = _require_dynamics(scenario)
    session_names = fleet_config(scenario, matrix.num_items).session_names()
    workers = matrix.column_workers
    width = dynamics.columns_per_batch
    plans: List[List[Delivery]] = []
    root = derive_rng(scenario.seed, _DYNAMICS_STREAM)
    for session_index, session in enumerate(session_names):
        columns = range(session_index, matrix.num_columns, len(session_names))
        chunks = [
            columns[start : start + width] for start in range(0, len(columns), width)
        ]
        for source_index in range(dynamics.sources_per_session):
            source = f"{session}-src{source_index:02d}"
            rng = derive_rng(
                root, session_index * dynamics.sources_per_session + source_index
            )
            batches = [
                Delivery(
                    session=session,
                    source=source,
                    sequence=sequence,
                    columns=tuple(matrix.column_votes(column) for column in chunk),
                    worker_ids=tuple(workers[column] for column in chunk),
                    think_s=float(rng.uniform(*dynamics.loop_delay_s)),
                )
                for sequence, chunk in enumerate(
                    chunks[source_index :: dynamics.sources_per_session], start=1
                )
            ]
            plans.append(
                inject_faults(
                    batches,
                    reorder_every=dynamics.reorder_every,
                    duplicate_every=dynamics.duplicate_every,
                    abandon_rate=dynamics.abandon_rate,
                    rng=rng,
                )
            )
    return plans


@dataclass
class DynamicDriveReport:
    """One serving-path drive of a dynamic scenario, plus its oracle."""

    report: FleetReport
    served: Dict[str, Dict[str, EstimateResult]]
    replayed: Dict[str, Dict[str, EstimateResult]]

    @property
    def serving_matches_replay(self) -> bool:
        """Whether every served estimate equals its replay-oracle twin."""
        if set(self.served) != set(self.replayed):
            return False
        for session, results in self.served.items():
            oracle = self.replayed[session]
            if set(results) != set(oracle):
                return False
            for name, result in results.items():
                twin = oracle[name]
                if result.estimate != twin.estimate or result.observed != twin.observed:
                    return False
        return True

    def stats(self) -> Dict[str, int]:
        """Deterministic traffic counters (what the golden payload pins)."""
        report = self.report
        return {
            "deliveries": report.deliveries,
            "applied_deliveries": report.applied_deliveries,
            "duplicate_acks": report.duplicate_acks,
            "late_drops": report.late_drops,
            "columns_applied": report.columns_applied,
            "votes_applied": report.votes_applied,
            "num_sessions": report.config.num_sessions,
        }


def drive_scenario(
    scenario: Scenario,
    matrix: ResponseMatrix,
    client=None,
) -> DynamicDriveReport:
    """Serially drive ``matrix`` through the serving layer per the spec.

    ``client`` is anything with the service surface (``create_session`` /
    ``ingest`` / ``estimates``); ``None`` builds a fresh in-memory
    :class:`~repro.streaming.serving.EstimationService`.  The plans go
    through :meth:`~repro.serving.loadgen.LoadGenerator.run_serial`:
    round-robin across sources, one delivery each per turn, which stands
    in for concurrency while keeping landing positions (and therefore
    the golden payload) deterministic.
    """
    if client is None:
        from repro.streaming.serving import EstimationService

        client = EstimationService()
    config = fleet_config(scenario, matrix.num_items)
    report = LoadGenerator(client, config).run_serial(
        build_delivery_plans(scenario, matrix)
    )
    served = {name: client.estimates(name) for name in config.session_names()}
    return DynamicDriveReport(
        report=report, served=served, replayed=replay_applied_batches(report)
    )
