"""One crowd-traffic model: the fleet and the scenario drive share it.

Every delivery plan the traffic model builds — ``build_worker_plan`` for
the recorded HTTP fleets and ``build_delivery_plans`` for the dynamic
scenarios — is hashed field by field, so a refactor of the fault pass
(abandonment, reorder swaps, retry twins) cannot move one byte of what
reaches the server.  The fault pass's order, the one delivery tally both
drives share, and the serial drive's round-robin order are pinned
directly.  A fleet report claims a ground truth only when the fleet drew
its own votes from that truth.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.common.exceptions import ValidationError
from repro.experiments.bench import WORKLOADS
from repro.scenarios import (
    DatasetSpec,
    ScenarioRunner,
    available_scenarios,
    build_delivery_plans,
    drive_scenario,
    get_scenario,
    scenarios_from_fleet_report,
)
from repro.serving.loadgen import (
    Delivery,
    FleetConfig,
    LoadGenerator,
    build_worker_plan,
    inject_faults,
)
from repro.streaming.serving import EstimationService

#: sha256 of every delivery field of each fleet's plans (one plan per
#: worker, workers in order).
FLEET_PLAN_DIGESTS = {
    "http-smoke": "92f3ed3dba5659c6629220d958ee2564222bd8ea755c36fae10cdbdffb37626e",
    "http-load": "b64a7b9977a18c845e62f5bdf147b6e9be9f0565178621e29982203de234e6d9",
}

#: sha256 of every delivery field of each dynamic scenario's plans (one
#: plan per source, in ``build_delivery_plans`` order).
SCENARIO_PLAN_DIGESTS = {
    "churn-abandonment": "3c2fae85b81bdebba8639717f922d1b69e1f060b2ae1e9ff9acc3fbf9c1a30fa",
    "churn-bursty-arrivals": "739807fc2b6c162d150caa354652ca367ff5f94405fd0454966f4a83b240f190",
    "collusion-campaign-skew": "098ab5ba676fe7d916135e9dcb30b6bc66c03c232745ffe872e40d7d637fa96e",
    "cross-session-collusion": "54a1017e5b6352912a42c805b7f401e1e21e41baa17303491d7538f1e80ebb4f",
    "duplicate-storm": "109fd46dbe1af3a7528cb82e6e89721cd5406b5c7af97cc438a35baeecea9773",
    "reorder-heavy": "45d46b822cecc322094de224ee4a3ff1838d952d24d84d7a34214bef4bc68bfd",
}


def plan_digest(plans) -> str:
    """Hash every field of every delivery, plan boundaries included."""
    digest = hashlib.sha256()
    for index, plan in enumerate(plans):
        for delivery in plan:
            fields = (
                index,
                delivery.session,
                delivery.source,
                delivery.sequence,
                tuple(tuple(column.items()) for column in delivery.columns),
                delivery.worker_ids,
                delivery.is_retry,
                repr(delivery.think_s),
            )
            digest.update(repr(fields).encode("utf-8"))
    return digest.hexdigest()


def scenario_plans(name: str):
    scenario = get_scenario(name)
    matrix = ScenarioRunner().simulate(scenario).matrix
    return scenario, matrix, build_delivery_plans(scenario, matrix)


class TestPinnedDeliveryPlans:
    @pytest.mark.parametrize("workload", sorted(FLEET_PLAN_DIGESTS))
    def test_fleet_plans_are_byte_identical(self, workload):
        config = FleetConfig(**WORKLOADS[workload].fleet)
        plans = [
            build_worker_plan(config, worker) for worker in range(config.num_workers)
        ]
        assert plan_digest(plans) == FLEET_PLAN_DIGESTS[workload]

    @pytest.mark.parametrize("name", sorted(SCENARIO_PLAN_DIGESTS))
    def test_scenario_plans_are_byte_identical(self, name):
        _, _, plans = scenario_plans(name)
        assert plan_digest(plans) == SCENARIO_PLAN_DIGESTS[name]

    def test_every_dynamic_scenario_is_pinned(self):
        dynamic = {
            name
            for name in available_scenarios()
            if get_scenario(name).dynamics is not None
        }
        assert dynamic == set(SCENARIO_PLAN_DIGESTS)


class TestFaultPass:
    class _Abandon:
        """Draws that always abandon, after the last batch but one."""

        def random(self):
            return 0.0

        def integers(self, low, high):
            return high - 1

    def batches(self, count):
        return [
            Delivery("s", "src", sequence, ({sequence: 1},), (0,), think_s=0.5)
            for sequence in range(1, count + 1)
        ]

    def test_reorder_then_retry_twins_without_think_time(self):
        plan = inject_faults(self.batches(5), reorder_every=2, duplicate_every=2)
        assert [(d.sequence, d.is_retry, d.think_s) for d in plan] == [
            (1, False, 0.5),
            (3, False, 0.5),
            (3, True, 0.0),
            (2, False, 0.5),
            (5, False, 0.5),
            (5, True, 0.0),
            (4, False, 0.5),
        ]

    def test_abandonment_comes_first(self):
        plan = inject_faults(
            self.batches(5),
            reorder_every=2,
            duplicate_every=2,
            abandon_rate=0.5,
            rng=self._Abandon(),
        )
        assert [(d.sequence, d.is_retry) for d in plan] == [
            (1, False),
            (3, False),
            (3, True),
            (2, False),
            (4, False),
            (4, True),
        ]


class TestFleetConfig:
    def test_a_scenario_smaller_than_a_fleet_column_still_drives(self):
        """``fleet_config`` fills no plan field, so a scenario with fewer
        items than the fleet's default column size drives as before."""
        scenario = dataclasses.replace(
            get_scenario("duplicate-storm"),
            name="tiny-storm",
            dataset=DatasetSpec("synthetic", {"num_items": 6, "num_errors": 2}),
            items_per_task=3,
        )
        trajectory = ScenarioRunner().run(scenario)
        assert trajectory.equivalence["serving_vs_replay"] is True
        assert trajectory.dynamics_stats["columns_applied"] > 0

    def test_the_column_size_bound_holds_where_plans_are_drawn(self):
        config = FleetConfig(num_items=5)
        with pytest.raises(ValidationError, match="items_per_column"):
            build_worker_plan(config, 0)


class TestFleetReportTruth:
    def test_a_scenario_drive_claims_no_ground_truth(self):
        """The drive injects the scenario's plans, so nothing in its
        fleet config is the scenario's truth: its traces say ``-1``."""
        scenario, matrix, _ = scenario_plans("duplicate-storm")
        report = drive_scenario(scenario, matrix).report
        assert report.true_errors == -1
        traces = scenarios_from_fleet_report(report)
        assert traces
        assert {trace.trace.true_errors for trace in traces} == {-1}

    def test_only_a_fleet_that_drew_its_plans_knows_its_truth(self):
        config = FleetConfig(num_sessions=1, num_workers=2, batches_per_worker=2)
        drawn = LoadGenerator(EstimationService(), config).run()
        assert drawn.true_errors == int(config.true_labels().sum())
        plans = [build_worker_plan(config, worker) for worker in range(2)]
        injected = LoadGenerator(EstimationService(), config).run(plans=plans)
        assert injected.true_errors == -1


class TestOneDeliveryTally:
    def test_serial_and_threaded_runs_tally_one_plan_alike(self):
        """With one plan there is no interleaving, so both drives must
        count and record exactly the same acknowledgements."""
        config = FleetConfig(num_sessions=1, num_workers=1, batches_per_worker=6)
        plans = [build_worker_plan(config, 0)]
        threaded = LoadGenerator(EstimationService(), config).run(plans=plans)
        serial = LoadGenerator(EstimationService(), config).run_serial(plans)
        for report in (threaded, serial):
            assert report.deliveries == len(plans[0])
            assert len(report.latencies_s) == report.deliveries
        assert serial.duplicate_acks > 0 and serial.late_drops > 0
        for counter in (
            "deliveries",
            "applied_deliveries",
            "duplicate_acks",
            "late_drops",
            "columns_applied",
            "votes_applied",
            "applied_batches",
        ):
            assert getattr(serial, counter) == getattr(threaded, counter)

    def test_serial_run_interleaves_sources_round_robin(self):
        """One delivery per source per turn, sources in plan order."""
        scenario, matrix, plans = scenario_plans("reorder-heavy")
        service = EstimationService()
        arrivals = []

        class RecordingClient:
            def __getattr__(self, name):
                return getattr(service, name)

            def ingest(self, name, columns, **kwargs):
                arrivals.append((kwargs["source"], kwargs["sequence"]))
                return service.ingest(name, columns, **kwargs)

        drive = drive_scenario(scenario, matrix, client=RecordingClient())
        assert drive.serving_matches_replay
        assert arrivals == [
            (plan[turn].source, plan[turn].sequence)
            for turn in range(max(len(plan) for plan in plans))
            for plan in plans
            if turn < len(plan)
        ]
