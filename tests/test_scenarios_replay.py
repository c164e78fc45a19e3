"""The trace-replay codec: WALs and fleet records become pinned scenarios.

Satellite property (Hypothesis): a write-ahead log with an arbitrary
torn tail and duplicated batch records converts through
:func:`scenario_from_wal` into a scenario **bit-identical** to repairing
the log first and replaying it directly through
:func:`replay_batch_record` — the codec and crash recovery agree on
every byte of the matrix.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.exceptions import ConfigurationError
from repro.common.labels import CLEAN, DIRTY
from repro.scenarios import (
    Scenario,
    ScenarioRunner,
    TRACE_TAG,
    TraceSpec,
    scenario_from_wal,
    scenarios_from_fleet_report,
    trace_matrix,
)
from repro.serving.loadgen import FleetConfig, LoadGenerator
from repro.streaming.serving import (
    EstimationService,
    replay_batch_record,
)
from repro.streaming.session import StreamingSession
from repro.streaming.store import DirectorySessionStore
from repro.streaming.wal import (
    BatchRecord,
    CreateRecord,
    SessionLog,
    encode_record,
)

ESTIMATORS = ("voting", "chao92", "switch_total")


def write_log(path, records) -> SessionLog:
    log = SessionLog(path)
    for record in records:
        log.append(record)
    return log


class TestTraceSpec:
    def trace(self) -> TraceSpec:
        return TraceSpec(
            item_ids=(0, 1, 2),
            columns=(((0, DIRTY), (1, CLEAN)), ((2, DIRTY),)),
            worker_ids=(7, None),
            true_errors=2,
        )

    def test_round_trips_through_json(self):
        trace = self.trace()
        rebuilt = TraceSpec.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert rebuilt == trace

    def test_rejects_mismatched_worker_ids(self):
        with pytest.raises(ConfigurationError, match="worker ids"):
            TraceSpec(
                item_ids=(0, 1),
                columns=(((0, DIRTY),),),
                worker_ids=(1, 2),
            )

    def test_rejects_unknown_keys(self):
        payload = self.trace().to_dict()
        payload["extra"] = 1
        with pytest.raises(ConfigurationError, match="trace keys"):
            TraceSpec.from_dict(payload)

    def test_matrix_defaults_missing_workers_to_column_index(self):
        matrix = trace_matrix(self.trace())
        assert matrix.column_workers == [7, 1]
        assert matrix.num_columns == 2
        assert matrix.column_votes(0) == {0: DIRTY, 1: CLEAN}
        assert matrix.column_votes(1) == {2: DIRTY}


class TestScenarioFromWal:
    def test_wal_scenario_matches_the_live_session_bit_for_bit(self, tmp_path):
        """Columns ingested through a durable service convert to a trace
        whose matrix equals the live session's matrix exactly."""
        service = EstimationService(DirectorySessionStore(tmp_path / "store"))
        service.create_session("prod", range(12), ESTIMATORS)
        rng = np.random.default_rng(5)
        for sequence in range(1, 7):
            columns = [
                {
                    int(item): (DIRTY if rng.random() < 0.3 else CLEAN)
                    for item in rng.choice(12, size=4, replace=False)
                }
                for _ in range(2)
            ]
            service.ingest("prod", columns, source="w0", sequence=sequence)
        live = service.estimates("prod")
        wal = tmp_path / "store" / "prod.log"
        scenario = scenario_from_wal(wal, "prod-replay")
        assert TRACE_TAG in scenario.tags
        assert scenario.estimators == ESTIMATORS
        trajectory = ScenarioRunner().run(scenario)
        payload = trajectory.payload()
        for estimator, served in live.items():
            assert payload["trajectories"][estimator]["estimate"][-1] == (
                served.estimate
            )
            assert payload["trajectories"][estimator]["observed"][-1] == (
                served.observed
            )

    def test_duplicate_and_stale_records_convert_to_no_ops(self, tmp_path):
        create = CreateRecord(item_ids=(0, 1, 2), estimators=ESTIMATORS)
        fresh = BatchRecord.from_columns([{0: DIRTY}], source="a", sequence=1)
        second = BatchRecord.from_columns([{1: DIRTY}], source="a", sequence=2)
        stale = BatchRecord.from_columns([{2: DIRTY}], source="a", sequence=1)
        log = write_log(
            tmp_path / "dup.log", [create, fresh, fresh, second, stale]
        )
        scenario = scenario_from_wal(log, "dup-replay")
        assert scenario.trace.columns == (((0, DIRTY),), ((1, DIRTY),))

    def test_sourceless_records_always_apply(self, tmp_path):
        create = CreateRecord(item_ids=(0, 1), estimators=ESTIMATORS)
        batch = BatchRecord.from_columns([{0: DIRTY}])
        log = write_log(tmp_path / "anon.log", [create, batch, batch])
        scenario = scenario_from_wal(log, "anon-replay")
        assert scenario.trace.columns == (((0, DIRTY),), ((0, DIRTY),))

    def test_requires_a_leading_create_record(self, tmp_path):
        batch = BatchRecord.from_columns([{0: DIRTY}])
        log = write_log(tmp_path / "headless.log", [batch])
        with pytest.raises(ConfigurationError, match="session-create"):
            scenario_from_wal(log, "headless")
        with pytest.raises(ConfigurationError, match="session-create"):
            scenario_from_wal(tmp_path / "missing.log", "missing")

    def test_scenario_round_trips_through_json(self, tmp_path):
        create = CreateRecord(item_ids=(0, 1, 2), estimators=ESTIMATORS)
        batch = BatchRecord.from_columns(
            [{0: DIRTY, 1: CLEAN}], worker_ids=[4], source="a", sequence=1
        )
        log = write_log(tmp_path / "rt.log", [create, batch])
        scenario = scenario_from_wal(log, "rt-replay", tags=("nightly",))
        rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert rebuilt == scenario
        assert rebuilt.tags == ("nightly", TRACE_TAG)


class TestScenariosFromFleetReport:
    def test_fleet_sessions_convert_to_bit_identical_traces(self):
        """Every session a threaded fleet filled becomes a traced scenario
        whose final-checkpoint estimates equal the live served values."""
        config = FleetConfig(
            num_sessions=2,
            num_workers=4,
            num_items=60,
            batches_per_worker=3,
            duplicate_every=2,
            reorder_every=3,
            estimators=ESTIMATORS,
            seed=11,
        )
        service = EstimationService()
        report = LoadGenerator(service, config).run()
        scenarios = scenarios_from_fleet_report(report, tags=("fleet",))
        assert [s.name for s in scenarios] == [
            "replay-crowd-000",
            "replay-crowd-001",
        ]
        runner = ScenarioRunner()
        for scenario in scenarios:
            session = scenario.name[len("replay-"):]
            assert scenario.tags == ("fleet", TRACE_TAG)
            assert scenario.trace.true_errors >= 0
            payload = runner.run(scenario).payload()
            for estimator, served in service.estimates(session).items():
                assert payload["trajectories"][estimator]["estimate"][-1] == (
                    served.estimate
                )
                assert payload["trajectories"][estimator]["observed"][-1] == (
                    served.observed
                )
            rebuilt = Scenario.from_dict(
                json.loads(json.dumps(scenario.to_dict()))
            )
            assert rebuilt == scenario


# ---------------------------------------------------------------------------
# Satellite: the torn/duplicated-WAL property.
# ---------------------------------------------------------------------------

columns_strategy = st.lists(
    st.dictionaries(
        st.integers(min_value=0, max_value=5),
        st.sampled_from([CLEAN, DIRTY]),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=3,
)

batches_strategy = st.lists(
    st.tuples(
        columns_strategy,
        st.booleans(),  # duplicate this record (same source+sequence twin)?
        st.booleans(),  # attribute it to a source at all?
    ),
    min_size=1,
    max_size=6,
)


@given(
    batches=batches_strategy,
    torn_fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_torn_duplicated_wal_converts_exactly_like_repaired_replay(
    tmp_path_factory, batches, torn_fraction
):
    """The codec on a damaged log == direct replay of the repaired log.

    The log gets genuine duplicate records (retry twins with repeated
    ``(source, sequence)``) and a torn tail (a partial frame, as a crash
    mid-append leaves behind).  ``scenario_from_wal`` must read through
    both exactly as recovery does: the trace matrix is bit-identical to
    replaying ``log.repair()``'s surviving records through
    ``replay_batch_record``.
    """
    root = tmp_path_factory.mktemp("wal")
    create = CreateRecord(item_ids=tuple(range(6)), estimators=ESTIMATORS)
    log = write_log(root / "session.log", [create])
    for index, (columns, duplicate, sourced) in enumerate(batches):
        record = BatchRecord.from_columns(
            columns,
            source="src" if sourced else None,
            sequence=index + 1 if sourced else None,
        )
        log.append(record)
        if duplicate:
            log.append(record)
    # Tear the tail: append a strict prefix of one more valid frame.
    frame = encode_record(BatchRecord.from_columns([{0: DIRTY}]))
    torn_bytes = int(torn_fraction * len(frame))
    if torn_bytes:
        with open(log.path, "ab") as handle:
            handle.write(frame[:torn_bytes])

    scenario = scenario_from_wal(log, "damaged-replay")

    assert log.repair() == (torn_bytes > 0)
    session = StreamingSession(create.item_ids, create.estimators)
    sources: dict = {}
    for record in log.records()[1:]:
        replay_batch_record(session, sources, record)

    recovered = session.matrix()
    converted = trace_matrix(scenario.trace)
    assert converted.item_ids == recovered.item_ids
    assert converted.column_workers == recovered.column_workers
    assert np.array_equal(converted.values, recovered.values)
    # And the codec is stable: converting the repaired log changes nothing.
    assert scenario_from_wal(log, "damaged-replay") == scenario
