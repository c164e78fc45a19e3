"""Streaming/batch equivalence and the StreamingSession API.

The tentpole guarantee: feeding a matrix column-by-column through a
:class:`~repro.streaming.StreamingSession` yields estimates bit-identical
to the batch path — both ``estimate(matrix, j)`` and the sweep engine's
checkpoint ``j`` — for every registered estimator, at every prefix.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.exceptions import ConfigurationError, ValidationError
from repro.common.labels import CLEAN, DIRTY, UNSEEN
from repro.core.registry import available_estimators, get_estimator
from repro.core.state import MatrixPrefixState, StreamingState
from repro.crowd.response_matrix import ResponseMatrix
from repro.streaming import StreamingSession


def _random_matrix(rng, num_items=None, num_columns=None) -> ResponseMatrix:
    num_items = num_items or int(rng.integers(1, 25))
    num_columns = num_columns if num_columns is not None else int(rng.integers(0, 20))
    votes = rng.choice(
        [UNSEEN, CLEAN, DIRTY], size=(num_items, num_columns), p=[0.45, 0.25, 0.30]
    ).astype(np.int8)
    return ResponseMatrix.from_array(votes)


def _feed_columns(session: StreamingSession, matrix: ResponseMatrix, upto: int) -> None:
    workers = matrix.column_workers
    for column in range(session.num_columns, upto):
        session.add_column(matrix.column_votes(column), workers[column])


def _registry_estimators():
    """One instance per distinct estimator name in the registry.

    Registry keys may alias one estimator name (other tests register
    variants); sessions key results by the instance name, so dedupe.
    """
    unique = {}
    for key in available_estimators():
        instance = get_estimator(key)
        unique.setdefault(instance.name, instance)
    return list(unique.values())


class TestStreamingBatchEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_batch_at_every_prefix(self, seed):
        """Column-by-column streaming equals the per-prefix batch estimate."""
        rng = np.random.default_rng(seed)
        matrix = _random_matrix(rng)
        estimators = _registry_estimators()
        session = StreamingSession(matrix.item_ids, estimators)
        for prefix in range(1, matrix.num_columns + 1):
            _feed_columns(session, matrix, prefix)
            streamed = session.estimate()
            for estimator in estimators:
                name = estimator.name
                reference = estimator.estimate(matrix, prefix)
                assert streamed[name].estimate == reference.estimate, (name, prefix)
                assert streamed[name].observed == reference.observed, (name, prefix)
                assert streamed[name].details == reference.details, (name, prefix)

    def test_matches_sweep_engine_at_every_checkpoint(self):
        """The acceptance contract: streaming == estimate_sweep per checkpoint."""
        rng = np.random.default_rng(42)
        matrix = _random_matrix(rng, num_items=30, num_columns=18)
        checkpoints = [1, 4, 9, 13, 18]
        estimators = _registry_estimators()
        swept = {
            est.name: est.estimate_sweep(matrix, checkpoints) for est in estimators
        }
        session = StreamingSession(matrix.item_ids, estimators)
        for index, checkpoint in enumerate(checkpoints):
            _feed_columns(session, matrix, checkpoint)
            streamed = session.estimate()
            for name in swept:
                assert streamed[name].estimate == swept[name][index].estimate
                assert streamed[name].observed == swept[name][index].observed
                assert streamed[name].details == swept[name][index].details

    def test_single_vote_ingestion_equals_one_item_columns(self):
        """add_vote is a one-item task column, consistent with the batch path."""
        session = StreamingSession([10, 11, 12], estimators=["voting", "chao92", "switch"])
        session.add_vote(10, DIRTY)
        session.add_vote(11, CLEAN, worker_id=99)
        session.add_vote(10, DIRTY)
        matrix = session.matrix()
        assert matrix.num_columns == 3
        assert matrix.column_workers == [0, 99, 2]
        for name, result in session.estimate().items():
            reference = get_estimator(name).estimate(matrix)
            assert result.estimate == reference.estimate
            assert result.details == reference.details

    def test_replay_constructor_consumes_whole_matrix(self):
        rng = np.random.default_rng(7)
        matrix = _random_matrix(rng, num_items=12, num_columns=9)
        session = StreamingSession.replay(matrix, ["switch_total"])
        assert session.num_columns == matrix.num_columns
        assert session.total_votes == matrix.total_votes()
        result = session.estimate("switch_total")
        reference = get_estimator("switch_total").estimate(matrix)
        assert result.estimate == reference.estimate
        # The materialised matrix round-trips the ingested stream exactly.
        assert np.array_equal(session.matrix().values, matrix.values)


@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda n_items: st.integers(min_value=0, max_value=8).flatmap(
            lambda n_cols: st.lists(
                st.lists(
                    st.sampled_from([DIRTY, CLEAN, UNSEEN]),
                    min_size=n_cols,
                    max_size=n_cols,
                ),
                min_size=n_items,
                max_size=n_items,
            )
        )
    ),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_streaming_state_equals_prefix_state_property(rows, split):
    """Property: the incremental state equals the batch state on any matrix.

    A second state goes through the snapshot codec (``to_arrays`` ->
    ``from_arrays``) after ``split`` columns and must then equal the state
    fed straight through, at every prefix and in its final arrays.
    """
    n_cols = len(rows[0]) if rows and rows[0] else 0
    votes = np.array(rows, dtype=np.int8).reshape(len(rows), n_cols)
    matrix = ResponseMatrix.from_array(votes)
    streaming = StreamingState(matrix.item_ids)
    resumed = StreamingState(matrix.item_ids)
    split = min(split, matrix.num_columns)
    for prefix in range(matrix.num_columns + 1):
        if prefix == split:
            resumed = _snapshot_round_trip(resumed)
        if prefix == 0:
            continue
        column = votes[:, prefix - 1]
        present = np.nonzero(column != UNSEEN)[0]
        for state in (streaming, resumed):
            state.apply_column(
                [int(r) for r in present], [int(column[r]) for r in present]
            )
        batch = MatrixPrefixState(matrix, prefix)
        for state in (streaming, resumed):
            _assert_state_matches(state, batch, prefix)
        # The version is saved state, so a restored state keeps it.
        assert resumed.version == streaming.version
    final, resumed_final = streaming.to_arrays(), resumed.to_arrays()
    assert final[1] == resumed_final[1]
    assert final[0].keys() == resumed_final[0].keys()
    for key, value in final[0].items():
        np.testing.assert_array_equal(resumed_final[0][key], value, err_msg=key)


#: dtype of every snapshot array of a :class:`StreamingState`; all but the
#: majority history have one entry per item.
_STATE_ARRAY_DTYPES = {
    "item_ids": np.int64,
    "positive": np.int64,
    "negative": np.int64,
    "majority_history": np.int64,
    "switch_margin": np.int64,
    "switch_consensus": np.int8,
    "switch_open_rediscoveries": np.int64,
    "switch_open_positive": np.bool_,
    "switch_has_positive": np.bool_,
    "switch_has_negative": np.bool_,
}


def _snapshot_round_trip(state: StreamingState) -> StreamingState:
    """``state`` through its snapshot codec, checking every array's dtype and shape."""
    arrays, meta = state.to_arrays()
    assert arrays.keys() == _STATE_ARRAY_DTYPES.keys()
    for key, value in arrays.items():
        assert value.dtype == _STATE_ARRAY_DTYPES[key], key
        length = state.num_columns + 1 if key == "majority_history" else state.num_items
        assert value.shape == (length,), key
    return StreamingState.from_arrays(arrays, json.loads(json.dumps(meta)))


def _assert_state_matches(state: StreamingState, batch: MatrixPrefixState, prefix: int):
    assert state.nominal_count() == batch.nominal_count()
    assert state.majority_count() == batch.majority_count()
    assert state.positive_fingerprint() == batch.positive_fingerprint()
    for min_votes in (1, 2, 3):
        assert state.coverage_counts(min_votes) == batch.coverage_counts(min_votes)
    live, reference = state.switch_stats(), batch.switch_stats()
    assert live.num_switches == reference.num_switches
    assert live.items_with_switches == reference.items_with_switches
    assert live.n_switch == reference.n_switch
    assert live.total_votes == reference.total_votes
    for direction in (None, "positive", "negative"):
        assert live.fingerprint(direction) == reference.fingerprint(direction)
    lookback = min(3, prefix)
    assert state.majority_count_back(lookback) == batch.majority_count_back(lookback)


class TestLookbackContract:
    def test_majority_count_back_out_of_range_raises_in_every_state(self):
        """All three state implementations agree: lookback must stay in the prefix."""
        from repro.core.state import matrix_sweep_states

        rng = np.random.default_rng(4)
        matrix = _random_matrix(rng, num_items=6, num_columns=3)
        streaming = StreamingState(matrix.item_ids)
        for column in range(matrix.num_columns):
            values = np.asarray(matrix.values)[:, column]
            present = np.nonzero(values != UNSEEN)[0]
            streaming.apply_column(
                [int(r) for r in present], [int(values[r]) for r in present]
            )
        states = [
            streaming,
            MatrixPrefixState(matrix, 3),
            matrix_sweep_states(matrix, [3])[0],
        ]
        for state in states:
            assert state.majority_count_back(0) == state.majority_count()
            assert state.majority_count_back(3) == 0
            with pytest.raises(ValidationError):
                state.majority_count_back(4)
            with pytest.raises(ValidationError):
                state.majority_count_back(-1)


class TestStreamingSessionApi:
    def test_default_estimators_cover_registry(self):
        session = StreamingSession([0, 1])
        assert {est.name for est in session.estimators} == {
            get_estimator(key).name for key in available_estimators()
        }

    def test_unknown_item_rejected(self):
        session = StreamingSession([0, 1], ["voting"])
        with pytest.raises(ValidationError, match="unknown item"):
            session.add_column({5: DIRTY})

    def test_invalid_vote_rejected(self):
        session = StreamingSession([0, 1], ["voting"])
        with pytest.raises(ValidationError, match="DIRTY"):
            session.add_column({0: UNSEEN})

    def test_duplicate_estimators_rejected(self):
        with pytest.raises(ConfigurationError, match="unique"):
            StreamingSession([0], ["voting", "voting"])

    def test_unknown_estimate_name_rejected(self):
        session = StreamingSession([0], ["voting"])
        with pytest.raises(ConfigurationError, match="unknown session estimator"):
            session.estimate("chao92")

    def test_estimate_only_fallback_uses_materialised_matrix(self):
        class MinimalEstimator:
            name = "minimal"

            def estimate(self, matrix, upto=None):
                return get_estimator("voting").estimate(matrix, upto)

        rng = np.random.default_rng(11)
        matrix = _random_matrix(rng, num_items=8, num_columns=6)
        session = StreamingSession.replay(matrix, [MinimalEstimator(), "voting"])
        results = session.estimate()
        assert results["minimal"].estimate == results["voting"].estimate

    def test_keep_votes_false_blocks_fallback_but_not_state_path(self):
        class MinimalEstimator:
            name = "minimal"

            def estimate(self, matrix, upto=None):  # pragma: no cover - never reached
                raise AssertionError

        session = StreamingSession([0, 1], ["voting", MinimalEstimator()], keep_votes=False)
        session.add_column({0: DIRTY})
        assert session.estimate("voting").estimate == 1.0
        with pytest.raises(ConfigurationError, match="keep_votes"):
            session.estimate("minimal")
        with pytest.raises(ConfigurationError, match="keep_votes"):
            session.matrix()

    def test_extend_from_requires_matching_items(self):
        rng = np.random.default_rng(2)
        matrix = _random_matrix(rng, num_items=5, num_columns=4)
        session = StreamingSession([100, 101], ["voting"])
        with pytest.raises(ValidationError, match="item ids"):
            session.extend_from(matrix)

    def test_progress_summary_tracks_the_stream(self):
        session = StreamingSession([0, 1, 2], ["voting"])
        session.add_column({0: DIRTY, 1: CLEAN})
        session.add_column({0: DIRTY, 2: DIRTY})
        progress = session.progress()
        assert progress["num_columns"] == 2.0
        assert progress["total_votes"] == 4.0
        assert progress["majority_count"] == 2.0
        assert progress["nominal_count"] == 2.0

    def test_empty_session_estimates_zero(self):
        session = StreamingSession([0, 1], ["voting", "chao92", "switch_total"])
        for result in session.estimate().values():
            assert result.estimate == 0.0


class TestStreamingSessionEdgeCases:
    """The corners of the ingestion contract: empty streams, degenerate
    worker populations, duplicated columns and invalid item ids."""

    def test_empty_matrix_session_matches_batch_on_zero_columns(self):
        """A session that ingested nothing equals batch estimation at upto=0."""
        matrix = ResponseMatrix([0, 1, 2])  # zero columns
        session = StreamingSession([0, 1, 2], _registry_estimators())
        assert session.num_columns == 0
        assert session.total_votes == 0
        for name, result in session.estimate().items():
            batch = get_estimator(name).estimate(matrix, 0)
            assert result.estimate == batch.estimate
            assert result.observed == batch.observed
        # The materialised matrix is a genuine 3 x 0 ResponseMatrix.
        assert session.matrix().num_columns == 0
        assert session.matrix().item_ids == [0, 1, 2]

    def test_single_worker_supplying_every_column(self):
        """All columns from one worker id: valid, and equal to the batch path."""
        session = StreamingSession([0, 1, 2, 3], _registry_estimators())
        for _ in range(6):
            session.add_column({0: DIRTY, 1: CLEAN, 2: DIRTY}, worker_id=7)
        matrix = session.matrix()
        assert matrix.column_workers == [7] * 6
        for name, result in session.estimate().items():
            batch = get_estimator(name).estimate(matrix)
            assert result.estimate == batch.estimate

    def test_duplicate_task_columns_accumulate_like_batch(self):
        """Ingesting the identical column twice is two distinct tasks."""
        votes = {0: DIRTY, 1: CLEAN, 3: DIRTY}
        session = StreamingSession([0, 1, 2, 3], _registry_estimators())
        first = session.add_column(votes, worker_id=1)
        second = session.add_column(votes, worker_id=2)
        assert (first, second) == (0, 1)
        assert session.num_columns == 2
        assert session.total_votes == 6
        matrix = session.matrix()
        for name, result in session.estimate().items():
            batch = get_estimator(name).estimate(matrix)
            assert result.estimate == batch.estimate

    def test_empty_vote_column_advances_the_stream(self):
        """A column touching no items still counts as a consumed task."""
        session = StreamingSession([0, 1], ["voting", "chao92"])
        session.add_column({0: DIRTY})
        session.add_column({})
        assert session.num_columns == 2
        assert session.total_votes == 1
        matrix = session.matrix()
        assert matrix.num_columns == 2
        for name, result in session.estimate().items():
            assert result.estimate == get_estimator(name).estimate(matrix).estimate

    def test_out_of_range_item_ids_rejected_without_corrupting_state(self):
        session = StreamingSession([0, 1, 2], ["voting", "chao92"])
        session.add_column({0: DIRTY, 1: DIRTY})
        before = {name: r.estimate for name, r in session.estimate().items()}
        with pytest.raises(ValidationError, match="unknown item id"):
            session.add_vote(999, DIRTY)
        with pytest.raises(ValidationError, match="unknown item id"):
            session.add_column({0: DIRTY, 42: CLEAN})
        # The failed ingestions left no partial state behind.
        assert session.num_columns == 1
        assert session.total_votes == 2
        assert {name: r.estimate for name, r in session.estimate().items()} == before
        # The session still accepts valid work afterwards.
        session.add_column({2: DIRTY})
        assert session.num_columns == 2

    @pytest.mark.parametrize(
        "bad_column, message",
        [({1: DIRTY, 2: 7}, "DIRTY"), ({1: DIRTY, 42: CLEAN}, "unknown item id")],
        ids=["bad-vote", "unknown-item"],
    )
    def test_a_rejected_batch_applies_none_of_its_columns(self, bad_column, message):
        """add_columns checks every column before applying any of them."""
        session = StreamingSession([0, 1, 2], ["voting", "chao92", "switch"])
        session.add_column({0: DIRTY, 1: CLEAN})
        before = (
            session.num_columns,
            session.total_votes,
            session.state.version,
            session.estimate(),
        )
        with pytest.raises(ValidationError, match=message):
            session.add_columns([{0: DIRTY}, {1: CLEAN, 2: DIRTY}, bad_column])
        after = (
            session.num_columns,
            session.total_votes,
            session.state.version,
            session.estimate(),
        )
        assert after == before
        assert session.matrix().num_columns == 1


class TestServingUseEdgeCases:
    """Session behavior the serving layer leans on: restored-but-empty
    sessions, replaying matrices into sessions that already hold columns,
    and lean (keep_votes=False) snapshot round trips."""

    def test_empty_just_restored_session_reports_and_estimates_zero(self):
        """progress() and estimate() work before any votes reach a restored
        session, and match a never-snapshotted empty session exactly."""
        fresh = StreamingSession([0, 1, 2], ["voting", "chao92", "switch_total"])
        restored = StreamingSession.from_snapshot(fresh.snapshot())
        assert restored.progress() == fresh.progress()
        assert restored.progress()["num_columns"] == 0.0
        for name, result in restored.estimate().items():
            assert result.estimate == 0.0, name
            assert result.remaining == 0.0, name
        # The restored empty session ingests normally afterwards.
        restored.add_column({0: DIRTY})
        assert restored.estimate("voting").estimate == 1.0
        assert restored.matrix().num_columns == 1

    def test_extend_from_into_session_with_existing_columns(self):
        """Replaying a matrix into a non-empty session appends its columns,
        equal to batch estimation over the concatenation."""
        rng = np.random.default_rng(17)
        head = _random_matrix(rng, num_items=8, num_columns=4)
        tail = ResponseMatrix.from_array(
            np.asarray(_random_matrix(rng, num_items=8, num_columns=5).values),
            item_ids=head.item_ids,
        )
        session = StreamingSession(head.item_ids, _registry_estimators())
        session.extend_from(head)
        ingested = session.extend_from(tail)
        assert ingested == tail.num_columns
        assert session.num_columns == head.num_columns + tail.num_columns
        combined = ResponseMatrix.from_array(
            np.concatenate(
                [np.asarray(head.values), np.asarray(tail.values)], axis=1
            ),
            item_ids=head.item_ids,
        )
        for name, result in session.estimate().items():
            reference = get_estimator(name).estimate(combined)
            assert result.estimate == reference.estimate, name
            assert result.details == reference.details, name

    def test_replay_into_restored_session_continues_the_stream(self):
        """Snapshot mid-stream, restore, then replay the rest of the matrix."""
        rng = np.random.default_rng(23)
        matrix = _random_matrix(rng, num_items=10, num_columns=8)
        session = StreamingSession(matrix.item_ids, ["voting", "switch_total"])
        _feed_columns(session, matrix, 3)
        restored = StreamingSession.from_snapshot(session.snapshot())
        assert restored.extend_from(matrix, start=3) == 5
        for name, result in restored.estimate().items():
            reference = get_estimator(name).estimate(matrix)
            assert result.estimate == reference.estimate, name

    def test_keep_votes_false_snapshot_roundtrip_stays_lean_and_exact(self):
        """A lean session round-trips: same estimates, still O(state) memory."""
        rng = np.random.default_rng(29)
        matrix = _random_matrix(rng, num_items=12, num_columns=7)
        lean = StreamingSession.replay(
            matrix, ["voting", "chao92", "switch"], keep_votes=False
        )
        restored = StreamingSession.from_snapshot(lean.snapshot())
        for name, result in restored.estimate().items():
            assert result.estimate == lean.estimate(name).estimate, name
        with pytest.raises(ConfigurationError, match="keep_votes"):
            restored.matrix()
        assert restored.progress() == lean.progress()


class TestSnapshotCaching:
    """Repeated estimate reads between updates are O(1): the positive-vote
    and switch fingerprints are snapshotted once per mutation, not once per
    read."""

    def test_repeated_estimates_share_fingerprint_snapshots(self):
        session = StreamingSession([0, 1, 2, 3], ["chao92", "switch"], keep_votes=False)
        session.add_column({0: DIRTY, 1: DIRTY, 2: CLEAN})
        state = session.state
        first = state.positive_fingerprint()
        assert state.positive_fingerprint() is first
        first_switch = state.switch_stats().fingerprint()
        assert state.switch_stats().fingerprint() is first_switch
        # Reads do not disturb the estimates.
        a = session.estimate("chao92")
        b = session.estimate("chao92")
        assert a.estimate == b.estimate and a.details == b.details

    def test_snapshots_refresh_after_updates(self):
        session = StreamingSession([0, 1, 2, 3], ["chao92"], keep_votes=False)
        session.add_column({0: DIRTY})
        stale = session.state.positive_fingerprint()
        session.add_column({1: DIRTY, 0: DIRTY})
        fresh = session.state.positive_fingerprint()
        assert fresh is not stale
        reference = ResponseMatrix([0, 1, 2, 3])
        reference.add_column({0: DIRTY}, worker_id=0)
        reference.add_column({1: DIRTY, 0: DIRTY}, worker_id=1)
        assert fresh.frequencies == {1: 1, 2: 1}

    def test_directional_switch_snapshots_track_n_switch(self):
        """A vote that only moves n_switch must refresh every direction."""
        from repro.core.switch import NEGATIVE, POSITIVE

        session = StreamingSession([0, 1], ["switch_total"], keep_votes=False)
        session.add_column({0: DIRTY, 1: CLEAN})
        session.add_column({1: DIRTY})
        stats = session.state.switch_stats()
        negative_before = stats.fingerprint(NEGATIVE)
        # A positive-direction rediscovery grows n_switch but never touches
        # the negative fingerprint's frequency table.
        session.add_column({0: DIRTY})
        stats = session.state.switch_stats()
        negative_after = stats.fingerprint(NEGATIVE)
        assert negative_after.num_observations == stats.n_switch
        assert negative_after is not negative_before
