"""Snapshot/restore of streaming sessions is bit-identical.

The serving layer's durability guarantee: a session snapshotted at any
point and restored — in-memory or through the on-disk npz + JSON codec —
produces estimates identical to a session that never stopped, at the
restore point **and at every prefix after it**.  Pinned here by a
hypothesis property test over random matrices and split points, plus the
edge cases (empty sessions, ``keep_votes=False``, foreign estimators,
format versioning).  A second property test extends the guarantee to the
log-structured store: crashes (service rebuilt cold from disk) and
compactions injected at random points between ingests never change a
single estimate at any future prefix.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.exceptions import ConfigurationError, ValidationError
from repro.common.labels import CLEAN, DIRTY, UNSEEN
from repro.core.registry import available_estimators, get_estimator
from repro.core.state import StreamingState
from repro.crowd.response_matrix import ResponseMatrix
from repro.streaming import (
    DirectorySessionStore,
    EstimationService,
    SNAPSHOT_FORMAT_VERSION,
    StreamingSession,
    read_snapshot,
    write_snapshot,
)


def _random_matrix(rng, num_items, num_columns) -> ResponseMatrix:
    votes = rng.choice(
        [UNSEEN, CLEAN, DIRTY], size=(num_items, num_columns), p=[0.45, 0.25, 0.30]
    ).astype(np.int8)
    return ResponseMatrix.from_array(votes)


def _registry_estimators():
    unique = {}
    for key in available_estimators():
        instance = get_estimator(key)
        unique.setdefault(instance.name, instance)
    return list(unique.values())


def _feed(session: StreamingSession, matrix: ResponseMatrix, lo: int, hi: int) -> None:
    workers = matrix.column_workers
    for column in range(lo, hi):
        session.add_column(matrix.column_votes(column), workers[column])


def _assert_same_results(a, b, context=""):
    assert a.keys() == b.keys(), context
    for name in a:
        assert a[name].estimate == b[name].estimate, (context, name)
        assert a[name].observed == b[name].observed, (context, name)
        assert a[name].remaining == b[name].remaining, (context, name)
        assert a[name].details == b[name].details, (context, name)


matrices = st.integers(min_value=1, max_value=12).flatmap(
    lambda n_items: st.integers(min_value=0, max_value=10).flatmap(
        lambda n_cols: st.tuples(
            st.lists(
                st.lists(
                    st.sampled_from([DIRTY, CLEAN, UNSEEN]),
                    min_size=n_cols,
                    max_size=n_cols,
                ),
                min_size=n_items,
                max_size=n_items,
            ),
            st.integers(min_value=0, max_value=n_cols),
        )
    )
)


@given(matrices, st.booleans())
@settings(max_examples=40, deadline=None)
def test_snapshot_roundtrip_is_bit_identical_property(case, keep_votes):
    """Property: restore at any split point == a session that never stopped."""
    rows, split = case
    n_cols = len(rows[0]) if rows and rows[0] else 0
    votes = np.array(rows, dtype=np.int8).reshape(len(rows), n_cols)
    matrix = ResponseMatrix.from_array(votes)
    estimators = _registry_estimators()

    uninterrupted = StreamingSession(matrix.item_ids, estimators, keep_votes=keep_votes)
    stopped = StreamingSession(matrix.item_ids, estimators, keep_votes=keep_votes)
    _feed(uninterrupted, matrix, 0, split)
    _feed(stopped, matrix, 0, split)

    restored = StreamingSession.from_snapshot(stopped.snapshot(), estimators)
    _assert_same_results(uninterrupted.estimate(), restored.estimate(), "at split")
    assert restored.progress() == uninterrupted.progress()

    # The restored session keeps agreeing on every later prefix.
    for prefix in range(split + 1, matrix.num_columns + 1):
        _feed(uninterrupted, matrix, prefix - 1, prefix)
        _feed(restored, matrix, prefix - 1, prefix)
        _assert_same_results(
            uninterrupted.estimate(), restored.estimate(), f"prefix {prefix}"
        )
    if keep_votes and matrix.num_columns:
        assert np.array_equal(restored.matrix().values, matrix.values)
        assert restored.matrix().column_workers == matrix.column_workers


@given(matrices, st.booleans(), st.lists(st.integers(0, 2), min_size=1, max_size=8))
@settings(max_examples=25, deadline=None)
def test_wal_recovery_is_bit_identical_at_every_prefix_property(
    case, keep_votes, actions
):
    """Property: the log-structured path never changes an estimate.

    One column is ingested per batch through an ``EstimationService``
    over a :class:`DirectorySessionStore`; after each ingest, ``actions``
    picks nothing (0), a crash — the service and all in-memory sessions
    dropped, a cold one rebuilt from snapshot + log replay (1) — or a
    compaction (2).  At every prefix the served estimates must equal an
    uninterrupted in-memory session's, bit for bit.
    """
    rows, _ = case
    n_cols = len(rows[0]) if rows and rows[0] else 0
    votes = np.array(rows, dtype=np.int8).reshape(len(rows), n_cols)
    matrix = ResponseMatrix.from_array(votes)
    estimators = ["voting", "chao92", "vchao92", "switch_total"]

    uninterrupted = StreamingSession(matrix.item_ids, estimators, keep_votes=keep_votes)
    workers = matrix.column_workers
    with tempfile.TemporaryDirectory() as root:
        service = EstimationService(
            DirectorySessionStore(root), compact_after_bytes=None
        )
        service.create_session(
            "s", matrix.item_ids, estimators, keep_votes=keep_votes
        )
        for column in range(matrix.num_columns):
            service.ingest(
                "s",
                [matrix.column_votes(column)],
                worker_ids=[workers[column]],
                source="prop",
                sequence=column + 1,
            )
            uninterrupted.add_column(matrix.column_votes(column), workers[column])
            action = actions[column % len(actions)]
            if action == 1:  # crash: only the store survives
                service = EstimationService(
                    DirectorySessionStore(root), compact_after_bytes=None
                )
            elif action == 2:
                service.compact("s")
            _assert_same_results(
                uninterrupted.estimate(), service.estimates("s"), f"prefix {column + 1}"
            )
        # One final cold recovery, whatever mix of log and snapshot remains.
        recovered = EstimationService(DirectorySessionStore(root))
        _assert_same_results(
            uninterrupted.estimate(), recovered.estimates("s"), "final recovery"
        )


class TestSnapshotDiskFormat:
    def test_disk_roundtrip_preserves_arrays_and_estimates(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = _random_matrix(rng, 15, 9)
        session = StreamingSession.replay(matrix, ["voting", "chao92", "switch_total"])
        snapshot = session.snapshot()
        directory = write_snapshot(snapshot, tmp_path / "snap")
        assert (directory / "manifest.json").exists()
        assert (directory / "arrays.npz").exists()
        loaded = read_snapshot(directory)
        assert loaded.manifest == snapshot.manifest
        assert set(loaded.arrays) == set(snapshot.arrays)
        for key in snapshot.arrays:
            assert np.array_equal(loaded.arrays[key], snapshot.arrays[key]), key
            assert loaded.arrays[key].dtype == snapshot.arrays[key].dtype, key
        restored = StreamingSession.from_snapshot(loaded)
        _assert_same_results(session.estimate(), restored.estimate())

    def test_unsupported_format_version_rejected(self, tmp_path):
        session = StreamingSession([0, 1], ["voting"])
        snapshot = session.snapshot()
        snapshot.manifest["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        with pytest.raises(ConfigurationError, match="format version"):
            StreamingSession.from_snapshot(snapshot)
        directory = write_snapshot(snapshot, tmp_path / "bad")
        with pytest.raises(ConfigurationError, match="format version"):
            read_snapshot(directory)

    def test_non_snapshot_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not a session snapshot"):
            read_snapshot(tmp_path)

    @pytest.mark.parametrize(
        "name, content",
        [
            ("manifest.json", b"{ not json"),
            ("manifest.json", b"\xff\xfe"),
            ("manifest.json", b"[1, 2]"),
            ("arrays.npz", b"{ not an archive"),
            ("arrays.npz", b"PK\x03\x04 truncated"),
        ],
        ids=["manifest-not-json", "manifest-non-utf8", "manifest-not-object",
             "arrays-not-zip", "arrays-truncated-zip"],
    )
    def test_undecodable_files_are_rejected_naming_the_file(
        self, tmp_path, name, content
    ):
        directory = write_snapshot(StreamingSession([0, 1], ["voting"]).snapshot(), tmp_path)
        (directory / name).write_bytes(content)
        with pytest.raises(ConfigurationError, match="undecodable") as caught:
            read_snapshot(directory)
        assert str(directory / name) in str(caught.value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("format_version", "x"),
            ("format_version", True),
            ("estimators", 5),
            ("estimators", ["voting", 3]),
            ("state", []),
            ("state", None),
            ("keep_votes", "false"),
        ],
    )
    def test_a_malformed_manifest_field_is_rejected_naming_it(self, tmp_path, field, value):
        snapshot = StreamingSession([0, 1], ["voting"]).snapshot()
        snapshot.manifest[field] = value
        with pytest.raises(ConfigurationError, match=f"manifest.json: field '{field}'"):
            StreamingSession.from_snapshot(snapshot)
        directory = write_snapshot(snapshot, tmp_path / "export")
        with pytest.raises(ConfigurationError, match=f"field '{field}'"):
            StreamingSession.from_snapshot(read_snapshot(directory))

    def test_manifest_records_session_shape(self):
        session = StreamingSession([3, 5, 9], ["voting", "chao92"])
        session.add_column({3: DIRTY, 5: CLEAN}, worker_id=7)
        manifest = session.snapshot().manifest
        assert manifest["format_version"] == SNAPSHOT_FORMAT_VERSION
        assert manifest["num_items"] == 3
        assert manifest["num_columns"] == 1
        assert manifest["total_votes"] == 2
        assert manifest["estimators"] == ["voting", "chao92"]
        assert manifest["keep_votes"] is True


class TestSnapshotEstimatorResolution:
    def test_unregistered_estimator_name_fails_with_remedy(self):
        class Custom:
            name = "not-in-registry"

            def estimate_state(self, state):  # pragma: no cover - never called
                raise AssertionError

        session = StreamingSession([0, 1], [Custom()])
        snapshot = session.snapshot()
        with pytest.raises(ConfigurationError, match="estimators="):
            StreamingSession.from_snapshot(snapshot)

    def test_explicit_estimator_instances_override_the_names(self):
        session = StreamingSession([0, 1], ["voting", "chao92"])
        session.add_column({0: DIRTY})
        restored = StreamingSession.from_snapshot(session.snapshot(), ["voting"])
        assert [est.name for est in restored.estimators] == ["voting"]
        assert (
            restored.estimate("voting").estimate
            == session.estimate("voting").estimate
        )


class TestKeepVotesFalseSnapshots:
    def test_keep_votes_false_roundtrip_preserves_state_but_not_matrix(self, tmp_path):
        rng = np.random.default_rng(8)
        matrix = _random_matrix(rng, 10, 6)
        session = StreamingSession.replay(
            matrix, ["voting", "chao92", "switch_total"], keep_votes=False
        )
        directory = write_snapshot(session.snapshot(), tmp_path / "lean")
        loaded = read_snapshot(directory)
        # No vote columns travel in a lean snapshot.
        assert not any(key.startswith("column_") for key in loaded.arrays)
        restored = StreamingSession.from_snapshot(loaded)
        _assert_same_results(session.estimate(), restored.estimate())
        with pytest.raises(ConfigurationError, match="keep_votes"):
            restored.matrix()
        # The restored lean session keeps ingesting and agreeing.
        reference = StreamingSession.replay(matrix, ["voting"], keep_votes=False)
        restored.add_column(matrix.column_votes(0), 99)
        reference_plus = StreamingSession(matrix.item_ids, ["voting"], keep_votes=False)
        _feed(reference_plus, matrix, 0, 6)
        reference_plus.add_column(matrix.column_votes(0), 99)
        assert (
            restored.estimate("voting").estimate
            == reference_plus.estimate("voting").estimate
        )


class TestStateArrayCodecValidation:
    def test_mismatched_count_arrays_rejected(self):
        state = StreamingState([0, 1, 2])
        arrays, meta = state.to_arrays()
        arrays["positive"] = np.zeros(5, dtype=np.int64)
        with pytest.raises(ValidationError, match="item dimension"):
            StreamingState.from_arrays(arrays, meta)

    def test_truncated_majority_history_rejected(self):
        state = StreamingState([0, 1])
        state.apply_column([0], [DIRTY])
        arrays, meta = state.to_arrays()
        arrays["majority_history"] = arrays["majority_history"][:-1]
        with pytest.raises(ValidationError, match="majority history"):
            StreamingState.from_arrays(arrays, meta)

    def test_snapshot_is_a_value_not_a_view(self):
        """Mutating the snapshotted session does not mutate the snapshot."""
        session = StreamingSession([0, 1], ["voting"])
        session.add_column({0: DIRTY})
        snapshot = session.snapshot()
        before = {key: value.copy() for key, value in snapshot.arrays.items()}
        session.add_column({1: DIRTY})
        for key, value in before.items():
            assert np.array_equal(snapshot.arrays[key], value), key
