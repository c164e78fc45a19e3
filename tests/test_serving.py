"""The multi-tenant serving layer: EstimationService + SessionStore.

Covers the tentpole behaviors: named sessions, idempotent batched
ingestion (duplicate deliveries are no-ops), estimate caching keyed on
the state's mutation version, snapshot/restore through both store
backends and their one log contract, LRU eviction with transparent
revival, and thread-safe ingestion, drop, restore and revival under one
table entry per session name.
"""

from __future__ import annotations

import json
import sys
import threading
from itertools import accumulate

import numpy as np
import pytest

from repro.common.exceptions import ConfigurationError, ValidationError
from repro.common.labels import CLEAN, DIRTY, UNSEEN
from repro.core.registry import get_estimator
from repro.crowd.response_matrix import ResponseMatrix
from repro.serving import ServingApi
from repro.streaming import (
    BatchRecord,
    CreateRecord,
    DirectorySessionStore,
    EstimationService,
    MemorySessionStore,
    StreamingSession,
    check_session_name,
)
from repro.streaming.wal import encode_record


def _columns(rng, num_items, count, touched=6):
    columns = []
    for _ in range(count):
        items = rng.choice(num_items, size=min(touched, num_items), replace=False)
        votes = rng.choice([CLEAN, DIRTY], size=items.size)
        columns.append({int(item): int(vote) for item, vote in zip(items, votes)})
    return columns


class TestSessionLifecycle:
    def test_create_ingest_estimates_matches_batch_reference(self):
        rng = np.random.default_rng(0)
        service = EstimationService()
        service.create_session("alpha", range(20), ["voting", "chao92"])
        columns = _columns(rng, 20, 8)
        service.ingest("alpha", columns, worker_ids=list(range(8)))
        reference = ResponseMatrix(list(range(20)))
        for worker, votes in enumerate(columns):
            reference.add_column(votes, worker)
        results = service.estimates("alpha")
        for name in ("voting", "chao92"):
            batch = get_estimator(name).estimate(reference)
            assert results[name].estimate == batch.estimate
            assert results[name].details == batch.details

    def test_duplicate_name_rejected_even_when_stored(self):
        service = EstimationService()
        service.create_session("alpha", [0, 1], ["voting"])
        with pytest.raises(ConfigurationError, match="already exists"):
            service.create_session("alpha", [0, 1], ["voting"])
        service.snapshot("alpha")
        service.evict("alpha")
        with pytest.raises(ConfigurationError, match="already exists"):
            service.create_session("alpha", [0, 1], ["voting"])

    def test_unknown_session_errors_list_available(self):
        service = EstimationService()
        service.create_session("alpha", [0], ["voting"])
        with pytest.raises(ConfigurationError, match="alpha"):
            service.estimates("beta")
        with pytest.raises(ConfigurationError, match="unknown session"):
            service.ingest("beta", [{0: DIRTY}])

    def test_invalid_session_names_rejected(self):
        service = EstimationService()
        for bad in ("", "../escape", "a/b", ".hidden", "white space"):
            with pytest.raises(ValidationError, match="session name"):
                service.create_session(bad, [0], ["voting"])
        with pytest.raises(ValidationError):
            check_session_name("-leading-dash")

    def test_drop_removes_live_and_stored_state(self):
        service = EstimationService()
        service.create_session("alpha", [0], ["voting"])
        service.snapshot("alpha")
        service.drop("alpha")
        assert service.sessions() == []
        with pytest.raises(ConfigurationError, match="unknown session"):
            service.drop("alpha")
        # The name is reusable after a drop.
        service.create_session("alpha", [0], ["voting"])


class TestIdempotentIngestion:
    def test_duplicated_batch_is_a_noop(self):
        service = EstimationService()
        service.create_session("alpha", range(10), ["voting", "chao92"])
        batch = [{0: DIRTY, 1: CLEAN}, {2: DIRTY}]
        first = service.ingest("alpha", batch, source="loader", sequence=7)
        assert (first.applied, first.duplicate) == (2, False)
        before = service.estimates("alpha")
        replay = service.ingest("alpha", batch, source="loader", sequence=7)
        assert (replay.applied, replay.duplicate) == (0, True)
        assert replay.num_columns == first.num_columns
        assert replay.total_votes == first.total_votes
        after = service.estimates("alpha")
        assert {n: r.estimate for n, r in after.items()} == {
            n: r.estimate for n, r in before.items()
        }

    def test_stale_and_advancing_sequences(self):
        service = EstimationService()
        service.create_session("alpha", range(5), ["voting"])
        service.ingest("alpha", [{0: DIRTY}], source="loader", sequence=5)
        stale = service.ingest("alpha", [{1: DIRTY}], source="loader", sequence=4)
        assert stale.duplicate and stale.applied == 0
        advanced = service.ingest("alpha", [{1: DIRTY}], source="loader", sequence=6)
        assert advanced.applied == 1 and not advanced.duplicate

    def test_sources_are_independent(self):
        service = EstimationService()
        service.create_session("alpha", range(5), ["voting"])
        service.ingest("alpha", [{0: DIRTY}], source="a", sequence=1)
        other = service.ingest("alpha", [{1: DIRTY}], source="b", sequence=1)
        assert other.applied == 1 and not other.duplicate

    def test_unsourced_ingestion_is_never_deduplicated(self):
        service = EstimationService()
        service.create_session("alpha", range(5), ["voting"])
        assert service.ingest("alpha", [{0: DIRTY}]).applied == 1
        assert service.ingest("alpha", [{0: DIRTY}]).applied == 1
        assert service.progress("alpha")["num_columns"] == 2.0

    def test_source_and_sequence_must_travel_together(self):
        service = EstimationService()
        service.create_session("alpha", [0], ["voting"])
        with pytest.raises(ValidationError, match="together"):
            service.ingest("alpha", [{0: DIRTY}], source="loader")
        with pytest.raises(ValidationError, match="together"):
            service.ingest("alpha", [{0: DIRTY}], sequence=1)

    def test_worker_ids_length_checked(self):
        service = EstimationService()
        service.create_session("alpha", [0], ["voting"])
        with pytest.raises(ValidationError, match="worker_ids"):
            service.ingest("alpha", [{0: DIRTY}], worker_ids=[1, 2])

    def test_failed_batch_is_atomic_and_safely_retryable(self):
        """A batch rejected mid-validation leaves no partial state, so the
        client can fix it and redeliver under the same sequence number."""
        service = EstimationService()
        service.create_session("alpha", range(5), ["voting"])
        with pytest.raises(ValidationError, match="DIRTY"):
            service.ingest(
                "alpha", [{0: DIRTY}, {1: 7}], source="loader", sequence=1
            )
        with pytest.raises(ValidationError, match="unknown item"):
            service.ingest(
                "alpha", [{0: DIRTY}, {99: DIRTY}], source="loader", sequence=1
            )
        progress = service.progress("alpha")
        assert progress["num_columns"] == 0.0
        assert progress["total_votes"] == 0.0
        fixed = service.ingest(
            "alpha", [{0: DIRTY}, {1: CLEAN}], source="loader", sequence=1
        )
        assert (fixed.applied, fixed.duplicate) == (2, False)

    def test_each_vote_is_checked_once(self, monkeypatch):
        """The service checks a batch through the session, which then
        applies it without a second check."""
        import repro.streaming.serving as serving_module
        import repro.streaming.session as session_module

        calls = []
        real_check = session_module.check_vote

        def counting_check(vote, item_id):
            calls.append(item_id)
            real_check(vote, item_id)

        # Wherever a module of the ingest path looks the name up.
        monkeypatch.setattr(session_module, "check_vote", counting_check)
        monkeypatch.setattr(serving_module, "check_vote", counting_check, raising=False)
        service = EstimationService()
        service.create_session("alpha", range(5), ["voting"])
        columns = [{0: DIRTY, 1: CLEAN}, {2: DIRTY}, {0: CLEAN, 3: DIRTY, 4: DIRTY}]
        ack = service.ingest("alpha", columns, source="loader", sequence=1)
        assert ack.applied == 3 and ack.total_votes == 6
        assert calls == [0, 1, 2, 0, 3, 4]

    def test_an_unknown_item_is_reported_before_its_vote(self):
        """A vote with an unknown item id *and* a bad value names the item,
        in process and over HTTP alike."""
        from repro.serving import HttpApiError, HttpServingServer, SessionClient

        service = EstimationService()
        service.create_session("alpha", range(5), ["voting"])
        with pytest.raises(ValidationError) as in_process:
            service.ingest("alpha", [{0: DIRTY}, {99: 7}])
        assert str(in_process.value) == "unknown item id 99"
        with HttpServingServer(service) as server:
            with pytest.raises(HttpApiError) as remote:
                SessionClient(server.url).ingest("alpha", [{0: DIRTY}, {99: 7}])
        assert (remote.value.status, remote.value.kind) == (400, "validation")
        assert "unknown item id 99" in str(remote.value)
        assert "DIRTY" not in str(remote.value)
        assert service.progress("alpha")["num_columns"] == 0.0

    def test_idempotency_survives_snapshot_restore(self):
        store = MemorySessionStore()
        service = EstimationService(store)
        service.create_session("alpha", range(5), ["voting"])
        service.ingest("alpha", [{0: DIRTY}], source="loader", sequence=3)
        service.snapshot("alpha")
        revived = EstimationService(store)
        replay = revived.ingest("alpha", [{0: DIRTY}], source="loader", sequence=3)
        assert replay.duplicate
        fresh = revived.ingest("alpha", [{1: DIRTY}], source="loader", sequence=4)
        assert fresh.applied == 1


    def test_non_string_source_is_rejected_so_dedup_survives_reopen(self, tmp_path):
        """Snapshots key high-water marks by string: an integer source used
        to stop deduplicating once the session was compacted and reopened."""
        service = EstimationService(DirectorySessionStore(tmp_path))
        service.create_session("alpha", range(5), ["voting"])
        with pytest.raises(ValidationError, match="source"):
            service.ingest("alpha", [{0: DIRTY}], source=5, sequence=1)
        service.ingest("alpha", [{0: DIRTY}], source="5", sequence=1)
        service.compact("alpha")
        reopened = EstimationService(DirectorySessionStore(tmp_path))
        assert reopened.ingest("alpha", [{0: DIRTY}], source="5", sequence=1).duplicate
        with pytest.raises(ValidationError, match="source"):
            reopened.ingest("alpha", [{0: DIRTY}], source=5, sequence=1)
        assert reopened.progress("alpha")["num_columns"] == 1.0


class TestWireNumbers:
    """Wire integers are validated, never truncated (``check_int`` rules)."""

    @staticmethod
    def ingest(api, **body):
        return api.handle(
            "POST", "/sessions/s/batches", json.dumps(body).encode("utf-8")
        )

    @pytest.mark.parametrize(
        "body",
        [
            {"columns": [{"0": 1}], "source": "a", "sequence": 5.5},
            {"columns": [{"0": 1}], "source": "a", "sequence": True},
            {"columns": [{"0": 1}], "source": "a", "sequence": "7"},
            {"columns": [{"0": 0.5}]},
            {"columns": [{"0": 1.9}]},
            {"columns": [{"0": True}]},
            {"columns": [{"votes": {"0": 1}, "worker": 2.7}]},
            {"columns": [{"votes": {"0": 1}, "worker": "2"}]},
            {"columns": [{"0": 1}], "source": 5, "sequence": 6},
        ],
        ids=[
            "fractional-sequence", "bool-sequence", "string-sequence",
            "half-vote", "fractional-vote", "bool-vote", "fractional-worker",
            "string-worker", "integer-source",
        ],
    )
    def test_non_integers_are_a_400_and_leave_the_session_untouched(self, body):
        api = ServingApi(EstimationService())
        api.handle("POST", "/sessions", b'{"name": "s", "items": 3}')
        assert self.ingest(api, columns=[{"0": 1}], source="a", sequence=5)[0] == 200
        status, payload = self.ingest(api, **body)
        assert (status, payload["kind"]) == (400, "validation"), payload
        status, progress = api.handle("GET", "/sessions/s")
        assert progress["progress"]["num_columns"] == 1.0

    def test_integral_floats_are_integers_as_in_process(self):
        api = ServingApi(EstimationService())
        api.handle("POST", "/sessions", b'{"name": "s", "items": 3}')
        column = {"votes": {"0": 1.0, "1": 0}, "worker": 4.0}
        status, ack = self.ingest(api, columns=[column], source="a", sequence=6.0)
        assert status == 200 and ack["applied"] == 1 and not ack["duplicate"]
        status, ack = self.ingest(api, columns=[column], source="a", sequence=6)
        assert status == 200 and ack["duplicate"]


class TestEstimateCaching:
    def test_idle_polls_return_cached_objects(self):
        service = EstimationService()
        service.create_session("alpha", range(5), ["voting", "chao92"])
        service.ingest("alpha", [{0: DIRTY, 1: CLEAN}])
        first = service.estimates("alpha")
        second = service.estimates("alpha")
        assert second["chao92"] is first["chao92"]
        assert second["voting"] is first["voting"]
        assert service.estimate_cache_hits == 1
        assert service.estimates_served == 2

    def test_mutations_invalidate_the_cache(self):
        service = EstimationService()
        service.create_session("alpha", range(5), ["voting"])
        service.ingest("alpha", [{0: DIRTY}])
        first = service.estimates("alpha")
        service.ingest("alpha", [{1: DIRTY}])
        second = service.estimates("alpha")
        assert second["voting"] is not first["voting"]
        assert second["voting"].estimate == 2.0
        assert service.estimate_cache_hits == 0

    def test_duplicate_batches_do_not_invalidate_the_cache(self):
        service = EstimationService()
        service.create_session("alpha", range(5), ["voting"])
        service.ingest("alpha", [{0: DIRTY}], source="s", sequence=1)
        first = service.estimates("alpha")
        service.ingest("alpha", [{0: DIRTY}], source="s", sequence=1)  # no-op
        assert service.estimates("alpha")["voting"] is first["voting"]


class TestDurabilityAndEviction:
    def test_restored_session_estimates_bit_identically(self):
        rng = np.random.default_rng(4)
        store = MemorySessionStore()
        service = EstimationService(store)
        service.create_session("alpha", range(15), ["voting", "chao92", "switch_total"])
        service.ingest("alpha", _columns(rng, 15, 10))
        live = service.estimates("alpha")
        service.snapshot("alpha")
        revived = EstimationService(store)
        restored = revived.estimates("alpha")
        for name in live:
            assert restored[name] == live[name]

    def test_lru_eviction_and_transparent_revival(self):
        service = EstimationService(max_active=2)
        service.create_session("a", [0, 1], ["voting"])
        service.ingest("a", [{0: DIRTY}])
        service.create_session("b", [0, 1], ["voting"])
        service.create_session("c", [0, 1], ["voting"])  # evicts "a" (LRU)
        assert service.active_sessions() == ["b", "c"]
        assert "a" in service.store.names()
        assert service.sessions_evicted == 1
        # Touching "a" revives it (and evicts the new LRU, "b").
        assert service.estimates("a")["voting"].estimate == 1.0
        assert service.active_sessions() == ["c", "a"]
        assert service.sessions_restored == 1

    def test_explicit_evict_parks_and_next_touch_restores(self):
        service = EstimationService()
        service.create_session("alpha", [0, 1], ["voting"])
        service.ingest("alpha", [{0: DIRTY}])
        assert service.evict("alpha") == "alpha"
        assert service.active_sessions() == []
        assert service.progress("alpha")["num_columns"] == 1.0
        assert service.active_sessions() == ["alpha"]

    def test_evict_without_name_picks_lru(self):
        service = EstimationService()
        assert service.evict() is None
        service.create_session("a", [0], ["voting"])
        service.create_session("b", [0], ["voting"])
        service.progress("a")  # "a" becomes most-recently-used
        assert service.evict() == "b"
        with pytest.raises(ConfigurationError, match="not live"):
            service.evict("b")

    def test_directory_store_survives_processes(self, tmp_path):
        rng = np.random.default_rng(11)
        first = EstimationService(DirectorySessionStore(tmp_path / "sessions"))
        first.create_session("alpha", range(12), ["voting", "switch_total"])
        first.ingest("alpha", _columns(rng, 12, 6), source="cli", sequence=1)
        first.snapshot("alpha")
        live = first.estimates("alpha")
        second = EstimationService(DirectorySessionStore(tmp_path / "sessions"))
        assert second.sessions() == ["alpha"]
        restored = second.estimates("alpha")
        for name in live:
            assert restored[name] == live[name]
        assert second.ingest(
            "alpha", [{0: DIRTY}], source="cli", sequence=1
        ).duplicate

    def test_restore_imports_a_foreign_snapshot_under_a_new_name(self):
        service = EstimationService()
        service.create_session("alpha", [0, 1], ["voting"])
        service.ingest("alpha", [{0: DIRTY}])
        snapshot = service.snapshot("alpha")
        progress = service.restore("clone", snapshot)
        assert progress["num_columns"] == 1.0
        assert service.estimates("clone") == service.estimates("alpha")


class TestSessionStores:
    @pytest.mark.parametrize("backend", ["memory", "directory"])
    def test_store_contract(self, backend, tmp_path):
        store = (
            MemorySessionStore()
            if backend == "memory"
            else DirectorySessionStore(tmp_path / "root")
        )
        session = StreamingSession([0, 1, 2], ["voting"])
        session.add_column({0: DIRTY, 2: CLEAN})
        snapshot = session.snapshot()
        assert store.names() == []
        assert "alpha" not in store
        store.save("alpha", snapshot)
        assert store.names() == ["alpha"] and "alpha" in store and len(store) == 1
        loaded = store.load("alpha")
        assert loaded.manifest == snapshot.manifest
        for key in snapshot.arrays:
            assert np.array_equal(loaded.arrays[key], snapshot.arrays[key])
        # Loads are independent copies: mutating one does not leak back.
        loaded.arrays["positive"][0] = 99
        assert store.load("alpha").arrays["positive"][0] != 99
        store.delete("alpha")
        assert store.names() == []
        with pytest.raises(ConfigurationError, match="no stored session"):
            store.load("alpha")
        with pytest.raises(ConfigurationError, match="no stored session"):
            store.delete("alpha")

    @pytest.mark.parametrize("backend", ["memory", "directory"])
    def test_log_contract(self, backend, tmp_path):
        """create → batches → compaction → more batches → recovery.

        Both stores count each record as its on-disk frame, so they
        return the same sizes and the same records for the same log.
        """
        store = (
            MemorySessionStore()
            if backend == "memory"
            else DirectorySessionStore(tmp_path / "root")
        )
        create = CreateRecord(item_ids=(0, 1, 2), estimators=("voting",))
        batches = [
            BatchRecord.from_columns([{0: DIRTY, 2: CLEAN}], [7], "s", sequence)
            for sequence in range(1, 5)
        ]
        frames = [len(encode_record(record)) for record in (create, *batches)]
        assert store.log_size("alpha") == 0
        sizes = [store.append("alpha", record) for record in (create, *batches[:2])]
        assert sizes == list(accumulate(frames[:3]))
        assert store.log_size("alpha") == sizes[-1]
        assert store.recovery("alpha") == (None, [create, *batches[:2]])
        with pytest.raises(ConfigurationError, match="no base snapshot"):
            store.load("alpha")

        session = StreamingSession([0, 1, 2], ["voting"])
        session.add_columns([{0: DIRTY, 2: CLEAN}] * 2, [7, 7])
        snapshot = session.snapshot()
        store.save("alpha", snapshot)
        assert store.log_size("alpha") == 0
        sizes = [store.append("alpha", record) for record in batches[2:]]
        assert sizes == list(accumulate(frames[3:]))
        assert store.log_size("alpha") == sizes[-1]
        head, records = store.recovery("alpha")
        assert records == batches[2:]
        assert head.manifest == snapshot.manifest
        assert head.arrays.keys() == snapshot.arrays.keys()
        for key in snapshot.arrays:
            assert np.array_equal(head.arrays[key], snapshot.arrays[key])
        with pytest.raises(ConfigurationError, match="no stored session"):
            store.recovery("beta")

    def test_directory_store_overwrites_atomically(self, tmp_path):
        store = DirectorySessionStore(tmp_path / "root")
        session = StreamingSession([0, 1], ["voting"])
        store.save("alpha", session.snapshot())
        session.add_column({0: DIRTY})
        store.save("alpha", session.snapshot())
        assert store.load("alpha").manifest["num_columns"] == 1
        # No staging leftovers.
        assert [p.name for p in (tmp_path / "root").iterdir()] == ["alpha.log"]


class TestThreadSafety:
    def test_concurrent_ingestion_across_sessions_matches_serial(self):
        rng = np.random.default_rng(21)
        per_session = {
            f"tenant-{i}": _columns(np.random.default_rng(100 + i), 25, 30)
            for i in range(6)
        }
        service = EstimationService()
        for name in per_session:
            service.create_session(name, range(25), ["voting", "chao92"])

        def run(name):
            for sequence, column in enumerate(per_session[name], start=1):
                service.ingest(name, [column], source="t", sequence=sequence)

        threads = [
            threading.Thread(target=run, args=(name,)) for name in per_session
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for name, columns in per_session.items():
            reference = StreamingSession(list(range(25)), ["voting", "chao92"])
            for column in columns:
                reference.add_column(column)
            live = service.estimates(name)
            for est_name, result in reference.estimate().items():
                assert live[est_name].estimate == result.estimate, (name, est_name)

    def test_concurrent_ingestion_into_one_session_loses_nothing(self):
        """Per-session locking: interleaved writers never drop or double votes."""
        service = EstimationService()
        service.create_session("shared", range(10), ["voting"])
        per_thread = 40

        def run(thread_index):
            for sequence in range(1, per_thread + 1):
                service.ingest(
                    "shared",
                    [{thread_index: DIRTY}],
                    source=f"writer-{thread_index}",
                    sequence=sequence,
                )
                # A concurrent retry of the same batch must stay a no-op.
                service.ingest(
                    "shared",
                    [{thread_index: DIRTY}],
                    source=f"writer-{thread_index}",
                    sequence=sequence,
                )

        threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        progress = service.progress("shared")
        assert progress["num_columns"] == 8 * per_thread
        assert progress["total_votes"] == 8 * per_thread
        # Order-independent statistics match the batch reference exactly.
        assert service.estimates("shared")["voting"].estimate == 8.0


class _GatedStore(DirectorySessionStore):
    """Holds the next batch append, once armed, until the test releases it."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.armed = False
        self.entered = threading.Event()
        self.release = threading.Event()

    def append(self, name, record):
        if self.armed and isinstance(record, BatchRecord):
            self.armed = False
            self.entered.set()
            assert self.release.wait(10)
        return super().append(name, record)


class TestRetiringALiveSession:
    """``drop`` and ``restore`` let an ingest already inside the session land first."""

    def _race(self, store, service, call):
        """Run ``call`` while an ingest of one vote into ``a`` is held in its append."""
        store.armed = True
        acks = []
        ingest = threading.Thread(
            target=lambda: acks.append(
                service.ingest("a", [{0: DIRTY}], source="s", sequence=1)
            )
        )
        ingest.start()
        assert store.entered.wait(10)
        other = threading.Thread(target=call)
        other.start()
        other.join(1.0)  # it either returns now or waits for the ingest
        store.release.set()
        ingest.join(10)
        other.join(10)
        assert acks and acks[0].applied == 1

    def test_drop_waits_for_an_ingest_in_flight(self, tmp_path):
        store = _GatedStore(tmp_path)
        service = EstimationService(store)
        service.create_session("a", range(3), ["voting"])
        self._race(store, service, lambda: service.drop("a"))
        assert service.sessions() == [] and "a" not in store
        service.create_session("a", range(3), ["voting"])
        assert EstimationService(DirectorySessionStore(tmp_path)).progress("a")[
            "num_columns"
        ] == 0

    def test_restore_waits_for_an_ingest_in_flight(self, tmp_path):
        store = _GatedStore(tmp_path)
        service = EstimationService(store)
        service.create_session("a", range(3), ["voting"])
        foreign = StreamingSession(range(3), ["voting"])
        foreign.add_column({0: DIRTY, 1: CLEAN})
        self._race(store, service, lambda: service.restore("a", foreign.snapshot()))
        live = service.estimate_report("a")
        reopened = EstimationService(DirectorySessionStore(tmp_path)).estimate_report("a")
        assert live.version[:2] == (1, 2)
        assert (reopened.version, reopened.results) == (live.version, live.results)

    def test_restore_and_compact_under_concurrent_ingest_lose_nothing(self):
        store = MemorySessionStore()
        service = EstimationService(store, compact_after_bytes=400)
        names, writers, per_writer = ("a", "b"), 4, 30
        for name in names:
            service.create_session(name, range(10), ["voting", "chao92"])

        def write(index):
            for sequence in range(1, per_writer + 1):
                for name in names:
                    column = {index: DIRTY, 4 + sequence % 6: CLEAN}
                    service.ingest(name, [column], source=f"w{index}", sequence=sequence)

        def churn():
            for _ in range(40):
                for name in names:
                    service.restore(name)
                    service.compact(name)

        threads = [threading.Thread(target=write, args=(i,)) for i in range(writers)]
        threads.append(threading.Thread(target=churn))
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        reopened = EstimationService(store)
        for name in names:
            live, cold = service.estimate_report(name), reopened.estimate_report(name)
            assert live.version[:2] == (writers * per_writer, 2 * writers * per_writer)
            assert (cold.version[:2], cold.results) == (live.version[:2], live.results)

    def test_restore_rejects_anything_but_a_snapshot(self):
        service = EstimationService()
        service.create_session("a", range(3), ["voting"])
        with pytest.raises(ValidationError, match="snapshot must be a SessionSnapshot"):
            service.restore("a", object())
        assert service.progress("a")["num_columns"] == 0


class _PausedRecoveryStore(DirectorySessionStore):
    """Holds the next recovery, once armed, ``"before"`` or ``"after"`` it reads the log."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.armed = None
        self.paused = threading.Event()
        self.resume = threading.Event()

    def _hold(self, point):
        if self.armed == point:
            self.armed = None
            self.paused.set()
            self.resume.wait(10)

    def recovery(self, name):
        self._hold("before")
        try:
            return super().recovery(name)
        finally:
            self._hold("after")


class TestOneEntryPerName:
    """Every op on a name runs under its one table entry's lock, recovery included."""

    def _while_recovering(self, store, read, call, point="after"):
        """Run ``call`` while ``read`` is held inside a recovery; returns both outcomes.

        ``call`` either finishes while the recovery is held, or parks on
        the name's lock until the recovery ends: the bounded join lets it
        do either before the recovery resumes.
        """
        outcomes = {}

        def run(key, target):
            try:
                outcomes[key] = target()
            except Exception as error:  # the outcome under test
                outcomes[key] = error

        store.armed = point
        reader = threading.Thread(target=run, args=("read", read), daemon=True)
        reader.start()
        assert store.paused.wait(10)
        other = threading.Thread(target=run, args=("call", call), daemon=True)
        other.start()
        other.join(0.5)
        store.resume.set()
        reader.join(10)
        other.join(10)
        assert not reader.is_alive() and not other.is_alive()
        return outcomes["read"], outcomes["call"]

    def test_a_revival_never_installs_a_stale_state(self, tmp_path):
        store = _PausedRecoveryStore(tmp_path)
        service = EstimationService(store, max_active=1)
        service.create_session("a", range(3), ["voting", "chao92"])
        service.create_session("b", range(3), ["voting"])  # evicts "a"

        def ingest_then_evict():
            service.ingest("a", [{0: DIRTY}], source="s", sequence=1)
            return service.progress("b")  # evicts "a" again

        read, call = self._while_recovering(
            store, lambda: service.progress("a"), ingest_then_evict
        )
        assert isinstance(read, dict) and isinstance(call, dict)
        live = service.estimate_report("a")
        cold = EstimationService(DirectorySessionStore(tmp_path)).estimate_report("a")
        assert cold.version[:2] == (1, 1)
        assert (live.version, live.results) == (cold.version, cold.results)

    @pytest.mark.parametrize("point", ["before", "after"], ids=lambda p: f"{p}-read")
    def test_a_drop_during_recovery_leaves_nothing_behind(self, tmp_path, point):
        store = _PausedRecoveryStore(tmp_path)
        service = EstimationService(store)
        service.create_session("a", range(3), ["voting"])
        service.ingest("a", [{0: DIRTY}])
        service.evict("a")
        read, call = self._while_recovering(
            store, lambda: service.progress("a"), lambda: service.drop("a"), point
        )
        assert call is None
        assert isinstance(read, dict) or "unknown session" in str(read)
        assert service.sessions() == [] and service.active_sessions() == []
        assert "a" not in store
        assert EstimationService(DirectorySessionStore(tmp_path)).sessions() == []
        service.create_session("a", range(3), ["voting"])
        assert service.progress("a")["num_columns"] == 0
        reopened = EstimationService(DirectorySessionStore(tmp_path))
        assert reopened.progress("a")["num_columns"] == 0

    def test_a_failed_read_does_not_block_the_create(self, tmp_path):
        store = _PausedRecoveryStore(tmp_path)
        service = EstimationService(store)
        read, call = self._while_recovering(
            store,
            lambda: service.estimate_report("x"),
            lambda: service.create_session("x", range(3), ["voting"]),
        )
        assert call == "x"
        assert "unknown session" in str(read)
        assert service.sessions() == ["x"] and service.active_sessions() == ["x"]
        reopened = EstimationService(DirectorySessionStore(tmp_path))
        assert reopened.progress("x")["num_columns"] == 0

    def test_revival_churn_under_concurrent_ingest_loses_nothing(self, tmp_path):
        # No compaction: decoding a snapshot record parses its npy headers
        # with ``ast``, which is not thread-safe at this switch interval.
        service = EstimationService(
            DirectorySessionStore(tmp_path), max_active=1, compact_after_bytes=None
        )
        names, writers, per_writer = ("a", "b", "c"), 4, 15
        for name in names:
            service.create_session(name, range(10), ["voting", "chao92"])

        def write(index):
            for sequence in range(1, per_writer + 1):
                for name in names:  # each touch evicts the session touched before
                    column = {index: DIRTY, 4 + sequence % 6: CLEAN}
                    service.ingest(name, [column], source=f"w{index}", sequence=sequence)
                    service.estimate_report(name)

        threads = [threading.Thread(target=write, args=(i,)) for i in range(writers)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert service.sessions_evicted > len(names)
        assert len(service.active_sessions()) == 1
        reopened = EstimationService(DirectorySessionStore(tmp_path))
        for name in names:
            live, cold = service.estimate_report(name), reopened.estimate_report(name)
            assert live.version[:2] == (writers * per_writer, 2 * writers * per_writer)
            assert (cold.version[:2], cold.results) == (live.version[:2], live.results)

    def test_a_failed_lookup_leaves_the_table_as_it_found_it(self):
        service = EstimationService(max_active=2)
        service.create_session("a", [0], ["voting"])
        service.create_session("b", [0], ["voting"])
        for call in (service.progress, service.drop, service.evict):
            with pytest.raises(ConfigurationError):
                call("ghost")
        assert service.active_sessions() == ["a", "b"]
        assert service.sessions() == ["a", "b"]

    def test_restore_serves_the_restored_estimates_not_the_cached_ones(self):
        service = EstimationService()
        service.create_session("a", range(3), ["chao92"])
        service.ingest("a", [{0: DIRTY}, {0: DIRTY}])
        cached = service.estimate_report("a")
        other = StreamingSession(range(3), ["chao92"])
        other.add_columns([{0: DIRTY}, {1: DIRTY}])
        expected = other.estimate()
        # Same mutation version, different state: only the restore knows.
        assert other.state.version == cached.version
        assert expected["chao92"] != cached.results["chao92"]
        service.restore("a", other.snapshot())
        assert service.estimate_report("a").results == expected
        assert EstimationService(service.store).estimate_report("a").results == expected

    def test_create_on_a_memory_store_never_lists_every_name(self, monkeypatch):
        store = MemorySessionStore()
        service = EstimationService(store)

        def listed(self):
            raise AssertionError("create_session listed every stored name")

        monkeypatch.setattr(MemorySessionStore, "names", listed)
        for index in range(5):
            service.create_session(f"s{index}", [0], ["voting"])
        with pytest.raises(ConfigurationError, match="already exists"):
            service.create_session("s0", [0], ["voting"])
        assert "s4" in store and "s5" not in store and len(store) == 5
