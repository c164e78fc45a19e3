"""End-to-end coverage of the HTTP API surface and its error mapping."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.serving import (
    DirectorySessionStore,
    EstimationService,
    HttpApiError,
    HttpServingServer,
    ServingApi,
    SessionClient,
    ShardedEstimationService,
)
from repro.streaming import StreamingSession


class TestRoutes:
    def test_health_reports_liveness_and_store_shape(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["sessions"] == 0
        assert health["shards"] == 1
        assert set(health) == {"status", "sessions", "active_sessions", "shards"}

    def test_session_lifecycle_over_the_wire(self, client):
        assert client.sessions() == []
        client.create_session("alpha", items=40, estimators=["voting", "chao92"])
        client.create_session("beta", item_ids=[3, 5, 8])
        assert client.sessions() == ["alpha", "beta"]

        client.ingest("alpha", [{0: 1, 3: 0}, {5: 1}], worker_ids=[1, 2])
        progress = client.progress("alpha")
        assert progress["num_columns"] == 2.0
        assert progress["total_votes"] == 3.0

        client.drop("beta")
        assert client.sessions() == ["alpha"]

    def test_served_estimates_are_bit_identical_to_the_service(
        self, memory_server, client
    ):
        client.create_session("s", items=30, estimators=["voting", "chao92", "switch_total"])
        client.ingest("s", [{0: 1, 1: 0, 2: 1}, {0: 1, 4: 0}, {2: 1, 7: 1}])
        # Dataclass equality across the JSON wire: floats must round-trip
        # exactly, details dicts included.
        assert client.estimates("s") == memory_server.service.estimates("s")

    def test_estimates_carry_the_state_version_triple(self, client):
        client.create_session("s", items=20, estimators=["voting"])
        client.ingest("s", [{0: 1}])
        first = client.estimate_report("s")
        assert first.session == "s"
        assert first.version[0] == 1  # one column applied
        # A read does not advance the version; another ingest does.
        assert client.estimate_report("s").version == first.version
        client.ingest("s", [{1: 0}])
        assert client.estimate_report("s").version > first.version

    def test_ingest_is_idempotent_per_source_and_sequence(self, client):
        client.create_session("s", items=20, estimators=["voting"])
        first = client.ingest("s", [{0: 1, 1: 1}], source="loader", sequence=1)
        assert not first.duplicate and first.applied == 1
        before = client.estimate_report("s")

        again = client.ingest("s", [{0: 1, 1: 1}], source="loader", sequence=1)
        assert again.duplicate and again.applied == 0
        assert again.num_columns == first.num_columns
        assert client.estimate_report("s") == before

    def test_snapshot_and_compact_persist_to_the_store(self, store_server):
        server, root = store_server
        client = SessionClient(server.url)
        client.create_session("durable", items=25, estimators=["voting"])
        client.ingest("durable", [{0: 1}, {2: 0}])
        assert client.snapshot("durable") == {"session": "durable", "snapshotted": True}
        assert client.compact("durable") == {"session": "durable", "compacted": True}
        assert (root / "durable.log").is_file()
        # A cold server over the same store must rebuild the session.
        server.shutdown()
        with HttpServingServer(EstimationService(DirectorySessionStore(root))) as cold:
            assert SessionClient(cold.url).progress("durable")["num_columns"] == 2.0

    def test_sharded_service_serves_identically(self, tmp_path):
        service = ShardedEstimationService(tmp_path / "shards", num_shards=3)
        with HttpServingServer(service) as server:
            client = SessionClient(server.url)
            client.create_session("a", items=10, estimators=["voting"])
            client.ingest("a", [{0: 1}])
            assert client.health()["shards"] == 3
            assert client.estimates("a") == service.estimates("a")


class TestErrorMapping:
    def test_unknown_session_maps_to_404(self, client):
        for call in (
            lambda: client.progress("ghost"),
            lambda: client.estimates("ghost"),
            lambda: client.ingest("ghost", [{0: 1}]),
            lambda: client.drop("ghost"),
        ):
            with pytest.raises(HttpApiError) as exc_info:
                call()
            assert exc_info.value.status == 404
            assert exc_info.value.kind == "unknown_session"

    def test_unknown_route_maps_to_404(self, memory_server):
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(memory_server.url + "/nope")
        assert exc_info.value.code == 404
        assert json.load(exc_info.value)["kind"] == "unknown_route"

    def test_validation_failures_map_to_400(self, client):
        cases = [
            lambda: client.create_session("bad name!", items=5),
            lambda: client.create_session("x"),  # neither items nor item_ids
        ]
        for call in cases:
            with pytest.raises(HttpApiError) as exc_info:
                call()
            assert exc_info.value.status == 400
            assert exc_info.value.kind == "validation"

    def test_malformed_bodies_map_to_400_not_tracebacks(self, memory_server):
        for body in (b"", b"{not json", b"[1, 2]", b'"a string"'):
            request = urllib.request.Request(
                memory_server.url + "/sessions", data=body, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(request)
            assert exc_info.value.code == 400
            assert json.load(exc_info.value)["kind"] == "validation"

    def test_configuration_conflicts_map_to_409(self, client):
        client.create_session("dup", items=5, estimators=["voting"])
        with pytest.raises(HttpApiError) as exc_info:
            client.create_session("dup", items=5, estimators=["voting"])
        assert exc_info.value.status == 409
        assert exc_info.value.kind == "conflict"

        with pytest.raises(HttpApiError) as exc_info:
            client.create_session("x", items=5, estimators=["not-an-estimator"])
        assert exc_info.value.status == 409

    def test_store_corruption_maps_to_500(self, tmp_path):
        root = tmp_path / "store"
        store = DirectorySessionStore(root)
        store.save("bad", StreamingSession([0, 1], ["voting"]).snapshot())
        (root / "bad.log").write_bytes(b"garbage")
        service = EstimationService(DirectorySessionStore(root))
        with HttpServingServer(service) as server:
            with pytest.raises(HttpApiError) as exc_info:
                SessionClient(server.url).estimates("bad")
        assert exc_info.value.status == 500
        assert exc_info.value.kind == "store_corruption"

    def test_api_counts_requests_and_errors(self, client, memory_server):
        client.create_session("s", items=5, estimators=["voting"])
        with pytest.raises(HttpApiError):
            client.progress("ghost")
        stats = memory_server.api.stats()
        assert stats["requests"] == 2
        assert stats["errors"] == 1


class TestTransportFreeApi:
    """The routing core is testable without a socket."""

    def test_routes_without_a_socket(self):
        api = ServingApi(EstimationService())
        status, payload = api.handle(
            "POST", "/sessions", json.dumps({"name": "s", "items": 5}).encode()
        )
        assert (status, payload["session"]) == (201, "s")
        status, payload = api.handle("GET", "/sessions/s")
        assert status == 200 and payload["progress"]["num_columns"] == 0

    def test_unknown_method_on_known_path_is_a_404(self):
        api = ServingApi(EstimationService())
        status, payload = api.handle("PATCH", "/sessions")
        assert status == 404 and payload["kind"] == "unknown_route"
