"""Regression tests for the serving-layer bugfix sweep.

Each class pins one fixed bug:

* ``shutdown()`` on a constructed-but-never-started server used to
  deadlock (stdlib ``BaseServer.shutdown`` waits on an event only
  ``serve_forever`` sets) and would then never release the port.
* The ``MAX_BODY_BYTES`` guard used to *read the whole declared body*
  while rejecting it — allocating (and waiting for) whatever
  Content-Length the client claimed.
* Every client-side failure used to surface as the one ``HttpApiError``
  type (a ``ConfigurationError`` subclass), so ``except
  UnknownSessionError`` worked in-process but not over the wire, and a
  404 was catchable as a 409-style conflict.
* numpy arrays in estimator ``details`` escaped ``_plain`` and crashed
  ``json.dumps`` into an opaque 500, and a short ``worker_ids`` died as
  ``IndexError`` inside the client.
* The listen backlog was socketserver's default of 5, so in a burst of
  connecting clients most SYNs were dropped and their requests waited
  out a >= 1 s retransmit.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.common.exceptions import ConfigurationError, ValidationError
from repro.core.base import EstimateResult
from repro.serving import (
    EstimationService,
    HttpApiError,
    HttpServingServer,
    HttpUnknownSessionError,
    MemorySessionStore,
    ServingApi,
    SessionClient,
    StoreCorruptionError,
    UnknownSessionError,
    result_to_payload,
)
from repro.streaming.serving import EstimateReport


class TestShutdownNeverStarted:
    def test_shutdown_returns_promptly_and_releases_the_port(self):
        server = HttpServingServer(EstimationService(MemorySessionStore()))
        port = server.port
        finished = threading.Event()

        def call_shutdown():
            server.shutdown()
            finished.set()

        thread = threading.Thread(target=call_shutdown, daemon=True)
        thread.start()
        assert finished.wait(timeout=5), (
            "shutdown() deadlocked on a server that was never started"
        )
        # server_close() ran: the port is genuinely free again (a plain
        # bind without SO_REUSEADDR fails while a listener holds it).
        probe = socket.socket()
        try:
            probe.bind(("127.0.0.1", port))
        finally:
            probe.close()

    def test_shutdown_is_idempotent_after_a_started_lifecycle(self):
        server = HttpServingServer(EstimationService(MemorySessionStore()))
        server.start()
        SessionClient(server.url).health()
        server.shutdown()
        server.shutdown()  # second call must be a no-op, not a deadlock


class TestListenBacklog:
    CLIENTS = 32

    def test_a_connection_burst_is_served_without_syn_retransmits(self):
        # Every client connects while the server is bound but not yet
        # accepting, so all of them sit in the listen backlog at once.
        # With a backlog of 5 most SYNs were dropped and those requests
        # took >= 1 s (the first retransmit); now every one fits.
        server = HttpServingServer(EstimationService(MemorySessionStore()))
        durations, errors = [], []

        def request():
            started = time.monotonic()
            try:
                SessionClient(server.url, timeout=10).health()
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)
            durations.append(time.monotonic() - started)

        threads = [threading.Thread(target=request) for _ in range(self.CLIENTS)]
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.2)
            server.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            server.shutdown()
        assert not errors
        assert len(durations) == self.CLIENTS
        assert max(durations) < 1.0, sorted(durations)


class TestOversizedBodyGuard:
    def test_huge_declared_length_is_rejected_without_reading_it(
        self, memory_server
    ):
        # Declare a ludicrous Content-Length and send no body at all.
        # The fixed handler answers 400 immediately; the buggy one sat in
        # rfile.read() waiting to allocate the declared terabyte.
        with socket.create_connection(
            ("127.0.0.1", memory_server.port), timeout=10
        ) as connection:
            connection.sendall(
                b"POST /sessions HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 1099511627776\r\n"
                b"\r\n"
            )
            started = time.monotonic()
            connection.settimeout(10)
            # Read to EOF: the server answers 400 and closes the
            # connection, so the JSON error body is fully delivered even
            # when it rides a later TCP segment than the headers.
            response = b""
            while True:
                chunk = connection.recv(65536)
                if not chunk:
                    break
                response += chunk
            elapsed = time.monotonic() - started
        assert elapsed < 5, "the server waited for the declared body"
        status_line = response.split(b"\r\n", 1)[0]
        assert b"400" in status_line
        assert b"connection: close" in response.lower()
        assert b"validation" in response

    def test_the_socket_is_not_reused_after_the_rejection(self, memory_server):
        # The poisoned connection is closed (the unread body would
        # otherwise be parsed as the next request); fresh connections
        # keep working.
        client = SessionClient(memory_server.url)
        assert client.health()["status"] == "ok"


class TestMalformedContentLength:
    """A Content-Length that is not a byte count: 400, then EOF."""

    @pytest.mark.parametrize("declared", [b"-1", b"-5", b"abc"])
    def test_is_refused_and_the_connection_closed(self, memory_server, declared):
        body = json.dumps({"name": "bad", "items": 3}).encode("utf-8")
        with socket.create_connection(
            ("127.0.0.1", memory_server.port), timeout=10
        ) as connection:
            # The body follows at once and the socket stays open for
            # writing: a handler that reads to EOF never answers.
            connection.sendall(
                b"POST /sessions HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + declared + b"\r\n"
                b"\r\n" + body
            )
            connection.settimeout(1.0)
            response = b""
            while True:  # to EOF, which the 1 s timeout bounds
                chunk = connection.recv(65536)
                if not chunk:
                    break
                response += chunk
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        assert b"connection: close" in head.lower()
        assert json.loads(payload)["kind"] == "validation"
        # Neither the request nor its body, taken for a next request, ran.
        assert memory_server.service.sessions() == []
        assert memory_server.api.stats()["requests"] == 0


class TestTypedClientErrors:
    """Table-driven error-type parity between both clients.

    Every case runs once against the in-process façade and once against
    :class:`SessionClient` over a live server; both must raise the same
    exception type, and the wire one must carry the mapped status/kind.
    """

    CASES = (
        (
            "unknown_session",
            lambda facade: facade.estimates("ghost"),
            UnknownSessionError,
            404,
            "unknown_session",
        ),
        (
            "validation",
            lambda facade: facade.ingest("parity", [{0: 7}]),
            ValidationError,
            400,
            "validation",
        ),
        (
            "conflict",
            lambda facade: facade.create_session("parity", item_ids=[0, 1]),
            ConfigurationError,
            409,
            "conflict",
        ),
    )

    @pytest.mark.parametrize(
        "label, trigger, exception_type, status, kind",
        CASES,
        ids=[case[0] for case in CASES],
    )
    def test_both_clients_raise_the_same_type(
        self, memory_server, client, label, trigger, exception_type, status, kind
    ):
        for facade in (memory_server.service, client):
            facade_label = type(facade).__name__
            try:
                facade.create_session("parity", item_ids=[0, 1, 2])
            except ConfigurationError:
                pass  # already created by the other half of the loop
            with pytest.raises(exception_type):
                trigger(facade)
            # The wire client's exception additionally carries the HTTP
            # classification, and the precise subtype must not be
            # *swallowed* by a broader except clause: a 404 must no
            # longer be catchable as a conflict-style ConfigurationError
            # unless the in-process error is one too.
            if isinstance(facade, SessionClient):
                with pytest.raises(HttpApiError) as caught:
                    trigger(facade)
                assert caught.value.status == status, facade_label
                assert caught.value.kind == kind, facade_label

    def test_a_404_is_not_catchable_as_a_conflict(self, client):
        # The old hierarchy made every wire error a ConfigurationError;
        # the fix keeps the lattice aligned with the in-process one, so
        # UnknownSessionError (a ConfigurationError subclass in-process)
        # still is one, but ValidationError is not.
        with pytest.raises(HttpUnknownSessionError):
            client.progress("ghost")
        client.create_session("x", item_ids=[0])
        try:
            client.ingest("x", [{0: 9}])
        except ConfigurationError:  # pragma: no cover - the bug's shape
            pytest.fail("a 400 validation error was catchable as a conflict")
        except ValidationError:
            pass

    def test_unknown_kinds_fall_back_to_the_bare_base_class(self, client):
        # Unroutable paths report kind "unknown_route": no in-process
        # twin, so the client raises plain HttpApiError.
        with pytest.raises(HttpApiError) as caught:
            client._request("GET", "/no/such/route")
        assert type(caught.value) is HttpApiError
        assert caught.value.status == 404

    def test_store_corruption_surfaces_typed_over_the_wire(self, store_server):
        server, root = store_server
        wire = SessionClient(server.url)
        wire.create_session("durable", item_ids=[0, 1, 2], estimators=["voting"])
        wire.ingest("durable", [{0: 1}])
        wire.snapshot("durable")
        server.service.evict("durable")
        log = root / "durable.log"
        log.write_bytes(log.read_bytes()[:40])  # the snapshot head, torn
        with pytest.raises(StoreCorruptionError) as caught:
            wire.estimates("durable")
        assert caught.value.status == 500
        assert caught.value.kind == "store_corruption"


class _ArrayDetailsService:
    """A façade stub whose estimator details carry numpy arrays."""

    def estimate_report(self, name):
        return EstimateReport(
            session=name,
            version=(1, 2, 3),
            results={
                "stub": EstimateResult(
                    estimate=np.float64(12.5),
                    observed=np.int64(10),
                    details={
                        "frequencies": np.arange(6, dtype=np.int64).reshape(2, 3),
                        "trace": [np.float64(0.5), np.bool_(True)],
                    },
                )
            },
        )


class TestNdarraySafeDetails:
    def test_result_payload_with_ndarray_details_is_json_safe(self):
        payload = result_to_payload(
            EstimateResult(
                estimate=3.0,
                observed=1.0,
                details={"histogram": np.array([[1, 2], [3, 4]])},
            )
        )
        assert payload["details"]["histogram"] == [[1, 2], [3, 4]]
        json.dumps(payload)  # must not raise

    def test_estimates_route_serves_ndarray_details_instead_of_500(self):
        api = ServingApi(_ArrayDetailsService())
        status, payload = api.handle("GET", "/sessions/stub/estimates")
        assert status == 200, payload
        encoded = json.loads(json.dumps(payload))
        details = encoded["estimates"]["stub"]["details"]
        assert details["frequencies"] == [[0, 1, 2], [3, 4, 5]]
        assert details["trace"] == [0.5, True]


class TestClientWorkerIdsValidation:
    def test_short_worker_ids_raise_validation_error_not_index_error(self):
        client = SessionClient("http://127.0.0.1:1")  # never reaches the wire
        with pytest.raises(ValidationError, match="worker_ids length 1"):
            client.ingest("s", [{0: 1}, {1: 0}], worker_ids=[5])

    def test_matching_worker_ids_still_ingest(self, client):
        client.create_session("w", item_ids=[0, 1, 2])
        ack = client.ingest("w", [{0: 1}, {1: 0}], worker_ids=[5, None])
        assert ack.applied == 2
