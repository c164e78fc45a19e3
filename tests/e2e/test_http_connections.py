"""How the HTTP server treats a connection, and how the client opens one.

* ``_respond`` sends the headers and the body in two writes.  Without
  ``TCP_NODELAY``, Nagle's algorithm held the body back until the
  client's delayed ACK of the headers, so every request after the first
  on a keep-alive connection took about 40 ms.
* The handler set no socket timeout, so a client that stopped sending
  in the middle of a request held its server thread forever.
* The server started a thread for every connection, without limit.  A
  handler thread now serves connection after connection, and a
  connection that finds ``max_handler_threads`` threads busy is
  answered 503 ``overloaded``.
* ``SessionClient`` opens one ``http.client`` connection per request
  and closes it on every path, a timeout included.
"""

from __future__ import annotations

import http.client
import json
import math
import socket
import statistics
import sys
import threading
import time

import pytest

from repro.common.exceptions import ValidationError
from repro.serving import (
    EstimationService,
    HttpApiError,
    HttpServingServer,
    MemorySessionStore,
    SessionClient,
)
from repro.serving.http import _ServingHTTPServer, _ServingRequestHandler

KEEP_ALIVE_REQUESTS = 20
SEQUENTIAL_READS = 20
BURST_CLIENTS = 16
STRESS_CLIENTS = 8
STRESS_READS = 50


def _record_handler_threads(monkeypatch, server) -> list:
    """Wrap ``server.api.handle`` to record the thread serving each request.

    The list keeps the ``Thread`` objects alive, so two threads that ran
    one after the other never compare equal the way reused idents can.
    """
    served_by = []
    handle = server.api.handle

    def recording(*args, **kwargs):
        served_by.append(threading.current_thread())
        return handle(*args, **kwargs)

    monkeypatch.setattr(server.api, "handle", recording)
    return served_by


def _run_clients(target, count: int, timeout: float) -> None:
    """Run ``target`` on ``count`` threads; every one must finish in time."""
    threads = [threading.Thread(target=target) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    assert not any(thread.is_alive() for thread in threads)


class TestKeepAlive:
    def test_requests_on_one_connection_are_not_held_back(self, memory_server):
        SessionClient(memory_server.url).create_session(
            "s", item_ids=range(10), estimators=["voting"]
        )
        connection = http.client.HTTPConnection(
            "127.0.0.1", memory_server.port, timeout=10
        )
        durations = []
        try:
            for _ in range(KEEP_ALIVE_REQUESTS):
                started = time.perf_counter()
                connection.request("GET", "/sessions/s/estimates")
                response = connection.getresponse()
                response.read()
                durations.append(time.perf_counter() - started)
                assert response.status == 200
                assert not response.will_close
        finally:
            connection.close()
        assert statistics.median(durations) < 0.010, sorted(durations)


class TestStalledClients:
    def test_the_shipped_timeout_is_finite(self):
        timeout = _ServingRequestHandler.timeout
        assert timeout is not None and 0 < timeout < math.inf

    def test_a_client_stalled_mid_body_is_disconnected(
        self, monkeypatch, memory_server, client
    ):
        # Each connection's handler reads the timeout when it is set up.
        monkeypatch.setattr(_ServingRequestHandler, "timeout", 0.3)
        with socket.create_connection(
            ("127.0.0.1", memory_server.port), timeout=10
        ) as stalled:
            stalled.sendall(
                b"POST /sessions HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 100\r\n"
                b"\r\n"
                b'{"na'
            )
            started = time.monotonic()
            # The server never answers a request it could not read: it
            # closes the connection, which reads as EOF here.
            assert stalled.recv(65536) == b""
            assert time.monotonic() - started < 1.0
            # The stalled socket is still open on this side, and the
            # server keeps serving everyone else.
            assert client.health()["status"] == "ok"
            client.create_session("after", item_ids=range(3), estimators=["voting"])
            assert client.sessions() == ["after"]


class TestHandlerThreads:
    def test_sequential_reads_reuse_handler_threads(
        self, monkeypatch, memory_server, client
    ):
        client.create_session("s", item_ids=range(10), estimators=["voting"])
        served_by = _record_handler_threads(monkeypatch, memory_server)
        for _ in range(SEQUENTIAL_READS):
            client.estimate_report("s")
        assert len(served_by) == SEQUENTIAL_READS
        # A reply can reach the client before its thread counts itself
        # idle, so the next connection may start a second thread; a
        # thread per connection would make 20.
        assert len(set(served_by)) <= 2

    def test_shutdown_after_a_burst_leaves_no_handler_thread_alive(
        self, monkeypatch
    ):
        server = HttpServingServer(EstimationService(MemorySessionStore())).start()
        served_by = _record_handler_threads(monkeypatch, server)
        burst = threading.Barrier(BURST_CLIENTS)
        errors = []

        def read():
            burst.wait(timeout=10)
            try:
                SessionClient(server.url, timeout=10).health()
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        try:
            _run_clients(read, BURST_CLIENTS, timeout=20)
        finally:
            server.shutdown()
        assert not errors and len(served_by) == BURST_CLIENTS
        for thread in set(served_by):
            thread.join(timeout=5)
            assert not thread.is_alive(), thread.name

    def test_reads_under_rapid_thread_switching_are_all_answered(
        self, monkeypatch, memory_server, client
    ):
        # A lost update of the idle count would either start threads
        # without limit or hand a connection to a thread that never
        # takes it, and that read would time out.
        client.create_session("s", item_ids=range(10), estimators=["voting"])
        served_by = _record_handler_threads(monkeypatch, memory_server)
        answered, errors = [], []

        def reads():
            reader = SessionClient(memory_server.url, timeout=10)
            try:
                for _ in range(STRESS_READS):
                    answered.append(reader.estimate_report("s").version)
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_clients(reads, STRESS_CLIENTS, timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(answered) == STRESS_CLIENTS * STRESS_READS
        assert len(set(served_by)) <= 2 * STRESS_CLIENTS


    def test_a_failed_thread_start_closes_its_connection(
        self, monkeypatch, memory_server
    ):
        client = SessionClient(memory_server.url, timeout=5)

        def refuse(thread):
            raise RuntimeError("can't start new thread")

        with monkeypatch.context() as patched:
            patched.setattr(threading.Thread, "start", refuse)
            # Closed unanswered, not left queued for a thread that never
            # started (which would hold the client until its timeout).
            with pytest.raises(ConnectionError):
                client.health()
        assert client.health()["status"] == "ok"


class TestBoundedHandlerThreads:
    LIMIT = 4

    def test_a_connection_beyond_the_bound_gets_a_fast_503(
        self, monkeypatch, memory_server, client
    ):
        monkeypatch.setattr(_ServingHTTPServer, "max_handler_threads", self.LIMIT)
        address = ("127.0.0.1", memory_server.port)
        # Each idle connection holds a handler thread until it closes.
        held = [socket.create_connection(address, timeout=10) for _ in range(self.LIMIT)]
        try:
            started = time.monotonic()
            connection = http.client.HTTPConnection(*address, timeout=10)
            try:
                connection.request("GET", "/health")
                response = connection.getresponse()
                body = json.loads(response.read())
            finally:
                connection.close()
            assert time.monotonic() - started < 1.0
            assert response.status == 503
            assert response.getheader("Retry-After") == "1"
            assert response.getheader("Connection") == "close"
            assert body["kind"] == "overloaded"

            with pytest.raises(HttpApiError) as refused:
                client.health()
            assert type(refused.value) is HttpApiError
            assert (refused.value.status, refused.value.kind) == (503, "overloaded")

            held.pop().close()
            # The freed thread counts itself idle just after the close.
            deadline = time.monotonic() + 5
            while True:
                try:
                    assert client.health()["status"] == "ok"
                    break
                except HttpApiError as error:
                    if error.kind != "overloaded" or time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
        finally:
            for connection in held:
                connection.close()


class TestClientConnections:
    def test_a_closed_port_raises_oserror(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(OSError):
            SessionClient(f"http://127.0.0.1:{port}", timeout=5).health()

    def test_a_reply_that_never_comes_raises_a_timeout(self, monkeypatch, memory_server):
        release = threading.Event()
        handle = memory_server.api.handle

        def stalled(*args, **kwargs):
            release.wait(timeout=10)
            return handle(*args, **kwargs)

        monkeypatch.setattr(memory_server.api, "handle", stalled)
        try:
            with pytest.raises(TimeoutError):
                SessionClient(memory_server.url, timeout=0.2).health()
        finally:
            release.set()

    @pytest.mark.parametrize(
        "base_url",
        [
            "https://127.0.0.1:8080",
            "ftp://127.0.0.1",
            "localhost:8080",
            "http://",
            "http://127.0.0.1:99999",
        ],
    )
    def test_a_base_url_that_is_not_http_is_refused(self, base_url):
        with pytest.raises(ValidationError):
            SessionClient(base_url)
