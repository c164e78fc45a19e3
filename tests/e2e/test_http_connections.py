"""How the HTTP server treats a connection: keep-alive reads and stalled clients.

* ``_respond`` sends the headers and the body in two writes.  Without
  ``TCP_NODELAY``, Nagle's algorithm held the body back until the
  client's delayed ACK of the headers, so every request after the first
  on a keep-alive connection took about 40 ms.
* The handler set no socket timeout, so a client that stopped sending
  in the middle of a request held its server thread forever.
"""

from __future__ import annotations

import http.client
import math
import socket
import statistics
import time

from repro.serving import SessionClient
from repro.serving.http import _ServingRequestHandler

KEEP_ALIVE_REQUESTS = 20


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
