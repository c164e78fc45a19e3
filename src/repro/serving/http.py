"""The HTTP boundary of the serving layer: a JSON API over a service.

:class:`ServingApi` maps a small REST surface onto a serving façade —
an :class:`~repro.streaming.serving.EstimationService` or either
sharded front, which the wire layer cannot tell apart.  The routes are
the ``http`` column of the op table
(:data:`~repro.streaming.serving.SERVING_OPS`), plus ``GET /health``.
The ``(source, sequence)`` pair of the ingest body is the wire-level
retry contract (a re-POSTed batch is acknowledged as a no-op,
``duplicate: true``), and errors are structured, never tracebacks:
:data:`SERVER_ERROR_TAXONOMY` maps library exceptions to
``(status, kind)``.  ``docs/http.md`` is the full wire reference.

Transport is the stdlib :class:`http.server.HTTPServer` and its request
parser, with reused handler threads: a thread serves one connection at
a time, which the per-session locks of the service were built for, and
then waits for the next one, so a steady client's connections start no
thread.  At most ``max_handler_threads`` connections are served at
once; one more is answered ``503`` ``overloaded``.
:class:`ServingApi` itself is transport-free (``handle`` maps
``(method, path, body)`` to ``(status, payload)``), so tests can drive
the full routing and error mapping without opening a socket, and
:class:`SessionClient` is the matching stdlib ``http.client`` client
whose methods return the same dataclasses as the in-process façade.
"""

from __future__ import annotations

import http.client
import json
import queue
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Dict, List, Mapping, Optional, Tuple

from repro.common.exceptions import ConfigurationError, ReproError, ValidationError
from repro.streaming.serving import (  # noqa: F401 - wire codecs re-exported
    SERVING_OPS,
    ServingOp,
    ShardUnavailableError,
    _install_ops,
    parse_columns_payload,
    report_from_payload,
    report_to_payload,
    result_from_payload,
    result_to_payload,
    serve_op,
)
from repro.streaming.store import StoreCorruptionError, UnknownSessionError

#: Bodies larger than this are rejected up front (64 MiB is far beyond
#: any sane vote batch and keeps a misbehaving client from ballooning
#: the handler thread).
MAX_BODY_BYTES = 64 << 20

_JSON_CONTENT_TYPE = "application/json"

#: Seconds the accept loop may block writing a ``503`` to a connection
#: that found every handler thread busy.
_REFUSAL_SEND_TIMEOUT = 0.1


class HttpApiError(ReproError):
    """An error response from the serving API, with its HTTP status.

    Raised by :class:`SessionClient`; ``status`` carries the mapped code
    (404 unknown session, 400 validation, 409 conflict, 500 corruption or
    internal failure, 503 every handler thread busy) and ``kind`` the
    server's error classification.

    Known error kinds raise the dual-typed subclasses below
    (:class:`HttpUnknownSessionError` and friends), which are *also* the
    exception type the in-process façade would have raised — so code
    written against :class:`~repro.streaming.serving.EstimationService`
    catches exactly the same exceptions over the wire.  Only responses
    the client cannot classify (unknown kinds, non-JSON bodies,
    unroutable paths) surface as this bare base class.
    """

    def __init__(self, status: int, message: str, kind: str = "error") -> None:
        super().__init__(message)
        self.status = int(status)
        self.kind = str(kind)


class HttpUnknownSessionError(UnknownSessionError, HttpApiError):
    """404: the named session does not exist (in-process twin: ``UnknownSessionError``)."""


class HttpValidationError(ValidationError, HttpApiError):
    """400: the request was malformed (in-process twin: ``ValidationError``)."""


class HttpConflictError(ConfigurationError, HttpApiError):
    """409: conflicting configuration (in-process twin: ``ConfigurationError``)."""


class HttpStoreCorruptionError(StoreCorruptionError, HttpApiError):
    """500: unreadable stored bytes (in-process twin: ``StoreCorruptionError``)."""


class HttpShardUnavailableError(ShardUnavailableError, HttpApiError):
    """500: a shard worker process is down (in-process twin: ``ShardUnavailableError``)."""


#: How the server classifies library errors: ``(exception, status, kind)``,
#: checked in order (subclasses before their bases).
SERVER_ERROR_TAXONOMY: Tuple[Tuple[type, int, str], ...] = (
    (UnknownSessionError, 404, "unknown_session"),
    (StoreCorruptionError, 500, "store_corruption"),
    (ShardUnavailableError, 500, "shard_unavailable"),
    (ValidationError, 400, "validation"),
    (ConfigurationError, 409, "conflict"),
)

#: The client-side inverse: the server's ``kind`` field back to the typed
#: exception a caller of the in-process façade would have seen.
CLIENT_ERROR_TYPES: Dict[str, type] = {
    "unknown_session": HttpUnknownSessionError,
    "validation": HttpValidationError,
    "conflict": HttpConflictError,
    "store_corruption": HttpStoreCorruptionError,
    "shard_unavailable": HttpShardUnavailableError,
}


def classify_error(error: BaseException) -> Optional[Tuple[int, str]]:
    """Map a library exception onto ``(status, kind)`` — ``None`` if unmapped."""
    for exception_type, status, kind in SERVER_ERROR_TAXONOMY:
        if isinstance(error, exception_type):
            return status, kind
    return None


def error_from_kind(status: int, message: str, kind: str) -> HttpApiError:
    """Build the typed client-side exception for a structured error response.

    Known kinds return the dual-typed subclass (e.g. ``unknown_session``
    → :class:`HttpUnknownSessionError`, catchable as
    ``UnknownSessionError``); unknown kinds fall back to the bare
    :class:`HttpApiError`.  Status and kind stay attached either way.
    """
    return CLIENT_ERROR_TYPES.get(kind, HttpApiError)(status, message, kind)


# --------------------------------------------------------------------- #
# the transport-free API core
# --------------------------------------------------------------------- #
#: ``(method, path template) -> ops`` served there; the primary op
#: (no ``flag``) first, then its query-flag extensions.
_ROUTES: Dict[Tuple[str, str], List[ServingOp]] = {}
for _op in sorted(
    (op for op in SERVING_OPS if op.http is not None),
    key=lambda op: op.http.flag is not None,
):
    _ROUTES.setdefault((_op.http.method, _op.http.path), []).append(_op)


class ServingApi:
    """Route ``(method, path, body)`` requests onto a serving façade.

    Works over anything with the :class:`EstimationService` surface —
    including :class:`ShardedEstimationService`.  Thread-safe to exactly
    the degree the underlying service is; the only state of its own is a
    lock-guarded request counter.
    """

    def __init__(self, service) -> None:
        self.service = service
        self._stats_lock = threading.Lock()
        self._requests = 0
        self._errors = 0

    def stats(self) -> Dict[str, int]:
        """Requests handled and error responses sent so far."""
        with self._stats_lock:
            return {"requests": self._requests, "errors": self._errors}

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def handle(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, Dict[str, object]]:
        """One request in, ``(status, JSON-safe payload)`` out.

        Every library error is mapped to a structured JSON error body —
        the transport layer never sees an exception for a client-caused
        problem.
        """
        with self._stats_lock:
            self._requests += 1
        try:
            status, payload = self._route(method.upper(), path, body)
        except ReproError as error:
            mapped = classify_error(error)
            if mapped is None:
                raise  # unmapped library error: the transport's 500 path
            status, kind = mapped
            payload = {"error": str(error), "kind": kind}
        if status >= 400:
            with self._stats_lock:
                self._errors += 1
        return status, payload

    def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        route, _, raw_query = path.partition("?")
        parts = [part for part in route.split("/") if part]
        query = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(raw_query).items()
        }
        if parts == ["health"] and method == "GET":
            return 200, self._health()
        ops: List[ServingOp] = []
        if parts[:1] == ["sessions"] and len(parts) <= 3:
            template = "/" + "/".join(["sessions", "{name}", *parts[2:]][: len(parts)])
            ops = _ROUTES.get((method, template), [])
        if not ops:
            return 404, {
                "error": f"no route for {method} {path}",
                "kind": "unknown_route",
            }
        primary, extensions = ops[0], ops[1:]
        args = query
        if method == "POST" and primary.decode is not None:
            args = self._json_body(body)
        # A route without ``{name}`` carries the session name in its body.
        name = parts[1] if len(parts) > 1 else args.pop("name", None)
        payload = serve_op(self.service, primary, name, args)
        for op in extensions:
            if _query_flag(query, op.http.flag):
                payload[op.http.flag] = serve_op(self.service, op, name, query)
        return primary.http.status, payload

    def _health(self) -> Dict[str, object]:
        service = self.service
        return {
            "status": "ok",
            "sessions": len(service.sessions()),
            "active_sessions": len(service.active_sessions()),
            "shards": int(getattr(service, "num_shards", 1)),
        }

    @staticmethod
    def _json_body(body: bytes) -> Dict[str, object]:
        if not body:
            raise ValidationError("request body must be a JSON object, got nothing")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValidationError(f"request body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ValidationError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        return payload


# --------------------------------------------------------------------- #
# the stdlib transport
# --------------------------------------------------------------------- #
class _ServingRequestHandler(BaseHTTPRequestHandler):
    """Thin glue: bytes in from the socket, ``ServingApi.handle``, JSON out."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serving"
    #: ``TCP_NODELAY``: ``_respond`` sends the headers and the body in two
    #: writes, and Nagle's algorithm would hold the body back until the
    #: client's delayed ACK of the headers, about 40 ms per request on a
    #: keep-alive connection.
    disable_nagle_algorithm = True
    #: Seconds a socket read or write may block.  A client that stalls
    #: mid-request, or idles on a keep-alive connection, then loses the
    #: connection (``handle_one_request`` closes it on the timeout)
    #: instead of holding a server thread forever.  The same as
    #: ``SessionClient``'s default.
    timeout = 30.0

    def _respond(self) -> None:
        declared = self.headers.get("Content-Length", "0")
        if not (declared.isascii() and declared.isdigit()):
            refused = f"invalid Content-Length {declared!r}: expected a byte count"
        elif int(declared) > MAX_BODY_BYTES:
            refused = f"request body exceeds {MAX_BODY_BYTES} bytes"
        else:
            refused = None
        if refused is not None:
            status, payload = 400, {"error": refused, "kind": "validation"}
            # Never materialise (or even wait for) the declared body: a
            # single ``read(length)`` here would allocate whatever
            # Content-Length the client claimed — exactly the ballooning
            # the guard exists to prevent — and would block until those
            # bytes actually arrived; a negative one reads to EOF.  The
            # connection is closed after the error response instead of
            # drained for keep-alive: where the body ends is unknown, so
            # the next bytes cannot be taken for the next request.
            self.close_connection = True
        else:
            body = self.rfile.read(int(declared))
            try:
                status, payload = self.server.api.handle(self.command, self.path, body)
            except Exception as error:  # never leak a traceback onto the wire
                status, payload = 500, {"error": repr(error), "kind": "internal"}
        encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", _JSON_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(encoded)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(encoded)

    do_GET = do_POST = do_DELETE = _respond

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence the per-request stderr chatter (stats() has the counts)."""


class _ServingHTTPServer(HTTPServer):
    """The listener, with reused handler threads.

    A handler thread serves one connection to its end, then waits on a
    queue for the next.  The accept loop (``process_request``) hands a
    connection to an idle thread and starts a daemon thread only when
    none is idle, so a steady client's connections reuse one thread
    instead of starting one each.  ``server_close`` wakes the idle
    threads and ends them; a busy one ends after its connection.
    """

    #: Ephemeral test servers come and go on the same port; don't linger.
    allow_reuse_address = True
    #: The listen backlog.  socketserver's default of 5 drops the SYNs of
    #: a burst of connecting clients, which then wait out a >= 1 s
    #: retransmit; the kernel still caps this at ``net.core.somaxconn``.
    request_queue_size = 128
    #: Connections served at once, one handler thread each.  A connection
    #: accepted while this many threads are busy gets ``503``
    #: ``overloaded`` instead of a thread of its own.  The largest
    #: recorded fleet (``http-load``) runs 16 client threads, and a burst
    #: of 32 must be served without one refusal.
    max_handler_threads = 64

    def __init__(self, address, api: ServingApi) -> None:
        # Set before the bind: a failed bind calls ``server_close``.
        self.api = api
        self._pool_lock = threading.Lock()
        #: accepted connections handed to idle threads; ``None`` ends one
        self._handoff = queue.SimpleQueue()
        self._threads = 0
        self._idle = 0
        self._closed = False
        super().__init__(address, _ServingRequestHandler)

    def process_request(self, request, client_address) -> None:
        with self._pool_lock:
            if self._idle:
                self._idle -= 1
                self._handoff.put((request, client_address))
                return
            overloaded = self._threads >= self.max_handler_threads
            if not overloaded:
                self._threads += 1
        if overloaded:
            self._refuse(request)
            return
        # The first connection goes to the thread as an argument, not
        # through the queue: if the start fails, ``_handle_request_noblock``
        # closes it and no thread is left to take it from the queue.
        thread = threading.Thread(
            target=self._serve_connections,
            args=(request, client_address),
            name=f"repro-serving-handler:{self.server_address[1]}",
            daemon=True,
        )
        try:
            thread.start()
        except BaseException:
            with self._pool_lock:
                self._threads -= 1
            raise

    def _serve_connections(self, request, client_address) -> None:
        """One handler thread: serve a connection, wait for the next, repeat."""
        try:
            while True:
                try:
                    self.finish_request(request, client_address)
                except Exception:
                    self.handle_error(request, client_address)
                finally:
                    self.shutdown_request(request)
                with self._pool_lock:
                    if self._closed:
                        return
                    self._idle += 1
                handed = self._handoff.get()
                if handed is None:
                    return
                request, client_address = handed
        finally:
            with self._pool_lock:
                self._threads -= 1

    def _refuse(self, request) -> None:
        """Answer ``503`` ``overloaded`` from the accept loop, then close.

        The send may block for ``_REFUSAL_SEND_TIMEOUT`` at most, so a
        client that never reads cannot stall the accept loop; the
        request itself is never read.
        """
        body = json.dumps(
            {
                "error": f"server overloaded: all {self.max_handler_threads} "
                "handler threads are busy",
                "kind": "overloaded",
            },
            sort_keys=True,
        ).encode("utf-8")
        head = (
            "HTTP/1.1 503 Service Unavailable\r\n"
            f"Content-Type: {_JSON_CONTENT_TYPE}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Retry-After: 1\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        try:
            request.settimeout(_REFUSAL_SEND_TIMEOUT)
            request.sendall(head + body)
        except OSError:
            pass  # the client is gone or not reading: it gets no answer
        finally:
            self.shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._pool_lock:
            self._closed = True
            idle, self._idle = self._idle, 0
        for _ in range(idle):
            self._handoff.put(None)


class HttpServingServer:
    """An :class:`EstimationService` behind a real TCP port.

    Parameters
    ----------
    service:
        The façade to serve — an
        :class:`~repro.streaming.serving.EstimationService` or
        :class:`~repro.streaming.serving.ShardedEstimationService`.
    host / port:
        Bind address.  ``port=0`` (the default) binds an ephemeral port;
        read the resolved one from :attr:`port` / :attr:`url`.

    The socket is bound (and the port resolved) at construction time;
    :meth:`start` begins serving on a daemon thread and is what the
    context-manager protocol calls.

    Examples
    --------
    >>> from repro.serving import EstimationService
    >>> with HttpServingServer(EstimationService()) as server:
    ...     client = SessionClient(server.url)
    ...     client.health()["status"]
    'ok'
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0) -> None:
        self.api = ServingApi(service)
        self._server = _ServingHTTPServer((host, int(port)), self.api)
        self._thread: Optional[threading.Thread] = None
        #: whether ``serve_forever`` ever began: ``BaseServer.shutdown``
        #: waits on an event only ``serve_forever`` sets, so calling it on
        #: a server that never served would block forever.
        self._serving = False

    @property
    def service(self):
        """The façade being served."""
        return self.api.service

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The bound TCP port (resolved even when constructed with 0)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HttpServingServer":
        """Serve on a background daemon thread; returns ``self``."""
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name=f"repro-serving:{self.port}",
                daemon=True,
            )
            self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop serving and release the port (idempotent).

        Safe on a server that was constructed but never started: the
        stdlib ``BaseServer.shutdown`` waits on an event only
        ``serve_forever`` sets, so it is skipped unless serving actually
        began — the port is released either way.  Idle handler threads
        end here; a busy one ends when its connection does.
        """
        if self._serving:
            self._serving = False
            self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "HttpServingServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# --------------------------------------------------------------------- #
# the stdlib client
# --------------------------------------------------------------------- #
def _query_flag(query: Mapping[str, str], key: str) -> bool:
    """Whether a query parameter is present and truthy (``0``/``false`` off)."""
    value = query.get(key)
    if value is None:
        return False
    return value.strip().lower() not in {"", "0", "false", "no"}


class SessionClient:
    """An ``http.client``-based client speaking the :class:`ServingApi` wire format.

    ``base_url`` must be an ``http://`` URL (anything else raises
    :class:`~repro.common.exceptions.ValidationError` here).  Each
    request opens one connection, sends ``Connection: close`` and
    closes it before returning, so a client holds no socket between
    calls and is safe to share between threads; a connection that
    cannot be made or times out raises an ``OSError``.  Its methods are
    generated from :data:`~repro.streaming.serving.SERVING_OPS`
    — one per op with an HTTP route, each encoding its arguments with the
    op's codecs and decoding the reply — so they mirror the in-process
    façade and return the same dataclasses (:class:`IngestResult`,
    :class:`EstimateReport`, :class:`~repro.core.base.EstimateResult`),
    and code — including the load generator — can run against either
    without changes.  ``create_session`` also takes ``items=N`` for ids
    ``0..N-1``; ``snapshot`` / ``compact`` return the server's receipt
    and ``collusion_report`` the report's JSON payload.  Error responses
    raise the typed exception the façade would have raised
    (``unknown_session`` → :class:`HttpUnknownSessionError`, catchable as
    ``UnknownSessionError``, and so on per :data:`CLIENT_ERROR_TYPES`);
    every raised error is also an :class:`HttpApiError` carrying the HTTP
    status and the server's error kind (a server with every handler
    thread busy answers a bare one, status 503, kind ``overloaded``).
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        try:
            parts = urllib.parse.urlsplit(self.base_url)
            self._address = (parts.hostname, parts.port or 80)
        except ValueError:  # a malformed IPv6 host or a port outside 0..65535
            parts = None
        if parts is None or parts.scheme != "http" or not parts.hostname:
            raise ValidationError(
                f"SessionClient needs an http://host[:port] base URL, got {base_url!r}"
            )
        self._path_prefix = parts.path

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        body = None
        headers = {"Accept": _JSON_CONTENT_TYPE, "Connection": "close"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = _JSON_CONTENT_TYPE
        connection = http.client.HTTPConnection(*self._address, timeout=self.timeout)
        try:
            connection.request(method, self._path_prefix + path, body, headers)
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        if response.status >= 400:
            text = raw.decode("utf-8", errors="replace")
            try:
                parsed = json.loads(text)
                message = str(parsed.get("error", text))
                kind = str(parsed.get("kind", "error"))
            except json.JSONDecodeError:
                message = text or f"HTTP Error {response.status}: {response.reason}"
                kind = "error"
            raise error_from_kind(response.status, message, kind)
        return json.loads(raw.decode("utf-8"))

    def _call(
        self, op: ServingOp, name: Optional[str], args: Dict[str, object]
    ) -> object:
        route = op.http
        path = route.path.replace("{name}", f"{name}")
        if path == route.path and name is not None:
            args = {"name": name, **args}
        if route.flag is not None:
            args = {route.flag: "1", **args}
        if route.method == "POST":
            body = self._request(route.method, path, args)
        else:
            query = "?" + urllib.parse.urlencode(args) if args else ""
            body = self._request(route.method, path + query)
        return body if route.flag is None else body[route.flag]

    def health(self) -> Dict[str, object]:
        return self._request("GET", "/health")


def _over_http(op: ServingOp):
    def method(self, *args, **kwargs):
        if op.local is not None:
            return op.local(self, *args, **kwargs)
        name, wire_args = op.encode(*args, **kwargs)
        return op.result(self._call(op, name, wire_args))

    return method


_install_ops(
    SessionClient, _over_http, lambda op: op.http is not None or op.local is not None
)
