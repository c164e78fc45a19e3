"""Process-per-shard serving: each shard owned by its own worker process.

:class:`ProcessShardedService` is the
:class:`~repro.streaming.serving.ShardRouter` of
:class:`~repro.streaming.serving.ShardedEstimationService` with each
shard moved into its **own worker process**: exactly one process opens
a shard's store (an advisory ``flock``,
``DirectorySessionStore(exclusive=True)``), a crashed worker takes down
one shard rather than the server and recovers bit-identically from its
WAL, and shards stop sharing a GIL.  ``docs/architecture.md`` has the
topology.

The parent↔worker RPC is deliberately tiny: length-prefixed JSON frames
(4-byte big-endian length + UTF-8 JSON) over the worker's stdin/stdout
pipes.  Both ends are driven by the op table the HTTP boundary uses
(:data:`~repro.streaming.serving.SERVING_OPS`): the parent's worker
proxy is a :class:`~repro.streaming.serving.RemoteFacade` like
:class:`~repro.serving.http.SessionClient`, the worker's frame loop runs
each frame through :func:`~repro.streaming.serving.serve_op` like
:class:`~repro.serving.http.ServingApi`, and error replies carry the
same taxonomy (:data:`~repro.serving.http.SERVER_ERROR_TAXONOMY`) — so
the pipe boundary and the HTTP boundary cannot drift apart.

Failure contract (what callers may rely on):

* **Per-request timeout** — a worker that does not answer within
  ``request_timeout`` seconds is killed and the call raises
  :class:`~repro.streaming.serving.ShardUnavailableError`; the shard
  recovers on its next request.
* **Crash before the request was delivered** — transparently restarted
  and retried once; the caller never notices.
* **Crash mid-request** — :class:`ShardUnavailableError`, because the
  parent cannot know whether the operation applied.  Retrying an ingest
  with its ``(source, sequence)`` pair is always safe: if the batch was
  applied (and therefore logged) before the crash, the retry is a
  duplicate no-op.
* **Restart budget** — each worker may be restarted at most
  ``max_restarts`` times over the service's lifetime; beyond it the
  shard stays unavailable (``ShardUnavailableError``) instead of
  crash-looping.
* **Graceful drain** — :meth:`ProcessShardedService.close` sends every
  worker a ``shutdown`` request and waits, escalating to terminate/kill
  on a deadline.  Nothing is lost either way: all state is already in
  the WAL.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import signal
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import BinaryIO, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.common.exceptions import ConfigurationError, ReproError, ValidationError
from repro.serving.http import classify_error, error_from_kind
from repro.streaming.serving import (
    SERVING_OPS,
    EstimationService,
    RemoteFacade,
    ServingOp,
    ShardRouter,
    ShardUnavailableError,
    reconcile_shard_manifest,
    serve_op,
)
from repro.streaming.store import DirectorySessionStore

#: Upper bound on one RPC frame; a longer length prefix means the stream
#: is desynchronised (or the peer is hostile) and the connection is torn
#: down rather than trusted.
MAX_FRAME_BYTES = 256 << 20

#: How long the parent waits for a worker's boot handshake.  Boot
#: includes WAL recovery of the shard's sessions, so it gets a more
#: generous deadline than steady-state requests.
BOOT_TIMEOUT = 60.0

#: Default per-request deadline, after which the worker is presumed
#: wedged, killed, and the request fails with ShardUnavailableError.
DEFAULT_REQUEST_TIMEOUT = 30.0

#: Default restart budget per worker over the parent's lifetime.
DEFAULT_MAX_RESTARTS = 3


# --------------------------------------------------------------------- #
# framing (shared by both ends of the pipe)
# --------------------------------------------------------------------- #
def write_frame(stream: BinaryIO, payload: Mapping[str, object]) -> None:
    """Write one length-prefixed JSON frame and flush it."""
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    stream.write(struct.pack(">I", len(data)) + data)
    stream.flush()


class _WorkerDied(Exception):
    """Internal: EOF (or a desynchronised stream) on a frame pipe."""


class _WorkerTimeout(Exception):
    """Internal: the per-request deadline passed without a full reply."""


def _read_exact(descriptor: int, count: int, deadline: Optional[float]) -> bytes:
    chunks = b""
    while len(chunks) < count:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _WorkerTimeout("no reply within deadline")
            if not select.select([descriptor], [], [], remaining)[0]:
                continue
        chunk = os.read(descriptor, count - len(chunks))
        if not chunk:
            raise _WorkerDied("EOF on the frame pipe")
        chunks += chunk
    return chunks


def read_frame(descriptor: int, deadline: Optional[float] = None) -> Dict[str, object]:
    """Read one frame from a pipe, by ``deadline`` (``time.monotonic``) if set."""
    (length,) = struct.unpack(">I", _read_exact(descriptor, 4, deadline))
    if length > MAX_FRAME_BYTES:
        raise _WorkerDied(f"oversized frame ({length} bytes): stream desynchronised")
    return json.loads(_read_exact(descriptor, length, deadline).decode("utf-8"))


# --------------------------------------------------------------------- #
# the worker process (python -m repro.serving.workers)
# --------------------------------------------------------------------- #
def _ok(result: object) -> Dict[str, object]:
    return {"ok": True, "result": result}


def _err(error: BaseException) -> Dict[str, object]:
    mapped = classify_error(error) if isinstance(error, ReproError) else None
    status, kind = mapped if mapped is not None else (500, "internal")
    message = str(error) or repr(error)
    return {"ok": False, "status": status, "kind": kind, "error": message}


def _reply_result(reply: Mapping[str, object]) -> object:
    """A reply frame's result, or the typed error it carries."""
    if reply.get("ok"):
        return reply.get("result")
    raise error_from_kind(
        int(reply.get("status", 500)),
        str(reply.get("error", "worker error")),
        str(reply.get("kind", "internal")),
    )


#: The ops a worker serves, by frame ``op`` name.
_FRAME_OPS: Dict[str, ServingOp] = {
    op.name: op for op in SERVING_OPS if op.reply is not None
}


def _serve_frame(service: EstimationService, request: Dict[str, object]) -> object:
    """Apply one RPC frame to the shard's service; returns the result."""
    op = request.pop("op", None)
    if op == "debug_sleep":
        # Test hook for the parent's timeout path: wedge this worker for
        # a caller-chosen interval.
        time.sleep(float(request.get("seconds", 0.0)))
        return {"slept": float(request.get("seconds", 0.0))}
    if op not in _FRAME_OPS:
        raise ValidationError(f"unknown worker op {op!r}")
    return serve_op(service, _FRAME_OPS[op], request.pop("name", None), request)


def serve_worker(service: EstimationService, stdin: BinaryIO, stdout: BinaryIO) -> int:
    """The worker request loop: frames in, dispatch, frames out.

    Returns the process exit code.  EOF on stdin means the parent went
    away — treated exactly like a ``shutdown`` request, since every
    acknowledged mutation is already in the shard's WAL.
    """
    write_frame(stdout, _ok({"pid": os.getpid()}))  # the boot handshake
    while True:
        try:
            request = read_frame(stdin.fileno())
        except _WorkerDied:
            return 0
        if request.get("op") == "shutdown":
            write_frame(stdout, _ok({"bye": True}))
            return 0
        try:
            reply = _ok(_serve_frame(service, request))
        except Exception as error:  # structured, never a traceback
            reply = _err(error)
        write_frame(stdout, reply)


def worker_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.serving._worker_main``.

    Opens the shard store with **exclusive ownership** (another live
    owner is a boot failure, reported as a structured handshake error),
    recovers its sessions lazily through the normal service path, then
    serves RPC frames until shutdown/EOF.
    """
    parser = argparse.ArgumentParser(
        prog="repro-shard-worker",
        description="One shard of a process-sharded estimation service.",
    )
    parser.add_argument("--shard-dir", required=True, help="this shard's store directory")
    parser.add_argument("--max-active", type=int, default=None)
    parser.add_argument("--sync", action="store_true")
    args = parser.parse_args(argv)

    # The RPC stream must stay clean: keep a private handle on the real
    # stdout pipe and point fd 1 at stderr, so any stray print() from
    # library code lands in the parent's log instead of desynchronising
    # the framing.  SIGINT is ignored — a Ctrl-C on the foreground CLI
    # reaches the whole process group, and the parent must stay in
    # charge of draining its workers.
    rpc_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    try:
        store = DirectorySessionStore(
            args.shard_dir, sync=args.sync, exclusive=True
        )
        service = EstimationService(store, max_active=args.max_active, wal=True)
    except Exception as error:
        write_frame(rpc_out, _err(error))
        return 1
    return serve_worker(service, sys.stdin.buffer, rpc_out)


# --------------------------------------------------------------------- #
# the parent-side worker handle
# --------------------------------------------------------------------- #
class _ShardWorker(RemoteFacade):
    """The parent's handle on one shard worker process.

    A :class:`~repro.streaming.serving.RemoteFacade` over the frame
    pipe: it has every op's method, so it is a
    :class:`~repro.streaming.serving.ShardRouter` backend like an
    in-process service.  One request is in flight per worker at a time
    (``self.lock``), which is what makes the framed pipe a sufficient
    transport: replies cannot interleave.  Cross-shard parallelism comes
    from having N workers, not from pipelining within one.
    """

    #: Worker shards always ingest through the write-ahead log.
    wal_enabled = True

    def __init__(
        self,
        index: int,
        shard_dir: Path,
        *,
        max_active: Optional[int],
        sync: bool,
        request_timeout: float,
        max_restarts: int,
    ) -> None:
        self.index = index
        self.command = [sys.executable, "-m", "repro.serving._worker_main"]
        self.command += ["--shard-dir", str(shard_dir)]
        if max_active is not None:
            self.command += ["--max-active", str(max_active)]
        if sync:
            self.command.append("--sync")
        self.request_timeout = float(request_timeout)
        self.max_restarts = int(max_restarts)
        self.restarts = 0
        self.lock = threading.Lock()
        self.process: Optional[subprocess.Popen] = None
        #: whether a worker was ever spawned: every spawn after the first
        #: is a restart and must be charged against the budget, even when
        #: the corpse has already been reaped away.
        self._ever_spawned = False
        #: set by :meth:`close`; a closed handle never respawns its worker.
        self.closed = False

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #
    def _spawn(self) -> None:
        import repro

        env = dict(os.environ)
        # The worker must import the same repro tree as the parent,
        # however the parent itself was launched.
        package_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        self._ever_spawned = True
        self.process = subprocess.Popen(
            self.command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # worker diagnostics flow to the parent's stderr
            env=env,
        )
        try:
            reply = self._read_frame(time.monotonic() + BOOT_TIMEOUT)
        except (_WorkerDied, _WorkerTimeout) as error:
            self._kill()
            raise ShardUnavailableError(
                f"shard {self.index} worker failed to boot: {error!r}"
            ) from None
        if not reply.get("ok"):
            self._kill()
            _reply_result(reply)

    def _alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def _reap(self) -> None:
        if self.process is not None:
            for pipe in (self.process.stdin, self.process.stdout):
                with contextlib.suppress(Exception):
                    pipe.close()
            self.process.wait()
            self.process = None

    def _kill(self) -> None:
        if self.process is not None:
            if self.process.poll() is None:
                self.process.kill()
            self._reap()

    def _ensure_started(self) -> None:
        """Spawn (or lazily respawn) the worker, charging the budget.

        The first spawn is free; every spawn after a death costs one
        restart.  A worker beyond its budget stays down — the shard
        reports :class:`ShardUnavailableError` rather than crash-looping
        over a poisoned store.
        """
        if self._alive():
            return
        if self.process is not None:  # a corpse awaiting reaping
            self._reap()
        if self._ever_spawned:  # this start is a restart
            if self.restarts >= self.max_restarts:
                raise ShardUnavailableError(
                    f"shard {self.index} worker exceeded its restart budget "
                    f"({self.max_restarts}); the shard stays unavailable "
                    "until the service is reopened"
                )
            self.restarts += 1
        self._spawn()

    def _read_frame(self, deadline: float) -> Dict[str, object]:
        return read_frame(self.process.stdout.fileno(), deadline)

    # -------------------------------------------------------------- #
    # the request path
    # -------------------------------------------------------------- #
    def request(
        self,
        op: str,
        params: Optional[Mapping[str, object]] = None,
        *,
        timeout: Optional[float] = None,
    ) -> object:
        """One RPC round-trip, with restart/timeout/crash handling.

        A death detected *before* the worker received the request is
        retried transparently after a restart (the operation cannot have
        applied).  A death or deadline *after* the request was delivered
        raises :class:`ShardUnavailableError` — whether it applied is
        unknowable here, and the ``(source, sequence)`` idempotency pair
        exists precisely so the caller's retry is safe either way.
        """
        frame = {"op": op, **(params or {})}
        budget = self.request_timeout if timeout is None else float(timeout)
        with self.lock:
            if self.closed:
                raise ConfigurationError(
                    "ProcessShardedService is closed; reopen it to serve again"
                )
            for attempt in (1, 2):
                self._ensure_started()
                try:
                    write_frame(self.process.stdin, frame)
                except (BrokenPipeError, OSError):
                    # The pipe's read end is gone: the worker died before
                    # this request could reach it.  Restart and retry once.
                    self._reap()
                    if attempt == 2:
                        raise ShardUnavailableError(
                            f"shard {self.index} worker died before accepting "
                            f"{op!r} twice in a row"
                        ) from None
                    continue
                try:
                    reply = self._read_frame(time.monotonic() + budget)
                except _WorkerDied:
                    self._reap()
                    raise ShardUnavailableError(
                        f"shard {self.index} worker died while handling {op!r}; "
                        "it will be restarted and recovered from its WAL on "
                        "the next request (retrying with the same "
                        "source/sequence is safe)"
                    ) from None
                except _WorkerTimeout:
                    self._kill()
                    raise ShardUnavailableError(
                        f"shard {self.index} worker exceeded the {budget:.1f}s "
                        f"request deadline on {op!r} and was killed; it will "
                        "be restarted on the next request"
                    ) from None
                break
        return _reply_result(reply)

    def _call(
        self, op: ServingOp, name: Optional[str], args: Dict[str, object]
    ) -> object:
        return self.request(op.name, {"name": name, **args})

    def close(self, timeout: float = 5.0) -> None:
        """Drain this worker: polite shutdown, then terminate, then kill."""
        with self.lock:
            self.closed = True
            if self.process is None:
                return
            if self.process.poll() is None:
                with contextlib.suppress(Exception):
                    write_frame(self.process.stdin, {"op": "shutdown"})
                try:
                    self.process.wait(timeout)
                except subprocess.TimeoutExpired:
                    self.process.terminate()
                    try:
                        self.process.wait(2.0)
                    except subprocess.TimeoutExpired:
                        self.process.kill()
            self._reap()


# --------------------------------------------------------------------- #
# the parent façade
# --------------------------------------------------------------------- #
class ProcessShardedService(ShardRouter):
    """The :class:`ShardedEstimationService` façade over worker processes.

    The same :class:`~repro.streaming.serving.ShardRouter` (sha256
    :func:`~repro.streaming.serving.shard_index` routing, same fan-out
    merges), the same on-disk layout (``<root>/shard-<i>/`` +
    ``shards.json``), same manifest rules — a root written by the
    in-process sharded service reopens under workers and vice versa.
    What changes is the backend: a proxy speaking frames to a worker
    process that exclusively owns its shard's store.

    Parameters
    ----------
    root:
        The sharded store root.  Required — worker recovery is built on
        the durable snapshot+WAL layout, so a memory-backed process
        shard would turn every crash into data loss.
    num_shards:
        Worker count.  ``None`` reads the root's manifest (a fresh root
        defaults to 1); a mismatch with an existing manifest raises.
    max_active / sync:
        Forwarded to each worker's :class:`EstimationService` and store.
    request_timeout:
        Per-request deadline (seconds) before a worker is declared
        unavailable.  Boot, which includes WAL recovery, gets
        :data:`BOOT_TIMEOUT`.
    max_restarts:
        Crash-restart budget per worker over this service's lifetime.

    Use as a context manager (or call :meth:`close`) so workers drain
    instead of being orphaned.

    What the process boundary forces, exactly as for
    :class:`~repro.serving.SessionClient`: :meth:`snapshot` /
    :meth:`compact` return a receipt mapping instead of the
    :class:`SessionSnapshot` object, :meth:`collusion_report` returns
    the report's JSON payload, :meth:`restore` only restores from the
    shard's own store, and ``estimators`` must be registry names.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        num_shards: Optional[int] = None,
        max_active: Optional[int] = None,
        sync: bool = False,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
    ) -> None:
        self.root = Path(root)
        self._workers: Tuple[_ShardWorker, ...] = tuple(
            _ShardWorker(
                index,
                self.root / f"shard-{index:04d}",
                max_active=max_active,
                sync=sync,
                request_timeout=request_timeout,
                max_restarts=max_restarts,
            )
            for index in range(reconcile_shard_manifest(self.root, num_shards))
        )
        super().__init__(self._workers)
        # Boot every worker up front: configuration errors (a lock held
        # by another owner, a corrupt store) surface here, not on the
        # first unlucky request.
        try:
            for worker in self._workers:
                with worker.lock:
                    worker._ensure_started()
        except Exception:
            self.close()
            raise

    def worker_pids(self) -> List[Optional[int]]:
        """Current worker PIDs by shard index (``None`` for a dead one)."""
        return [
            worker.process.pid if worker._alive() else None
            for worker in self._workers
        ]

    def close(self, timeout: float = 5.0) -> None:
        """Drain every worker (shutdown → terminate → kill).  Idempotent."""
        for worker in self._workers:
            worker.close(timeout)

    def __enter__(self) -> "ProcessShardedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
