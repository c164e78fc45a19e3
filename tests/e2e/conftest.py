"""Fixtures shared by the end-to-end HTTP tests.

Every fixture boots a real threaded server on an ephemeral port, so the
tests exercise actual sockets, content-length framing and concurrent
request handling — not a stubbed transport.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path
from typing import Dict

import pytest

import repro
from repro.serving import (
    DirectorySessionStore,
    EstimationService,
    HttpServingServer,
    MemorySessionStore,
    SessionClient,
)

#: The ``src`` directory of the repro tree under test.
SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])

#: Bounded budget for re-binding on ``EADDRINUSE``.  Ephemeral ports are
#: handed out by the kernel, but parallel CI runners (and tests that just
#: closed a server) can still race a port into TIME_WAIT between the
#: kernel's pick and our bind; a few retries absorb that without masking
#: a genuinely unbindable configuration.
BIND_ATTEMPTS = 5


def repro_env() -> Dict[str, str]:
    """The environment of a ``python -m repro`` child process.

    Only the tree under test is on ``PYTHONPATH``.  The caller's
    ``PYTHONDONTWRITEBYTECODE`` passes through, so a test run under it
    writes no ``__pycache__`` into ``src``.
    """
    env = {"PYTHONPATH": SRC_ROOT, "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


def start_server(service, host: str = "127.0.0.1", port: int = 0) -> HttpServingServer:
    """Construct an :class:`HttpServingServer`, retrying transient binds.

    Only ``EADDRINUSE`` is retried, and only ``BIND_ATTEMPTS`` times —
    every other ``OSError`` (bad host, permissions) is a real
    configuration problem and propagates immediately, as does the final
    ``EADDRINUSE``.
    """
    for attempt in range(BIND_ATTEMPTS):
        try:
            return HttpServingServer(service, host=host, port=port)
        except OSError as error:
            if error.errno != errno.EADDRINUSE or attempt == BIND_ATTEMPTS - 1:
                raise
    raise AssertionError("unreachable: the loop returns or raises")


@pytest.fixture
def memory_server():
    """An HTTP server over a fresh in-memory service."""
    with start_server(EstimationService(MemorySessionStore())) as server:
        yield server


@pytest.fixture
def client(memory_server):
    """A wire client bound to ``memory_server``."""
    return SessionClient(memory_server.url)


@pytest.fixture
def store_server(tmp_path):
    """An HTTP server over a WAL-backed directory store in ``tmp_path``.

    Yields ``(server, store_root)`` so tests can reach under the server
    to corrupt or inspect the on-disk state.
    """
    root = tmp_path / "store"
    service = EstimationService(DirectorySessionStore(root))
    with start_server(service) as server:
        yield server, root
