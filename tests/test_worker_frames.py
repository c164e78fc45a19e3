"""The shard-worker frame loop, driven over real pipes in this process.

A frame is one pickled ``(op, args, kwargs)`` call and its reply is
``(True, result)`` or ``(False, exception)``.  These tests run
:func:`~repro.serving.workers.serve_worker` on a thread, so the worker's
side of a refusal (a result that cannot be pickled, a request that
cannot be read, a name outside the op table) is observable without a
subprocess; after each refusal the next call on the same pipe succeeds.
"""

from __future__ import annotations

import ast
import os
import struct
import threading
from pathlib import Path

import pytest

import repro
from repro.common.exceptions import ReproError, ValidationError
from repro.core.base import EstimateResult
from repro.serving.workers import read_frame, serve_worker, write_frame
from repro.streaming import EstimationService, UnknownSessionError


class _LambdaDetails:
    """An estimator whose results carry a lambda, which does not pickle."""

    name = "lambda-details"

    def estimate(self, matrix, upto=None):
        return EstimateResult(estimate=1.0, observed=1.0, details={"f": lambda: None})


@pytest.fixture
def worker():
    """``(call, raw)``: send a frame to a worker thread, read its reply."""
    service = EstimationService()
    service.create_session("s", range(4), ["voting"])
    service.create_session("odd", range(4), [_LambdaDetails()])
    stdin_read, stdin_write = os.pipe()
    replies, stdout_write = os.pipe()
    stdin, stdout = os.fdopen(stdin_read, "rb"), os.fdopen(stdout_write, "wb")
    requests = os.fdopen(stdin_write, "wb")
    thread = threading.Thread(target=serve_worker, args=(service, stdin, stdout))
    thread.start()
    assert read_frame(replies) == (True, os.getpid())  # the handshake

    def call(op, *args, **kwargs):
        write_frame(requests, (op, args, kwargs))
        return read_frame(replies)

    def raw(data: bytes):
        requests.write(struct.pack(">I", len(data)) + data)
        requests.flush()
        return read_frame(replies)

    yield call, raw
    assert call("shutdown") == (True, None)
    thread.join(timeout=10)
    assert not thread.is_alive()
    for stream in (requests, stdin, stdout):
        stream.close()
    os.close(replies)


def test_a_call_answers_with_the_service_result(worker):
    call, _ = worker
    ok, result = call("ingest", "s", [{0: 1, 1: 0}], source="a", sequence=1)
    assert ok and (result.applied, result.duplicate) == (1, False)
    assert call("progress", "s")[1]["num_columns"] == 1.0


def test_an_error_is_the_exception_the_service_raised(worker):
    call, _ = worker
    ok, error = call("progress", "ghost")
    assert not ok and type(error) is UnknownSessionError


def test_a_result_that_does_not_pickle_is_an_error_naming_the_op(worker):
    call, _ = worker
    ok, error = call("estimates", "odd")
    assert not ok and type(error) is ReproError
    assert "'estimates'" in str(error) and "pickle" in str(error)
    assert call("progress", "s")[0]


def test_a_request_that_does_not_unpickle_is_refused(worker):
    call, raw = worker
    ok, error = raw(b"not a pickle")
    assert not ok and "unpickling failed" in str(error)
    assert call("progress", "s")[0]


def test_only_the_op_table_can_be_called(worker):
    call, _ = worker
    for name in ("_store", "_active", "__class__", "store", "shutdown_now"):
        ok, error = call(name)
        assert not ok and isinstance(error, ValidationError), name
    assert call("sessions") == (True, ["odd", "s"])


def test_nothing_in_src_but_the_worker_module_unpickles():
    """Frames from a spawned worker are the only bytes unpickled.

    Nothing read from a socket or a file is: no other module imports a
    pickle-family module or loads numpy arrays with ``allow_pickle``.
    """
    unpicklers = {"pickle", "_pickle", "cPickle", "dill", "cloudpickle", "marshal", "shelve"}
    package = Path(repro.__file__).resolve().parent
    found = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.keyword) and node.arg == "allow_pickle":
                modules = ["pickle"]
            else:
                continue
            if any(module.split(".")[0] in unpicklers for module in modules):
                found.add(path.relative_to(package).as_posix())
    assert found == {"serving/workers.py"}
