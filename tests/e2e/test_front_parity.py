"""Every op of the serving table, on every front, gives the same answer.

One script of calls runs against each front: the in-process service,
the in-process sharded service (one and three shards), process workers,
and the HTTP client in front of an in-process service and in front of
process workers.  Each result is compared through its op's wire reply
(canonical JSON), and each error by the ``(type, status, kind)`` the
taxonomy gives it.  A front without an op of the table fails here, which
is how a drifted copy of the façade used to slip through (collusion
reports under process workers answered 400).
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path

import pytest

import repro

from repro.common.labels import CLEAN, DIRTY
from repro.serving import (
    SERVER_ERROR_TAXONOMY,
    SERVING_OPS,
    DirectorySessionStore,
    EstimationService,
    HttpApiError,
    HttpServingServer,
    ProcessShardedService,
    SessionClient,
    ShardedEstimationService,
    classify_error,
    result_to_payload,
)

OPS = {op.name: op for op in SERVING_OPS}
SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])

SHEET = {item: (DIRTY if item % 3 == 0 else CLEAN) for item in range(12)}
COLUMNS = [dict(SHEET), dict(SHEET), dict(SHEET), {0: CLEAN, 4: DIRTY, 8: CLEAN}]
WRITE = dict(worker_ids=[0, 1, 2, None], source="a", sequence=1)

#: ``(op, args, kwargs)`` in order; every op of the table appears.
SCRIPT = (
    ("create_session", ("alpha", list(range(12)), ["voting", "chao92"]), {}),
    ("create_session", ("beta", list(range(6)), ["voting"]), {"keep_votes": False}),
    ("ingest", ("alpha", COLUMNS), WRITE),
    ("ingest", ("alpha", COLUMNS[:1]), {"source": "a", "sequence": 1}),
    ("ingest", ("beta", [{0: DIRTY, 1: CLEAN}]), {}),
    ("sessions", (), {}),
    ("active_sessions", (), {}),
    ("progress", ("alpha",), {}),
    ("estimate_report", ("alpha",), {}),
    ("estimates", ("alpha",), {}),
    ("collusion_report", ("alpha",), {}),
    ("collusion_report", ("alpha",), {"threshold": 0.75, "min_overlap": 2}),
    ("snapshot", ("alpha",), {}),
    ("compact", ("alpha",), {}),
    ("stats", (), {}),
    ("drop", ("beta",), {}),
    ("sessions", (), {}),
    # Last: the HTTP client has neither, so nothing after them may differ.
    ("evict", ("alpha",), {}),
    ("restore", ("alpha",), {}),
    ("progress", ("alpha",), {}),
)

#: label → call; every front must raise the same ``(type, status, kind)``.
ERROR_CASES = {
    "unknown_session": lambda front: front.estimates("ghost"),
    "bad_vote": lambda front: front.ingest("alpha", [{0: 7}]),
    "fractional_vote": lambda front: front.ingest("alpha", [{0: 0.5}]),
    "fractional_sequence": lambda front: front.ingest(
        "alpha", [{0: DIRTY}], source="a", sequence=5.5
    ),
    "bool_sequence": lambda front: front.ingest(
        "alpha", [{0: DIRTY}], source="a", sequence=True
    ),
    "non_string_source": lambda front: front.ingest(
        "alpha", [{0: DIRTY}], source=5, sequence=9
    ),
    "duplicate_create": lambda front: front.create_session("alpha", [0, 1]),
    "collusion_without_votes": lambda front: front.collusion_report("gamma"),
}


def served(stack, service) -> SessionClient:
    """A client for ``service`` behind a live loopback server."""
    return SessionClient(stack.enter_context(HttpServingServer(service)).url)


def workers(stack, root) -> ProcessShardedService:
    return stack.enter_context(ProcessShardedService(root, num_shards=2))


#: The fronts: label → how to build one (given an ExitStack and a root).
FRONTS = {
    "service": lambda stack, root: EstimationService(DirectorySessionStore(root)),
    "sharded-1": lambda stack, root: ShardedEstimationService(root, num_shards=1),
    "sharded-3": lambda stack, root: ShardedEstimationService(root, num_shards=3),
    "workers-2": workers,
    "http-service": lambda stack, root: served(
        stack, EstimationService(DirectorySessionStore(root))
    ),
    "http-workers-2": lambda stack, root: served(stack, workers(stack, root)),
}


def declares(front, op) -> bool:
    """Remote clients carry the ops with an HTTP route; services carry all."""
    if isinstance(front, SessionClient):
        return op.http is not None or op.local is not None
    return True


def canonical(op, args, kwargs, result) -> str:
    """A result as its op's wire reply: equal strings, equal answers."""
    if op.reply is None:  # ``estimates``: the results of a report
        payload = {name: result_to_payload(value) for name, value in result.items()}
    else:
        name, wire_args = op.encode(*args, **kwargs)
        decoded = op.decode(wire_args) if op.decode is not None else {}
        payload = op.reply(name, decoded, result)
    if op.name == "active_sessions":  # shards list in shard order, not LRU
        payload = {"sessions": sorted(payload["sessions"])}
    return json.dumps(payload, sort_keys=True)


def run_script(front):
    """``(op, canonical result)`` per script step; ``None`` where not declared."""
    outcomes = []
    for op_name, args, kwargs in SCRIPT:
        op = OPS[op_name]
        if not declares(front, op):
            outcomes.append((op_name, None))
            continue
        result = getattr(front, op_name)(*args, **kwargs)
        outcomes.append((op_name, canonical(op, args, kwargs, result)))
    return outcomes


def error_signature(front, call):
    with pytest.raises(Exception) as caught:
        call(front)
    error = caught.value
    mapped = classify_error(error)
    assert mapped is not None, f"unmapped {type(error).__name__}: {error}"
    if isinstance(error, HttpApiError):
        assert (error.status, error.kind) == mapped
    base = next(kind for kind, _, _ in SERVER_ERROR_TAXONOMY if isinstance(error, kind))
    return (base.__name__, *mapped)


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    """Each front's script results and error signatures."""
    results = {}
    with ExitStack() as stack:
        for label, build in FRONTS.items():
            front = build(stack, tmp_path_factory.mktemp(label))
            script = run_script(front)
            front.create_session("gamma", [0, 1, 2], ["voting"], keep_votes=False)
            errors = {
                case: error_signature(front, call) for case, call in ERROR_CASES.items()
            }
            results[label] = (script, errors)
    return results


class TestFrontParity:
    def test_every_table_op_is_on_every_front(self):
        fronts = (EstimationService, ShardedEstimationService, ProcessShardedService)
        for op in SERVING_OPS:
            for front in fronts:
                assert callable(getattr(front, op.name, None)), (front, op.name)
            if op.http is not None or op.local is not None:
                assert callable(getattr(SessionClient, op.name, None)), op.name

    def test_the_script_runs_every_op_of_the_table(self):
        assert {op for op, _, _ in SCRIPT} == set(OPS)

    @pytest.mark.parametrize("label", [label for label in FRONTS if label != "service"])
    def test_results_match_the_in_process_service(self, outcomes, label):
        expected = outcomes["service"][0]
        got = outcomes[label][0]
        assert [op for op, _ in got] == [op for op, _ in expected]
        for (op, result), (_, reference) in zip(got, expected):
            if result is not None:
                assert result == reference, op

    @pytest.mark.parametrize("label", [label for label in FRONTS if label != "service"])
    def test_errors_match_the_in_process_service(self, outcomes, label):
        assert outcomes[label][1] == outcomes["service"][1]

    def test_the_error_cases_keep_their_taxonomy(self, outcomes):
        errors = outcomes["service"][1]
        assert errors["unknown_session"] == (
            "UnknownSessionError", 404, "unknown_session"
        )
        assert errors["duplicate_create"] == ("ConfigurationError", 409, "conflict")
        for case in (
            "bad_vote",
            "fractional_vote",
            "fractional_sequence",
            "bool_sequence",
            "non_string_source",
        ):
            assert errors[case] == ("ValidationError", 400, "validation"), case


class TestCollusionUnderWorkers:
    def test_estimates_route_serves_collusion_from_process_workers(self, tmp_path):
        bodies = []
        for build in (
            lambda stack: EstimationService(DirectorySessionStore(tmp_path / "one")),
            lambda stack: workers(stack, tmp_path / "workers"),
        ):
            with ExitStack() as stack:
                server = stack.enter_context(HttpServingServer(build(stack)))
                client = SessionClient(server.url)
                client.create_session("s", item_ids=range(12), estimators=["voting"])
                client.ingest("s", COLUMNS, worker_ids=[0, 1, 2, 3])
                status, payload = server.api.handle(
                    "GET", "/sessions/s/estimates?collusion=1&min_overlap=2"
                )
                assert status == 200, payload
                bodies.append(json.dumps(payload, sort_keys=True))
        assert bodies[0] == bodies[1]
        assert json.loads(bodies[1])["collusion"]["cliques"][0][:3] == [0, 1, 2]

    def test_repro_serve_with_workers_serves_collusion(self, tmp_path):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(tmp_path / "store"), "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": SRC_ROOT, "PATH": "/usr/bin:/bin"},
        )
        try:
            url = process.stdout.readline().split()[2]
            client = SessionClient(url)
            client.create_session("s", item_ids=range(12), estimators=["voting"])
            client.ingest("s", COLUMNS, worker_ids=[0, 1, 2, 3])
            report = client.collusion_report("s", min_overlap=2)
            assert report["cliques"][0][:3] == [0, 1, 2]
        finally:
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=30)
        assert process.returncode == 0
