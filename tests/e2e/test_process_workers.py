"""End-to-end coverage of process-per-shard serving.

Real worker processes, real ``kill -9``, real advisory locks: these
tests pin the failure contract of
:class:`~repro.serving.workers.ProcessShardedService` — crash/restart
recovery is bit-identical (the WAL guarantees it), timeouts kill and
recover, shutdown drains, and a shard beyond its restart budget fails
loudly without taking the other shards with it.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.common.exceptions import ConfigurationError, ReproError, ValidationError
from repro.core.chao92 import Chao92Estimator
from repro.core.descriptive import CollusionReport
from repro.serving import (
    ProcessShardedService,
    ShardUnavailableError,
    UnknownSessionError,
    workers,
)
from repro.serving.http import report_to_payload
from repro.streaming import (
    DirectorySessionStore,
    SessionSnapshot,
    ShardedEstimationService,
)

from .conftest import repro_env

BANNER = re.compile(r"^serving on (http://[^ ]+)")

SESSION = "tenant-a"
ITEMS = list(range(30))
ESTIMATORS = ["voting", "chao92"]


def batch(index: int):
    """Deterministic vote batch ``index`` — no RNG, so runs are replayable."""
    return [
        {
            (index * 3 + offset + item) % len(ITEMS): (item + index) % 2
            for item in range(4)
        }
        for offset in range(2)
    ]


def drive(service, upto: int, *, skip=()):
    """Deliver batches ``0..upto-1`` (minus ``skip``) with idempotency pairs."""
    for index in range(upto):
        if index in skip:
            continue
        service.ingest(SESSION, batch(index), source="loader", sequence=index)


def report_json(service) -> str:
    """The estimate report as canonical JSON — the bit-identity yardstick."""
    return json.dumps(
        report_to_payload(service.estimate_report(SESSION)), sort_keys=True
    )


def expected_report(tmp_path, upto: int) -> str:
    """The uninterrupted run's report, from a fresh single-worker root."""
    with ProcessShardedService(tmp_path / "baseline", num_shards=1) as service:
        service.create_session(SESSION, ITEMS, ESTIMATORS)
        drive(service, upto)
        return report_json(service)


def owning_pid(service) -> int:
    pid = service.worker_pids()[service.shard_of(SESSION)]
    assert pid is not None
    return pid


def wait_for_death(service, shard: int) -> None:
    """Block until the parent can observe the killed worker's corpse.

    SIGKILL is asynchronous: for a brief window a request can still be
    written into the dead worker's pipe (surfacing as a mid-request
    ``ShardUnavailableError`` rather than a transparent pre-send
    restart).  Tests that want the deterministic pre-send path wait the
    race out here.
    """
    worker = service._workers[shard]
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        process = worker.process
        if process is None or process.poll() is not None:
            return
        time.sleep(0.02)
    raise AssertionError("killed worker never became observable as dead")


class TestProcessShardedFacade:
    def test_round_trip_and_store_interchangeability(self, tmp_path):
        root = tmp_path / "root"
        with ProcessShardedService(root, num_shards=2) as service:
            assert service.num_shards == 2
            service.create_session(SESSION, ITEMS, ESTIMATORS)
            drive(service, 4)
            duplicate = service.ingest(
                SESSION, batch(3), source="loader", sequence=3
            )
            assert duplicate.duplicate is True and duplicate.applied == 0
            assert service.sessions() == [SESSION]
            assert SESSION in service.active_sessions()
            assert service.progress(SESSION)["num_columns"] == 8
            assert service.estimates_served >= 0
            via_workers = report_json(service)

        # The on-disk layout is the ShardedEstimationService layout: the
        # same root reopens in-process with bit-identical estimates.
        in_process = ShardedEstimationService(root)
        assert in_process.num_shards == 2
        assert (
            json.dumps(
                report_to_payload(in_process.estimate_report(SESSION)),
                sort_keys=True,
            )
            == via_workers
        )

    def test_snapshot_compact_restore_drop_and_evict(self, tmp_path):
        with ProcessShardedService(tmp_path / "root", num_shards=2) as service:
            service.create_session(SESSION, ITEMS, ESTIMATORS)
            drive(service, 2)
            assert isinstance(service.snapshot(SESSION), SessionSnapshot)
            assert service.compact(SESSION).manifest["num_columns"] == 4
            assert service.evict(SESSION) == SESSION
            progress = service.restore(SESSION)
            assert progress["num_columns"] == 4
            service.drop(SESSION)
            assert service.sessions() == []

    def test_estimator_objects_are_rejected_with_a_clear_error(self, tmp_path):
        with ProcessShardedService(tmp_path / "root") as service:
            with pytest.raises(ValidationError, match="registry names"):
                service.create_session(SESSION, ITEMS, [object()])


class TestAnswersAsInProcess:
    """Results and errors are the in-process objects, not wire receipts."""

    def test_snapshots_reports_and_errors_are_the_in_process_ones(self, tmp_path):
        in_process = ShardedEstimationService(num_shards=2)
        with ProcessShardedService(tmp_path / "root", num_shards=2) as service:
            for front in (service, in_process):
                front.create_session(SESSION, ITEMS, ESTIMATORS)
                drive(front, 4)
            snapshot = service.snapshot(SESSION)
            assert isinstance(snapshot, SessionSnapshot)
            assert service.restore("copy", snapshot)["num_columns"] == 8
            assert service.sessions() == ["copy", SESSION]
            copy = service.estimate_report("copy")
            assert copy.results == service.estimate_report(SESSION).results
            report = service.collusion_report(SESSION, min_overlap=1)
            assert isinstance(report, CollusionReport)
            assert report == in_process.collusion_report(SESSION, min_overlap=1)
            with pytest.raises(UnknownSessionError) as caught:
                service.progress("ghost")
            assert type(caught.value) is UnknownSessionError

    def test_an_estimator_object_that_pickles_is_served(self, tmp_path):
        with ProcessShardedService(tmp_path / "root") as service:
            service.create_session(SESSION, ITEMS, [Chao92Estimator()])
            drive(service, 3)
            assert sorted(service.estimates(SESSION)) == ["chao92"]


class TestUnsendableFrames:
    """A frame its sender cannot send is refused, and the pipe stays in sync."""

    def test_an_unpicklable_argument_is_refused_naming_the_op(self, tmp_path):
        with ProcessShardedService(tmp_path / "root") as service:
            pids = service.worker_pids()
            with pytest.raises(ReproError, match="'create_session'.*pickle"):
                service.create_session(SESSION, ITEMS, [lambda: None])
            service.create_session(SESSION, ITEMS, ESTIMATORS)
            drive(service, 2)
            assert service.progress(SESSION)["num_columns"] == 4
            assert service.worker_pids() == pids
            assert service._workers[0].restarts == 0

    def test_an_oversized_frame_is_refused_naming_the_op(self, tmp_path, monkeypatch):
        with ProcessShardedService(tmp_path / "root") as service:
            service.create_session(SESSION, ITEMS, ESTIMATORS)
            pids = service.worker_pids()
            monkeypatch.setattr(workers, "MAX_FRAME_BYTES", 4096)
            columns = [{item: item % 2 for item in ITEMS} for _ in range(200)]
            with pytest.raises(ReproError, match="'ingest'.*bytes pickled, over the 4096 limit"):
                service.ingest(SESSION, columns, source="loader", sequence=1)
            drive(service, 2)
            assert service.progress(SESSION)["num_columns"] == 4
            assert service.worker_pids() == pids
            assert service._workers[0].restarts == 0


class TestCrashRecovery:
    def test_kill9_between_batches_recovers_bit_identically(self, tmp_path):
        expected = expected_report(tmp_path, 8)
        with ProcessShardedService(tmp_path / "killed", num_shards=1) as service:
            service.create_session(SESSION, ITEMS, ESTIMATORS)
            drive(service, 5)
            pid = owning_pid(service)
            os.kill(pid, signal.SIGKILL)
            wait_for_death(service, service.shard_of(SESSION))
            # The next delivery finds the corpse before sending, restarts
            # the worker, replays the WAL and applies transparently.
            drive(service, 8, skip=range(5))
            assert owning_pid(service) != pid
            assert report_json(service) == expected

    def test_kill9_mid_request_then_same_sequence_retry_is_bit_identical(
        self, tmp_path
    ):
        expected = expected_report(tmp_path, 8)
        with ProcessShardedService(tmp_path / "killed", num_shards=1) as service:
            service.create_session(SESSION, ITEMS, ESTIMATORS)
            drive(service, 5)
            pid = owning_pid(service)
            failures = []

            def wedge():
                try:
                    service.ingest(SESSION, batch(5), source="loader", sequence=5)
                except ShardUnavailableError as error:
                    failures.append(error)

            # A stopped worker takes the request into its pipe but never
            # answers it.
            os.kill(pid, signal.SIGSTOP)
            thread = threading.Thread(target=wedge)
            thread.start()
            time.sleep(0.3)  # let the request reach the worker
            os.kill(pid, signal.SIGKILL)
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert failures, "a mid-request death must surface, not hang"
            # The caller cannot know whether the in-flight operation
            # applied — so it redelivers under the same (source,
            # sequence) pair, which is exactly what makes the retry safe.
            drive(service, 8, skip=range(5))
            assert report_json(service) == expected

    def test_restart_budget_exhaustion_contains_the_failure(self, tmp_path):
        with ProcessShardedService(
            tmp_path / "root", num_shards=2, max_restarts=0
        ) as service:
            names = sorted(
                f"s-{index}" for index in range(20)
            )
            by_shard = {}
            for name in names:
                by_shard.setdefault(service.shard_of(name), name)
            assert len(by_shard) == 2, "need a session name on each shard"
            doomed, healthy = by_shard[0], by_shard[1]
            service.create_session(doomed, ITEMS, ESTIMATORS)
            service.create_session(healthy, ITEMS, ESTIMATORS)
            os.kill(service.worker_pids()[0], signal.SIGKILL)
            wait_for_death(service, 0)
            with pytest.raises(ShardUnavailableError, match="restart budget"):
                service.ingest(doomed, batch(0))
            # ... and stays down rather than crash-looping.
            with pytest.raises(ShardUnavailableError):
                service.progress(doomed)
            # Fault containment: the other shard never noticed.
            service.ingest(healthy, batch(0))
            assert service.progress(healthy)["num_columns"] == 2


class TestTimeouts:
    def test_wedged_worker_is_killed_and_recovers(self, tmp_path):
        with ProcessShardedService(tmp_path / "root", num_shards=1) as service:
            service.create_session(SESSION, ITEMS, ESTIMATORS)
            drive(service, 3)
            worker = service._workers[0]
            pid = owning_pid(service)
            os.kill(pid, signal.SIGSTOP)  # wedged: it never answers
            started = time.monotonic()
            with pytest.raises(ShardUnavailableError, match="deadline"):
                worker.request("progress", (SESSION,), timeout=0.5)
            assert time.monotonic() - started < 10
            # The wedged process was killed; the next request restarts a
            # fresh worker that recovered the shard from its WAL.
            assert service.progress(SESSION)["num_columns"] == 6
            assert owning_pid(service) != pid


class TestOwnershipAndDrain:
    def test_exclusive_store_ownership_is_enforced(self, tmp_path):
        root = tmp_path / "root"
        with ProcessShardedService(root, num_shards=1) as service:
            service.create_session(SESSION, ITEMS, ESTIMATORS)
            shard_dir = root / "shard-0000"
            with pytest.raises(ConfigurationError, match="exclusively owned"):
                DirectorySessionStore(shard_dir, exclusive=True)
            # A second process-sharded service over the same root fails
            # its boot handshake with the same structured error.
            with pytest.raises(ConfigurationError, match="exclusively owned"):
                ProcessShardedService(root)
        # Ownership dies with the workers: after the drain the lock is free.
        store = DirectorySessionStore(root / "shard-0000", exclusive=True)
        assert store.exclusive is True
        store.close()
        assert store.exclusive is False

    def test_close_drains_workers_and_is_idempotent(self, tmp_path):
        service = ProcessShardedService(tmp_path / "root", num_shards=2)
        service.create_session(SESSION, ITEMS, ESTIMATORS)
        drive(service, 3)
        pids = [pid for pid in service.worker_pids() if pid is not None]
        assert len(pids) == 2
        service.close()
        service.close()  # idempotent
        for pid in pids:
            for _ in range(50):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.1)
            else:
                pytest.fail(f"worker {pid} survived the drain")
        with pytest.raises(ConfigurationError, match="closed"):
            service.progress(SESSION)
        # Nothing was lost: the drained root reopens with the full state.
        with ProcessShardedService(tmp_path / "root") as reopened:
            assert reopened.progress(SESSION)["num_columns"] == 6


class TestServeWorkersSubprocess:
    def _spawn(self, store, *extra):
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--store", str(store), *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=repro_env(),
        )

    def test_serve_workers_lifecycle(self, tmp_path):
        store = tmp_path / "store"
        process = self._spawn(store, "--workers", "2")
        try:
            line = process.stdout.readline()
            match = BANNER.match(line)
            assert match, f"expected the serving banner, got {line!r}"
            url = match.group(1)
            with urllib.request.urlopen(url + "/health", timeout=10) as response:
                health = json.load(response)
            assert health["shards"] == 2
            request = urllib.request.Request(
                url + "/sessions",
                data=json.dumps(
                    {"name": "s", "items": 20, "estimators": ["voting"]}
                ).encode("utf-8"),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 201
            request = urllib.request.Request(
                url + "/sessions/s/batches",
                data=json.dumps(
                    {"columns": [{"0": 1, "3": 0}], "source": "w", "sequence": 1}
                ).encode("utf-8"),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert json.load(response)["applied"] == 1
        finally:
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=30)
        assert process.returncode == 0, err
        assert "shutdown complete" in out
        manifest = json.loads((store / "shards.json").read_text(encoding="utf-8"))
        assert manifest["num_shards"] == 2
        # The drained store reopens in-process with the ingested state.
        service = ShardedEstimationService(store)
        assert service.progress("s")["num_columns"] == 1

    def test_conflicting_workers_and_shards_exit_2(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--store", str(tmp_path / "store"),
                "--workers", "2", "--shards", "3",
            ],
            capture_output=True,
            text=True,
            timeout=30,
            env=repro_env(),
        )
        assert result.returncode == 2
        assert "conflicts" in result.stderr
