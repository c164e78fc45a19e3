"""The four workloads: set-up, timed closed loop, and oracle.

Importing this module imports the system under test; ``run.py`` times
that import as the start of set-up.  Every workload follows the same
protocol:

``setup()``
    Build a fresh system (store, sessions, server, workers, runner) and
    run its warm-up ops.
``run(system)``
    The timed closed loop: one client sends its next op only after the
    previous one returned.  Returns a :class:`Phase`.
``check(system)``
    The oracle, run after timing; returns a list of problems (empty when
    every output is right).
``close(system)``
    Stop everything the set-up started and delete its files.

Between ops the timed loop also runs a fixed reference kernel that does
not touch the system under test (``perfbench.reference``); times are
scaled by the kernel's slowdown in the same run (see :class:`Phase`).
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.crowd import ResponseMatrix
from repro.experiments.runner import EstimationRunner, RunnerConfig
from repro.serving import (
    HttpServingServer,
    ProcessShardedService,
    SessionClient,
)
from repro.serving.http import report_to_payload
from repro.streaming import (
    DirectorySessionStore,
    EstimateReport,
    EstimationService,
    ShardedEstimationService,
    StreamingSession,
)

from perfbench.inputs import (
    ESTIMATORS,
    NUM_ITEMS,
    NUM_SESSIONS,
    READ,
    SWEEP_CHECKPOINTS,
    SWEEP_PERMUTATIONS,
    WRITE,
    Op,
    ServingInput,
    SweepInput,
    session_name,
)
from perfbench.reference import SERVING_REFERENCE, SWEEP_REFERENCE, Reference, stolen_seconds

#: Every n-th read of a serving workload is kept for the oracle.
READ_SAMPLE_EVERY = 16
#: Untimed sweeps in each set-up.
SWEEP_WARMUP = 1
#: Serving workloads move to the next CPU, and time the reference kernel
#: once, every this many ops.
ROTATE_EVERY = 50
#: Chunks of a serving workload's timed phase (see :class:`Phase`).
CHUNKS = 10


@dataclass
class Phase:
    """What one timed closed loop measured.

    The loop runs in consecutive chunks (``CHUNKS`` of them for a serving
    workload, one per sweep).  A chunk's time leaves out the reference
    kernel's runs and the time the host took from the machine's CPUs;
    its slowdown (the median of the kernel's runs in it) scales its
    throughput and latencies to reference speed.  A stall that hits one
    chunk moves the median chunk throughput little.
    """

    #: seconds of the loop, without the reference kernel's runs
    elapsed: float = 0.0
    #: seconds of ``elapsed`` that the host took from the machine's CPUs
    stolen: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: latency in seconds of each primary op, in completion order
    latencies: List[float] = field(default_factory=list)
    #: the same latencies divided by their chunk's slowdown
    scaled: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: each reference-kernel run's time over its nominal time
    slowdowns: List[float] = field(default_factory=list)
    #: ops per second of each chunk, at reference speed
    chunk_rates: List[float] = field(default_factory=list)
    _paused: float = 0.0

    def fail(self, error: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(repr(error))

    def calibrate(self, reference: Reference) -> None:
        seconds = reference.time()
        self._paused += seconds
        self.slowdowns.append(seconds / reference.nominal_s)

    @contextlib.contextmanager
    def chunk(self) -> Iterator[None]:
        done = self.attempted - self.failed
        first_latency, first_sample = len(self.latencies), len(self.slowdowns)
        paused = self._paused
        start, stolen = time.perf_counter(), stolen_seconds()
        yield
        seconds = time.perf_counter() - start - (self._paused - paused)
        # The steal counter ticks in 10 ms steps, which a chunk of a tiny
        # run can be shorter than.
        stolen = min(stolen_seconds() - stolen, seconds / 2)
        slowdown = statistics.median(self.slowdowns[first_sample:])
        self.elapsed += seconds
        self.stolen += stolen
        rate = (self.attempted - self.failed - done) / (seconds - stolen)
        self.chunk_rates.append(rate * slowdown)
        self.scaled += [latency / slowdown for latency in self.latencies[first_latency:]]

    @property
    def throughput(self) -> float:
        """Ops completed per second, as measured."""
        return (self.attempted - self.failed) / self.elapsed

    @property
    def scaled_throughput(self) -> float:
        """The median chunk's ops per second, at reference speed."""
        return statistics.median(self.chunk_rates)

    @property
    def slowdown(self) -> float:
        return statistics.median(self.slowdowns)


def chunks(items: Sequence) -> List[Sequence]:
    """``items`` cut into at most ``CHUNKS`` consecutive, nearly equal,
    non-empty slices."""
    count = max(1, min(CHUNKS, len(items)))
    bounds = [len(items) * part // count for part in range(count + 1)]
    return [items[low:high] for low, high in zip(bounds, bounds[1:])]


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * percent // 100))
    return ordered[int(rank) - 1]


def own_peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM for pid {pid}")


def tree_bytes(root: Path) -> int:
    return sum(
        (Path(directory) / name).stat().st_size
        for directory, _, names in os.walk(root)
        for name in names
    )


class CpuRotation:
    """Moves this process, its threads and the given child processes
    together to the next allowed CPU on every ``step``.

    Serving ops last about a millisecond and each CPU of a shared machine
    switches between a fast and a slow state on its own; a serving run
    that stays on one CPU puts its p50 on the edge between the two
    states.  Hopping between the CPUs, one at a time, mixes them in every
    run.
    """

    def __init__(self, cpus: Sequence[int]) -> None:
        self.cpus = sorted(cpus)
        self.next = 0

    def step(self, pids: Sequence[Optional[int]] = ()) -> None:
        cpu = {self.cpus[self.next]}
        self.next = (self.next + 1) % len(self.cpus)
        for pid in (os.getpid(), *pids):
            try:
                threads = os.listdir(f"/proc/{pid}/task")
            except FileNotFoundError:  # the process has exited
                continue
            for thread in threads:
                try:
                    os.sched_setaffinity(int(thread), cpu)
                except ProcessLookupError:  # the thread has exited
                    pass


def canonical(report: EstimateReport, counter: bool = True) -> str:
    """A report as canonical JSON: equal strings mean bit-identical floats.

    ``counter=False`` drops the version's third part, the fingerprint's
    mutation counter, which a session restored from a compacted snapshot
    restarts: a cold reopen reproduces the state and its estimates bit
    for bit, but not that counter.
    """
    payload = report_to_payload(report)
    if not counter:
        payload["version"] = payload["version"][:2]
    return json.dumps(payload, sort_keys=True)


# --------------------------------------------------------------------- #
# sweep
# --------------------------------------------------------------------- #
@dataclass
class SweepSystem:
    runner: EstimationRunner
    matrix: ResponseMatrix
    results: List[object] = field(default_factory=list)


def _series_signature(result) -> Dict[str, List[Tuple[int, Tuple[str, ...]]]]:
    return {
        name: [(point.num_tasks, tuple(map(repr, point.values))) for point in series.points]
        for name, series in sorted(result.series.items())
    }


class SweepWorkload:
    """Permutation-averaged estimator sweeps, as every paper figure runs."""

    name = "sweep"
    primary = "sweeps"

    def __init__(self, data: SweepInput, sweeps: int) -> None:
        self.data = data
        self.sweeps = sweeps

    def config(self, engine: str = "batch") -> RunnerConfig:
        return RunnerConfig(
            num_permutations=SWEEP_PERMUTATIONS,
            num_checkpoints=SWEEP_CHECKPOINTS,
            seed=self.data.seed,
            engine=engine,
        )

    def setup(self) -> SweepSystem:
        system = SweepSystem(
            EstimationRunner(list(ESTIMATORS), self.config()),
            ResponseMatrix.from_array(self.data.votes),
        )
        for _ in range(SWEEP_WARMUP):
            system.runner.run(system.matrix)
        return system

    def run(self, system: SweepSystem) -> Phase:
        phase = Phase()
        clock = time.perf_counter
        # One chunk per sweep: a sweep is long enough for the kernel run
        # right after it to scale it on its own.
        for index in range(self.sweeps):
            with phase.chunk():
                phase.attempted += 1
                start = clock()
                try:
                    result = system.runner.run(system.matrix)
                except Exception as error:
                    phase.fail(error)
                else:
                    phase.latencies.append(clock() - start)
                    if index in (0, self.sweeps - 1):
                        system.results.append(result)
                phase.calibrate(SWEEP_REFERENCE)
        return phase

    def check(self, system: SweepSystem) -> List[str]:
        reference = _series_signature(
            EstimationRunner(list(ESTIMATORS), self.config("serial")).run(system.matrix)
        )
        return [
            f"sweep result {index} differs from the serial engine"
            for index, result in enumerate(system.results)
            if _series_signature(result) != reference
        ]

    def close(self, system: SweepSystem) -> None:
        system.results.clear()

    def peak_rss_mb(self, system: SweepSystem) -> float:
        return own_peak_rss_mb()

    def layer_extras(self, system: SweepSystem, phase: Phase) -> Dict[str, float]:
        return {
            "core.stack_mib": self.data.stack_bytes / (1 << 20),
            "core.votes_per_sweep": self.data.votes_per_sweep,
        }


# --------------------------------------------------------------------- #
# serving workloads
# --------------------------------------------------------------------- #
@dataclass
class ServingSystem:
    root: Path
    service: object
    #: what the client calls: the service itself, or a ``SessionClient``
    client: object
    spawn_s: float = 0.0
    pids: List[Optional[int]] = field(default_factory=list)
    restarts: int = 0
    server: Optional[HttpServingServer] = None
    served_before: Tuple[int, int] = (0, 0)
    store_bytes: int = 0
    #: (op, ack) of every acknowledged write, in ack order
    acks: List[Tuple[Op, object]] = field(default_factory=list)
    #: sampled (session name, report) reads
    reads: List[Tuple[str, EstimateReport]] = field(default_factory=list)
    read_count: int = 0


class _ServingWorkload:
    """Shared set-up, closed loop and oracle of the serving workloads.

    One client thread drives the plan.  The process, its threads (the
    HTTP server's included) and the shard workers run on one CPU at a
    time and move to the next CPU every ``ROTATE_EVERY`` ops.
    """

    primary_kind = WRITE

    def __init__(self, data: ServingInput, workdir: Path, cpus: Sequence[int]) -> None:
        self.data = data
        self.workdir = workdir
        self.rotation = CpuRotation(cpus)
        self.names = [session_name(index) for index in range(NUM_SESSIONS)]
        self._roots = 0

    # -- hooks ---------------------------------------------------------- #
    def build(self, root: Path) -> ServingSystem:
        raise NotImplementedError

    # -- protocol ------------------------------------------------------- #
    def setup(self) -> ServingSystem:
        self._roots += 1
        root = self.workdir / f"{self.name}-{self._roots}"
        self.rotation.step()
        system = self.build(root)
        try:
            for name in self.names:
                system.client.create_session(name, range(NUM_ITEMS), list(ESTIMATORS))
            warmup = Phase()
            for index, op in enumerate(self.data.ops[: self.data.warmup]):
                if index % ROTATE_EVERY == 0:
                    self._move(system)
                self._apply(system, op, warmup)
            if warmup.failed:
                raise RuntimeError(f"warm-up op failed: {warmup.errors}")
        except BaseException:
            self.close(system)
            raise
        return system

    def run(self, system: ServingSystem) -> Phase:
        system.served_before = self._served(system)
        phase = Phase()
        ops = self.data.ops[self.data.warmup :]
        blocks = [ops[start : start + ROTATE_EVERY] for start in range(0, len(ops), ROTATE_EVERY)]
        for chunk in chunks(blocks):
            with phase.chunk():
                for block in chunk:
                    self._move(system)
                    phase.calibrate(SERVING_REFERENCE)
                    for op in block:
                        self._apply(system, op, phase)
        system.store_bytes = tree_bytes(system.root)
        return phase

    def _move(self, system: ServingSystem) -> None:
        self.rotation.step([pid for pid in system.pids if pid])

    def _apply(self, system: ServingSystem, op: Op, phase: Phase) -> None:
        """Send one op, wait for its reply and record it."""
        phase.attempted += 1
        name = self.names[op.session]
        if op.kind == WRITE:
            columns = op.columns()
        start = time.perf_counter()
        try:
            if op.kind == WRITE:
                ack = system.client.ingest(
                    name,
                    columns,
                    worker_ids=op.workers,
                    source=op.source,
                    sequence=op.sequence,
                )
            else:
                report = system.client.estimate_report(name)
        except Exception as error:
            phase.fail(error)
            return
        elapsed = time.perf_counter() - start
        primary_write = self.primary_kind == WRITE
        if op.kind == WRITE:
            system.acks.append((op, ack))
            if primary_write and ack.applied:
                phase.latencies.append(elapsed)
        else:
            if not primary_write:
                phase.latencies.append(elapsed)
            if system.read_count % READ_SAMPLE_EVERY == 0:
                system.reads.append((name, report))
            system.read_count += 1
        if system.pids:
            pids = system.service.worker_pids()
            if pids != system.pids:
                changed = sum(old != new for old, new in zip(system.pids, pids))
                system.restarts += changed
                phase.failed += changed
                system.pids = pids

    def peak_rss_mb(self, system: ServingSystem) -> float:
        return own_peak_rss_mb()

    def _served(self, system: ServingSystem) -> Tuple[int, int]:
        service = system.service
        return service.estimates_served, service.estimate_cache_hits

    def layer_extras(self, system: ServingSystem, phase: Phase) -> Dict[str, float]:
        served, hits = self._served(system)
        served -= system.served_before[0]
        hits -= system.served_before[1]
        warm_acks = sum(op.kind == WRITE for op in self.data.ops[: self.data.warmup])
        timed = [ack for op, ack in system.acks[warm_acks:]]
        votes = sum(op.votes.size for op, ack in system.acks if ack.applied)
        return {
            "service.estimates_served": served,
            "service.cache_hit_ratio": hits / served if served else 0.0,
            "service.deliveries": len(timed),
            "service.duplicate_ratio": (
                sum(ack.duplicate for ack in timed) / len(timed) if timed else 0.0
            ),
            "store.bytes_per_vote": system.store_bytes / votes if votes else 0.0,
            "workers.spawn_s": system.spawn_s,
            "workers.restarts": system.restarts,
        }

    # -- oracle --------------------------------------------------------- #
    def _ack_problems(self, system: ServingSystem) -> List[str]:
        problems = []
        for op, ack in system.acks:
            expected = len(op.workers) if op.applies else 0
            if ack.applied != expected or ack.duplicate == op.applies:
                problems.append(
                    f"{self.names[op.session]} {op.source}#{op.sequence}: "
                    f"acked applied={ack.applied} duplicate={ack.duplicate}, "
                    f"plan says applies={op.applies}"
                )
        return problems[:5]

    def _replay(self, system: ServingSystem, finals: Dict[str, EstimateReport]) -> List[str]:
        """Compare reads with a plain-session replay of the acked batches.

        Every sampled read must equal the replay at the prefix its
        version names, and ``finals`` the replay of every batch.
        """
        batches: Dict[str, List[Op]] = {name: [] for name in self.names}
        for op, ack in system.acks:
            if ack.applied:
                batches[self.names[op.session]].append(op)
        wanted: Dict[str, Dict[int, List[str]]] = {name: {} for name in self.names}
        for name, report in system.reads:
            wanted[name].setdefault(report.version[0], []).append(canonical(report))
        problems = []
        for name in self.names:
            session = StreamingSession(range(NUM_ITEMS), list(ESTIMATORS))

            def replayed() -> str:
                return canonical(
                    EstimateReport(name, session.state.version, session.estimate())
                )

            def compare(columns: int) -> None:
                if columns in wanted[name]:
                    expected = replayed()
                    for served in wanted[name].pop(columns):
                        if served != expected:
                            problems.append(f"{name}: read at {columns} columns differs from replay")

            compare(0)
            for op in batches[name]:
                session.add_columns(op.columns(), op.workers)
                compare(session.num_columns)
            if wanted[name]:
                problems.append(f"{name}: reads at unreachable versions {sorted(wanted[name])}")
            if canonical(finals[name]) != replayed():
                problems.append(f"{name}: final estimates differ from replay")
        return problems

    def _reopen_problems(self, live: Dict[str, EstimateReport], reopened) -> List[str]:
        return [
            f"{name}: cold-reopened estimates differ from live"
            for name in self.names
            if canonical(reopened.estimate_report(name), counter=False)
            != canonical(live[name], counter=False)
        ]

    def close(self, system: ServingSystem) -> None:
        shutil.rmtree(system.root, ignore_errors=True)


class IngestWorkload(_ServingWorkload):
    """Durable multi-source ingest straight into the in-process service."""

    name = "ingest"
    primary = "applied writes"

    def build(self, root: Path) -> ServingSystem:
        service = EstimationService(DirectorySessionStore(root))
        return ServingSystem(root, service, service)

    def check(self, system: ServingSystem) -> List[str]:
        live = {name: system.service.estimate_report(name) for name in self.names}
        reopened = EstimationService(DirectorySessionStore(system.root))
        return (
            self._ack_problems(system)
            + self._reopen_problems(live, reopened)
            + self._replay(system, live)
        )


class WorkersWorkload(_ServingWorkload):
    """The ``ingest`` plan through two shard worker processes."""

    name = "workers"
    primary = "applied writes"

    def build(self, root: Path) -> ServingSystem:
        start = time.perf_counter()
        service = ProcessShardedService(root, num_shards=2)
        spawn_s = time.perf_counter() - start
        return ServingSystem(
            root, service, service, spawn_s=spawn_s, pids=service.worker_pids()
        )

    def check(self, system: ServingSystem) -> List[str]:
        live = {name: system.service.estimate_report(name) for name in self.names}
        system.service.close()
        reopened = ShardedEstimationService(system.root)
        return (
            self._ack_problems(system)
            + self._reopen_problems(live, reopened)
            + self._replay(system, live)
        )

    def peak_rss_mb(self, system: ServingSystem) -> float:
        return own_peak_rss_mb() + sum(
            process_peak_rss_mb(pid) for pid in system.service.worker_pids() if pid
        )

    def close(self, system: ServingSystem) -> None:
        system.service.close()
        super().close(system)


class HttpWorkload(_ServingWorkload):
    """Estimate polls and vote batches over loopback HTTP."""

    name = "http"
    primary = "reads"
    primary_kind = READ

    def build(self, root: Path) -> ServingSystem:
        service = EstimationService(DirectorySessionStore(root))
        server = HttpServingServer(service).start()
        return ServingSystem(root, service, SessionClient(server.url), server=server)

    def check(self, system: ServingSystem) -> List[str]:
        finals = {name: system.client.estimate_report(name) for name in self.names}
        return self._ack_problems(system) + self._replay(system, finals)

    def close(self, system: ServingSystem) -> None:
        system.server.shutdown()
        super().close(system)
