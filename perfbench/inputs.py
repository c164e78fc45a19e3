"""Seeded inputs for every workload, generated by the benchmark itself.

Nothing here imports ``repro``: inputs are plain numpy arrays and Python
values, built before the system under test is imported, so the import
and set-up of the system are timed without them and the program only
ever receives generated inputs.  The same ``seed`` always gives the same
inputs.

The crowd model follows the paper's protocol: items are grouped into
fixed tasks of ``ITEMS_PER_TASK`` items, and one vote column is one
worker's answers to one task.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Vote labels of ``repro.common.labels`` (restated so that generating
#: inputs does not import the system under test).
DIRTY, CLEAN, UNSEEN = 1, 0, -1

#: The estimators every workload evaluates: the paper's descriptive
#: baselines, species estimators, extrapolation and both switch forms.
ESTIMATORS = ("voting", "chao92", "vchao92", "extrapolation", "switch", "switch_total")

ITEMS_PER_TASK = 10
ERROR_RATE = 0.1
#: A worker answers each item right with an accuracy drawn from this range.
ACCURACY = (0.7, 0.95)

#: sweep: 300 tasks of 10 items over 1000 items, as in the paper's
#: real-world runs; r = 12 permutations (a 3.43 MiB int8 stack), 20
#: checkpoints.
SWEEP_ITEMS = 1000
SWEEP_TASKS = 300
SWEEP_PERMUTATIONS = 12
SWEEP_CHECKPOINTS = 20

#: Serving traffic, restated from the crowd fleet the repository's own
#: load generator simulates (``repro.serving.loadgen.FleetConfig``): six
#: workers over two sessions, so three sources per session; batches of
#: three task columns; every third delivery of a source re-sent at once
#: as a retry twin; every fourth adjacent pair of a source's batches
#: swapped, so the lower sequence arrives late and is dropped.
SOURCES_PER_SESSION = 3
COLUMNS_PER_BATCH = 3
DUPLICATE_EVERY = 3
REORDER_EVERY = 4

#: Sizing that the fleet model does not fix, chosen so that one run has
#: both a compacting session and a long tail that only appends: write
#: popularity is Zipf-distributed with exponent 1.5 over 16 sessions of
#: 1000 items, so the hottest session takes about half of the writes and
#: crosses the 1 MiB compaction threshold twice in a 12 s run, while the
#: other fifteen never reach it.  All 16 stay live (no ``max_active``).
NUM_SESSIONS = 16
NUM_ITEMS = 1000
SKEW = 1.5

#: ``ingest`` and ``workers``: a read of the written session after every
#: 4th write; ``http``: four estimate polls per posted batch.  The first
#: ops of each plan warm the system up, untimed.
INGEST_READ_EVERY = 4
INGEST_WARMUP = 250
HTTP_POLLS_PER_WRITE = 4
HTTP_WARMUP = 100


def _task_votes(
    rng: np.random.Generator,
    truth: np.ndarray,
    items: np.ndarray,
    accuracy: np.ndarray,
) -> np.ndarray:
    """Votes of one worker per row of ``items``: right with its accuracy."""
    right = rng.random(items.shape) < accuracy[:, None]
    dirty = truth[items]
    return np.where(right, dirty, ~dirty).astype(np.int8)


# --------------------------------------------------------------------- #
# sweep: one collected matrix shaped like the paper's real-world runs
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepInput:
    """An ``items x tasks`` vote matrix and the runner's seed."""

    votes: np.ndarray
    seed: int

    @property
    def stack_bytes(self) -> int:
        """Bytes of the ``(R, N, K)`` int8 stack one sweep builds."""
        return SWEEP_PERMUTATIONS * self.votes.size

    @property
    def votes_per_sweep(self) -> int:
        """Votes every permutation scans, summed over the permutations."""
        return SWEEP_PERMUTATIONS * int((self.votes != UNSEEN).sum())


def sweep_input(seed: int) -> SweepInput:
    rng = np.random.default_rng([seed, 1])
    truth = rng.random(SWEEP_ITEMS) < ERROR_RATE
    groups = rng.permutation(SWEEP_ITEMS).reshape(-1, ITEMS_PER_TASK)
    chosen = groups[rng.integers(0, len(groups), size=SWEEP_TASKS)]
    votes = _task_votes(rng, truth, chosen, rng.uniform(*ACCURACY, size=SWEEP_TASKS))
    matrix = np.full((SWEEP_ITEMS, SWEEP_TASKS), UNSEEN, dtype=np.int8)
    matrix[chosen, np.arange(SWEEP_TASKS)[:, None]] = votes
    return SweepInput(matrix, int(rng.integers(1 << 30)))


# --------------------------------------------------------------------- #
# serving: multi-source delivery plans
# --------------------------------------------------------------------- #
WRITE, READ = "write", "read"


@dataclass(frozen=True, eq=False)
class Op:
    """One closed-loop operation of a client.

    A write carries one source's batch of task columns under its
    ``(source, sequence)`` idempotency pair; ``applies`` is the plan's
    prediction of the acknowledgement (a retried twin or a batch that
    arrives after its successor is a no-op).  A read polls the session's
    estimates.  Columns are kept as ``(columns, items per task)`` arrays
    so that a long plan stays small next to the system it drives.
    """

    kind: str
    session: int
    source: Optional[str] = None
    sequence: int = 0
    items: Optional[np.ndarray] = None
    votes: Optional[np.ndarray] = None
    workers: Tuple[int, ...] = ()
    applies: bool = False

    def columns(self) -> List[Dict[int, int]]:
        """The batch as ``{item id: vote}`` mappings, one per column."""
        return [
            dict(zip(items, votes))
            for items, votes in zip(self.items.tolist(), self.votes.tolist())
        ]


@dataclass(frozen=True)
class ServingInput:
    """The client's op list; the first ``warmup`` ops run during set-up,
    untimed."""

    ops: Tuple[Op, ...]
    warmup: int


def session_name(index: int) -> str:
    return f"tenant-{index:03d}"


def _plan(
    rng: np.random.Generator, *, writes: int, read_every: int, polls_per_write: int
) -> Tuple[Op, ...]:
    """A client's op list over all ``NUM_SESSIONS`` sessions.

    Writes pick a session by popularity and one of its sources; each
    source numbers its batches 1, 2, 3, ...  Every ``REORDER_EVERY``-th
    batch of a source is held back and sent right after the next one, so
    it arrives late; every ``DUPLICATE_EVERY``-th delivery of a source is
    followed by its retry twin.  Every ``read_every``-th write (0: none)
    is followed by a read of its session, and every write by
    ``polls_per_write`` reads drawn by the same popularity.
    """
    popularity = 1.0 / np.arange(1, NUM_SESSIONS + 1) ** SKEW
    popularity /= popularity.sum()
    truth = rng.random((NUM_SESSIONS, NUM_ITEMS)) < ERROR_RATE
    tasks = np.stack([rng.permutation(NUM_ITEMS) for _ in range(NUM_SESSIONS)]).reshape(
        NUM_SESSIONS, -1, ITEMS_PER_TASK
    )
    accuracy = rng.uniform(*ACCURACY, size=(NUM_SESSIONS, SOURCES_PER_SESSION))
    picks = rng.choice(NUM_SESSIONS, size=writes, p=popularity)
    source_of = rng.integers(0, SOURCES_PER_SESSION, size=writes)
    task_of = rng.integers(0, tasks.shape[1], size=(writes, COLUMNS_PER_BATCH))
    polls = rng.choice(NUM_SESSIONS, size=(writes, polls_per_write), p=popularity)

    sequences = np.zeros((NUM_SESSIONS, SOURCES_PER_SESSION), dtype=np.int64)
    delivered = np.zeros((NUM_SESSIONS, SOURCES_PER_SESSION), dtype=np.int64)
    ops: List[Op] = []
    held: Dict[Tuple[int, int], Op] = {}

    def deliver(session: int, source: int, op: Op) -> None:
        ops.append(op)
        delivered[session, source] += 1
        if delivered[session, source] % DUPLICATE_EVERY == 0:
            ops.append(replace(op, applies=False))

    for index in range(writes):
        session, source = int(picks[index]), int(source_of[index])
        sequences[session, source] += 1
        sequence = int(sequences[session, source])
        items = tasks[session, task_of[index]]
        votes = _task_votes(
            rng, truth[session], items, np.full(COLUMNS_PER_BATCH, accuracy[session, source])
        )
        worker = session * SOURCES_PER_SESSION + source
        op = Op(
            WRITE,
            session,
            source=f"worker-{worker}",
            sequence=sequence,
            items=items.astype(np.int16),
            votes=votes,
            workers=(worker,) * COLUMNS_PER_BATCH,
            applies=True,
        )
        late = held.pop((session, source), None)
        if sequence % REORDER_EVERY == 0:
            held[(session, source)] = op
            continue
        deliver(session, source, op)
        if late is not None:
            deliver(session, source, replace(late, applies=False))
        if read_every and index % read_every == 0:
            ops.append(Op(READ, session))
        ops += [Op(READ, int(pick)) for pick in polls[index]]
    for (session, source), op in held.items():  # never overtaken: applied
        deliver(session, source, op)
    return tuple(ops)


def ingest_input(seed: int, writes: int) -> ServingInput:
    """The durable-ingest plan shared by ``ingest`` and ``workers``."""
    rng = np.random.default_rng([seed, 2])
    ops = _plan(rng, writes=writes, read_every=INGEST_READ_EVERY, polls_per_write=0)
    return ServingInput(ops, INGEST_WARMUP)


def http_input(seed: int, writes: int) -> ServingInput:
    """The read-heavy HTTP mix: four estimate polls per posted batch."""
    rng = np.random.default_rng([seed, 3])
    ops = _plan(rng, writes=writes, read_every=0, polls_per_write=HTTP_POLLS_PER_WRITE)
    return ServingInput(ops, HTTP_WARMUP)
