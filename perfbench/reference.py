"""The yardsticks a run measures the machine with, beside the program.

Nothing here imports ``repro``; ``run.py`` imports this module before it
times the import of the system under test.

The CPUs of a shared machine run the same code up to a fifth faster or
slower from one half-minute to the next, and the hypervisor now and then
runs other guests while this machine's CPUs want to run.  A run times a
fixed kernel between its ops, on the same CPU, and reads the host's
``steal`` counter; ``workloads.Phase`` leaves the stolen time out and
scales the rest by the kernel's slowdown.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from perfbench.inputs import DIRTY


@dataclass(frozen=True)
class Reference:
    """A fixed kernel, independent of the system under test.

    Timed between a workload's ops, a kernel that does the same kind of
    work slows down with them; its time over ``nominal_s`` (its median
    on the machine the benchmark was built on) is its slowdown.
    """

    kernel: Callable[[], object]
    nominal_s: float

    def time(self) -> float:
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start


_STACK = np.random.default_rng(0).integers(-1, 2, size=(12, 1000, 300), dtype=np.int8)
_DIRTY = np.empty(_STACK.shape, dtype=bool)
_DOCUMENT = {f"key-{index}": [index, str(index), {"value": index / 7}] for index in range(100)}


def _count_dirty_votes() -> object:
    # Into a buffer of its own: a fresh 3.4 MiB result would time the
    # allocator's state as much as the CPU.
    return np.equal(_STACK, DIRTY, out=_DIRTY).sum(axis=2)


def _json_round_trips(count: int) -> None:
    for _ in range(count):
        json.loads(json.dumps(_DOCUMENT))


def _count_then_round_trips() -> None:
    _count_dirty_votes()
    _json_round_trips(7)


#: ``sweep``: count one label over a 3.4 MiB int8 stack, streamed from
#: memory as the count tables and the switch scan stream theirs, then
#: seven JSON round trips of a 100-key document for the interpreter work
#: of the estimators and the runner; each part takes 2.8 ms on a 2.1 GHz
#: Xeon vCPU, so both weigh the same.
SWEEP_REFERENCE = Reference(_count_then_round_trips, 5.6e-3)
#: serving workloads: five JSON round trips, interpreter work like a
#: request's (2.0 ms on the same vCPU).
SERVING_REFERENCE = Reference(lambda: _json_round_trips(5), 2.0e-3)


def stolen_seconds() -> float:
    """CPU time the hypervisor has given to other guests while this
    machine's CPUs wanted to run (``steal`` in ``/proc/stat``), so far."""
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
