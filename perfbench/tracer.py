"""In-memory spans around calls into the system's public functions.

A :class:`Tracer` records one :class:`Span` per traced call: its name,
start, end and the span that was open on the same thread when it began
(its parent).  A span's *self time* is its duration minus the time its
child spans cover.  Counters are recorded at the same boundaries.

:func:`install` wraps the named public functions and methods so that
every call records a span, and returns a function that puts the
originals back, so that untraced code measured afterwards in the same
process runs unwrapped.
"""

from __future__ import annotations

import functools
import http.client
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


class Span:
    """One traced call; ``child_time`` sums the durations of its children."""

    __slots__ = ("name", "start", "end", "parent", "child_time")

    def __init__(self, name: str, start: float, parent: Optional["Span"]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class LayerTotals:
    """Aggregated spans of one name."""

    calls: int = 0
    duration: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Span recorder; one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, self.clock(), stack[-1] if stack else None)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration
        self.spans.append(span)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def totals(self) -> Dict[str, LayerTotals]:
        """Calls, total duration and total self time per span name."""
        totals: Dict[str, LayerTotals] = defaultdict(LayerTotals)
        for span in self.spans:
            entry = totals[span.name]
            entry.calls += 1
            entry.duration += span.duration
            entry.self_time += span.self_time
        return totals

    def wrap(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(span)

        return traced


class _CountingStream:
    """Forwards ``write``/``flush`` and counts the bytes written."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.written = 0

    def write(self, data: bytes) -> int:
        self.written += len(data)
        return self.stream.write(data)

    def flush(self) -> None:
        self.stream.flush()


#: (dotted owner, attribute, span name) of every traced call site.  An
#: owner is a class or a module; a ``cached_property`` is traced on its
#: first (computing) access only, which is the only one that does work.
SPAN_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.runner:EstimationRunner", "run", "runner.run"),
    ("repro.experiments.runner", "batch_estimates", "core.estimators"),
    ("repro.core.state:PermutationBatch", "positive_table", "core.count_tables"),
    ("repro.core.state:PermutationBatch", "negative_table", "core.count_tables"),
    ("repro.core.state:PermutationBatch", "majority_history", "core.switch"),
    ("repro.core.state:PermutationBatch", "switch_sweep_cells", "core.switch"),
    ("repro.streaming.session:StreamingSession", "add_columns", "session.add_columns"),
    ("repro.streaming.session:StreamingSession", "estimate", "session.estimate"),
    ("repro.streaming.serving:EstimationService", "ingest", "service.ingest"),
    ("repro.streaming.serving:EstimationService", "estimate_report", "service.read"),
    ("repro.streaming.store:DirectorySessionStore", "append", "store.append"),
    ("repro.streaming.store:DirectorySessionStore", "log_size", "store.log_size"),
    ("repro.streaming.store:DirectorySessionStore", "save", "store.compact"),
    ("repro.serving.http:SessionClient", "ingest", "http.client"),
    ("repro.serving.http:SessionClient", "estimate_report", "http.client"),
    ("repro.serving.http:ServingApi", "handle", "http.api"),
    ("repro.serving.workers:ProcessShardedService", "ingest", "workers.call"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced call site; returns the function that unwraps them."""
    workers_module = _resolve("repro.serving.workers")
    saved: List[Tuple[object, str, object]] = []

    def patch(owner, attribute: str, replacement) -> None:
        saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    for dotted, attribute, name in SPAN_SITES:
        owner = _resolve(dotted)
        original = owner.__dict__[attribute]
        if isinstance(original, functools.cached_property):
            traced = functools.cached_property(tracer.wrap(name, original.func))
            traced.__set_name__(owner, attribute)
            patch(owner, attribute, traced)
        else:
            patch(owner, attribute, tracer.wrap(name, original))

    connect = http.client.HTTPConnection.connect

    def counted_connect(self):
        tracer.count("http.connect")
        return connect(self)

    patch(http.client.HTTPConnection, "connect", counted_connect)

    write_frame = workers_module.write_frame

    def traced_write_frame(stream, payload):
        counting = _CountingStream(stream)
        span = tracer.begin("workers.send")
        try:
            write_frame(counting, payload)
        finally:
            tracer.end(span)
            tracer.count("workers.frame_bytes", counting.written)

    patch(workers_module, "write_frame", traced_write_frame)

    def uninstall() -> None:
        while saved:
            owner, attribute, original = saved.pop()
            setattr(owner, attribute, original)

    return uninstall


#: Every per-layer metric, in print order, with its unit.  Times are
#: self time per primary op unless the name says otherwise; layers a
#: workload never calls read 0 with 0 calls.
LAYER_UNITS: Tuple[Tuple[str, str], ...] = (
    ("core.count_tables_ms", "ms"),
    ("core.count_tables_calls", "count"),
    ("core.switch_ms", "ms"),
    ("core.switch_calls", "count"),
    ("core.estimators_ms", "ms"),
    ("core.estimators_calls", "count"),
    ("runner.self_ms", "ms"),
    ("runner.calls", "count"),
    ("core.stack_mib", "MiB"),
    ("core.votes_per_sweep", "count"),
    ("session.add_columns_ms", "ms"),
    ("session.add_columns_calls", "count"),
    ("session.estimate_ms", "ms"),
    ("session.estimate_calls", "count"),
    ("service.ingest_self_ms", "ms"),
    ("service.ingest_calls", "count"),
    ("service.read_self_ms", "ms"),
    ("service.read_calls", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.estimates_served", "count"),
    ("service.duplicate_ratio", "ratio"),
    ("service.deliveries", "count"),
    ("store.append_ms", "ms"),
    ("store.append_calls", "count"),
    ("store.log_size_ms", "ms"),
    ("store.log_size_calls", "count"),
    ("store.compact_ms", "ms"),
    ("store.compactions", "count"),
    ("store.bytes_per_vote", "B/vote"),
    ("http.transport_ms", "ms"),
    ("http.requests", "count"),
    ("http.api_self_ms", "ms"),
    ("http.api_calls", "count"),
    ("http.connections_per_request", "ratio"),
    ("workers.call_ms", "ms"),
    ("workers.calls", "count"),
    ("workers.send_ms", "ms"),
    ("workers.sends", "count"),
    ("workers.frame_bytes", "B"),
    ("workers.boundary_ms", "ms"),
    ("workers.spawn_s", "s"),
    ("workers.restarts", "count"),
    ("trace.residual_ms", "ms"),
    ("trace.primary_ops", "count"),
    ("trace.overhead_pct", "%"),
)

#: (metric, span name) of the self-time metrics and their call counts.
_SELF_TIMES = (
    ("core.count_tables_ms", "core.count_tables_calls", "core.count_tables"),
    ("core.switch_ms", "core.switch_calls", "core.switch"),
    ("core.estimators_ms", "core.estimators_calls", "core.estimators"),
    ("runner.self_ms", "runner.calls", "runner.run"),
    ("session.add_columns_ms", "session.add_columns_calls", "session.add_columns"),
    ("session.estimate_ms", "session.estimate_calls", "session.estimate"),
    ("service.ingest_self_ms", "service.ingest_calls", "service.ingest"),
    ("service.read_self_ms", "service.read_calls", "service.read"),
    ("store.append_ms", "store.append_calls", "store.append"),
    ("store.log_size_ms", "store.log_size_calls", "store.log_size"),
    ("http.api_self_ms", "http.api_calls", "http.api"),
    ("workers.call_ms", "workers.calls", "workers.call"),
    ("workers.send_ms", "workers.sends", "workers.send"),
)


def layer_metrics(
    tracer: Tracer,
    primary_ops: int,
    busy_seconds: float,
    extras: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of one traced phase.

    ``busy_seconds`` is the client's closed-loop time; the residual is
    the part of it no named layer covers.  An HTTP call
    runs ``ServingApi.handle`` on a server thread, so its transport time
    is the client span minus the handle span, summed over all requests.
    """
    totals = tracer.totals()
    per_op = 1e3 / max(primary_ops, 1)
    values: Dict[str, float] = {}
    for metric, calls, span in _SELF_TIMES:
        values[metric] = totals[span].self_time * per_op
        values[calls] = totals[span].calls
    client, api, save = totals["http.client"], totals["http.api"], totals["store.compact"]
    values["http.transport_ms"] = (client.self_time - api.duration) * per_op
    values["http.requests"] = client.calls
    values["http.connections_per_request"] = (
        tracer.counters["http.connect"] / client.calls if client.calls else 0.0
    )
    values["store.compact_ms"] = 1e3 * save.duration / save.calls if save.calls else 0.0
    values["store.compactions"] = save.calls
    sends = totals["workers.send"].calls
    values["workers.frame_bytes"] = (
        tracer.counters["workers.frame_bytes"] / sends if sends else 0.0
    )
    named = sum(entry.self_time for entry in totals.values()) - api.duration
    values["trace.residual_ms"] = (busy_seconds - named) * per_op
    values["trace.primary_ops"] = primary_ops
    values.update(extras)
    return {name: values.get(name, 0.0) for name, _ in LAYER_UNITS}
