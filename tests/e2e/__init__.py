"""End-to-end tests for the HTTP serving stack.

Everything in this package exercises real sockets: an in-process
:class:`repro.serving.http.HttpServingServer` (or a ``repro serve``
subprocess) is booted per test and driven through the ``http.client``
:class:`repro.serving.http.SessionClient` and the synthetic worker
fleet in :mod:`repro.serving.loadgen`.  The load tests end in the same
assertion everywhere: estimates served over the wire must be
**bit-identical** to the acknowledged batches replayed through a plain
:class:`repro.streaming.StreamingSession`.
"""
