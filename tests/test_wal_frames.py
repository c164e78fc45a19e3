"""The batch frame: written once per applied batch, byte for byte as recorded.

``EstimationService.ingest`` encodes each applied batch once, from the
checked columns, with :func:`~repro.streaming.wal.encode_batch`.  Its
payload must stay the canonical JSON of WAL format 1 — the dict below,
``json.dumps(sort_keys=True, separators=(",", ":"))`` — so the logs
written before and after that encoder read the same.  Two checks: a
property against the reference dict, on the encoder alone and through
the service (numpy item ids and keys included), and a history written
through the service whose logs hash to a constant recorded with the
dict-based encoder.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.labels import CLEAN, DIRTY
from repro.streaming import DirectorySessionStore, EstimationService, MemorySessionStore
from repro.streaming.wal import BatchRecord, encode_batch, encode_record

#: sha256 of the logs of :func:`_write_history`, in name order, as the
#: dict-based encoder wrote them.
HISTORY_SHA256 = "dbbffbb6dc5cd294040820f38d66821d2ec4a818291813f4a4a274d126180bde"
#: Their total size in bytes.
HISTORY_BYTES = 85_347


def _reference_frame(columns, worker_ids, source, sequence) -> bytes:
    """A batch record's frame as the dict-based encoder wrote it."""
    payload = json.dumps(
        {
            "kind": "batch",
            "format": 1,
            "columns": [[[int(item), int(vote)] for item, vote in pairs] for pairs in columns],
            "worker_ids": (
                None
                if worker_ids is None
                else [None if worker is None else int(worker) for worker in worker_ids]
            ),
            "source": source,
            "sequence": sequence,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return struct.pack("<4sII", b"RWAL", len(payload), zlib.crc32(payload)) + payload


def _numpy_or_not(value: int, use_numpy: bool):
    return np.int64(value) if use_numpy else value


sources = st.one_of(
    st.none(),
    st.sampled_from(["loader", 'say "hi"', "back\\slash", "wörker-ü", "☃\n\t"]),
    st.text(max_size=12),
)
sequences = st.one_of(st.none(), st.just(0), st.integers(0, 2**62))
votes = st.sampled_from([DIRTY, CLEAN])


class TestEncodeBatch:
    @settings(max_examples=200, deadline=None)
    @given(
        columns=st.lists(
            st.lists(st.tuples(st.integers(-(2**40), 2**40), votes), max_size=6),
            max_size=4,
        ),
        data=st.data(),
        source=sources,
        sequence=sequences,
    )
    def test_the_frame_is_the_reference_json(self, columns, data, source, sequence):
        worker_ids = data.draw(
            st.one_of(
                st.none(),
                st.lists(
                    st.one_of(st.none(), st.integers(-(2**40), 2**40)),
                    min_size=len(columns),
                    max_size=len(columns),
                ),
            )
        )
        frame = encode_batch(columns, worker_ids, source, sequence)
        assert frame == _reference_frame(columns, worker_ids, source, sequence)
        record = BatchRecord(
            tuple(tuple(pairs) for pairs in columns),
            None if worker_ids is None else tuple(worker_ids),
            source,
            sequence,
        )
        assert encode_record(record) == frame

    @settings(max_examples=100, deadline=None)
    @given(
        item_ids=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=8, unique=True),
        numpy_ids=st.booleans(),
        data=st.data(),
    )
    def test_the_service_logs_the_reference_frame(self, item_ids, numpy_ids, data):
        """Through ``ingest``: numpy ids and keys are logged as the ints they equal."""
        columns = data.draw(
            st.lists(
                st.dictionaries(
                    st.sampled_from(item_ids), votes, max_size=len(item_ids)
                ),
                max_size=4,
            )
        )
        numpy_keys = data.draw(st.booleans())
        delivered = [
            {_numpy_or_not(item, numpy_keys): vote for item, vote in column.items()}
            for column in columns
        ]
        worker_ids = data.draw(
            st.one_of(
                st.none(),
                st.lists(
                    st.one_of(
                        st.none(),
                        st.integers(0, 2**40),
                        st.integers(0, 2**40).map(np.int64),
                        st.integers(0, 2**20).map(float),
                    ),
                    min_size=len(columns),
                    max_size=len(columns),
                ),
            )
        )
        source, sequence = data.draw(
            st.one_of(
                st.just((None, None)),
                st.tuples(st.text(max_size=12), st.integers(0, 2**62)),
                st.tuples(sources.filter(bool), st.just(0)),
            )
        )
        frames = []

        class Recording(MemorySessionStore):
            def append(self, name, frame):
                frames.append(frame)
                return super().append(name, frame)

        service = EstimationService(Recording(), compact_after_bytes=None)
        ids = np.asarray(item_ids, dtype=np.int64) if numpy_ids else item_ids
        service.create_session("s", ids, ["voting"])
        service.ingest(
            "s", delivered, worker_ids=worker_ids, source=source, sequence=sequence
        )
        expected = _reference_frame(
            [column.items() for column in columns], worker_ids, source, sequence
        )
        assert frames[1:] == [expected]


def _write_history(root) -> None:
    """An uncompacted history through the service, over every id and field shape."""
    rng = np.random.default_rng(27)
    service = EstimationService(DirectorySessionStore(root), compact_after_bytes=None)
    shapes = {
        "plain": list(range(40)),
        "numpy": np.arange(100, 160, dtype=np.int64),
        "wide": [10**12 + 7 * item for item in range(30)],
        "negative": [-item for item in range(25)],
    }
    sources = [None, "loader", 'say "hi"', "back\\slash", "wörker-ü"]
    for name, item_ids in shapes.items():
        service.create_session(name, item_ids, ["voting", "chao92"])
        ids = [int(item) for item in item_ids]
        sequences = dict.fromkeys(sources[1:], 0)
        for batch in range(120):
            columns = []
            for _ in range(int(rng.integers(0, 4))):
                size = int(rng.integers(0, 8))
                picked = rng.choice(len(ids), size=size, replace=False)
                column = {}
                for row in picked:
                    key = ids[row] if batch % 2 else np.int64(ids[row])
                    column[key] = DIRTY if rng.random() < 0.4 else CLEAN
                columns.append(column)
            shape = batch % 4
            worker_ids = (
                None
                if shape == 0
                else [
                    (None, int(rng.integers(0, 50)), np.int64(batch), 2.0)[shape - 1 + index % 2]
                    for index in range(len(columns))
                ]
            )
            source = sources[batch % len(sources)]
            sequence = None
            if source is not None:
                sequences[source] += 10**15 if batch % 3 == 0 else 1
                sequence = sequences[source]
            service.ingest(
                name, columns, worker_ids=worker_ids, source=source, sequence=sequence
            )
            if source is not None and batch % 7 == 0:
                # A redelivery is a duplicate and logs nothing.
                service.ingest(
                    name, columns, worker_ids=worker_ids, source=source, sequence=sequence
                )


def test_a_history_through_the_service_logs_the_recorded_bytes(tmp_path):
    _write_history(tmp_path)
    digest = hashlib.sha256()
    total = 0
    for log in sorted(tmp_path.glob("*.log")):
        data = log.read_bytes()
        digest.update(log.name.encode() + b"\0" + data)
        total += len(data)
    assert (digest.hexdigest(), total) == (HISTORY_SHA256, HISTORY_BYTES)
