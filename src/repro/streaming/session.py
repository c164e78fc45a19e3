"""The streaming estimation session (online DQM).

A :class:`StreamingSession` turns the batch pipeline inside out: instead
of collecting a full :class:`~repro.crowd.response_matrix.ResponseMatrix`
and estimating afterwards, the session ingests worker responses as they
arrive — single votes or whole task columns — and keeps every registered
estimator's inputs permanently up to date through the shared
:class:`~repro.core.state.StreamingState`.

Guarantees:

* **Cost** — ingesting a column that touches ``t`` items costs O(``t``),
  independent of the number of columns already consumed;
  ``session.estimate()`` reads the maintained statistics without touching
  the vote history.
* **Equivalence** — after ingesting the first ``j`` columns of a matrix,
  every estimate is bit-identical to ``estimator.estimate(matrix, j)``
  and to the sweep engine's checkpoint ``j`` (pinned by
  ``tests/test_streaming.py``).
"""

from __future__ import annotations

import json
import struct
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.exceptions import ConfigurationError, ValidationError
from repro.common.labels import UNSEEN
from repro.common.validation import check_int, check_vote
from repro.core.base import EstimateResult, EstimatorProtocol
from repro.core.registry import available_estimators, get_estimator
from repro.core.state import StreamingState
from repro.crowd.response_matrix import ResponseMatrix

#: On-disk snapshot format version; bump when the layout changes.
SNAPSHOT_FORMAT_VERSION = 1

#: File names inside a snapshot directory.
MANIFEST_FILENAME = "manifest.json"
ARRAYS_FILENAME = "arrays.npz"

#: What ``np.load`` raises on bytes that are not a readable npz archive;
#: ``RuntimeError`` covers the zip features the reader refuses
#: (``NotImplementedError``) and encrypted members.
_ARCHIVE_DECODE_ERRORS = (
    ValueError,
    KeyError,
    OSError,
    EOFError,
    RuntimeError,
    struct.error,
    zipfile.BadZipFile,
    zlib.error,
)


def _load_arrays(source, label: str) -> Dict[str, np.ndarray]:
    """Every array of the npz archive ``source`` (a path or binary file).

    Bytes that do not decode raise ``ConfigurationError("undecodable
    <label>: ...")``.  Errors that say nothing about the bytes —
    ``SystemError``, ``MemoryError``, ``RecursionError`` — surface as
    themselves, so a transient failure is never reported as corruption.
    """
    try:
        with np.load(source) as archive:
            return {key: archive[key] for key in archive.files}
    except RecursionError:
        raise
    except _ARCHIVE_DECODE_ERRORS as error:
        raise ConfigurationError(f"undecodable {label}: {error!r}") from error


class CheckedColumns(List[Tuple[List[int], List[int]]]):
    """A batch of task columns checked against one session's items.

    One ``(rows, votes)`` pair of Python int lists per column: the item
    rows and their votes, in the order the column listed them.  Built by
    :meth:`StreamingSession.check_columns`;
    :meth:`StreamingSession.add_columns` applies it without checking it
    again.
    """


def check_worker_ids(
    worker_ids: Optional[Sequence[object]], num_columns: int
) -> Optional[List[Optional[int]]]:
    """A batch's worker ids, one per column, each ``None`` or an integer.

    The wire's rule (:func:`~repro.common.validation.check_int`): ``2.0``
    and ``numpy.int64(2)`` are taken as ``2``; ``"2"``, ``1.5`` and
    ``True`` raise ``ValidationError``.  Returns the ids as Python ints.
    """
    if worker_ids is None:
        return None
    if len(worker_ids) != num_columns:
        raise ValidationError(
            f"worker_ids length {len(worker_ids)} does not match "
            f"{num_columns} column(s)"
        )
    return [
        None if worker is None else check_int(worker, "worker id") for worker in worker_ids
    ]


def _malformed_field(name: str, expected: str, value: object) -> ConfigurationError:
    return ConfigurationError(
        f"malformed snapshot {MANIFEST_FILENAME}: field {name!r} must be "
        f"{expected}, got {value!r}"
    )


@dataclass
class SessionSnapshot:
    """A self-contained, durable image of a :class:`StreamingSession`.

    ``manifest`` is JSON-safe (what ``manifest.json`` holds); ``arrays``
    maps names to numpy arrays (what ``arrays.npz`` holds).  A snapshot is
    a *value*: restoring it any number of times yields sessions whose
    estimates — now and after any further ingestion — are bit-identical
    to a session that never stopped.

    Snapshots are produced by :meth:`StreamingSession.snapshot` and
    consumed by :meth:`StreamingSession.from_snapshot`;
    :func:`write_snapshot` / :func:`read_snapshot` move them to and from
    disk.
    """

    manifest: Dict[str, object]
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def format_version(self) -> int:
        """The snapshot format version recorded in the manifest.

        Raises ``ConfigurationError`` naming the field when it is not an
        integer.
        """
        version = self.manifest.get("format_version", -1)
        if isinstance(version, bool) or not isinstance(version, int):
            raise _malformed_field("format_version", "an integer", version)
        return version

    @property
    def estimator_names(self) -> List[str]:
        """Names of the estimators the snapshotted session tracked.

        Raises ``ConfigurationError`` naming the field when it is not a
        list of strings.
        """
        names = self.manifest.get("estimators", [])
        if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
            raise _malformed_field("estimators", "a list of names", names)
        return list(names)

    def copy(self) -> "SessionSnapshot":
        """A deep-enough copy: fresh manifest tree and fresh arrays."""
        return SessionSnapshot(
            manifest=json.loads(json.dumps(self.manifest)),
            arrays={key: value.copy() for key, value in self.arrays.items()},
        )


def write_snapshot(snapshot: SessionSnapshot, directory: Union[str, Path]) -> Path:
    """Persist ``snapshot`` into ``directory`` (created if needed).

    Layout: ``manifest.json`` (sorted keys, so snapshots of identical
    sessions are byte-identical and diff-friendly) plus ``arrays.npz``.
    Returns the directory path.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    (path / MANIFEST_FILENAME).write_text(
        json.dumps(snapshot.manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    with open(path / ARRAYS_FILENAME, "wb") as handle:
        np.savez(handle, **snapshot.arrays)
    return path


def read_snapshot(directory: Union[str, Path]) -> SessionSnapshot:
    """Load a snapshot previously written by :func:`write_snapshot`.

    Raises ``ConfigurationError`` when the directory is not a snapshot,
    either file does not decode (naming it) or the snapshot carries an
    unsupported format version.
    """
    path = Path(directory)
    manifest_path = path / MANIFEST_FILENAME
    arrays_path = path / ARRAYS_FILENAME
    if not manifest_path.exists() or not arrays_path.exists():
        raise ConfigurationError(
            f"{path} is not a session snapshot (expected {MANIFEST_FILENAME} "
            f"and {ARRAYS_FILENAME})"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as error:  # undecodable bytes or malformed JSON
        raise ConfigurationError(f"undecodable {manifest_path}: {error}") from None
    if not isinstance(manifest, dict):
        raise ConfigurationError(
            f"undecodable {manifest_path}: expected a JSON object, "
            f"got {type(manifest).__name__}"
        )
    snapshot = SessionSnapshot(manifest, _load_arrays(arrays_path, str(arrays_path)))
    if snapshot.format_version != SNAPSHOT_FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported snapshot format version {snapshot.format_version!r} "
            f"in {path} (this build reads version {SNAPSHOT_FORMAT_VERSION})"
        )
    return snapshot


class StreamingSession:
    """Incremental estimation over a live stream of worker responses.

    Parameters
    ----------
    item_ids:
        The ids of the ``N`` candidate items, fixed for the session
        (votes are addressed by item id, as in
        :class:`~repro.crowd.response_matrix.ResponseMatrix`).
    estimators:
        Estimator instances or registry names to evaluate.  Defaults to
        every registered estimator.
    keep_votes:
        Retain the raw vote columns (sparsely, O(votes) memory) so
        :meth:`matrix` can materialise the equivalent
        :class:`ResponseMatrix` (needed for estimate-only third-party
        estimators, and handy for auditing).  Disable to run in O(state)
        memory; fallback estimators then raise ``ConfigurationError``.

    Examples
    --------
    >>> session = StreamingSession([0, 1, 2], estimators=["voting", "chao92"])
    >>> session.add_column({0: 1, 1: 0}, worker_id=7)
    0
    >>> sorted(session.estimate())
    ['chao92', 'voting']
    """

    def __init__(
        self,
        item_ids: Sequence[int],
        estimators: Optional[Sequence[Union[str, EstimatorProtocol]]] = None,
        *,
        keep_votes: bool = True,
    ) -> None:
        self._state = StreamingState(item_ids)
        instances = [
            get_estimator(e) if isinstance(e, str) else e
            for e in (available_estimators() if estimators is None else estimators)
        ]
        for instance in instances:
            if not isinstance(getattr(instance, "name", None), str):
                raise ValidationError(
                    "estimators must be registry names or estimator objects "
                    f"with a string 'name', got {instance!r}"
                )
        if estimators is None:
            # Several registry keys may alias one estimator name (tests and
            # user code register variants); the implicit "track everything"
            # default keeps the first instance per name.
            unique: Dict[str, EstimatorProtocol] = {}
            for instance in instances:
                unique.setdefault(instance.name, instance)
            instances = list(unique.values())
        self.estimators: List[EstimatorProtocol] = instances
        if not self.estimators:
            raise ConfigurationError("at least one estimator is required")
        seen = [est.name for est in self.estimators]
        if len(set(seen)) != len(seen):
            raise ConfigurationError(f"estimator names must be unique, got {seen}")
        self._keep_votes = bool(keep_votes)
        self._columns: List[Tuple[np.ndarray, np.ndarray]] = []
        self._column_workers: List[int] = []
        self._matrix_cache: Optional[ResponseMatrix] = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def replay(
        cls,
        matrix: ResponseMatrix,
        estimators: Optional[Sequence[Union[str, EstimatorProtocol]]] = None,
        **kwargs,
    ) -> "StreamingSession":
        """Build a session and feed it every column of a collected matrix.

        The streaming analogue of batch estimation over ``matrix`` —
        useful for tests, demos and for resuming a session from an
        archived matrix.
        """
        session = cls(matrix.item_ids, estimators, **kwargs)
        session.extend_from(matrix)
        return session

    # ------------------------------------------------------------------ #
    # snapshot / restore
    # ------------------------------------------------------------------ #
    def snapshot(self) -> SessionSnapshot:
        """Capture the whole session as a durable :class:`SessionSnapshot`.

        Everything needed to continue exactly where the session stopped is
        included: the live :class:`~repro.core.state.StreamingState` with
        its incremental trackers, the estimator names, and — when
        ``keep_votes=True`` — the retained vote columns, so the restored
        session can still materialise :meth:`matrix` and serve batch
        fallbacks.  Estimators are recorded *by name* and re-resolved from
        the registry at restore time; pass instances to
        :meth:`from_snapshot` for estimators that are not registered.
        """
        arrays, state_meta = self._state.to_arrays()
        manifest: Dict[str, object] = {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "kind": "repro.streaming.StreamingSession",
            "num_items": int(self.num_items),
            "num_columns": int(self.num_columns),
            "total_votes": int(self.total_votes),
            "keep_votes": bool(self._keep_votes),
            "estimators": [est.name for est in self.estimators],
            "state": state_meta,
        }
        if self._keep_votes:
            offsets = np.zeros(len(self._columns) + 1, dtype=np.int64)
            for index, (rows, _) in enumerate(self._columns):
                offsets[index + 1] = offsets[index] + rows.size
            arrays["column_offsets"] = offsets
            arrays["column_rows"] = (
                np.concatenate([rows for rows, _ in self._columns])
                if self._columns
                else np.zeros(0, dtype=np.intp)
            ).astype(np.int64)
            arrays["column_values"] = (
                np.concatenate([values for _, values in self._columns])
                if self._columns
                else np.zeros(0, dtype=np.int8)
            )
            arrays["column_workers"] = np.asarray(self._column_workers, dtype=np.int64)
        return SessionSnapshot(manifest=manifest, arrays=arrays)

    @classmethod
    def from_snapshot(
        cls,
        snapshot: SessionSnapshot,
        estimators: Optional[Sequence[Union[str, EstimatorProtocol]]] = None,
    ) -> "StreamingSession":
        """Rebuild a session from a :class:`SessionSnapshot`.

        Parameters
        ----------
        snapshot:
            A snapshot from :meth:`snapshot` (or :func:`read_snapshot`).
        estimators:
            Override the snapshotted estimator set.  By default the
            recorded names are resolved through the registry; an
            unresolvable name raises ``ConfigurationError`` telling you to
            pass instances explicitly.
        """
        if snapshot.format_version != SNAPSHOT_FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported snapshot format version {snapshot.format_version!r} "
                f"(this build reads version {SNAPSHOT_FORMAT_VERSION})"
            )
        if estimators is None:
            names = snapshot.estimator_names
            try:
                estimators = [get_estimator(name) for name in names]
            except ConfigurationError as error:
                raise ConfigurationError(
                    f"cannot restore session estimators {names!r} from the "
                    f"registry ({error}); pass estimator instances via "
                    "from_snapshot(..., estimators=...)"
                ) from None
        state_meta = snapshot.manifest.get("state")
        if not isinstance(state_meta, dict):
            raise _malformed_field("state", "an object", state_meta)
        keep_votes = snapshot.manifest.get("keep_votes", True)
        if not isinstance(keep_votes, bool):
            raise _malformed_field("keep_votes", "true or false", keep_votes)
        state = StreamingState.from_arrays(snapshot.arrays, state_meta)
        session = cls(state.item_ids, estimators, keep_votes=keep_votes)
        session._state = state
        if keep_votes:
            arrays = snapshot.arrays
            offsets = np.asarray(arrays["column_offsets"], dtype=np.int64)
            rows = np.asarray(arrays["column_rows"], dtype=np.intp)
            values = np.asarray(arrays["column_values"], dtype=np.int8)
            if offsets.size != state.num_columns + 1:
                raise ValidationError(
                    "snapshot column offsets do not match the state's column count"
                )
            session._columns = [
                (rows[offsets[i] : offsets[i + 1]].copy(), values[offsets[i] : offsets[i + 1]].copy())
                for i in range(offsets.size - 1)
            ]
            session._column_workers = [
                int(worker) for worker in np.asarray(arrays["column_workers"])
            ]
            if len(session._column_workers) != state.num_columns:
                raise ValidationError(
                    "snapshot column workers do not match the state's column count"
                )
        return session

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    @property
    def num_items(self) -> int:
        """``N`` — the number of candidate items."""
        return self._state.num_items

    @property
    def num_columns(self) -> int:
        """Number of worker-task columns ingested so far."""
        return self._state.num_columns

    @property
    def total_votes(self) -> int:
        """Total number of votes ingested so far."""
        return self._state.total_votes

    @property
    def state(self) -> StreamingState:
        """The live estimation state (read it, don't mutate it)."""
        return self._state

    def check_columns(self, columns: Sequence[Mapping[int, int]]) -> CheckedColumns:
        """Check a batch of task columns against the session's items.

        Every vote is checked once, in column order and, within a column,
        in mapping order: an unknown item id raises before its vote value
        is looked at.  Nothing is applied; :meth:`add_columns` applies the
        returned batch without checking it again.
        """
        row_index = self._state.row_index
        checked = CheckedColumns()
        for votes in columns:
            rows: List[int] = []
            values: List[int] = []
            for item_id, vote in votes.items():
                rows.append(row_index(item_id))
                check_vote(vote, item_id)
                values.append(int(vote))
            checked.append((rows, values))
        return checked

    def add_column(self, votes: Mapping[int, int], worker_id: Optional[int] = None) -> int:
        """Ingest one worker-task column.

        Parameters
        ----------
        votes:
            Mapping from item id to vote (``DIRTY`` or ``CLEAN``).  Items
            not present are UNSEEN for this column.
        worker_id:
            Identifier of the worker; defaults to the column index.

        Returns
        -------
        int
            The index of the ingested column.
        """
        index = self._state.num_columns
        self.add_columns([votes], [worker_id])
        return index

    def add_columns(
        self,
        columns: Union[Sequence[Mapping[int, int]], CheckedColumns],
        worker_ids: Optional[Sequence[Optional[int]]] = None,
    ) -> int:
        """Ingest a batch of task columns in order; returns the count.

        The batch is atomic: every worker id (:func:`check_worker_ids`)
        and every vote is checked (:meth:`check_columns`; a
        :class:`CheckedColumns` it returned is applied as is) before any
        column is applied, so a rejected batch leaves the session as it
        was.  This is the single apply path shared by every ingest —
        single columns, live serving and write-ahead-log replay
        (:mod:`repro.streaming.wal`) — which is what makes a replayed
        session bit-identical to the live one.
        """
        worker_ids = check_worker_ids(worker_ids, len(columns))
        if not isinstance(columns, CheckedColumns):
            columns = self.check_columns(columns)
        state = self._state
        if self._keep_votes:
            if worker_ids is None:
                worker_ids = [None] * len(columns)
            first = state.num_columns
            workers = [
                first + offset if worker is None else worker
                for offset, worker in enumerate(worker_ids)
            ]
            self._column_workers.extend(workers)
            self._columns.extend(
                (np.asarray(rows, dtype=np.intp), np.asarray(values, dtype=np.int8))
                for rows, values in columns
            )
            self._matrix_cache = None
        for rows, values in columns:
            state.apply_column(rows, values)
        return len(columns)

    def add_vote(self, item_id: int, vote: int, worker_id: Optional[int] = None) -> int:
        """Ingest a single vote as its own one-item task column.

        Returns the index of the column it created.
        """
        return self.add_column({item_id: vote}, worker_id)

    def extend_from(self, matrix: ResponseMatrix, start: int = 0) -> int:
        """Ingest every column of ``matrix`` from ``start`` onwards.

        The matrix must be over the same item ids in the same order.
        Returns the number of columns ingested.
        """
        if matrix.item_ids != self._state.item_ids:
            raise ValidationError("matrix item ids do not match the session's items")
        workers = matrix.column_workers
        for column in range(start, matrix.num_columns):
            self.add_column(matrix.column_votes(column), workers[column])
        return matrix.num_columns - start

    # ------------------------------------------------------------------ #
    # estimation
    # ------------------------------------------------------------------ #
    def estimate(
        self, name: Optional[str] = None
    ) -> Union[EstimateResult, Dict[str, EstimateResult]]:
        """Current estimates from everything ingested so far.

        Parameters
        ----------
        name:
            Return only the named estimator's result; ``None`` returns a
            ``{name: EstimateResult}`` dict over every session estimator.

        Estimators implementing ``estimate_state`` read the live state in
        O(statistics); estimate-only third-party estimators fall back to
        a batch evaluation of the materialised matrix (requires
        ``keep_votes=True``).
        """
        if name is not None:
            for estimator in self.estimators:
                if estimator.name == name:
                    return self._evaluate(estimator)
            raise ConfigurationError(
                f"unknown session estimator {name!r}; "
                f"available: {sorted(est.name for est in self.estimators)}"
            )
        return {est.name: self._evaluate(est) for est in self.estimators}

    def _evaluate(self, estimator: EstimatorProtocol) -> EstimateResult:
        estimate_state = getattr(estimator, "estimate_state", None)
        if estimate_state is not None:
            return estimate_state(self._state)
        if not self._keep_votes:
            raise ConfigurationError(
                f"estimator {estimator.name!r} has no estimate_state method and "
                "the session was created with keep_votes=False, so the batch "
                "fallback has no matrix to evaluate"
            )
        return estimator.estimate(self.matrix())

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def matrix(self) -> ResponseMatrix:
        """Materialise the ingested stream as a :class:`ResponseMatrix`.

        Requires ``keep_votes=True``.  The result is cached until the next
        ingested column; mutating it does not affect the session.
        """
        if not self._keep_votes:
            raise ConfigurationError("the session was created with keep_votes=False")
        if self._matrix_cache is None:
            votes = np.full((self.num_items, len(self._columns)), UNSEEN, dtype=np.int8)
            for index, (rows, values) in enumerate(self._columns):
                votes[rows, index] = values
            self._matrix_cache = ResponseMatrix.from_array(
                votes,
                item_ids=self._state.item_ids,
                worker_ids=self._column_workers,
            )
        return self._matrix_cache

    def progress(self) -> Dict[str, float]:
        """One-line summary of the stream consumed so far."""
        state = self._state
        return {
            "num_columns": float(state.num_columns),
            "total_votes": float(state.total_votes),
            "nominal_count": float(state.nominal_count()),
            "majority_count": float(state.majority_count()),
            "observed_switches": float(state.switch_stats().num_switches),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"StreamingSession(num_items={self.num_items}, "
            f"num_columns={self.num_columns}, "
            f"estimators={[est.name for est in self.estimators]})"
        )
