"""The worker-response matrix ``I`` (Problem 1 of the paper).

:class:`ResponseMatrix` stores the ``N x K`` matrix of votes with entries
``{DIRTY, CLEAN, UNSEEN}``.  It grows one *worker column* (equivalently,
one task) at a time, which is how the experiments consume it: the paper's
x-axis is always "# tasks", and every estimator is re-evaluated on each
prefix of the task stream.

Besides storage, the class provides the vectorised per-item counts the
estimators need:

* ``n_i`` — total votes on item ``i``,
* ``n_i^+`` — positive (dirty) votes on item ``i``,
* ``n_i^-`` — negative (clean) votes on item ``i``,

prefix variants (``n_{i,1:j}^+``) needed by the switch-counting
definition (Equation 7), and incremental *checkpoint tables*
(:meth:`ResponseMatrix.positive_counts_at`) that give the counts at many
prefixes in one pass — the backing store of the batch estimation states
in :mod:`repro.core.state`.

Every ``upto`` argument follows one contract, enforced in
:meth:`ResponseMatrix.resolve_upto`: ``None`` means all columns, negative
values raise ``ValidationError``, and oversized values clamp to the
columns received so far.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.exceptions import ValidationError
from repro.common.labels import CLEAN, DIRTY, UNSEEN, validate_labels
from repro.common.validation import check_int, check_order


class ResponseMatrix:
    """Dense ``N x K`` matrix of worker votes.

    Parameters
    ----------
    item_ids:
        The ids of the ``N`` items (records or pairs), in a fixed order.
        Votes are addressed by item *id*; the matrix maintains the id-to-row
        mapping internally.

    Notes
    -----
    Columns are appended with :meth:`add_column`; each column corresponds to
    one worker-task (one worker reviewing one task's items).  A worker who
    completes several tasks contributes several columns, matching the
    paper's protocol where "a worker may take on more than a single task"
    and the unit of the x-axis is the task.  The votes live in a buffer
    that grows geometrically, so appending ``K`` columns costs
    O(``N x K``) in total; everything else sees only the filled columns.
    """

    def __init__(self, item_ids: Sequence[int]):
        item_ids = list(item_ids)
        if len(set(item_ids)) != len(item_ids):
            raise ValidationError("item_ids must be unique")
        if not item_ids:
            raise ValidationError("a response matrix needs at least one item")
        self._item_ids: List[int] = item_ids
        self._row_of: Dict[int, int] = {item: row for row, item in enumerate(item_ids)}
        #: Columns ``[0, _filled)`` of ``_buffer`` hold the votes.
        self._buffer = np.full((len(item_ids), 0), UNSEEN, dtype=np.int8)
        self._filled = 0
        self._column_workers: List[int] = []

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_array(
        cls,
        votes: np.ndarray,
        item_ids: Optional[Sequence[int]] = None,
        worker_ids: Optional[Sequence[int]] = None,
    ) -> "ResponseMatrix":
        """Build a matrix directly from an ``N x K`` label array.

        Parameters
        ----------
        votes:
            Array with entries in ``{DIRTY, CLEAN, UNSEEN}``.
        item_ids:
            Item ids for the rows; defaults to ``0..N-1``.
        worker_ids:
            Worker ids for the columns; defaults to ``0..K-1``.
        """
        votes = validate_labels(np.asarray(votes))
        if votes.ndim != 2:
            raise ValidationError(f"votes must be 2-D (N x K), got shape {votes.shape}")
        n_items, n_cols = votes.shape
        if item_ids is None:
            item_ids = list(range(n_items))
        matrix = cls(item_ids)
        if len(item_ids) != n_items:
            raise ValidationError("item_ids length must match the number of rows")
        if worker_ids is None:
            worker_ids = list(range(n_cols))
        if len(worker_ids) != n_cols:
            raise ValidationError("worker_ids length must match the number of columns")
        matrix._buffer = votes.astype(np.int8, copy=True)
        matrix._filled = n_cols
        matrix._column_workers = [int(w) for w in worker_ids]
        return matrix

    def add_column(self, votes: Dict[int, int], worker_id: int) -> int:
        """Append one worker-task column.

        Parameters
        ----------
        votes:
            Mapping from item id to vote (``DIRTY`` or ``CLEAN``).  Items not
            present are recorded as ``UNSEEN``.
        worker_id:
            Identifier of the worker who produced the column.

        Returns
        -------
        int
            The index of the new column.
        """
        column = np.full(len(self._item_ids), UNSEEN, dtype=np.int8)
        for item_id, vote in votes.items():
            if vote not in (DIRTY, CLEAN):
                raise ValidationError(
                    f"votes must be DIRTY ({DIRTY}) or CLEAN ({CLEAN}); got {vote!r} for item {item_id}"
                )
            try:
                column[self._row_of[item_id]] = vote
            except KeyError:
                raise ValidationError(f"unknown item id {item_id}") from None
        if self._filled == self._buffer.shape[1]:
            grown = np.full(
                (len(self._item_ids), max(8, 2 * self._filled)), UNSEEN, dtype=np.int8
            )
            grown[:, : self._filled] = self._votes
            self._buffer = grown
        self._buffer[:, self._filled] = column
        self._filled += 1
        self._column_workers.append(int(worker_id))
        return self._filled - 1

    def prefix(self, num_columns: int) -> "ResponseMatrix":
        """Return a new matrix containing only the first ``num_columns`` columns."""
        if num_columns < 0 or num_columns > self.num_columns:
            raise ValidationError(
                f"num_columns must be in [0, {self.num_columns}], got {num_columns}"
            )
        return ResponseMatrix.from_array(
            self._votes[:, :num_columns],
            item_ids=self._item_ids,
            worker_ids=self._column_workers[:num_columns],
        )

    def permute_columns(self, order: Sequence[int]) -> "ResponseMatrix":
        """Return a new matrix with columns reordered by ``order``.

        The paper averages results over random permutations of the workers;
        permuting columns of a fixed matrix is how the harness implements
        that without re-running the crowd.
        """
        order = check_order(order, self.num_columns)
        return ResponseMatrix.from_array(
            self._votes[:, order],
            item_ids=self._item_ids,
            worker_ids=[self._column_workers[i] for i in order.tolist()],
        )

    # ------------------------------------------------------------------ #
    # shape and access
    # ------------------------------------------------------------------ #
    @property
    def _votes(self) -> np.ndarray:
        """The filled ``N x K`` part of the vote buffer (a view)."""
        return self._buffer[:, : self._filled]

    @property
    def item_ids(self) -> List[int]:
        """Item ids in row order."""
        return list(self._item_ids)

    @property
    def num_items(self) -> int:
        """``N`` — the number of items."""
        return len(self._item_ids)

    @property
    def num_columns(self) -> int:
        """``K`` — the number of worker-task columns received so far."""
        return self._filled

    @property
    def column_workers(self) -> List[int]:
        """Worker id of each column."""
        return list(self._column_workers)

    @property
    def values(self) -> np.ndarray:
        """A read-only view of the underlying ``N x K`` label array."""
        view = self._votes.view()
        view.flags.writeable = False
        return view

    def row_index(self, item_id: int) -> int:
        """Return the row index of ``item_id``."""
        try:
            return self._row_of[item_id]
        except KeyError:
            raise ValidationError(f"unknown item id {item_id}") from None

    def votes_for(self, item_id: int) -> np.ndarray:
        """Return the vote sequence (length ``K``) for one item."""
        return self._votes[self.row_index(item_id), :].copy()

    def column_votes(self, column: int) -> Dict[int, int]:
        """Return column ``column`` as an ``{item_id: vote}`` mapping.

        Only items the worker actually labelled appear (UNSEEN entries are
        omitted), which makes the result directly consumable by
        :meth:`add_column` or a streaming session — replaying a collected
        matrix column by column is how the streaming/batch equivalence is
        exercised.
        """
        column = check_int(column, "column", minimum=0)
        if column >= self.num_columns:
            raise ValidationError(
                f"column must be in [0, {self.num_columns}), got {column}"
            )
        values = self._votes[:, column]
        return {
            self._item_ids[row]: int(values[row])
            for row in np.nonzero(values != UNSEEN)[0]
        }

    # ------------------------------------------------------------------ #
    # vectorised counts used by the estimators
    # ------------------------------------------------------------------ #
    def resolve_upto(self, upto: Optional[int]) -> int:
        """Resolve an ``upto`` prefix argument to an actual column count.

        This is the single place where the ``upto`` contract is enforced:
        ``None`` means "all columns", a negative value raises
        :class:`~repro.common.exceptions.ValidationError` (Python slice
        semantics would otherwise silently drop columns off the *end*),
        and an oversized value is clamped to :attr:`num_columns` (a prefix
        can never be longer than the stream received so far).
        """
        if upto is None:
            return self.num_columns
        return min(check_int(upto, "upto", minimum=0), self.num_columns)

    def positive_counts(self, upto: Optional[int] = None) -> np.ndarray:
        """``n_i^+`` — dirty votes per item, over the first ``upto`` columns."""
        votes = self._votes[:, : self.resolve_upto(upto)]
        return (votes == DIRTY).sum(axis=1)

    def negative_counts(self, upto: Optional[int] = None) -> np.ndarray:
        """``n_i^-`` — clean votes per item, over the first ``upto`` columns."""
        votes = self._votes[:, : self.resolve_upto(upto)]
        return (votes == CLEAN).sum(axis=1)

    def vote_counts(self, upto: Optional[int] = None) -> np.ndarray:
        """``n_i`` — total votes per item, over the first ``upto`` columns."""
        votes = self._votes[:, : self.resolve_upto(upto)]
        return (votes != UNSEEN).sum(axis=1)

    # ------------------------------------------------------------------ #
    # incremental checkpoint tables used by the sweep engine
    # ------------------------------------------------------------------ #
    def _label_counts_at(self, label: int, checkpoints: Sequence[int]) -> np.ndarray:
        """Per-item counts of ``label`` votes at each checkpoint prefix.

        Computed incrementally: one delta (segment sum) per pair of
        consecutive distinct checkpoints, accumulated into running counts,
        so a sweep over ``m`` checkpoints costs one pass over the matrix
        instead of ``m`` prefix recomputations.

        Returns an ``(m, N)`` array aligned with ``checkpoints`` (which may
        be unsorted and may repeat; each entry is resolved with
        :meth:`resolve_upto`).
        """
        resolved = [self.resolve_upto(cp) for cp in checkpoints]
        unique = sorted(set(resolved))
        mask = self._votes == label
        table: Dict[int, np.ndarray] = {}
        running = np.zeros(self.num_items, dtype=np.int64)
        previous = 0
        for cp in unique:
            if cp > previous:
                running = running + mask[:, previous:cp].sum(axis=1)
            table[cp] = running
            previous = cp
        return np.stack([table[cp] for cp in resolved]) if resolved else np.zeros(
            (0, self.num_items), dtype=np.int64
        )

    def positive_counts_at(self, checkpoints: Sequence[int]) -> np.ndarray:
        """``n_i^+`` at every checkpoint prefix, as an ``(m, N)`` table."""
        return self._label_counts_at(DIRTY, checkpoints)

    def negative_counts_at(self, checkpoints: Sequence[int]) -> np.ndarray:
        """``n_i^-`` at every checkpoint prefix, as an ``(m, N)`` table."""
        return self._label_counts_at(CLEAN, checkpoints)

    def total_votes(self, upto: Optional[int] = None) -> int:
        """Total number of votes (dirty + clean) in the matrix prefix."""
        return int(self.vote_counts(upto).sum())

    def total_positive_votes(self, upto: Optional[int] = None) -> int:
        """``n^+`` — total dirty votes in the matrix prefix."""
        return int(self.positive_counts(upto).sum())

    def coverage(self, upto: Optional[int] = None) -> float:
        """Fraction of items that received at least one vote."""
        return float((self.vote_counts(upto) > 0).mean())

    def mean_votes_per_item(self, upto: Optional[int] = None) -> float:
        """Average number of votes per item (the redundancy level)."""
        return float(self.vote_counts(upto).mean())

    def items_marked_dirty(self, upto: Optional[int] = None) -> List[int]:
        """Item ids marked dirty by at least one worker (nominal error set)."""
        mask = self.positive_counts(upto) > 0
        return [item for item, flagged in zip(self._item_ids, mask) if flagged]

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"ResponseMatrix(num_items={self.num_items}, num_columns={self.num_columns}, "
            f"votes={self.total_votes()})"
        )
