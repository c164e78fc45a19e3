"""Switch counting and the SWITCH remaining-switch estimator (Section 4).

The paper reformulates the quality-estimation problem: instead of asking
"how many errors does the dataset contain?" it asks "how many of the
current majority-consensus decisions will still *switch* before reaching
the ground truth?" (Problem 2).  Switches are far more robust to false
positives than raw positive votes, because a single stray vote rarely flips
a consensus that already has support.

Per item, the vote sequence is scanned with the paper's conventions:

* every item starts with the default label *clean*;
* after each vote the consensus label is recomputed: a strict positive
  majority means *dirty*, a strict negative majority means *clean*, and a
  **tie** flips the label away from its current value (the paper's
  "assume a switch happens every time there is a tie");
* every change of the consensus label is a switch — this covers both the
  first positive vote (Equation 7, part ii) and every tie (Equation 7,
  part i);
* a vote that does not change the consensus *rediscovers* the current
  switch (singleton → doubleton → ...), defining the f'-statistics;
* votes before an item's first switch are no-ops: they contribute neither
  to the f'-statistics nor to the adjusted observation count ``n_switch``.

The only place this deviates from a literal reading of Equation 7 is the
vote immediately after a tie: when that vote restores the pre-tie
majority, the consensus label changes again and we count a switch even
though no new tie occurred.  Tracking the consensus directly keeps the
final per-item labels consistent with the majority vote, which is what
both the rediscovery bookkeeping and the total-error correction of
Section 4.3 rely on.

The total number of remaining switches is then estimated with the same
sample-coverage machinery as Chao92 (Equation 8), and split into positive
(clean→dirty) and negative (dirty→clean) switches for the total-error
correction of Section 4.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.exceptions import ValidationError
from repro.common.labels import CLEAN, DIRTY, UNSEEN
from repro.core.base import BatchEstimates, EstimateResult, StateEstimatorMixin
from repro.core.chao92 import (
    _chao92_from_arrays,
    _pair_sum,
    _skew_from_arrays,
    _skew_from_stats,
    chao92_components_from_stats,
    chao92_estimate,
)
from repro.core.fstatistics import (
    Fingerprint,
    IncrementalFingerprint,
    fingerprint_from_counts,
)
from repro.crowd.response_matrix import ResponseMatrix

#: Direction labels for switches.
POSITIVE = "positive"  # consensus flips clean -> dirty
NEGATIVE = "negative"  # consensus flips dirty -> clean


def _margin_cumsum_dtype(num_votes: int) -> type:
    """Dtype of the *global* margin accumulator of the vectorised compaction.

    Per-row margins are bounded by the column count, but the vectorised
    formulation subtracts a row base from one global running sum whose
    magnitude is bounded only by the total vote count ``V`` of the stream
    (every vote of every permutation in the batch engine) — promote to
    int64 before ``V`` can exceed the int32 range.
    """
    return np.int64 if num_votes > np.iinfo(np.int32).max else np.int32


@dataclass(frozen=True)
class SwitchEvent:
    """One observed consensus switch on one item.

    Attributes
    ----------
    item_id:
        The item whose consensus switched.
    direction:
        ``"positive"`` (clean→dirty) or ``"negative"`` (dirty→clean).
    vote_index:
        1-based position within the item's own vote sequence at which the
        switch occurred.
    rediscoveries:
        How many times the switch was observed: 1 for the switch-causing
        vote plus one per subsequent non-switching vote (this is the
        occurrence count that feeds the f'-statistics).
    """

    item_id: int
    direction: str
    vote_index: int
    rediscoveries: int


@dataclass
class SwitchStatistics:
    """All switch-derived statistics of a response-matrix prefix.

    Attributes
    ----------
    events:
        Every observed switch event, in scan order.
    num_switches:
        ``switch(I)`` — the total number of observed switches (Equation 7).
    items_with_switches:
        ``c_switch`` — the number of items with at least one switch.
    n_switch:
        The adjusted observation count: all votes minus the per-item no-op
        votes preceding the first switch.
    total_votes:
        The unadjusted total number of votes in the prefix.
    final_consensus:
        Mapping from item id to its consensus label after the scan
        (0 = clean, 1 = dirty), using the paper's default-clean /
        tie-switches convention.
    """

    events: List[SwitchEvent] = field(default_factory=list)
    num_switches: int = 0
    items_with_switches: int = 0
    n_switch: int = 0
    total_votes: int = 0
    final_consensus: Dict[int, int] = field(default_factory=dict)

    # -- convenience filters ------------------------------------------- #
    def events_by_direction(self, direction: str) -> List[SwitchEvent]:
        """Return the switch events of one direction."""
        return [event for event in self.events if event.direction == direction]

    def num_switches_by_direction(self, direction: str) -> int:
        """Observed switch count restricted to one direction."""
        return len(self.events_by_direction(direction))

    def items_with_direction(self, direction: str) -> int:
        """Number of items with at least one switch of the given direction."""
        return len({event.item_id for event in self.events if event.direction == direction})

    def fingerprint(self, direction: Optional[str] = None) -> Fingerprint:
        """Build the f'-statistics fingerprint over switch rediscovery counts.

        Parameters
        ----------
        direction:
            Restrict to ``"positive"`` or ``"negative"`` switches; ``None``
            uses every switch.  The observation count is always the full
            ``n_switch`` (the adjusted vote count), matching the paper's
            choice to "simply count all votes as n".
        """
        events = self.events if direction is None else self.events_by_direction(direction)
        counts = [event.rediscoveries for event in events]
        fingerprint = fingerprint_from_counts(counts, num_observations=self.n_switch)
        return fingerprint


def _vote_list(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and label of every vote of a dense label matrix.

    One ``np.flatnonzero``, so the votes come in row-major order; a
    ``divmod`` by the column count splits the flat offsets.  The 2-D
    ``np.nonzero`` it replaces took five times as long at the
    benchmark's sweep shape (0.52 against 0.10 ms).
    """
    flat = np.flatnonzero(values != UNSEEN)
    rows, cols = np.divmod(flat, values.shape[1])
    return rows, cols, values.ravel()[flat]


class _SwitchScan:
    """Vectorised switch bookkeeping for every item and every prefix.

    The scan consumes a *vote stream*: the row, column and label of every
    vote, in row-major order (item row, then column).  The serial engine
    builds it with ``np.nonzero`` of a dense matrix (:meth:`of`); the
    cross-permutation batch engine builds one stream for all ``R``
    permutations, row ``p * N + i`` being item ``i`` under permutation
    ``p`` — rows are independent, so one scan serves them all.

    The sequential recurrence of the per-item scan collapses into closed
    form on the cumulative margins ``m_t = n_t^+ - n_t^-``: a strict
    majority fixes the consensus to ``sign(m_t)`` regardless of history,
    and a tie (``m_t = 0``) can only follow a vote with ``m = ±1``, so the
    tie-flip target is ``1`` iff the previous margin was negative.  Every
    array is O(votes); nothing is ``rows x columns``.

    All event arrays are aligned and sorted in row-major scan order (item
    row, then column) — the same order the sequential scan emitted events.
    Vote counts are 1-based ordinals within an item's own vote sequence:
    ``event_vote_index`` is the switch vote's, ``event_last_vote`` the
    last vote before the item's next switch (or the item's last vote).
    """

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        labels: np.ndarray,
        num_columns: int,
    ):
        self.num_columns = int(num_columns)
        #: (V,) row / column of every vote, in row-major scan order.
        self.vote_rows = rows
        self.vote_cols = cols
        empty = np.zeros(0, dtype=np.int64)
        #: (V,) consensus label after each vote (tie-flip convention).
        self.vote_states = np.zeros(0, dtype=bool)
        #: (V,) per-vote change of the majority count (-1, 0 or +1); the
        #: batch engine folds these per column into majority histories.
        self.vote_majority_delta = np.zeros(0, dtype=np.int8)
        self.event_rows = empty
        self.event_cols = empty
        self.event_states = empty
        self.event_vote_index = empty
        self.event_last_vote = empty
        #: Stream position of each event's item's first vote.
        self._event_first = empty
        if rows.size == 0:
            return
        self.vote_states, is_event, self.vote_majority_delta, row_starts = (
            self._compact(rows, labels)
        )
        event_pos = np.flatnonzero(is_event)
        self.event_rows = rows[event_pos].astype(np.int64)
        self.event_cols = cols[event_pos].astype(np.int64)
        self.event_states = self.vote_states[event_pos].astype(np.int64)
        # Each event's item run: its first vote and the next item's first.
        run = np.searchsorted(row_starts, event_pos, side="right")
        self._event_first = row_starts[run - 1]
        row_end = np.append(row_starts, rows.size)[run]
        # The item's next switch, if any, is the next event before its end.
        next_event = np.append(event_pos[1:], rows.size)
        self.event_vote_index = event_pos - self._event_first + 1
        self.event_last_vote = np.minimum(next_event, row_end) - self._event_first

    @classmethod
    def of(cls, values: np.ndarray) -> "_SwitchScan":
        """Scan a dense ``(N, K)`` label matrix through its vote list."""
        return cls(*_vote_list(values), values.shape[1])

    @staticmethod
    def _compact(rows: np.ndarray, labels: np.ndarray):
        """Per-vote states, events and majority deltas over the stream.

        The per-vote margin comes from a segmented cumulative sum: a
        global cumsum of the ±1 deltas minus each row's base offset (the
        cumulative value just before the row's first vote).  Also returns
        the stream position of every row's first vote.
        """
        deltas = np.where(labels == DIRTY, np.int32(1), np.int32(-1))
        cumulative = np.cumsum(deltas, dtype=_margin_cumsum_dtype(deltas.size))
        new_row = np.empty(deltas.shape, dtype=bool)
        new_row[0] = True
        new_row[1:] = rows[1:] != rows[:-1]
        row_starts = np.flatnonzero(new_row)
        row_base = np.repeat(
            (cumulative - deltas)[row_starts], np.diff(row_starts, append=deltas.size)
        )
        margin_at_vote = cumulative - row_base
        previous_margin = margin_at_vote - deltas
        # A tie can only follow a margin of ±1, so the flip target is dirty
        # iff the margin before this vote was negative.
        votes_state = (margin_at_vote > 0) | (
            (margin_at_vote == 0) & (previous_margin < 0)
        )
        majority_delta = (margin_at_vote > 0).astype(np.int8) - (previous_margin > 0)
        previous_state = np.zeros_like(votes_state)
        previous_state[1:] = votes_state[:-1]
        # The first vote of each row compares against the default clean
        # state, not against the previous row's last vote.
        previous_state[row_starts] = False
        is_event = votes_state != previous_state
        return votes_state, is_event, majority_delta, row_starts

    @cached_property
    def _keys(self) -> np.ndarray:
        """(V,) ascending ``row * K + column`` search keys of the stream."""
        return self.vote_rows.astype(np.int64) * self.num_columns + self.vote_cols

    def _cuts(self, rows: np.ndarray, upto: int) -> np.ndarray:
        """Stream position of each row's first vote at or after column ``upto``."""
        return np.searchsorted(self._keys, rows * self.num_columns + upto)

    def seen_at(self, upto: int, active: np.ndarray) -> np.ndarray:
        """Votes each ``active`` event's item received in the first ``upto`` columns.

        One ``searchsorted`` on the stream; the batch engine reads the
        same counts from its count tables instead.
        """
        return self._cuts(self.event_rows[active], upto) - self._event_first[active]

    def rediscoveries(self, active: np.ndarray, seen: np.ndarray) -> np.ndarray:
        """Occurrence counts of the ``active`` events, truncated at a prefix.

        An event is rediscovered by every vote from its switch vote up to
        (excluding) the item's next switch; ``seen`` holds, per active
        event, the votes its item received within the prefix.  ``active``
        may be a boolean mask or an integer index array over the events.
        """
        last = np.minimum(self.event_last_vote[active], seen)
        return last - self.event_vote_index[active] + 1

    def total_votes(self, upto: int) -> int:
        """Votes within the first ``upto`` columns."""
        return int(np.count_nonzero(self.vote_cols < upto))

    def final_states(self, upto: int, num_rows: int) -> np.ndarray:
        """Consensus label of rows ``0..num_rows-1`` after the first ``upto``
        columns: the state after the row's last vote, clean if it has none."""
        states = np.zeros(num_rows, dtype=np.int64)
        if self.vote_rows.size:
            rows = np.arange(num_rows, dtype=np.int64)
            cuts = self._cuts(rows, upto)
            voted = cuts > self._cuts(rows, 0)
            states[voted] = self.vote_states[cuts[voted] - 1]
        return states


def _distinct_sorted(values: np.ndarray) -> int:
    """Distinct-value count of an ascending-sorted array (O(E), no hashing).

    The event-row arrays of a scan are emitted in row-major order, so the
    runs of equal values are contiguous — counting run boundaries replaces
    the hash-based ``np.unique`` the sweep hot path used to pay for.
    """
    if values.size == 0:
        return 0
    return int(np.count_nonzero(values[1:] != values[:-1])) + 1


def _statistics_at(
    matrix: ResponseMatrix, scan: _SwitchScan, upto: int
) -> SwitchStatistics:
    """Materialise the :class:`SwitchStatistics` of one prefix from a scan."""
    stats = SwitchStatistics()
    item_ids = matrix.item_ids
    if upto == 0:
        stats.final_consensus = {item: 0 for item in item_ids}
        return stats
    active = scan.event_cols < upto
    rediscoveries = scan.rediscoveries(active, scan.seen_at(upto, active))
    directions = np.where(scan.event_states[active] == 1, POSITIVE, NEGATIVE)
    stats.events = [
        SwitchEvent(
            item_id=item_ids[row],
            direction=direction,
            vote_index=int(vote_index),
            rediscoveries=int(count),
        )
        for row, direction, vote_index, count in zip(
            scan.event_rows[active],
            (str(d) for d in directions),
            scan.event_vote_index[active],
            rediscoveries,
        )
    ]
    stats.num_switches = len(stats.events)
    stats.items_with_switches = _distinct_sorted(scan.event_rows[active])
    stats.n_switch = int(rediscoveries.sum())
    stats.total_votes = scan.total_votes(upto)
    final_states = scan.final_states(upto, len(item_ids))
    stats.final_consensus = {
        item: int(label) for item, label in zip(item_ids, final_states)
    }
    return stats


def switch_statistics(matrix: ResponseMatrix, upto: Optional[int] = None) -> SwitchStatistics:
    """Compute all switch statistics of a response-matrix prefix.

    Parameters
    ----------
    matrix:
        The worker-response matrix.
    upto:
        Use only the first ``upto`` columns (``None`` = all).
    """
    upto = matrix.resolve_upto(upto)
    scan = _SwitchScan.of(matrix.values[:, :upto])
    return _statistics_at(matrix, scan, upto)


def switch_statistics_sweep(
    matrix: ResponseMatrix, checkpoints: Sequence[int]
) -> List[SwitchStatistics]:
    """Switch statistics at every checkpoint prefix from one matrix scan.

    Equivalent to ``[switch_statistics(matrix, cp) for cp in checkpoints]``
    but the matrix is scanned once; each checkpoint then only re-slices the
    precomputed event arrays (cost proportional to the number of switch
    events, not to ``N x K``).
    """
    resolved = [matrix.resolve_upto(checkpoint) for checkpoint in checkpoints]
    scan = _SwitchScan.of(matrix.values)
    return [_statistics_at(matrix, scan, upto) for upto in resolved]


def _fingerprint_from_rediscoveries(
    rediscoveries: np.ndarray, n_switch: int
) -> Fingerprint:
    """Fingerprint over event occurrence counts, straight from the array.

    Produces the same :class:`Fingerprint` as
    ``fingerprint_from_counts(rediscoveries.tolist(), num_observations=n_switch)``
    without materialising a Python list (rediscovery counts are >= 1 by
    construction, so no zero-filtering is needed).
    """
    if rediscoveries.size == 0:
        return Fingerprint(frequencies={}, num_observations=n_switch)
    bins = np.bincount(rediscoveries)
    frequencies = {
        int(j): int(count) for j, count in enumerate(bins) if j >= 1 and count
    }
    return Fingerprint(frequencies=frequencies, num_observations=n_switch)


class _EstimationSwitchStats:
    """Array-backed stand-in for :class:`SwitchStatistics` in the sweep hot path.

    Exposes exactly the interface the switch estimators consume
    (``fingerprint``, the direction filters and the scalar counts) while
    keeping events as NumPy arrays — no per-event objects, so a sweep over
    many checkpoints stays proportional to the event count in C, not in
    Python.  All quantities are integers identical to the materialised
    statistics, so every downstream estimate is bit-identical.
    """

    __slots__ = (
        "num_switches",
        "items_with_switches",
        "n_switch",
        "total_votes",
        "_rediscoveries",
        "_states",
        "_rows",
        "_positive_mask",
        "_negative_mask",
    )

    def __init__(
        self,
        rediscoveries: np.ndarray,
        states: np.ndarray,
        rows: np.ndarray,
        total_votes: int,
    ):
        self._rediscoveries = rediscoveries
        self._states = states
        self._rows = rows
        self._positive_mask: Optional[np.ndarray] = None
        self._negative_mask: Optional[np.ndarray] = None
        self.num_switches = int(rediscoveries.size)
        self.items_with_switches = _distinct_sorted(rows)
        self.n_switch = int(rediscoveries.sum())
        self.total_votes = total_votes

    def _direction_mask(self, direction: str) -> np.ndarray:
        # The SWITCH total-error estimator reads both directions several
        # times per evaluation; one cached comparison serves them all.
        if direction == POSITIVE:
            if self._positive_mask is None:
                self._positive_mask = self._states == 1
            return self._positive_mask
        if self._negative_mask is None:
            self._negative_mask = self._states == 0
        return self._negative_mask

    def num_switches_by_direction(self, direction: str) -> int:
        """Observed switch count restricted to one direction."""
        return int(self._direction_mask(direction).sum())

    def items_with_direction(self, direction: str) -> int:
        """Number of items with at least one switch of the given direction."""
        return _distinct_sorted(self._rows[self._direction_mask(direction)])

    def fingerprint(self, direction: Optional[str] = None) -> Fingerprint:
        """f'-statistics over rediscovery counts (see :class:`SwitchStatistics`)."""
        counts = (
            self._rediscoveries
            if direction is None
            else self._rediscoveries[self._direction_mask(direction)]
        )
        return _fingerprint_from_rediscoveries(counts, self.n_switch)


class _SwitchCells:
    """Switch sufficient statistics of every (permutation, checkpoint) cell.

    What the batched SWITCH estimators read: :attr:`n_switch`,
    :attr:`total_votes` and, per direction key — ``None`` (all switches),
    :data:`POSITIVE` and :data:`NEGATIVE` — one ``(R, m)`` int64 table of
    each per-checkpoint statistic.  Every cell holds the integers
    ``switch_statistics(permuted_matrix, checkpoint)`` gives.

    One vectorised ``(checkpoints x events)`` pass per permutation fills
    its row: rediscovery counts are truncated against every checkpoint at
    once, and the distinct-item counts become ``searchsorted`` lookups
    over the per-item first-switch columns (an item has an active switch
    at checkpoint ``upto`` iff its first switch of that direction happened
    before column ``upto``).
    """

    __slots__ = ("n_switch", "total_votes", "counts", "singletons", "pair_sums", "items")

    def __init__(
        self,
        scan: _SwitchScan,
        event_offsets: np.ndarray,
        resolved: Sequence[int],
        seen_table: np.ndarray,
    ):
        """``scan`` is the batch stream, whose row ``p * N + i`` is item ``i``
        under permutation ``p`` and whose events ``event_offsets[p]`` to
        ``event_offsets[p + 1]`` are permutation ``p``'s; ``seen_table`` is
        ``(R, m, N)``: the votes of each item at each checkpoint."""
        num_permutations, _, num_items = seen_table.shape
        checkpoints = np.asarray(resolved, dtype=np.int64)
        shape = (num_permutations, checkpoints.size)
        #: (R, m) unadjusted vote totals.
        self.total_votes = seen_table.sum(axis=2, dtype=np.int64)
        #: (R, m) adjusted observation count ``n_switch``.
        self.n_switch = np.zeros(shape, dtype=np.int64)
        summed = (None, POSITIVE)
        #: direction -> (R, m) observed switch counts.
        self.counts = {d: np.zeros(shape, dtype=np.int64) for d in summed}
        #: direction -> (R, m) singleton (f'_1) counts.
        self.singletons = {d: np.zeros(shape, dtype=np.int64) for d in summed}
        #: direction -> (R, m) skew pair sums ``sum_e r_e (r_e - 1)``.
        self.pair_sums = {d: np.zeros(shape, dtype=np.int64) for d in summed}
        #: direction -> (R, m) distinct items with at least one switch.
        self.items = {
            d: np.zeros(shape, dtype=np.int64) for d in (None, POSITIVE, NEGATIVE)
        }
        for p in range(num_permutations):
            events = slice(event_offsets[p], event_offsets[p + 1])
            rows = scan.event_rows[events]
            cols = scan.event_cols[events]
            positive = scan.event_states[events] == 1
            # Rediscovery counts truncated at each checkpoint; an event
            # after the checkpoint is masked out.
            rediscoveries = np.where(
                cols < checkpoints[:, None],
                np.minimum(
                    scan.event_last_vote[events], seen_table[p][:, rows - p * num_items]
                )
                - scan.event_vote_index[events]
                + 1,
                0,
            )
            self.n_switch[p] = rediscoveries.sum(axis=1)
            # An active event has at least one rediscovery, so nonzero
            # cells count the active events.
            for direction, counted in (
                (None, rediscoveries),
                (POSITIVE, rediscoveries * positive),
            ):
                self.counts[direction][p] = np.count_nonzero(counted, axis=1)
                self.singletons[direction][p] = np.count_nonzero(counted == 1, axis=1)
                self.pair_sums[direction][p] = (counted * (counted - 1)).sum(axis=1)
            for direction, event_filter in (
                (None, slice(None)),
                (POSITIVE, positive),
                (NEGATIVE, ~positive),
            ):
                first = _first_columns_per_row(rows[event_filter], cols[event_filter])
                self.items[direction][p] = np.searchsorted(first, checkpoints, side="left")
        # Every switch is positive or negative, so the negative sums are
        # the differences.
        for table in (self.counts, self.singletons, self.pair_sums):
            table[NEGATIVE] = table[None] - table[POSITIVE]

    def totals(self, direction: Optional[str], use_skew_correction: bool):
        """:func:`_chao92_from_arrays` over one direction's switch fingerprint."""
        return _chao92_from_arrays(
            self.items[direction],
            self.n_switch,
            self.singletons[direction],
            self.pair_sums[direction],
            use_skew_correction,
        )


def _first_columns_per_row(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sorted first-event columns per distinct row of a row-major event list.

    ``rows`` is ascending and each row's events are in column order, so the
    first event of each run is that row's earliest switch.
    """
    if rows.size == 0:
        return np.zeros(0, dtype=np.int64)
    first = np.empty(rows.shape, dtype=bool)
    first[0] = True
    first[1:] = rows[1:] != rows[:-1]
    return np.sort(cols[first])


class IncrementalSwitchState:
    """Streaming counterpart of the vectorised switch scan.

    Consumes one vote at a time (:meth:`observe`) and maintains every
    switch-derived quantity the estimators read — event counts, the
    adjusted observation count ``n_switch`` and the f'-statistics over
    rediscovery counts — under exactly the scan conventions documented at
    the top of this module.  Each vote costs O(1): the open event of the
    voted item either gains a rediscovery (one fingerprint reclassify) or
    is frozen in place while a new class-1 event opens.

    The object satisfies the same statistics interface as
    :class:`SwitchStatistics` / :class:`_EstimationSwitchStats`, so the
    switch estimators consume it directly; after ``j`` ingested columns
    every exposed quantity is bit-identical to
    ``switch_statistics(matrix, j)``.
    """

    def __init__(self, num_items: int):
        # Per-item statistics are Python lists: a vote reads and writes a
        # few of them, and list items cost a fraction of numpy scalar
        # access.  The snapshot codec converts them to arrays.
        self._margin = [0] * num_items
        self._consensus = [0] * num_items
        #: rediscovery count of each item's open (most recent) event; 0 = no
        #: event yet, in which case further votes are pre-first-switch no-ops.
        self._open_rediscoveries = [0] * num_items
        self._open_positive = [False] * num_items
        self._has_direction = {
            POSITIVE: [False] * num_items,
            NEGATIVE: [False] * num_items,
        }
        self.num_switches = 0
        self.items_with_switches = 0
        self.n_switch = 0
        self.total_votes = 0
        self._switches_by_direction = {POSITIVE: 0, NEGATIVE: 0}
        self._items_by_direction = {POSITIVE: 0, NEGATIVE: 0}
        self._fingerprints = {
            None: IncrementalFingerprint(),
            POSITIVE: IncrementalFingerprint(),
            NEGATIVE: IncrementalFingerprint(),
        }

    def observe(self, row: int, vote: int) -> None:
        """Ingest one vote (``DIRTY`` or ``CLEAN``) on item row ``row``."""
        if vote == DIRTY:
            delta = 1
        elif vote == CLEAN:
            delta = -1
        else:
            raise ValidationError(f"votes must be DIRTY or CLEAN, got {vote!r}")
        self.total_votes += 1
        previous_margin = self._margin[row]
        margin = previous_margin + delta
        self._margin[row] = margin
        if margin > 0:
            new_state = 1
        elif margin < 0:
            new_state = 0
        else:
            # Tie: flip away from the current label.  A tie can only follow
            # a margin of +/-1, so the flip target is the sign opposite of
            # the previous margin (the closed form of the vectorised scan).
            new_state = 1 if previous_margin < 0 else 0
        count = self._open_rediscoveries[row]
        if new_state != self._consensus[row]:
            self._consensus[row] = new_state
            direction = POSITIVE if new_state == 1 else NEGATIVE
            self.num_switches += 1
            self._switches_by_direction[direction] += 1
            if count == 0:
                self.items_with_switches += 1
            has_direction = self._has_direction[direction]
            if not has_direction[row]:
                has_direction[row] = True
                self._items_by_direction[direction] += 1
            # The previous open event (if any) freezes at its current
            # rediscovery count; a fresh singleton event opens.
            self._open_rediscoveries[row] = 1
            self._open_positive[row] = new_state == 1
            self._fingerprints[None].reclassify(0, 1)
            self._fingerprints[direction].reclassify(0, 1)
            self.n_switch += 1
        elif count > 0:
            self._open_rediscoveries[row] = count + 1
            direction = POSITIVE if self._open_positive[row] else NEGATIVE
            self._fingerprints[None].reclassify(count, count + 1)
            self._fingerprints[direction].reclassify(count, count + 1)
            self.n_switch += 1
        # else: vote before the item's first switch — a no-op by Equation 7.

    # -- the statistics interface the estimators consume ----------------- #
    def num_switches_by_direction(self, direction: str) -> int:
        """Observed switch count restricted to one direction."""
        return self._switches_by_direction[direction]

    def items_with_direction(self, direction: str) -> int:
        """Number of items with at least one switch of the given direction."""
        return self._items_by_direction[direction]

    def fingerprint(self, direction: Optional[str] = None) -> Fingerprint:
        """f'-statistics over rediscovery counts (see :class:`SwitchStatistics`)."""
        return self._fingerprints[direction].snapshot(num_observations=self.n_switch)

    # -- snapshot codec --------------------------------------------------- #
    def to_arrays(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """Serialise the tracker into npz-able arrays plus JSON-safe metadata.

        The frozen events behind the f'-statistics are not reconstructible
        from the per-item arrays alone, so the three fingerprint tables are
        carried explicitly.  :meth:`from_arrays` restores a tracker whose
        every exposed statistic — and every *future* statistic after more
        votes — is bit-identical to one that never stopped.
        """
        arrays = {
            "margin": np.asarray(self._margin, dtype=np.int64),
            "consensus": np.asarray(self._consensus, dtype=np.int8),
            "open_rediscoveries": np.asarray(self._open_rediscoveries, dtype=np.int64),
            "open_positive": np.asarray(self._open_positive, dtype=bool),
            "has_positive": np.asarray(self._has_direction[POSITIVE], dtype=bool),
            "has_negative": np.asarray(self._has_direction[NEGATIVE], dtype=bool),
        }
        meta: Dict[str, object] = {
            "num_switches": int(self.num_switches),
            "items_with_switches": int(self.items_with_switches),
            "n_switch": int(self.n_switch),
            "total_votes": int(self.total_votes),
            "switches_by_direction": {
                POSITIVE: int(self._switches_by_direction[POSITIVE]),
                NEGATIVE: int(self._switches_by_direction[NEGATIVE]),
            },
            "items_by_direction": {
                POSITIVE: int(self._items_by_direction[POSITIVE]),
                NEGATIVE: int(self._items_by_direction[NEGATIVE]),
            },
            "fingerprints": {
                "all": self._fingerprints[None].state_dict(),
                POSITIVE: self._fingerprints[POSITIVE].state_dict(),
                NEGATIVE: self._fingerprints[NEGATIVE].state_dict(),
            },
        }
        return arrays, meta

    @classmethod
    def from_arrays(
        cls, arrays: Dict[str, np.ndarray], meta: Dict[str, object]
    ) -> "IncrementalSwitchState":
        """Rebuild a tracker from :meth:`to_arrays` output.

        Every array must be 1-D, and all six of one length (the items).
        """
        margin = np.asarray(arrays["margin"], dtype=np.int64)
        consensus = np.asarray(arrays["consensus"], dtype=np.int8)
        open_rediscoveries = np.asarray(arrays["open_rediscoveries"], dtype=np.int64)
        open_positive = np.asarray(arrays["open_positive"], dtype=bool)
        has_positive = np.asarray(arrays["has_positive"], dtype=bool)
        has_negative = np.asarray(arrays["has_negative"], dtype=bool)
        shapes = {
            value.shape
            for value in (consensus, open_rediscoveries, open_positive, has_positive, has_negative)
        }
        if margin.ndim != 1 or shapes != {margin.shape}:
            raise ValidationError("switch-state arrays must share one item dimension")
        state = cls(0)
        state._margin = margin.tolist()
        state._consensus = consensus.tolist()
        state._open_rediscoveries = open_rediscoveries.tolist()
        state._open_positive = open_positive.tolist()
        state._has_direction = {
            POSITIVE: has_positive.tolist(),
            NEGATIVE: has_negative.tolist(),
        }
        state.num_switches = int(meta["num_switches"])
        state.items_with_switches = int(meta["items_with_switches"])
        state.n_switch = int(meta["n_switch"])
        state.total_votes = int(meta["total_votes"])
        state._switches_by_direction = {
            POSITIVE: int(meta["switches_by_direction"][POSITIVE]),
            NEGATIVE: int(meta["switches_by_direction"][NEGATIVE]),
        }
        state._items_by_direction = {
            POSITIVE: int(meta["items_by_direction"][POSITIVE]),
            NEGATIVE: int(meta["items_by_direction"][NEGATIVE]),
        }
        fingerprints = meta["fingerprints"]
        state._fingerprints = {
            None: IncrementalFingerprint.from_state_dict(fingerprints["all"]),
            POSITIVE: IncrementalFingerprint.from_state_dict(fingerprints[POSITIVE]),
            NEGATIVE: IncrementalFingerprint.from_state_dict(fingerprints[NEGATIVE]),
        }
        return state


def _estimation_sweep(
    scan: _SwitchScan, events: slice, resolved: Sequence[int], seen_table: np.ndarray
) -> List[_EstimationSwitchStats]:
    """Array-backed switch statistics per checkpoint, for the estimators.

    ``events`` slices one matrix's events out of ``scan``: all of a serial
    scan, or one permutation's block of the batch stream, whose row
    ``p * N + i`` is item ``i``.  ``resolved`` are resolved checkpoints and
    ``seen_table`` is ``(m, N)``: each item's votes at each of them (the
    sweep's count tables), which truncate the rediscovery counts.
    """
    index = np.arange(scan.event_rows.size)[events]
    rows = scan.event_rows[index]
    items = rows % seen_table.shape[1]  # row p * N + i is item i
    cols = scan.event_cols[index]
    stats = []
    for upto, seen in zip(resolved, seen_table):
        active = cols < upto
        stats.append(
            _EstimationSwitchStats(
                rediscoveries=scan.rediscoveries(index[active], seen[items[active]]),
                states=scan.event_states[index[active]],
                rows=rows[active],
                total_votes=int(seen.sum()),
            )
        )
    return stats


def count_switches(matrix: ResponseMatrix, upto: Optional[int] = None) -> int:
    """``switch(I)`` — the total number of observed consensus switches (Equation 7)."""
    return switch_statistics(matrix, upto).num_switches


def estimate_total_switches(
    stats: SwitchStatistics,
    *,
    direction: Optional[str] = None,
    use_skew_correction: bool = True,
) -> float:
    """Estimate the total number of switches as ``K -> inf`` (Equation 8).

    Parameters
    ----------
    stats:
        Switch statistics of the observed prefix.
    direction:
        Estimate only ``"positive"`` or only ``"negative"`` switches, or
        every switch when ``None``.
    use_skew_correction:
        Include the coefficient-of-variation correction term.

    Returns
    -------
    float
        The estimated total number of switches of the requested direction.
        Falls back to the observed count when the sample coverage is zero.
    """
    fingerprint = stats.fingerprint(direction)
    if direction is None:
        distinct = stats.items_with_switches
    else:
        distinct = stats.items_with_direction(direction)
    return chao92_estimate(
        fingerprint,
        distinct=distinct,
        use_skew_correction=use_skew_correction,
    )


def estimate_remaining_switches(
    stats: SwitchStatistics,
    *,
    direction: Optional[str] = None,
    use_skew_correction: bool = True,
) -> float:
    """``xi`` — the estimated number of switches still to come.

    ``xi = D_switch - switch(I)`` restricted to the requested direction,
    clipped at zero.
    """
    total = estimate_total_switches(
        stats, direction=direction, use_skew_correction=use_skew_correction
    )
    if direction is None:
        observed = stats.num_switches
    else:
        observed = stats.num_switches_by_direction(direction)
    return max(0.0, float(total) - float(observed))


@dataclass
class SwitchEstimator(StateEstimatorMixin):
    """Matrix-level remaining-switch estimator (Problem 2 / Equation 8).

    The ``estimate`` field of the result is the estimated **total** number
    of switches; ``observed`` is ``switch(I)``; ``remaining`` is the
    expected number of consensus decisions that will still change.

    Parameters
    ----------
    direction:
        Restrict the estimation to ``"positive"`` or ``"negative"``
        switches (``None`` estimates all switches).
    use_skew_correction:
        Include the coefficient-of-variation correction.
    name:
        Registry / report name.
    """

    direction: Optional[str] = None
    use_skew_correction: bool = True
    name: str = "switch"

    def _result_from_stats(
        self,
        *,
        n_switch: int,
        total_votes: int,
        observed: int,
        distinct: int,
        singletons: int,
        pair_sum: int,
        items_with_switches: int,
    ) -> EstimateResult:
        total, coverage, gamma_squared = chao92_components_from_stats(
            distinct=distinct,
            num_observations=n_switch,
            singletons=singletons,
            pair_sum=pair_sum,
            use_skew_correction=self.use_skew_correction,
        )
        if self.direction is not None and self.use_skew_correction:
            # The diagnostic gamma is always reported against the full
            # items-with-switches count, even for directional estimators.
            gamma_squared = _skew_from_stats(
                items_with_switches, n_switch, coverage, pair_sum
            )
        return EstimateResult(
            estimate=float(total),
            observed=float(observed),
            details={
                "n_switch": float(n_switch),
                "total_votes": float(total_votes),
                "coverage": coverage,
                "singletons": float(singletons),
                "items_with_switches": float(items_with_switches),
                "gamma_squared": gamma_squared,
            },
        )

    def _result(self, stats) -> EstimateResult:
        # ``stats`` is a SwitchStatistics, its array-backed sweep stand-in,
        # or the live IncrementalSwitchState of a streaming session.
        fingerprint = stats.fingerprint(self.direction)
        if self.direction is None:
            observed = stats.num_switches
            distinct = stats.items_with_switches
        else:
            observed = stats.num_switches_by_direction(self.direction)
            distinct = stats.items_with_direction(self.direction)
        return self._result_from_stats(
            n_switch=stats.n_switch,
            total_votes=stats.total_votes,
            observed=observed,
            distinct=distinct,
            singletons=fingerprint.singletons,
            pair_sum=_pair_sum(fingerprint) if self.use_skew_correction else 0,
            items_with_switches=stats.items_with_switches,
        )

    def estimate_state(self, state) -> EstimateResult:
        """Estimate the total number of consensus switches."""
        return self._result(state.switch_stats())

    def estimate_sweep_batch(self, batch) -> BatchEstimates:
        """Cross-permutation sweep over the batch's single switch scan.

        All ``R`` permutations share one :class:`_SwitchScan` (rows are
        independent, so one vote stream over every permutation is scanned
        once) and one :class:`_SwitchCells` of per-cell sufficient
        statistics (:attr:`PermutationBatch.switch_sweep_cells`); the
        scalar core's arithmetic runs on all cells at once in numpy —
        every estimate is bit-identical to the serial sweep.
        """
        direction = self.direction
        cells = batch.switch_sweep_cells
        total, coverage, gamma_squared = cells.totals(direction, self.use_skew_correction)
        if direction is not None and self.use_skew_correction:
            gamma_squared = _skew_from_arrays(
                cells.items[None], cells.n_switch, coverage, cells.pair_sums[direction]
            )
        return BatchEstimates(
            total,
            cells.counts[direction],
            {
                "n_switch": cells.n_switch,
                "total_votes": cells.total_votes,
                "coverage": coverage,
                "singletons": cells.singletons[direction],
                "items_with_switches": cells.items[None],
                "gamma_squared": gamma_squared,
            },
        )
