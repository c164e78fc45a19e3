"""The shared incremental-state layer behind every estimation path.

Every estimator in :mod:`repro.core` is, at heart, a pure function of a
handful of prefix statistics: the positive-vote fingerprint, the nominal
and majority counts, the coverage tallies and the switch statistics.
Before this module existed each evaluation path re-derived those inputs
itself — the single-prefix ``estimate``, each estimator's
``estimate_sweep``, and any future online consumer all walked the vote
matrix independently.

This module gives the statistics one home.  An *estimation state* is any
object satisfying :class:`EstimationState`; estimators implement
``estimate_state(state)`` (see
:class:`~repro.core.base.StateEstimatorMixin`) and never touch a matrix
directly.  Three implementations cover every access pattern:

* :class:`MatrixPrefixState` — one prefix of a collected matrix (the
  classic ``estimate(matrix, upto)`` path), computed lazily so an
  estimator only pays for the statistics it reads;
* :func:`matrix_sweep_states` — all checkpoint prefixes of a matrix at
  once, backed by a single set of incremental checkpoint tables and one
  switch scan **shared across checkpoints and across estimators**;
* :class:`PermutationBatch` — all checkpoint prefixes of **all column
  permutations** at once: the permuted matrices are stacked into one
  ``(R, N, K)`` tensor, the count tables become one ``(R, m, N)`` pass
  and the ``R`` switch scans collapse into a single scan of the
  ``(R * N, K)`` reshaped stack (the engine of the permutation-averaged
  experiment runner);
* :class:`StreamingState` — a live state fed one worker response at a
  time, maintained with O(items touched) work per update (the engine of
  :class:`repro.streaming.StreamingSession`).

All of them produce bit-identical integers, which is what makes the
streaming/batch/sweep/cross-permutation equivalence guarantee of the
estimators hold.
"""

from __future__ import annotations

from functools import cached_property
from typing import (
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.common.exceptions import ValidationError
from repro.common.labels import CLEAN, DIRTY
from repro.common.validation import check_int
from repro.core import _scan_kernels
from repro.core.fstatistics import (
    Fingerprint,
    IncrementalFingerprint,
    fingerprint_from_counts,
    fingerprints_from_count_table,
)
from repro.core.switch import (
    IncrementalSwitchState,
    _estimation_sweep,
    _EstimationSwitchStats,
    _SwitchScan,
    _SwitchSweepCells,
    switch_statistics,
)
from repro.crowd.consensus import majority_count_history
from repro.crowd.response_matrix import ResponseMatrix

#: Whether :class:`PermutationBatch` runs the fused scan kernels of
#: :mod:`repro.core._scan_kernels` instead of the vectorised reference.
#: Set once, at import: the kernels only pay off where numba compiles
#: them.  The serial engine never runs them, so every serial-vs-batch
#: oracle compares the two formulations wherever numba is installed.
_FUSED_SCANS: bool = _scan_kernels.NUMBA_AVAILABLE


@runtime_checkable
class EstimationState(Protocol):
    """The statistics interface every estimator evaluation consumes.

    ``num_items`` and ``num_columns`` describe the prefix; the methods
    return the derived statistics.  Implementations may compute lazily
    (batch states) or maintain incrementally (streaming state), but the
    integers they return must be identical for the same vote prefix.
    """

    #: ``N`` — the number of candidate items.
    num_items: int
    #: Number of worker-task columns in the evaluated prefix.
    num_columns: int

    def positive_fingerprint(self) -> Fingerprint:
        """f-statistics over per-item positive-vote counts (Section 3.2)."""
        ...

    def nominal_count(self) -> int:
        """``c_nominal`` — items marked dirty by at least one worker."""
        ...

    def majority_count(self) -> int:
        """``c_majority`` — items whose majority consensus is dirty."""
        ...

    def coverage_counts(self, min_votes: int) -> Tuple[int, int]:
        """``(covered, sample_errors)`` for the extrapolation baseline.

        ``covered`` counts items with at least ``min_votes`` votes;
        ``sample_errors`` counts the covered items whose majority
        consensus is dirty.
        """
        ...

    def switch_stats(self):
        """Switch statistics of the prefix (the Section 4 machinery).

        Returns an object with the :class:`~repro.core.switch.SwitchStatistics`
        interface: ``num_switches``, ``items_with_switches``, ``n_switch``,
        ``total_votes``, ``num_switches_by_direction``,
        ``items_with_direction`` and ``fingerprint``.
        """
        ...

    def majority_count_back(self, lookback: int) -> int:
        """``c_majority`` at ``num_columns - lookback`` (trend detection).

        ``lookback`` must be in ``[0, num_columns]``; anything else raises
        ``ValidationError`` in every implementation.
        """
        ...


def _resolve_lookback(lookback: int, num_columns: int) -> int:
    """Validate a trend lookback: it must stay within the prefix."""
    lookback = check_int(lookback, "lookback", minimum=0)
    if lookback > num_columns:
        raise ValidationError(
            f"lookback must be in [0, {num_columns}], got {lookback}"
        )
    return lookback


class MatrixPrefixState:
    """Estimation state of one column prefix of a collected matrix.

    Everything is computed lazily and cached, so an estimator that never
    reads the switch statistics never pays for the switch scan.
    """

    def __init__(self, matrix: ResponseMatrix, upto: Optional[int] = None):
        self._matrix = matrix
        self.num_items = matrix.num_items
        self.num_columns = matrix.resolve_upto(upto)

    @cached_property
    def _positive_counts(self) -> np.ndarray:
        return self._matrix.positive_counts(self.num_columns)

    @cached_property
    def _negative_counts(self) -> np.ndarray:
        return self._matrix.negative_counts(self.num_columns)

    def positive_fingerprint(self) -> Fingerprint:
        """f-statistics over per-item positive-vote counts."""
        return fingerprint_from_counts(self._positive_counts.tolist())

    def nominal_count(self) -> int:
        """``c_nominal`` of the prefix."""
        return int((self._positive_counts > 0).sum())

    def majority_count(self) -> int:
        """``c_majority`` of the prefix."""
        return int((self._positive_counts > self._negative_counts).sum())

    def coverage_counts(self, min_votes: int) -> Tuple[int, int]:
        """``(covered, sample_errors)`` for the extrapolation baseline."""
        positives, negatives = self._positive_counts, self._negative_counts
        covered_mask = (positives + negatives) >= min_votes
        sample_errors = int((covered_mask & (positives > negatives)).sum())
        return int(covered_mask.sum()), sample_errors

    @cached_property
    def _switch_stats(self):
        return switch_statistics(self._matrix, self.num_columns)

    def switch_stats(self):
        """Switch statistics of the prefix (scanned on first access)."""
        return self._switch_stats

    def majority_count_back(self, lookback: int) -> int:
        """``c_majority`` at ``num_columns - lookback`` columns."""
        position = self.num_columns - _resolve_lookback(lookback, self.num_columns)
        positives = self._matrix.positive_counts(position)
        negatives = self._matrix.negative_counts(position)
        return int((positives > negatives).sum())


class _SweepTables:
    """Lazily-computed checkpoint tables shared by a whole sweep.

    One instance serves every checkpoint state of a sweep *and* every
    estimator evaluated over it: the positive/negative count tables, the
    fingerprints, the switch scan and the majority history are each
    computed at most once per (matrix, checkpoints) pair, no matter how
    many estimators consume them.
    """

    def __init__(self, matrix: ResponseMatrix, resolved: Sequence[int]):
        self.matrix = matrix
        self.resolved = list(resolved)

    @cached_property
    def positive_table(self) -> np.ndarray:
        return self.matrix.positive_counts_at(self.resolved)

    @cached_property
    def negative_table(self) -> np.ndarray:
        return self.matrix.negative_counts_at(self.resolved)

    @cached_property
    def positive_fingerprints(self) -> List[Fingerprint]:
        return fingerprints_from_count_table(self.positive_table)

    @cached_property
    def nominal_counts(self) -> np.ndarray:
        return (self.positive_table > 0).sum(axis=1)

    @cached_property
    def majority_counts(self) -> np.ndarray:
        return (self.positive_table > self.negative_table).sum(axis=1)

    @cached_property
    def switch_stats(self) -> list:
        return _estimation_sweep(self.matrix, self.resolved)

    @cached_property
    def majority_history(self) -> np.ndarray:
        return majority_count_history(self.matrix)


class MatrixSweepState:
    """One checkpoint's estimation state, backed by shared sweep tables."""

    def __init__(self, tables: _SweepTables, index: int):
        self._tables = tables
        self._index = index
        self.num_items = tables.matrix.num_items
        self.num_columns = tables.resolved[index]

    def positive_fingerprint(self) -> Fingerprint:
        """f-statistics over per-item positive-vote counts."""
        return self._tables.positive_fingerprints[self._index]

    def nominal_count(self) -> int:
        """``c_nominal`` of the checkpoint prefix."""
        return int(self._tables.nominal_counts[self._index])

    def majority_count(self) -> int:
        """``c_majority`` of the checkpoint prefix."""
        return int(self._tables.majority_counts[self._index])

    def coverage_counts(self, min_votes: int) -> Tuple[int, int]:
        """``(covered, sample_errors)`` for the extrapolation baseline."""
        positives = self._tables.positive_table[self._index]
        negatives = self._tables.negative_table[self._index]
        covered_mask = (positives + negatives) >= min_votes
        sample_errors = int((covered_mask & (positives > negatives)).sum())
        return int(covered_mask.sum()), sample_errors

    def switch_stats(self):
        """Switch statistics of the checkpoint prefix (shared scan)."""
        return self._tables.switch_stats[self._index]

    def majority_count_back(self, lookback: int) -> int:
        """``c_majority`` at ``num_columns - lookback`` columns."""
        position = self.num_columns - _resolve_lookback(lookback, self.num_columns)
        return int(self._tables.majority_history[position])


def matrix_sweep_states(
    matrix: ResponseMatrix, checkpoints: Sequence[int]
) -> List[MatrixSweepState]:
    """One estimation state per checkpoint, all backed by shared tables.

    Passing the returned list to several estimators (as
    :func:`repro.core.base.sweep_estimates` and the experiment runner do)
    shares the underlying count tables and switch scan across all of
    them — the matrix is walked once per sweep, not once per estimator.
    """
    resolved = [matrix.resolve_upto(checkpoint) for checkpoint in checkpoints]
    tables = _SweepTables(matrix, resolved)
    return [MatrixSweepState(tables, index) for index in range(len(resolved))]


class PermutationBatch:
    """Batched estimation states for ``R`` column permutations of one matrix.

    The experiment runner averages every trajectory over random column
    permutations of the *same* collected matrix.  Evaluating them one at a
    time repeats identical work ``R`` times: each permutation re-derives
    its checkpoint count tables, re-scans the matrix for switches and
    re-builds Python fingerprints.  This class restructures the data
    layout instead: the permuted matrices are stacked into one
    ``(R, N, K)`` tensor, the checkpoint count tables become one
    ``(R, m, N)`` pass, and — because the switch scan treats rows
    independently — all ``R`` switch scans collapse into a **single**
    :class:`~repro.core.switch._SwitchScan` over the ``(R * N, K)``
    reshaped stack.

    Consumers come in two flavours:

    * estimators with a batched fast path
      (``estimate_sweep_batch``) reduce their sufficient statistics
      straight from :attr:`positive_table` / :attr:`negative_table` /
      :meth:`switch_stats`;
    * everything else evaluates ``estimate_state`` over :meth:`states`,
      whose per-cell states satisfy the :class:`EstimationState` protocol
      and are backed by the same shared tables.

    Every quantity either path reads is integer-exact and identical to
    what ``matrix.permute_columns(order)`` + :func:`matrix_sweep_states`
    would produce, which is what makes the batched estimates bit-identical
    to the serial per-permutation sweep (pinned by the golden scenarios
    and a hypothesis property test).

    Parameters
    ----------
    matrix:
        The fully collected worker-response matrix.
    orders:
        One column order per permutation; ``None`` entries mean the
        original column order.  Each order must be a permutation of
        ``range(matrix.num_columns)``.
    checkpoints:
        Prefix lengths to evaluate at (resolved with
        :meth:`~repro.crowd.response_matrix.ResponseMatrix.resolve_upto`,
        shared by every permutation).

    The switch scan runs the fused kernels when numba imports and the
    vectorised reference otherwise (``_FUSED_SCANS``, read here at
    construction); both give the same integers.
    """

    def __init__(
        self,
        matrix: ResponseMatrix,
        orders: Sequence[Optional[Sequence[int]]],
        checkpoints: Sequence[int],
    ):
        self._fused = _FUSED_SCANS
        self.matrix = matrix
        self.num_items = matrix.num_items
        num_columns = matrix.num_columns
        identity = np.arange(num_columns, dtype=np.intp)
        rows = []
        self._is_identity: List[bool] = []
        for order in orders:
            if order is None:
                rows.append(identity)
                self._is_identity.append(True)
                continue
            candidate = np.asarray([int(i) for i in order], dtype=np.intp)
            if candidate.shape != identity.shape or not np.array_equal(
                np.sort(candidate), identity
            ):
                raise ValidationError(
                    "every order must be a permutation of the column indices "
                    f"0..{num_columns - 1}, got {list(order)!r}"
                )
            rows.append(candidate)
            self._is_identity.append(False)
        if not rows:
            raise ValidationError("at least one permutation order is required")
        self._orders = np.vstack(rows)  # (R, K)
        self.num_permutations = len(rows)
        self.checkpoints = list(checkpoints)
        self.resolved = [matrix.resolve_upto(cp) for cp in self.checkpoints]
        self.num_checkpoints = len(self.resolved)
        self._switch_cells: Dict[Tuple[int, int], _EstimationSwitchStats] = {}
        self._sweep_cells: Dict[int, _SwitchSweepCells] = {}
        self._state_lists: Dict[int, List["PermutationSweepState"]] = {}

    # ------------------------------------------------------------------ #
    # shared tables (all lazy: a batch of voting-only estimators never
    # pays for the switch scan, and vice versa)
    # ------------------------------------------------------------------ #
    @cached_property
    def _stacked(self) -> np.ndarray:
        """(R, N, K) int8 — every permuted matrix, stacked."""
        gathered = self.matrix.values[:, self._orders]  # (N, R, K)
        return np.ascontiguousarray(gathered.transpose(1, 0, 2))

    def _label_table(self, label: int) -> np.ndarray:
        """(R, m, N) per-item counts of ``label`` votes at each checkpoint.

        The same incremental segment-sum scheme as
        :meth:`ResponseMatrix._label_counts_at`, run once over the whole
        stack: one pass over ``R x N x K`` covers every permutation and
        every checkpoint.
        """
        resolved = self.resolved
        if not resolved:
            return np.zeros((self.num_permutations, 0, self.num_items), dtype=np.int32)
        mask = self._stacked == label
        # int32 halves the table's memory traffic; counts are bounded by
        # the column count, far below the int32 range.
        running = np.zeros((self.num_permutations, self.num_items), np.int32)
        table: Dict[int, np.ndarray] = {}
        previous = 0
        for checkpoint in sorted(set(resolved)):
            if checkpoint > previous:
                running = running + mask[:, :, previous:checkpoint].sum(
                    axis=2, dtype=np.int32
                )
            table[checkpoint] = running
            previous = checkpoint
        return np.stack([table[checkpoint] for checkpoint in resolved], axis=1)

    @cached_property
    def positive_table(self) -> np.ndarray:
        """``n_i^+`` as an ``(R, m, N)`` table (permutation x checkpoint x item)."""
        return self._label_table(DIRTY)

    @cached_property
    def negative_table(self) -> np.ndarray:
        """``n_i^-`` as an ``(R, m, N)`` table."""
        return self._label_table(CLEAN)

    @cached_property
    def nominal_counts(self) -> np.ndarray:
        """``c_nominal`` per (permutation, checkpoint) cell, ``(R, m)``."""
        return (self.positive_table > 0).sum(axis=2)

    @cached_property
    def majority_counts(self) -> np.ndarray:
        """``c_majority`` per (permutation, checkpoint) cell, ``(R, m)``."""
        return (self.positive_table > self.negative_table).sum(axis=2)

    @cached_property
    def _scan(self) -> _SwitchScan:
        """One switch scan over all permutations (rows are independent)."""
        flat = self._stacked.reshape(
            self.num_permutations * self.num_items, self.matrix.num_columns
        )
        return _SwitchScan(flat, fused=self._fused)

    @cached_property
    def _event_offsets(self) -> np.ndarray:
        """Event-array slice boundaries per permutation (events are row-sorted)."""
        bounds = np.arange(self.num_permutations + 1) * self.num_items
        return np.searchsorted(self._scan.event_rows, bounds)

    @cached_property
    def _events_by_column(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per permutation: global event indices sorted by column, plus the
        sorted columns themselves.

        Checkpoints are prefixes of the column-sorted order, so one
        ``searchsorted`` + slice per cell replaces a full comparison scan
        of the permutation's events.
        """
        scan, offsets = self._scan, self._event_offsets
        ordered = []
        for permutation in range(self.num_permutations):
            low, high = offsets[permutation : permutation + 2]
            columns = scan.event_cols[low:high]
            order = np.argsort(columns, kind="stable")
            ordered.append((low + order, columns[order]))
        return ordered

    @cached_property
    def _cell_vote_totals(self) -> np.ndarray:
        """Total votes per (permutation, checkpoint) cell, ``(R, m)``.

        One gather of the scan's cumulative seen counts at the checkpoint
        columns covers every cell at once.
        """
        resolved = np.asarray(self.resolved, dtype=np.int64)
        totals = np.zeros((self.num_permutations, resolved.size), dtype=np.int64)
        nonzero = resolved > 0
        if nonzero.any():
            gathered = self._scan.seen_cum[:, resolved[nonzero] - 1]
            totals[:, nonzero] = gathered.reshape(
                self.num_permutations, self.num_items, -1
            ).sum(axis=1, dtype=np.int64)
        return totals

    def switch_sweep_cells(self, permutation: int) -> _SwitchSweepCells:
        """Vectorised per-checkpoint switch statistics of one permutation.

        The batched SWITCH estimators consume these; cached so the
        remaining-switch and total-error estimators of one batch share the
        single ``(events x checkpoints)`` pass.
        """
        cells = self._sweep_cells.get(permutation)
        if cells is None:
            low, high = self._event_offsets[permutation : permutation + 2]
            cells = _SwitchSweepCells(
                self._scan,
                int(low),
                int(high),
                self.resolved,
                self._cell_vote_totals[permutation],
            )
            self._sweep_cells[permutation] = cells
        return cells

    def switch_stats(self, permutation: int, index: int) -> _EstimationSwitchStats:
        """Array-backed switch statistics of one (permutation, checkpoint) cell.

        Cells are cached so the SWITCH and SWITCH-total estimators of one
        batch share them; all quantities are integers identical to
        ``switch_statistics(permuted_matrix, checkpoint)``.
        """
        key = (permutation, index)
        cell = self._switch_cells.get(key)
        if cell is None:
            scan = self._scan
            upto = self.resolved[index]
            sorted_index, sorted_columns = self._events_by_column[permutation]
            cut = int(np.searchsorted(sorted_columns, upto, side="left"))
            # Ascending global indices restore the row-major scan order the
            # statistics require.
            active = np.sort(sorted_index[:cut])
            cell = _EstimationSwitchStats(
                rediscoveries=scan.rediscoveries(upto, active),
                states=scan.event_states[active],
                rows=scan.event_rows[active],
                total_votes=int(self._cell_vote_totals[permutation, index]),
            )
            self._switch_cells[key] = cell
        return cell

    @cached_property
    def majority_history(self) -> np.ndarray:
        """``c_majority`` after every prefix of every permutation, ``(R, K+1)``.

        Folded from the scan's per-vote majority deltas (one ``bincount``
        per permutation over its seen votes), so trend lookbacks at
        arbitrary positions — what the SWITCH total-error estimator needs —
        cost O(votes) for the whole batch, not O(N x K) per permutation.
        """
        num_columns = self.matrix.num_columns
        history = np.zeros((self.num_permutations, num_columns + 1), dtype=np.int64)
        if num_columns:
            scan = self._scan
            bounds = np.searchsorted(
                scan.vote_rows, np.arange(self.num_permutations + 1) * self.num_items
            )
            for permutation in range(self.num_permutations):
                low, high = bounds[permutation : permutation + 2]
                # Integer deltas summed in the bincount's float64
                # accumulator stay exact (|sum| <= K << 2**53).
                net_per_column = np.bincount(
                    scan.vote_cols[low:high],
                    weights=scan.vote_majority_delta[low:high],
                    minlength=num_columns,
                ).astype(np.int64)
                np.cumsum(net_per_column, out=history[permutation, 1:])
        return history

    # ------------------------------------------------------------------ #
    # per-permutation access
    # ------------------------------------------------------------------ #
    def permuted_matrix(self, permutation: int) -> ResponseMatrix:
        """Materialise one permutation as a :class:`ResponseMatrix`.

        Only the fallback path for estimate-only third-party estimators
        needs this; the identity order returns the original matrix.
        """
        if self._is_identity[permutation]:
            return self.matrix
        return self.matrix.permute_columns(
            [int(i) for i in self._orders[permutation]]
        )

    def states(self, permutation: int) -> List["PermutationSweepState"]:
        """One :class:`EstimationState` per checkpoint of one permutation.

        The list (and the lazy fingerprints of its states) is cached, so
        several estimators evaluating the same batch share every derived
        statistic — mirroring what :func:`matrix_sweep_states` does for a
        single sweep.
        """
        states = self._state_lists.get(permutation)
        if states is None:
            states = [
                PermutationSweepState(self, permutation, index)
                for index in range(self.num_checkpoints)
            ]
            self._state_lists[permutation] = states
        return states


class PermutationSweepState:
    """One (permutation, checkpoint) estimation state of a batch.

    The batch analogue of :class:`MatrixSweepState`: every accessor reads
    the shared stacked tables of its :class:`PermutationBatch`, returning
    integers bit-identical to the state of the materialised permuted
    matrix.
    """

    def __init__(self, batch: PermutationBatch, permutation: int, index: int):
        self._batch = batch
        self._permutation = permutation
        self._index = index
        self._fingerprint: Optional[Fingerprint] = None
        self.num_items = batch.num_items
        self.num_columns = batch.resolved[index]

    def positive_fingerprint(self) -> Fingerprint:
        """f-statistics over per-item positive-vote counts (lazy, cached)."""
        if self._fingerprint is None:
            counts = self._batch.positive_table[self._permutation, self._index]
            self._fingerprint = fingerprint_from_counts(counts.tolist())
        return self._fingerprint

    def nominal_count(self) -> int:
        """``c_nominal`` of the cell's prefix."""
        return int(self._batch.nominal_counts[self._permutation, self._index])

    def majority_count(self) -> int:
        """``c_majority`` of the cell's prefix."""
        return int(self._batch.majority_counts[self._permutation, self._index])

    def coverage_counts(self, min_votes: int) -> Tuple[int, int]:
        """``(covered, sample_errors)`` for the extrapolation baseline."""
        positives = self._batch.positive_table[self._permutation, self._index]
        negatives = self._batch.negative_table[self._permutation, self._index]
        covered_mask = (positives + negatives) >= min_votes
        sample_errors = int((covered_mask & (positives > negatives)).sum())
        return int(covered_mask.sum()), sample_errors

    def switch_stats(self) -> _EstimationSwitchStats:
        """Switch statistics of the cell (shared cross-permutation scan)."""
        return self._batch.switch_stats(self._permutation, self._index)

    def majority_count_back(self, lookback: int) -> int:
        """``c_majority`` at ``num_columns - lookback`` columns."""
        position = self.num_columns - _resolve_lookback(lookback, self.num_columns)
        return int(self._batch.majority_history[self._permutation, position])


class StreamingState:
    """Live estimation state maintained one worker response at a time.

    The streaming counterpart of :class:`MatrixPrefixState`: rather than
    deriving statistics from a stored matrix, it keeps every statistic an
    estimator reads — per-item count deltas, consensus margins, the
    positive-vote fingerprint, coverage histograms, the cumulative-margin
    switch fingerprint and the majority-count history — permanently up to
    date.  Ingesting a column that touches ``t`` items costs O(``t``),
    independent of how many columns came before; reading an estimate is
    then O(statistics), not O(matrix).

    After ingesting the first ``j`` columns of a matrix, every accessor
    returns integers bit-identical to ``MatrixPrefixState(matrix, j)``.
    This class is the state engine; use
    :class:`repro.streaming.StreamingSession` for the user-facing API
    (vote validation, estimator dispatch, matrix materialisation).
    """

    def __init__(self, item_ids: Sequence[int]):
        item_ids = list(item_ids)
        if len(set(item_ids)) != len(item_ids):
            raise ValidationError("item_ids must be unique")
        if not item_ids:
            raise ValidationError("a streaming state needs at least one item")
        self._item_ids = item_ids
        self._row_of: Dict[int, int] = {item: row for row, item in enumerate(item_ids)}
        self.num_items = len(item_ids)
        self.num_columns = 0
        self._positive = np.zeros(self.num_items, dtype=np.int64)
        self._negative = np.zeros(self.num_items, dtype=np.int64)
        self._positive_fingerprint = IncrementalFingerprint()
        self._nominal = 0
        self._majority = 0
        #: histogram of per-item total vote counts (key 0 included).
        self._votes_histogram: Dict[int, int] = {0: self.num_items}
        #: same histogram restricted to majority-dirty items.
        self._dirty_votes_histogram: Dict[int, int] = {}
        self._switch = IncrementalSwitchState(self.num_items)
        self._majority_history: List[int] = [0]

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    @property
    def item_ids(self) -> List[int]:
        """Item ids in row order."""
        return list(self._item_ids)

    def row_index(self, item_id: int) -> int:
        """Return the row index of ``item_id``."""
        try:
            return self._row_of[item_id]
        except KeyError:
            raise ValidationError(f"unknown item id {item_id}") from None

    def _bump_histogram(self, histogram: Dict[int, int], key: int, delta: int) -> None:
        updated = histogram.get(key, 0) + delta
        if updated:
            histogram[key] = updated
        else:
            histogram.pop(key, None)

    def _apply_vote(self, row: int, vote: int) -> None:
        """Fold one vote into every maintained statistic (O(1))."""
        old_positive = int(self._positive[row])
        old_negative = int(self._negative[row])
        old_total = old_positive + old_negative
        was_dirty = old_positive > old_negative
        if vote == DIRTY:
            self._positive[row] = old_positive + 1
            self._positive_fingerprint.reclassify(old_positive, old_positive + 1)
            self._positive_fingerprint.add_observations(1)
            if old_positive == 0:
                self._nominal += 1
        elif vote == CLEAN:
            self._negative[row] = old_negative + 1
        else:
            raise ValidationError(f"votes must be DIRTY or CLEAN, got {vote!r}")
        is_dirty = int(self._positive[row]) > int(self._negative[row])
        self._bump_histogram(self._votes_histogram, old_total, -1)
        self._bump_histogram(self._votes_histogram, old_total + 1, +1)
        if was_dirty:
            self._bump_histogram(self._dirty_votes_histogram, old_total, -1)
        if is_dirty:
            self._bump_histogram(self._dirty_votes_histogram, old_total + 1, +1)
        self._majority += int(is_dirty) - int(was_dirty)
        self._switch.observe(row, vote)

    def apply_column(self, rows: Sequence[int], votes: Sequence[int]) -> None:
        """Ingest one worker-task column touching the given item rows.

        ``rows`` and ``votes`` are aligned; items not listed are UNSEEN for
        this column.  The column boundary is what advances
        ``num_columns`` and extends the majority-count history.
        """
        for row, vote in zip(rows, votes):
            self._apply_vote(row, vote)
        self.num_columns += 1
        self._majority_history.append(self._majority)

    # ------------------------------------------------------------------ #
    # the EstimationState interface
    # ------------------------------------------------------------------ #
    def positive_fingerprint(self) -> Fingerprint:
        """f-statistics over per-item positive-vote counts."""
        return self._positive_fingerprint.snapshot()

    def nominal_count(self) -> int:
        """``c_nominal`` of everything ingested so far."""
        return self._nominal

    def majority_count(self) -> int:
        """``c_majority`` of everything ingested so far."""
        return self._majority

    def coverage_counts(self, min_votes: int) -> Tuple[int, int]:
        """``(covered, sample_errors)`` from the maintained histograms."""
        min_votes = int(min_votes)
        uncovered = sum(self._votes_histogram.get(n, 0) for n in range(min_votes))
        uncovered_dirty = sum(
            self._dirty_votes_histogram.get(n, 0) for n in range(min_votes)
        )
        return self.num_items - uncovered, self._majority - uncovered_dirty

    def switch_stats(self) -> IncrementalSwitchState:
        """The live switch statistics (same interface as the batch scan)."""
        return self._switch

    def majority_count_back(self, lookback: int) -> int:
        """``c_majority`` as it was ``lookback`` columns ago."""
        return self._majority_history[
            self.num_columns - _resolve_lookback(lookback, self.num_columns)
        ]

    # ------------------------------------------------------------------ #
    # snapshot codec
    # ------------------------------------------------------------------ #
    def to_arrays(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """Serialise the full live state into arrays plus JSON-safe metadata.

        The arrays dictionary is ``np.savez``-able; the metadata dictionary
        is ``json.dumps``-able.  Together they capture every maintained
        statistic — counts, fingerprints, histograms, the switch tracker
        and the majority history — so :meth:`from_arrays` rebuilds a state
        that is bit-identical to this one *and stays bit-identical* under
        any further ingestion (the snapshot/restore guarantee of
        :mod:`repro.streaming`).
        """
        arrays: Dict[str, np.ndarray] = {
            "item_ids": np.asarray(self._item_ids, dtype=np.int64),
            "positive": self._positive.copy(),
            "negative": self._negative.copy(),
            "majority_history": np.asarray(self._majority_history, dtype=np.int64),
        }
        switch_arrays, switch_meta = self._switch.to_arrays()
        for key, value in switch_arrays.items():
            arrays[f"switch_{key}"] = value
        meta: Dict[str, object] = {
            "num_columns": int(self.num_columns),
            "nominal": int(self._nominal),
            "majority": int(self._majority),
            "votes_histogram": {
                str(k): int(v) for k, v in self._votes_histogram.items()
            },
            "dirty_votes_histogram": {
                str(k): int(v) for k, v in self._dirty_votes_histogram.items()
            },
            "positive_fingerprint": self._positive_fingerprint.state_dict(),
            "switch": switch_meta,
        }
        return arrays, meta

    @classmethod
    def from_arrays(
        cls, arrays: Dict[str, np.ndarray], meta: Dict[str, object]
    ) -> "StreamingState":
        """Rebuild a live state from :meth:`to_arrays` output."""
        item_ids = [int(item) for item in np.asarray(arrays["item_ids"])]
        state = cls(item_ids)
        positive = np.asarray(arrays["positive"], dtype=np.int64)
        negative = np.asarray(arrays["negative"], dtype=np.int64)
        if positive.shape != (state.num_items,) or negative.shape != (state.num_items,):
            raise ValidationError("count arrays must match the item dimension")
        state._positive = positive.copy()
        state._negative = negative.copy()
        state.num_columns = int(meta["num_columns"])
        state._nominal = int(meta["nominal"])
        state._majority = int(meta["majority"])
        state._votes_histogram = {
            int(k): int(v) for k, v in meta["votes_histogram"].items()
        }
        state._dirty_votes_histogram = {
            int(k): int(v) for k, v in meta["dirty_votes_histogram"].items()
        }
        state._positive_fingerprint = IncrementalFingerprint.from_state_dict(
            meta["positive_fingerprint"]
        )
        switch_arrays = {
            key[len("switch_"):]: value
            for key, value in arrays.items()
            if key.startswith("switch_")
        }
        state._switch = IncrementalSwitchState.from_arrays(switch_arrays, meta["switch"])
        if state._switch._margin.shape != (state.num_items,):
            raise ValidationError("switch arrays must match the item dimension")
        history = [int(v) for v in np.asarray(arrays["majority_history"])]
        if len(history) != state.num_columns + 1:
            raise ValidationError(
                "majority history must hold one entry per ingested column plus "
                f"the origin; got {len(history)} for {state.num_columns} column(s)"
            )
        state._majority_history = history
        return state

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> Tuple[int, int, int]:
        """Monotonic mutation version of the state.

        Changes whenever any maintained statistic can have changed: every
        vote advances ``total_votes``, every column boundary advances
        ``num_columns``, and the positive fingerprint carries its own
        mutation counter.  The serving layer keys its estimate cache on
        this tuple.
        """
        return (self.num_columns, self.total_votes, self._positive_fingerprint.version)

    @property
    def total_votes(self) -> int:
        """Total number of votes ingested."""
        return self._switch.total_votes

    def positive_counts(self) -> np.ndarray:
        """``n_i^+`` — a copy of the per-item dirty-vote counts."""
        return self._positive.copy()

    def negative_counts(self) -> np.ndarray:
        """``n_i^-`` — a copy of the per-item clean-vote counts."""
        return self._negative.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"StreamingState(num_items={self.num_items}, "
            f"num_columns={self.num_columns}, votes={self.total_votes})"
        )
