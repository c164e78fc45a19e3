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
  permutations** at once: the matrix's votes are read once and mapped to
  their position in every permutation, the ``R`` switch scans collapse
  into a single scan of one vote stream, and every per-cell statistic is
  a running sum over that stream or, for dense matrices, a reduction of
  ``(R, m, N)`` count tables (the engine of the permutation-averaged
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
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.common.exceptions import ValidationError
from repro.common.labels import CLEAN, DIRTY
from repro.common.validation import check_int, check_order
from repro.core.fstatistics import (
    Fingerprint,
    IncrementalFingerprint,
    fingerprint_from_counts,
    fingerprints_from_count_table,
)
from repro.core.switch import (
    IncrementalSwitchState,
    _CellGrid,
    _estimation_sweep,
    _lifetime_sums,
    _run_sums,
    _stream_key_dtype,
    _SwitchCells,
    _SwitchScan,
    _vote_list,
    switch_statistics,
)
from repro.crowd.consensus import majority_count_history
from repro.crowd.response_matrix import ResponseMatrix


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
        return _estimation_sweep(
            _SwitchScan.of(self.matrix.values),
            slice(None),
            self.resolved,
            self.positive_table + self.negative_table,
        )

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


class PositiveMoments(NamedTuple):
    """Per-cell moments of the positive-vote counts ``n_i``, each ``(R, m)`` int64.

    Every fingerprint statistic chao92 and vChao92 (``s = 1``) read is an
    exact integer combination of these four and ``c_nominal``.
    """

    #: ``sum_i n_i`` — the positive votes ``n``.
    total: np.ndarray
    #: ``sum_i n_i^2``.
    squares: np.ndarray
    #: Items with exactly one positive vote (``f_1``).
    singletons: np.ndarray
    #: Items with exactly two positive votes (``f_2``).
    doubletons: np.ndarray


#: Votes per checkpoint-item cell below which a batch reads its cell
#: statistics from the vote stream (see :func:`_reads_stream`): when no
#: reader of the batch builds the switch scan, and when one does.  Each
#: lies midway between the last density of its sweep where the stream
#: path won on most shapes and the first where it lost on most.
_STREAM_DENSITY = 0.175
_STREAM_DENSITY_SCANNED = 1.375


def _reads_stream(
    num_votes: int, num_items: int, num_checkpoints: int, reads_switch_scan: bool
) -> bool:
    """Whether a batch derives its cell statistics from the vote stream.

    The count-table path costs ``O(R x m x N)`` (the tables and every
    reduction over them), the stream path ``O(R x V)`` running sums of
    per-vote deltas over the switch scan, whose sort of the ``R x V``
    vote keys is its largest cost.  So the rule compares the matrix's
    ``V`` votes with its ``m x N`` checkpoint-item cells; ``R`` scales
    both sides alike, so the chunks of a parallel run choose alike.  When
    a SWITCH estimator reads the batch, it builds the scan on either path
    and only the running sums are extra: the stream path won on every
    shape measured at ``V = 0.5 m N``, on three of five at ``1.25`` and
    on none by more than 1 % from ``1.5``.  Without one it won on four
    of five at ``0.15`` and on one of five at ``0.2`` (the density
    sweeps in docs/performance.md).
    """
    density = _STREAM_DENSITY_SCANNED if reads_switch_scan else _STREAM_DENSITY
    return num_votes < density * num_checkpoints * num_items


class PermutationBatch:
    """Batched estimation states for ``R`` column permutations of one matrix.

    The experiment runner averages every trajectory over random column
    permutations of the *same* collected matrix.  Evaluating them one at a
    time repeats identical work ``R`` times: each permutation re-derives
    its checkpoint count tables, re-scans the matrix for switches and
    re-builds Python fingerprints.  This class restructures the data
    layout instead.  The matrix's votes are read once (``np.nonzero``)
    and each vote's column is mapped to its position in every permutation
    through the inverse orders, so nothing is ever ``R x N x K``, and —
    because the switch scan treats rows independently — all ``R`` switch
    scans collapse into a **single**
    :class:`~repro.core.switch._SwitchScan` over one row-major vote
    stream, row ``p * N + i`` being item ``i`` under permutation ``p``,
    built by one sort of packed vote keys.

    The ``(R, m)`` statistics of every (permutation, checkpoint) cell come
    from one of two cell paths, chosen by :func:`_reads_stream` from the
    batch's shape and ``reads_switch_scan``, with no loop over the
    permutations:

    * the **stream path**, for sparse matrices (the paper's task
      streams): every statistic is a running sum of per-vote deltas over
      the scan's stream — a ``bincount`` per group of statistics over
      (permutation, checkpoint bucket) keys, then one ``cumsum`` — and
      no ``(R, m, N)`` table is built;
    * the **table path**, for dense matrices: per-item ``(R, m, N)``
      count tables, one ``bincount`` per label, reduced per cell, and
      the switch sums from the scan's event lifetimes.  A batch that no
      SWITCH estimator reads builds no scan on this path.

    On both, the switch cells' vote totals come from per-column vote
    counts.

    Consumers come in two flavours:

    * estimators with a batched fast path (``estimate_sweep_batch``)
      read ``(R, m)`` per-cell statistics — :attr:`positive_moments`,
      :attr:`nominal_counts`, :attr:`majority_counts`,
      :meth:`coverage_counts`, :attr:`switch_sweep_cells` and
      :attr:`majority_history` — and evaluate every cell at once;
    * everything else evaluates ``estimate_state`` over :meth:`states`:
      the serial engine's :class:`MatrixSweepState`, reading one
      permutation's slice of the batch's count tables, which are built
      on first use on either path.

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
    reads_switch_scan:
        Whether an estimator that reads the switch scan (a SWITCH
        estimator, whose ``reads_switch_scan`` is true) will evaluate the
        batch.  The scan is then built on either path, which moves the
        density bound of :func:`_reads_stream`; the estimates are the same
        either way.
    """

    def __init__(
        self,
        matrix: ResponseMatrix,
        orders: Sequence[Optional[Sequence[int]]],
        checkpoints: Sequence[int],
        *,
        reads_switch_scan: bool = False,
    ):
        self.matrix = matrix
        self.reads_switch_scan = reads_switch_scan
        self.num_items = matrix.num_items
        num_columns = matrix.num_columns
        identity = np.arange(num_columns, dtype=np.intp)
        rows = []
        self._is_identity: List[bool] = []
        for order in orders:
            self._is_identity.append(order is None)
            rows.append(identity if order is None else check_order(order, num_columns))
        if not rows:
            raise ValidationError("at least one permutation order is required")
        self._orders = np.vstack(rows)  # (R, K)
        self.num_permutations = len(rows)
        self.checkpoints = list(checkpoints)
        self.resolved = [matrix.resolve_upto(cp) for cp in self.checkpoints]
        self.num_checkpoints = len(self.resolved)
        self._state_lists: Dict[int, List[MatrixSweepState]] = {}

    # ------------------------------------------------------------------ #
    # shared statistics (all lazy: on the table path a batch without a
    # SWITCH estimator never builds the switch scan, and on the stream
    # path only ``states(p)`` and vChao92 with a shift other than 1 build
    # the count tables)
    # ------------------------------------------------------------------ #
    @cached_property
    def _votes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Item, column and label of every vote of the matrix (row-major)."""
        return _vote_list(self.matrix.values)

    @cached_property
    def _positions(self) -> np.ndarray:
        """(R, K) position of each original column in every permutation."""
        num_permutations, num_columns = self._orders.shape
        positions = np.empty_like(self._orders)
        positions[np.arange(num_permutations)[:, None], self._orders] = np.arange(
            num_columns
        )
        return positions

    @cached_property
    def _grid(self) -> _CellGrid:
        """The (permutation, checkpoint bucket) grid every cell statistic is summed on."""
        return _CellGrid(
            self.num_permutations, self.num_items, self.matrix.num_columns, self.resolved
        )

    @cached_property
    def _from_stream(self) -> bool:
        """Whether the cell statistics come from the vote stream (see :func:`_reads_stream`)."""
        return _reads_stream(
            self._votes[0].size, self.num_items, self.num_checkpoints, self.reads_switch_scan
        )

    @cached_property
    def _bucket_keys(self) -> np.ndarray:
        """``keys[p, c]``: the cell key, times ``N``, of a vote in original column ``c``.

        Shared by both count tables; row ``p * N`` is permutation ``p``'s
        first stream row.
        """
        first_rows = np.arange(self.num_permutations)[:, None] * self.num_items
        return self._grid.keys(first_rows, self._positions) * self.num_items

    def _label_table(self, label: int) -> np.ndarray:
        """(R, m, N) per-item counts of ``label`` votes at each checkpoint.

        One ``bincount`` counts the label's votes per (permutation,
        checkpoint bucket, item), and a running sum over the buckets turns
        them into the counts at every distinct checkpoint — O(R x votes),
        however many checkpoints there are.  The sum is one ``np.add`` of
        ``(R, N)`` slices per bucket: ``np.cumsum`` along the middle axis
        of the ``(R, buckets, N)`` table took three times as long at the
        benchmark's sweep shape (0.64 against 0.20 ms per table).  The
        loop loses at a tiny ``N`` with hundreds of checkpoints (``N =
        10``, 300 checkpoints: 0.02 -> 0.45 ms per table), a shape no
        workload has, at sub-millisecond cost.
        """
        if not self.resolved:
            return np.zeros((self.num_permutations, 0, self.num_items), dtype=np.int32)
        grid = self._grid
        num_permutations, buckets = grid.shape
        items, columns, labels = self._votes
        chosen = labels == label
        counts = np.bincount(
            (self._bucket_keys[:, columns[chosen]] + items[chosen]).ravel(),
            minlength=grid.size * self.num_items,
        ).reshape(num_permutations, buckets, self.num_items)
        # int32 halves the table's memory traffic; counts are bounded by
        # the column count, far below the int32 range.
        table = np.empty((num_permutations, buckets - 1, self.num_items), dtype=np.int32)
        table[:, 0] = counts[:, 0]
        for bucket in range(1, buckets - 1):
            np.add(
                table[:, bucket - 1], counts[:, bucket], out=table[:, bucket], casting="unsafe"
            )
        return table[:, grid.slots]

    @cached_property
    def positive_table(self) -> np.ndarray:
        """``n_i^+`` as an ``(R, m, N)`` table (permutation x checkpoint x item)."""
        return self._label_table(DIRTY)

    @cached_property
    def negative_table(self) -> np.ndarray:
        """``n_i^-`` as an ``(R, m, N)`` table."""
        return self._label_table(CLEAN)

    @cached_property
    def _seen_table(self) -> np.ndarray:
        """``n_i`` (votes per item) as an ``(R, m, N)`` table."""
        return self.positive_table + self.negative_table

    @cached_property
    def _vote_keys(self) -> np.ndarray:
        """(R x V,) cell key of every vote of the stream."""
        return self._grid.keys(self._scan.vote_rows, self._scan.vote_cols)

    @cached_property
    def _prior_votes(self) -> np.ndarray:
        """(V,) votes the item of each stream slot received before it.

        Every permutation holds the same votes per item, so slot ``v`` of
        every permutation's ``V``-long block of the stream is vote
        ``prior[v] + 1`` of item ``items[v]`` of the row-major vote list.
        """
        items = self._votes[0]
        return np.arange(items.size) - np.searchsorted(items, items)

    def _by_slot(self, values: np.ndarray) -> np.ndarray:
        """A stream array as ``(R, V)``: permutation x slot."""
        return values.reshape(self.num_permutations, -1)

    @cached_property
    def _positive_sums(self) -> np.ndarray:
        """``(5, R, m)`` stream-path positive-count statistics.

        Rows: ``sum_i n_i``, ``sum_i n_i^2``, ``f_1``, ``f_2`` and
        ``c_nominal``.  Only dirty votes move them: a dirty vote on an
        item with ``a`` earlier positive votes adds 1 to ``n`` and ``2a +
        1`` to ``sum n^2``; it adds an item to ``c_nominal`` and ``f_1``
        at ``a = 0``, moves one from ``f_1`` to ``f_2`` at ``a = 1`` and
        takes one out of ``f_2`` at ``a = 2``.  ``a`` comes from the
        scan's margin after the vote, ``(prior votes + margin - 1) / 2``.
        One ``bincount`` of the dirty votes by cell and ``min(a, 3)``
        and one ``np.add.at`` of ``a`` fill the cells; both count in
        int64, so every cell is exact.
        """
        scan, grid = self._scan, self._grid
        dirty = np.flatnonzero(scan.vote_labels == DIRTY)
        keys = self._vote_keys[dirty]
        halves = self._by_slot(scan.vote_margin) + (self._prior_votes - 1)
        earlier = halves.ravel()[dirty] >> 1
        classes = np.bincount(
            4 * keys + np.minimum(earlier, 3), minlength=4 * grid.size
        ).reshape(grid.size, 4).T
        earlier_sum = np.zeros(grid.size, dtype=np.int64)
        np.add.at(earlier_sum, keys, earlier)
        total = classes.sum(axis=0)
        return grid.running(
            np.stack(
                [
                    total,
                    total + 2 * earlier_sum,
                    classes[0] - classes[1],
                    classes[1] - classes[2],
                    classes[0],
                ]
            )
        )

    @cached_property
    def nominal_counts(self) -> np.ndarray:
        """``c_nominal`` per (permutation, checkpoint) cell, ``(R, m)``."""
        if self._from_stream:
            return self._positive_sums[4]
        return (self.positive_table > 0).sum(axis=2)

    @cached_property
    def majority_counts(self) -> np.ndarray:
        """``c_majority`` per (permutation, checkpoint) cell, ``(R, m)``.

        On the stream path it is read from :attr:`majority_history` at the
        checkpoints; on the table path it is reduced from the count
        tables, so a batch without a SWITCH estimator builds no scan.
        """
        if self._from_stream:
            return self.majority_history[:, self.resolved]
        return (self.positive_table > self.negative_table).sum(axis=2)

    @cached_property
    def positive_moments(self) -> PositiveMoments:
        """One pass of per-cell positive-count moments, shared by chao92 and vChao92.

        Sums and squares accumulate in int64, so they are exact for any
        count; no per-count histogram is built, whose width would grow
        with the largest count.
        """
        if self._from_stream:
            return PositiveMoments(*self._positive_sums[:4])
        positives = self.positive_table
        return PositiveMoments(
            total=positives.sum(axis=2, dtype=np.int64),
            squares=np.einsum("rmn,rmn->rm", positives, positives, dtype=np.int64),
            singletons=np.count_nonzero(positives == 1, axis=2),
            doubletons=np.count_nonzero(positives == 2, axis=2),
        )

    def coverage_counts(self, min_votes: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(covered, sample_errors)`` per cell, each ``(R, m)``.

        The batch form of :meth:`MatrixSweepState.coverage_counts`:
        items with at least ``min_votes`` votes, and those of them whose
        majority is dirty.  On the stream path an item becomes covered
        at its ``min_votes``-th vote, which adds it to the sample errors
        if its majority is dirty then; from its next vote on, its
        majority deltas move them.
        """
        if not self._from_stream:
            covered_mask = self._seen_table >= min_votes
            covered = covered_mask.sum(axis=2)
            if min_votes <= 1:
                # A majority-dirty item has a vote, so it is always covered.
                return covered, self.majority_counts
            sample_errors = (
                covered_mask & (self.positive_table > self.negative_table)
            ).sum(axis=2)
            return covered, sample_errors
        if min_votes <= 0:
            return np.full(self.majority_counts.shape, self.num_items), self.majority_counts
        scan, grid = self._scan, self._grid
        keys = self._by_slot(self._vote_keys)
        reaching = np.flatnonzero(self._prior_votes == min_votes - 1)
        covered = grid.count(keys[:, reaching].ravel())
        if min_votes == 1:
            return covered, self.majority_counts
        later = np.flatnonzero(self._prior_votes >= min_votes)
        sample_errors = np.zeros(grid.size, dtype=np.int64)
        np.add.at(
            sample_errors,
            keys[:, later].ravel(),
            self._by_slot(scan.vote_majority_delta)[:, later].ravel(),
        )
        dirty = self._by_slot(scan.vote_margin)[:, reaching] > 0
        sample_errors += np.bincount(keys[:, reaching][dirty], minlength=grid.size)
        return covered, grid.running(sample_errors)

    @cached_property
    def _scan(self) -> _SwitchScan:
        """One switch scan over every permutation's votes (rows are independent).

        The stream holds each vote once per permutation, at its position
        there.  Each vote packs into one key ``(item * K + position) * 2
        + is_dirty``; one ``np.sort`` per permutation row puts the keys
        in row-major order, and rows, columns and labels decode from
        them.  Every permutation holds the same votes per item, so after
        the sort slot ``v`` of every row belongs to item ``items[v]`` of
        the row-major vote list.
        """
        items, columns, labels = self._votes
        num_columns = self.matrix.num_columns
        dtype = _stream_key_dtype(self.num_items, num_columns)
        vote_keys = items.astype(dtype) * (2 * num_columns) + (labels == DIRTY)
        keys = vote_keys + (2 * self._positions).astype(dtype)[:, columns]
        keys.sort(axis=1)
        permutation = np.arange(self.num_permutations)[:, None]
        return _SwitchScan(
            (items + permutation * self.num_items).ravel(),
            ((keys >> 1) - items * num_columns).ravel(),
            (keys & 1).ravel(),
            num_columns,
        )

    @cached_property
    def _event_offsets(self) -> np.ndarray:
        """Event-array slice boundaries per permutation (events are row-sorted)."""
        bounds = np.arange(self.num_permutations + 1) * self.num_items
        return np.searchsorted(self._scan.event_rows, bounds)

    @cached_property
    def switch_sweep_cells(self) -> _SwitchCells:
        """Switch statistics of every cell as ``(R, m)`` tables.

        Both batched SWITCH estimators read this one object, filled from
        the shared scan for all permutations at once; every cell equals
        ``switch_statistics(permuted_matrix, checkpoint)``.  The vote
        totals come from per-column vote counts, and the rediscovery
        sums from event lifetimes and the count tables, or on the stream
        path from per-vote deltas.
        """
        scan, grid = self._scan, self._grid
        if self._from_stream:
            sums = _run_sums(scan, grid, self._vote_keys)
        else:
            sums = _lifetime_sums(scan, grid, self._seen_table)
        per_column = np.bincount(self._votes[1], minlength=self.matrix.num_columns)
        running = np.zeros((self.num_permutations, self.matrix.num_columns + 1), dtype=np.int64)
        np.cumsum(per_column[self._orders], axis=1, out=running[:, 1:])
        return _SwitchCells(scan, grid, running[:, self.resolved], sums)

    @cached_property
    def majority_history(self) -> np.ndarray:
        """``c_majority`` after every prefix of every permutation, ``(R, K+1)``.

        Folded from the scan's per-vote majority deltas (one ``bincount``
        per permutation over its votes), so trend lookbacks at
        arbitrary positions — what the SWITCH total-error estimator needs —
        cost O(votes) for the whole batch, not O(N x K) per permutation.
        Every permutation holds the matrix's ``V`` votes, so its votes are
        one ``V``-long block of the stream.  One ``bincount`` over
        (permutation, column) keys took longer at ``R = 32`` (5.9 -> 7.9
        ms), for the ``(R, V)`` key array it writes.
        """
        num_permutations, num_columns = self._orders.shape
        history = np.zeros((num_permutations, num_columns + 1), dtype=np.int64)
        if num_columns:
            scan = self._scan
            columns = scan.vote_cols.reshape(num_permutations, -1)
            deltas = scan.vote_majority_delta.reshape(num_permutations, -1)
            for permutation in range(num_permutations):
                # Integer deltas summed in the bincount's float64
                # accumulator stay exact (|sum| <= N << 2**53).
                net_per_column = np.bincount(
                    columns[permutation], weights=deltas[permutation], minlength=num_columns
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
        return self.matrix.permute_columns(self._orders[permutation])

    def states(self, permutation: int) -> List[MatrixSweepState]:
        """One :class:`MatrixSweepState` per checkpoint of one permutation.

        The states read :class:`_PermutationTables`, slices of the
        batch's shared tables.  The list (and the fingerprints of its
        tables) is cached, so several estimators evaluating the same batch
        share every derived statistic — as :func:`matrix_sweep_states`
        does for a single sweep.
        """
        states = self._state_lists.get(permutation)
        if states is None:
            tables = _PermutationTables(self, permutation)
            states = [MatrixSweepState(tables, index) for index in range(self.num_checkpoints)]
            self._state_lists[permutation] = states
        return states


class _PermutationTables(_SweepTables):
    """The sweep tables of one permutation of a :class:`PermutationBatch`.

    The count tables and the majority history are slices of the batch's,
    and the switch statistics come from the permutation's block of the
    batch's one scan; the serial engine's :class:`MatrixSweepState` reads
    them as it reads a matrix's own tables, and the integers are the
    same.
    """

    def __init__(self, batch: PermutationBatch, permutation: int):
        super().__init__(batch.matrix, batch.resolved)
        self._batch = batch
        self._permutation = permutation

    @cached_property
    def positive_table(self) -> np.ndarray:
        return self._batch.positive_table[self._permutation]

    @cached_property
    def negative_table(self) -> np.ndarray:
        return self._batch.negative_table[self._permutation]

    @cached_property
    def switch_stats(self) -> list:
        batch, permutation = self._batch, self._permutation
        low, high = batch._event_offsets[permutation : permutation + 2]
        return _estimation_sweep(
            batch._scan, slice(low, high), self.resolved, batch._seen_table[permutation]
        )

    @cached_property
    def majority_history(self) -> np.ndarray:
        return self._batch.majority_history[self._permutation]


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
        # Per-item counts are Python lists: a vote reads and writes a few
        # of them, and list items cost a fraction of numpy scalar access.
        # The snapshot codec converts them to arrays.
        self._positive = [0] * self.num_items
        self._negative = [0] * self.num_items
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

    def apply_column(self, rows: Sequence[int], votes: Sequence[int]) -> None:
        """Ingest one worker-task column touching the given item rows.

        ``rows`` and ``votes`` are aligned; items not listed are UNSEEN for
        this column.  Each vote is folded into every maintained statistic
        in O(1).  The column boundary is what advances ``num_columns`` and
        extends the majority-count history.
        """
        positive, negative = self._positive, self._negative
        fingerprint = self._positive_fingerprint
        bump = self._bump_histogram
        totals, dirty_totals = self._votes_histogram, self._dirty_votes_histogram
        observe = self._switch.observe
        for row, vote in zip(rows, votes):
            old_positive = positive[row]
            old_negative = negative[row]
            old_total = old_positive + old_negative
            was_dirty = old_positive > old_negative
            if vote == DIRTY:
                positive[row] = old_positive + 1
                fingerprint.reclassify(old_positive, old_positive + 1)
                fingerprint.add_observations(1)
                if old_positive == 0:
                    self._nominal += 1
                is_dirty = old_positive + 1 > old_negative
            elif vote == CLEAN:
                negative[row] = old_negative + 1
                is_dirty = old_positive > old_negative + 1
            else:
                raise ValidationError(f"votes must be DIRTY or CLEAN, got {vote!r}")
            bump(totals, old_total, -1)
            bump(totals, old_total + 1, +1)
            if was_dirty:
                bump(dirty_totals, old_total, -1)
            if is_dirty:
                bump(dirty_totals, old_total + 1, +1)
            self._majority += is_dirty - was_dirty
            observe(row, vote)
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
            "positive": np.asarray(self._positive, dtype=np.int64),
            "negative": np.asarray(self._negative, dtype=np.int64),
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
        state._positive = positive.tolist()
        state._negative = negative.tolist()
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
        if len(state._switch._margin) != state.num_items:
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
    def version(self) -> Tuple[int, int]:
        """Monotonic mutation version of the state: ``(num_columns, total_votes)``.

        Changes whenever any maintained statistic can have changed: every
        vote advances ``total_votes`` and every column advances
        ``num_columns``.  Both are saved in a snapshot, so a state
        restored from one reads the version it was saved at.  The serving
        layer keys its estimate cache on this tuple.
        """
        return (self.num_columns, self.total_votes)

    @property
    def total_votes(self) -> int:
        """Total number of votes ingested."""
        return self._switch.total_votes

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"StreamingState(num_items={self.num_items}, "
            f"num_columns={self.num_columns}, votes={self.total_votes})"
        )
