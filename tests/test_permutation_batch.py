"""Tests of the cross-permutation tensor sweep engine.

The central contract: for any matrix, any checkpoint set and any number of
permutations, :class:`~repro.core.state.PermutationBatch` estimates are
**exactly** (bitwise) equal to the serial per-permutation sweep — for
every registered estimator, including the degenerate matrices (all-clean,
all-unseen, single column) where the species arithmetic hits its guard
branches.  Below the estimates, the batch engine's own vote-stream
construction is checked against each materialised permutation: its
count tables against the matrix's dense tables, its one switch scan
against a serial scan of the permuted matrix.  The ``numpy`` id of the
equivalence suites names the batch engine's scan path as benchmark
entries record it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.exceptions import ValidationError
from repro.common.labels import CLEAN, DIRTY, UNSEEN
from repro.core import state as state_module
from repro.core.base import (
    BatchEstimates,
    EstimateResult,
    StateEstimatorMixin,
    SweepEstimatorMixin,
    batch_estimates,
    sweep_estimates,
)
from repro.core.chao92 import Chao92Estimator
from repro.core.extrapolation import ExtrapolationEstimator
from repro.core.registry import available_estimators, get_estimator
from repro.core.state import PermutationBatch, matrix_sweep_states
from repro.core.switch import (
    NEGATIVE,
    POSITIVE,
    SwitchEstimator,
    _SwitchScan,
    switch_statistics,
)
from repro.core.total_error import TREND_MODES, SwitchTotalErrorEstimator
from repro.core.vchao92 import VChao92Estimator
from repro.crowd.consensus import majority_count_history
from repro.crowd.response_matrix import ResponseMatrix
from repro.experiments import runner as runner_module
from repro.experiments.runner import EstimationRunner, RunnerConfig

#: The batch engine's one scan path, named as benchmark entries name it;
#: it keeps the ``[numpy]`` ids these suites have always had.
SCAN_PATH = pytest.mark.parametrize("scan_path", ["numpy"])


def _non_default_estimators():
    """Every built-in batch path under parameters the registry does not use."""
    return [
        Chao92Estimator(use_skew_correction=False),
        VChao92Estimator(shift=0),
        VChao92Estimator(shift=2),
        VChao92Estimator(use_skew_correction=False),
        SwitchEstimator(direction="positive"),
        SwitchEstimator(direction="negative"),
        SwitchEstimator(direction="negative", use_skew_correction=False),
        *[SwitchTotalErrorEstimator(trend_mode=mode) for mode in TREND_MODES],
        SwitchTotalErrorEstimator(trend_window=1),
        SwitchTotalErrorEstimator(trend_window=3),
        SwitchTotalErrorEstimator(use_skew_correction=False),
        ExtrapolationEstimator(min_votes=2),
    ]


def _registered_estimators():
    return [get_estimator(name) for name in available_estimators()]


def _assert_batch_matches_serial(matrix, orders, checkpoints, estimators=None):
    """Exact equality of the batched and serial sweeps, cell by cell.

    Both the ``(R, m)`` arrays and the materialised results are compared;
    by default every registered estimator and every non-default
    parameter set is checked.
    """
    batch = PermutationBatch(matrix, orders, checkpoints)
    if estimators is None:
        estimators = _registered_estimators() + _non_default_estimators()
    for estimator in estimators:
        batched = batch_estimates(estimator, batch)
        assert isinstance(batched, BatchEstimates)
        assert batched.estimates.shape == (len(orders), len(checkpoints))
        assert len(batched) == len(orders)
        for p, order in enumerate(orders):
            permuted = matrix if order is None else matrix.permute_columns(order)
            serial = estimator.estimate_sweep(permuted, checkpoints)
            assert len(batched[p]) == len(serial)
            for j, (got, want) in enumerate(zip(batched[p], serial)):
                assert batched.estimates[p, j] == got.estimate, (estimator, p)
                assert batched.observed[p, j] == got.observed, (estimator, p)
                assert got.estimate == want.estimate, (estimator, p)
                assert got.observed == want.observed, (estimator, p)
                assert got.details == want.details, (estimator, p)
                assert repr(got.details) == repr(want.details), (estimator, p)


def _random_case(num_items, num_columns, num_permutations, matrix_seed, checkpoint_seed):
    """A random matrix, permutation orders and checkpoint set."""
    rng = np.random.default_rng(matrix_seed)
    votes = rng.choice(
        [UNSEEN, CLEAN, DIRTY],
        size=(num_items, num_columns),
        p=[0.4, 0.25, 0.35],
    ).astype(np.int8)
    matrix = ResponseMatrix.from_array(votes)
    cp_rng = np.random.default_rng(checkpoint_seed)
    # Random checkpoints including 0 and oversized values (they clamp).
    checkpoints = sorted(
        {0, num_columns, num_columns + 3}
        | {int(c) for c in cp_rng.integers(0, num_columns + 2, size=4)}
    )
    orders = [None] + [
        [int(i) for i in cp_rng.permutation(num_columns)]
        for _ in range(num_permutations - 1)
    ]
    return matrix, orders, checkpoints


_CASES = dict(
    num_items=st.integers(min_value=1, max_value=10),
    num_columns=st.integers(min_value=0, max_value=12),
    num_permutations=st.sampled_from([1, 3, 10]),
    matrix_seed=st.integers(min_value=0, max_value=2**31 - 1),
    checkpoint_seed=st.integers(min_value=0, max_value=2**31 - 1),
)


@SCAN_PATH
class TestPropertyEquivalence:
    @given(**_CASES)
    @settings(max_examples=25)
    def test_batch_equals_serial_sweep(
        self,
        scan_path,
        num_items,
        num_columns,
        num_permutations,
        matrix_seed,
        checkpoint_seed,
    ):
        matrix, orders, checkpoints = _random_case(
            num_items, num_columns, num_permutations, matrix_seed, checkpoint_seed
        )
        _assert_batch_matches_serial(
            matrix, orders, checkpoints, _registered_estimators()
        )

    @given(**_CASES)
    @settings(max_examples=25, deadline=None)
    def test_non_default_parameters_equal_serial_sweep(
        self,
        scan_path,
        num_items,
        num_columns,
        num_permutations,
        matrix_seed,
        checkpoint_seed,
    ):
        matrix, orders, checkpoints = _random_case(
            num_items, num_columns, num_permutations, matrix_seed, checkpoint_seed
        )
        _assert_batch_matches_serial(
            matrix, orders, checkpoints, _non_default_estimators()
        )


def _cell_statistics(batch):
    """Every ``(R, m)`` statistic the built-in batched estimators read, by name."""
    moments = batch.positive_moments
    statistics = {
        "total": moments.total,
        "squares": moments.squares,
        "singletons": moments.singletons,
        "doubletons": moments.doubletons,
        "nominal": batch.nominal_counts,
        "majority": batch.majority_counts,
    }
    for min_votes in (1, 2, 3):
        covered, sample_errors = batch.coverage_counts(min_votes)
        statistics[f"covered_{min_votes}"] = covered
        statistics[f"sample_errors_{min_votes}"] = sample_errors
    cells = batch.switch_sweep_cells
    statistics["n_switch"] = cells.n_switch
    statistics["total_votes"] = cells.total_votes
    for direction in (None, POSITIVE, NEGATIVE):
        for name in ("counts", "items", "singletons", "pair_sums"):
            statistics[f"switch_{name}_{direction}"] = getattr(cells, name)[direction]
    return statistics


def _forced_batch(stream, matrix, orders, checkpoints):
    """A batch whose cell statistics come from the named path, all computed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(state_module, "_reads_stream", lambda *shape: stream)
        batch = PermutationBatch(matrix, orders, checkpoints)
        assert batch._from_stream is stream
        return batch, _cell_statistics(batch)


def _serial_statistics(matrix, orders, checkpoints):
    """The same statistics from the serial engine, one permuted matrix at a time."""
    rows = []
    for order in orders:
        permuted = matrix if order is None else matrix.permute_columns(order)
        row = []
        for state in matrix_sweep_states(permuted, checkpoints):
            fingerprint = state.positive_fingerprint()
            frequencies = fingerprint.frequencies
            cell = {
                "total": fingerprint.num_observations,
                "squares": sum(j * j * count for j, count in frequencies.items()),
                "singletons": frequencies.get(1, 0),
                "doubletons": frequencies.get(2, 0),
                "nominal": state.nominal_count(),
                "majority": state.majority_count(),
            }
            for min_votes in (1, 2, 3):
                covered, sample_errors = state.coverage_counts(min_votes)
                cell[f"covered_{min_votes}"] = covered
                cell[f"sample_errors_{min_votes}"] = sample_errors
            stats = switch_statistics(permuted, state.num_columns)
            cell["n_switch"] = stats.n_switch
            cell["total_votes"] = stats.total_votes
            for direction in (None, POSITIVE, NEGATIVE):
                events = stats.events if direction is None else stats.events_by_direction(direction)
                counts = [event.rediscoveries for event in events]
                cell[f"switch_counts_{direction}"] = len(events)
                cell[f"switch_items_{direction}"] = len({event.item_id for event in events})
                cell[f"switch_singletons_{direction}"] = counts.count(1)
                cell[f"switch_pair_sums_{direction}"] = sum(r * (r - 1) for r in counts)
            row.append(cell)
        rows.append(row)
    return {name: [[cell[name] for cell in row] for row in rows] for name in rows[0][0]}


def _assert_switch_cells_match(matrix, orders, checkpoints, stream):
    """Every cell statistic of the batch, on the named path, holds the serial integers.

    The switch cells' reference is ``switch_statistics`` of the
    materialised permutation, read through its event list: per direction
    the observed switches, the distinct items, f'_1 and ``sum r (r - 1)``.
    """
    _, batch = _forced_batch(stream, matrix, orders, checkpoints)
    for name, expected in _serial_statistics(matrix, orders, checkpoints).items():
        assert batch[name].tolist() == expected, name


class TestSwitchCells:
    """``PermutationBatch.switch_sweep_cells`` integer by integer."""

    @given(**_CASES)
    @settings(max_examples=40, deadline=None)
    def test_every_cell_equals_switch_statistics(
        self, num_items, num_columns, num_permutations, matrix_seed, checkpoint_seed
    ):
        matrix, orders, checkpoints = _random_case(
            num_items, num_columns, num_permutations, matrix_seed, checkpoint_seed
        )
        # 0 and past-K checkpoints come from the case; unsorted and repeated
        # ones are added here.
        for stream in (True, False):
            _assert_switch_cells_match(
                matrix, orders, checkpoints[::-1] + checkpoints[:2], stream
            )

    def test_a_permutation_without_switch_events(self):
        # Item 0 votes D, C, C: it switches at its first vote and again at
        # the tie.  Reordered to C, C, D it never leaves clean, and item 1
        # never votes dirty.  Both cell paths.
        votes = np.array([[DIRTY, CLEAN, CLEAN], [CLEAN, CLEAN, UNSEEN]], dtype=np.int8)
        matrix = ResponseMatrix.from_array(votes)
        orders = [None, [1, 2, 0]]
        for stream in (True, False):
            batch, _ = _forced_batch(stream, matrix, orders, [3])
            assert batch.switch_sweep_cells.counts[None].tolist() == [[2], [0]]
            _assert_switch_cells_match(matrix, orders, [3, 0, 1, 3, 5], stream)

    def test_long_events_stay_partial_across_checkpoints(self):
        # Items that vote (almost) only dirty switch once, early, and every
        # later vote rediscovers that switch, so each event stays partial
        # at every checkpoint before its item's last vote: on the table
        # path those (event, checkpoint) pairs read the seen table.  One
        # permutation; more checkpoints than columns, repeated and
        # unsorted.  Both cell paths.
        votes = np.full((5, 9), DIRTY, dtype=np.int8)
        votes[1, 4] = CLEAN  # a stray vote that flips nothing
        votes[2, 1] = CLEAN  # a tie: switches back, then dirty again
        votes[3, :3] = UNSEEN
        votes[4, ::2] = UNSEEN
        matrix = ResponseMatrix.from_array(votes)
        checkpoints = [9, 4, 4, 0, 8, 1, 2, 7, 3, 6, 5, 9, 12, 2]
        for stream in (True, False):
            batch, _ = _forced_batch(stream, matrix, [None], checkpoints)
            cells = batch.switch_sweep_cells
            # Every item's first vote is dirty, so no vote precedes a
            # first switch and n_switch counts every vote.
            assert cells.n_switch.shape == (1, len(checkpoints))
            np.testing.assert_array_equal(cells.n_switch, cells.total_votes)
            _assert_switch_cells_match(matrix, [None], checkpoints, stream)
            _assert_switch_cells_match(
                matrix, [[8, 0, 7, 1, 6, 2, 5, 3, 4]], checkpoints, stream
            )


#: ``(columns, order, accepted)``: one column-order rule for both
#: ``PermutationBatch`` and ``ResponseMatrix.permute_columns``.
_ORDERS = [
    (3, [2, 0, 1], True),
    (3, np.array([2, 0, 1]), True),
    (3, np.array([2, 0, 1], dtype=np.uint8), True),
    (0, [], True),
    (0, np.array([], dtype=np.intp), True),
    (3, [0.9, 1.9, 2.9], False),
    (3, [0.0, 1.0, 2.0], False),
    (3, [[0, 1, 2]], False),
    (3, [[0], [1, 2]], False),
    (2, [False, True], False),
    (3, [False, True, 2], False),
    (3, (2, np.False_, 1), False),
    (3, ["0", "1", "2"], False),
    (3, [0, 0, 1], False),
    (3, [1, 2, 3], False),
    (3, [0, 1], False),
    (3, [0, 1, 2, 3], False),
]


@pytest.mark.parametrize("num_columns, order, accepted", _ORDERS)
def test_one_column_order_rule(num_columns, order, accepted):
    votes = np.array([[DIRTY, CLEAN, UNSEEN], [UNSEEN, DIRTY, CLEAN]], dtype=np.int8)
    matrix = ResponseMatrix.from_array(votes[:, :num_columns])
    if not accepted:
        with pytest.raises(ValidationError, match="permutation"):
            matrix.permute_columns(order)
        with pytest.raises(ValidationError, match="permutation"):
            PermutationBatch(matrix, [order], [num_columns])
        return
    expected = matrix.values[:, list(order)]
    np.testing.assert_array_equal(matrix.permute_columns(order).values, expected)
    batch = PermutationBatch(matrix, [None, order], [num_columns])
    np.testing.assert_array_equal(batch.permuted_matrix(1).values, expected)


@SCAN_PATH
class TestDegenerateMatrices:
    CHECKPOINTS = [0, 1, 2, 5, 8]

    def _orders(self, num_columns, count=3, seed=7):
        rng = np.random.default_rng(seed)
        return [None] + [
            [int(i) for i in rng.permutation(num_columns)] for _ in range(count - 1)
        ]

    def test_all_clean_matrix(self, scan_path):
        votes = np.full((6, 8), CLEAN, dtype=np.int8)
        matrix = ResponseMatrix.from_array(votes)
        _assert_batch_matches_serial(matrix, self._orders(8), self.CHECKPOINTS)

    def test_all_unseen_matrix(self, scan_path):
        votes = np.full((6, 8), UNSEEN, dtype=np.int8)
        matrix = ResponseMatrix.from_array(votes)
        _assert_batch_matches_serial(matrix, self._orders(8), self.CHECKPOINTS)

    def test_all_dirty_matrix(self, scan_path):
        votes = np.full((6, 8), DIRTY, dtype=np.int8)
        matrix = ResponseMatrix.from_array(votes)
        _assert_batch_matches_serial(matrix, self._orders(8), self.CHECKPOINTS)

    def test_single_column(self, scan_path):
        votes = np.array([[DIRTY], [CLEAN], [UNSEEN], [DIRTY]], dtype=np.int8)
        matrix = ResponseMatrix.from_array(votes)
        _assert_batch_matches_serial(matrix, [None, [0], [0]], [0, 1])

    def test_single_item(self, scan_path):
        votes = np.array([[DIRTY, CLEAN, DIRTY, UNSEEN]], dtype=np.int8)
        matrix = ResponseMatrix.from_array(votes)
        _assert_batch_matches_serial(matrix, self._orders(4), [0, 1, 2, 4])

    def test_zero_columns(self, scan_path):
        matrix = ResponseMatrix.from_array(np.zeros((3, 0), dtype=np.int8))
        _assert_batch_matches_serial(matrix, [None, [], []], [0])


class TestStreamEngine:
    """The batch engine's vote-stream construction, permutation by permutation."""

    @given(
        num_items=st.integers(min_value=1, max_value=8),
        num_columns=st.integers(min_value=0, max_value=10),
        unseen=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        num_permutations=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        # Unsorted, repeated, zero and oversized (clamped) checkpoints.
        checkpoints=st.lists(st.integers(min_value=0, max_value=12), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_tables_and_scan_match_each_permutation(
        self, num_items, num_columns, unseen, num_permutations, seed, checkpoints
    ):
        rng = np.random.default_rng(seed)
        votes = np.where(
            rng.random((num_items, num_columns)) < unseen,
            UNSEEN,
            rng.choice([CLEAN, DIRTY], size=(num_items, num_columns)),
        ).astype(np.int8)
        matrix = ResponseMatrix.from_array(votes)
        orders = [None] + [
            [int(i) for i in rng.permutation(num_columns)]
            for _ in range(num_permutations - 1)
        ]
        batch = PermutationBatch(matrix, orders, checkpoints)
        resolved = [matrix.resolve_upto(checkpoint) for checkpoint in checkpoints]
        scan = batch._scan
        for p, order in enumerate(orders):
            permuted = matrix if order is None else matrix.permute_columns(order)
            np.testing.assert_array_equal(
                batch.positive_table[p], permuted.positive_counts_at(resolved)
            )
            np.testing.assert_array_equal(
                batch.negative_table[p], permuted.negative_counts_at(resolved)
            )
            # Rows p * N .. (p + 1) * N - 1 of the batch stream are the
            # permuted matrix's rows.
            serial = _SwitchScan.of(permuted.values)
            low = p * num_items
            for prefix, fields in (
                ("vote", ("cols", "states", "majority_delta")),
                ("event", ("cols", "states", "vote_index", "last_vote")),
            ):
                rows = getattr(scan, f"{prefix}_rows")
                mine = (rows >= low) & (rows < low + num_items)
                np.testing.assert_array_equal(
                    rows[mine] - low, getattr(serial, f"{prefix}_rows")
                )
                for field in fields:
                    name = f"{prefix}_{field}"
                    np.testing.assert_array_equal(
                        getattr(scan, name)[mine], getattr(serial, name), err_msg=name
                    )


class TestCellPaths:
    """The stream path and the count-table path give the same integers."""

    @given(
        num_items=st.integers(min_value=1, max_value=8),
        num_columns=st.integers(min_value=0, max_value=10),
        unseen=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        num_permutations=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        # Unsorted, repeated, zero and oversized (clamped) checkpoints;
        # a checkpoint at K is added.
        checkpoints=st.lists(st.integers(min_value=0, max_value=12), max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_both_paths_equal_the_serial_engine(
        self, num_items, num_columns, unseen, num_permutations, seed, checkpoints
    ):
        rng = np.random.default_rng(seed)
        votes = np.where(
            rng.random((num_items, num_columns)) < unseen,
            UNSEEN,
            rng.choice([CLEAN, DIRTY], size=(num_items, num_columns)),
        ).astype(np.int8)
        matrix = ResponseMatrix.from_array(votes)
        orders = [None] + [
            [int(i) for i in rng.permutation(num_columns)]
            for _ in range(num_permutations - 1)
        ]
        checkpoints = checkpoints + [num_columns]
        _, stream = _forced_batch(True, matrix, orders, checkpoints)
        _, table = _forced_batch(False, matrix, orders, checkpoints)
        serial = _serial_statistics(matrix, orders, checkpoints)
        assert stream.keys() == table.keys() == serial.keys()
        for name, expected in serial.items():
            assert stream[name].shape == (num_permutations, len(checkpoints)), name
            assert stream[name].dtype == table[name].dtype == np.int64, name
            assert stream[name].tolist() == table[name].tolist() == expected, name

    def test_coverage_below_one_vote_covers_every_item(self):
        votes = np.array([[DIRTY, UNSEEN], [UNSEEN, UNSEEN]], dtype=np.int8)
        matrix = ResponseMatrix.from_array(votes)
        for stream in (True, False):
            batch, _ = _forced_batch(stream, matrix, [None, [1, 0]], [0, 1, 2])
            covered, sample_errors = batch.coverage_counts(0)
            assert covered.tolist() == [[2, 2, 2], [2, 2, 2]]
            assert sample_errors.tolist() == [[0, 1, 1], [0, 0, 1]]

    @staticmethod
    def _paper_matrix(num_items, tasks, seed=41):
        """Tasks of 10 items, one vote column per task, as the paper's runs."""
        rng = np.random.default_rng(seed)
        votes = np.full((num_items, tasks), UNSEEN, dtype=np.int8)
        for task in range(tasks):
            chosen = rng.choice(num_items, size=10, replace=False)
            votes[chosen, task] = rng.choice([CLEAN, DIRTY], size=10, p=[0.7, 0.3])
        return ResponseMatrix.from_array(votes)

    @staticmethod
    def _batched_estimators():
        """Every registered estimator with its own batched form."""
        estimators = [
            estimator
            for estimator in _registered_estimators() + _non_default_estimators()
            if type(estimator).estimate_sweep_batch
            is not StateEstimatorMixin.estimate_sweep_batch
            # Any shift other than 1 reduces the positive-count table.
            and getattr(estimator, "shift", 1) == 1
        ]
        names = {estimator.name for estimator in estimators}
        assert {"voting", "chao92", "vchao92", "extrapolation", "switch", "switch_total"} <= names
        return estimators

    def _run(self, matrix, estimators, num_permutations=10, num_checkpoints=20):
        """A batch as the runner builds it, after ``estimators`` evaluated it."""
        rng = np.random.default_rng(5)
        orders = [None] + [
            rng.permutation(matrix.num_columns) for _ in range(num_permutations - 1)
        ]
        checkpoints = RunnerConfig(num_checkpoints=num_checkpoints).resolve_checkpoints(
            matrix.num_columns
        )
        batch = PermutationBatch(
            matrix,
            orders,
            checkpoints,
            reads_switch_scan=any(
                getattr(estimator, "reads_switch_scan", False) for estimator in estimators
            ),
        )
        for estimator in estimators:
            batch_estimates(estimator, batch)
        return batch

    @staticmethod
    def _dense_matrix():
        """30 votes per item over 60 columns: ``V = 1.5 m N`` at 20 checkpoints."""
        rng = np.random.default_rng(17)
        votes = rng.choice([UNSEEN, CLEAN, DIRTY], size=(300, 60), p=[0.5, 0.2, 0.3])
        return ResponseMatrix.from_array(votes.astype(np.int8))

    def test_the_rule_compares_votes_with_checkpoint_item_cells(self):
        rule = state_module._reads_stream
        # Without a SWITCH reader the bound is 0.175 votes per cell, with
        # one 1.375; R is not an argument.
        assert rule(349, 100, 20, False) and not rule(350, 100, 20, False)
        assert rule(2749, 100, 20, True) and not rule(2750, 100, 20, True)
        assert not rule(0, 0, 0, True)

    def test_the_runner_tells_the_batch_whether_a_switch_estimator_reads_it(
        self, monkeypatch
    ):
        # 3 votes per item at 6 checkpoints: V = 0.5 m N, between the bounds.
        rng = np.random.default_rng(9)
        votes = np.full((200, 60), UNSEEN, dtype=np.int8)
        for item in range(200):
            votes[item, rng.choice(60, size=3, replace=False)] = rng.choice([CLEAN, DIRTY], 3)
        matrix = ResponseMatrix.from_array(votes)
        built = []

        class Recorded(PermutationBatch):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(runner_module, "PermutationBatch", Recorded)
        config = RunnerConfig(num_permutations=3, num_checkpoints=6, seed=2)
        for names, switches in (
            (["voting", "chao92", "vchao92", "extrapolation"], False),
            (["voting", "switch"], True),
            (["switch_total"], True),
        ):
            EstimationRunner(names, config).run(matrix)
            batch = built[-1]
            assert batch.num_checkpoints == 6
            assert batch.reads_switch_scan is switches
            assert batch._from_stream is switches
            assert ("_scan" in batch.__dict__) is switches

    def test_a_dense_batch_without_switch_estimators_builds_no_scan(self):
        estimators = [
            estimator
            for estimator in self._batched_estimators()
            if not getattr(estimator, "reads_switch_scan", False)
        ]
        batch = self._run(self._dense_matrix(), estimators)
        assert not batch._from_stream
        assert "_scan" not in batch.__dict__

    def test_a_paper_shaped_batch_builds_no_count_table(self):
        # 300 tasks of 10 items over 1,000 items: 3,000 votes against
        # 20 x 1,000 checkpoint-item cells.
        batch = self._run(self._paper_matrix(1000, 300), self._batched_estimators())
        assert batch._from_stream
        built = {"positive_table", "negative_table", "_seen_table"} & batch.__dict__.keys()
        assert not built

    def test_a_dense_batch_takes_the_table_path(self):
        batch = self._run(self._dense_matrix(), self._batched_estimators())
        assert batch.reads_switch_scan and not batch._from_stream
        assert {"positive_table", "negative_table", "_seen_table"} <= batch.__dict__.keys()


class TestBatchInternals:
    @pytest.fixture
    def matrix(self):
        rng = np.random.default_rng(23)
        votes = rng.choice(
            [UNSEEN, CLEAN, DIRTY], size=(30, 12), p=[0.5, 0.2, 0.3]
        ).astype(np.int8)
        return ResponseMatrix.from_array(votes)

    @pytest.fixture
    def orders(self, matrix):
        rng = np.random.default_rng(29)
        return [None, [int(i) for i in rng.permutation(matrix.num_columns)]]

    def test_invalid_order_rejected(self, matrix):
        with pytest.raises(ValidationError, match="permutation"):
            PermutationBatch(matrix, [[0, 0, 1]], [3])
        with pytest.raises(ValidationError, match="permutation"):
            PermutationBatch(matrix, [list(range(matrix.num_columns - 1))], [3])

    def test_empty_orders_rejected(self, matrix):
        with pytest.raises(ValidationError, match="at least one"):
            PermutationBatch(matrix, [], [3])

    def test_identity_permutation_reuses_matrix(self, matrix, orders):
        batch = PermutationBatch(matrix, orders, [4, 8])
        assert batch.permuted_matrix(0) is matrix
        permuted = batch.permuted_matrix(1)
        assert permuted is not matrix
        assert permuted.num_columns == matrix.num_columns

    def test_states_are_cached_and_shared(self, matrix, orders):
        batch = PermutationBatch(matrix, orders, [4, 8])
        states = batch.states(1)
        assert batch.states(1) is states
        assert len(states) == 2
        # The lazy fingerprint is shared between estimators reading it.
        assert states[0].positive_fingerprint() is states[0].positive_fingerprint()

    def test_switch_stats_match_per_permutation_scan(self, matrix, orders):
        batch = PermutationBatch(matrix, orders, [3, 7, 12])
        for p, order in enumerate(orders):
            permuted = matrix if order is None else matrix.permute_columns(order)
            for j, checkpoint in enumerate([3, 7, 12]):
                cell = batch.states(p)[j].switch_stats()
                reference = switch_statistics(permuted, checkpoint)
                assert cell.num_switches == reference.num_switches
                assert cell.items_with_switches == reference.items_with_switches
                assert cell.n_switch == reference.n_switch
                assert cell.total_votes == reference.total_votes
                assert (
                    cell.fingerprint().frequencies
                    == reference.fingerprint().frequencies
                )

    def test_majority_history_matches_per_permutation(self, matrix, orders):
        batch = PermutationBatch(matrix, orders, [6])
        for p, order in enumerate(orders):
            permuted = matrix if order is None else matrix.permute_columns(order)
            expected = majority_count_history(permuted)
            assert batch.majority_history[p].tolist() == expected.tolist()

    def test_sweep_estimates_states_path_matches(self, matrix, orders):
        """The generic EstimationState protocol path agrees with sweep_estimates."""
        checkpoints = [2, 6, 12]
        batch = PermutationBatch(matrix, orders, checkpoints)
        estimator = get_estimator("switch_total")
        for p, order in enumerate(orders):
            permuted = matrix if order is None else matrix.permute_columns(order)
            expected = sweep_estimates(estimator, permuted, checkpoints)
            got = [estimator.estimate_state(state) for state in batch.states(p)]
            for a, b in zip(got, expected):
                assert a.estimate == b.estimate
                assert a.details == b.details

    def test_estimate_only_estimator_falls_back(self, matrix, orders):
        """Third-party estimators without batch support still work."""

        class EstimateOnly:
            name = "estimate_only"

            def estimate(self, m, upto=None):
                return EstimateResult(
                    estimate=float(m.resolve_upto(upto)), observed=0.0
                )

        batch = PermutationBatch(matrix, orders, [3, 12])
        results = batch_estimates(EstimateOnly(), batch)
        assert isinstance(results, BatchEstimates)
        assert [r.estimate for r in results[0]] == [3.0, 12.0]
        assert [r.estimate for r in results[1]] == [3.0, 12.0]
        assert results.estimates.tolist() == [[3.0, 12.0], [3.0, 12.0]]
        assert results.observed.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_mixin_fallbacks_index_to_the_results_they_wrap(self, matrix, orders):
        """Both mixin defaults return the per-cell results they computed."""

        class SweepOnly(SweepEstimatorMixin):
            name = "sweep_only"

            def estimate(self, m, upto=None):
                prefix = m.resolve_upto(upto)
                return EstimateResult(
                    estimate=prefix / 4, observed=1.0, details={"prefix": prefix}
                )

        class StateOnly(StateEstimatorMixin):
            name = "state_only"

            def estimate_state(self, state):
                count = state.majority_count()
                return EstimateResult(
                    estimate=count * 1.5, observed=float(count), details={"c": count}
                )

        checkpoints = [0, 3, 12]
        batch = PermutationBatch(matrix, orders, checkpoints)
        for estimator in (SweepOnly(), StateOnly()):
            results = estimator.estimate_sweep_batch(batch)
            assert isinstance(results, BatchEstimates)
            assert len(results) == len(orders)
            for p, order in enumerate(orders):
                permuted = batch.permuted_matrix(p)
                expected = estimator.estimate_sweep(permuted, checkpoints)
                assert results[p] == expected
                assert results[p] is results[p]
                assert results.estimates[p].tolist() == [r.estimate for r in expected]
                assert results.observed[p].tolist() == [r.observed for r in expected]

    def test_batch_estimates_materialise_once_per_permutation(self, matrix, orders):
        results = batch_estimates(get_estimator("chao92"), PermutationBatch(matrix, orders, [4, 8]))
        first = results[1]
        assert results[1] is first and results[-1] is first
        assert [r.estimate for r in first] == results.estimates[1].tolist()
        assert all(type(value) is float for r in first for value in r.details.values())
        with pytest.raises(IndexError):
            results[len(orders)]


class TestRunnerDispatch:
    def test_two_jobs_equal_one_job(self):
        """The pool's chunks carry estimate rows; n_jobs changes no float."""
        rng = np.random.default_rng(31)
        votes = rng.choice(
            [UNSEEN, CLEAN, DIRTY], size=(40, 30), p=[0.6, 0.25, 0.15]
        ).astype(np.int8)
        matrix = ResponseMatrix.from_array(votes)
        # The built-ins: other suites register aliases that share a name.
        names = [
            "nominal", "voting", "chao92", "vchao92", "extrapolation",
            "switch", "switch_total", "good_turing", "chao84", "jackknife",
        ]
        shared = dict(num_permutations=5, num_checkpoints=6, seed=4)
        one = EstimationRunner(names, RunnerConfig(n_jobs=1, **shared)).run(matrix)
        two = EstimationRunner(names, RunnerConfig(n_jobs=2, **shared)).run(matrix)
        assert two.metadata["n_jobs"] == 2
        for name in names:
            for a, b in zip(one.series[name].points, two.series[name].points, strict=True):
                assert (a.num_tasks, a.values, a.mean, a.std) == (
                    b.num_tasks,
                    b.values,
                    b.mean,
                    b.std,
                )
