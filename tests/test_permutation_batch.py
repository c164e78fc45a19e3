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
from repro.core.state import PermutationBatch
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


def _assert_switch_cells_match(matrix, orders, checkpoints):
    """Every cell of ``batch.switch_sweep_cells`` holds the serial integers.

    The reference is ``switch_statistics`` of the materialised
    permutation, read through its event list: per direction the observed
    switches, the distinct items, f'_1 and ``sum r (r - 1)``.
    """
    cells = PermutationBatch(matrix, orders, checkpoints).switch_sweep_cells
    for p, order in enumerate(orders):
        permuted = matrix if order is None else matrix.permute_columns(order)
        for j, checkpoint in enumerate(checkpoints):
            stats = switch_statistics(permuted, checkpoint)
            assert cells.n_switch[p, j] == stats.n_switch
            assert cells.total_votes[p, j] == stats.total_votes
            for direction in (None, POSITIVE, NEGATIVE):
                events = (
                    stats.events
                    if direction is None
                    else stats.events_by_direction(direction)
                )
                counts = [event.rediscoveries for event in events]
                got = [
                    int(cells.counts[direction][p, j]),
                    int(cells.items[direction][p, j]),
                    int(cells.singletons[direction][p, j]),
                    int(cells.pair_sums[direction][p, j]),
                ]
                assert got == [
                    len(events),
                    len({event.item_id for event in events}),
                    counts.count(1),
                    sum(r * (r - 1) for r in counts),
                ], (direction, p, checkpoint)


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
        _assert_switch_cells_match(matrix, orders, checkpoints[::-1] + checkpoints[:2])

    def test_a_permutation_without_switch_events(self):
        # Item 0 votes D, C, C: it switches at its first vote and again at
        # the tie.  Reordered to C, C, D it never leaves clean, and item 1
        # never votes dirty.
        votes = np.array([[DIRTY, CLEAN, CLEAN], [CLEAN, CLEAN, UNSEEN]], dtype=np.int8)
        matrix = ResponseMatrix.from_array(votes)
        orders = [None, [1, 2, 0]]
        cells = PermutationBatch(matrix, orders, [3]).switch_sweep_cells
        assert cells.counts[None].tolist() == [[2], [0]]
        _assert_switch_cells_match(matrix, orders, [3, 0, 1, 3, 5])


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
