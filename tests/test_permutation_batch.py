"""Tests of the cross-permutation tensor sweep engine.

The central contract: for any matrix, any checkpoint set and any number of
permutations, :class:`~repro.core.state.PermutationBatch` estimates are
**exactly** (bitwise) equal to the serial per-permutation sweep — for
every registered estimator, including the degenerate matrices (all-clean,
all-unseen, single column) where the species arithmetic hits its guard
branches.  The equivalence suites run once per scan path: ``numpy`` (the
vectorised reference) and ``fused`` (the :mod:`repro.core._scan_kernels`
loops, forced on; compiled where numba is installed, interpreted
elsewhere).  The serial sweep always runs the reference, so the ``fused``
runs are a bit-identity check of the kernels on every machine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.exceptions import ValidationError
from repro.common.labels import CLEAN, DIRTY, UNSEEN
from repro.core import state
from repro.core.base import EstimateResult, batch_estimates, sweep_estimates
from repro.core.registry import available_estimators, get_estimator
from repro.core.state import PermutationBatch
from repro.core.switch import switch_statistics
from repro.crowd.consensus import majority_count_history
from repro.crowd.response_matrix import ResponseMatrix

#: Both scan paths of the batch engine: the fused kernels off, then on.
SCAN_PATHS = pytest.mark.parametrize("fused", [False, True], ids=["numpy", "fused"])


def _assert_batch_matches_serial(matrix, orders, checkpoints, names=None, fused=False):
    """Exact equality of the batched and serial sweeps for all estimators."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(state, "_FUSED_SCANS", fused)
        batch = PermutationBatch(matrix, orders, checkpoints)
    for name in names or available_estimators():
        estimator = get_estimator(name)
        batched = batch_estimates(estimator, batch)
        for p, order in enumerate(orders):
            permuted = matrix if order is None else matrix.permute_columns(order)
            serial = estimator.estimate_sweep(permuted, checkpoints)
            assert len(batched[p]) == len(serial)
            for got, want in zip(batched[p], serial):
                assert got.estimate == want.estimate, (name, p)
                assert got.observed == want.observed, (name, p)
                assert got.details == want.details, (name, p)


@SCAN_PATHS
class TestPropertyEquivalence:
    @given(
        num_items=st.integers(min_value=1, max_value=10),
        num_columns=st.integers(min_value=0, max_value=12),
        num_permutations=st.sampled_from([1, 3, 10]),
        matrix_seed=st.integers(min_value=0, max_value=2**31 - 1),
        checkpoint_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25)
    def test_batch_equals_serial_sweep(
        self,
        fused,
        num_items,
        num_columns,
        num_permutations,
        matrix_seed,
        checkpoint_seed,
    ):
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
        _assert_batch_matches_serial(matrix, orders, checkpoints, fused=fused)


@SCAN_PATHS
class TestDegenerateMatrices:
    CHECKPOINTS = [0, 1, 2, 5, 8]

    def _orders(self, num_columns, count=3, seed=7):
        rng = np.random.default_rng(seed)
        return [None] + [
            [int(i) for i in rng.permutation(num_columns)] for _ in range(count - 1)
        ]

    def test_all_clean_matrix(self, fused):
        votes = np.full((6, 8), CLEAN, dtype=np.int8)
        matrix = ResponseMatrix.from_array(votes)
        _assert_batch_matches_serial(
            matrix, self._orders(8), self.CHECKPOINTS, fused=fused
        )

    def test_all_unseen_matrix(self, fused):
        votes = np.full((6, 8), UNSEEN, dtype=np.int8)
        matrix = ResponseMatrix.from_array(votes)
        _assert_batch_matches_serial(
            matrix, self._orders(8), self.CHECKPOINTS, fused=fused
        )

    def test_all_dirty_matrix(self, fused):
        votes = np.full((6, 8), DIRTY, dtype=np.int8)
        matrix = ResponseMatrix.from_array(votes)
        _assert_batch_matches_serial(
            matrix, self._orders(8), self.CHECKPOINTS, fused=fused
        )

    def test_single_column(self, fused):
        votes = np.array([[DIRTY], [CLEAN], [UNSEEN], [DIRTY]], dtype=np.int8)
        matrix = ResponseMatrix.from_array(votes)
        _assert_batch_matches_serial(matrix, [None, [0], [0]], [0, 1], fused=fused)

    def test_single_item(self, fused):
        votes = np.array([[DIRTY, CLEAN, DIRTY, UNSEEN]], dtype=np.int8)
        matrix = ResponseMatrix.from_array(votes)
        _assert_batch_matches_serial(
            matrix, self._orders(4), [0, 1, 2, 4], fused=fused
        )

    def test_zero_columns(self, fused):
        matrix = ResponseMatrix.from_array(np.zeros((3, 0), dtype=np.int8))
        _assert_batch_matches_serial(matrix, [None, [], []], [0], fused=fused)


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
                cell = batch.switch_stats(p, j)
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
        assert [r.estimate for r in results[0]] == [3.0, 12.0]
        assert [r.estimate for r in results[1]] == [3.0, 12.0]
