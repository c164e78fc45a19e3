"""Tests of the tensor engine's two scan paths and its dtype guards.

* fused-kernel logic — the :mod:`repro.core._scan_kernels` loops are
  plain Python when Numba is absent, so their logic is pinned here against
  the vectorised reference on every machine, by forcing
  ``repro.core.state._FUSED_SCANS`` on;
* dtype audit — the ``seen_cum`` int16/int32 promotion and the margin
  cumsum int32/int64 promotion, including a real scan past the int16
  boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.labels import CLEAN, DIRTY, UNSEEN
from repro.core import state
from repro.core.base import batch_estimates
from repro.core.registry import available_estimators, get_estimator
from repro.core.state import PermutationBatch
from repro.core.switch import (
    _SwitchScan,
    _margin_cumsum_dtype,
    _seen_count_dtype,
)
from repro.crowd.response_matrix import ResponseMatrix


def _random_matrix(num_items, num_columns, seed=11):
    rng = np.random.default_rng(seed)
    votes = rng.choice(
        [UNSEEN, CLEAN, DIRTY], size=(num_items, num_columns), p=[0.5, 0.2, 0.3]
    ).astype(np.int8)
    return ResponseMatrix.from_array(votes)


def _batch(matrix, orders, checkpoints, fused):
    """A batch built with the fused scan kernels forced on or off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(state, "_FUSED_SCANS", fused)
        return PermutationBatch(matrix, orders, checkpoints)


class TestScanKernelLogic:
    """The fused loops must match the vectorised formulation exactly."""

    def _assert_equal_estimates(self, matrix, orders, checkpoints):
        vectorised = _batch(matrix, orders, checkpoints, fused=False)
        fused = _batch(matrix, orders, checkpoints, fused=True)
        for name in available_estimators():
            estimator = get_estimator(name)
            got = batch_estimates(estimator, fused)
            want = batch_estimates(estimator, vectorised)
            for p in range(len(orders)):
                for a, b in zip(got[p], want[p]):
                    assert a.estimate == b.estimate, (name, p)
                    assert a.observed == b.observed, (name, p)
                    assert a.details == b.details, (name, p)

    def test_random_matrix(self):
        matrix = _random_matrix(25, 14)
        rng = np.random.default_rng(5)
        orders = [None, [int(i) for i in rng.permutation(14)]]
        self._assert_equal_estimates(matrix, orders, [0, 3, 7, 14])

    def test_degenerate_matrices(self):
        for fill in (CLEAN, DIRTY, UNSEEN):
            matrix = ResponseMatrix.from_array(np.full((5, 6), fill, dtype=np.int8))
            self._assert_equal_estimates(matrix, [None], [0, 2, 6])

    def test_zero_columns(self):
        matrix = ResponseMatrix.from_array(np.zeros((4, 0), dtype=np.int8))
        self._assert_equal_estimates(matrix, [None], [0])

    def test_scan_internals_match(self):
        matrix = _random_matrix(40, 9, seed=31)
        reference = _SwitchScan(matrix.values)
        fused = _SwitchScan(matrix.values, fused=True)
        np.testing.assert_array_equal(fused.seen_cum, reference.seen_cum)
        np.testing.assert_array_equal(fused.event_rows, reference.event_rows)
        np.testing.assert_array_equal(fused.event_cols, reference.event_cols)
        np.testing.assert_array_equal(fused.event_states, reference.event_states)
        np.testing.assert_array_equal(
            fused.event_vote_index, reference.event_vote_index
        )
        np.testing.assert_array_equal(fused.event_next_col, reference.event_next_col)
        np.testing.assert_array_equal(
            fused.vote_majority_delta, reference.vote_majority_delta
        )


class TestDtypeAudit:
    """Overflow guards on the scan hot path (satellite: dtype audit)."""

    def test_seen_count_dtype_boundary(self):
        boundary = int(np.iinfo(np.int16).max)  # 32767
        assert _seen_count_dtype(boundary - 1) == np.int16
        assert _seen_count_dtype(boundary) == np.int32
        assert _seen_count_dtype(boundary + 1) == np.int32

    def test_margin_cumsum_dtype_boundary(self):
        boundary = int(np.iinfo(np.int32).max)
        assert _margin_cumsum_dtype(boundary) == np.int32
        assert _margin_cumsum_dtype(boundary + 1) == np.int64

    def test_seen_cum_survives_int16_overflow(self):
        # One item, 40k columns, every vote seen: the running seen count
        # tops out at 40000 > int16 max.  With an int16 table this would
        # wrap negative; the promotion keeps it exact.
        num_columns = 40_000
        values = np.full((1, num_columns), DIRTY, dtype=np.int8)
        scan = _SwitchScan(values)
        assert scan.seen_cum.dtype == np.int32
        assert int(scan.seen_cum[0, -1]) == num_columns

    def test_narrow_matrix_keeps_int16(self):
        values = np.full((3, 16), DIRTY, dtype=np.int8)
        scan = _SwitchScan(values)
        assert scan.seen_cum.dtype == np.int16
        assert int(scan.seen_cum[0, -1]) == 16
