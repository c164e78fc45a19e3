"""Overflow guards of the switch scan.

* the margin cumsum int32/int64 promotion of the vectorised compaction;
* a real scan past the int16 range: the vote ordinals, rediscoveries and
  vote totals of one item with 50,000 votes stay exact, in the serial
  scan and in the batch engine, and its skew pair sum passes the int32
  range.
"""

from __future__ import annotations

import numpy as np

from repro.common.labels import DIRTY
from repro.core.state import PermutationBatch
from repro.core.switch import _margin_cumsum_dtype, _SwitchScan, switch_statistics
from repro.crowd.response_matrix import ResponseMatrix


class TestDtypeAudit:
    """Overflow guards on the scan hot path (satellite: dtype audit)."""

    def test_margin_cumsum_dtype_boundary(self):
        boundary = int(np.iinfo(np.int32).max)
        assert _margin_cumsum_dtype(boundary) == np.int32
        assert _margin_cumsum_dtype(boundary + 1) == np.int64

    def test_long_row_counts_survive_int16_overflow(self):
        # One item, 50k columns, every vote dirty: the first vote is the
        # item's only switch and every vote rediscovers it, so each count
        # below passes 32767; an int16 count would wrap negative.  Its
        # skew pair sum r(r - 1) at the last checkpoint passes 2**31 - 1.
        num_columns = 50_000
        pair_sum = num_columns * (num_columns - 1)
        assert pair_sum > np.iinfo(np.int32).max
        values = np.full((1, num_columns), DIRTY, dtype=np.int8)
        scan = _SwitchScan.of(values)
        assert scan.event_vote_index.tolist() == [1]
        assert scan.event_last_vote.tolist() == [num_columns]
        event = np.ones(1, dtype=bool)
        checkpoints = [32_767, 32_768, num_columns]
        for upto in checkpoints:
            seen = scan.seen_at(upto, event)
            assert seen.tolist() == [upto]
            assert scan.rediscoveries(event, seen).tolist() == [upto]
            assert scan.total_votes(upto) == upto
        matrix = ResponseMatrix.from_array(values)
        stats = switch_statistics(matrix)
        assert stats.n_switch == stats.total_votes == num_columns
        assert stats.events[0].rediscoveries == num_columns
        batch = PermutationBatch(matrix, [None, None], checkpoints)
        cells = batch.switch_sweep_cells
        for permutation in range(2):
            for index, upto in enumerate(checkpoints):
                cell = batch.states(permutation)[index].switch_stats()
                assert cell.n_switch == cell.total_votes == upto
            assert cells.n_switch[permutation].tolist() == checkpoints
            assert cells.pair_sums[None][permutation, -1] == pair_sum
