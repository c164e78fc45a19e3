"""Overflow guards of the switch scan.

* the margin cumsum int32/int64 promotion of the vectorised compaction;
* the int32/int64 choice of the batch engine's vote-stream sort keys;
* the int64 accumulators of the stream path's cell sums;
* a real scan past the int16 range: the vote ordinals, rediscoveries and
  vote totals of one item with 50,000 votes stay exact, in the serial
  scan and in the batch engine, and its skew pair sum passes the int32
  range.
"""

from __future__ import annotations

import numpy as np

from repro.common.labels import CLEAN, DIRTY, UNSEEN
from repro.core import state
from repro.core.state import PermutationBatch
from repro.core.switch import (
    _margin_cumsum_dtype,
    _stream_key_dtype,
    _SwitchScan,
    switch_statistics,
)
from repro.crowd.response_matrix import ResponseMatrix


class TestDtypeAudit:
    """Overflow guards on the scan hot path (satellite: dtype audit)."""

    def test_margin_cumsum_dtype_boundary(self):
        boundary = int(np.iinfo(np.int32).max)
        assert _margin_cumsum_dtype(boundary) == np.int32
        assert _margin_cumsum_dtype(boundary + 1) == np.int64

    def test_stream_key_dtype_boundary(self):
        # The largest key, (item * K + position) * 2 + is_dirty, is
        # 2 N K - 1: int32 holds it up to 2 N K = 2**31.
        assert _stream_key_dtype(2**15, 2**15) == np.int32
        assert _stream_key_dtype(2**15, 2**15 + 1) == np.int64
        assert _stream_key_dtype(1, 2**30) == np.int32
        assert _stream_key_dtype(1, 2**30 + 1) == np.int64
        assert _stream_key_dtype(0, 0) == np.int32

    def test_int64_keys_build_the_same_stream(self, monkeypatch):
        # A matrix past 2 N K = 2**31 takes gigabytes, so the int64 path
        # runs here on a small one.
        rng = np.random.default_rng(8)
        votes = rng.choice([UNSEEN, CLEAN, DIRTY], size=(7, 11)).astype(np.int8)
        matrix = ResponseMatrix.from_array(votes)
        orders = [None] + [list(rng.permutation(11)) for _ in range(3)]
        checkpoints = [0, 3, 11, 6, 6]
        narrow = PermutationBatch(matrix, orders, checkpoints)
        monkeypatch.setattr(state, "_stream_key_dtype", lambda *shape: np.int64)
        wide = PermutationBatch(matrix, orders, checkpoints)
        for name in ("vote_rows", "vote_cols", "vote_states", "event_last_vote"):
            np.testing.assert_array_equal(
                getattr(wide._scan, name), getattr(narrow._scan, name), err_msg=name
            )
        np.testing.assert_array_equal(
            wide.switch_sweep_cells.pair_sums[None], narrow.switch_sweep_cells.pair_sums[None]
        )

    def test_stream_path_sums_in_int64(self, monkeypatch):
        # The stream path sums per-vote deltas per cell: 2a + 1 for sum
        # n^2 and 2 (r - 1) for the skew pair sum.  One item with 70,000
        # dirty votes takes both past 2**32 in its last cell, so a float
        # or 32-bit accumulator would show here.
        num_columns = 70_000
        values = np.full((1, num_columns), DIRTY, dtype=np.int8)
        values[0, 1] = CLEAN  # a tie: the item switches back, then dirty again
        matrix = ResponseMatrix.from_array(values)
        checkpoints = [1, 2, 40_000, num_columns]
        table = PermutationBatch(matrix, [None, None], checkpoints)
        assert not table._from_stream
        monkeypatch.setattr(state, "_reads_stream", lambda *shape: True)
        stream = PermutationBatch(matrix, [None, None], checkpoints)
        assert stream._from_stream
        positives = num_columns - 1
        assert stream.positive_moments.squares[0, -1] == positives**2 > 2**32
        # After the tie, the third switch is rediscovered by every later vote.
        last_run = num_columns - 2
        assert stream.switch_sweep_cells.pair_sums[None][0, -1] == last_run * (last_run - 1) > 2**32
        for name in ("total", "squares", "singletons", "doubletons"):
            got = getattr(stream.positive_moments, name)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, getattr(table.positive_moments, name), err_msg=name)
        for name in ("n_switch", "total_votes"):
            np.testing.assert_array_equal(
                getattr(stream.switch_sweep_cells, name), getattr(table.switch_sweep_cells, name)
            )
        np.testing.assert_array_equal(
            stream.switch_sweep_cells.pair_sums[None], table.switch_sweep_cells.pair_sums[None]
        )

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
