"""Tests for the worker-response matrix."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.exceptions import ValidationError
from repro.common.labels import CLEAN, DIRTY, UNSEEN
from repro.crowd.response_matrix import ResponseMatrix


class TestConstruction:
    def test_starts_empty(self):
        matrix = ResponseMatrix([10, 20, 30])
        assert matrix.num_items == 3
        assert matrix.num_columns == 0
        assert matrix.total_votes() == 0

    def test_requires_unique_item_ids(self):
        with pytest.raises(ValidationError, match="unique"):
            ResponseMatrix([1, 1, 2])

    def test_requires_nonempty_items(self):
        with pytest.raises(ValidationError, match="at least one item"):
            ResponseMatrix([])

    def test_from_array_shape_checks(self):
        with pytest.raises(ValidationError, match="2-D"):
            ResponseMatrix.from_array(np.array([DIRTY, CLEAN]))

    def test_from_array_item_id_length_mismatch(self):
        votes = np.array([[DIRTY], [CLEAN]])
        with pytest.raises(ValidationError, match="item_ids length"):
            ResponseMatrix.from_array(votes, item_ids=[1, 2, 3])

    def test_from_array_round_trip(self, small_matrix):
        values = small_matrix.values
        rebuilt = ResponseMatrix.from_array(values, item_ids=small_matrix.item_ids)
        assert rebuilt.values.tolist() == values.tolist()


class TestAddColumn:
    def test_add_column_records_votes(self):
        matrix = ResponseMatrix([0, 1, 2])
        matrix.add_column({0: DIRTY, 2: CLEAN}, worker_id=7)
        assert matrix.num_columns == 1
        assert matrix.votes_for(0).tolist() == [DIRTY]
        assert matrix.votes_for(1).tolist() == [UNSEEN]
        assert matrix.votes_for(2).tolist() == [CLEAN]
        assert matrix.column_workers == [7]

    def test_add_column_rejects_unknown_item(self):
        matrix = ResponseMatrix([0, 1])
        with pytest.raises(ValidationError, match="unknown item id"):
            matrix.add_column({5: DIRTY}, worker_id=0)

    def test_add_column_rejects_unseen_vote_value(self):
        matrix = ResponseMatrix([0, 1])
        with pytest.raises(ValidationError, match="votes must be"):
            matrix.add_column({0: UNSEEN}, worker_id=0)

    def test_add_column_returns_index(self):
        matrix = ResponseMatrix([0])
        assert matrix.add_column({0: DIRTY}, worker_id=0) == 0
        assert matrix.add_column({0: CLEAN}, worker_id=1) == 1

    def test_many_columns_equal_from_array(self):
        rng = np.random.default_rng(5)
        votes = rng.choice([UNSEEN, CLEAN, DIRTY], size=(40, 3000), p=[0.8, 0.1, 0.1])
        item_ids = list(range(100, 140))
        matrix = ResponseMatrix(item_ids)
        for column in range(votes.shape[1]):
            index = matrix.add_column(
                {
                    item_ids[row]: int(votes[row, column])
                    for row in np.flatnonzero(votes[:, column] != UNSEEN)
                },
                worker_id=column,
            )
            assert index == column
        expected = ResponseMatrix.from_array(votes, item_ids=item_ids)
        assert matrix.num_columns == 3000
        assert matrix.values.shape == (40, 3000)
        np.testing.assert_array_equal(matrix.values, expected.values)
        assert matrix.column_workers == expected.column_workers
        checkpoints = [0, 7, 3000]
        np.testing.assert_array_equal(
            matrix.positive_counts_at(checkpoints), expected.positive_counts_at(checkpoints)
        )
        np.testing.assert_array_equal(matrix.prefix(9).values, expected.prefix(9).values)
        # A matrix built by from_array keeps growing the same way.
        expected.add_column({100: DIRTY}, worker_id=3000)
        assert expected.num_columns == 3001
        assert expected.votes_for(100)[-1] == DIRTY
        assert expected.votes_for(101)[-1] == UNSEEN

    def test_values_view_is_unchanged_by_later_columns(self):
        matrix = ResponseMatrix([0, 1])
        matrix.add_column({0: DIRTY}, worker_id=0)
        before = matrix.values
        snapshot = before.copy()
        # Enough columns to fill the buffer and grow it at least once.
        for worker in range(1, 40):
            matrix.add_column({0: CLEAN, 1: DIRTY}, worker_id=worker)
            assert before.shape == (2, 1)
            np.testing.assert_array_equal(before, snapshot)
        assert matrix.values.shape == (2, 40)


class TestCounts:
    def test_positive_counts(self, small_matrix):
        assert small_matrix.positive_counts().tolist() == [3, 0, 1, 2]

    def test_negative_counts(self, small_matrix):
        assert small_matrix.negative_counts().tolist() == [1, 2, 0, 1]

    def test_vote_counts(self, small_matrix):
        assert small_matrix.vote_counts().tolist() == [4, 2, 1, 3]

    def test_total_votes(self, small_matrix):
        assert small_matrix.total_votes() == 10
        assert small_matrix.total_positive_votes() == 6

    def test_counts_respect_prefix(self, small_matrix):
        assert small_matrix.positive_counts(upto=2).tolist() == [2, 0, 1, 0]
        assert small_matrix.total_votes(upto=1) == 3

    def test_coverage(self, small_matrix):
        assert small_matrix.coverage() == 1.0
        assert small_matrix.coverage(upto=1) == pytest.approx(3 / 4)

    def test_mean_votes_per_item(self, small_matrix):
        assert small_matrix.mean_votes_per_item() == pytest.approx(10 / 4)

    def test_items_marked_dirty(self, small_matrix):
        assert small_matrix.items_marked_dirty() == [0, 2, 3]
        assert small_matrix.items_marked_dirty(upto=1) == [0, 2]


class TestPrefixAndPermutation:
    def test_prefix_truncates_columns(self, small_matrix):
        prefix = small_matrix.prefix(2)
        assert prefix.num_columns == 2
        assert prefix.positive_counts().tolist() == [2, 0, 1, 0]

    def test_prefix_bounds_checked(self, small_matrix):
        with pytest.raises(ValidationError):
            small_matrix.prefix(99)
        with pytest.raises(ValidationError):
            small_matrix.prefix(-1)

    def test_permutation_preserves_totals(self, small_matrix):
        permuted = small_matrix.permute_columns([4, 3, 2, 1, 0])
        assert permuted.total_votes() == small_matrix.total_votes()
        assert permuted.positive_counts().tolist() == small_matrix.positive_counts().tolist()

    def test_permutation_reorders_workers(self, small_matrix):
        permuted = small_matrix.permute_columns([4, 3, 2, 1, 0])
        assert permuted.column_workers == list(reversed(small_matrix.column_workers))

    def test_invalid_permutation_rejected(self, small_matrix):
        with pytest.raises(ValidationError, match="permutation"):
            small_matrix.permute_columns([0, 0, 1, 2, 3])

    def test_values_view_is_read_only(self, small_matrix):
        with pytest.raises(ValueError):
            small_matrix.values[0, 0] = CLEAN

    def test_row_index_unknown_item(self, small_matrix):
        with pytest.raises(ValidationError, match="unknown item id"):
            small_matrix.row_index(999)
