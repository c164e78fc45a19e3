"""Tests for the string and record similarity measures."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.exceptions import ValidationError
from repro.data.record import Record
from repro.er.similarity import (
    available_measures,
    jaccard_similarity,
    levenshtein_distance,
    normalized_edit_similarity,
    record_similarity,
    token_overlap_similarity,
)


def _dp_distance(a: str, b: str) -> int:
    """The classic two-row Levenshtein dynamic program: the reference."""
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,  # deletion
                    current[j - 1] + 1,  # insertion
                    previous[j - 1] + (char_a != char_b),  # substitution
                )
            )
        previous = current
    return previous[-1]


#: Short alphabets make matches common; non-ASCII and a space included.
_TEXT = st.text(alphabet="abcé漢 ", max_size=90)


class TestLevenshteinDistance:
    @given(a=_TEXT, b=_TEXT, equal=st.booleans())
    @settings(max_examples=300)
    def test_equals_the_dynamic_program(self, a, b, equal):
        # Empty, equal, non-ASCII and over-64-character strings: the bit
        # vectors are Python ints of any length.
        if equal:
            b = a
        assert levenshtein_distance(a, b) == _dp_distance(a, b)

    @pytest.mark.parametrize("length", [63, 64, 65, 130])
    def test_pattern_lengths_around_a_machine_word(self, length):
        a = "ab" * length
        b = a[:length]
        assert levenshtein_distance(a, b) == _dp_distance(a, b) == len(a) - length
        assert levenshtein_distance(b, b[::-1]) == _dp_distance(b, b[::-1])

    def test_identical_strings(self):
        assert levenshtein_distance("portland", "portland") == 0

    def test_empty_against_nonempty(self):
        assert levenshtein_distance("", "abc") == 3
        assert levenshtein_distance("abc", "") == 3

    def test_single_substitution(self):
        assert levenshtein_distance("cat", "car") == 1

    def test_single_insertion(self):
        assert levenshtein_distance("cat", "cart") == 1

    def test_single_deletion(self):
        assert levenshtein_distance("cart", "cat") == 1

    def test_symmetry(self):
        assert levenshtein_distance("kitten", "sitting") == levenshtein_distance("sitting", "kitten")

    def test_known_value(self):
        assert levenshtein_distance("kitten", "sitting") == 3

    def test_triangle_inequality_on_examples(self):
        a, b, c = "golden dragon", "golden dragoon", "silver dragon"
        assert levenshtein_distance(a, c) <= levenshtein_distance(a, b) + levenshtein_distance(b, c)


class TestNormalizedEditSimilarity:
    def test_identical(self):
        assert normalized_edit_similarity("cafe", "cafe") == 1.0

    def test_case_and_whitespace_insensitive(self):
        assert normalized_edit_similarity("  Cafe ", "cafe") == 1.0

    def test_completely_different_equal_length(self):
        assert normalized_edit_similarity("aaaa", "bbbb") == 0.0

    def test_both_empty(self):
        assert normalized_edit_similarity("", "") == 1.0

    def test_range_bounds(self):
        value = normalized_edit_similarity("ritz carlton cafe", "cafe ritz-carlton")
        assert 0.0 <= value <= 1.0

    def test_near_duplicates_score_high(self):
        assert normalized_edit_similarity("blue lotus cafe", "blue lotus caffe") > 0.9


class TestJaccardSimilarity:
    def test_identical_token_sets(self):
        assert jaccard_similarity("blue lotus", "lotus blue") == 1.0

    def test_disjoint(self):
        assert jaccard_similarity("alpha beta", "gamma delta") == 0.0

    def test_partial_overlap(self):
        assert jaccard_similarity("a b c", "b c d") == pytest.approx(2 / 4)

    def test_both_empty(self):
        assert jaccard_similarity("", "") == 1.0


class TestTokenOverlapSimilarity:
    def test_subset_scores_one(self):
        assert token_overlap_similarity("blue lotus", "blue lotus cafe downtown") == 1.0

    def test_one_empty(self):
        assert token_overlap_similarity("", "abc") == 0.0

    def test_both_empty(self):
        assert token_overlap_similarity("", "") == 1.0


class TestRecordSimilarity:
    def test_edit_measure_on_records(self):
        left = Record(record_id=0, fields={"name": "golden dragon cafe"})
        right = Record(record_id=1, fields={"name": "golden dragon caffe"})
        assert record_similarity(left, right) > 0.9

    def test_field_selection_changes_score(self):
        left = Record(record_id=0, fields={"name": "same", "city": "portland"})
        right = Record(record_id=1, fields={"name": "same", "city": "boston"})
        assert record_similarity(left, right, fields=["name"]) == 1.0
        assert record_similarity(left, right) < 1.0

    def test_unknown_measure_rejected(self):
        left = Record(record_id=0, fields={"name": "a"})
        right = Record(record_id=1, fields={"name": "b"})
        with pytest.raises(ValidationError, match="unknown similarity measure"):
            record_similarity(left, right, measure="cosine")

    def test_available_measures_contains_paper_choice(self):
        assert "edit" in available_measures()
        assert "jaccard" in available_measures()
