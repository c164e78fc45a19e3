"""String and record similarity measures.

The paper's heuristics use a *normalised edit-distance-based similarity*
(restaurant: keep pairs with similarity in (0.5, 0.9); product: (0.4,
0.7)) and mention Jaccard similarity for CrowdER's first stage.  This
module implements both, plus a cheap token-overlap measure used for
blocking, and a record-level wrapper that renders records to text first.

The edit distance is Myers' bit-parallel Levenshtein algorithm on
Python ints: pure Python and stdlib only, it computes the exact distance
of the classic dynamic program with a few integer operations per
character of the longer string, whatever the strings' lengths.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Set

from repro.common.exceptions import ValidationError
from repro.data.record import Record


def levenshtein_distance(a: str, b: str) -> int:
    """Compute the Levenshtein (edit) distance between two strings.

    Myers' bit-parallel algorithm in Hyyrö's form: one column of the
    dynamic program over the shorter string is kept as bit vectors of
    its vertical +1 (``pv``) and -1 (``mv``) deltas, and each character
    of the longer string advances the whole column at once.  Python ints
    hold vectors of any length, so ``O(len(a) * len(b) / w)`` time for
    word size ``w`` and ``O(len(b))`` memory; the result equals the
    classic ``O(len(a) * len(b))`` dynamic program's.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    # Bit i of peq[c] is set iff b[i] == c.
    peq = {}
    for index, char in enumerate(b):
        peq[char] = peq.get(char, 0) | (1 << index)
    mask = (1 << len(b)) - 1
    last = 1 << (len(b) - 1)
    pv, mv, distance = mask, 0, len(b)
    for char in a:
        eq = peq.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            distance += 1
        elif mh & last:
            distance -= 1
        # The top row of the table grows by one per character: ``| 1``.
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return distance


def normalized_edit_similarity(a: str, b: str) -> float:
    """Return ``1 - edit_distance(a, b) / max(len(a), len(b))``.

    The result is in ``[0, 1]``: identical strings score 1.0, completely
    different strings of equal length score 0.0.  Two empty strings are
    defined to be identical (similarity 1.0).
    """
    a = (a or "").strip().lower()
    b = (b or "").strip().lower()
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / longest


def _tokens(text: str) -> Set[str]:
    return {token for token in (text or "").lower().split() if token}


def jaccard_similarity(a: str, b: str) -> float:
    """Token-level Jaccard similarity ``|A ∩ B| / |A ∪ B|``.

    Two empty token sets are defined to be identical (similarity 1.0).
    """
    tokens_a, tokens_b = _tokens(a), _tokens(b)
    if not tokens_a and not tokens_b:
        return 1.0
    union = tokens_a | tokens_b
    if not union:
        return 1.0
    return len(tokens_a & tokens_b) / len(union)


def token_overlap_similarity(a: str, b: str) -> float:
    """Overlap coefficient ``|A ∩ B| / min(|A|, |B|)``.

    More forgiving than Jaccard when one string is much longer than the
    other; used by the blocking stage to cheaply shortlist candidates.
    """
    tokens_a, tokens_b = _tokens(a), _tokens(b)
    if not tokens_a or not tokens_b:
        return 1.0 if not tokens_a and not tokens_b else 0.0
    return len(tokens_a & tokens_b) / min(len(tokens_a), len(tokens_b))


_MEASURES = {
    "edit": normalized_edit_similarity,
    "jaccard": jaccard_similarity,
    "overlap": token_overlap_similarity,
}


def record_similarity(
    left: Record,
    right: Record,
    *,
    fields: Optional[Sequence[str]] = None,
    measure: str = "edit",
) -> float:
    """Similarity between two records, computed on their rendered text.

    Parameters
    ----------
    left, right:
        The records to compare.
    fields:
        Field names to include when rendering; defaults to every field.
    measure:
        One of ``"edit"`` (normalised edit similarity, the paper's choice),
        ``"jaccard"``, or ``"overlap"``.

    Raises
    ------
    repro.common.exceptions.ValidationError
        If ``measure`` is not a known similarity measure.
    """
    try:
        func = _MEASURES[measure]
    except KeyError:
        raise ValidationError(
            f"unknown similarity measure {measure!r}; expected one of {sorted(_MEASURES)}"
        ) from None
    return func(left.text(fields), right.text(fields))


def available_measures() -> Iterable[str]:
    """Names of the similarity measures understood by :func:`record_similarity`."""
    return tuple(sorted(_MEASURES))
