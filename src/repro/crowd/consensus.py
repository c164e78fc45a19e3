"""Descriptive consensus functions over a response matrix.

These are the descriptive baselines of Section 2.2 of the paper:

* ``nominal(I)`` — count every item marked dirty by at least one worker,
* ``majority(I)`` — count items whose dirty votes outnumber their clean
  votes (the majority consensus).

Both operate on any column prefix of the matrix so the experiment harness
can trace them over the task stream.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.common.labels import CLEAN, DIRTY
from repro.crowd.response_matrix import ResponseMatrix


def nominal_labels(matrix: ResponseMatrix, upto: Optional[int] = None) -> Dict[int, int]:
    """Per-item nominal labels: 1 if any worker marked the item dirty.

    Parameters
    ----------
    matrix:
        The response matrix.
    upto:
        Consider only the first ``upto`` columns (``None`` = all).

    Returns
    -------
    dict
        Mapping from item id to 0/1 label.
    """
    positives = matrix.positive_counts(upto)
    return {item: int(count > 0) for item, count in zip(matrix.item_ids, positives)}


def nominal_count(matrix: ResponseMatrix, upto: Optional[int] = None) -> int:
    """``c_nominal`` — the number of items marked dirty by at least one worker."""
    return int((matrix.positive_counts(upto) > 0).sum())


def majority_vote_counts(matrix: ResponseMatrix, upto: Optional[int] = None) -> np.ndarray:
    """Return the per-item margin ``n_i^+ - n_i^-`` (dirty minus clean votes)."""
    return matrix.positive_counts(upto) - matrix.negative_counts(upto)


def majority_labels(
    matrix: ResponseMatrix,
    upto: Optional[int] = None,
    *,
    tie_value: int = 0,
) -> Dict[int, int]:
    """Per-item majority labels.

    An item is labelled dirty when strictly more workers marked it dirty
    than clean (``n_i^+ - n_i/2 > 0`` in the paper's notation, which is the
    same as ``n_i^+ > n_i^-``).  Ties and unseen items receive
    ``tie_value`` (0 by default — the paper assumes items start clean).

    Parameters
    ----------
    matrix:
        The response matrix.
    upto:
        Consider only the first ``upto`` columns.
    tie_value:
        Label assigned when dirty and clean votes are tied (including the
        zero-vote case).
    """
    margins = majority_vote_counts(matrix, upto)
    labels: Dict[int, int] = {}
    for item, margin in zip(matrix.item_ids, margins):
        if margin > 0:
            labels[item] = 1
        elif margin < 0:
            labels[item] = 0
        else:
            labels[item] = int(tie_value)
    return labels


def majority_count(matrix: ResponseMatrix, upto: Optional[int] = None) -> int:
    """``c_majority`` — the number of items whose majority consensus is dirty."""
    return int((majority_vote_counts(matrix, upto) > 0).sum())


def majority_count_history(matrix: ResponseMatrix, upto: Optional[int] = None) -> np.ndarray:
    """``c_majority`` after *every* column prefix, as an ``(upto + 1,)`` array.

    ``history[j]`` is the majority count after the first ``j`` columns
    (``history[0] = 0``).  One cumulative pass over the vote matrix covers
    all prefixes, which is what the trend detection of the SWITCH
    total-error estimator needs during a sweep: lookback positions are
    arbitrary ``upto - window`` offsets, not checkpoint positions.
    """
    upto = matrix.resolve_upto(upto)
    votes = matrix.values[:, :upto]
    margins = np.cumsum((votes == DIRTY).astype(np.int64) - (votes == CLEAN), axis=1)
    history = np.zeros(upto + 1, dtype=np.int64)
    if upto:
        history[1:] = (margins > 0).sum(axis=0)
    return history


def consensus_accuracy(
    matrix: ResponseMatrix,
    ground_truth: Dict[int, int],
    upto: Optional[int] = None,
) -> Dict[str, float]:
    """Score the current majority consensus against a gold standard.

    Returns precision, recall and F1 of the dirty class plus the raw
    false-positive / false-negative counts.  Used by the experiment harness
    to report how far the descriptive consensus is from the ground truth at
    each point of the task stream.
    """
    labels = majority_labels(matrix, upto)
    tp = fp = fn = tn = 0
    for item, predicted in labels.items():
        actual = int(ground_truth.get(item, 0))
        if predicted == 1 and actual == 1:
            tp += 1
        elif predicted == 1 and actual == 0:
            fp += 1
        elif predicted == 0 and actual == 1:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "true_positives": float(tp),
        "false_positives": float(fp),
        "false_negatives": float(fn),
        "true_negatives": float(tn),
    }
