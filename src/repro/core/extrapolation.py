"""The extrapolation baseline (Section 2.2.3 of the paper).

The simplest predictive technique: perfectly clean a small sample of the
data (with an oracle or with heavy crowd redundancy), compute the sample
error rate, and scale it to the whole dataset.  The paper uses it (as
EXTRAPOL) to illustrate two failure modes:

* the **chicken-and-egg problem** — you cannot know the sample is
  perfectly clean without already having a quality metric, and
* **unrepresentative samples** — when errors are rare, small samples have
  enormous variance (Figure 2a), and realistic crowd cleaning of the sample
  drifts with worker mistakes (Figure 2b).

The module provides the pure arithmetic (:func:`extrapolate_from_sample`),
an oracle-sample study helper used by the Figure 2(a) benchmark, and a
matrix-level estimator that extrapolates from the majority labels of the
items covered so far (the "realistic" variant in Figure 2b and in the
EXTRAPOL bands of Figures 3–5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.rng import RandomState, ensure_rng
from repro.common.validation import check_fraction, check_int
from repro.core.base import BatchEstimates, EstimateResult, StateEstimatorMixin
from repro.data.record import Dataset


def extrapolate_from_sample(
    sample_size: int,
    sample_errors: int,
    population_size: int,
) -> Dict[str, float]:
    """Scale a sample error count up to the population (the paper's example).

    ``err_total = (population_size / sample_size) * sample_errors`` and
    ``err_remaining = err_total - sample_errors``.

    Parameters
    ----------
    sample_size:
        Number of items in the perfectly-cleaned sample.
    sample_errors:
        Number of errors found in the sample.
    population_size:
        Total number of items in the dataset.

    Returns
    -------
    dict
        ``{"total": ..., "remaining": ..., "rate": ...}``.
    """
    check_int(sample_size, "sample_size", minimum=1)
    check_int(sample_errors, "sample_errors", minimum=0)
    check_int(population_size, "population_size", minimum=1)
    rate = sample_errors / sample_size
    total = rate * population_size
    return {
        "total": float(total),
        "remaining": float(total - sample_errors),
        "rate": float(rate),
    }


def oracle_sample_extrapolations(
    dataset: Dataset,
    *,
    sample_fraction: float = 0.02,
    num_samples: int = 4,
    candidate_ids: Optional[Sequence[int]] = None,
    seed: RandomState = None,
) -> List[Dict[str, float]]:
    """Reproduce the Figure 2(a) study: oracle-cleaned random samples.

    Draws ``num_samples`` independent random samples of ``sample_fraction``
    of the candidate items, counts their true errors using the gold
    standard (the "oracle"), and extrapolates each to the full candidate
    set.

    Returns
    -------
    list of dict
        One extrapolation result per sample, each including the sample size
        and the number of errors the oracle found.
    """
    check_fraction(sample_fraction, "sample_fraction", allow_zero=False)
    check_int(num_samples, "num_samples", minimum=1)
    rng = ensure_rng(seed)
    items = list(candidate_ids) if candidate_ids is not None else list(dataset.record_ids)
    population = len(items)
    sample_size = max(1, int(round(sample_fraction * population)))
    results = []
    for _ in range(num_samples):
        chosen = rng.choice(population, size=sample_size, replace=False)
        sample_items = [items[int(i)] for i in chosen]
        errors = sum(1 for item in sample_items if dataset.is_dirty(item))
        extrapolation = extrapolate_from_sample(sample_size, errors, population)
        extrapolation["sample_size"] = float(sample_size)
        extrapolation["sample_errors"] = float(errors)
        results.append(extrapolation)
    return results


@dataclass
class ExtrapolationEstimator(StateEstimatorMixin):
    """Matrix-level extrapolation baseline (EXTRAPOL).

    Takes the items that have received at least ``min_votes`` votes as "the
    cleaned sample", labels them by majority consensus, and scales the
    sample error rate to the full candidate set.  This is the realistic
    (crowd-cleaned, not oracle-cleaned) variant of the baseline: the sample
    labels may themselves be wrong, which is exactly the drift Figure 2(b)
    demonstrates.

    Parameters
    ----------
    min_votes:
        Minimum number of votes for an item to count as part of the
        cleaned sample.
    name:
        Registry / report name.
    """

    min_votes: int = 1
    name: str = "extrapolation"

    def __post_init__(self) -> None:
        check_int(self.min_votes, "min_votes", minimum=1)

    def _result(self, covered: int, sample_errors: int, num_items: int) -> EstimateResult:
        if covered == 0:
            return EstimateResult(
                estimate=0.0,
                observed=0.0,
                details={"covered_items": 0.0, "sample_errors": 0.0, "sample_rate": 0.0},
            )
        extrapolation = extrapolate_from_sample(covered, sample_errors, num_items)
        return EstimateResult(
            estimate=extrapolation["total"],
            observed=float(sample_errors),
            details={
                "covered_items": float(covered),
                "sample_errors": float(sample_errors),
                "sample_rate": extrapolation["rate"],
            },
        )

    def estimate_state(self, state) -> EstimateResult:
        """Extrapolate the majority error rate of covered items to all items.

        An item is in the "cleaned sample" when it has at least
        ``min_votes`` votes; it counts as a sample error when its majority
        consensus is dirty (ties default to clean, matching
        :func:`~repro.crowd.consensus.majority_labels`).
        """
        covered, sample_errors = state.coverage_counts(self.min_votes)
        return self._result(covered, sample_errors, state.num_items)

    @np.errstate(divide="ignore", invalid="ignore")
    def estimate_sweep_batch(self, batch) -> BatchEstimates:
        """Every (permutation, checkpoint) cell of a :class:`PermutationBatch`.

        The coverage counts come from the batch's count tables; the
        scaling is :func:`extrapolate_from_sample`'s, cell by cell in
        numpy (an uncovered cell reports zeros, as :meth:`_result` does),
        so every estimate is bit-identical to the serial sweep.
        """
        covered, sample_errors = batch.coverage_counts(self.min_votes)
        uncovered = covered == 0
        rate = np.where(uncovered, 0.0, sample_errors / covered)
        return BatchEstimates(
            np.where(uncovered, 0.0, rate * batch.num_items),
            sample_errors,
            {"covered_items": covered, "sample_errors": sample_errors, "sample_rate": rate},
        )


def extrapolation_band(
    estimates: Sequence[float],
) -> Dict[str, float]:
    """Summarise repeated extrapolations as a mean +/- one-standard-deviation band.

    The paper plots EXTRAPOL as such a band; the benchmark harness uses this
    helper to produce the band edges.
    """
    values = np.asarray(list(estimates), dtype=float)
    if values.size == 0:
        return {"mean": 0.0, "std": 0.0, "low": 0.0, "high": 0.0}
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return {"mean": mean, "std": std, "low": mean - std, "high": mean + std}
