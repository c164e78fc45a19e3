"""Descriptive baselines: nominal count and majority voting (Section 2.2).

These are not predictive — they summarise what the first ``K`` workers have
already said — but they are both the baselines the paper plots (VOTING) and
building blocks of the predictive estimators (Chao92 starts from the
nominal count, vChao92 and SWITCH start from the majority count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.validation import check_int, check_probability
from repro.core.base import BatchEstimates, EstimateResult, StateEstimatorMixin
from repro.crowd.consensus import majority_count, nominal_count
from repro.crowd.response_matrix import ResponseMatrix


def nominal_estimate(matrix: ResponseMatrix, upto: Optional[int] = None) -> int:
    """``c_nominal`` — items marked dirty by at least one worker (Section 2.2.1)."""
    return nominal_count(matrix, upto)


def majority_estimate(matrix: ResponseMatrix, upto: Optional[int] = None) -> int:
    """``c_majority`` — items whose majority consensus is dirty (Section 2.2.2)."""
    return majority_count(matrix, upto)


@dataclass
class NominalEstimator(StateEstimatorMixin):
    """Descriptive estimator returning the nominal error count."""

    name: str = "nominal"

    def estimate_state(self, state) -> EstimateResult:
        """Return the nominal count; ``estimate == observed`` by construction."""
        count = float(state.nominal_count())
        return EstimateResult(estimate=count, observed=count, details={})

    def estimate_sweep_batch(self, batch) -> BatchEstimates:
        """All (permutation, checkpoint) cells straight from the batch table."""
        return BatchEstimates(batch.nominal_counts, batch.nominal_counts, {})


@dataclass
class VotingEstimator(StateEstimatorMixin):
    """Descriptive estimator returning the majority-consensus error count.

    This is the paper's VOTING baseline: the best purely descriptive answer
    available with the current workers, but with no predictive power about
    how many errors additional workers would still uncover.
    """

    name: str = "voting"

    def estimate_state(self, state) -> EstimateResult:
        """Return the majority count; ``estimate == observed`` by construction."""
        count = float(state.majority_count())
        return EstimateResult(estimate=count, observed=count, details={})

    def estimate_sweep_batch(self, batch) -> BatchEstimates:
        """All (permutation, checkpoint) cells straight from the batch table."""
        return BatchEstimates(batch.majority_counts, batch.majority_counts, {})


@dataclass(frozen=True)
class CollusionReport:
    """Pairwise-agreement collusion diagnostics for one response matrix.

    Collusion detection here is descriptive, like the Section 2.2
    baselines: it summarises the votes already received rather than
    predicting anything.  Two task columns are *flagged* when they voted
    on at least ``min_overlap`` common items and agreed on at least
    ``threshold`` of them; flagged pairs are chained into cliques
    (connected components), which is what a coordinated answer sheet
    produces and what independent honest errors almost never do.
    """

    num_columns: int
    num_pairs: int
    mean_agreement: float
    max_agreement: float
    flagged_pairs: Tuple[Tuple[int, int, float], ...] = ()
    cliques: Tuple[Tuple[int, ...], ...] = ()
    flagged_workers: Tuple[int, ...] = ()
    threshold: float = 0.9
    min_overlap: int = 5

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly payload (served by the HTTP estimates route)."""
        return {
            "num_columns": self.num_columns,
            "num_pairs": self.num_pairs,
            "mean_agreement": self.mean_agreement,
            "max_agreement": self.max_agreement,
            "flagged_pairs": [
                [a, b, agreement] for a, b, agreement in self.flagged_pairs
            ],
            "cliques": [list(clique) for clique in self.cliques],
            "flagged_workers": list(self.flagged_workers),
            "threshold": self.threshold,
            "min_overlap": self.min_overlap,
        }


def collusion_report(
    matrix: ResponseMatrix,
    *,
    threshold: float = 0.9,
    min_overlap: int = 5,
) -> CollusionReport:
    """Scan ``matrix`` for suspiciously agreeing column pairs.

    Every pair of task columns with ``min_overlap`` or more co-voted
    items contributes its agreement fraction; pairs at or above
    ``threshold`` are flagged and merged into cliques of column indices.
    ``flagged_workers`` are the worker ids behind the flagged columns —
    with cross-session collusion the same campaign flags overlapping
    worker sets in every poisoned session.
    """
    check_probability(threshold, "threshold")
    check_int(min_overlap, "min_overlap", minimum=1)
    votes = [matrix.column_votes(column) for column in range(matrix.num_columns)]
    agreements: List[float] = []
    flagged: List[Tuple[int, int, float]] = []
    for a in range(len(votes)):
        for b in range(a + 1, len(votes)):
            common = votes[a].keys() & votes[b].keys()
            if len(common) < min_overlap:
                continue
            agreement = sum(
                1 for item in common if votes[a][item] == votes[b][item]
            ) / len(common)
            agreements.append(agreement)
            if agreement >= threshold:
                flagged.append((a, b, agreement))

    # Chain flagged pairs into cliques (connected components over columns).
    parent: Dict[int, int] = {}

    def find(column: int) -> int:
        parent.setdefault(column, column)
        while parent[column] != column:
            parent[column] = parent[parent[column]]
            column = parent[column]
        return column

    for a, b, _ in flagged:
        parent[find(a)] = find(b)
    members: Dict[int, List[int]] = {}
    for column in parent:
        members.setdefault(find(column), []).append(column)
    cliques = tuple(
        tuple(sorted(group)) for group in sorted(members.values(), key=min)
    )
    workers = matrix.column_workers
    flagged_workers = tuple(
        sorted({workers[column] for clique in cliques for column in clique})
    )
    return CollusionReport(
        num_columns=matrix.num_columns,
        num_pairs=len(agreements),
        mean_agreement=(
            sum(agreements) / len(agreements) if agreements else 0.0
        ),
        max_agreement=max(agreements, default=0.0),
        flagged_pairs=tuple(flagged),
        cliques=cliques,
        flagged_workers=flagged_workers,
        threshold=float(threshold),
        min_overlap=int(min_overlap),
    )
