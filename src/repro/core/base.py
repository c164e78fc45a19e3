"""Common estimator interface and result container.

Every estimator in :mod:`repro.core` implements the same tiny protocol —
``estimate(matrix, upto=None) -> EstimateResult`` — so the experiment
harness can sweep a heterogeneous set of estimators over a task stream
without special cases.  Two further methods layer on top of it:

* ``estimate_sweep(matrix, checkpoints)`` evaluates many prefixes in one
  incremental pass (PR 1's sweep engine),
* ``estimate_state(state)`` evaluates one
  :class:`~repro.core.state.EstimationState` — the shared incremental
  statistics layer that the single-prefix path, the sweep engine and the
  streaming session all feed, and
* ``estimate_sweep_batch(batch)`` evaluates a whole
  :class:`~repro.core.state.PermutationBatch` — every checkpoint of every
  column permutation in one call over the batch's shared tables (the
  engine behind the permutation-averaged experiment runner) — and
  returns one :class:`BatchEstimates`.

Built-in estimators implement ``estimate_state`` and inherit the others
from :class:`StateEstimatorMixin`; those on the runner's hot path also
implement ``estimate_sweep_batch`` as elementwise array arithmetic that
repeats their scalar core step for step.  Third-party estimators can
still provide just ``estimate`` and are handled by the fallback loops in
:func:`sweep_estimates` and :func:`batch_estimates`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.crowd.response_matrix import ResponseMatrix


@dataclass(frozen=True)
class EstimateResult:
    """The output of one estimator evaluation.

    Attributes
    ----------
    estimate:
        The estimated **total** number of errors (or switches) the dataset
        contains — i.e. what the descriptive count would converge to with
        infinite workers.
    observed:
        The descriptive count the estimator starts from (``c_nominal``,
        ``c_majority`` or ``c_switch`` depending on the estimator).
    remaining:
        The estimated number of errors (switches) still undetected:
        ``estimate - observed`` clipped at zero.
    details:
        Estimator-specific diagnostics (sample coverage, f-statistics,
        skew coefficient, which switch direction was used, ...).
    """

    estimate: float
    observed: float
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def remaining(self) -> float:
        """Estimated number of still-undetected errors (never negative)."""
        return max(0.0, float(self.estimate) - float(self.observed))


class BatchEstimates:
    """One estimator's results over every cell of a permutation batch.

    ``estimates`` and ``observed`` are ``(R, m)`` float64 arrays indexed
    ``[permutation, checkpoint]``; the runner reads ``estimates`` and
    nothing else.  Indexing ``[p]`` gives permutation ``p``'s sweep as a
    list of :class:`EstimateResult`, built on first access from the
    arrays (each ``details`` value a float from the estimator's
    ``(R, m)`` detail array), so ``batch[p][j]`` equals the serial
    sweep's ``estimate_sweep(permuted_p, checkpoints)[j]``.
    """

    __slots__ = ("estimates", "observed", "_details", "_rows")

    def __init__(
        self,
        estimates: np.ndarray,
        observed: np.ndarray,
        details: Mapping[str, np.ndarray],
    ):
        self.estimates = np.asarray(estimates, dtype=np.float64)
        self.observed = np.asarray(observed, dtype=np.float64)
        # A scalar detail (a parameter) broadcasts to every cell.
        self._details = {
            key: np.broadcast_to(np.asarray(values, dtype=np.float64), self.estimates.shape)
            for key, values in details.items()
        }
        self._rows: List[Optional[List[EstimateResult]]] = [None] * len(self.estimates)

    @classmethod
    def from_results(
        cls, results: Sequence[Sequence[EstimateResult]]
    ) -> "BatchEstimates":
        """Wrap ``[permutation][checkpoint]`` results; indexing returns them."""
        rows = [list(row) for row in results]
        shape = (len(rows), len(rows[0]) if rows else 0)
        batch = cls(
            np.array([[r.estimate for r in row] for row in rows]).reshape(shape),
            np.array([[r.observed for r in row] for row in rows]).reshape(shape),
            {},
        )
        batch._rows = rows
        return batch

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, permutation: int) -> List[EstimateResult]:
        p = operator.index(permutation)
        row = self._rows[p]
        if row is None:
            details = {key: values[p].tolist() for key, values in self._details.items()}
            row = [
                EstimateResult(
                    estimate=estimate,
                    observed=observed,
                    details={key: column[j] for key, column in details.items()},
                )
                for j, (estimate, observed) in enumerate(
                    zip(self.estimates[p].tolist(), self.observed[p].tolist())
                )
            ]
            self._rows[p] = row
        return row


@runtime_checkable
class EstimatorProtocol(Protocol):
    """Structural interface every estimator satisfies.

    Implementations must be stateless with respect to the matrix (all
    evaluation inputs come from the matrix or state passed per call) so
    the harness can evaluate them on arbitrary prefixes in any order —
    and so one instance can be shared between the batch runner and a
    streaming session.
    """

    #: Short, stable name used by the registry and in result tables.
    name: str

    def estimate(
        self, matrix: ResponseMatrix, upto: Optional[int] = None
    ) -> EstimateResult:
        """Estimate the total error count from the first ``upto`` columns.

        ``upto`` follows the contract of
        :meth:`~repro.crowd.response_matrix.ResponseMatrix.resolve_upto`:
        ``None`` means all columns, negative values raise
        ``ValidationError``, oversized values clamp.
        """
        ...

    def estimate_sweep(
        self, matrix: ResponseMatrix, checkpoints: Sequence[int]
    ) -> List[EstimateResult]:
        """Evaluate the estimator at every checkpoint prefix in one sweep.

        Must be equivalent (bit-identical results) to calling
        :meth:`estimate` once per checkpoint; implementations are free to
        share work across checkpoints.  Inherit :class:`SweepEstimatorMixin`
        to get the fallback loop for free.  Note that ``isinstance`` checks
        against this protocol require both methods; the harness itself is
        more lenient — :func:`sweep_estimates` accepts estimate-only
        objects and falls back to the per-checkpoint loop for them.
        """
        ...


class SweepEstimatorMixin:
    """Default ``estimate_sweep`` falling back to the per-checkpoint loop.

    Estimators inherit this to satisfy the sweep half of
    :class:`EstimatorProtocol` and override :meth:`estimate_sweep` when a
    single-pass incremental implementation exists.  The contract either way:
    ``estimate_sweep(m, cps)[j]`` equals ``estimate(m, cps[j])`` exactly.
    """

    def estimate_sweep(
        self, matrix: ResponseMatrix, checkpoints: Sequence[int]
    ) -> List[EstimateResult]:
        """Evaluate :meth:`estimate` at every checkpoint prefix."""
        return [self.estimate(matrix, checkpoint) for checkpoint in checkpoints]

    def estimate_sweep_batch(self, batch) -> BatchEstimates:
        """Evaluate every permutation's sweep of a cross-permutation batch.

        ``batch`` is a :class:`~repro.core.state.PermutationBatch`; the
        result is indexed ``[permutation][checkpoint]`` and must be
        bit-identical to sweeping each permuted matrix separately.  This
        fallback does exactly that (materialising one permuted matrix at a
        time); estimators with a batched implementation override it.
        """
        return BatchEstimates.from_results(
            [
                self.estimate_sweep(batch.permuted_matrix(p), batch.checkpoints)
                for p in range(batch.num_permutations)
            ]
        )


class StateEstimatorMixin(SweepEstimatorMixin):
    """Derive ``estimate`` and ``estimate_sweep`` from ``estimate_state``.

    Subclasses implement a single method, ``estimate_state(state)``,
    computing the result from an
    :class:`~repro.core.state.EstimationState`.  The two matrix-facing
    entry points then reduce to building the right state:

    * :meth:`estimate` wraps the prefix in a lazily-computed
      :class:`~repro.core.state.MatrixPrefixState`;
    * :meth:`estimate_sweep` evaluates over
      :func:`~repro.core.state.matrix_sweep_states`, whose checkpoint
      tables and switch scan are shared across the whole sweep.

    Because a :class:`~repro.core.state.StreamingState` satisfies the same
    interface, the identical ``estimate_state`` code path also serves the
    streaming session — one implementation, three access patterns, and the
    bit-identical guarantee between them comes for free.
    """

    def estimate_state(self, state) -> EstimateResult:
        """Compute the estimate from an :class:`EstimationState`."""
        raise NotImplementedError

    def estimate(
        self, matrix: ResponseMatrix, upto: Optional[int] = None
    ) -> EstimateResult:
        """Estimate from the first ``upto`` columns of ``matrix``."""
        from repro.core.state import MatrixPrefixState

        return self.estimate_state(MatrixPrefixState(matrix, upto))

    def estimate_sweep(
        self, matrix: ResponseMatrix, checkpoints: Sequence[int]
    ) -> List[EstimateResult]:
        """Evaluate every checkpoint prefix over shared sweep tables."""
        from repro.core.state import matrix_sweep_states

        return [
            self.estimate_state(state)
            for state in matrix_sweep_states(matrix, checkpoints)
        ]

    def estimate_sweep_batch(self, batch) -> BatchEstimates:
        """Evaluate every (permutation, checkpoint) cell of a batch.

        The default evaluates :meth:`estimate_state` over the batch's
        shared per-cell states, so even estimators without a dedicated
        batched implementation reuse the batch's one set of count tables
        and the single cross-permutation switch scan.
        """
        return BatchEstimates.from_results(
            [
                [self.estimate_state(state) for state in batch.states(p)]
                for p in range(batch.num_permutations)
            ]
        )


def sweep_estimates(
    estimator: EstimatorProtocol,
    matrix: ResponseMatrix,
    checkpoints: Sequence[int],
    *,
    states: Optional[Sequence] = None,
) -> List[EstimateResult]:
    """Evaluate ``estimator`` at every checkpoint, using its fast sweep if any.

    Parameters
    ----------
    estimator:
        The estimator to evaluate.
    matrix:
        The collected vote matrix.
    checkpoints:
        Prefix lengths to evaluate at.
    states:
        Pre-built estimation states for the checkpoints (from
        :func:`~repro.core.state.matrix_sweep_states`).  Callers that
        evaluate several estimators over the same sweep pass the same
        list to each call so the checkpoint tables and switch scan are
        computed once, not once per estimator.

    Third-party estimators that only implement ``estimate`` are supported
    through the per-checkpoint fallback loop.
    """
    estimate_state = getattr(estimator, "estimate_state", None)
    if states is not None and estimate_state is not None:
        return [estimate_state(state) for state in states]
    sweep = getattr(estimator, "estimate_sweep", None)
    if sweep is not None:
        return sweep(matrix, checkpoints)
    return [estimator.estimate(matrix, checkpoint) for checkpoint in checkpoints]


def batch_estimates(estimator: EstimatorProtocol, batch) -> BatchEstimates:
    """Evaluate ``estimator`` over every cell of a cross-permutation batch.

    ``batch`` is a :class:`~repro.core.state.PermutationBatch`; the result
    is a :class:`BatchEstimates`, indexed ``[permutation][checkpoint]``.
    Estimators exposing ``estimate_sweep_batch`` (every built-in, via the
    mixins) evaluate over the batch's shared tables; estimate-only
    third-party estimators fall back to one serial sweep per materialised
    permuted matrix — identical results, only the wall-clock differs.
    """
    fast = getattr(estimator, "estimate_sweep_batch", None)
    if fast is not None:
        return fast(batch)
    return BatchEstimates.from_results(
        [
            sweep_estimates(estimator, batch.permuted_matrix(p), batch.checkpoints)
            for p in range(batch.num_permutations)
        ]
    )
